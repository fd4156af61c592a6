//! Measurement primitives: exact percentiles over raw samples, a seeded
//! RNG and Zipf sampler, and process/thread accounting read from `/proc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency histogram, log-linear in nanoseconds: exact below 128 ns, then
/// 128 linear sub-buckets per power of two up to 2^40 ns (18 minutes), so a
/// percentile (reported at its bucket's midpoint) is within 0.4 % of the
/// raw sample. Small and fixed-size, so recording never allocates and the
/// benchmark's own memory does not grow with the op count.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS as usize) + 1) * SUB as usize;

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist(n={})", self.total)
    }
}

fn bucket(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Midpoint of bucket `i` in nanoseconds.
fn bucket_mid(i: usize) -> f64 {
    let (i, sub) = (i as u64, SUB);
    if i < sub {
        return i as f64;
    }
    let e = (i / sub) as u32 + SUB_BITS - 1;
    let lo = (1u64 << e) | ((i % sub) << (e - SUB_BITS));
    let width = 1u64 << (e - SUB_BITS);
    lo as f64 + (width as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += b;
        }
        self.total += o.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in nanoseconds (`q` in 0..=1); 0 when empty.
    pub fn pct_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank is at most the total count")
    }

    pub fn pct_us(&self, q: f64) -> f64 {
        self.pct_ns(q) / 1e3
    }
}

/// Median of a small set of values (mean of the two middles when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values` (the lowest and highest quarters
/// dropped). Boot times and round figures here are bimodal — a boot either
/// catches a server thread's poll or waits one out — so the median flips
/// between the modes from run to run while this mean moves smoothly with
/// their mix, and outliers from host stalls are dropped.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// SplitMix64: small, seedable, and identical on every platform, so a seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

/// Zipf(theta) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// Open-loop pacing: sleep until `due` (the generator's lateness is
/// measured, not hidden).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Thread-name prefixes the per-thread CPU accounting buckets by. Anything
/// else lands in `other`.
pub const THREAD_BUCKETS: [&str; 6] = [
    "rt-shard",
    "mp-server",
    "net-reactor",
    "net-pump",
    "simproc",
    "gen",
];

fn bucket_of(comm: &str) -> &'static str {
    THREAD_BUCKETS
        .iter()
        .find(|p| comm.starts_with(*p))
        .copied()
        .unwrap_or("other")
}

/// Whole-process resource usage (`getrusage(RUSAGE_SELF)`): CPU time and
/// context switches of every thread, including threads that have exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    cpu_us: i64,
    vol: i64,
    invol: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack to 1 ns (best effort), so an
/// open-loop generator's sleeps and read timeouts end when due instead of
/// up to the default 50 µs late.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one `unsigned long` argument and
    // only changes the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// Pins the calling thread to `cpu` (best effort: an error leaves it
/// unpinned). Generators are pinned one per CPU so the scheduler places
/// the program's threads around the same load every run.
pub fn pin_to_cpu(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned 128-byte CPU set (a valid
    // `cpu_set_t` prefix) and its size is passed alongside; pid 0 names
    // the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

const RUSAGE_SELF: i32 = 0;

impl Usage {
    pub fn now() -> Self {
        let mut u = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            longs: [0; 14],
        };
        // SAFETY: `RUsage` matches the kernel's `struct rusage` layout on
        // 64-bit Linux (the only platform this benchmark runs on), and the
        // pointer is to a live, writable, properly aligned local.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
        if rc != 0 {
            return Self::default();
        }
        let tv = |t: [i64; 2]| t[0] * 1_000_000 + t[1];
        Self {
            cpu_us: tv(u.utime) + tv(u.stime),
            vol: u.longs[12],
            invol: u.longs[13],
        }
    }
}

#[derive(Debug, Clone)]
struct TaskCpu {
    comm: String,
    base_ns: u64,
    last_ns: u64,
}

/// Every live thread's name and CPU time (`schedstat`, nanoseconds).
fn read_tasks() -> Vec<(u64, String, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let p = entry.path();
            let comm = std::fs::read_to_string(p.join("comm")).ok()?;
            let ns = std::fs::read_to_string(p.join("schedstat"))
                .ok()?
                .split_whitespace()
                .next()?
                .parse()
                .ok()?;
            Some((tid, comm.trim().to_string(), ns))
        })
        .collect()
}

/// Per-thread CPU by thread-name bucket over a window. A sampler thread
/// polls `/proc/self/task` so threads born and gone inside the window
/// (generators, simulator procs) are counted too, up to their last
/// sample.
struct ThreadCpu {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<BTreeMap<u64, TaskCpu>>,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(5);

impl ThreadCpu {
    fn start() -> Self {
        let mut tasks: BTreeMap<u64, TaskCpu> = read_tasks()
            .into_iter()
            .map(|(tid, comm, ns)| {
                (
                    tid,
                    TaskCpu {
                        comm,
                        base_ns: ns,
                        last_ns: ns,
                    },
                )
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gen-sampler".into())
            .spawn(move || loop {
                let done = flag.load(Ordering::Acquire);
                for (tid, comm, ns) in read_tasks() {
                    let t = tasks.entry(tid).or_insert(TaskCpu {
                        comm: String::new(),
                        base_ns: 0,
                        last_ns: 0,
                    });
                    t.comm = comm;
                    t.last_ns = ns;
                }
                if done {
                    return tasks;
                }
                std::thread::sleep(SAMPLE_EVERY);
            })
            .expect("spawn CPU sampler thread");
        Self { stop, handle }
    }

    fn stop(self) -> BTreeMap<&'static str, f64> {
        self.stop.store(true, Ordering::Release);
        let tasks = self.handle.join().expect("CPU sampler panicked");
        let mut buckets: BTreeMap<&'static str, f64> = THREAD_BUCKETS
            .iter()
            .chain(std::iter::once(&"other"))
            .map(|b| (*b, 0.0))
            .collect();
        for t in tasks.values() {
            *buckets.entry(bucket_of(&t.comm)).or_default() +=
                t.last_ns.saturating_sub(t.base_ns) as f64 / 1e9;
        }
        buckets
    }
}

/// A measured window: whole-process usage always, per-thread buckets when
/// asked for (traced runs only — the sampler costs CPU of its own).
pub struct HostWindow {
    at: Instant,
    usage: Usage,
    threads: Option<ThreadCpu>,
}

/// What happened during a [`HostWindow`].
#[derive(Debug, Clone, Default)]
pub struct ProcDelta {
    pub wall: Duration,
    /// Whole-process CPU seconds (user + system, exited threads included).
    pub cpu_s: f64,
    /// CPU seconds per thread-name bucket (empty unless sampled).
    pub bucket_cpu_s: BTreeMap<&'static str, f64>,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

impl ProcDelta {
    /// Accumulates another window (rounds of one phase).
    pub fn add(&mut self, o: &ProcDelta) {
        self.wall += o.wall;
        self.cpu_s += o.cpu_s;
        for (b, v) in &o.bucket_cpu_s {
            *self.bucket_cpu_s.entry(b).or_default() += v;
        }
        self.vol_ctxsw += o.vol_ctxsw;
        self.invol_ctxsw += o.invol_ctxsw;
    }
}

impl HostWindow {
    pub fn start(per_thread: bool) -> Self {
        Self {
            threads: per_thread.then(ThreadCpu::start),
            at: Instant::now(),
            usage: Usage::now(),
        }
    }

    pub fn stop(self) -> ProcDelta {
        let now = Usage::now();
        let wall = self.at.elapsed();
        ProcDelta {
            wall,
            cpu_s: (now.cpu_us - self.usage.cpu_us) as f64 / 1e6,
            bucket_cpu_s: self.threads.map(ThreadCpu::stop).unwrap_or_default(),
            vol_ctxsw: (now.vol - self.usage.vol).max(0) as u64,
            invol_ctxsw: (now.invol - self.usage.invol).max(0) as u64,
        }
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current one, so
/// the next [`rss_peak_mb`] covers only what ran in between.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_within_half_a_percent_of_the_raw_samples() {
        let mut raw: Vec<u64> = Vec::new();
        let mut h = Hist::default();
        let mut r = Rng::new(5, 0);
        for _ in 0..100_000 {
            // Spread over 10 ns .. ~10 s.
            let v = (10.0 * 1e9f64.powf(r.unit())) as u64;
            raw.push(v);
            h.push_ns(v);
        }
        raw.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact =
                raw[((q * raw.len() as f64).ceil() as usize).clamp(1, raw.len()) - 1] as f64;
            let got = h.pct_ns(q);
            assert!(
                (got - exact).abs() <= exact * 0.005 + 0.5,
                "q={q}: {got} vs {exact}"
            );
        }
        let mut small = Hist::default();
        for v in 1..=100u64 {
            small.push_ns(v);
        }
        assert_eq!(small.pct_ns(0.5), 50.0);
        assert_eq!(Hist::default().pct_ns(0.5), 0.0);
    }

    #[test]
    fn rng_and_zipf_repeat_per_seed() {
        let z = Zipf::new(64, 0.99);
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..100).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1, 0);
        let hot = (0..10_000).filter(|_| z.sample(&mut r) == 0).count();
        assert!(hot > 1000, "rank 0 should be hot under Zipf(0.99): {hot}");
    }

    #[test]
    fn host_window_sees_short_lived_named_threads() {
        let w = HostWindow::start(true);
        std::thread::Builder::new()
            .name("simproc-test".into())
            .spawn(|| {
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(40) {
                    std::hint::black_box(0u64);
                }
                std::thread::sleep(Duration::from_millis(20));
            })
            .expect("spawn")
            .join()
            .expect("join");
        let d = w.stop();
        assert!(d.cpu_s > 0.02, "process CPU not visible: {}", d.cpu_s);
        let sim = d.bucket_cpu_s["simproc"];
        assert!(sim > 0.02, "exited thread's CPU not bucketed: {sim}");
        assert!(rss_peak_mb() > 0.0);
    }
}
