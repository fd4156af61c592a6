//! What one invocation measured: named metrics with units and sample
//! counts, op accounting, and the correctness failures seen.

use std::time::{Duration, Instant};

use mpsync_runtime::RuntimeStats;

use crate::json::{quote, Value};
use crate::measure::{interquartile_mean, median, Hist, ProcDelta};
use crate::trace::{SpanBuf, Tracer};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile, reported beside it.
    pub samples: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Descriptive key/values for the results file (rates, horizon, …).
    pub info: Vec<(String, String)>,
}

const KEPT_FAILURES: usize = 20;

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// A percentile in µs, with the sample count behind it.
    pub fn put_pct(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: "us",
            samples: Some(samples),
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Folds a finished phase's op accounting and failures in.
    pub fn absorb(&mut self, p: &mut PhaseOut) {
        self.attempted += p.ops + p.failed;
        self.failed += p.failed;
        for f in p.failures.drain(..) {
            self.note_failure(f);
        }
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.note_failure(msg.into());
    }

    fn note_failure(&mut self, msg: String) {
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Host-side per-op accounting over one window (per-thread CPU by name
    /// bucket and context switches).
    pub fn put_host(&mut self, d: &ProcDelta, ops: u64) {
        let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
        for (bucket, cpu) in &d.bucket_cpu_s {
            self.put(
                format!("cpu.{bucket}_us_per_op"),
                per_op(cpu * 1e6),
                "us/op",
            );
        }
        self.put(
            "proc.vol_ctxsw_per_op",
            per_op(d.vol_ctxsw as f64),
            "count/op",
        );
        self.put(
            "proc.invol_ctxsw_per_op",
            per_op(d.invol_ctxsw as f64),
            "count/op",
        );
    }

    /// The result line printed last: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The stamped results document written next to the span file.
    pub fn results_json(&self, header: &[(&str, String)]) -> String {
        let mut s = String::from("{\n");
        for (k, v) in header {
            s.push_str(&format!("  {}: {},\n", quote(k), quote(v)));
        }
        for (k, v) in &self.info {
            s.push_str(&format!("  {}: {},\n", quote(k), quote(v)));
        }
        s.push_str(&format!(
            "  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": [\n",
            self.attempted,
            self.failed,
            self.failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples = m
                    .samples
                    .map_or(String::new(), |n| format!(", \"samples\": {n}"));
                format!(
                    "    {{\"name\": {}, \"value\": {}, \"unit\": {}{samples}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// JSON number with every digit kept; non-finite values (never expected)
/// become 0 rather than invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Number of equal sub-windows a measured phase is cut into. Rates and
/// percentiles are computed per sub-window and the median reported, so a
/// burst of host noise moves one sub-window, not the result.
pub const SUB_WINDOWS: usize = 8;

/// Per-op latencies bucketed by the sub-window the op started in.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Option<Instant>,
    width: Duration,
    lat: Vec<Hist>,
}

impl Default for Windows {
    /// One unbounded window (warm-up, read-back: not reported).
    fn default() -> Self {
        Self {
            start: None,
            width: Duration::MAX,
            lat: vec![Hist::default()],
        }
    }
}

impl Windows {
    pub fn new(start: Instant, end: Instant) -> Self {
        Self {
            start: Some(start),
            width: end.saturating_duration_since(start) / SUB_WINDOWS as u32,
            lat: vec![Hist::default(); SUB_WINDOWS],
        }
    }

    /// Records an op that started at `at`; ops starting past the last
    /// sub-window are not timed.
    pub fn record(&mut self, at: Instant, lat: Duration) {
        let i = match self.start {
            Some(s) if !self.width.is_zero() => {
                (at.saturating_duration_since(s).as_nanos() / self.width.as_nanos()) as usize
            }
            _ => 0,
        };
        if let Some(h) = self.lat.get_mut(i) {
            h.push(lat);
        }
    }

    /// Adds another generator's latencies over the same sub-windows.
    pub fn merge(&mut self, o: &Windows) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
    }

    /// Pools another round's sub-windows (all rounds' are the same width).
    fn append(&mut self, o: Windows) {
        if self.lat.is_empty() {
            *self = o;
        } else {
            self.lat.extend(o.lat);
        }
    }

    pub fn count(&self) -> u64 {
        self.lat.iter().map(Hist::len).sum()
    }

    /// Median over sub-windows of the `q` percentile, in µs.
    pub fn median_pct_us(&self, q: f64) -> f64 {
        median_pct_us(&self.lat, q)
    }

    /// Every sub-window merged.
    pub fn all(&self) -> Hist {
        let mut h = Hist::default();
        for w in &self.lat {
            h.merge(w);
        }
        h
    }

    /// Median over sub-windows of ops started per second.
    pub fn median_rate(&self) -> f64 {
        median_rate(&self.lat, self.width)
    }

    /// `f` applied to each pooled round's sub-windows, then the
    /// interquartile mean over the rounds: the median keeps a noisy
    /// sub-window from moving its round, dropping the outer quarters keeps
    /// a round caught in a host stall from moving the run, and the mean of
    /// the rest moves smoothly with the mix of rounds whose boot settled
    /// fast or slow (a median over rounds would flip between them).
    pub fn round_mean(&self, f: impl Fn(&[Hist], Duration) -> f64) -> f64 {
        let v: Vec<f64> = self
            .lat
            .chunks(SUB_WINDOWS)
            .map(|r| f(r, self.width))
            .collect();
        interquartile_mean(&v)
    }
}

pub fn median_pct_us(lat: &[Hist], q: f64) -> f64 {
    let v: Vec<f64> = lat
        .iter()
        .filter(|h| h.len() > 0)
        .map(|h| h.pct_us(q))
        .collect();
    median(&v)
}

pub fn median_rate(lat: &[Hist], width: Duration) -> f64 {
    let v: Vec<f64> = lat
        .iter()
        .map(|h| h.len() as f64 / width.as_secs_f64())
        .collect();
    median(&v)
}

/// One generator's (or one phase's merged) outcome.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Per-op latency: send → reply (closed) or due → reply (open).
    pub lat: Windows,
    /// Open loop only: how late each op left the generator.
    pub late: Hist,
    /// Ops that completed correctly.
    pub ops: u64,
    /// Ops that failed or returned a wrong value.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl PhaseOut {
    /// An outcome whose latencies are timed in sub-windows of
    /// `[start, end)`.
    pub fn windowed(start: Instant, end: Instant) -> Self {
        Self {
            lat: Windows::new(start, end),
            ..Self::default()
        }
    }

    /// An empty outcome to [`PhaseOut::append`] rounds to.
    pub fn pooled() -> Self {
        Self {
            lat: Windows {
                start: None,
                width: Duration::ZERO,
                lat: Vec::new(),
            },
            ..Self::default()
        }
    }

    /// Pools another round's phase; its failures were already absorbed.
    pub fn append(&mut self, o: PhaseOut) {
        self.lat.append(o.lat);
        self.late.merge(&o.late);
        self.ops += o.ops;
    }

    pub fn merge(&mut self, o: PhaseOut) {
        self.lat.merge(&o.lat);
        self.late.merge(&o.late);
        self.ops += o.ops;
        self.failed += o.failed;
        self.failures
            .extend(o.failures.into_iter().take(KEPT_FAILURES));
    }

    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg());
        }
    }
}

/// A phase window starting now.
pub fn window(len: Duration) -> (Instant, Instant) {
    let start = Instant::now();
    (start, start + len)
}

/// End-to-end metrics shared by every workload: the closed phase gives
/// capacity and its latency, the open phase latency at a fixed offered
/// rate; `cpu` is the window whose whole-process CPU per op is reported.
pub fn put_end_to_end(
    r: &mut Report,
    setup_s: f64,
    open: &Summary,
    closed: &Summary,
    (cpu, cpu_ops): (&ProcDelta, u64),
    rss_mb: f64,
) {
    r.put("setup_s", setup_s, "s");
    r.put("throughput_ops_s", closed.rate, "ops/s");
    r.put_pct("latency_p50_us", closed.p50_us, closed.n);
    r.put_pct("latency_p99_us", closed.p99_us, closed.n);
    r.put_pct("open_p50_us", open.p50_us, open.n);
    r.put_pct("open_p90_us", open.p90_us, open.n);
    r.put(
        "cpu_us_per_op",
        cpu.cpu_s * 1e6 / cpu_ops.max(1) as f64,
        "us/op",
    );
    r.put("rss_peak_mb", rss_mb, "MiB");
}

/// A measured phase reduced to what the end-to-end metrics need: the rate
/// and the latency percentiles.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub rate: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Timed ops behind the percentiles.
    pub n: u64,
}

impl Summary {
    /// Per-round medians, interquartile-averaged over the pooled rounds
    /// (see [`Windows::round_mean`]).
    pub fn of(p: &PhaseOut) -> Self {
        let pct = |q: f64| p.lat.round_mean(|r, _| median_pct_us(r, q));
        Self {
            rate: p.lat.round_mean(median_rate),
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            n: p.lat.count(),
        }
    }
}

/// Per-layer numbers every workload's traced run derives from its own
/// phases; `host` is the window (and its ops) whose whole-process CPU the
/// untraced run gates, so the per-thread breakdown explains that figure.
pub fn put_traced_phases(
    r: &mut Report,
    open: &PhaseOut,
    closed: &PhaseOut,
    (host, host_ops): (&ProcDelta, u64),
    open_rate: f64,
) {
    r.put_pct("gen.late_p99_us", open.late.pct_us(0.99), open.late.len());
    r.put("gen.open_rate_ops_s", open_rate, "ops/s");
    // Too noisy on a small shared host to gate (open_p90_us is gated).
    r.put_pct(
        "open_p99_us",
        open.lat.median_pct_us(0.99),
        open.lat.count(),
    );
    r.put_host(host, host_ops);
    r.put("samples.open", open.lat.count() as f64, "count");
    r.put("samples.closed", closed.lat.count() as f64, "count");
}

/// Runs `f` once per generator state on its own thread named `gen-<i>`
/// (so `/proc` accounting separates the benchmark from the program), each
/// with its own span buffer and a 1 ns timer slack; `traced` turns the
/// buffers on. With `pin`, generator `i` is pinned to CPU `i`, so the
/// program's threads are placed around the same load every run. Returns
/// the merged outcome and the wall time from spawn to the last join.
pub fn run_gens<C: Send>(
    gens: &mut [C],
    tracer: &Tracer,
    (traced, pin): (bool, bool),
    f: impl Fn(usize, &mut C, &mut SpanBuf) -> PhaseOut + Sync,
) -> (PhaseOut, Duration) {
    let t0 = Instant::now();
    let results: Vec<(PhaseOut, SpanBuf)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| {
                let f = &f;
                let mut buf = tracer.buf(traced);
                std::thread::Builder::new()
                    .name(format!("gen-{i}"))
                    .spawn_scoped(s, move || {
                        crate::measure::tight_timer_slack();
                        if pin {
                            crate::measure::pin_to_cpu(i % crate::measure::nproc());
                        }
                        (f(i, g, &mut buf), buf)
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut out: Option<PhaseOut> = None;
    for (o, buf) in results {
        tracer.merge(buf);
        match out.as_mut() {
            Some(acc) => acc.merge(o),
            None => out = Some(o),
        }
    }
    (out.unwrap_or_default(), wall)
}

/// Per-shard runtime counters, from [`RuntimeStats`] or its JSON form (the
/// cluster's admin snapshot).
#[derive(Debug, Default, Clone)]
pub struct RtCounts {
    ops: Vec<u64>,
    batches: Vec<u64>,
    rejected: u64,
}

impl RtCounts {
    pub fn of(s: &RuntimeStats) -> Self {
        Self {
            ops: s.shards.iter().map(|x| x.ops).collect(),
            batches: s.shards.iter().map(|x| x.batches).collect(),
            rejected: s.total_rejected(),
        }
    }

    /// Reads the `RuntimeStats::to_json` schema.
    pub fn from_json(v: &Value) -> Self {
        let mut c = Self::default();
        for sh in v.get("shards").and_then(|s| s.as_array()).unwrap_or(&[]) {
            let f = |k: &str| sh.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
            c.ops.push(f("ops"));
            c.batches.push(f("batches"));
            c.rejected += f("rejected");
        }
        c
    }

    /// Counts accrued since `before`.
    pub fn since(&self, before: &RtCounts) -> RtCounts {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, x)| x.saturating_sub(b.get(i).copied().unwrap_or(0)))
                .collect()
        };
        RtCounts {
            ops: sub(&self.ops, &before.ops),
            batches: sub(&self.batches, &before.batches),
            rejected: self.rejected.saturating_sub(before.rejected),
        }
    }

    /// Adds another window's counts, shard by shard.
    pub fn add(&mut self, d: &RtCounts) {
        self.ops.resize(self.ops.len().max(d.ops.len()), 0);
        self.batches
            .resize(self.batches.len().max(d.batches.len()), 0);
        for (a, b) in self.ops.iter_mut().zip(&d.ops) {
            *a += b;
        }
        for (a, b) in self.batches.iter_mut().zip(&d.batches) {
            *a += b;
        }
        self.rejected += d.rejected;
    }

    /// Appends another runtime's shards (a second cluster node).
    pub fn and(mut self, other: RtCounts) -> Self {
        self.ops.extend(other.ops);
        self.batches.extend(other.batches);
        self.rejected += other.rejected;
        self
    }
}

/// `runtime.avg_batch`, `runtime.shard_skew` (max/mean shard ops) and
/// `runtime.rejected` from counts accrued over the measured windows.
pub fn put_runtime(r: &mut Report, d: &RtCounts) {
    let total: u64 = d.ops.iter().sum();
    let batches: u64 = d.batches.iter().sum();
    let mean = total as f64 / d.ops.len().max(1) as f64;
    let max = d.ops.iter().copied().max().unwrap_or(0) as f64;
    r.put(
        "runtime.avg_batch",
        if batches == 0 {
            0.0
        } else {
            total as f64 / batches as f64
        },
        "ops/batch",
    );
    r.put(
        "runtime.shard_skew",
        if mean == 0.0 { 0.0 } else { max / mean },
        "ratio",
    );
    r.put("runtime.rejected", d.rejected as f64, "count");
}
