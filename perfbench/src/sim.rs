//! `sim-fig3a`: the quick fig3a grid through `tilesim::workload::run_counter`
//! — 4 approaches × threads {1, 4, 10, 20, 35} at a fixed horizon. One grid
//! point is one op. Whole grid passes run back to back on `nproc` (at most
//! 2) sweep jobs. Nobody offers grid points at timed arrivals, so there is
//! no open-loop phase: the open-loop metrics report the passes' per-point
//! latencies, the same samples as the closed-loop ones.
//! Every point's result is hashed; the grid must hash to the digest stored
//! here for its seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tilesim::algos::Approach;
use tilesim::workload::run_counter;
use tilesim::{HostStats, MachineConfig, SimResult};

use crate::measure::{interquartile_mean, median, nproc, rss_peak_mb, HostWindow};
use crate::report::{put_end_to_end, put_traced_phases, run_gens, PhaseOut, Report, Summary};
use crate::trace::{SpanBuf, Tracer};
use crate::Ctx;

/// Simulated cycles per grid point.
pub const HORIZON: u64 = 5_000;
const THREADS: [usize; 5] = [1, 4, 10, 20, 35];
const MAX_OPS: u64 = 200;
/// Share of `--seconds` spent warming up; the measured passes get the rest.
const WARM: f64 = 0.05;
/// Boots timed after every grid pass, so the set-up time samples the whole
/// run rather than one moment of it.
const BOOTS_PER_PASS: usize = 24;
/// A boot is the machine built, the engine up and its procs spawned,
/// stopped at the first simulated cycle. Past that a run is proc handoffs:
/// the ops' own work, and on 2 vCPUs each boot's handoffs run ~1 or ~8 ms
/// per 2000 cycles depending on where the scheduler placed its procs.
const BOOT_HORIZON: u64 = 1;
/// Seeds are folded onto this many simulator seeds, each with a stored
/// grid digest.
const SIM_SEEDS: u64 = 4;
const FIRST_SIM_SEED: u64 = 42;
/// Grid digests for simulator seeds 42, 43, 44, 45 at [`HORIZON`].
pub const DIGESTS: [u64; SIM_SEEDS as usize] = [
    0xbba5_57c8_57c8_c550,
    0x2c1d_58e3_2894_9407,
    0x6c7d_0a86_1798_acdf,
    0xc4f1_7fb7_f970_2180,
];

pub fn sim_seed(seed: u64) -> u64 {
    FIRST_SIM_SEED + seed % SIM_SEEDS
}

fn grid() -> Vec<(Approach, usize)> {
    THREADS
        .iter()
        .flat_map(|&t| Approach::ALL.iter().map(move |&a| (a, t)))
        .collect()
}

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Hash of everything a point's simulated machine produced (host-side
/// counters excluded: they vary run to run by design).
pub fn point_hash(r: &SimResult) -> u64 {
    let mut h = fnv(fnv(FNV_BASIS, r.cycles), r.end_clock);
    for m in &r.metrics {
        h = m.iter().fold(h, |h, &v| fnv(h, v));
    }
    for c in &r.per_core {
        for v in [
            c.busy,
            c.stall,
            c.idle,
            c.mem_ops,
            c.rmrs,
            c.atomics,
            c.msgs_sent,
            c.msgs_recv,
            c.blocked_sends,
        ] {
            h = fnv(h, v);
        }
    }
    h
}

pub fn grid_digest(point_hashes: &[u64]) -> u64 {
    point_hashes.iter().fold(FNV_BASIS, |h, &p| fnv(h, p))
}

/// The grid's points must hash to the digest stored for its sim seed.
fn check_digest(r: &mut Report, point_hashes: &[u64], seed: u64, stored: &[u64]) {
    r.attempted += 1;
    let digest = grid_digest(point_hashes);
    let want = stored[(seed - FIRST_SIM_SEED) as usize];
    if digest != want {
        r.fail(format!(
            "grid digest {digest:#018x} for sim seed {seed}, stored {want:#018x}"
        ));
    }
}

fn boot(seed: u64) -> f64 {
    let t0 = Instant::now();
    run_counter(
        MachineConfig::tile_gx8036(),
        Approach::MpServer,
        1,
        MAX_OPS,
        BOOT_HORIZON,
        seed,
    );
    t0.elapsed().as_secs_f64()
}

fn run_point(point: (Approach, usize), seed: u64) -> SimResult {
    run_counter(
        MachineConfig::tile_gx8036(),
        point.0,
        point.1,
        MAX_OPS,
        HORIZON,
        seed,
    )
}

#[derive(Default)]
struct Job {
    /// First hash seen per grid point; repeats must match it.
    hashes: Vec<Option<u64>>,
    host: HostStats,
    point_ns: u64,
}

impl Job {
    fn point(
        &mut self,
        idx: usize,
        seed: u64,
        out: &mut PhaseOut,
        spans: &mut SpanBuf,
        parent: u64,
    ) {
        let points = grid();
        let p = points[idx % points.len()];
        let t0 = Instant::now();
        let r = run_point(p, seed);
        let t1 = Instant::now();
        spans.record("tilesim.run_counter", t0, t1, parent, idx as u64);
        self.host.merge(&r.host);
        self.point_ns += (t1 - t0).as_nanos() as u64;
        let h = point_hash(&r);
        let slot = &mut self.hashes[idx % points.len()];
        match *slot {
            Some(prev) if prev != h => {
                out.fail(|| {
                    format!("point {p:?}: result hash {h:#x} differs from earlier {prev:#x}")
                });
                return;
            }
            _ => *slot = Some(h),
        }
        out.ops += 1;
        out.lat.record(t0, t1 - t0);
    }
}

/// Whole grid passes on the sweep jobs until `budget` is spent (at least
/// one pass), so every pass measures the same mix of points, each pass
/// followed by [`BOOTS_PER_PASS`] timed boots. The summary holds medians
/// over passes; the wall time is every pass's.
fn closed_passes(
    gens: &mut [Job],
    tracer: &Tracer,
    traced: bool,
    budget: Duration,
    seed: u64,
    pid: u64,
    boots: &mut Vec<f64>,
) -> (PhaseOut, Summary, Duration) {
    let n = grid().len();
    let (mut out, mut wall) = (PhaseOut::default(), Duration::ZERO);
    let (mut rates, mut p50s, mut p90s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while wall < budget || wall.is_zero() {
        let next = AtomicUsize::new(0);
        let (o, w) = run_gens(gens, tracer, (traced, false), |_, g, s| {
            let mut out = PhaseOut::default();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return out;
                }
                g.point(i, seed, &mut out, s, pid);
            }
        });
        let h = o.lat.all();
        rates.push(o.ops as f64 / w.as_secs_f64());
        p50s.push(h.pct_us(0.50));
        p90s.push(h.pct_us(0.90));
        p99s.push(h.pct_us(0.99));
        out.merge(o);
        wall += w;
        boots.extend((0..BOOTS_PER_PASS).map(|_| boot(seed)));
    }
    let summary = Summary {
        rate: median(&rates),
        p50_us: median(&p50s),
        p90_us: median(&p90s),
        p99_us: median(&p99s),
        n: out.lat.count(),
    };
    (out, summary, wall)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let share = |s: f64| Duration::from_secs_f64(ctx.seconds * s);
    let (warmup, measured) = (share(WARM), share(1.0 - WARM));
    let seed = sim_seed(ctx.seed);
    let n_points = grid().len();
    // Sweep jobs run unpinned, as `repro`'s do: the simulator sizes its
    // wait budgets from the CPUs its first caller may use.
    let jobs = nproc().clamp(1, 2);
    let mut gens: Vec<Job> = (0..jobs)
        .map(|_| Job {
            hashes: vec![None; n_points],
            ..Job::default()
        })
        .collect();
    let tracer = &ctx.tracer;
    let r = &mut ctx.report;
    r.info("horizon", HORIZON);
    r.info("sim_seed", seed);
    r.info("jobs", jobs);
    let mut boots = Vec::new();

    let (mut warm, _, _) = closed_passes(&mut gens, tracer, false, warmup, seed, 0, &mut boots);
    r.absorb(&mut warm);

    let host_sum = |gens: &[Job]| {
        gens.iter()
            .fold((HostStats::default(), 0u64), |(mut h, ns), g| {
                h.merge(&g.host);
                (h, ns + g.point_ns)
            })
    };
    let untraced = if ctx.trace {
        let (mut o, sum, _) =
            closed_passes(&mut gens, tracer, false, measured / 2, seed, 0, &mut boots);
        r.absorb(&mut o);
        Some(sum.rate)
    } else {
        None
    };
    let window = if ctx.trace { measured / 2 } else { measured };
    let (sim0, ns0) = host_sum(&gens);
    let phase = tracer.begin("phase.closed");
    let pid = phase.id;
    let host = HostWindow::start(ctx.trace);
    let (mut closed, closed_sum, closed_wall) =
        closed_passes(&mut gens, tracer, true, window, seed, pid, &mut boots);
    let host = host.stop();
    tracer.end(phase);
    r.absorb(&mut closed);
    let (sim1, ns1) = host_sum(&gens);
    r.info("boots", boots.len());

    // Every point's hash must agree across repeats and jobs, and the grid
    // must hash to the stored digest.
    let mut hashes = Vec::with_capacity(n_points);
    for (i, p) in grid().into_iter().enumerate() {
        let seen: Vec<u64> = gens.iter().filter_map(|g| g.hashes[i]).collect();
        let h = seen[0];
        if seen.iter().any(|&x| x != h) {
            r.fail(format!("point {p:?}: sweep jobs disagree on its result"));
        }
        hashes.push(h);
    }
    check_digest(r, &hashes, seed, &DIGESTS);

    if !ctx.trace {
        put_end_to_end(
            r,
            interquartile_mean(&boots),
            &closed_sum,
            &closed_sum,
            (&host, closed.ops),
            rss_peak_mb(),
        );
        return Ok(());
    }
    // No open-loop phase: its per-layer figures come from the passes too,
    // and nothing is offered at a timed rate.
    put_traced_phases(r, &closed, &closed, (&host, closed.ops), 0.0);
    let handoffs = sim1.handoffs - sim0.handoffs;
    r.put("tilesim.handoffs", handoffs as f64, "count");
    r.put(
        "tilesim.proc_parks",
        (sim1.proc_parks - sim0.proc_parks) as f64,
        "count",
    );
    r.put(
        "tilesim.engine_parks",
        (sim1.engine_parks - sim0.engine_parks) as f64,
        "count",
    );
    r.put(
        "tilesim.ns_per_handoff",
        (ns1 - ns0) as f64 / handoffs.max(1) as f64,
        "ns",
    );
    r.put(
        "tilesim.grid_wall_s",
        closed_wall.as_secs_f64() * n_points as f64 / closed.ops.max(1) as f64,
        "s",
    );
    crate::put_overhead(r, untraced.unwrap_or(closed_sum.rate), closed_sum.rate);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the whole grid serially and returns its digest.
    fn compute_digest(seed: u64) -> u64 {
        let hashes: Vec<u64> = grid()
            .into_iter()
            .map(|p| point_hash(&run_point(p, seed)))
            .collect();
        grid_digest(&hashes)
    }

    #[test]
    fn a_corrupted_digest_is_reported() {
        let seed = sim_seed(0);
        let hashes: Vec<u64> = grid()
            .into_iter()
            .map(|p| point_hash(&run_point(p, seed)))
            .collect();
        let mut ok = Report::default();
        check_digest(&mut ok, &hashes, seed, &DIGESTS);
        assert_eq!(ok.failed, 0, "{:?}", ok.failures);
        let mut corrupted = DIGESTS;
        corrupted[0] ^= 1;
        let mut bad = Report::default();
        check_digest(&mut bad, &hashes, seed, &corrupted);
        assert_eq!(bad.failed, 1, "a wrong digest must count as a failure");
    }

    #[test]
    fn stored_digests_match_the_simulator() {
        let got: Vec<u64> = (0..SIM_SEEDS)
            .map(|i| compute_digest(FIRST_SIM_SEED + i))
            .collect();
        assert_eq!(got, DIGESTS, "regenerate DIGESTS: {got:#018x?}");
    }
}
