//! `inproc-counter`: the paper's contended critical section. Two threads,
//! each with its own `CounterSession`, fetch-and-increment Zipf(0.99) keys
//! over 64 on a default 2-shard `ShardedCounter` — an open-loop phase at a
//! tenth of the ops/s the warm-up sustained, then a closed loop.

use std::time::{Duration, Instant};

use mpsync_runtime::{CounterSession, RuntimeConfig, ShardedCounter};

use crate::measure::{sleep_until, Rng, Zipf};
use crate::report::{put_runtime, PhaseOut, Report, RtCounts};
use crate::rounds::{OpenRate, Served};
use crate::trace::{SpanBuf, Tracer};

const THREADS: usize = 2;
pub const KEYS: usize = 64;
const THETA: f64 = 0.99;
/// Open-loop load as a share of the ops/s the round's closed-loop warm-up
/// sustained: a tenth, light enough that ops rarely queue behind each other
/// and the generators keep their schedule, so the open phase shows per-op
/// cost from a mostly idle system.
pub const OPEN_LOAD: f64 = 0.10;
/// The boot probe's key; its one increment is part of the expected totals.
const PROBE_KEY: u64 = KEYS as u64;

fn boot() -> Result<ShardedCounter, String> {
    let counter = ShardedCounter::new(RuntimeConfig::new(2));
    counter
        .session()
        .and_then(|mut s| s.fetch_inc(PROBE_KEY))
        .map_err(|e| format!("first op: {e}"))?;
    Ok(counter)
}

pub struct Gen {
    session: CounterSession,
    rng: Rng,
    /// Increments issued per key.
    issued: Vec<u64>,
    /// Last value this thread saw per key: a later fetch-inc by the same
    /// thread must return more.
    last: Vec<Option<u64>>,
    seq: u64,
}

impl Gen {
    fn op(
        &mut self,
        zipf: &Zipf,
        out: &mut PhaseOut,
        from: Option<Instant>,
        spans: &mut SpanBuf,
        parent: u64,
    ) {
        let key = zipf.sample(&mut self.rng);
        self.seq += 1;
        let t0 = Instant::now();
        let got = self.session.fetch_inc(key);
        let t1 = Instant::now();
        spans.record(
            "runtime.CounterSession::fetch_inc",
            t0,
            t1,
            parent,
            self.seq,
        );
        self.issued[key as usize] += 1;
        match got {
            Ok(v) if self.last[key as usize].is_none_or(|l| v > l) => {
                self.last[key as usize] = Some(v);
                out.ops += 1;
                let from = from.unwrap_or(t0);
                out.lat.record(from, t1 - from);
            }
            Ok(v) => out.fail(|| {
                format!(
                    "key {key}: fetch_inc returned {v} after {:?}",
                    self.last[key as usize]
                )
            }),
            Err(e) => {
                self.issued[key as usize] -= 1;
                out.fail(|| format!("key {key}: {e}"));
            }
        }
    }

    fn closed(
        &mut self,
        zipf: &Zipf,
        (start, end): (Instant, Instant),
        spans: &mut SpanBuf,
        parent: u64,
    ) -> PhaseOut {
        let mut out = PhaseOut::windowed(start, end);
        while Instant::now() < end {
            self.op(zipf, &mut out, None, spans, parent);
        }
        out
    }

    fn open(
        &mut self,
        zipf: &Zipf,
        start: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> PhaseOut {
        let mut out = PhaseOut::windowed(start, end);
        let mut due = start;
        while due < end {
            sleep_until(due);
            out.late.push(Instant::now() - due);
            self.op(zipf, &mut out, Some(due), spans, parent);
            due += period;
        }
        out
    }
}

/// `inproc-counter` as a [`Served`] workload; the fields accumulate the
/// runtime counters of traced runs.
pub struct InprocCounter {
    zipf: Zipf,
    rt_before: RtCounts,
    rt: RtCounts,
}

impl InprocCounter {
    pub fn new() -> Self {
        Self {
            zipf: Zipf::new(KEYS, THETA),
            rt_before: RtCounts::default(),
            rt: RtCounts::default(),
        }
    }
}

impl Served for InprocCounter {
    type Sys = ShardedCounter;
    type Gen = Gen;
    const WARM: f64 = 0.1;
    const OPEN: f64 = 0.4;
    const OPEN_RATE: OpenRate = OpenRate::OfCapacity(OPEN_LOAD);
    const CPU_IN_OPEN: bool = false;
    const BOOTS_PER_ROUND: usize = 48;

    fn boot(&self) -> Result<ShardedCounter, String> {
        boot()
    }

    fn teardown(&self, sys: ShardedCounter) {
        sys.shutdown();
    }

    fn gens(&self, sys: &ShardedCounter, seed: u64, round: u64) -> Result<Vec<Gen>, String> {
        (0..THREADS as u64)
            .map(|i| {
                Ok(Gen {
                    session: sys.session().map_err(|e| format!("session: {e}"))?,
                    rng: Rng::new(seed ^ round << 32, i),
                    issued: vec![0; KEYS],
                    last: vec![None; KEYS],
                    seq: 0,
                })
            })
            .collect()
    }

    fn closed(
        &self,
        g: &mut Gen,
        win: (Instant, Instant),
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        g.closed(&self.zipf, win, spans, pid)
    }

    fn open(
        &self,
        g: &mut Gen,
        first: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut {
        g.open(&self.zipf, first, end, period, spans, pid)
    }

    /// Totals after shutdown must equal the increments issued, key by key.
    fn verify(&self, counter: ShardedCounter, gens: Vec<Gen>, r: &mut Report) {
        let mut expected = vec![0u64; KEYS + 1];
        expected[PROBE_KEY as usize] = 1;
        for g in &gens {
            for (k, n) in g.issued.iter().enumerate() {
                expected[k] += n;
            }
        }
        drop(gens);
        let (totals, _) = counter.shutdown();
        check_totals(r, &expected, &totals);
    }

    fn mark(&mut self, sys: &ShardedCounter, _: &[Gen], after: bool) -> Result<(), String> {
        let now = RtCounts::of(&sys.stats());
        if after {
            self.rt.add(&now.since(&self.rt_before));
        } else {
            self.rt_before = now;
        }
        Ok(())
    }

    fn put_layers(&self, r: &mut Report, _: &Tracer, _: &PhaseOut, _: &PhaseOut) {
        put_runtime(r, &self.rt);
    }
}

/// One failure per key whose final total differs from the increments
/// issued (or that the service holds but nobody incremented).
pub fn check_totals(
    r: &mut Report,
    expected: &[u64],
    totals: &std::collections::HashMap<u64, u64>,
) {
    r.attempted += expected.len() as u64;
    for (k, &want) in expected.iter().enumerate() {
        let got = totals.get(&(k as u64)).copied().unwrap_or(0);
        if got != want {
            r.fail(format!(
                "key {k}: total {got} after shutdown, {want} increments issued"
            ));
        }
    }
    for k in totals.keys().filter(|&&k| k as usize >= expected.len()) {
        r.fail(format!(
            "key {k}: present after shutdown but never incremented"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_that_miss_an_increment_are_reported() {
        let totals: std::collections::HashMap<u64, u64> = [(0, 5), (3, 2)].into_iter().collect();
        let mut ok = Report::default();
        check_totals(&mut ok, &[5, 0, 0, 2], &totals);
        assert_eq!(ok.failed, 0, "{:?}", ok.failures);
        let mut lost = Report::default();
        check_totals(&mut lost, &[6, 0, 0, 2], &totals);
        assert_eq!(lost.failed, 1);
        let mut stray = Report::default();
        check_totals(&mut stray, &[5, 0], &totals);
        assert_eq!(
            stray.failed, 1,
            "key 3 was never incremented: {:?}",
            stray.failures
        );
    }
}
