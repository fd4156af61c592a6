//! The round structure shared by the served workloads (`wire-kv`,
//! `inproc-counter`, `cluster-kv`).
//!
//! A run is [`ROUNDS`] rounds, each on a freshly booted system: a
//! closed-loop warm-up, an open-loop phase at the workload's offered rate
//! (fixed, or a stated share of the ops/s the warm-up sustained), then a
//! closed-loop phase, then the round's correctness check, teardown and a
//! batch of boot-and-teardown cycles for the set-up time. On a small host
//! where thread placement settles differently on every boot, fresh rounds
//! make one run sample several placements instead of one. Each round's
//! figure is the median over its sub-windows, and the run reports the
//! interquartile mean over rounds. Peak memory is taken per round (one
//! boot-to-teardown lifetime) and its median reported, so allocator state
//! left by earlier rounds does not count.

use std::time::{Duration, Instant};

use crate::measure::{
    interquartile_mean, median, reset_rss_peak, rss_peak_mb, HostWindow, ProcDelta,
};
use crate::report::{
    put_end_to_end, put_traced_phases, run_gens, window, PhaseOut, Report, Summary,
};
use crate::trace::{SpanBuf, Tracer};
use crate::Ctx;

pub const ROUNDS: usize = 8;

/// What the open-loop phase offers, in aggregate over the generators.
#[derive(Debug, Clone, Copy)]
pub enum OpenRate {
    /// A fixed rate in ops/s.
    Fixed(f64),
    /// This share of the ops/s the round's closed-loop warm-up sustained.
    OfCapacity(f64),
}

pub trait Served: Sync {
    type Sys;
    type Gen: Send;
    /// Shares of a round spent warming up and in the open phase; the
    /// closed phase gets the rest.
    const WARM: f64;
    const OPEN: f64;
    const OPEN_RATE: OpenRate;
    /// Whether `cpu_us_per_op` is measured in the open phase (else closed).
    /// The traced run's per-thread CPU buckets and context switches come
    /// from the same phase.
    const CPU_IN_OPEN: bool;
    /// Boot-and-teardown cycles after each round's own teardown, so the
    /// reported set-up time averages over boots spread across the run.
    const BOOTS_PER_ROUND: usize;

    /// Boots the system and waits until its first op is admitted.
    fn boot(&self) -> Result<Self::Sys, String>;
    fn teardown(&self, sys: Self::Sys);
    fn gens(&self, sys: &Self::Sys, seed: u64, round: u64) -> Result<Vec<Self::Gen>, String>;
    /// Closed loop over `win`.
    fn closed(
        &self,
        g: &mut Self::Gen,
        win: (Instant, Instant),
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut;
    /// One op every `period` from `first` until `end`, timed from its due
    /// instant.
    fn open(
        &self,
        g: &mut Self::Gen,
        first: Instant,
        end: Instant,
        period: Duration,
        spans: &mut SpanBuf,
        pid: u64,
    ) -> PhaseOut;
    /// Checks the round's final state against the generators' oracles,
    /// then tears the system down.
    fn verify(&self, sys: Self::Sys, gens: Vec<Self::Gen>, r: &mut Report);
    /// Reads layer counters before (`after == false`) and after the
    /// measured phases of a round; traced runs only.
    fn mark(&mut self, _sys: &Self::Sys, _gens: &[Self::Gen], _after: bool) -> Result<(), String> {
        Ok(())
    }
    /// Reports the per-layer metrics the marks accumulated.
    fn put_layers(&self, _r: &mut Report, _tracer: &Tracer, _open: &PhaseOut, _closed: &PhaseOut) {}
}

pub fn run<W: Served>(ctx: &mut Ctx, w: &mut W) -> Result<(), String> {
    let round = ctx.seconds / ROUNDS as f64;
    let share = |s: f64| Duration::from_secs_f64(round * s);
    let (warm, open_len, closed_len) = (
        share(W::WARM),
        share(W::OPEN),
        share(1.0 - W::WARM - W::OPEN),
    );
    let (tracer, r) = (&ctx.tracer, &mut ctx.report);
    r.info("rounds", ROUNDS);
    r.info("open_rate", format!("{:?}", W::OPEN_RATE));
    let (mut boots, mut rss, mut open_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open_all, mut closed_all) = (PhaseOut::pooled(), PhaseOut::pooled());
    let (mut open_cpu, mut closed_cpu) = (ProcDelta::default(), ProcDelta::default());
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    for round_no in 0..ROUNDS as u64 {
        reset_rss_peak();
        let t0 = Instant::now();
        let sys = w.boot()?;
        boots.push(t0.elapsed().as_secs_f64());
        let mut gens = w.gens(&sys, ctx.seed, round_no)?;
        let win = window(warm);
        let (mut o, _) = run_gens(&mut gens, tracer, (false, true), |_, g, s| {
            w.closed(g, win, s, 0)
        });
        r.absorb(&mut o);
        let rate = match W::OPEN_RATE {
            OpenRate::Fixed(rate) => rate,
            OpenRate::OfCapacity(share) => share * o.lat.median_rate(),
        };
        if rate.is_nan() || rate <= 0.0 {
            return Err(format!("round {round_no}: warm-up completed no ops"));
        }
        open_rates.push(rate);
        if ctx.trace {
            w.mark(&sys, &gens, false)?;
        }

        let phase = tracer.begin("phase.open");
        let pid = phase.id;
        let n = gens.len() as u32;
        let period = Duration::from_secs_f64(n as f64 / rate);
        let start = Instant::now() + Duration::from_millis(1);
        let end = start + open_len;
        let host = HostWindow::start(ctx.trace && W::CPU_IN_OPEN);
        let (mut o, _) = run_gens(&mut gens, tracer, (true, true), |i, g, s| {
            // Stagger the generators so the aggregate schedule is even.
            w.open(g, start + period * i as u32 / n, end, period, s, pid)
        });
        open_cpu.add(&host.stop());
        tracer.end(phase);
        r.absorb(&mut o);
        open_all.append(o);

        if ctx.trace {
            let win = window(closed_len / 2);
            let (mut o, _) = run_gens(&mut gens, tracer, (false, true), |_, g, s| {
                w.closed(g, win, s, 0)
            });
            r.absorb(&mut o);
            untraced_rates.push(o.lat.median_rate());
        }
        let phase = tracer.begin("phase.closed");
        let pid = phase.id;
        let host = HostWindow::start(ctx.trace && !W::CPU_IN_OPEN);
        let win = window(if ctx.trace {
            closed_len / 2
        } else {
            closed_len
        });
        let (mut o, _) = run_gens(&mut gens, tracer, (true, true), |_, g, s| {
            w.closed(g, win, s, pid)
        });
        closed_cpu.add(&host.stop());
        tracer.end(phase);
        r.absorb(&mut o);
        traced_rates.push(o.lat.median_rate());
        closed_all.append(o);

        if ctx.trace {
            w.mark(&sys, &gens, true)?;
        }
        w.verify(sys, gens, r);
        rss.push(rss_peak_mb());
        for _ in 0..W::BOOTS_PER_ROUND {
            let t0 = Instant::now();
            let sys = w.boot()?;
            boots.push(t0.elapsed().as_secs_f64());
            w.teardown(sys);
        }
    }
    r.info("boots", boots.len());

    let host = if W::CPU_IN_OPEN {
        (&open_cpu, open_all.ops)
    } else {
        (&closed_cpu, closed_all.ops)
    };
    if !ctx.trace {
        put_end_to_end(
            r,
            interquartile_mean(&boots),
            &Summary::of(&open_all),
            &Summary::of(&closed_all),
            host,
            median(&rss),
        );
        return Ok(());
    }
    put_traced_phases(r, &open_all, &closed_all, host, median(&open_rates));
    w.put_layers(r, tracer, &open_all, &closed_all);
    crate::put_overhead(r, median(&untraced_rates), median(&traced_rates));
    Ok(())
}
