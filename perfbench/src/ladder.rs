//! The layer ladder: the same kind of op driven through one more layer per
//! rung, each rung timed from outside through the layer's public API.
//! "Solo" rungs time one unloaded client per op (p50, p99 beside it);
//! "sat" rungs run 2 clients flat out. A layer's added cost is its rung
//! minus the rung below it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_core::{
    ApplyOp, CcSynch, HybComb, HybCombStats, LockCs, McsLock, MpServer, DEFAULT_MAX_OPS,
};
use mpsync_net::{NetClient, ServerConfig, ServerModel};
use mpsync_objects::seq::{counter_dispatch, counter_ops, keyed_counter_ops, kv_ops};
use mpsync_objects::EMPTY;
use mpsync_runtime::{Backend, RuntimeConfig, ShardedCounter};
use mpsync_udn::{Fabric, FabricConfig};

use crate::measure::{Hist, Rng};
use crate::report::Report;
use crate::trace::{SpanBuf, Tracer};
use crate::Ctx;

pub const CORE_RUNGS: [&str; 4] = ["mpserver", "hybcomb", "ccsynch", "mcs"];
pub const RUNTIME_RUNGS: [Backend; 5] = [
    Backend::Lock,
    Backend::HybComb,
    Backend::CcSynch,
    Backend::MpServer,
    Backend::Adaptive,
];
/// `(kind, variant)`: reported as `net.<kind>_us.<variant>` (p50) and
/// `net.<kind>_p99_us.<variant>`.
pub const NET_RUNGS: [(&str, &str); 5] = [
    ("ping", "thread"),
    ("ping", "reactor"),
    ("call", "thread"),
    ("call", "reactor"),
    ("call", "reactor_remote"),
];
pub const CLUSTER_RUNGS: [&str; 4] = ["get_local", "get_fwd", "put_local", "put_fwd"];

const SOLO_BUDGET: Duration = Duration::from_millis(200);
const SOLO_MAX_OPS: usize = 20_000;
const SOLO_WARMUP_OPS: usize = 200;
const SAT_BUDGET: Duration = Duration::from_millis(300);

type CounterFn = fn(&mut u64, u64, u64) -> u64;
const COUNTER: CounterFn = counter_dispatch;

/// Whether `name` is a ladder rung (measured in every traced run, never
/// an idle layer's zero).
pub fn is_rung(name: &str) -> bool {
    let rest = |p: &str| name.strip_prefix(p);
    name == "objects.apply_ns"
        || rest("core.").is_some()
        || rest("udn.").is_some()
        || rest("runtime.submit").is_some()
        || rest("net.ping").is_some()
        || rest("net.call").is_some()
        || CLUSTER_RUNGS
            .iter()
            .any(|c| name.starts_with(&format!("cluster.{c}")))
}

/// Times `op` one call at a time, after a short untimed warm-up, for up to
/// `SOLO_MAX_OPS` calls or `SOLO_BUDGET`.
fn solo(
    spans: &mut SpanBuf,
    name: &'static str,
    parent: u64,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Hist, String> {
    for i in 0..SOLO_WARMUP_OPS as u64 {
        op(i)?;
    }
    let mut s = Hist::default();
    let end = Instant::now() + SOLO_BUDGET;
    for i in 0..SOLO_MAX_OPS as u64 {
        let t0 = Instant::now();
        op(i)?;
        let t1 = Instant::now();
        spans.record(name, t0, t1, parent, i);
        s.push(t1 - t0);
        if t1 >= end {
            break;
        }
    }
    Ok(s)
}

/// Runs `op` on 2 threads for `SAT_BUDGET`; returns ops/s.
fn saturate<H: Send>(handles: &mut [H], op: impl Fn(&mut H) + Sync) -> (f64, u64) {
    let t0 = Instant::now();
    let end = t0 + SAT_BUDGET;
    let total: u64 = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .iter_mut()
            .enumerate()
            .map(|(i, h)| {
                let op = &op;
                std::thread::Builder::new()
                    .name(format!("gen-sat-{i}"))
                    .spawn_scoped(s, move || {
                        let mut n = 0u64;
                        while Instant::now() < end {
                            for _ in 0..64 {
                                op(h);
                            }
                            n += 64;
                        }
                        n
                    })
                    .expect("spawn saturating client")
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("saturating client panicked"))
            .sum()
    });
    (total as f64 / t0.elapsed().as_secs_f64(), total)
}

fn put_solo(r: &mut Report, p50: &str, p99: &str, s: &Hist, scale: f64, unit: &'static str) {
    let (a, b) = (s.pct_ns(0.5) / scale, s.pct_ns(0.99) / scale);
    r.put(p50, a, unit);
    r.put(p99, b, unit);
    r.info(&format!("samples.{p50}"), s.len());
}

fn fabric(endpoints: usize) -> Arc<Fabric> {
    Arc::new(Fabric::new(FabricConfig::new(endpoints.div_ceil(4).max(1))))
}

/// Checks an executor's final counter against the increments it served.
fn check_count(r: &mut Report, rung: &str, got: u64, want: u64) {
    r.attempted += 1;
    if got != want {
        r.fail(format!(
            "{rung}: counter ended at {got}, {want} increments applied"
        ));
    }
}

fn objects_rung(r: &mut Report) {
    const BATCH: usize = 1000;
    let mut state = 0u64;
    let mut s = Hist::default();
    let end = Instant::now() + SOLO_BUDGET;
    while Instant::now() < end {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(counter_dispatch(
                std::hint::black_box(&mut state),
                counter_ops::INC,
                0,
            ));
        }
        s.push_ns(t0.elapsed().as_nanos() as u64);
    }
    r.put("objects.apply_ns", s.pct_ns(0.5) / BATCH as f64, "ns");
}

/// Solo p50/p99 and 2-thread saturation of one core construction, plus the
/// final-count check. `before_sat` sees the executor between the two;
/// `finish` consumes it and returns the final counter.
fn core_rung<E, H: ApplyOp + Send, B>(
    r: &mut Report,
    tracer: &Tracer,
    name: &'static str,
    exec: E,
    mut handles: Vec<H>,
    before_sat: impl FnOnce(&E) -> B,
    finish: impl FnOnce(E, B, &mut Report) -> u64,
) {
    let rung = tracer.begin(name);
    let mut spans = tracer.buf(true);
    let mut solo_ops = 0u64;
    let solo_res = solo(&mut spans, name, rung.id, |_| {
        handles[0].apply(counter_ops::INC, 0);
        solo_ops += 1;
        Ok(())
    });
    tracer.merge(spans);
    let short = name.trim_start_matches("rung.core.");
    if let Ok(s) = solo_res {
        put_solo(
            r,
            &format!("core.{short}_ns"),
            &format!("core.{short}_p99_ns"),
            &s,
            1.0,
            "ns",
        );
    }
    let mark = before_sat(&exec);
    let (rate, sat_ops) = saturate(&mut handles, |h| {
        h.apply(counter_ops::INC, 0);
    });
    r.put(format!("core.{short}_sat_ops_s"), rate, "ops/s");
    drop(handles);
    let got = finish(exec, mark, r);
    check_count(r, name, got, solo_ops + sat_ops);
    tracer.end(rung);
}

fn core_rungs(r: &mut Report, tracer: &Tracer) -> u64 {
    let mp_fabric = fabric(4);
    let server = MpServer::spawn(
        mp_fabric.register_any().expect("fabric sized"),
        0u64,
        COUNTER,
    );
    let clients = (0..2)
        .map(|_| server.client(mp_fabric.register_any().expect("fabric sized")))
        .collect();
    core_rung(
        r,
        tracer,
        "rung.core.mpserver",
        server,
        clients,
        |_| (),
        |s, (), _| s.shutdown(),
    );

    let hyb_fabric = fabric(4);
    let hyb = HybComb::new(2, DEFAULT_MAX_OPS, 0u64, COUNTER);
    let handles = (0..2)
        .map(|_| hyb.handle(hyb_fabric.register_any().expect("fabric sized")))
        .collect();
    // Fig. 4b's combining rate and the CAS claim, over the saturated part.
    core_rung(
        r,
        tracer,
        "rung.core.hybcomb",
        hyb,
        handles,
        HybComb::stats,
        |h, before, r| {
            let after = h.stats();
            let sat = HybCombStats {
                ops: after.ops - before.ops,
                cas_attempts: after.cas_attempts - before.cas_attempts,
                cas_failures: after.cas_failures - before.cas_failures,
                rounds: after.rounds - before.rounds,
                combined_ops: after.combined_ops - before.combined_ops,
                orphan_rounds: after.orphan_rounds - before.orphan_rounds,
            };
            r.put(
                "core.hybcomb_combining_rate",
                sat.combining_rate(),
                "ops/round",
            );
            r.put("core.hybcomb_cas_per_op", sat.cas_per_op(), "cas/op");
            h.into_state()
        },
    );

    let cc = CcSynch::new(2, DEFAULT_MAX_OPS, 0u64, COUNTER);
    let handles = (0..2).map(|_| cc.handle()).collect();
    core_rung(
        r,
        tracer,
        "rung.core.ccsynch",
        cc,
        handles,
        |_| (),
        |c, (), _| c.into_state(),
    );

    let mcs: LockCs<u64, McsLock, CounterFn> = LockCs::new(0, COUNTER);
    let handles = (0..2).map(|_| mcs.handle()).collect();
    core_rung(
        r,
        tracer,
        "rung.core.mcs",
        mcs,
        handles,
        |_| (),
        |m, (), _| m.into_state(),
    );

    mp_fabric.stats().blocked_sends + hyb_fabric.stats().blocked_sends
}

/// One-word ping-pong between two endpoints on two threads.
fn udn_rung(r: &mut Report, tracer: &Tracer) -> u64 {
    const STOP: u64 = u64::MAX;
    let f = fabric(2);
    let mut client = f.register_any().expect("fabric sized");
    let mut echo = f.register_any().expect("fabric sized");
    let (me, echo_id) = (client.id(), echo.id());
    let rung = tracer.begin("rung.udn.rtt");
    let mut spans = tracer.buf(true);
    let res = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("gen-echo".into())
            .spawn_scoped(s, move || loop {
                let w = echo.receive1();
                if echo.send(me, &[w]).is_err() || w == STOP {
                    break;
                }
            })
            .expect("spawn echo thread");
        let res = solo(&mut spans, "udn.Endpoint::send+receive1", rung.id, |i| {
            client
                .send(echo_id, &[i])
                .map_err(|e| format!("udn send: {e:?}"))?;
            let back = client.receive1();
            if back == i {
                Ok(())
            } else {
                Err(format!("udn echo returned {back}, sent {i}"))
            }
        });
        let _ = client.send(echo_id, &[STOP]);
        let _ = client.receive1();
        res
    });
    tracer.merge(spans);
    tracer.end(rung);
    match res {
        Ok(s) => put_solo(r, "udn.rtt_ns", "udn.rtt_p99_ns", &s, 1.0, "ns"),
        Err(e) => r.fail(e),
    }
    f.stats().blocked_sends
}

/// Solo `Session::submit` (fetch-inc over 64 keys, 2 shards) per backend.
fn runtime_rungs(r: &mut Report, tracer: &Tracer, seed: u64) {
    for backend in RUNTIME_RUNGS {
        let label = backend.label();
        let counter = ShardedCounter::new(RuntimeConfig::new(2).with_backend(backend));
        let mut issued = vec![0u64; 64];
        let rung = tracer.begin("rung.runtime.submit");
        let mut spans = tracer.buf(true);
        let res = counter
            .raw_session()
            .map_err(|e| e.to_string())
            .and_then(|mut session| {
                let mut rng = Rng::new(seed, 99);
                solo(&mut spans, "runtime.Session::submit", rung.id, |_| {
                    let key = rng.below(64);
                    issued[key as usize] += 1;
                    session
                        .submit(key, keyed_counter_ops::INC, 0)
                        .map(drop)
                        .map_err(|e| format!("{label} submit: {e}"))
                })
            });
        tracer.merge(spans);
        tracer.end(rung);
        match res {
            Ok(s) => put_solo(
                r,
                &format!("runtime.submit_ns.{label}"),
                &format!("runtime.submit_p99_ns.{label}"),
                &s,
                1.0,
                "ns",
            ),
            Err(e) => r.fail(e),
        }
        let (totals, _) = counter.shutdown();
        let mut issued_map = std::collections::HashMap::new();
        for (k, &n) in issued.iter().enumerate().filter(|(_, &n)| n > 0) {
            issued_map.insert(k as u64, n);
        }
        r.attempted += 1;
        if totals != issued_map {
            r.fail(format!(
                "runtime {label}: totals after shutdown differ from increments issued"
            ));
        }
    }
}

/// Ping and GET over loopback on the thread model (the default) and on
/// the reactor paired with externally driven MP-SERVER shards.
fn net_rungs(r: &mut Report, tracer: &Tracer) {
    let models = [
        ("thread", RuntimeConfig::new(2), ServerConfig::default()),
        (
            "reactor",
            RuntimeConfig::new(2).with_external_drive(true),
            ServerConfig::default().with_model(ServerModel::Reactor),
        ),
    ];
    for (model, rt, cfg) in models {
        let res = crate::wire::boot(rt, cfg).and_then(|sys| {
            let key_on = |shard: usize| {
                (1u64..)
                    .find(|&k| sys.store.shard_of(k) == shard)
                    .expect("both shards own keys")
            };
            let (home, remote) = (key_on(0), key_on(1));
            let mut c = NetClient::connect_tcp(sys.addr).map_err(|e| format!("connect: {e}"))?;
            // The first key steers a reactor connection to shard 0's reactor.
            c.call(home, kv_ops::GET as u8, 0)
                .map_err(|e| format!("{model} call: {e}"))?;
            let mut rungs: Vec<(&str, &str, u64)> = vec![("ping", model, 0), ("call", model, home)];
            if model == "reactor" {
                rungs.push(("call", "reactor_remote", remote));
            }
            for (kind, variant, key) in rungs {
                let rung = tracer.begin("rung.net");
                let mut spans = tracer.buf(true);
                let res = solo(&mut spans, "net.NetClient", rung.id, |_| {
                    let got = if kind == "ping" {
                        c.ping().map(|()| EMPTY)
                    } else {
                        c.call(key, kv_ops::GET as u8, 0)
                    };
                    match got {
                        Ok(EMPTY) => Ok(()),
                        Ok(v) => Err(format!("{variant} {kind}: never-written key read {v}")),
                        Err(e) => Err(format!("{variant} {kind}: {e}")),
                    }
                });
                tracer.merge(spans);
                tracer.end(rung);
                let s = res?;
                put_solo(
                    r,
                    &format!("net.{kind}_us.{variant}"),
                    &format!("net.{kind}_p99_us.{variant}"),
                    &s,
                    1e3,
                    "us",
                );
            }
            drop(c);
            crate::wire::teardown(sys);
            Ok(())
        });
        if let Err(e) = res {
            r.fail(format!("net rung {model}: {e}"));
        }
    }
}

/// Solo `ClusterClient::call` on a key node 0 owns vs one node 1 owns.
fn cluster_rungs(r: &mut Report, tracer: &Tracer) {
    let res = crate::cluster::boot().and_then(|cl| {
        let local = cl.key_owned_by(0, 1 << 31);
        let fwd = cl.key_owned_by(1, 1 << 31);
        let mut gen = crate::cluster::Gen::new(&cl, 7, 0);
        for rung_name in CLUSTER_RUNGS {
            let (op, where_) = rung_name.split_once('_').expect("op_where");
            let key = if where_ == "local" { local } else { fwd };
            let rung = tracer.begin("rung.cluster");
            let mut spans = tracer.buf(true);
            let mut last = EMPTY;
            let res = solo(&mut spans, "cluster.ClusterClient::call", rung.id, |_| {
                let (kop, arg) = if op == "put" {
                    (kv_ops::PUT, last.wrapping_add(1) % EMPTY)
                } else {
                    (kv_ops::GET, 0)
                };
                let (res, _, _) = gen.call(key, kop as u8, arg, &mut SpanBuf::off(), 0);
                let got = res.map_err(|e| format!("cluster {rung_name}: {e}"))?.value;
                if got != last {
                    return Err(format!(
                        "cluster {rung_name}: read {got}, last write {last}"
                    ));
                }
                if op == "put" {
                    last = arg;
                }
                Ok(())
            });
            tracer.merge(spans);
            tracer.end(rung);
            let s = res?;
            put_solo(
                r,
                &format!("cluster.{rung_name}_us"),
                &format!("cluster.{rung_name}_p99_us"),
                &s,
                1e3,
                "us",
            );
        }
        drop(gen);
        crate::cluster::teardown(cl);
        Ok(())
    });
    if let Err(e) = res {
        r.fail(format!("cluster rungs: {e}"));
    }
}

/// Runs every rung; in a traced invocation only.
pub fn run(ctx: &mut Ctx) {
    let (r, tracer) = (&mut ctx.report, &ctx.tracer);
    objects_rung(r);
    let blocked = core_rungs(r, tracer) + udn_rung(r, tracer);
    r.put("udn.blocked_sends", blocked as f64, "count");
    runtime_rungs(r, tracer, ctx.seed);
    net_rungs(r, tracer);
    cluster_rungs(r, tracer);
    print_ladder(r);
}

/// The fetch-inc/GET path one layer at a time, with each rung's added
/// cost over the one below (solo p50s).
fn print_ladder(r: &mut Report) {
    let rows = [
        ("critical section (objects)", "objects.apply_ns", 1.0),
        ("udn round trip", "udn.rtt_ns", 1.0),
        ("MP-SERVER executor (core)", "core.mpserver_ns", 1.0),
        (
            "runtime submit, mp-server",
            "runtime.submit_ns.mp-server",
            1.0,
        ),
        ("net GET, thread model", "net.call_us.thread", 1e3),
        ("cluster GET, owner-local", "cluster.get_local_us", 1e3),
        ("cluster GET, forwarded", "cluster.get_fwd_us", 1e3),
    ];
    let mut below = 0.0;
    for (label, metric, scale) in rows {
        let ns = r.get(metric).unwrap_or(0.0) * scale;
        r.info(
            &format!("ladder.{metric}"),
            format!(
                "{label}: {ns:.0} ns, +{:.0} ns over the rung below",
                ns - below
            ),
        );
        below = ns;
    }
}
