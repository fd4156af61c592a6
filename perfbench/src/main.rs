//! perfbench: the repository's outside-in benchmark.
//!
//! ```text
//! perfbench --workload <wire-kv|inproc-counter|cluster-kv|sim-fig3a>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload runs the library's default configuration through public
//! APIs only, checks every reply against an oracle, prints each metric by
//! name and unit, and ends with one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reruns the workload with the
//! benchmark's own spans around each call into a layer, then the layer
//! ladder, and reports the per-layer metrics. Results (stamped with git
//! revision, host and `nproc`) and the Chrome span file go to
//! `.bench_out/`. The exit code is non-zero on any correctness failure.

mod cluster;
mod inproc;
mod json;
mod kv;
mod ladder;
mod measure;
mod report;
mod rounds;
mod sim;
mod trace;
mod wire;

use std::process::ExitCode;

use report::Report;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["wire-kv", "inproc-counter", "cluster-kv", "sim-fig3a"];

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("open_p50_us", "us"),
    ("open_p90_us", "us"),
    ("cpu_us_per_op", "us/op"),
    ("rss_peak_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. Layers a
/// workload leaves idle report 0 for their workload counters; the ladder
/// rungs run in every traced invocation.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| m.push((n.to_string(), u));
    add("objects.apply_ns", "ns");
    for c in ladder::CORE_RUNGS {
        add(&format!("core.{c}_ns"), "ns");
        add(&format!("core.{c}_p99_ns"), "ns");
        add(&format!("core.{c}_sat_ops_s"), "ops/s");
    }
    add("core.hybcomb_combining_rate", "ops/round");
    add("core.hybcomb_cas_per_op", "cas/op");
    add("udn.rtt_ns", "ns");
    add("udn.rtt_p99_ns", "ns");
    add("udn.blocked_sends", "count");
    for b in ladder::RUNTIME_RUNGS.map(|b| b.label()) {
        add(&format!("runtime.submit_ns.{b}"), "ns");
        add(&format!("runtime.submit_p99_ns.{b}"), "ns");
    }
    add("runtime.avg_batch", "ops/batch");
    add("runtime.shard_skew", "ratio");
    add("runtime.rejected", "count");
    for (kind, variant) in ladder::NET_RUNGS {
        add(&format!("net.{kind}_us.{variant}"), "us");
        add(&format!("net.{kind}_p99_us.{variant}"), "us");
    }
    add("net.client_flush_ns", "ns/op");
    add("net.client_recv_wait_us", "us/op");
    for n in ["net.requests", "net.acked", "net.busy", "net.disconnects"] {
        add(n, "count");
    }
    add("net.acked_per_request", "ratio");
    for r in ladder::CLUSTER_RUNGS {
        add(&format!("cluster.{r}_us"), "us");
        add(&format!("cluster.{r}_p99_us"), "us");
    }
    add("cluster.resends", "count");
    add("cluster.redirects", "count");
    add("cluster.fwd_share", "ratio");
    add("cluster.pending_fwds", "count");
    add("cluster.repl_ack_lag_max", "count");
    add("cluster.dedup_entries", "count");
    add("tilesim.handoffs", "count");
    add("tilesim.proc_parks", "count");
    add("tilesim.engine_parks", "count");
    add("tilesim.ns_per_handoff", "ns");
    add("tilesim.grid_wall_s", "s");
    for b in measure::THREAD_BUCKETS.iter().chain(&["other"]) {
        add(&format!("cpu.{b}_us_per_op"), "us/op");
    }
    add("proc.vol_ctxsw_per_op", "count/op");
    add("proc.invol_ctxsw_per_op", "count/op");
    add("gen.late_p99_us", "us");
    add("gen.open_rate_ops_s", "ops/s");
    add("open_p99_us", "us");
    add("failed_frac", "ratio");
    add("samples.open", "count");
    add("samples.closed", "count");
    add("trace.overhead_pct", "%");
    m
}

/// Metric-name prefixes each workload leaves idle: their workload
/// counters read 0 in its traced run (the ladder rungs still run).
fn idle_prefixes(workload: &str) -> &'static [&'static str] {
    const NET: &str = "net.";
    const CLUSTER: &str = "cluster.";
    const SIM: &str = "tilesim.";
    const RT: &str = "runtime.";
    match workload {
        "wire-kv" => &[CLUSTER, SIM],
        "inproc-counter" => &[NET, CLUSTER, SIM],
        "cluster-kv" => &[NET, SIM],
        _ => &[NET, CLUSTER, RT],
    }
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Tracer,
    pub report: Report,
}

/// `trace.overhead_pct`: how much slower the traced window ran than the
/// untraced one just before it.
pub fn put_overhead(r: &mut Report, untraced: f64, traced: f64) {
    let pct = if untraced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    };
    r.put("trace.overhead_pct", pct, "%");
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&n| n == w)
                        .ok_or(format!("unknown workload {w:?}"))?,
                );
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one invocation and returns its report (the tests call this too).
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> (Ctx, Vec<String>) {
    let mut ctx = Ctx {
        seed,
        seconds,
        trace,
        tracer: Tracer::new(trace),
        report: Report::default(),
    };
    let res = match workload {
        "wire-kv" => rounds::run(&mut ctx, &mut wire::WireKv::default()),
        "inproc-counter" => rounds::run(&mut ctx, &mut inproc::InprocCounter::new()),
        "cluster-kv" => rounds::run(&mut ctx, &mut cluster::ClusterKv::default()),
        "sim-fig3a" => sim::run(&mut ctx),
        other => unreachable!("workload {other:?} validated by the caller"),
    };
    if let Err(e) = res {
        ctx.report.fail(format!("{workload}: {e}"));
    }
    if trace {
        ladder::run(&mut ctx);
        for (name, unit) in per_layer() {
            let idle = idle_prefixes(workload).iter().any(|p| name.starts_with(p))
                && ctx.report.get(&name).is_none()
                && !ladder::is_rung(&name);
            if idle {
                ctx.report.put(name, 0.0, unit);
            }
        }
        let r = &mut ctx.report;
        let frac = r.failed as f64 / r.attempted.max(1) as f64;
        r.put("failed_frac", frac, "ratio");
    }
    let problems = check_metric_set(&ctx.report, trace);
    (ctx, problems)
}

/// Every expected metric present exactly once with its unit, and nothing
/// else.
fn check_metric_set(r: &Report, trace: bool) -> Vec<String> {
    let want: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut problems = Vec::new();
    for (name, unit) in &want {
        match r
            .metrics
            .iter()
            .filter(|m| &m.name == name)
            .collect::<Vec<_>>()[..]
        {
            [m] if m.unit == *unit => {}
            [m] => problems.push(format!("{name}: unit {} (want {unit})", m.unit)),
            [] => problems.push(format!("{name}: missing")),
            _ => problems.push(format!("{name}: reported twice")),
        }
    }
    for m in &r.metrics {
        if !want.iter().any(|(n, _)| n == &m.name) {
            problems.push(format!("{}: not a declared metric", m.name));
        }
    }
    problems
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_outputs(args: &Args, ctx: &Ctx) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_default();
    let header = [
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("git_rev", git_rev()),
        ("host", host),
        ("nproc", measure::nproc().to_string()),
    ];
    std::fs::write(
        dir.join(format!("{stem}.json")),
        ctx.report.results_json(&header),
    )?;
    if args.trace {
        let f = std::fs::File::create(
            dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed)),
        )?;
        ctx.tracer.write_chrome(&mut std::io::BufWriter::new(f))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (mut ctx, problems) = run_workload(args.workload, args.seed, args.seconds, args.trace);
    for p in &problems {
        ctx.report.fail(format!("metric set: {p}"));
    }
    let r = &ctx.report;
    println!(
        "# perfbench {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        measure::nproc()
    );
    for m in &r.metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<34} {:>16.4} {}{n}", m.name, m.value, m.unit);
    }
    if args.trace {
        println!(
            "# spans: {} kept, {} dropped past the caps (the totals count them)",
            ctx.tracer.span_count(),
            ctx.tracer.dropped()
        );
    }
    for f in &r.failures {
        println!("# FAILED: {f}");
    }
    if let Err(e) = write_outputs(&args, &ctx) {
        eprintln!("perfbench: writing .bench_out: {e}");
    }
    println!("{}", r.result_line());
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn declared(b: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        b.get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let b = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&b, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&b, "per_layer"), layers);
        let workloads: Vec<String> = declared(&b, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// A short run of every workload, untraced and traced, reports every
    /// declared metric with its unit, checks out correct, and prints a
    /// result line with exactly its four keys.
    #[test]
    fn every_workload_reports_every_metric_with_its_unit() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let (ctx, problems) = run_workload(w, 7, 1.0, trace);
                let r = &ctx.report;
                assert!(problems.is_empty(), "{w} trace={trace}: {problems:?}");
                assert_eq!(r.failed, 0, "{w} trace={trace}: {:?}", r.failures);
                assert!(r.attempted > 0);
                if !trace {
                    for m in &r.metrics {
                        assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
                    }
                }
                let line = json::parse(&r.result_line()).expect("result line is JSON");
                let keys: Vec<&String> = match &line {
                    Value::Obj(m) => m.keys().collect(),
                    _ => Vec::new(),
                };
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            }
        }
    }
}
