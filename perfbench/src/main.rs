//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nn-meta --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload as several identical passes, each in a fresh child
//! process, times every op on the process CPU clock, checks every answer,
//! and prints a header (`# ...` lines) and, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! traced mode also writes a Chrome trace and the per-layer table to
//! `perfbench/out/`. Exits non-zero if any op or end-state check failed.
//! See `perfbench/README.md`.

mod check;
mod clock;
mod isolate;
mod probe;
mod stats;
mod workloads;

use boom_fs::ControlPlane;
use isolate::{PassRecord, RunRecord};
use probe::ms;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, RunCfg};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (zero where a layer takes no part in the workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.msgs_per_op", "count"),
    ("simnet.dropped", "count"),
    ("simnet.rest_ms_per_op", "ms"),
    ("overlog.busy_ms_per_op", "ms"),
    ("overlog.eval_ms_per_op", "ms"),
    ("overlog.non_eval_ms_per_op", "ms"),
    ("overlog.ticks_per_op", "count"),
    ("overlog.fixpoint_rounds_per_op", "count"),
    ("overlog.view_recomputes_per_op", "count"),
    ("overlog.views_maintained_per_op", "count"),
    ("overlog.fires_per_op", "count"),
    ("overlog.useful_ratio", "ratio"),
    ("overlog.kernel_evals_per_op", "count"),
    ("fs.create_ms", "ms"),
    ("fs.rm_ms", "ms"),
    ("fs.rename_ms", "ms"),
    ("fs.ls_ms", "ms"),
    ("fs.exists_ms", "ms"),
    ("fs.namespace_files_start", "count"),
    ("fs.namespace_files_end", "count"),
    ("fs.baseline_create_ms", "ms"),
    ("fs.decl_over_baseline", "ratio"),
    ("paxos.leader_ms_per_op", "ms"),
    ("paxos.follower_ms_per_op", "ms"),
    ("paxos.msgs_per_commit", "count"),
    ("durable.wal_entries_per_op", "count"),
    ("durable.wal_batches_per_op", "count"),
    ("durable.checkpoints", "count"),
    ("mr.jobtracker_ms_per_job", "ms"),
    ("mr.tasks_per_job", "count"),
    ("mr.task_sim_p50_ms", "vms"),
    ("serve.deltas_per_op", "count"),
    ("serve.host_bytes", "bytes"),
    ("sim.latency_p50_ms", "vms"),
    ("sim.latency_tail_ms", "vms"),
    ("harness.error_rate", "ratio"),
    ("harness.cpu_over_wall", "ratio"),
    ("harness.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, by CLI name.
pub const WORKLOADS: &[&str] = &["nn-meta", "nn-replicated", "mr-wordcount", "nn-churn"];

/// The `FsClient` calls whose median CPU time is reported, by metric.
const FS_CALLS: &[(&str, &str)] = &[
    ("create", "fs.create_ms"),
    ("rm", "fs.rm_ms"),
    ("rename", "fs.rename_ms"),
    ("ls", "fs.ls_ms"),
    ("exists", "fs.exists_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run pass number `k` (from 1) in this process, pinned to
    /// the `k`-th allowed CPU round-robin, and print it for the parent.
    pass: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <nn-meta|nn-replicated|mr-wordcount|nn-churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "pass"].contains(k))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
        pass: match kv.get("pass") {
            None => None,
            Some(_) => Some(num("pass")?.max(1) as usize),
        },
    })
}

fn run(workload: &str, cfg: &RunCfg) -> Outcome {
    match workload {
        "nn-meta" => workloads::nn_meta::run(cfg, ControlPlane::Declarative),
        "nn-replicated" => workloads::nn_replicated::run(cfg),
        "mr-wordcount" => workloads::mr_wordcount::run(cfg),
        "nn-churn" => workloads::nn_churn::run(cfg),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// CPU ms of every op of every pass, optionally of one kind only.
fn op_ms<'a>(o: &'a RunRecord, kind: Option<&'a str>) -> impl Iterator<Item = f64> + 'a {
    o.passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter(move |op| kind.is_none_or(|k| op.kind == k))
        .map(|op| ms(op.cpu_ns))
}

/// The end-to-end metrics of an untraced run, over the ops of all its
/// (identical) passes; set-up time and peak memory are medians over
/// passes.
fn end_to_end(
    o: &RunRecord,
    header: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let all = stats::sorted(op_ms(o, None));
    let n = all.len();
    let p50 = stats::percentile(&all, 50.0)
        .ok_or_else(|| format!("{n} timed ops: too few for a median"))?;
    let (tail_p, tail) =
        stats::tail(&all).ok_or_else(|| format!("{n} timed ops: too few for a tail percentile"))?;
    let per_pass = |f: fn(&PassRecord) -> f64| -> Vec<f64> { o.passes.iter().map(f).collect() };
    let (setup, rss) = (per_pass(|p| p.setup_s), per_pass(|p| p.rss_mb));
    let cpus: Vec<String> = o
        .passes
        .iter()
        .map(|p| p.cpu.map_or("-".into(), |c| c.to_string()))
        .collect();
    header.push(format!(
        "# timed ops: {n} over {} passes on CPUs [{}]; latency_tail_ms is p{tail_p} \
         (>= {} ops beyond the cut)",
        o.passes.len(),
        cpus.join(","),
        stats::MIN_BEYOND
    ));
    header.push(format!(
        "# per-pass throughput_per_s: {:?}",
        per_pass(PassRecord::throughput)
    ));
    header.push(format!("# per-pass setup_s: {setup:?}"));
    header.push(format!(
        "# per-pass cpu_over_wall: {:?}",
        per_pass(|p| p.cpu_s / p.wall_s.max(1e-9))
    ));
    header.push(format!(
        "# per-pass steal_pct: {:?}",
        per_pass(|p| p.steal_pct)
    ));
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&setup));
    m.insert("throughput_per_s", o.throughput());
    m.insert("latency_p50_ms", p50);
    m.insert("latency_tail_ms", tail);
    m.insert("peak_rss_mb", stats::median(&rss));
    m.insert(
        "success_rate",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
    );
    Ok(m)
}

/// The per-layer metrics: `base` is the untraced run of the same seed,
/// `traced` a one-pass traced run, and `baseline` nn-meta's op stream
/// replayed on the imperative NameNode.
fn per_layer(
    base: &RunRecord,
    traced: &Outcome,
    baseline: Option<&Outcome>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(k, _)| (*k, 0.0)).collect();
    traced.first().probe.layer_metrics(&mut m);
    m.extend(traced.extra.iter().map(|(k, v)| (*k, *v)));
    for (call, key) in FS_CALLS {
        m.insert(
            key,
            stats::median(&op_ms(base, Some(call)).collect::<Vec<_>>()),
        );
    }
    let sim = stats::sorted(
        base.passes
            .iter()
            .flat_map(|p| &p.ops)
            .map(|op| op.sim_ms as f64),
    );
    m.insert("sim.latency_p50_ms", stats::median(&sim));
    m.insert(
        "sim.latency_tail_ms",
        stats::tail(&sim).map_or(0.0, |t| t.1),
    );
    m.insert(
        "harness.error_rate",
        base.failed as f64 / base.attempted.max(1) as f64,
    );
    m.insert(
        "trace.overhead_pct",
        100.0 * (base.throughput() / traced.first().throughput().max(1e-9) - 1.0),
    );
    if let Some(baseline) = baseline {
        let imperative = RunRecord::from_outcome(baseline, 0.0);
        let decl = stats::median(&op_ms(base, Some("create")).collect::<Vec<_>>());
        let imp = stats::median(&op_ms(&imperative, Some("create")).collect::<Vec<_>>());
        m.insert("fs.baseline_create_ms", imp);
        m.insert("fs.decl_over_baseline", decl / imp.max(1e-9));
    }
    m
}

fn json_metrics(metrics: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = std::env::var_os("BOOM_KERNELS") {
        eprintln!(
            "perfbench: refusing to run with BOOM_KERNELS={v:?} set (it changes what is measured)"
        );
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        passes: workloads::passes(&args.workload, args.seconds),
        traced: false,
    };
    if let Some(k) = args.pass {
        let cpu = clock::pin_to_nth_cpu(k - 1);
        let o = run(&args.workload, &RunCfg { passes: 1, ..cfg });
        let mut record = RunRecord::from_outcome(&o, clock::peak_rss_mb());
        record.passes[0].cpu = cpu;
        print!("{}", record.to_wire());
        return if o.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} build={profile}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let base = match isolate::run_isolated(&args.workload, args.seed, args.seconds, cfg.passes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut header = vec![
        format!("# plan_options: {}", base.plan),
        "# simulator: serial, one closed-loop client; timings on CLOCK_PROCESS_CPUTIME_ID; \
         each pass in a fresh process pinned to one CPU"
            .into(),
    ];
    header.extend(base.notes.iter().map(|n| format!("# {n}")));
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let mut failures = base.failures.clone();
    let e2e = end_to_end(&base, &mut header);
    let json = match (args.trace, e2e) {
        (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        (false, Ok(m)) => json_metrics(&m, END_TO_END),
        (true, Ok(_)) => {
            let traced_cfg = RunCfg {
                passes: 1,
                traced: true,
                ..cfg
            };
            let traced = run(&args.workload, &traced_cfg);
            // The same op stream against the imperative NameNode.
            let baseline = (args.workload == "nn-meta")
                .then(|| workloads::nn_meta::run(&cfg, ControlPlane::Baseline));
            for o in std::iter::once(&traced).chain(&baseline) {
                attempted += o.attempted;
                failed += o.failed;
                failures.extend(o.failures.iter().cloned());
            }
            let bucket_failures = traced.first().probe.bucket_failures();
            attempted += traced.first().probe.ops.len() as u64;
            failed += bucket_failures.len() as u64;
            failures.extend(bucket_failures.into_iter().take(5));
            let m = per_layer(&base, &traced, baseline.as_ref());
            let table = traced.first().probe.layer_table();
            let dir = out_dir();
            let stem = format!("{}-seed{}", args.workload, args.seed);
            let written = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table))
                .and_then(|_| {
                    std::fs::write(
                        dir.join(format!("{stem}.trace.json")),
                        traced.first().probe.chrome(),
                    )
                });
            if let Err(e) = written {
                eprintln!("perfbench: writing trace output to {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            header.push(format!(
                "# trace files: {}/{stem}.{{layers.txt,trace.json}}",
                dir.display()
            ));
            header.extend(table.lines().map(|l| format!("# {l}")));
            json_metrics(&m, PER_LAYER)
        }
    };
    for h in &header {
        println!("{h}");
    }
    for f in &failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "no extra metrics"
        );
    }

    /// Everything a traced pass measures that must repeat exactly for a
    /// seed: each op's simulated latency and every count-type metric.
    fn deterministic_view(o: &Outcome) -> Vec<String> {
        let mut m = BTreeMap::new();
        o.first().probe.layer_metrics(&mut m);
        m.extend(o.extra.iter().map(|(k, v)| (*k, *v)));
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(k, u)| {
                matches!(*u, "count" | "vms" | "bytes") || *k == "overlog.useful_ratio"
            })
            .map(|(k, _)| *k)
            .collect();
        let mut out: Vec<String> = m
            .iter()
            .filter(|(k, _)| exact.contains(k))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let p = o.first();
        out.extend(
            p.probe
                .ops
                .iter()
                .map(|op| format!("{} {} {}", op.kind, op.sim_ms, op.ok)),
        );
        out.push(format!("units={} failed={}", p.units, o.failed));
        out
    }

    #[test]
    fn simulated_and_count_metrics_repeat_for_a_seed() {
        let cfg = RunCfg {
            seed: 11,
            seconds: 1,
            passes: 1,
            traced: true,
        };
        for w in WORKLOADS {
            let a = run(w, &cfg);
            let b = run(w, &cfg);
            assert_eq!(a.failed, 0, "{w}: {:?}", a.failures);
            assert_eq!(deterministic_view(&a), deterministic_view(&b), "{w}");
        }
    }
}
