//! Observed scenarios: canonical BOOM-FS and BOOM-MR runs with the whole
//! `boom-trace` stack attached — metaprogrammed monitoring installed into
//! every Overlog node, why-provenance recording, the rule profiler, the
//! unified metrics registry, and a Chrome trace of the full cluster run.
//!
//! The `boomtrace` CLI and the provenance reproducibility tests share
//! these runners so "the fs scenario" means exactly one thing everywhere.

use boom_fs::cluster::{ControlPlane, FsClusterBuilder};
use boom_mr::{CostModel, MrClusterBuilder, MrJob};
use boom_overlog::Value;
use boom_simnet::{OverlogActor, Sim, SimConfig};
use boom_trace::meta::ROWCOUNT_TABLE;
use boom_trace::{
    collect_rule_profile, install_monitor, ChromeRecorder, ProfileRow, ProvStore, Registry,
};

/// Knobs for an observed run.
#[derive(Debug, Clone)]
pub struct ObserveConfig {
    /// Simulator seed; everything except wall-clock timings is a pure
    /// function of this.
    pub seed: u64,
    /// Record why-provenance (first witness per derived tuple).
    pub provenance: bool,
    /// Attach a Chrome trace recorder to the simulator.
    pub chrome: bool,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            seed: 42,
            provenance: true,
            chrome: true,
        }
    }
}

/// Everything one observed scenario produced.
#[derive(Debug, Default)]
pub struct ObservedRun {
    /// Scenario name (`fs` or `mr`).
    pub scenario: String,
    /// Unified metrics: trace/rule/network counters, row-count gauges,
    /// latency samples.
    pub registry: Registry,
    /// Provenance records from every instrumented node.
    pub prov: ProvStore,
    /// Per-rule counters from every instrumented node.
    pub profile: Vec<ProfileRow>,
    /// Chrome trace-event JSON of the run, when recording was on.
    pub chrome_json: Option<String>,
    /// Watch-trace events drained across all instrumented nodes.
    pub trace_events: usize,
    /// Trace events lost to the ring-buffer cap (surfaced, never silent).
    pub trace_dropped: u64,
    /// Provenance records lost to the provenance cap.
    pub prov_dropped: u64,
    /// Statements in the generated monitoring programs (all nodes).
    pub monitor_statements: usize,
}

/// The scenario names [`run_observed`] accepts.
pub fn scenarios() -> &'static [&'static str] {
    &["fs", "mr"]
}

/// Run one named scenario under full observation.
pub fn run_observed(scenario: &str, cfg: &ObserveConfig) -> Result<ObservedRun, String> {
    match scenario {
        "fs" => Ok(run_observed_fs(cfg)),
        "mr" => Ok(run_observed_mr(cfg)),
        other => Err(format!(
            "unknown scenario `{other}` (scenarios: {})",
            scenarios().join(", ")
        )),
    }
}

/// Install the generated monitor (and optionally provenance) on one
/// Overlog node; returns the generated statement count.
fn instrument(sim: &mut Sim, node: &str, provenance: bool) -> usize {
    sim.with_actor::<OverlogActor, _>(node, |a| {
        let rt = a.runtime();
        rt.set_provenance(provenance)
            .expect("views rebuild when capture starts");
        let spec = install_monitor(rt).expect("generated monitor loads");
        spec.statements()
    })
}

/// Drain one instrumented node into the run: trace, provenance, profile,
/// row-count gauges, evaluator counters.
fn harvest(run: &mut ObservedRun, sim: &mut Sim, node: &str) {
    let (drain, prov_dropped, records, profile, evals, counts) =
        sim.with_actor::<OverlogActor, _>(node, |a| {
            let rt = a.runtime();
            let drain = rt.drain_trace();
            let prov_dropped = rt.prov_drops();
            let records = rt.take_provenance();
            let profile = collect_rule_profile(node, rt);
            let evals = rt.eval_stats();
            let counts: Vec<(String, i64)> = rt
                .rows(ROWCOUNT_TABLE)
                .iter()
                .filter_map(|r| match (r.first(), r.get(1)) {
                    (Some(Value::Str(t)), Some(Value::Int(n))) => Some((t.to_string(), *n)),
                    _ => None,
                })
                .collect();
            (drain, prov_dropped, records, profile, evals, counts)
        });
    run.trace_events += drain.events.len();
    run.trace_dropped += drain.dropped;
    run.prov_dropped += prov_dropped;
    let reg = &mut run.registry;
    reg.count(&format!("trace.events.{node}"), drain.events.len() as u64);
    reg.count(&format!("trace.dropped.{node}"), drain.dropped);
    reg.count(&format!("prov.records.{node}"), records.len() as u64);
    let fires: u64 = profile.iter().map(|p| p.stats.fires).sum();
    reg.count(&format!("rules.fires.{node}"), fires);
    reg.gauge(&format!("eval.ticks.{node}"), evals.ticks as f64);
    reg.gauge(
        &format!("eval.fixpoint_rounds.{node}"),
        evals.fixpoint_rounds as f64,
    );
    reg.gauge(
        &format!("eval.view_recomputes.{node}"),
        evals.view_recomputes as f64,
    );
    for (table, n) in counts {
        reg.gauge(&format!("rows.{node}.{table}"), n as f64);
    }
    run.prov.add_node(node, records);
    run.profile.extend(profile);
}

/// The fs scenario: a small BOOM-FS cluster doing a mixed metadata +
/// data workload (mkdir, writes, a read-back, a delete).
pub fn run_observed_fs(cfg: &ObserveConfig) -> ObservedRun {
    let mut run = ObservedRun {
        scenario: "fs".to_string(),
        ..Default::default()
    };
    let mut c = FsClusterBuilder {
        control: ControlPlane::Declarative,
        datanodes: 2,
        replication: 2,
        sim: SimConfig {
            seed: cfg.seed,
            ..Default::default()
        },
        ..Default::default()
    }
    .build();
    if cfg.chrome {
        c.sim.set_recorder(ChromeRecorder::new());
    }
    run.monitor_statements += instrument(&mut c.sim, "nn0", cfg.provenance);

    let cl = c.client.clone();
    cl.mkdir(&mut c.sim, "/obs").expect("mkdir works");
    for i in 0..4 {
        let t0 = c.sim.now();
        cl.write_file(&mut c.sim, &format!("/obs/f{i}"), "observed payload")
            .expect("write works");
        run.registry
            .sample("fs.write.ms", (c.sim.now() - t0) as f64);
    }
    let text = cl.read_file(&mut c.sim, "/obs/f0").expect("read works");
    run.registry.gauge("fs.read.bytes", text.len() as f64);
    cl.rm(&mut c.sim, "/obs/f3").expect("rm works");
    // A couple of heartbeat intervals so background maintenance shows up.
    c.sim.run_for(4_000);

    harvest(&mut run, &mut c.sim, "nn0");
    if let Some(r) = c.sim.take_recorder() {
        run.chrome_json = Some(r.render());
    }
    run
}

/// The mr scenario: a small wordcount job on the full declarative stack
/// (BOOM-MR over BOOM-FS); both the NameNode and the JobTracker are
/// instrumented.
pub fn run_observed_mr(cfg: &ObserveConfig) -> ObservedRun {
    let mut run = ObservedRun {
        scenario: "mr".to_string(),
        ..Default::default()
    };
    let mut c = MrClusterBuilder {
        fs_control: ControlPlane::Declarative,
        mr_control: ControlPlane::Declarative,
        workers: 3,
        chunk_size: 2048,
        sim: SimConfig {
            seed: cfg.seed,
            ..Default::default()
        },
        cost: CostModel::default(),
        ..Default::default()
    }
    .build();
    if cfg.chrome {
        c.sim.set_recorder(ChromeRecorder::new());
    }
    run.monitor_statements += instrument(&mut c.sim, "nn0", cfg.provenance);
    run.monitor_statements += instrument(&mut c.sim, "jt", cfg.provenance);

    let inputs = c.load_corpus(cfg.seed, 2, 1_500).expect("corpus loads");
    let fs = c.fs.clone();
    let mut driver = c.driver.clone();
    let job = MrJob {
        job_type: "wordcount".into(),
        inputs,
        nreduces: 2,
        outdir: "/out".into(),
    };
    let deadline = c.sim.now() + 50_000_000;
    let (_, job_ms) = driver
        .run(&mut c.sim, &fs, &job, deadline)
        .expect("job completes");
    run.registry.sample("mr.job.ms", job_ms as f64);
    for t in c.task_times() {
        run.registry
            .sample(&format!("mr.task.{}.ms", t.ty), t.duration() as f64);
    }

    harvest(&mut run, &mut c.sim, "nn0");
    harvest(&mut run, &mut c.sim, "jt");
    if let Some(r) = c.sim.take_recorder() {
        run.chrome_json = Some(r.render());
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_scenario_observes_the_whole_stack() {
        let run = run_observed_fs(&ObserveConfig::default());
        assert!(run.trace_events > 0);
        assert!(!run.prov.is_empty(), "provenance recorded");
        assert!(!run.profile.is_empty(), "profile collected");
        assert!(run.monitor_statements > 10, "{}", run.monitor_statements);
        let doc = run.chrome_json.expect("chrome trace recorded");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"s\""), "flow arrows present");
        // A metadata derivation is explainable end to end.
        let targets = run.prov.find("fqpath(");
        assert!(!targets.is_empty(), "fqpath tuples have provenance");
        let (t, r) = &targets[0];
        let tree = run.prov.derivation(t, r);
        assert!(tree.rule.is_some(), "{}", tree.render());
    }

    #[test]
    fn mr_scenario_instruments_both_control_planes() {
        let run = run_observed_mr(&ObserveConfig {
            chrome: false,
            ..Default::default()
        });
        assert!(run.registry.counter("rules.fires.nn0") > 0);
        assert!(run.registry.counter("rules.fires.jt") > 0);
        assert!(!run.prov.is_empty());
        assert!(run.chrome_json.is_none());
        // Row-count gauges from the generated monitor made it across.
        let json = run.registry.clone().to_json();
        assert!(json.contains("rows.jt."), "{json}");
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_observed("nope", &ObserveConfig::default()).is_err());
    }
}
