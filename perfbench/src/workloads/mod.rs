//! The four workloads. A run makes several identical passes: each builds
//! the cluster and preloads its state from the seed (timed as set-up),
//! then drives the same fixed, seeded stream of ops through one
//! closed-loop client — the next op is issued only after the previous one
//! completed — and checks every answer.

pub mod mr_wordcount;
pub mod nn_churn;
pub mod nn_meta;
pub mod nn_replicated;

use crate::clock::cpu_now;
use crate::probe::{Probe, SectionTotals};
use boom_overlog::Value;
use boom_simnet::{OverlogActor, Sim};
use std::collections::{BTreeMap, BTreeSet};

/// Passes per benchmark run (each with its own set-up).
pub const PASSES: usize = 8;

/// Passes a run of `workload` makes when asked for `seconds`.
pub fn passes(workload: &str, seconds: u64) -> usize {
    // Their per-op cost grows with the ops run before, so their ops are
    // spread over many short passes instead of a few long ones.
    match workload {
        "nn-replicated" => nn_replicated::PASSES_PER_SECOND * seconds as usize,
        "mr-wordcount" => mr_wordcount::PASSES_PER_SECOND * seconds as usize,
        _ => PASSES,
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seeds every generated input (and the simulator).
    pub seed: u64,
    /// Scales the work of a run: each workload issues a fixed number of
    /// ops (or passes) per requested second, never a time budget.
    pub seconds: u64,
    /// Identical passes to make.
    pub passes: usize,
    /// Record per-op spans and layer counters.
    pub traced: bool,
}

/// One pass's measured section.
pub struct Pass {
    pub probe: Probe,
    pub totals: SectionTotals,
    /// Throughput units completed (ops, churn reports or input words).
    pub units: f64,
}

impl Pass {
    /// Units completed per CPU-second of the measured section.
    pub fn throughput(&self) -> f64 {
        self.units / self.totals.cpu.as_secs_f64().max(1e-9)
    }
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub passes: Vec<Pass>,
    /// CPU seconds of each pass's set-up.
    pub setup_s: Vec<f64>,
    /// Ops attempted plus end-state checks made.
    pub attempted: u64,
    /// Failed, timed-out or wrong-answer ops plus failed end-state checks.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Workload-specific per-layer metrics (traced runs fill more).
    pub extra: BTreeMap<&'static str, f64>,
    /// Header lines describing what was run.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Build a pass's cluster, timing it on the CPU clock.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = cpu_now();
        let built = build();
        self.setup_s.push((cpu_now() - t0).as_secs_f64());
        built
    }

    /// Count one checked result.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    /// The first pass (the only one of a traced run).
    pub fn first(&self) -> &Pass {
        self.passes.first().expect("a run makes at least one pass")
    }
}

/// The paths an Overlog NameNode holds (`fqpath`).
pub fn fqpaths(sim: &mut Sim, nn: &str) -> BTreeSet<String> {
    sim.with_actor::<OverlogActor, _>(nn, |a| {
        a.runtime_ref()
            .rows("fqpath")
            .iter()
            .filter_map(|r| r.first().and_then(Value::as_str).map(str::to_string))
            .collect()
    })
}

/// Seed-derived random stream; `salt` separates a workload's streams.
pub fn rng(seed: u64, salt: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}
