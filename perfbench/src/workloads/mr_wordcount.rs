//! `mr-wordcount`: BOOM-FS plus BOOM-MR, both declarative, with 4
//! workers. The corpus ([`FILES`] files of [`WORDS`] words from
//! `boom_mr::synth_text`) is loaded in set-up; the measured section runs
//! a fixed, seeded sequence of small wordcount jobs, one input file each.
//! One op is one job, from submit to completion; its output must equal a
//! plain word count of its input.

use super::{rng, Outcome, Pass, RunCfg};
use crate::check::check_wordcount;
use crate::probe::Probe;
use crate::stats;
use boom_mr::{reference_wordcount, synth_text, MrCluster, MrClusterBuilder, MrDriver, MrJob};
use boom_simnet::SimConfig;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

pub const WORKERS: usize = 4;
pub const FILES: usize = 8;
pub const WORDS: usize = 16_000;
pub const NREDUCES: usize = 2;
/// Jobs per pass. A job's cost grows with the jobs run before it in the
/// same cluster (about 29 ms of CPU for the first, 40–55 ms after 40),
/// so passes stay short and a run makes many of them.
pub const JOBS_PER_PASS: u64 = 10;
/// Passes per requested second.
pub const PASSES_PER_SECOND: usize = 5;

struct State {
    c: MrCluster,
    inputs: Vec<String>,
}

fn setup(seed: u64) -> State {
    let mut c = MrClusterBuilder {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        workers: WORKERS,
        ..MrClusterBuilder::default()
    }
    .build();
    let inputs = c.load_corpus(seed, FILES, WORDS).expect("corpus load");
    State { c, inputs }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let jobs = JOBS_PER_PASS;
    out.notes.push(format!(
        "mr-wordcount: declarative JobTracker + NameNode, {WORKERS} workers, corpus of \
         {FILES} x {WORDS} words; {jobs} jobs per pass of one file each, {NREDUCES} reduces"
    ));
    // `load_corpus` writes file i from `synth_text(seed + i, WORDS)`.
    let want: Vec<BTreeMap<String, i64>> = (0..FILES)
        .map(|i| reference_wordcount(&synth_text(cfg.seed.wrapping_add(i as u64), WORDS)))
        .collect();
    for _ in 0..cfg.passes {
        let mut s = out.setup(|| setup(cfg.seed));
        let mut probe = Probe::new(&mut s.c.sim, cfg.traced);
        let mut units = 0.0;
        let mut r = rng(cfg.seed, 4);
        let fs = s.c.fs.clone();
        let mut driver = s.c.driver.clone();
        let mut ids = BTreeSet::new();
        probe.start_section(&mut s.c.sim);
        for j in 0..jobs {
            let f = r.gen_range(0..FILES);
            let job = MrJob {
                job_type: "wordcount".to_string(),
                inputs: vec![s.inputs[f].clone()],
                nreduces: NREDUCES,
                outdir: format!("/out{j}"),
            };
            let deadline = s.c.sim.now() + 3_600_000;
            let t = probe.begin(&mut s.c.sim);
            let res = driver.run(&mut s.c.sim, &fs, &job, deadline);
            probe.end(&mut s.c.sim, t, "job", res.is_ok());
            let res = res
                .map_err(|e| format!("job {j}: {e:?}"))
                .and_then(|(id, _)| {
                    ids.insert(id);
                    let got = MrDriver::collect_output(&mut s.c.sim, &s.c.trackers, id);
                    check_wordcount(&want[f], &got)
                });
            if res.is_ok() {
                units += WORDS as f64;
            } else {
                probe.ops.last_mut().expect("op recorded").ok = false;
            }
            out.check(res);
        }
        let totals = probe.end_section(&mut s.c.sim);
        if cfg.traced {
            let tasks: Vec<_> =
                s.c.task_times()
                    .into_iter()
                    .filter(|t| ids.contains(&t.job))
                    .collect();
            let durations: Vec<f64> = tasks.iter().map(|t| t.duration() as f64).collect();
            out.extra
                .insert("mr.jobtracker_ms_per_job", probe.busy_ms_per_op(&["jt"]));
            out.extra.insert(
                "mr.tasks_per_job",
                tasks.len() as f64 / ids.len().max(1) as f64,
            );
            out.extra
                .insert("mr.task_sim_p50_ms", stats::median(&durations));
        }
        out.passes.push(Pass {
            probe,
            totals,
            units,
        });
    }
    out
}
