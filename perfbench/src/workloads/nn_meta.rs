//! `nn-meta`: the paper's metadata path. One declarative NameNode with 2
//! DataNodes and a preloaded namespace of [`PRELOAD_FILES`] files in
//! [`DIRS`] directories takes a seeded mix of ~40% `exists`/`ls`, 50%
//! `create` and 10% `rm`/`rename`. Paxos, the WAL, MapReduce and
//! incremental maintenance are bypassed. The same stream replays against
//! the imperative NameNode ([`ControlPlane::Baseline`]) for the
//! declarative-over-imperative ratio.

use super::{fqpaths, rng, Outcome, Pass, RunCfg};
use crate::check::NamespaceModel;
use crate::probe::Probe;
use boom_fs::{ControlPlane, FsCluster, FsClusterBuilder, FsError};
use boom_simnet::SimConfig;
use rand::rngs::StdRng;
use rand::Rng;

pub const DIRS: usize = 16;
pub const PRELOAD_FILES: usize = 2_000;
/// Ops per pass per requested second.
pub const OPS_PER_SECOND: u64 = 90;

fn dir(i: usize) -> String {
    format!("/d{i:02}")
}

/// One metadata op of the stream.
enum Op {
    Exists(String),
    Ls(String),
    Create(String),
    Rm(String),
    Rename(String, String),
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Exists(_) => "exists",
            Op::Ls(_) => "ls",
            Op::Create(_) => "create",
            Op::Rm(_) => "rm",
            Op::Rename(..) => "rename",
        }
    }
}

/// What an op returned, checked against the model after its timing ends.
enum Answer {
    Done,
    Bool(bool),
    Names(Vec<String>),
}

/// The cluster plus the harness's view of what it should hold.
struct State {
    c: FsCluster,
    model: NamespaceModel,
    /// Files that exist, for picking `exists`/`rm`/`rename` targets.
    live: Vec<String>,
    next: u64,
}

fn setup(seed: u64, control: ControlPlane) -> State {
    let mut c = FsClusterBuilder {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        control,
        datanodes: 2,
        ..FsClusterBuilder::default()
    }
    .build();
    let cl = c.client.clone();
    let mut model = NamespaceModel::default();
    for d in 0..DIRS {
        cl.mkdir(&mut c.sim, &dir(d)).expect("preload mkdir");
        model.mkdir(&dir(d));
    }
    let mut r = rng(seed, 1);
    let mut live = Vec::with_capacity(PRELOAD_FILES);
    for i in 0..PRELOAD_FILES {
        let p = format!("{}/p{i}", dir(r.gen_range(0..DIRS)));
        cl.create(&mut c.sim, &p).expect("preload create");
        model.create(&p);
        live.push(p);
    }
    State {
        c,
        model,
        live,
        next: 0,
    }
}

/// A path no op has used yet.
fn fresh(s: &mut State, r: &mut StdRng, prefix: &str) -> String {
    s.next += 1;
    format!("{}/{prefix}{}", dir(r.gen_range(0..DIRS)), s.next)
}

/// Op kinds of one deck: 20 ops in the workload's exact proportions,
/// dealt in a seeded shuffle so every run issues the same mix.
const DECK: [&str; 20] = [
    "exists", "exists", "exists", "exists", "ls", "ls", "ls", "ls", "create", "create", "create",
    "create", "create", "create", "create", "create", "create", "create", "rm", "rename",
];

fn next_op(s: &mut State, r: &mut StdRng, deck: &mut Vec<&'static str>) -> Op {
    if deck.is_empty() {
        deck.extend(DECK);
        for i in (1..deck.len()).rev() {
            deck.swap(i, r.gen_range(0..=i));
        }
    }
    let kind = deck.pop().expect("deck refilled above");
    match kind {
        "exists" if r.gen_bool(0.5) => Op::Exists(s.live[r.gen_range(0..s.live.len())].clone()),
        "exists" => Op::Exists(fresh(s, r, "missing")),
        "ls" => Op::Ls(dir(r.gen_range(0..DIRS))),
        "rm" => Op::Rm(s.live.swap_remove(r.gen_range(0..s.live.len()))),
        "rename" => {
            let old = s.live.swap_remove(r.gen_range(0..s.live.len()));
            Op::Rename(old, fresh(s, r, "r"))
        }
        _ => Op::Create(fresh(s, r, "f")),
    }
}

fn execute(s: &mut State, op: &Op) -> Result<Answer, FsError> {
    let (cl, sim) = (s.c.client.clone(), &mut s.c.sim);
    Ok(match op {
        Op::Exists(p) => Answer::Bool(cl.exists(sim, p)?),
        Op::Ls(d) => Answer::Names(cl.ls(sim, d)?),
        Op::Create(p) => cl.create(sim, p).map(|_| Answer::Done)?,
        Op::Rm(p) => cl.rm(sim, p).map(|_| Answer::Done)?,
        Op::Rename(a, b) => cl.rename(sim, a, b).map(|_| Answer::Done)?,
    })
}

/// Check an answer against the model and apply the op to it.
fn verify(s: &mut State, op: &Op, answer: Result<Answer, FsError>) -> Result<(), String> {
    let answer = answer.map_err(|e| format!("{}: {e:?}", op.kind()))?;
    match (op, answer) {
        (Op::Exists(p), Answer::Bool(got)) => s.model.check_exists(p, got),
        (Op::Ls(d), Answer::Names(got)) => s.model.check_ls(d, &got),
        (Op::Create(p), Answer::Done) => {
            s.model.create(p);
            s.live.push(p.clone());
            Ok(())
        }
        (Op::Rm(p), Answer::Done) => {
            s.model.rm(p);
            Ok(())
        }
        (Op::Rename(a, b), Answer::Done) => {
            s.model.rename(a, b);
            s.live.push(b.clone());
            Ok(())
        }
        _ => Err(format!("{}: unexpected answer shape", op.kind())),
    }
}

/// One run against `control`.
pub fn run(cfg: &RunCfg, control: ControlPlane) -> Outcome {
    let mut out = Outcome::default();
    let ops = cfg.seconds * OPS_PER_SECOND;
    out.notes.push(format!(
        "nn-meta: {control:?} NameNode, 2 DataNodes, {PRELOAD_FILES} files in {DIRS} dirs; \
         {ops} ops per pass (20% exists, 20% ls, 50% create, 5% rm, 5% rename)"
    ));
    for _ in 0..cfg.passes {
        let mut s = out.setup(|| setup(cfg.seed, control));
        let mut probe = Probe::new(&mut s.c.sim, cfg.traced);
        let mut units = 0.0;
        out.extra
            .insert("fs.namespace_files_start", s.model.file_count() as f64);
        let mut r = rng(cfg.seed, 2);
        let mut deck = Vec::with_capacity(DECK.len());
        probe.start_section(&mut s.c.sim);
        for _ in 0..ops {
            let op = next_op(&mut s, &mut r, &mut deck);
            let t = probe.begin(&mut s.c.sim);
            let answer = execute(&mut s, &op);
            probe.end(&mut s.c.sim, t, op.kind(), true);
            let res = verify(&mut s, &op, answer);
            if res.is_err() {
                probe.ops.last_mut().expect("op recorded").ok = false;
            } else {
                units += 1.0;
            }
            out.check(res);
        }
        let totals = probe.end_section(&mut s.c.sim);
        out.extra
            .insert("fs.namespace_files_end", s.model.file_count() as f64);
        if control == ControlPlane::Declarative {
            let nn = s.c.namenodes[0].clone();
            let got = fqpaths(&mut s.c.sim, &nn);
            out.check(s.model.check_paths(&got));
        }
        out.passes.push(Pass {
            probe,
            totals,
            units,
        });
    }
    out
}
