//! `nn-replicated`: the Paxos-replicated NameNode. Three durable
//! replicas (`ReplicatedFsBuilder`, `durable: true`) and 4 DataNodes take
//! a stream of creates with an `rm` every [`RM_EVERY`] ops, so every op is
//! a mutation that pays consensus and the write-ahead log.

use super::{fqpaths, rng, Outcome, Pass, RunCfg};
use crate::check::NamespaceModel;
use crate::probe::Probe;
use boom_core::{ReplicatedFsBuilder, ReplicatedFsCluster};
use boom_overlog::Value;
use boom_simnet::{OverlogActor, SimConfig};
use rand::Rng;

pub const DIRS: usize = 4;
pub const PRELOAD_FILES: usize = 64;
/// Every this many ops, one is an `rm` instead of a `create`.
pub const RM_EVERY: u64 = 8;
/// Ops per pass. Each op's cost grows with the replicas' decided log
/// (about 0.6 ms of CPU for a create on a fresh log, 2.6 ms after 800
/// ops), so passes stay short and a run makes many of them.
pub const OPS_PER_PASS: u64 = 200;
/// Passes per requested second.
pub const PASSES_PER_SECOND: usize = 4;

fn dir(i: usize) -> String {
    format!("/r{i}")
}

struct State {
    c: ReplicatedFsCluster,
    model: NamespaceModel,
    live: Vec<String>,
}

fn setup(seed: u64) -> State {
    let mut c = ReplicatedFsBuilder {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        replicas: 3,
        datanodes: 4,
        durable: true,
        ..ReplicatedFsBuilder::default()
    }
    .build();
    let cl = c.client.clone();
    let mut model = NamespaceModel::default();
    for d in 0..DIRS {
        cl.mkdir(&mut c.sim, &dir(d)).expect("preload mkdir");
        model.mkdir(&dir(d));
    }
    let mut live = Vec::new();
    for i in 0..PRELOAD_FILES {
        let p = format!("{}/p{i}", dir(i % DIRS));
        cl.create(&mut c.sim, &p).expect("preload create");
        model.create(&p);
        live.push(p);
    }
    State { c, model, live }
}

/// The replica that currently believes it leads, per its `leader` table.
fn leader(s: &mut State) -> String {
    let nn0 = s.c.namenodes[0].clone();
    s.c.sim
        .with_actor::<OverlogActor, _>(&nn0, |a| {
            a.runtime_ref()
                .rows("leader")
                .first()
                .and_then(|r| r.first().and_then(Value::as_str).map(str::to_string))
        })
        .unwrap_or(nn0)
}

fn decided(s: &mut State, node: &str) -> usize {
    s.c.sim
        .with_actor::<OverlogActor, _>(node, |a| a.runtime_ref().count("decided"))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ops = OPS_PER_PASS;
    out.notes.push(format!(
        "nn-replicated: 3 durable Paxos replicas, 4 DataNodes, {PRELOAD_FILES} preloaded files; \
         {ops} ops per pass (create, rm every {RM_EVERY})"
    ));
    for _ in 0..cfg.passes {
        let mut s = out.setup(|| setup(cfg.seed));
        let mut probe = Probe::new(&mut s.c.sim, cfg.traced).with_store(s.c.store.clone());
        let mut units = 0.0;
        out.extra
            .insert("fs.namespace_files_start", s.model.file_count() as f64);
        let lead = leader(&mut s);
        let (decided0, delivered0) = (decided(&mut s, &lead), s.c.sim.delivered_count());
        let mut r = rng(cfg.seed, 3);
        let cl = s.c.client.clone();
        probe.start_section(&mut s.c.sim);
        for i in 0..ops {
            let rm = (i + 1) % RM_EVERY == 0 && !s.live.is_empty();
            let (kind, path) = if rm {
                ("rm", s.live.swap_remove(r.gen_range(0..s.live.len())))
            } else {
                ("create", format!("{}/f{i}", dir(r.gen_range(0..DIRS))))
            };
            let t = probe.begin(&mut s.c.sim);
            let res = if rm {
                cl.rm(&mut s.c.sim, &path)
            } else {
                cl.create(&mut s.c.sim, &path)
            };
            probe.end(&mut s.c.sim, t, kind, res.is_ok());
            match res {
                Ok(()) if rm => s.model.rm(&path),
                Ok(()) => {
                    s.model.create(&path);
                    s.live.push(path);
                }
                Err(_) => {}
            }
            if res.is_ok() {
                units += 1.0;
            }
            out.check(res.map_err(|e| format!("{kind}: {e:?}")));
        }
        let totals = probe.end_section(&mut s.c.sim);
        let commits = (decided(&mut s, &lead) - decided0).max(1);
        let msgs = s.c.sim.delivered_count() - delivered0;
        out.extra
            .insert("fs.namespace_files_end", s.model.file_count() as f64);
        if cfg.traced {
            let followers: Vec<&str> =
                s.c.namenodes
                    .iter()
                    .map(String::as_str)
                    .filter(|n| *n != lead)
                    .collect();
            out.extra
                .insert("paxos.leader_ms_per_op", probe.busy_ms_per_op(&[&lead]));
            out.extra
                .insert("paxos.follower_ms_per_op", probe.busy_ms_per_op(&followers));
            out.extra
                .insert("paxos.msgs_per_commit", msgs as f64 / commits as f64);
        }
        // Let followers apply the tail of the decided log, then every
        // replica's namespace must equal the model.
        s.c.sim.run_for(3_000);
        for nn in s.c.namenodes.clone() {
            let got = fqpaths(&mut s.c.sim, &nn);
            out.check(
                s.model
                    .check_paths(&got)
                    .map_err(|e| format!("replica {nn}: {e}")),
            );
        }
        out.passes.push(Pass {
            probe,
            totals,
            units,
        });
    }
    out
}
