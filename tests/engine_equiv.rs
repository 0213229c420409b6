//! Engine byte-identity across evaluation modes: with the `parallel`
//! feature on, every shipped scenario must produce exactly the state the
//! serial engine produces — same virtual schedule, same RNG stream, same
//! fault log, same client-visible outputs, and the same
//! `overlog_state_fingerprint` byte for byte — under the parallel
//! simulator engine ([`Sim::set_parallel`]) AND under intra-node sharded
//! rule evaluation (`PlanOptions::shards > 1`).
//!
//! Each scenario runs four times — serial, serial again (guards against
//! pre-existing nondeterminism), parallel, and sharded — and the full
//! observable state is compared as strings. Property tests then sweep
//! randomized latency/drop/duplicate configs and chaos schedules through
//! a chatty cluster under both simulator engines, and randomized batched
//! workloads through a sharded runtime at random shard counts.
#![cfg(feature = "parallel")]

use boom::core::FullStackBuilder;
use boom::fs::{ControlPlane, FsClusterBuilder};
use boom::mr::workload::synth_text;
use boom::mr::{MrClusterBuilder, MrDriver, MrJob, SpecPolicy};
use boom::overlog::PlanOptions;
use boom::simnet::{
    overlog_state_fingerprint, set_plan_options_all, ChaosSchedule, Sim, SimConfig,
};

#[derive(Clone, Copy)]
enum Mode {
    Serial,
    /// Parallel same-instant node evaluation in the simulator.
    Parallel,
    /// Serial simulator, but every Overlog runtime evaluates shard-safe
    /// rule variants over N hash partitions on worker threads.
    Sharded(usize),
}

fn enable(sim: &mut Sim, mode: Mode) {
    match mode {
        Mode::Serial => {}
        Mode::Parallel => {
            assert!(
                sim.set_parallel(true),
                "the `parallel` feature must be compiled in for this suite"
            );
        }
        Mode::Sharded(n) => set_plan_options_all(
            sim,
            PlanOptions {
                shards: n,
                ..Default::default()
            },
        ),
    }
}

fn assert_engine_identical(name: &str, run: impl Fn(Mode) -> String) {
    let s1 = run(Mode::Serial);
    let s2 = run(Mode::Serial);
    assert_eq!(s1, s2, "{name}: serial engine is not even self-stable");
    let p = run(Mode::Parallel);
    assert_eq!(s1, p, "{name}: parallel engine diverged from serial");
    let sh = run(Mode::Sharded(4));
    assert_eq!(s1, sh, "{name}: sharded evaluation diverged from serial");
}

/// BOOM-FS metadata workload: directories, files, a real chunk write,
/// renames and deletions, fingerprinting every Overlog node at the end.
#[test]
fn fs_scenario_is_engine_independent() {
    assert_engine_identical("fs", |mode| {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 3,
            replication: 2,
            ..Default::default()
        }
        .build();
        enable(&mut c.sim, mode);
        let cl = c.client.clone();
        cl.mkdir(&mut c.sim, "/a").unwrap();
        cl.mkdir(&mut c.sim, "/a/b").unwrap();
        for i in 0..4 {
            cl.create(&mut c.sim, &format!("/a/b/f{i}")).unwrap();
        }
        cl.write_file(&mut c.sim, "/a/data", &synth_text(7, 400))
            .unwrap();
        cl.rename(&mut c.sim, "/a/b/f0", "/a/b/g0").unwrap();
        cl.rm(&mut c.sim, "/a/b/f1").unwrap();
        let mut listing = cl.ls(&mut c.sim, "/a/b").unwrap();
        listing.sort();
        let content = cl.read_file(&mut c.sim, "/a/data").unwrap();
        c.sim.run_for(3_000);
        format!(
            "ls={listing:?}\ncontent_len={}\n{}",
            content.len(),
            overlog_state_fingerprint(&mut c.sim)
        )
    });
}

/// FS delete storm: build a directory tree, retract most of it (files
/// first, then the emptied directories), and rebuild part of it — the
/// heaviest retraction-propagation workload the NameNode program has.
/// Every derived view (fqpath, child, ls_dir, chunk placement) must land
/// on the same bytes whether views are maintained incrementally or the
/// tick path runs parallel/sharded.
#[test]
fn fs_delete_storm_is_engine_independent() {
    assert_engine_identical("fs-delete-storm", |mode| {
        let mut c = FsClusterBuilder {
            control: ControlPlane::Declarative,
            datanodes: 3,
            replication: 2,
            ..Default::default()
        }
        .build();
        enable(&mut c.sim, mode);
        let cl = c.client.clone();
        for d in ["/a", "/a/b", "/a/c", "/tmp"] {
            cl.mkdir(&mut c.sim, d).unwrap();
        }
        for dir in ["/a/b", "/a/c", "/tmp"] {
            for i in 0..5 {
                cl.create(&mut c.sim, &format!("{dir}/f{i}")).unwrap();
            }
        }
        cl.write_file(&mut c.sim, "/a/data", &synth_text(3, 600))
            .unwrap();
        // The storm: every file in /tmp and /a/c, then the dirs.
        for i in 0..5 {
            cl.rm(&mut c.sim, &format!("/tmp/f{i}")).unwrap();
            cl.rm(&mut c.sim, &format!("/a/c/f{i}")).unwrap();
        }
        cl.rm(&mut c.sim, "/tmp").unwrap();
        cl.rm(&mut c.sim, "/a/c").unwrap();
        // Overwrite-heavy coda: rename survivors onto fresh names and
        // rebuild a deleted subtree.
        cl.rename(&mut c.sim, "/a/b/f0", "/a/b/z0").unwrap();
        cl.mkdir(&mut c.sim, "/a/c").unwrap();
        cl.create(&mut c.sim, "/a/c/again").unwrap();
        cl.rm(&mut c.sim, "/a/data").unwrap();
        let mut listing = cl.ls(&mut c.sim, "/a/b").unwrap();
        listing.sort();
        c.sim.run_for(3_000);
        format!("ls={listing:?}\n{}", overlog_state_fingerprint(&mut c.sim))
    });
}

/// Multi-decree Paxos churn: every decided slot retracts its own
/// bookkeeping (`vote`, `prop_queue`, `pending_prep`, `inflight` all have
/// delete rules), so a burst of decrees is a retraction storm over the
/// acceptor state the decided log is derived from.
#[test]
fn paxos_decide_churn_is_engine_independent() {
    use boom::paxos::{decided_log, paxos_runtime, propose_row, PaxosGroup};
    use boom::simnet::OverlogActor;
    assert_engine_identical("paxos-churn", |mode| {
        let members = ["px0", "px1", "px2"];
        let group = PaxosGroup::new(&members, 4_000);
        let mut sim = Sim::new(SimConfig::default());
        for name in &group.members {
            let g = group.clone();
            sim.add_node(
                name,
                Box::new(OverlogActor::with_factory(
                    Box::new(move |n| paxos_runtime(n, &g)),
                    20,
                    name,
                )),
            );
        }
        enable(&mut sim, mode);
        for i in 0..12 {
            sim.inject(
                "px0",
                "propose",
                propose_row("client", i, &format!("cmd{i}"), vec![]),
            );
            sim.run_for(150);
        }
        sim.run_for(20_000);
        let log = sim.with_actor::<OverlogActor, _>("px0", |a| decided_log(a.runtime_ref()));
        format!("log={log:?}\n{}", overlog_state_fingerprint(&mut sim))
    });
}

/// BOOM-MR wordcount under every shipped (assignment × speculation)
/// policy combination.
#[test]
fn mr_scenarios_are_engine_independent() {
    for (locality, lname) in [(false, "fifo"), (true, "locality")] {
        for (policy, sname) in [
            (SpecPolicy::None, "none"),
            (SpecPolicy::Naive, "naive"),
            (SpecPolicy::Late, "late"),
        ] {
            assert_engine_identical(&format!("mr-{lname}-{sname}"), move |mode| {
                let mut c = MrClusterBuilder {
                    policy,
                    locality,
                    workers: 3,
                    ..Default::default()
                }
                .build();
                enable(&mut c.sim, mode);
                let inputs = c.load_corpus(11, 2, 800).expect("corpus loads");
                let fs = c.fs.clone();
                let mut driver = c.driver.clone();
                let job = MrJob {
                    job_type: "wordcount".into(),
                    inputs,
                    nreduces: 2,
                    outdir: "/out".into(),
                };
                let deadline = c.sim.now() + 50_000_000;
                let (job_id, job_ms) = driver
                    .run(&mut c.sim, &fs, &job, deadline)
                    .expect("job completes");
                let out = MrDriver::collect_output(&mut c.sim, &c.trackers.clone(), job_id);
                format!(
                    "job_ms={job_ms} out={out:?}\n{}",
                    overlog_state_fingerprint(&mut c.sim)
                )
            });
        }
    }
}

/// The full replicated stack — MapReduce over the Paxos-replicated
/// NameNode — under a chaos schedule (DataNode flap mid-write plus a
/// NameNode replica partition), across three seeds. Fault logs, job
/// output, and every node's fingerprint must match byte for byte.
#[test]
fn chaotic_full_stack_is_engine_independent() {
    for seed in [1u64, 7, 23] {
        assert_engine_identical(&format!("full-stack-chaos-seed{seed}"), move |mode| {
            let mut s = FullStackBuilder {
                sim: SimConfig {
                    seed,
                    ..Default::default()
                },
                workers: 3,
                ..Default::default()
            }
            .build();
            enable(&mut s.sim, mode);
            s.fs.mkdir(&mut s.sim, "/input").unwrap();
            let schedule = ChaosSchedule::new("equiv")
                .flap("dn1", 200, 40_000)
                .partition(
                    &["nn2"],
                    &["nn0", "nn1", "dn0", "dn1", "dn2", "client0"],
                    300,
                    12_000,
                );
            s.sim.install_chaos(&schedule);
            for i in 0..2u64 {
                let text = synth_text(50 + i, 800);
                s.fs.write_file(&mut s.sim, &format!("/input/part{i}"), &text)
                    .unwrap();
            }
            let job = MrJob {
                job_type: "wordcount".to_string(),
                inputs: vec!["/input/part0".into(), "/input/part1".into()],
                nreduces: 2,
                outdir: "/out".to_string(),
            };
            let fs = s.fs.clone();
            let deadline = s.sim.now() + 3_600_000;
            let (job_id, job_ms) = s
                .driver
                .run_robust(&mut s.sim, &fs, &job, deadline)
                .expect("job completes under chaos");
            let out = MrDriver::collect_output(&mut s.sim, &s.trackers.clone(), job_id);
            s.sim.run_for(60_000);
            let faults: Vec<String> = s
                .sim
                .fault_log()
                .iter()
                .map(|f| format!("{}:{}", f.at, f.action))
                .collect();
            format!(
                "job_ms={job_ms} out={out:?}\nfaults={faults:?}\n{}",
                overlog_state_fingerprint(&mut s.sim)
            )
        });
    }
}

/// Randomized schedules: chatty imperative actors under random latency
/// spreads, loss/duplication probabilities, and crash/partition/dup-burst
/// chaos. The two engines must agree on the complete delivery record.
mod random_schedules {
    use super::{enable, Mode};
    use boom::overlog::value::row;
    use boom::overlog::{NetTuple, Value};
    use boom::simnet::{Actor, ChaosSchedule, Ctx, Sim, SimConfig};
    use proptest::prelude::*;
    use std::any::Any;

    struct Counter {
        got: Vec<(u64, String)>,
    }
    impl Actor for Counter {
        fn on_tuple(&mut self, ctx: &mut Ctx<'_>, tuple: NetTuple) {
            self.got.push((ctx.now(), format!("{:?}", tuple.row)));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Pinger {
        target: String,
        period: u64,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_tuple(&mut self, _ctx: &mut Ctx<'_>, _tuple: NetTuple) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let target = self.target.clone();
            let t = ctx.now() as i64;
            ctx.send(&target, "ping", row(vec![Value::Int(t)]));
            ctx.set_timer(self.period, 0);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One random scenario, run under the requested engine. Returns every
    /// observable: counters, per-sink delivery records, and fault log.
    fn run(
        parallel: bool,
        seed: u64,
        max_latency: u64,
        drop_pct: u64,
        dup_pct: u64,
        pingers: usize,
        chaos: &[(u64, u64, u64)],
    ) -> String {
        let mut sim = Sim::new(SimConfig {
            seed,
            min_latency: 1,
            max_latency: max_latency.max(1),
            drop_prob: drop_pct as f64 / 100.0,
            duplicate_prob: dup_pct as f64 / 100.0,
        });
        enable(
            &mut sim,
            if parallel {
                Mode::Parallel
            } else {
                Mode::Serial
            },
        );
        for i in 0..pingers {
            let name = format!("p{i}");
            sim.add_node(
                &name,
                Box::new(Pinger {
                    target: format!("c{}", i % 2),
                    period: 10 + (i as u64 % 3),
                }),
            );
        }
        sim.add_node("c0", Box::new(Counter { got: Vec::new() }));
        sim.add_node("c1", Box::new(Counter { got: Vec::new() }));
        let mut schedule = ChaosSchedule::new("random");
        for &(kind, at, dur) in chaos {
            let at = at % 2_000;
            let dur = 1 + dur % 1_500;
            schedule = match kind % 3 {
                0 => schedule.flap("c0", at, at + dur),
                1 => schedule.partition(&["p0"], &["c0", "c1"], at, at + dur),
                _ => schedule.dup_burst(at, dur, 0.5),
            };
        }
        sim.install_chaos(&schedule);
        sim.run_until(3_000);
        let mut sinks = String::new();
        for c in ["c0", "c1"] {
            let got = sim.with_actor::<Counter, _>(c, |a| a.got.clone());
            sinks.push_str(&format!("{c}: {got:?}\n"));
        }
        let faults: Vec<String> = sim
            .fault_log()
            .iter()
            .map(|f| format!("{}:{}", f.at, f.action))
            .collect();
        format!(
            "delivered={} dropped={} now={}\nfaults={faults:?}\n{sinks}",
            sim.delivered_count(),
            sim.dropped_count(),
            sim.now()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_schedules_are_engine_independent(
            seed in 0u64..10_000,
            max_latency in 1u64..60,
            drop_pct in 0u64..30,
            dup_pct in 0u64..20,
            pingers in 1usize..6,
            chaos in prop::collection::vec((0u64..3, 0u64..2_000, 0u64..1_500), 0..4),
        ) {
            let serial = run(false, seed, max_latency, drop_pct, dup_pct, pingers, &chaos);
            let parallel = run(true, seed, max_latency, drop_pct, dup_pct, pingers, &chaos);
            prop_assert_eq!(serial, parallel);
        }
    }
}

/// Shard-count invariance: a single Overlog runtime fed randomized
/// same-instant batches (coalescing into one big delta per tick) must
/// produce a byte-identical state fingerprint at 1 shard and at any
/// shard count, across programs exercising every verdict class —
/// co-partitioned joins (sharded), event projections (sharded),
/// aggregates and recursion (serial fallbacks).
mod shard_invariance {
    use boom::overlog::value::row;
    use boom::overlog::{OverlogRuntime, PlanOptions, Value};
    use boom::simnet::{
        overlog_state_fingerprint, set_plan_options_all, OverlogActor, Sim, SimConfig,
    };
    use proptest::prelude::*;

    fn runtime(name: &str) -> OverlogRuntime {
        let mut rt = OverlogRuntime::new(name);
        rt.load(
            "event e, {Int, Int};
             define(idx, keys(0), {Int, Int});
             define(out, keys(0), {Int, Int});
             define(total, keys(), {Int});
             define(link, keys(0,1), {Int, Int});
             define(path, keys(0,1), {Int, Int});
             idx(X, Y) :- e(X, Y);
             out(X, Y + Z) :- e(X, Y), idx(X, Z);
             total(count<X>) :- out(X, _);
             link(X, Y) :- e(X, Y), X != Y;
             path(X, Y) :- link(X, Y);
             path(X, Z) :- link(X, Y), path(Y, Z);",
        )
        .expect("program loads");
        rt
    }

    /// Inject `vals` as one same-instant batch per tranche of 32 (fixed
    /// unit latency makes them coalesce into a single `on_tuples` call,
    /// i.e. one delta), run to quiescence, fingerprint.
    fn run(shards: usize, keyspace: i64, vals: &[i64]) -> String {
        let mut sim = Sim::new(SimConfig {
            seed: 5,
            min_latency: 1,
            max_latency: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        });
        sim.add_node("n0", Box::new(OverlogActor::new(runtime("n0"), 50)));
        set_plan_options_all(
            &mut sim,
            PlanOptions {
                shards,
                ..Default::default()
            },
        );
        for (i, &v) in vals.iter().enumerate() {
            sim.inject(
                "n0",
                "e",
                row(vec![Value::Int(v % keyspace.max(1)), Value::Int(i as i64)]),
            );
        }
        sim.run_until(3_000);
        overlog_state_fingerprint(&mut sim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn fingerprints_are_shard_count_invariant(
            shards in 2usize..=8,
            keyspace in 1i64..12,
            vals in prop::collection::vec(0i64..1_000, 16..64),
        ) {
            let serial = run(1, keyspace, &vals);
            let sharded = run(shards, keyspace, &vals);
            prop_assert_eq!(serial, sharded);
        }
    }
}

/// Maintenance invariance: a runtime whose views span every certified
/// maintenance strategy — Counting (filtered projection with a computed
/// head), GroupRecompute (keyed and global aggregates, including one over
/// a maintained view), KeyRederive (a join keyed entirely off one side,
/// one whose other side names its keys only through the join, and one
/// with several derivations per key feeding a Counting view), and a
/// recursive view maintained by delete-and-rederive — must produce a
/// byte-identical state fingerprint with incremental maintenance on and
/// off, over arbitrary interleavings of batched inserts, key overwrites,
/// and delete storms. The real NameNode program gets the same treatment
/// under random namespace churn.
mod maint_invariance {
    use boom::overlog::value::row;
    use boom::overlog::{OverlogRuntime, PlanOptions, Value};
    use boom::simnet::{
        overlog_state_fingerprint, set_plan_options_all, OverlogActor, Sim, SimConfig,
    };
    use proptest::prelude::*;

    fn runtime(name: &str) -> OverlogRuntime {
        let mut rt = OverlogRuntime::new(name);
        rt.load(
            "event e, {Int, Int};
             event d, {Int};
             define(base, keys(0,1), {Int, Int});
             define(slot, keys(0), {Int, Int});
             define(small, keys(0), {Int, Int});
             define(doubled, keys(0,1), {Int, Int});
             define(bysum, keys(0), {Int, Int});
             define(joined, keys(0,1), {Int, Int, Int});
             define(dtotal, keys(), {Int});
             define(reach, keys(0,1), {Int, Int});
             define(paired, keys(0,1), {Int, Int, Int});
             define(pick, keys(0), {Int, Int});
             define(picked, keys(0), {Int});
             small(0, 10); small(1, 11); small(2, 12); small(3, 13);
             base(X, Y) :- e(X, Y);
             slot(X, Y) :- e(X, Y);
             delete base(X, Y) :- d(X), base(X, Y);
             delete slot(X, Y) :- d(X), slot(X, Y);
             doubled(X, Y * 2) :- base(X, Y), W := Y % 3, W != 0;
             bysum(X, sum<Y>) :- base(X, Y);
             joined(X, Y, Z) :- base(X, Y), M := X % 4, small(M, Z);
             dtotal(sum<Y>) :- doubled(_, Y);
             reach(X, Y) :- base(X, Y), X != Y;
             reach(X, Z) :- base(X, Y), X != Y, reach(Y, Z);
             paired(X, Y, Z) :- base(X, Y), W := Y % 7, slot(W, Z);
             pick(X, 1) :- base(X, _);
             pick(X, 2) :- slot(X, _);
             picked(X) :- pick(X, _);",
        )
        .expect("program loads");
        rt
    }

    /// Replay `ops` against one node: positive values insert `e(k, v)`
    /// (`slot` makes low keys overwrite), negatives fire the delete rule
    /// for key `k`. Unit latency coalesces each tranche into one tick.
    fn run(maintenance: bool, keyspace: i64, ops: &[(bool, i64, i64)]) -> String {
        let mut sim = Sim::new(SimConfig {
            seed: 9,
            min_latency: 1,
            max_latency: 1,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
        });
        sim.add_node("n0", Box::new(OverlogActor::new(runtime("n0"), 50)));
        set_plan_options_all(
            &mut sim,
            PlanOptions {
                maintenance,
                ..Default::default()
            },
        );
        let k = keyspace.max(1);
        // Tranches of six ops, each settling before the next arrives, so
        // deletions find the rows earlier tranches inserted.
        for tranche in ops.chunks(6) {
            for &(insert, x, y) in tranche {
                if insert {
                    sim.inject("n0", "e", row(vec![Value::Int(x % k), Value::Int(y)]));
                } else {
                    sim.inject("n0", "d", row(vec![Value::Int(x % k)]));
                }
            }
            sim.run_for(10);
        }
        sim.run_until(3_000);
        overlog_state_fingerprint(&mut sim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn fingerprints_match_maintained_vs_recomputed(
            keyspace in 1i64..10,
            raw in prop::collection::vec((0u8..10, 0i64..1_000, 0i64..1_000), 8..96),
        ) {
            // ~70% inserts, ~30% delete storms.
            let ops: Vec<(bool, i64, i64)> =
                raw.iter().map(|&(w, x, y)| (w < 7, x, y)).collect();
            let maintained = run(true, keyspace, &ops);
            let recomputed = run(false, keyspace, &ops);
            prop_assert_eq!(maintained, recomputed);
        }
    }

    /// A namespace operation for the real NameNode program.
    #[derive(Debug, Clone)]
    enum NsOp {
        Mkdir(String),
        Create(String),
        Rm(String),
        Rename(String, String),
    }

    /// Path `n` over the alphabet {a, b}, one to `depth` components deep:
    /// 30 distinct paths at depth 4, so random ops collide often enough to
    /// build, move and tear down real subtrees.
    fn ns_path(n: u16, depth: u16) -> String {
        let len = 1 + n % depth;
        let mut bits = n / depth;
        let mut p = String::new();
        for _ in 0..len {
            p.push('/');
            p.push(if bits.is_multiple_of(2) { 'a' } else { 'b' });
            bits /= 2;
        }
        p
    }

    fn ns_op(kind: u8, a: u16, b: u16) -> NsOp {
        match kind {
            0..=2 => NsOp::Mkdir(ns_path(a, 3)),
            3..=4 => NsOp::Create(ns_path(a, 4)),
            5..=6 => NsOp::Rm(ns_path(a, 4)),
            _ => NsOp::Rename(ns_path(a, 4), ns_path(b, 4)),
        }
    }

    /// Split `ops` into ticks at the `split == 0` marks. Each tick's
    /// inductive `file` updates land in the *next* tick, where requests
    /// still see the old paths: a rename followed by an rm of the old path
    /// changes one file row twice in a tick. Two shapes a closed-loop
    /// client never sends are kept out, each pinned by its own test
    /// instead: two creations of one path in a tick make twin entries,
    /// under which the engines allocate ids in different orders
    /// ([`namenode_twin_entries_match`], ignored: a known divergence);
    /// and a rename or creation against the stale paths right after a
    /// rename can alias a name or close a `file` cycle whose path fixpoint
    /// never ends under either engine
    /// ([`namenode_stale_rename_cycle_fails_alike`]). Such an op waits for
    /// the namespace to settle (`true` = settle before the tick).
    fn ns_batches(raw: &[(u8, u16, u16, u8)]) -> Vec<(bool, Vec<NsOp>)> {
        let renames = |ops: &[NsOp]| ops.iter().any(|o| matches!(o, NsOp::Rename(..)));
        let mut batches: Vec<(bool, Vec<NsOp>)> = Vec::new();
        let mut targets: Vec<String> = Vec::new();
        // The current tick follows a rename's tick without a settle.
        let mut stale = false;
        for &(kind, a, b, split) in raw {
            let op = ns_op(kind, a, b);
            let target = match &op {
                NsOp::Mkdir(p) | NsOp::Create(p) | NsOp::Rename(_, p) => Some(p.clone()),
                NsOp::Rm(_) => None,
            };
            let cur_renames = batches.last().is_some_and(|(_, ops)| renames(ops));
            let clash = target.as_ref().is_some_and(|t| targets.contains(t))
                || (matches!(op, NsOp::Rename(..)) && cur_renames);
            if batches.is_empty() || split == 0 || clash {
                batches.push((false, Vec::new()));
                stale = cur_renames;
                targets.clear();
            }
            if stale && target.is_some() {
                let last = batches.last_mut().expect("pushed");
                if last.1.is_empty() {
                    last.0 = true;
                } else {
                    batches.push((true, Vec::new()));
                    targets.clear();
                }
                stale = false;
            }
            targets.extend(target);
            batches.last_mut().expect("pushed").1.push(op);
        }
        batches
    }

    /// Drive the shipped NameNode program directly, one tick per batch
    /// (see [`ns_batches`]). Returns every response plus the state
    /// fingerprint, and the number of view recomputations.
    fn nn_run(maintenance: bool, batches: &[(bool, Vec<NsOp>)]) -> (String, u64) {
        nn_try(maintenance, batches, 200_000).expect("every tick completes")
    }

    /// [`nn_run`] with a per-tick derivation budget (a runaway fixpoint
    /// fails the tick instead of exhausting memory); the first tick that
    /// fails ends the run with its error.
    fn nn_try(
        maintenance: bool,
        batches: &[(bool, Vec<NsOp>)],
        budget: u64,
    ) -> Result<(String, u64), String> {
        use boom::fs::namenode::{namenode_runtime, NameNodeConfig};
        use boom::fs::proto::request_row;
        let mut rt = namenode_runtime("nn", &NameNodeConfig::default());
        rt.set_plan_options(PlanOptions {
            maintenance,
            ..Default::default()
        });
        rt.set_budget(budget);
        let mut out = String::new();
        let mut now = 0u64;
        let mut id = 0i64;
        let record = |sends: Vec<boom::overlog::NetTuple>, out: &mut String| {
            for s in sends {
                out.push_str(&format!("{}{:?}\n", s.table, s.row));
            }
        };
        for (settle, batch) in batches {
            if *settle {
                now += 1;
                record(rt.settle(now).map_err(|e| e.to_string())?, &mut out);
            }
            for op in batch {
                id += 1;
                let (cmd, args) = match op {
                    NsOp::Mkdir(p) => ("mkdir", vec![Value::str(p)]),
                    NsOp::Create(p) => ("create", vec![Value::str(p)]),
                    NsOp::Rm(p) => ("rm", vec![Value::str(p)]),
                    NsOp::Rename(a, b) => ("rename", vec![Value::str(a), Value::str(b)]),
                };
                rt.insert("request", request_row("client", id, cmd, args))
                    .expect("request is well-typed");
            }
            now += 1;
            let res = rt.tick(now).map_err(|e| e.to_string())?;
            record(res.sends, &mut out);
        }
        now += 1;
        record(rt.settle(now).map_err(|e| e.to_string())?, &mut out);
        let mut names: Vec<String> = rt.table_decls().map(|d| d.name.clone()).collect();
        names.sort();
        for name in names {
            let t = rt.table(&name).expect("declared");
            if !t.is_event() {
                for row in t.sorted_rows() {
                    out.push_str(&format!("{name}{row:?}\n"));
                }
            }
        }
        Ok((out, rt.eval_stats().view_recomputes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random mkdir/create/rm/rename churn on the real NameNode —
        /// directory moves up to depth 4, several ops per tick — lands on
        /// byte-identical responses and state whether the recursive
        /// `fqpath`, the join-keyed `child` and `ls_dir` are maintained
        /// (delete-and-rederive) or recomputed.
        #[test]
        fn namenode_fingerprints_match_maintained_vs_recomputed(
            raw in prop::collection::vec((0u8..10, 0u16..1_000, 0u16..1_000, 0u8..3), 16..96),
        ) {
            let batches = ns_batches(&raw);
            let (maintained, _) = nn_run(true, &batches);
            let (recomputed, _) = nn_run(false, &batches);
            prop_assert_eq!(maintained, recomputed);
        }
    }

    /// The hand-picked hard cases: a subtree moved twice, a rename and an
    /// rm of the old path whose two `file` updates land in one tick, and a
    /// directory emptied and removed — maintained without one view
    /// recomputation, and byte-identical to the recomputing engine.
    #[test]
    fn namenode_subtree_moves_match_without_recompute() {
        let s = |p: &str| p.to_string();
        let mut batches: Vec<(bool, Vec<NsOp>)> = Vec::new();
        for d in ["/a", "/a/b", "/a/b/c", "/a/b/c/d", "/z"] {
            batches.push((true, vec![NsOp::Mkdir(s(d))]));
        }
        let files = ["/a/f", "/a/b/f", "/a/b/c/f", "/a/b/c/d/f", "/a/b/c/d/g"];
        batches.push((true, files.iter().map(|p| NsOp::Create(s(p))).collect()));
        batches.push((true, vec![NsOp::Rename(s("/a/b"), s("/z/b"))]));
        batches.push((true, vec![NsOp::Rename(s("/z/b/c"), s("/a/c2"))]));
        // Rename, then rm the old path before the rename's update lands.
        batches.push((true, vec![NsOp::Rename(s("/a/f"), s("/z/f"))]));
        batches.push((false, vec![NsOp::Rm(s("/a/f"))]));
        batches.push((
            true,
            vec![
                NsOp::Rm(s("/a/c2/d/f")),
                NsOp::Rm(s("/a/c2/d/g")),
                NsOp::Rename(s("/z/b"), s("/a/c2/d/b")),
            ],
        ));
        batches.push((true, vec![NsOp::Rm(s("/a/c2/d/b/f"))]));
        batches.push((true, vec![NsOp::Rm(s("/a/c2/d/b"))]));
        let (maintained, recomputes) = nn_run(true, &batches);
        let (recomputed, baseline) = nn_run(false, &batches);
        assert_eq!(maintained, recomputed);
        assert!(baseline > 0, "the recomputing twin takes the slow path");
        assert_eq!(recomputes, 0, "maintenance fell back to recomputation");
        assert!(maintained.contains("fqpath[Str(\"/a/c2/d\"), "));
        assert!(!maintained.contains("fqpath[Str(\"/a/c2/d/b\"), "));
        assert!(!maintained.contains("fqpath[Str(\"/z/f\"), "));
    }

    /// A key re-derived from two rules passes through an intermediate
    /// winner that the later rule overwrites within the same maintenance
    /// call: `slot`'s overwrite of key 1 re-derives `pick(1, 1)` and then
    /// `pick(1, 2)` over it. `pick(1, 1)` never was in the view, so no
    /// retraction of it may reach `picked`, whose support for key 1 would
    /// drain to zero while `pick` still holds a row for it.
    #[test]
    fn overwritten_rederivations_are_not_retracted() {
        let mut ops: Vec<(bool, i64, i64)> = (1..=6).map(|x| (true, x, x)).collect();
        ops.push((true, 1, 100));
        ops.push((false, 2, 0));
        let maintained = run(true, 100, &ops);
        assert_eq!(maintained, run(false, 100, &ops));
        assert!(maintained.contains("pick[Int(1), Int(2)]"));
        assert!(maintained.contains("picked[Int(1)]"));
        assert!(!maintained.contains("picked[Int(2)]"));
    }

    /// Two creations of `/a` in one tick (a rename onto it and a mkdir)
    /// leave twin `/a` entries, which the program's per-request
    /// `notin fqpath` checks cannot prevent. A creation under `/a` then
    /// allocates one id per twin in the order `fqpath("/a", _)` yields
    /// them, and that order follows the view's index history: the
    /// recomputing engine rebuilt `fqpath` after the rename, the
    /// maintaining one re-inserted the moved subtree after the mkdir's
    /// row, so the two children swap ids. Ignored until id allocation or
    /// the program stops depending on view index order.
    #[test]
    #[ignore = "known divergence: twin entries make newid() order follow view index history"]
    fn namenode_twin_entries_match() {
        let s = |p: &str| p.to_string();
        let batches = vec![
            (true, vec![NsOp::Mkdir(s("/b"))]),
            (true, vec![NsOp::Mkdir(s("/b/a"))]),
            (
                true,
                vec![NsOp::Rename(s("/b"), s("/a")), NsOp::Mkdir(s("/a"))],
            ),
            (true, vec![NsOp::Create(s("/a/b"))]),
        ];
        let (maintained, _) = nn_run(true, &batches);
        let (recomputed, _) = nn_run(false, &batches);
        assert_eq!(maintained, recomputed);
    }

    /// A rename against a stale path: `/a` moves under `/b`, and in the
    /// very next tick — before the move reaches `fqpath` — `/b` moves
    /// under the old `/a`. The two `file` rows now parent each other and
    /// `fqpath` derives ever longer paths around the cycle. This is a
    /// fault of the program, not of an engine: both exhaust the
    /// derivation budget in the same tick.
    #[test]
    fn namenode_stale_rename_cycle_fails_alike() {
        let s = |p: &str| p.to_string();
        let batches = vec![
            (true, vec![NsOp::Mkdir(s("/a"))]),
            (true, vec![NsOp::Mkdir(s("/b"))]),
            (true, vec![NsOp::Rename(s("/a"), s("/b/a"))]),
            (false, vec![NsOp::Rename(s("/b"), s("/a/b"))]),
        ];
        let maintained = nn_try(true, &batches, 20_000).expect_err("the cycle never settles");
        let recomputed = nn_try(false, &batches, 20_000).expect_err("the cycle never settles");
        assert!(
            maintained.contains("derivation budget exceeded"),
            "{maintained}"
        );
        assert_eq!(maintained, recomputed);
    }

    /// The worst case for support counting and group re-folds: every
    /// insert is eventually retracted, across several waves.
    #[test]
    fn delete_everything_waves_match() {
        let mut ops = Vec::new();
        for wave in 0..4i64 {
            for i in 0..24i64 {
                ops.push((true, i, wave * 100 + i));
            }
            for i in 0..24i64 {
                ops.push((false, i, 0));
            }
        }
        assert_eq!(run(true, 6, &ops), run(false, 6, &ops));
    }
}
