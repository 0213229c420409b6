//! Namespace mutations maintain the NameNode's path views in place.
//!
//! `rm` and `rename` retract `file` tuples, and every path view downstream
//! of `file` — the recursive `fqpath`, the join-keyed `child` and the
//! `ls_dir` aggregate — must follow without a from-scratch rebuild: the
//! recursive view by delete-and-rederive, `child` by keys discovered
//! through its `fqpath` join. Each operation below runs against a
//! namespace of several hundred files and checks the runtime's counters:
//! no view recomputation, and views maintained for every mutation. At the
//! end the three views must equal a twin cluster that recomputes.

use boom_fs::cluster::{nn_name, ControlPlane, FsCluster, FsClusterBuilder};
use boom_fs::FsError;
use boom_overlog::{EvalStats, PlanOptions, Value};
use boom_simnet::{set_plan_options_all, OverlogActor};

fn cluster(maintenance: bool) -> FsCluster {
    let mut c = FsClusterBuilder {
        control: ControlPlane::Declarative,
        datanodes: 2,
        ..Default::default()
    }
    .build();
    set_plan_options_all(
        &mut c.sim,
        PlanOptions {
            maintenance,
            ..Default::default()
        },
    );
    c
}

fn stats(c: &mut FsCluster) -> EvalStats {
    c.sim
        .with_actor::<OverlogActor, _>(&nn_name(0), |a| a.runtime_ref().eval_stats())
}

fn view(c: &mut FsCluster, table: &str) -> Vec<Vec<Value>> {
    c.sim.with_actor::<OverlogActor, _>(&nn_name(0), |a| {
        a.runtime_ref()
            .table(table)
            .expect("declared")
            .sorted_rows()
            .into_iter()
            .map(|r| r.to_vec())
            .collect()
    })
}

/// A three-level tree: 4 top directories × 4 middle × 2 leaves, with 16
/// files in every leaf — 52 directories and 512 files.
fn populate(c: &mut FsCluster) {
    let cl = c.client.clone();
    for t in 0..4 {
        cl.mkdir(&mut c.sim, &format!("/t{t}")).unwrap();
        for u in 0..4 {
            cl.mkdir(&mut c.sim, &format!("/t{t}/u{u}")).unwrap();
            for w in 0..2 {
                let leaf = format!("/t{t}/u{u}/w{w}");
                cl.mkdir(&mut c.sim, &leaf).unwrap();
                for f in 0..16 {
                    cl.create(&mut c.sim, &format!("{leaf}/f{f}")).unwrap();
                }
            }
        }
    }
}

/// One namespace operation and whether it must succeed.
enum Op {
    Rm(String),
    Rename(&'static str, &'static str),
    /// A rename that must fail with this error.
    Refused(&'static str, &'static str, &'static str),
}

fn ops() -> Vec<Op> {
    let mut ops = vec![Op::Rm("/t0/u0/w0/f0".into())];
    // Empty a leaf directory file by file, then remove it.
    ops.extend((0..16).map(|f| Op::Rm(format!("/t3/u3/w1/f{f}"))));
    ops.push(Op::Rm("/t3/u3/w1".into()));
    ops.push(Op::Rename("/t0/u1/w0/f1", "/t1/u0/w0/moved"));
    // A directory with two leaves and 32 files underneath, moved one
    // level up and renamed; then moved back under a different parent.
    ops.push(Op::Rename("/t0/u2", "/t1/u9"));
    ops.push(Op::Rename("/t1/u9", "/t2/u3/w0/deep"));
    ops.push(Op::Refused("/t1/u1", "/t1/u2", "exists"));
    ops.push(Op::Refused("/t1", "/t1/u0/inside", "intoself"));
    ops
}

fn apply(c: &mut FsCluster, op: &Op) {
    let cl = c.client.clone();
    match op {
        Op::Rm(p) => cl.rm(&mut c.sim, p).unwrap(),
        Op::Rename(a, b) => cl.rename(&mut c.sim, a, b).unwrap(),
        Op::Refused(a, b, why) => match cl.rename(&mut c.sim, a, b) {
            Err(FsError::Failed(m)) => assert_eq!(m, *why, "rename {a} -> {b}"),
            other => panic!("rename {a} -> {b} should fail with {why}: {other:?}"),
        },
    }
}

#[test]
fn rm_and_rename_maintain_path_views_without_recompute() {
    let mut c = cluster(true);
    populate(&mut c);
    assert!(
        view(&mut c, "fqpath").len() > 560,
        "52 dirs + 512 files + root"
    );
    for op in ops() {
        let before = stats(&mut c);
        apply(&mut c, &op);
        let after = stats(&mut c);
        assert_eq!(
            after.view_recomputes, before.view_recomputes,
            "a namespace op fell back to view recomputation"
        );
        if !matches!(op, Op::Refused(..)) {
            assert!(
                after.views_maintained > before.views_maintained,
                "a mutation maintained no view"
            );
        }
    }
    let cl = c.client.clone();
    assert!(cl.exists(&mut c.sim, "/t2/u3/w0/deep/w1/f15").unwrap());
    assert!(!cl.exists(&mut c.sim, "/t0/u2/w0/f0").unwrap());
    assert!(!cl.exists(&mut c.sim, "/t3/u3/w1").unwrap());
    assert_eq!(
        cl.ls(&mut c.sim, "/t2/u3/w0/deep").unwrap(),
        vec!["w0", "w1"]
    );

    // The same ops on a cluster that recomputes views from scratch.
    let mut twin = cluster(false);
    populate(&mut twin);
    for op in ops() {
        apply(&mut twin, &op);
    }
    assert!(
        stats(&mut twin).view_recomputes > 0,
        "the twin exercises the recompute path"
    );
    for table in ["fqpath", "child", "ls_dir"] {
        assert_eq!(
            view(&mut c, table),
            view(&mut twin, table),
            "maintained `{table}` diverged from the recomputed one"
        );
    }
}
