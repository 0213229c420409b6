//! Serving-tier determinism: "observe, never perturb".
//!
//! The serving tier rides the simulator's observed channel, which draws
//! nothing from the simulation RNG — so a cluster carrying standing
//! subscriptions must take the *byte-identical* schedule of the same
//! cluster carrying none. The first test pins that: every client-visible
//! output and every Overlog node's state fingerprint must match with zero
//! subscriptions and with dozens.
//!
//! The second test is the chaos half of the contract: a restart storm over
//! both the server and its subscribers must end with every subscriber's
//! mirror exactly equal to the server-side query view — reconnection is
//! automatic (re-subscribe on restart, counted resyncs on the host) and no
//! acked delta is silently missing, because a mirror that lost one could
//! not equal the view.

use boom::fs::cluster::{nn_name, FsCluster, FsClusterBuilder};
use boom::overlog::{PlanOptions, Value};
use boom::serve::{fs_queries, ServeConfig, ServeHost, SubscriberActor, SubscriptionSpec};
use boom::simnet::{overlog_state_fingerprint, set_plan_options_all, ChaosSchedule, OverlogActor};

fn attach_host(cluster: &mut FsCluster) {
    let nn = nn_name(0);
    cluster.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        a.add_hook(Box::new(ServeHost::new(ServeConfig::default())));
    });
}

fn add_watcher(cluster: &mut FsCluster, name: &str, specs: Vec<(i64, SubscriptionSpec)>) {
    let nn = nn_name(0);
    cluster
        .sim
        .add_node(name, Box::new(SubscriberActor::new(&nn, specs, 200)));
}

fn mirror_of(cluster: &mut FsCluster, watcher: &str, tag: i64) -> Vec<Vec<Value>> {
    cluster.sim.with_actor::<SubscriberActor, _>(watcher, |w| {
        w.mirrors
            .get(&tag)
            .map(|m| m.iter().cloned().collect())
            .unwrap_or_default()
    })
}

fn server_rows(cluster: &mut FsCluster, table: &str) -> Vec<Vec<Value>> {
    let nn = nn_name(0);
    cluster.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        a.runtime_ref()
            .table(table)
            .map(|t| t.sorted_rows().into_iter().map(|r| r.to_vec()).collect())
            .unwrap_or_default()
    })
}

/// The shared FS metadata workload, returning every client-visible output
/// plus the full-cluster state fingerprint. `maintenance` toggles the
/// incremental view maintainer; the serving tier feeds its subscription
/// streams from the same tap records either way, so the fingerprint (and
/// every mirror) must not depend on it.
fn run_workload(watchers: usize, maintenance: bool) -> String {
    let mut c = FsClusterBuilder::default().build();
    set_plan_options_all(
        &mut c.sim,
        PlanOptions {
            maintenance,
            ..Default::default()
        },
    );
    if watchers > 0 {
        attach_host(&mut c);
        for i in 0..watchers {
            add_watcher(
                &mut c,
                &format!("watch{i}"),
                vec![
                    (1, fs_queries::file_status()),
                    (2, fs_queries::replication_health()),
                    (3, fs_queries::chunk_placement()),
                ],
            );
        }
    }
    let cl = c.client.clone();
    cl.mkdir(&mut c.sim, "/a").unwrap();
    cl.mkdir(&mut c.sim, "/a/b").unwrap();
    for i in 0..4 {
        cl.create(&mut c.sim, &format!("/a/b/f{i}")).unwrap();
    }
    cl.write_file(&mut c.sim, "/a/data", "deterministic payload")
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
}

/// Zero subscriptions vs. a cluster-wide fleet of them: byte-identical
/// client outputs and state fingerprints. This is the load-bearing
/// guarantee that lets E13 attach tens of thousands of subscriptions to a
/// production scenario without changing what it computes.
#[test]
fn subscriptions_never_perturb_the_simulation() {
    let bare = run_workload(0, true);
    let bare2 = run_workload(0, true);
    assert_eq!(bare, bare2, "baseline run is not even self-stable");
    assert_eq!(
        bare,
        run_workload(0, false),
        "incremental view maintenance changed the bare cluster's bytes"
    );
    for watchers in [1, 8] {
        let watched = run_workload(watchers, true);
        assert_eq!(
            bare, watched,
            "{watchers} watcher node(s) perturbed the simulation schedule"
        );
        assert_eq!(
            bare,
            run_workload(watchers, false),
            "{watchers} watcher node(s) + full recompute diverged"
        );
    }
}

/// Retractions cross the wire with the right sign: after an `rm`, the
/// watcher's mirror must drop exactly the removed file's row — with zero
/// resyncs, proving the row left through an incremental `Delete` record
/// on the subscription stream rather than a compensating snapshot.
#[test]
fn retractions_stream_to_mirrors_with_correct_signs() {
    let mut c = FsClusterBuilder::default().build();
    attach_host(&mut c);
    add_watcher(&mut c, "watch0", vec![(1, fs_queries::file_status())]);
    let cl = c.client.clone();
    cl.mkdir(&mut c.sim, "/d").unwrap();
    for i in 0..4 {
        cl.create(&mut c.sim, &format!("/d/f{i}")).unwrap();
    }
    c.sim.run_for(2_000);
    let before = mirror_of(&mut c, "watch0", 1);
    assert!(
        before.iter().any(|r| r[0] == Value::str("/d/f2")),
        "mirror carries the file before the retraction: {before:?}"
    );
    // The initial subscribe lands as one visible reset (the snapshot);
    // everything after it must flow as signed deltas.
    let resets_before = c
        .sim
        .with_actor::<SubscriberActor, _>("watch0", |s| s.resets);

    cl.rm(&mut c.sim, "/d/f2").unwrap();
    cl.rename(&mut c.sim, "/d/f3", "/d/g3").unwrap();
    c.sim.run_for(2_000);

    let mirror = mirror_of(&mut c, "watch0", 1);
    let server = server_rows(&mut c, "srv_q0");
    assert_eq!(mirror, server, "mirror tracks the server view");
    assert!(
        !mirror.iter().any(|r| r[0] == Value::str("/d/f2")),
        "retracted file still present in the mirror: {mirror:?}"
    );
    assert!(
        !mirror.iter().any(|r| r[0] == Value::str("/d/f3"))
            && mirror.iter().any(|r| r[0] == Value::str("/d/g3")),
        "rename must retract the old path and insert the new: {mirror:?}"
    );
    let resets = c
        .sim
        .with_actor::<SubscriberActor, _>("watch0", |s| s.resets);
    assert_eq!(
        resets, resets_before,
        "retraction must arrive as a signed delta, not a resync"
    );
}

/// Restart storm over server and subscribers: crash the watchers while the
/// namespace churns (their acks and deltas die with them), then crash the
/// serving NameNode itself. Everyone reconnects on restart; at quiescence
/// every mirror equals the server view row for row, with the resyncs
/// counted — never silent.
#[test]
fn subscribers_survive_a_restart_storm_and_miss_nothing() {
    let mut c = FsClusterBuilder::default().build();
    let nn = nn_name(0);
    // Aggressive timeouts so presumed-lost windows resolve within the test.
    c.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        a.add_hook(Box::new(ServeHost::new(ServeConfig {
            ack_timeout: 1_000,
            resync_backoff: 300,
            ..Default::default()
        })));
    });
    add_watcher(&mut c, "watch0", vec![(1, fs_queries::file_status())]);
    add_watcher(&mut c, "watch1", vec![(1, fs_queries::file_status())]);
    c.sim.run_for(1_000);
    let cl = c.client.clone();
    cl.mkdir(&mut c.sim, "/d").unwrap();
    for i in 0..5 {
        cl.create(&mut c.sim, &format!("/d/pre{i}")).unwrap();
    }
    c.sim.run_for(1_000);

    // Staggered storm (times relative to install): both watchers flap
    // with overlapping windows, then the server itself.
    let storm = ChaosSchedule::new("serve-storm")
        .flap("watch0", 200, 2_200)
        .flap("watch1", 900, 2_900)
        .flap(&nn, 4_000, 4_800);
    c.sim.install_chaos(&storm);

    // Churn while the watchers are down: these deltas die on the floor.
    c.sim.run_for(400);
    for i in 0..8 {
        cl.create(&mut c.sim, &format!("/d/mid{i}")).unwrap();
    }
    // Ride out the watcher flaps and the server flap. The NameNode is the
    // paper's volatile single-node variant (`with_factory`, no durable
    // disk): its restart wipes the namespace, which is itself a delta
    // storm — every fqpath row retracts and the root reappears.
    c.sim.run_for(6_000);
    // Post-storm churn against the reborn namespace: the healed streams
    // must carry it incrementally.
    cl.mkdir(&mut c.sim, "/p").unwrap();
    for i in 0..3 {
        cl.create(&mut c.sim, &format!("/p/post{i}")).unwrap();
    }
    c.sim.run_for(10_000);

    let server = server_rows(&mut c, "srv_q0");
    let base = server_rows(&mut c, "fqpath");
    assert!(
        server.iter().any(|r| r[0] == Value::str("/p/post2")),
        "server view carries post-storm state: {server:?}\nfqpath: {base:?}"
    );
    for w in ["watch0", "watch1"] {
        let mirror = mirror_of(&mut c, w, 1);
        assert_eq!(
            mirror, server,
            "{w}: mirror must equal the server view after the storm"
        );
        let resets = c.sim.with_actor::<SubscriberActor, _>(w, |s| s.resets);
        assert!(resets > 0, "{w}: reconnection goes through a visible reset");
    }
    let resyncs = c
        .sim
        .with_actor::<OverlogActor, _>(&nn, |a| a.hook_mut::<ServeHost>().unwrap().total_resyncs);
    assert!(resyncs > 0, "host counted the compensating resyncs");
}

/// Directory renames under standing subscriptions over the path views:
/// the recursive `fqpath` and the `ls_dir` listing aggregate both follow
/// a moved subtree through incremental maintenance, and every mirror
/// tracks its view exactly — through signed deltas, with no resync.
#[test]
fn directory_renames_stream_exact_path_and_listing_mirrors() {
    let mut c = FsClusterBuilder::default().build();
    attach_host(&mut c);
    let listing = SubscriptionSpec::new(
        "fs-listing",
        "0",
        "String, List",
        "Dir, Names",
        "ls_dir(Dir, Names)",
    );
    add_watcher(
        &mut c,
        "watch0",
        vec![(1, fs_queries::file_status()), (2, listing)],
    );
    let cl = c.client.clone();
    for d in ["/a", "/a/b", "/a/b/c", "/z"] {
        cl.mkdir(&mut c.sim, d).unwrap();
    }
    for f in ["/a/f", "/a/b/f", "/a/b/c/f", "/a/b/c/g"] {
        cl.create(&mut c.sim, f).unwrap();
    }
    c.sim.run_for(2_000);
    let resets_before = c
        .sim
        .with_actor::<SubscriberActor, _>("watch0", |s| s.resets);

    cl.rename(&mut c.sim, "/a/b", "/z/b").unwrap();
    cl.rename(&mut c.sim, "/z/b/c", "/c").unwrap();
    cl.rm(&mut c.sim, "/c/g").unwrap();
    cl.rename(&mut c.sim, "/c", "/a/b2").unwrap();
    c.sim.run_for(2_000);

    let paths = mirror_of(&mut c, "watch0", 1);
    assert_eq!(paths, server_rows(&mut c, "fqpath"), "fqpath mirror");
    assert!(paths.iter().any(|r| r[0] == Value::str("/a/b2/f")));
    assert!(!paths.iter().any(|r| r[0] == Value::str("/a/b/c/f")));
    assert_eq!(
        mirror_of(&mut c, "watch0", 2),
        server_rows(&mut c, "ls_dir"),
        "ls_dir mirror"
    );
    let resets = c
        .sim
        .with_actor::<SubscriberActor, _>("watch0", |s| s.resets);
    assert_eq!(resets, resets_before, "renames must stream as deltas");
}

/// Tap exactness: maintenance reports exactly what a rebuild reports.
/// The same directory moves and removals run against a maintained and a
/// recomputing NameNode with taps on its path views; per view, the tap
/// streams must match record for record (`ls_dir` as per-tick multisets,
/// since its stratum-entry refold visits groups in a different order).
/// A path row over-deleted and re-derived inside one maintenance call is
/// no change, so it never reaches a tap as a retract/insert pair.
#[test]
fn maintained_taps_equal_the_recompute_diff() {
    use boom::fs::namenode::{namenode_runtime, NameNodeConfig};
    use boom::fs::proto::request_row;
    use std::collections::BTreeMap;

    type Stream = Vec<(u64, bool, Vec<Value>)>;
    let run = |maintenance: bool| -> (BTreeMap<String, Stream>, u64) {
        let mut rt = namenode_runtime("nn", &NameNodeConfig::default());
        rt.set_plan_options(PlanOptions {
            maintenance,
            ..Default::default()
        });
        for t in ["fqpath", "child", "ls_dir"] {
            assert!(rt.add_tap(t));
        }
        let ops: &[(&str, &[&str])] = &[
            ("mkdir", &["/a"]),
            ("mkdir", &["/a/b"]),
            ("mkdir", &["/a/b/c"]),
            ("mkdir", &["/z"]),
            ("create", &["/a/b/f"]),
            ("create", &["/a/b/c/f"]),
            ("create", &["/a/b/c/g"]),
            ("rename", &["/a/b", "/z/b"]),
            ("rename", &["/z/b/c", "/a/c"]),
            ("rm", &["/a/c/g"]),
            ("rename", &["/a/c", "/z/b/c2"]),
            ("rm", &["/z/b/c2/f"]),
            ("rm", &["/z/b/c2"]),
        ];
        let mut streams: BTreeMap<String, Stream> = BTreeMap::new();
        for (i, (cmd, args)) in ops.iter().enumerate() {
            let args = args.iter().map(Value::str).collect();
            rt.insert("request", request_row("c", i as i64, cmd, args))
                .unwrap();
            rt.settle(i as u64 + 1).unwrap();
        }
        for rec in rt.take_tap_delta() {
            let insert = matches!(rec.op, boom::overlog::CommitOp::Insert);
            streams
                .entry(rec.table)
                .or_default()
                .push((rec.tick, insert, rec.row.to_vec()));
        }
        (streams, rt.eval_stats().view_recomputes)
    };
    let (maintained, recomputes) = run(true);
    let (recomputed, baseline) = run(false);
    assert_eq!(recomputes, 0, "every rename and rm was maintained");
    assert!(baseline > 0, "the twin rebuilds");
    for table in ["fqpath", "child"] {
        assert_eq!(maintained[table], recomputed[table], "`{table}` tap stream");
    }
    let sorted = |s: &Stream| {
        let mut s = s.clone();
        s.sort();
        s
    };
    assert_eq!(sorted(&maintained["ls_dir"]), sorted(&recomputed["ls_dir"]));
    // No path row both leaves and enters within one tick's maintenance.
    let fq = &maintained["fqpath"];
    for (tick, insert, row) in fq {
        let twin = fq
            .iter()
            .any(|(t, i, r)| t == tick && i != insert && r == row);
        assert!(!twin, "{row:?} retracted and re-inserted in tick {tick}");
    }
    assert!(
        fq.iter().any(|(_, insert, _)| !insert),
        "moves retract paths"
    );
}
