//! `nn-churn`: the chunk-churn recipe of E14 with the serving tier
//! attached. One NameNode is seeded with [`ROWS`] chunk reports, a fixed
//! set of [`SUBSCRIBERS`] `fs_queries::chunk_placement()` subscribers
//! mirror its `chunk_locs` view, and the measured section injects seeded
//! bursts of [`BURST`] reports. Each report adds a new holder to one
//! chunk, so every report is a keyed overwrite of a `chunk_locs` row (a
//! retraction plus an insertion) that incremental maintenance, the
//! view's indexes and the serve tap all carry. One op is one burst, from
//! injection until every mirror has applied it.

use super::{rng, Outcome, Pass, RunCfg};
use crate::probe::Probe;
use boom_fs::proto::HB_CHUNK_REPORT;
use boom_fs::{FsCluster, FsClusterBuilder};
use boom_overlog::{Row, Value};
use boom_serve::{fs_queries, ServeConfig, ServeHost, SubscriberActor};
use boom_simnet::{OverlogActor, SimConfig};
use rand::Rng;
use std::sync::Arc;

pub const ROWS: usize = 25_000;
/// Simulated DataNodes chunks are reported from.
pub const HOLDERS: usize = 16;
pub const SUBSCRIBERS: usize = 2;
pub const BURST: usize = 16;
/// Bursts per pass per requested second.
pub const BURSTS_PER_SECOND: u64 = 200;
/// Stride of the walk over the chunk space (prime, coprime to [`ROWS`]).
const STRIDE: usize = 7_919;

fn report(holder: usize, chunk: usize, time: i64) -> Row {
    Arc::new(vec![
        Value::addr(format!("sdn{holder}")),
        Value::Int(chunk as i64),
        Value::Int(1),
        Value::Int(time),
    ])
}

fn subscriber(k: usize) -> String {
    format!("sub{k}")
}

fn setup(seed: u64) -> FsCluster {
    let mut c = FsClusterBuilder {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        datanodes: 2,
        replication: 1,
        ..FsClusterBuilder::default()
    }
    .build();
    let nn = c.namenodes[0].clone();
    c.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        // The seeding storm is far larger than any real tick.
        a.runtime().set_budget(200_000_000);
        a.add_hook(Box::new(ServeHost::new(ServeConfig::default())));
    });
    // Park the staleness window out of reach: the seeded reports must
    // survive the whole run (the churn is the only change measured).
    c.sim
        .inject(&nn, "hb_timeout", Arc::new(vec![Value::Int(1 << 40)]));
    let now = c.sim.now() as i64;
    for chunk in 0..ROWS {
        c.sim
            .inject(&nn, HB_CHUNK_REPORT, report(chunk % HOLDERS, chunk, now));
    }
    c.sim.run_for(60);
    for k in 0..SUBSCRIBERS {
        let specs = vec![(0, fs_queries::chunk_placement())];
        c.sim.add_node(
            &subscriber(k),
            Box::new(SubscriberActor::new(&nn, specs, 500)),
        );
    }
    // Subscribe and take the opening snapshots.
    c.sim.run_for(2_000);
    c
}

/// Holders of `chunk` in a subscriber's mirror (0 if it has no row).
fn mirrored_holders(w: &SubscriberActor, chunk: usize) -> usize {
    let key = |c: usize| vec![Value::Int(c as i64)];
    w.mirrors
        .get(&0)
        .and_then(|m| m.range(key(chunk)..key(chunk + 1)).next())
        .and_then(|row| row.get(1).and_then(Value::as_list).map(<[Value]>::len))
        .unwrap_or(0)
}

fn mirror(c: &mut FsCluster, k: usize) -> Vec<Vec<Value>> {
    c.sim.with_actor::<SubscriberActor, _>(&subscriber(k), |w| {
        w.mirrors
            .get(&0)
            .map(|m| m.iter().cloned().collect())
            .unwrap_or_default()
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let bursts = cfg.seconds * BURSTS_PER_SECOND;
    out.notes.push(format!(
        "nn-churn: 1 NameNode, {ROWS} chunk reports from {HOLDERS} holders, \
         {SUBSCRIBERS} chunk_placement subscribers; {bursts} bursts of {BURST} reports per pass"
    ));
    for _ in 0..cfg.passes {
        let mut c = out.setup(|| setup(cfg.seed));
        let pass = churn(&mut out, &mut c, cfg, bursts);
        out.passes.push(pass);
    }
    out
}

/// One pass's measured churn, then its end-state checks.
fn churn(out: &mut Outcome, c: &mut FsCluster, cfg: &RunCfg, bursts: u64) -> Pass {
    let nn = c.namenodes[0].clone();
    let mut probe = Probe::new(&mut c.sim, cfg.traced).with_serve_host(&nn);
    let mut units = 0.0;
    // Walk the chunk space from a seeded offset; pass p over it adds
    // holder (chunk + p + 1) % HOLDERS, which no chunk holds yet.
    let offset = rng(cfg.seed, 5).gen_range(0..ROWS);
    let mut seq = 0usize;
    // Holders each chunk should have once the stream so far is applied.
    let mut holders = vec![1usize; ROWS];
    let mut burst = Vec::with_capacity(BURST);
    probe.start_section(&mut c.sim);
    for b in 0..bursts {
        let now = c.sim.now() as i64;
        let t = probe.begin(&mut c.sim);
        burst.clear();
        for _ in 0..BURST {
            let chunk = (offset + seq * STRIDE) % ROWS;
            let holder = (chunk + seq / ROWS + 1) % HOLDERS;
            c.sim
                .inject(&nn, HB_CHUNK_REPORT, report(holder, chunk, now));
            holders[chunk] += 1;
            burst.push(chunk);
            seq += 1;
        }
        let deadline = c.sim.now() + 10_000;
        let done = c.sim.run_while(deadline, |sim| {
            (0..SUBSCRIBERS).all(|k| {
                sim.with_actor::<SubscriberActor, _>(&subscriber(k), |w| {
                    burst
                        .iter()
                        .all(|&ch| mirrored_holders(w, ch) == holders[ch])
                })
            })
        });
        probe.end(&mut c.sim, t, "burst", done);
        if done {
            units += BURST as f64;
        }
        out.check(
            done.then_some(())
                .ok_or_else(|| format!("burst {b}: mirrors did not apply it within 10 s")),
        );
    }
    let totals = probe.end_section(&mut c.sim);
    // Let stragglers land, then every mirror must equal the NameNode's
    // `chunk_locs`, and the host must not have dropped a record.
    c.sim.run_for(1_000);
    let (dropped, host_bytes) = c.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        let h = a.hook_mut::<ServeHost>().expect("serve host attached");
        (h.total_dropped, h.mem_bytes())
    });
    out.check(
        (dropped == 0)
            .then_some(())
            .ok_or_else(|| format!("serve host dropped {dropped} records")),
    );
    let truth: Vec<Vec<Value>> = c.sim.with_actor::<OverlogActor, _>(&nn, |a| {
        a.runtime_ref()
            .table("chunk_locs")
            .map(|t| t.sorted_rows().into_iter().map(|r| r.to_vec()).collect())
            .unwrap_or_default()
    });
    for k in 0..SUBSCRIBERS {
        let m = mirror(c, k);
        out.check((m == truth).then_some(()).ok_or_else(|| {
            format!(
                "mirror {k} holds {} rows, chunk_locs {}",
                m.len(),
                truth.len()
            )
        }));
    }
    out.extra.insert("serve.host_bytes", host_bytes as f64);
    Pass {
        probe,
        totals,
        units,
    }
}
