//! Measurement from outside the stack: per-op timing on the process CPU
//! clock and, in traced mode, per-op spans and counters read from the
//! layers' public calls (`Sim` delivery counters, `OverlogActor::busy`,
//! `OverlogRuntime::eval_stats`/`rule_stats`, `DurableStore` stats and
//! the serving host's counters).
//!
//! A traced op's CPU time splits into buckets that add up to it: per
//! Overlog node, rule evaluation (`eval_ns`) and the rest of the node's
//! busy time (ingest, views, indexes, commit, durability, serve hooks);
//! whatever remains is the event loop and the Rust actors (client,
//! DataNodes, TaskTrackers, subscribers). `OverlogActor::busy` is read
//! off a wall clock, so the split is checked per op: the nodes' busy time
//! may exceed the op's CPU time only by the time the op spent off the CPU
//! (wall minus CPU), plus [`BUCKET_SLACK`].

use crate::clock::{cpu_now, HostTicks};
use boom_serve::ServeHost;
use boom_simnet::{DurableStore, OverlogActor, Sim};
use boom_trace::ChromeTrace;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Deterministic work counters of one Overlog node, cumulative.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ticks: u64,
    pub fixpoint_rounds: u64,
    pub view_recomputes: u64,
    pub views_maintained: u64,
    pub fires: u64,
    pub attempts: u64,
    pub kernel_evals: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.ticks += o.ticks;
        self.fixpoint_rounds += o.fixpoint_rounds;
        self.view_recomputes += o.view_recomputes;
        self.views_maintained += o.views_maintained;
        self.fires += o.fires;
        self.attempts += o.attempts;
        self.kernel_evals += o.kernel_evals;
    }

    fn minus(&self, o: &Counts) -> Counts {
        Counts {
            ticks: self.ticks - o.ticks,
            fixpoint_rounds: self.fixpoint_rounds - o.fixpoint_rounds,
            view_recomputes: self.view_recomputes - o.view_recomputes,
            views_maintained: self.views_maintained - o.views_maintained,
            fires: self.fires - o.fires,
            attempts: self.attempts - o.attempts,
            kernel_evals: self.kernel_evals - o.kernel_evals,
        }
    }
}

/// One Overlog node's cumulative meters.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMeter {
    busy_ns: u64,
    eval_ns: u64,
    counts: Counts,
}

/// Everything the probe reads at one instant.
#[derive(Debug, Clone, Default)]
struct Meters {
    nodes: Vec<NodeMeter>,
    delivered: u64,
    dropped: u64,
    wal_appends: u64,
    wal_entries: u64,
    checkpoints: u64,
    serve_delivered: u64,
}

/// How far the Overlog nodes' busy time (wall-clock) may exceed an op's
/// CPU time plus its off-CPU time before the op fails the bucket check:
/// a share of the op's CPU time, plus a floor for timer granularity.
pub const BUCKET_SLACK: (f64, u64) = (0.05, 20_000);

/// One measured op. `cpu_ns` and `sim_ms` are recorded in every mode.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub kind: &'static str,
    pub cpu_ns: u64,
    pub sim_ms: u64,
    pub ok: bool,
}

/// A traced op: its root span and one child span per Overlog node.
#[derive(Debug, Clone)]
struct OpSpans {
    start_us: f64,
    wall_ns: u64,
    cpu_ns: u64,
    /// Per node (probe order): `(busy_ns, eval_ns)` during the op.
    nodes: Vec<(u64, u64)>,
    counts: Counts,
    msgs: u64,
    wal_entries: u64,
}

impl OpSpans {
    /// Summed busy time of the Overlog nodes during the op.
    fn busy_ns(&self) -> u64 {
        self.nodes.iter().map(|x| x.0).sum()
    }
}

/// Token returned by [`Probe::begin`].
pub struct OpStart {
    cpu: Duration,
    wall: Instant,
    sim_ms: u64,
    meters: Option<Meters>,
}

/// Per-op recorder for one measured section.
pub struct Probe {
    traced: bool,
    nodes: Vec<String>,
    store: Option<DurableStore>,
    serve_node: Option<String>,
    pub ops: Vec<OpRecord>,
    spans: Vec<OpSpans>,
    epoch: Instant,
    section: Option<(Duration, Instant, HostTicks, Option<Meters>)>,
    totals: Option<SectionTotals>,
    plan: String,
}

/// Whole-section readings, taken by [`Probe::end_section`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SectionTotals {
    pub cpu: Duration,
    pub wall: Duration,
    pub steal_pct: f64,
    counts: Counts,
    delivered: u64,
    dropped: u64,
    wal_appends: u64,
    checkpoints: u64,
    serve_delivered: u64,
}

fn overlog_nodes(sim: &mut Sim) -> Vec<String> {
    let mut names: Vec<String> = sim
        .node_names()
        .into_iter()
        .filter(|n| sim.try_with_actor::<OverlogActor, _>(n, |_| ()).is_some())
        .collect();
    names.sort();
    names
}

impl Probe {
    /// A probe over every Overlog node currently in `sim`. Refuses
    /// (panics) when the simulator would evaluate nodes in parallel: the
    /// benchmark measures one thread.
    pub fn new(sim: &mut Sim, traced: bool) -> Self {
        assert!(
            !sim.is_parallel(),
            "refusing to measure: the simulator is in parallel mode"
        );
        let nodes = overlog_nodes(sim);
        let plans: BTreeSet<String> = nodes
            .iter()
            .map(|n| {
                sim.with_actor::<OverlogActor, _>(n, |a| {
                    format!("{:?}", a.runtime_ref().plan_options())
                })
            })
            .collect();
        Probe {
            plan: plans.into_iter().collect::<Vec<_>>().join(" | "),
            traced,
            nodes,
            store: None,
            serve_node: None,
            ops: Vec::new(),
            spans: Vec::new(),
            epoch: Instant::now(),
            section: None,
            totals: None,
        }
    }

    /// Also meter a durable store's write-ahead log.
    pub fn with_store(mut self, store: Option<DurableStore>) -> Self {
        self.store = store;
        self
    }

    /// Also meter the serving host attached to `node`.
    pub fn with_serve_host(mut self, node: &str) -> Self {
        self.serve_node = Some(node.to_string());
        self
    }

    /// The effective planner options of the measured nodes.
    pub fn plan_options(&self) -> &str {
        &self.plan
    }

    fn read(&self, sim: &mut Sim) -> Meters {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                sim.with_actor::<OverlogActor, _>(n, |a| {
                    let rt = a.runtime_ref();
                    let es = rt.eval_stats();
                    let mut m = NodeMeter {
                        busy_ns: a.busy.as_nanos() as u64,
                        counts: Counts {
                            ticks: es.ticks,
                            fixpoint_rounds: es.fixpoint_rounds,
                            view_recomputes: es.view_recomputes,
                            views_maintained: es.views_maintained,
                            ..Counts::default()
                        },
                        ..NodeMeter::default()
                    };
                    for (_, rs) in rt.rule_stats() {
                        m.eval_ns += rs.eval_ns;
                        m.counts.fires += rs.fires;
                        m.counts.attempts += rs.attempts;
                        m.counts.kernel_evals += rs.kernel_evals;
                    }
                    m
                })
            })
            .collect();
        let (mut wal_appends, mut wal_entries, mut checkpoints) = (0, 0, 0);
        if let Some(store) = &self.store {
            for n in &self.nodes {
                let (appends, ckpts, _) = store.stats(n);
                wal_appends += appends;
                checkpoints += ckpts;
                wal_entries += store.wal_entries(n) as u64;
            }
        }
        let serve_delivered = self.serve_node.as_ref().map_or(0, |n| {
            sim.with_actor::<OverlogActor, _>(n, |a| {
                a.hook_mut::<ServeHost>().map_or(0, |h| h.total_delivered)
            })
        });
        Meters {
            nodes,
            delivered: sim.delivered_count(),
            dropped: sim.dropped_count(),
            wal_appends,
            wal_entries,
            checkpoints,
            serve_delivered,
        }
    }

    /// Start the measured section.
    pub fn start_section(&mut self, sim: &mut Sim) {
        let meters = self.traced.then(|| self.read(sim));
        self.epoch = Instant::now();
        self.section = Some((cpu_now(), Instant::now(), HostTicks::read(), meters));
    }

    /// Close the measured section.
    pub fn end_section(&mut self, sim: &mut Sim) -> SectionTotals {
        let (cpu0, wall0, host0, meters0) = self.section.take().expect("section started");
        let mut t = SectionTotals {
            cpu: cpu_now() - cpu0,
            wall: wall0.elapsed(),
            steal_pct: HostTicks::read().steal_pct_since(&host0),
            ..SectionTotals::default()
        };
        if let Some(m0) = meters0 {
            let m1 = self.read(sim);
            for (a, b) in m1.nodes.iter().zip(&m0.nodes) {
                t.counts.add(&a.counts.minus(&b.counts));
            }
            t.delivered = m1.delivered - m0.delivered;
            t.dropped = m1.dropped - m0.dropped;
            t.wal_appends = m1.wal_appends - m0.wal_appends;
            t.checkpoints = m1.checkpoints - m0.checkpoints;
            t.serve_delivered = m1.serve_delivered - m0.serve_delivered;
        }
        self.totals = Some(t);
        t
    }

    /// Start one op.
    pub fn begin(&self, sim: &mut Sim) -> OpStart {
        let meters = self.traced.then(|| self.read(sim));
        OpStart {
            sim_ms: sim.now(),
            wall: Instant::now(),
            cpu: cpu_now(),
            meters,
        }
    }

    /// Finish one op started with [`Probe::begin`].
    pub fn end(&mut self, sim: &mut Sim, start: OpStart, kind: &'static str, ok: bool) {
        let cpu_ns = (cpu_now() - start.cpu).as_nanos() as u64;
        let wall_ns = start.wall.elapsed().as_nanos() as u64;
        self.ops.push(OpRecord {
            kind,
            cpu_ns,
            sim_ms: sim.now() - start.sim_ms,
            ok,
        });
        let Some(m0) = start.meters else { return };
        let m1 = self.read(sim);
        let mut counts = Counts::default();
        let nodes = m1
            .nodes
            .iter()
            .zip(&m0.nodes)
            .map(|(a, b)| {
                counts.add(&a.counts.minus(&b.counts));
                (a.busy_ns - b.busy_ns, a.eval_ns - b.eval_ns)
            })
            .collect();
        self.spans.push(OpSpans {
            start_us: (start.wall - self.epoch).as_secs_f64() * 1e6,
            wall_ns,
            cpu_ns,
            nodes,
            counts,
            msgs: m1.delivered - m0.delivered,
            // A checkpoint truncates the log mid-op; count what is left.
            wal_entries: m1
                .wal_entries
                .checked_sub(m0.wal_entries)
                .unwrap_or(m1.wal_entries),
        });
    }

    /// Mean busy ms per op of the named nodes (traced mode).
    pub fn busy_ms_per_op(&self, names: &[&str]) -> f64 {
        let idx: Vec<usize> = names
            .iter()
            .filter_map(|n| self.nodes.iter().position(|m| m == n))
            .collect();
        let total: u64 = self
            .spans
            .iter()
            .map(|s| idx.iter().map(|&i| s.nodes[i].0).sum::<u64>())
            .sum();
        ms(total) / self.spans.len().max(1) as f64
    }

    /// The per-layer metrics every workload reports (traced mode).
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let t = self.totals.expect("section ended");
        let n = self.spans.len().max(1) as f64;
        let (mut busy, mut eval, mut rest) = (0u64, 0u64, 0u64);
        let mut wal_entries = 0u64;
        for s in &self.spans {
            let b = s.busy_ns();
            busy += b;
            eval += s.nodes.iter().map(|x| x.1).sum::<u64>();
            rest += s.cpu_ns.saturating_sub(b);
            wal_entries += s.wal_entries;
        }
        let c = t.counts;
        let per = |x: u64| x as f64 / n;
        out.insert("simnet.msgs_per_op", per(t.delivered));
        out.insert("simnet.dropped", t.dropped as f64);
        out.insert("simnet.rest_ms_per_op", ms(rest) / n);
        out.insert("overlog.busy_ms_per_op", ms(busy) / n);
        out.insert("overlog.eval_ms_per_op", ms(eval) / n);
        out.insert(
            "overlog.non_eval_ms_per_op",
            ms(busy.saturating_sub(eval)) / n,
        );
        out.insert("overlog.ticks_per_op", per(c.ticks));
        out.insert("overlog.fixpoint_rounds_per_op", per(c.fixpoint_rounds));
        out.insert("overlog.view_recomputes_per_op", per(c.view_recomputes));
        out.insert("overlog.views_maintained_per_op", per(c.views_maintained));
        out.insert("overlog.fires_per_op", per(c.fires));
        out.insert(
            "overlog.useful_ratio",
            c.fires as f64 / c.attempts.max(1) as f64,
        );
        out.insert("overlog.kernel_evals_per_op", per(c.kernel_evals));
        out.insert("durable.wal_entries_per_op", per(wal_entries));
        out.insert("durable.wal_batches_per_op", per(t.wal_appends));
        out.insert("durable.checkpoints", t.checkpoints as f64);
        out.insert("serve.deltas_per_op", per(t.serve_delivered));
        out.insert(
            "harness.cpu_over_wall",
            t.cpu.as_secs_f64() / t.wall.as_secs_f64().max(1e-9),
        );
        out.insert("harness.steal_pct", t.steal_pct);
    }

    /// Ops whose nodes' busy time exceeds their CPU time by more than
    /// their off-CPU time plus [`BUCKET_SLACK`], i.e. whose buckets cannot
    /// add up to the op's time: one failure line each (traced mode).
    pub fn bucket_failures(&self) -> Vec<String> {
        let (share, floor_ns) = BUCKET_SLACK;
        self.ops
            .iter()
            .zip(&self.spans)
            .enumerate()
            .filter_map(|(i, (op, s))| {
                let busy = s.busy_ns();
                let off_cpu = s.wall_ns.saturating_sub(s.cpu_ns);
                let slack = off_cpu + (s.cpu_ns as f64 * share) as u64 + floor_ns;
                (busy > s.cpu_ns + slack).then(|| {
                    format!(
                        "traced op {i} ({}): Overlog busy {busy} ns exceeds its CPU time \
                         {} ns by more than {slack} ns",
                        op.kind, s.cpu_ns
                    )
                })
            })
            .collect()
    }

    /// The per-layer table: one row per op kind, buckets in mean ms of
    /// CPU per op, and the bucket check's verdict.
    pub fn layer_table(&self) -> String {
        let mut by_kind: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            by_kind.entry(op.kind).or_default().push(i);
        }
        by_kind.insert("all", (0..self.ops.len()).collect());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8}",
            "op",
            "n",
            "cpu_ms",
            "eval_ms",
            "noneval",
            "rest_ms",
            "wall_ms",
            "msgs",
            "ticks",
            "recomp",
            "maint",
            "fires"
        );
        for (kind, idx) in &by_kind {
            let k = idx.len().max(1) as f64;
            let (mut cpu, mut wall, mut eval, mut noneval, mut rest) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            let (mut msgs, mut counts) = (0u64, Counts::default());
            for &i in idx {
                let s = &self.spans[i];
                let b = s.busy_ns();
                let e: u64 = s.nodes.iter().map(|x| x.1).sum();
                cpu += s.cpu_ns;
                wall += s.wall_ns;
                eval += e;
                noneval += b - e;
                rest += s.cpu_ns.saturating_sub(b);
                msgs += s.msgs;
                counts.add(&s.counts);
            }
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>7.2} {:>7.2} {:>8.3} {:>8.3} {:>8.1}",
                kind,
                idx.len(),
                ms(cpu) / k,
                ms(eval) / k,
                ms(noneval) / k,
                ms(rest) / k,
                ms(wall) / k,
                msgs as f64 / k,
                counts.ticks as f64 / k,
                counts.view_recomputes as f64 / k,
                counts.views_maintained as f64 / k,
                counts.fires as f64 / k,
            );
        }
        let _ = writeln!(out, "# per node, mean busy / eval ms per op:");
        for (i, name) in self.nodes.iter().enumerate() {
            let k = self.spans.len().max(1) as f64;
            let busy: u64 = self.spans.iter().map(|s| s.nodes[i].0).sum();
            let eval: u64 = self.spans.iter().map(|s| s.nodes[i].1).sum();
            let _ = writeln!(
                out,
                "#   {name:<10} {:>9.4} {:>9.4}",
                ms(busy) / k,
                ms(eval) / k
            );
        }
        let over: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.busy_ns().saturating_sub(s.cpu_ns))
            .filter(|&excess| excess > 0)
            .collect();
        let _ = writeln!(
            out,
            "# bucket check (eval + non_eval + rest = cpu; busy <= cpu + off-cpu + {:.0}% + {} us): \
             {} of {} ops fail; {} ops have busy > cpu, by {:.4} ms in all",
            BUCKET_SLACK.0 * 100.0,
            BUCKET_SLACK.1 / 1_000,
            self.bucket_failures().len(),
            self.spans.len(),
            over.len(),
            ms(over.iter().sum())
        );
        out
    }

    /// Chrome trace-event rendering of the traced ops: lane 0 holds one
    /// root span per op; each Overlog node gets a lane with its busy span
    /// and the eval span inside it; the last lane holds the remainder.
    pub fn chrome(&self) -> String {
        let mut tr = ChromeTrace::new();
        let rest_pid = self.nodes.len() as u32 + 1;
        tr.process_name(0, "ops");
        for (i, n) in self.nodes.iter().enumerate() {
            tr.process_name(i as u32 + 1, n);
        }
        tr.process_name(rest_pid, "simnet+actors");
        for (op, s) in self.ops.iter().zip(&self.spans) {
            let wall_us = s.wall_ns as f64 / 1e3;
            let args = [
                ("cpu_ms", format!("{:.4}", ms(op.cpu_ns))),
                ("sim_ms", op.sim_ms.to_string()),
                ("ok", op.ok.to_string()),
            ];
            tr.complete(0, 0, op.kind, "op", s.start_us, wall_us, &args);
            let mut busy = 0u64;
            for (i, &(b, e)) in s.nodes.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                busy += b;
                let pid = i as u32 + 1;
                tr.complete(pid, 0, "busy", "overlog", s.start_us, b as f64 / 1e3, &[]);
                tr.complete(pid, 0, "eval", "overlog", s.start_us, e as f64 / 1e3, &[]);
            }
            let rest = s.cpu_ns.saturating_sub(busy) as f64 / 1e3;
            tr.complete(rest_pid, 0, "rest", "simnet", s.start_us, rest, &[]);
        }
        tr.render()
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe holding one traced op per `(cpu_ns, wall_ns, busy_ns)`.
    fn probe_with(ops: &[(u64, u64, u64)]) -> Probe {
        let (records, spans) = ops
            .iter()
            .map(|&(cpu_ns, wall_ns, busy_ns)| {
                let op = OpRecord {
                    kind: "create",
                    cpu_ns,
                    sim_ms: 1,
                    ok: true,
                };
                let span = OpSpans {
                    start_us: 0.0,
                    wall_ns,
                    cpu_ns,
                    nodes: vec![(busy_ns / 2, 0), (busy_ns - busy_ns / 2, 0)],
                    counts: Counts::default(),
                    msgs: 0,
                    wal_entries: 0,
                };
                (op, span)
            })
            .unzip();
        Probe {
            traced: true,
            nodes: vec!["a".into(), "b".into()],
            store: None,
            serve_node: None,
            ops: records,
            spans,
            epoch: Instant::now(),
            section: None,
            totals: None,
            plan: String::new(),
        }
    }

    #[test]
    fn bucket_check_fails_busy_beyond_cpu_and_off_cpu_time() {
        let ms = 1_000_000;
        // Busy within CPU; busy over CPU but within the op's off-CPU
        // time; busy over CPU on an op that never left the CPU.
        let p = probe_with(&[
            (ms, ms, ms / 2),
            (ms, 2 * ms, 3 * ms / 2),
            (ms, ms, 3 * ms / 2),
        ]);
        let failures = p.bucket_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("traced op 2 "), "{failures:?}");
        assert!(p.layer_table().contains("1 of 3 ops fail"));
    }
}
