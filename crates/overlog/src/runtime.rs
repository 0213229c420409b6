//! The Overlog runtime: timestep driver and semi-naive stratified evaluator.
//!
//! One [`OverlogRuntime`] corresponds to one JOL instance on one node. The
//! host (a simulator actor, a test, or an example binary) drives it:
//!
//! 1. queue external tuples with [`OverlogRuntime::insert`] /
//!    [`OverlogRuntime::delete`] / network deliveries,
//! 2. call [`OverlogRuntime::tick`] with the current virtual time,
//! 3. deliver the returned [`NetTuple`]s to their destination runtimes.
//!
//! ## Timestep semantics
//!
//! Within a tick, deductive rules run to fixpoint (semi-naive, stratum by
//! stratum). Three kinds of derivation cross the tick boundary instead of
//! taking effect immediately (Dedalus-style induction):
//!
//! * **deletions** from `delete` rules,
//! * **insertions into materialized tables by event-triggered rules** —
//!   every rule in a tick reads a consistent pre-state, and programs may
//!   check a table (`notin fqpath(...)`) and update it in the same rule
//!   body without a stratification cycle,
//! * **tuples addressed to remote nodes**, which are shipped at the
//!   boundary.
//!
//! Event-table tuples live for exactly one tick; event-to-event rules fire
//! within the tick. Pure materialized-to-materialized rules are *views*,
//! maintained immediately.
//!
//! ## View maintenance
//!
//! Rules whose head and entire body are materialized (and carry no location
//! specifier) define *views*. Views are maintained incrementally on
//! insertion; any deletion or key-overwrite of a view input triggers a full
//! recomputation of all view tables at the end of the tick — a simple,
//! sound replacement for JOL's incremental delete propagation.

use crate::analysis::maint::{AnchorEval, Bind, SourceDep, ViewMaint};
use crate::analysis::{self, Diagnostic, SourceMap};
use crate::ast::{AggKind, BinOp, UnOp};
use crate::ast::{Rule, Span, Statement, TableDecl, TableKind};
use crate::builtins::Builtins;
use crate::error::{OverlogError, Result};
use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{IdSet, TableId, TableIds};
use crate::kernel::{KCheck, KExpr, KOp, KOperand, Kernel};
use crate::parser::parse_program;
use crate::plan::{self, CExpr, CHeadArg, CompiledRule, Op, Pat, Plan, Variant};
use crate::table::{Candidates, ColGroup, Column, InsertOutcome, Table};
use crate::value::{Row, TypeTag, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A tuple addressed to another node, produced by a rule whose head carries
/// a location specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTuple {
    /// Destination address (matches another runtime's `addr`).
    pub dest: Arc<str>,
    /// Target table at the destination.
    pub table: String,
    /// The tuple.
    pub row: Row,
}

/// What a single tick did.
#[derive(Debug, Default)]
pub struct TickResult {
    /// Tuples to deliver to other nodes.
    pub sends: Vec<NetTuple>,
    /// Number of rule derivations performed.
    pub derivations: u64,
    /// Number of tuples deleted at the tick boundary.
    pub deletions: usize,
    /// Whether retraction propagation ran this tick — incrementally
    /// maintained or fully recomputed view tables.
    pub views_recomputed: bool,
}

/// Kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Tuple inserted (new or replacing).
    Insert,
    /// Tuple deleted.
    Delete,
    /// Tuple shipped to a remote node.
    Send,
}

/// One record in the watch trace (the paper's monitoring hook).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Tick counter when the event happened.
    pub tick: u64,
    /// Virtual time of the tick.
    pub time: u64,
    /// Affected table.
    pub table: String,
    /// The tuple.
    pub row: Row,
    /// Operation kind.
    pub op: TraceOp,
}

/// A drained watch trace plus the number of records lost to the ring
/// buffer's capacity since the previous drain.
#[derive(Debug, Default)]
pub struct TraceDrain {
    /// The surviving records, oldest first.
    pub events: Vec<TraceEvent>,
    /// Records evicted because the buffer hit `trace_cap` — silently lost
    /// history the consumer must account for.
    pub dropped: u64,
}

/// One why-provenance record: a derived tuple, the rule that produced it,
/// and the positive body tuples that matched (the *first witness* — later
/// re-derivations of the same tuple are not recorded).
#[derive(Debug, Clone)]
pub struct ProvRecord {
    /// Tick counter when the derivation happened.
    pub tick: u64,
    /// Virtual time of the tick.
    pub time: u64,
    /// Label of the deriving rule. Aggregate rules record empty `inputs`
    /// (their support is the whole group).
    pub rule: String,
    /// Head table of the derivation.
    pub table: String,
    /// The derived tuple.
    pub row: Row,
    /// The positive body tuples joined to produce the head, in scan order.
    pub inputs: Vec<(String, Row)>,
}

/// Per-rule evaluation statistics — the rule-level profiler. All fields
/// except `eval_ns` are deterministic for a fixed program and input
/// schedule; `eval_ns` is wall-clock and varies run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Effective derivations (new tuple, remote send, deferred insert, or
    /// deferred delete).
    pub fires: u64,
    /// Head rows produced by body evaluation before set-semantics dedup —
    /// the rule's join fanout.
    pub attempts: u64,
    /// Delta rows consumed by this rule's semi-naive variants.
    pub delta_in: u64,
    /// Scoped evaluations driven by the incremental view maintainer
    /// (counting deltas, group re-folds, keyed re-derivations) — work that
    /// replaced a from-scratch recompute of this rule's head.
    pub maint_evals: u64,
    /// Wall-clock nanoseconds spent evaluating the body and dispatching
    /// heads (non-deterministic; excluded from reproducibility checks).
    pub eval_ns: u64,
    /// Body evaluations that ran through a compiled kernel
    /// ([`crate::kernel`]) instead of the interpreted operator walk.
    /// Zero for rules whose variants never compiled, or when
    /// `PlanOptions::kernels` is off.
    pub kernel_evals: u64,
}

/// Per-shard slice of a rule's evaluation work under sharded evaluation
/// (`PlanOptions::shards > 1`). Summing a rule's shards gives the portion
/// of its [`RuleStats`] that went through the sharded path; rounds that
/// fell back to serial (small delta, serial verdict, provenance on) are
/// counted only in [`RuleStats`]. `delta_in`/`rows_out` are deterministic
/// for a fixed program, input schedule and shard count; `eval_ns` is
/// wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Delta rows hashed into this shard.
    pub delta_in: u64,
    /// Head rows this shard produced (before set-semantics dedup).
    pub rows_out: u64,
    /// Wall-clock nanoseconds the shard's worker spent evaluating.
    pub eval_ns: u64,
}

/// Delta slices shorter than this evaluate serially even when a variant is
/// shard-safe: the fan-out/merge overhead would exceed the join work.
pub const SHARD_MIN_DELTA_ROWS: usize = 16;

/// Tick-granularity evaluation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Total semi-naive fixpoint rounds across all strata and ticks.
    pub fixpoint_rounds: u64,
    /// Full view recomputation *passes* (each pass clears and rebuilds
    /// some set of view tables from scratch). With maintenance on, only
    /// rounds that fell back to recomputation count here.
    pub view_recomputes: u64,
    /// Maintenance passes in which at least one affected view was updated
    /// in place from its input deltas instead of recomputed.
    pub maint_rounds: u64,
    /// Views updated in place across all maintenance passes.
    pub views_maintained: u64,
}

#[derive(Debug)]
enum Pending {
    Insert(TableId, Row),
    Delete(TableId, Row),
}

#[derive(Debug)]
struct TimerState {
    tid: TableId,
    interval: u64,
    next: u64,
}

/// What happened to a durable table at tick commit: the unit of the
/// write-ahead log (see [`OverlogRuntime::take_commit_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOp {
    /// Row inserted (new or key-overwrite; replay re-applies the overwrite).
    Insert,
    /// Row deleted (exact match).
    Delete,
}

/// One committed delta of a durable table. Replaying a log of these with
/// [`OverlogRuntime::restore`] reproduces the base-table state exactly:
/// rows are logged post-coercion, and primary-key overwrite semantics make
/// physical replay idempotent against the snapshot it starts from.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Table name (names, not ids: the log outlives the runtime).
    pub table: String,
    /// The row as stored (coerced).
    pub row: Row,
    /// Insert or delete.
    pub op: CommitOp,
}

/// Table-name prefixes reserved for the *observation plane*: tables
/// generated by boom-trace monitors (`boomt_`) and boom-serve
/// subscriptions (`srv_`). The observe-never-perturb contract says their
/// presence must not change application state, the write-ahead log, or
/// recovery behavior — so observation tables are never marked durable
/// (they are rebuilt by re-installing the monitor / re-subscribing) and
/// state fingerprints exclude them.
pub const OBSERVATION_PREFIXES: [&str; 2] = ["boomt_", "srv_"];

/// Whether a table belongs to the observation plane (see
/// [`OBSERVATION_PREFIXES`]).
pub fn is_observation_table(name: &str) -> bool {
    OBSERVATION_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// One change record drained from a *delta tap* (see
/// [`OverlogRuntime::add_tap`]): the serving tier's unit of subscription
/// propagation. Unlike [`CommitRecord`] (the WAL unit, inserts as stored),
/// a tap reports retractions explicitly: a key-overwrite emits
/// `Delete(old)` then `Insert(new)`, so replaying a tap stream against a
/// full-row mirror reproduces the table exactly.
#[derive(Debug, Clone)]
pub struct TapRecord {
    /// Table name (names, not ids: the stream outlives the runtime).
    pub table: String,
    /// The row as stored (coerced).
    pub row: Row,
    /// Insert or delete (retraction).
    pub op: CommitOp,
    /// Tick ordinal at which the change committed.
    pub tick: u64,
    /// Virtual time of the committing tick — the timestamp propagation
    /// latency is measured against.
    pub time: u64,
}

/// A checkpoint of a runtime's durable state: full contents of every
/// durable table (sorted, for deterministic bytes) plus the values of all
/// tracked host counters (see [`OverlogRuntime::register_counter`]).
#[derive(Debug, Clone, Default)]
pub struct RuntimeSnapshot {
    /// `(table name, sorted rows)`, sorted by table name.
    pub tables: Vec<(String, Vec<Row>)>,
    /// `(counter name, next value)`, in registration order.
    pub counters: Vec<(String, i64)>,
}

impl RuntimeSnapshot {
    /// Total rows across all captured tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// Which tables are marked durable (see
/// [`OverlogRuntime::set_durable_all`]).
#[derive(Debug, Clone, Default, PartialEq)]
enum DurableMode {
    /// No capture: the WAL hooks reduce to one always-false bitset test.
    #[default]
    Off,
    /// Every eligible (non-event, non-view, non-`me`) table.
    All,
    /// Just these tables (ineligible names are ignored).
    Named(Vec<String>),
}

/// A single-node Overlog runtime (the JOL equivalent).
pub struct OverlogRuntime {
    addr: Arc<str>,
    decls: HashMap<String, TableDecl>,
    /// Table-name interner: `tables` is indexed by [`TableId`], so
    /// `ids.len() == tables.len()` always holds (ids are only assigned
    /// when a table is created).
    ids: TableIds,
    tables: Vec<Table>,
    rule_sources: Vec<Rule>,
    /// Program texts successfully loaded, in order (static re-analysis).
    sources: Vec<String>,
    /// Which contiguous `rule_sources` range each loaded source produced
    /// (`(start, len)`, parallel to `sources`) — the unit
    /// [`OverlogRuntime::unload`] removes.
    source_rule_spans: Vec<(usize, usize)>,
    /// Tables the host has inserted into or deleted from directly; the
    /// analyzer treats them as externally filled.
    host_inserted: HashSet<String>,
    plan: Arc<Plan>,
    plan_opts: plan::PlanOptions,
    /// Ground facts loaded per table — feeds the planner's cardinality
    /// model so join orders reflect actual configuration sizes.
    fact_counts: HashMap<String, usize>,
    builtins: Builtins,
    timers: Vec<TimerState>,
    /// Watched names (API surface; may include not-yet-declared tables).
    watch_names: HashSet<String>,
    /// Ids of watched tables — the hot-path membership test.
    watch_ids: IdSet,
    pending: VecDeque<Pending>,
    trace: VecDeque<TraceEvent>,
    trace_cap: usize,
    /// Records evicted from `trace` since the last drain.
    trace_dropped: u64,
    /// Count every derivation into the trace, not just watched tables
    /// (the "monitoring revision" toggle measured by experiment E7).
    trace_all: bool,
    /// Why-provenance capture (off by default; see [`ProvRecord`]).
    prov_on: bool,
    prov: Vec<ProvRecord>,
    prov_seen: FxHashSet<(TableId, Row)>,
    prov_cap: usize,
    prov_dropped: u64,
    budget: u64,
    rule_stats: Vec<RuleStats>,
    /// Per-rule, per-shard counters for the sharded evaluation path
    /// (`[rule][shard]`; empty unless `PlanOptions::shards > 1`).
    shard_stats: Vec<Vec<ShardStats>>,
    eval_stats: EvalStats,
    tick_count: u64,
    now: u64,
    /// Pooled tick workspace: taken at tick start, restored at tick end,
    /// so the per-table delta logs and dedup sets keep their allocations
    /// across ticks instead of being rebuilt.
    scratch: TickCtx,
    /// Pooled sub-context for view-aggregate recomputation (see
    /// `eval_agg_into`).
    agg_scratch: TickCtx,
    /// Durable marking in effect; `durable_ids` is the compiled form.
    durable_mode: DurableMode,
    /// Ids of the tables whose committed deltas are captured. Empty when
    /// durability is off — the hot-path hooks are one bitset test.
    durable_ids: IdSet,
    /// Committed deltas since the last [`OverlogRuntime::take_commit_delta`]
    /// drain (table ids resolve to names at drain time, off the hot path).
    commit_log: Vec<(TableId, Row, CommitOp)>,
    /// Tapped table names (see [`OverlogRuntime::add_tap`]); `tap_ids` is
    /// the compiled hot-path membership test, empty when no taps exist.
    tap_names: HashSet<String>,
    tap_ids: IdSet,
    /// Tap records since the last [`OverlogRuntime::take_tap_delta`] drain.
    tap_log: Vec<(TableId, Row, CommitOp, u64, u64)>,
    /// True while `recompute_views` rebuilds: incremental capture is
    /// suspended (aggregate rebuilds re-insert every group through
    /// `apply_insert`) — the rebuild is reported as an exact diff instead.
    tap_suspended: bool,
    /// Host counters registered via [`OverlogRuntime::register_counter`],
    /// snapshot and restored with durable state.
    counters: Vec<(String, Arc<AtomicI64>)>,
    /// Per-view derivation multiplicities for `Counting`-certified views
    /// (see [`crate::analysis::maint`]): how many source rows currently
    /// derive each head row. Presence of a view's map means its counts are
    /// *valid* — removal is invalidation, and the next maintenance round
    /// falls back to recomputation and rebuilds the map. Cleared wholesale
    /// whenever the plan is replaced (rule ids and strategies shift).
    maint_support: FxHashMap<TableId, FxHashMap<Row, i64>>,
}

impl std::fmt::Debug for OverlogRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlogRuntime")
            .field("addr", &self.addr)
            .field("tables", &self.tables.len())
            .field("rules", &self.plan.rules.len())
            .field("tick", &self.tick_count)
            .finish()
    }
}

/// Per-tick workspace. The semi-naive delta is *zero-copy*: every row
/// inserted this tick is appended once to the per-table `added` log, and a
/// round's delta for table `t` is the slice `added[t][cursor[t]..hi[t]]` —
/// references move, rows are never re-cloned into round buffers (the old
/// `round_delta = added.clone()` / `delta_rows.clone()` copies).
#[derive(Default)]
struct TickCtx {
    /// Append-only per-table log of rows added this tick, indexed by
    /// [`TableId`].
    added: Vec<Vec<Row>>,
    /// Per-table read position of the current semi-naive round; reset to 0
    /// at stratum entry (each stratum reprocesses the whole tick's log).
    cursor: Vec<usize>,
    /// Per-table end of the current round's delta slice (the log length
    /// snapshotted at round start; rows appended during the round are the
    /// next round's delta).
    hi: Vec<usize>,
    deferred_deletes: Vec<(TableId, Row)>,
    deferred_inserts: Vec<(TableId, Row)>,
    deferred_seen: FxHashSet<(TableId, Row)>,
    /// Dedup scratch for applying `deferred_deletes`.
    delete_seen: FxHashSet<(TableId, Row)>,
    outbox: Vec<NetTuple>,
    sent: FxHashSet<(Arc<str>, TableId, Row)>,
    derivations: u64,
    attempts: u64,
    /// View inputs that *shrank* this tick (deletions, key-overwrites):
    /// every view depending on one of these must be rebuilt.
    shrink_dirty: IdSet,
    /// Negated view inputs that *grew* this tick: only non-monotonic
    /// views (negation/aggregation in their closure) can lose tuples to
    /// growth, so the CALM-certified ones skip the rebuild.
    grow_dirty: IdSet,
    changed_tables: IdSet,
    /// Per-table log of rows that *entered* a view input this tick (new
    /// inserts and the new side of key-overwrites). Fed only when
    /// [`plan::PlanOptions::maintenance`] is on, and only for view inputs;
    /// the maintenance executor reads slices of it to scope its work.
    m_add: Vec<Vec<Row>>,
    /// Per-table log of rows that *left* a view input this tick (deletions
    /// and the old side of key-overwrites). Same gating as `m_add`.
    m_del: Vec<Vec<Row>>,
    /// Per-`(view, source)` consumption marks into `m_add`/`m_del`: how
    /// far the view's maintenance has already read each source's logs
    /// (the pre-fixpoint pass consumes a prefix, the commit pass the
    /// rest). Reset every tick — the logs are per-tick.
    view_marks: FxHashMap<(TableId, TableId), (usize, usize)>,
    /// Pooled evaluator buffers (see [`EvalScratch`]); cleared per use,
    /// not per tick.
    eval: EvalScratch,
    /// Round scratch: `(rule id, variant index, delta table index)` of the
    /// variants selected to run this round, sorted to match sweep order.
    pairs: Vec<(usize, usize, usize)>,
    /// Per-round vectorized delta-gate cache, keyed by `(delta table
    /// index, gate column)`: the round's delta slice for a table is
    /// grouped *once* per gated column, then every variant gating on
    /// that column answers its selection with one hash lookup instead
    /// of an O(delta) scan. Cleared at round start — a new round means
    /// new slices.
    gates: FxHashMap<(usize, usize), ColGroup>,
}

/// Pooled per-evaluation buffers: the slot environment and the index
/// probe-key scratch. Most rule evaluations derive nothing (a delta row
/// rarely matches more than a few of the rules scanning its table), and
/// with these pooled such evaluations allocate nothing at all.
#[derive(Default)]
struct EvalScratch {
    env: Vec<Option<Value>>,
    probe_vals: Vec<Value>,
    /// Typed probe-key scratch for the kernel path's `i64` index lookups.
    int_vals: Vec<i64>,
    /// Kernel assignment registers. (The kernel candidate-row stack is a
    /// per-call `Vec<&Row>` — it borrows table rows, so it cannot live in
    /// the pooled scratch.)
    kregs: Vec<Value>,
}

/// Captures, for each environment a rule body emits, the positive body
/// tuples that matched along the way. Disabled (and cost-free beyond a
/// branch per scan) unless provenance capture is on.
struct SupportSink {
    enabled: bool,
    cur: Vec<(String, Row)>,
    out: Vec<Vec<(String, Row)>>,
}

impl SupportSink {
    fn new(enabled: bool) -> Self {
        SupportSink {
            enabled,
            cur: Vec::new(),
            out: Vec::new(),
        }
    }

    fn into_supports(self) -> Option<Vec<Vec<(String, Row)>>> {
        if self.enabled {
            Some(self.out)
        } else {
            None
        }
    }
}

impl TickCtx {
    /// Clear for a fresh tick over `ntables` tables, keeping allocations.
    fn reset(&mut self, ntables: usize) {
        self.added.iter_mut().for_each(Vec::clear);
        self.added.resize_with(ntables, Vec::new);
        self.cursor.clear();
        self.cursor.resize(ntables, 0);
        self.hi.clear();
        self.hi.resize(ntables, 0);
        self.deferred_deletes.clear();
        self.deferred_inserts.clear();
        // Guarded clears: a pooled hash set keeps its high-water capacity,
        // and clearing one sweeps that capacity even when it holds nothing.
        if !self.deferred_seen.is_empty() {
            self.deferred_seen.clear();
        }
        if !self.delete_seen.is_empty() {
            self.delete_seen.clear();
        }
        self.outbox.clear();
        if !self.sent.is_empty() {
            self.sent.clear();
        }
        self.derivations = 0;
        self.attempts = 0;
        self.shrink_dirty.clear();
        self.grow_dirty.clear();
        self.changed_tables.clear();
        self.m_add.iter_mut().for_each(Vec::clear);
        self.m_add.resize_with(ntables, Vec::new);
        self.m_del.iter_mut().for_each(Vec::clear);
        self.m_del.resize_with(ntables, Vec::new);
        if !self.view_marks.is_empty() {
            self.view_marks.clear();
        }
    }
}

impl OverlogRuntime {
    /// Create a runtime identified by a node address.
    ///
    /// The runtime pre-declares the table `me(Addr)` holding its own
    /// address, so programs can bind their location:
    /// `response(@Src, Id) :- request(Src, Id), me(Me);`.
    pub fn new(addr: impl AsRef<str>) -> Self {
        let addr: Arc<str> = Arc::from(addr.as_ref());
        let mut rt = OverlogRuntime {
            addr: addr.clone(),
            decls: HashMap::new(),
            ids: TableIds::new(),
            tables: Vec::new(),
            rule_sources: Vec::new(),
            sources: Vec::new(),
            source_rule_spans: Vec::new(),
            host_inserted: HashSet::new(),
            plan: Arc::new(Plan::default()),
            plan_opts: plan::PlanOptions::default(),
            fact_counts: HashMap::new(),
            builtins: Builtins::standard(),
            timers: Vec::new(),
            watch_names: HashSet::new(),
            watch_ids: IdSet::new(),
            pending: VecDeque::new(),
            trace: VecDeque::new(),
            trace_cap: 100_000,
            trace_dropped: 0,
            trace_all: false,
            prov_on: false,
            prov: Vec::new(),
            prov_seen: FxHashSet::default(),
            prov_cap: 200_000,
            prov_dropped: 0,
            budget: 5_000_000,
            rule_stats: Vec::new(),
            shard_stats: Vec::new(),
            eval_stats: EvalStats::default(),
            tick_count: 0,
            now: 0,
            scratch: TickCtx::default(),
            agg_scratch: TickCtx::default(),
            durable_mode: DurableMode::Off,
            durable_ids: IdSet::new(),
            commit_log: Vec::new(),
            tap_names: HashSet::new(),
            tap_ids: IdSet::new(),
            tap_log: Vec::new(),
            tap_suspended: false,
            counters: Vec::new(),
            maint_support: FxHashMap::default(),
        };
        let me = TableDecl {
            name: "me".into(),
            keys: None,
            types: vec![TypeTag::Addr],
            kind: TableKind::Materialized,
            span: Span::default(),
        };
        rt.declare_table(me);
        rt.tables[0]
            .insert(Arc::new(vec![Value::Addr(addr)]))
            .expect("me fact matches its own declaration");
        rt
    }

    /// Create the table for `d`, assigning the next dense [`TableId`]:
    /// `ids` and `tables` grow in lockstep, so every interned name has a
    /// table at `tid.idx()`.
    fn declare_table(&mut self, d: TableDecl) {
        let tid = self.ids.intern(&d.name);
        debug_assert_eq!(
            tid.idx(),
            self.tables.len(),
            "table ids are assigned in creation order"
        );
        if self.watch_names.contains(&d.name) {
            self.watch_ids.insert(tid);
        }
        self.decls.insert(d.name.clone(), d.clone());
        self.tables.push(Table::new(d));
    }

    /// This runtime's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Virtual time of the last tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of ticks executed.
    pub fn ticks(&self) -> u64 {
        self.tick_count
    }

    /// Set the per-tick derivation budget (guards against diverging
    /// recursion through arithmetic).
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Enable or disable tracing of *every* derivation (experiment E7's
    /// monitoring toggle). `watch`ed tables are always traced.
    pub fn set_trace_all(&mut self, on: bool) {
        self.trace_all = on;
    }

    /// Register a host-provided builtin function.
    pub fn register_builtin<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.builtins.register(name, f);
    }

    /// Load an Overlog program, merging its declarations and rules with
    /// everything loaded before. Facts are queued for the next tick.
    pub fn load(&mut self, src: &str) -> Result<()> {
        let prog = parse_program(src)?;
        // Merge declarations first so facts and rules can target them.
        for stmt in &prog.statements {
            match stmt {
                Statement::Define(d) => {
                    if let Some(existing) = self.decls.get(&d.name) {
                        if !existing.same_schema(d) {
                            return Err(OverlogError::Redefinition {
                                table: d.name.clone(),
                                span: d.span,
                            });
                        }
                    } else {
                        self.declare_table(d.clone());
                    }
                }
                Statement::Timer {
                    name,
                    interval_ms,
                    span,
                } => {
                    if !self.decls.contains_key(name) {
                        self.declare_table(TableDecl {
                            name: name.clone(),
                            keys: None,
                            types: vec![TypeTag::Int],
                            kind: TableKind::Event,
                            span: *span,
                        });
                    } else {
                        let d = &self.decls[name];
                        if d.kind != TableKind::Event || d.arity() != 1 {
                            return Err(OverlogError::Redefinition {
                                table: name.clone(),
                                span: *span,
                            });
                        }
                    }
                    self.timers.push(TimerState {
                        tid: self.ids.get(name).expect("timer table declared above"),
                        interval: *interval_ms,
                        next: 0,
                    });
                }
                _ => {}
            }
        }
        // Watches: validated after the declaration pass so a watch may
        // precede its table's define in the same source.
        for stmt in &prog.statements {
            if let Statement::Watch { table, span } = stmt {
                if !self.decls.contains_key(table) {
                    return Err(OverlogError::UnknownTable {
                        table: table.clone(),
                        rule: None,
                        span: *span,
                    });
                }
                self.watch(table);
            }
        }
        // Facts: constant-fold and queue.
        for stmt in &prog.statements {
            if let Statement::Fact {
                table,
                values,
                span,
            } = stmt
            {
                if !self.decls.contains_key(table) {
                    return Err(OverlogError::UnknownTable {
                        table: table.clone(),
                        rule: None,
                        span: *span,
                    });
                }
                let mut row = Vec::with_capacity(values.len());
                for e in values {
                    let mut vars = Vec::new();
                    e.collect_vars(&mut vars);
                    if !vars.is_empty() || matches!(e, crate::ast::Expr::Wildcard) {
                        return Err(OverlogError::UnsafeRule {
                            rule: format!("fact {table}"),
                            var: vars.into_iter().next().unwrap_or_else(|| "_".into()),
                            span: *span,
                        });
                    }
                    let ce = plan::compile_fact_expr(e);
                    row.push(eval_cexpr(&ce, &[], &self.builtins)?);
                }
                *self.fact_counts.entry(table.clone()).or_default() += 1;
                let tid = self.ids.get(table).expect("declared tables are interned");
                self.pending.push_back(Pending::Insert(tid, Arc::new(row)));
            }
        }
        // Rules: append and recompile the whole plan.
        let before = self.rule_sources.len();
        self.rule_sources.extend(prog.rules().cloned());
        match self.recompile() {
            Ok(p) => {
                self.plan = Arc::new(p);
                self.rule_stats
                    .resize(self.plan.rules.len(), RuleStats::default());
                self.shard_stats.resize(
                    self.plan.rules.len(),
                    vec![ShardStats::default(); self.plan_opts.shards.max(1)],
                );
                self.build_indexes();
                self.sources.push(src.to_string());
                self.source_rule_spans
                    .push((before, self.rule_sources.len() - before));
                self.refresh_durable_ids();
                self.refresh_tap_ids();
                Ok(())
            }
            Err(e) => {
                self.rule_sources.truncate(before);
                // Restore the previous (still valid) plan.
                self.plan = Arc::new(self.recompile().expect("previous plan compiled before"));
                Err(e)
            }
        }
    }

    /// Remove the most recent load of `src`: its rules leave the plan (and
    /// their [`RuleStats`]/[`ShardStats`] slots go with them — rule ids are
    /// dense indexes, so surviving rules' counters shift down in lockstep
    /// with their new ids, never pointing at a removed rule's numbers).
    /// This is the uninstall half of dynamic metaprogramming: monitors and
    /// standing subscriptions install rules with [`OverlogRuntime::load`]
    /// and retire them here.
    ///
    /// Declarations, facts, timers and watches contributed by the source
    /// are kept — tables have dense ids and cannot be removed; use
    /// [`OverlogRuntime::unwatch`] and [`OverlogRuntime::clear_table`] to
    /// retire a generated table's watch and contents. Returns `Ok(false)`
    /// when no load of `src` exists. On a recompile error (a later load's
    /// rules depended on this source's derivations) the rules are restored
    /// and the runtime is unchanged.
    pub fn unload(&mut self, src: &str) -> Result<bool> {
        let Some(i) = self.sources.iter().rposition(|s| s == src) else {
            return Ok(false);
        };
        let (start, len) = self.source_rule_spans[i];
        let removed: Vec<Rule> = self.rule_sources.drain(start..start + len).collect();
        match self.recompile() {
            Ok(p) => {
                self.plan = Arc::new(p);
                // Drop the removed rules' stats slots so the dense
                // rule-id indexing stays aligned (the stale-stats fix).
                if start + len <= self.rule_stats.len() {
                    self.rule_stats.drain(start..start + len);
                }
                if start + len <= self.shard_stats.len() {
                    self.shard_stats.drain(start..start + len);
                }
                self.rule_stats
                    .resize(self.plan.rules.len(), RuleStats::default());
                self.shard_stats.resize(
                    self.plan.rules.len(),
                    vec![ShardStats::default(); self.plan_opts.shards.max(1)],
                );
                self.sources.remove(i);
                self.source_rule_spans.remove(i);
                for span in &mut self.source_rule_spans[i..] {
                    span.0 -= len;
                }
                self.build_indexes();
                self.refresh_durable_ids();
                self.refresh_tap_ids();
                Ok(true)
            }
            Err(e) => {
                // Splice the rules back where they were; the previous plan
                // compiled before, so this recompile cannot fail.
                self.rule_sources.splice(start..start, removed);
                self.plan = Arc::new(self.recompile().expect("previous plan compiled before"));
                Err(e)
            }
        }
    }

    /// Empty a table's rows from the host (retiring a generated
    /// observation table after [`OverlogRuntime::unload`]). Durable and
    /// tapped tables log the removals; views depending on the table are
    /// rebuilt. Returns the number of rows removed.
    pub fn clear_table(&mut self, name: &str) -> Result<usize> {
        let Some(tid) = self.ids.get(name) else {
            return Ok(0);
        };
        let old: Vec<Row> = self.tables[tid.idx()].scan().cloned().collect();
        if old.is_empty() {
            return Ok(0);
        }
        if self.durable_ids.contains(tid) {
            self.commit_log
                .extend(old.iter().map(|r| (tid, r.clone(), CommitOp::Delete)));
        }
        if self.tap_ids.contains(tid) {
            let (tick, now) = (self.tick_count, self.now);
            self.tap_log.extend(
                old.iter()
                    .map(|r| (tid, r.clone(), CommitOp::Delete, tick, now)),
            );
        }
        let n = old.len();
        self.tables[tid.idx()].clear();
        if self.plan.view_inputs.contains(tid) || self.plan.neg_view_inputs.contains(tid) {
            self.recompute_all_views()?;
        }
        Ok(n)
    }

    fn recompile(&mut self) -> Result<Plan> {
        // Any plan replacement shifts rule ids and maintenance strategies;
        // the Counting support counts accumulated under the old plan are
        // meaningless under the new one.
        self.maint_support.clear();
        plan::compile_with(
            &self.decls,
            &self.rule_sources,
            &self.fact_counts,
            self.plan_opts,
            &mut self.ids,
        )
    }

    /// Eagerly build every secondary index the plan's scans probe, so
    /// tick-path lookups go through `&self` (zero-copy candidate slices)
    /// instead of creating indexes lazily under `&mut self`.
    fn build_indexes(&mut self) {
        let plan = Arc::clone(&self.plan);
        for rule in plan.rules.iter() {
            for variant in &rule.variants {
                for op in &variant.ops {
                    let (tid, cols) = match op {
                        Op::Scan {
                            tid, index_cols, ..
                        }
                        | Op::NegScan {
                            tid, index_cols, ..
                        } => (tid, index_cols),
                        _ => continue,
                    };
                    if !cols.is_empty() {
                        self.tables[tid.idx()].ensure_index(cols);
                    }
                }
            }
        }
        // Typed `i64` twins for the column sets the compiled kernels
        // probe as all-`int`. Built *after* the generic pass above so
        // each twin clones its bucket order from the generic index it
        // mirrors (see [`Table::ensure_int_index`]).
        for rule in plan.rules.iter() {
            for variant in &rule.variants {
                let Some(kernel) = &variant.kernel else {
                    continue;
                };
                for kop in &kernel.ops {
                    let (tid, cols, int_probe) = match kop {
                        KOp::Scan {
                            tid,
                            index_cols,
                            int_probe,
                            ..
                        }
                        | KOp::NegScan {
                            tid,
                            index_cols,
                            int_probe,
                            ..
                        } => (tid, index_cols, *int_probe),
                        _ => continue,
                    };
                    if int_probe && !cols.is_empty() {
                        self.tables[tid.idx()].ensure_int_index(cols);
                    }
                }
            }
        }
    }

    /// Set the analysis-driven planner options (see
    /// [`plan::PlanOptions`]) and recompile the plan. Table contents are
    /// untouched, so hosts can flip options mid-run to A/B the optimizer.
    pub fn set_plan_options(&mut self, opts: plan::PlanOptions) {
        self.plan_opts = opts;
        let p = self.recompile().expect("loaded sources compiled before");
        self.plan = Arc::new(p);
        self.rule_stats
            .resize(self.plan.rules.len(), RuleStats::default());
        // Shard counters are keyed by the new shard count: reset them.
        self.shard_stats =
            vec![vec![ShardStats::default(); self.plan_opts.shards.max(1)]; self.plan.rules.len()];
        self.build_indexes();
    }

    /// The planner options currently in effect.
    pub fn plan_options(&self) -> plan::PlanOptions {
        self.plan_opts
    }

    /// Queue an external insertion for the next tick.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        let tid = self
            .ids
            .get(table)
            .ok_or_else(|| OverlogError::unknown_table(table))?;
        self.tables[tid.idx()].typecheck(&row)?;
        self.host_inserted.insert(table.to_string());
        self.pending.push_back(Pending::Insert(tid, row));
        Ok(())
    }

    /// Queue an external deletion for the next tick.
    pub fn delete(&mut self, table: &str, row: Row) -> Result<()> {
        let tid = self
            .ids
            .get(table)
            .ok_or_else(|| OverlogError::unknown_table(table))?;
        self.host_inserted.insert(table.to_string());
        self.pending.push_back(Pending::Delete(tid, row));
        Ok(())
    }

    /// Deliver a network tuple (same queue as [`OverlogRuntime::insert`]).
    pub fn deliver(&mut self, net: &NetTuple) -> Result<()> {
        self.insert(&net.table, net.row.clone())
    }

    /// Whether any external work is queued (used by hosts to decide whether
    /// a tick is needed).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.ids.get(name).map(|tid| &self.tables[tid.idx()])
    }

    /// Sorted rows of a table (empty when the table is unknown).
    pub fn rows(&self, name: &str) -> Vec<Row> {
        self.table(name)
            .map(|t| t.sorted_rows())
            .unwrap_or_default()
    }

    /// Number of rows in a table.
    pub fn count(&self, name: &str) -> usize {
        self.table(name).map(|t| t.len()).unwrap_or(0)
    }

    /// Add a watch on a table at runtime. Unknown names are remembered:
    /// the watch takes effect if the table is declared later.
    pub fn watch(&mut self, table: &str) {
        if let Some(tid) = self.ids.get(table) {
            self.watch_ids.insert(tid);
        }
        self.watch_names.insert(table.to_string());
    }

    /// Remove a watch added by [`OverlogRuntime::watch`] or a loaded
    /// `watch(t);` statement — the revert half `uninstall_monitor` needs.
    /// Returns whether the table was watched.
    pub fn unwatch(&mut self, table: &str) -> bool {
        let was = self.watch_names.remove(table);
        if was {
            self.watch_ids.clear();
            for name in &self.watch_names {
                if let Some(tid) = self.ids.get(name) {
                    self.watch_ids.insert(tid);
                }
            }
        }
        was
    }

    /// Attach a *delta tap* to a materialized table: from now on every
    /// committed change to it (insert, retraction of an overwritten row,
    /// deletion, view shrink/regrow) is appended to the tap log for
    /// [`OverlogRuntime::take_tap_delta`] to drain. This is the serving
    /// tier's capture mechanism: cost is proportional to the table's
    /// churn, zero for untapped tables (one bitset test), and zero when no
    /// taps exist. Returns `false` for unknown or event tables (events
    /// clear every tick; subscribe to a view over them instead).
    pub fn add_tap(&mut self, table: &str) -> bool {
        match self.ids.get(table) {
            Some(tid) if !self.tables[tid.idx()].is_event() => {
                self.tap_names.insert(table.to_string());
                self.tap_ids.insert(tid);
                true
            }
            _ => false,
        }
    }

    /// Detach a delta tap. Already-captured records stay in the log until
    /// drained. Returns whether the table was tapped.
    pub fn remove_tap(&mut self, table: &str) -> bool {
        let was = self.tap_names.remove(table);
        if was {
            self.refresh_tap_ids();
        }
        was
    }

    /// Whether any table is tapped.
    pub fn taps_enabled(&self) -> bool {
        !self.tap_ids.is_empty()
    }

    /// Names of the tapped tables, sorted.
    pub fn tapped_tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self.tap_names.iter().cloned().collect();
        out.sort();
        out
    }

    /// Drain the tap records captured since the last drain, in commit
    /// order. Empty (and free) unless taps are attached.
    pub fn take_tap_delta(&mut self) -> Vec<TapRecord> {
        self.tap_log
            .drain(..)
            .map(|(tid, row, op, tick, time)| TapRecord {
                table: self.ids.name(tid).to_string(),
                row,
                op,
                tick,
                time,
            })
            .collect()
    }

    /// Recompile `tap_names` into the hot-path id set (event tables are
    /// ineligible; unknown names wait for their declaration).
    fn refresh_tap_ids(&mut self) {
        self.tap_ids.clear();
        for name in &self.tap_names {
            if let Some(tid) = self.ids.get(name) {
                if !self.tables[tid.idx()].is_event() {
                    self.tap_ids.insert(tid);
                }
            }
        }
    }

    /// Drain the accumulated trace, discarding the drop counter. Prefer
    /// [`OverlogRuntime::drain_trace`], which reports losses.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.drain_trace().events
    }

    /// Drain the accumulated trace together with the number of records the
    /// ring buffer evicted since the last drain; resets the drop counter.
    pub fn drain_trace(&mut self) -> TraceDrain {
        TraceDrain {
            events: self.trace.drain(..).collect(),
            dropped: std::mem::take(&mut self.trace_dropped),
        }
    }

    /// Records evicted from the trace ring buffer since the last drain.
    pub fn trace_drops(&self) -> u64 {
        self.trace_dropped
    }

    /// Resize the trace ring buffer (evicting oldest records if shrinking).
    pub fn set_trace_cap(&mut self, cap: usize) {
        self.trace_cap = cap.max(1);
        while self.trace.len() > self.trace_cap {
            self.trace.pop_front();
            self.trace_dropped += 1;
        }
    }

    /// Enable or disable why-provenance capture (off by default; costs one
    /// `(table, row)` clone per joined body tuple while on). Switching it
    /// on rebuilds every view once, so view rows derived before capture
    /// began get their first witness too (incremental maintenance never
    /// re-derives a row that stays put).
    pub fn set_provenance(&mut self, on: bool) -> Result<()> {
        let was_on = std::mem::replace(&mut self.prov_on, on);
        if on && !was_on {
            self.recompute_all_views()?;
        }
        Ok(())
    }

    /// Cap on retained provenance records; derivations past the cap are
    /// counted in [`OverlogRuntime::prov_drops`] instead of stored.
    pub fn set_prov_cap(&mut self, cap: usize) {
        self.prov_cap = cap;
    }

    /// Provenance records captured so far, in derivation order.
    pub fn provenance(&self) -> &[ProvRecord] {
        &self.prov
    }

    /// Derivations not recorded because the provenance store hit its cap.
    pub fn prov_drops(&self) -> u64 {
        self.prov_dropped
    }

    /// Drain captured provenance, resetting the first-witness set and drop
    /// counter (subsequent derivations are recorded afresh).
    pub fn take_provenance(&mut self) -> Vec<ProvRecord> {
        self.prov_seen.clear();
        self.prov_dropped = 0;
        std::mem::take(&mut self.prov)
    }

    /// Per-rule derivation counters, labeled.
    pub fn rule_fire_counts(&self) -> Vec<(String, u64)> {
        self.plan
            .rules
            .iter()
            .map(|r| (r.label.clone(), self.rule_stats[r.id].fires))
            .collect()
    }

    /// Per-rule profiler counters, labeled (see [`RuleStats`]).
    pub fn rule_stats(&self) -> Vec<(String, RuleStats)> {
        self.plan
            .rules
            .iter()
            .map(|r| (r.label.clone(), self.rule_stats[r.id]))
            .collect()
    }

    /// Per-rule, per-shard profiler counters, labeled (see
    /// [`ShardStats`]). Every rule reports `PlanOptions::shards.max(1)`
    /// entries; rules that never took the sharded path report zeros.
    pub fn shard_stats(&self) -> Vec<(String, Vec<ShardStats>)> {
        self.plan
            .rules
            .iter()
            .map(|r| {
                let per =
                    self.shard_stats.get(r.id).cloned().unwrap_or_else(|| {
                        vec![ShardStats::default(); self.plan_opts.shards.max(1)]
                    });
                (r.label.clone(), per)
            })
            .collect()
    }

    /// Tick-granularity evaluation counters.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// Program texts successfully loaded so far, in load order.
    pub fn loaded_sources(&self) -> &[String] {
        &self.sources
    }

    /// All declared tables, including runtime-ambient ones.
    pub fn table_decls(&self) -> impl Iterator<Item = &TableDecl> {
        self.decls.values()
    }

    /// Tables currently watched, sorted.
    pub fn watched_tables(&self) -> Vec<String> {
        let mut w: Vec<String> = self.watch_names.iter().cloned().collect();
        w.sort();
        w
    }

    /// Head tables of loaded non-delete rules (tables the program derives
    /// into), sorted and deduplicated.
    pub fn derived_tables(&self) -> Vec<String> {
        let mut ts: Vec<String> = self
            .plan
            .rules
            .iter()
            .filter(|r| !r.delete)
            .map(|r| r.head_table.clone())
            .collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.plan.rules.len()
    }

    /// Statically analyze everything loaded so far (the `olgcheck` pass,
    /// without executing anything): every load-time check plus the lint
    /// suite. Tables the host has inserted into are treated as externally
    /// filled. Returns the diagnostics; see
    /// [`OverlogRuntime::check_with_sources`] to render them.
    pub fn check(&self) -> Vec<Diagnostic> {
        self.check_with_sources().0
    }

    /// Like [`OverlogRuntime::check`], also returning the [`SourceMap`]
    /// needed to render diagnostics with file/line/column positions.
    pub fn check_with_sources(&self) -> (Vec<Diagnostic>, SourceMap) {
        let mut ctx = analysis::ProgramContext::new();
        for d in analysis::ProgramContext::runtime_ambient() {
            ctx.add_ambient(d);
        }
        let mut map = SourceMap::new();
        for (i, src) in self.sources.iter().enumerate() {
            ctx.add_source(&format!("loaded#{i}"), src, &mut map);
        }
        for t in &self.host_inserted {
            ctx.mark_external(t);
        }
        (analysis::analyze(&ctx), map)
    }

    /// Tick repeatedly (at the same virtual time) until no queued or
    /// inductively-deferred work remains, collecting all network sends.
    /// Bounded; errors if the program does not quiesce within 64 ticks.
    /// Mark every eligible table durable: committed deltas of non-event,
    /// non-view tables (except the ambient `me` fact, which the
    /// constructor recreates) are appended to the commit log for the host
    /// to persist. Call after loading programs; later `load`s keep the
    /// marking current.
    pub fn set_durable_all(&mut self) {
        self.durable_mode = DurableMode::All;
        self.refresh_durable_ids();
    }

    /// Mark just the named tables durable (ineligible or unknown names are
    /// ignored; see [`OverlogRuntime::set_durable_all`] for eligibility).
    pub fn set_durable_tables(&mut self, names: &[&str]) {
        self.durable_mode = DurableMode::Named(names.iter().map(|s| s.to_string()).collect());
        self.refresh_durable_ids();
    }

    /// Whether any table is marked durable.
    pub fn durable_enabled(&self) -> bool {
        !self.durable_ids.is_empty()
    }

    /// Names of the tables currently marked durable, sorted.
    pub fn durable_tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .durable_ids
            .iter()
            .map(|tid| self.ids.name(tid).to_string())
            .collect();
        out.sort();
        out
    }

    /// Recompile `durable_mode` into the hot-path id set. Views are
    /// excluded — they are derived state, rebuilt from the restored bases
    /// by [`OverlogRuntime::restore`] — as are event tables (one-tick
    /// lifetime) and `me` (identity, recreated by the constructor and
    /// wrong to ship between nodes in a snapshot).
    fn refresh_durable_ids(&mut self) {
        self.durable_ids.clear();
        if self.durable_mode == DurableMode::Off {
            return;
        }
        for (i, t) in self.tables.iter().enumerate() {
            let tid = TableId(i as u32);
            if t.is_event() || self.plan.view_tables.contains(tid) || t.name() == "me" {
                continue;
            }
            // Observation-plane tables (monitor rowcounts, subscription
            // views) are never durable: they are rebuilt by re-installing
            // the monitor / re-subscribing, and keeping them out of the
            // WAL keeps its bytes identical with and without observers.
            if is_observation_table(t.name()) {
                continue;
            }
            let wanted = match &self.durable_mode {
                DurableMode::Off => false,
                DurableMode::All => true,
                DurableMode::Named(names) => names.iter().any(|n| n == t.name()),
            };
            if wanted {
                self.durable_ids.insert(tid);
            }
        }
    }

    /// Drain the committed deltas captured since the last drain — the
    /// host appends these to its write-ahead log. Empty (and free) unless
    /// durable tables are marked.
    pub fn take_commit_delta(&mut self) -> Vec<CommitRecord> {
        self.commit_log
            .drain(..)
            .map(|(tid, row, op)| CommitRecord {
                table: self.ids.name(tid).to_string(),
                row,
                op,
            })
            .collect()
    }

    /// Register a monotonically increasing host counter builtin: `name()`
    /// returns `base, base+1, ...`. Unlike [`register_builtin`] closures,
    /// tracked counters are captured in snapshots and restored with
    /// durable state, so physically recovered runtimes do not re-issue
    /// identifiers.
    ///
    /// [`register_builtin`]: OverlogRuntime::register_builtin
    pub fn register_counter(&mut self, name: &str, base: i64) {
        let cell = Arc::new(AtomicI64::new(base));
        let in_builtin = Arc::clone(&cell);
        self.builtins.register(name, move |_args| {
            Ok(Value::Int(in_builtin.fetch_add(1, Ordering::Relaxed)))
        });
        self.counters.retain(|(n, _)| n != name);
        self.counters.push((name.to_string(), cell));
    }

    /// Current values of all tracked counters (the next value each will
    /// return), in registration order.
    pub fn counter_values(&self) -> Vec<(String, i64)> {
        self.counters
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Set a tracked counter's next value (unknown names are ignored).
    pub fn set_counter(&mut self, name: &str, value: i64) {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            c.store(value, Ordering::Relaxed);
        }
    }

    /// Snapshot the durable tables and tracked counters — the checkpoint
    /// a host pairs with write-ahead-log truncation. Deterministic: tables
    /// and rows are sorted.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let mut tables: Vec<(String, Vec<Row>)> = self
            .durable_ids
            .iter()
            .map(|tid| {
                let t = &self.tables[tid.idx()];
                (t.name().to_string(), t.sorted_rows())
            })
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        RuntimeSnapshot {
            tables,
            counters: self.counter_values(),
        }
    }

    /// Recover durable state into a factory-fresh runtime: apply the
    /// queued load-time facts directly (so the first tick cannot overwrite
    /// restored singletons with boot defaults), install the checkpoint
    /// snapshot, physically replay the write-ahead log, set the tracked
    /// counters to their recovered values, and rebuild every view over the
    /// restored bases. Returns the number of snapshot and log rows
    /// applied. Nothing here re-enters the commit log: restored state
    /// becomes durable again only via the next checkpoint.
    pub fn restore(
        &mut self,
        snapshot: Option<&RuntimeSnapshot>,
        log: &[CommitRecord],
        counters: &[(String, i64)],
    ) -> Result<usize> {
        // 1. Drain load-time facts without running rules.
        let work: Vec<Pending> = self.pending.drain(..).collect();
        for p in work {
            match p {
                Pending::Insert(tid, row) => {
                    let t = &mut self.tables[tid.idx()];
                    let row = t.coerce(row);
                    t.insert(row)?;
                }
                Pending::Delete(tid, row) => {
                    self.tables[tid.idx()].delete(&row);
                }
            }
        }
        let mut applied = 0usize;
        // 2. Install the checkpoint snapshot (clear-and-load per table).
        if let Some(snap) = snapshot {
            for (name, rows) in &snap.tables {
                let Some(tid) = self.ids.get(name) else {
                    continue;
                };
                let t = &mut self.tables[tid.idx()];
                t.clear();
                for row in rows {
                    let row = t.coerce(row.clone());
                    t.insert(row)?;
                    applied += 1;
                }
            }
            for (name, v) in &snap.counters {
                self.set_counter(name, *v);
            }
        }
        // 3. Physically replay the log (key-overwrite makes this exact).
        for rec in log {
            let Some(tid) = self.ids.get(&rec.table) else {
                continue;
            };
            let t = &mut self.tables[tid.idx()];
            match rec.op {
                CommitOp::Insert => {
                    let row = t.coerce(rec.row.clone());
                    t.insert(row)?;
                }
                CommitOp::Delete => {
                    t.delete(&rec.row);
                }
            }
            applied += 1;
        }
        // 4. Final counter values (the last batch's capture wins).
        for (name, v) in counters {
            self.set_counter(name, *v);
        }
        // 5. Derived state follows from the bases.
        self.recompute_all_views()?;
        // Tap records captured before the crash (or emitted by the restore
        // rebuild) describe a stream the restored runtime does not
        // continue — drop them; the serving tier resynchronizes
        // subscribers with a fresh snapshot instead.
        self.tap_log.clear();
        Ok(applied)
    }

    /// Install rows shipped from a peer (snapshot catch-up): clear each
    /// named table, load the rows, log them as durable inserts so the
    /// transfer itself reaches this node's write-ahead log, then rebuild
    /// views. Event and view tables are skipped — only base state can be
    /// installed. Returns rows installed.
    pub fn load_snapshot_rows(&mut self, tables: &[(String, Vec<Row>)]) -> Result<usize> {
        let mut applied = 0usize;
        for (name, rows) in tables {
            let Some(tid) = self.ids.get(name) else {
                continue;
            };
            if self.tables[tid.idx()].is_event() || self.plan.view_tables.contains(tid) {
                continue;
            }
            // The clear must reach the log too, or a later physical replay
            // would resurrect rows the install removed.
            if self.durable_ids.contains(tid) {
                let old: Vec<Row> = self.tables[tid.idx()].scan().cloned().collect();
                self.commit_log
                    .extend(old.into_iter().map(|r| (tid, r, CommitOp::Delete)));
            }
            if self.tap_ids.contains(tid) {
                let (tick, now) = (self.tick_count, self.now);
                let old: Vec<Row> = self.tables[tid.idx()].scan().cloned().collect();
                self.tap_log.extend(
                    old.into_iter()
                        .map(|r| (tid, r, CommitOp::Delete, tick, now)),
                );
            }
            self.tables[tid.idx()].clear();
            for row in rows {
                let t = &mut self.tables[tid.idx()];
                let row = t.coerce(row.clone());
                t.insert(row.clone())?;
                if self.durable_ids.contains(tid) {
                    self.commit_log.push((tid, row.clone(), CommitOp::Insert));
                }
                if self.tap_ids.contains(tid) {
                    self.tap_log
                        .push((tid, row, CommitOp::Insert, self.tick_count, self.now));
                }
                applied += 1;
            }
        }
        self.recompute_all_views()?;
        Ok(applied)
    }

    /// Force a full rebuild of every view table from current base state.
    /// Rebuilding is idempotent (views are deterministic functions of
    /// their inputs), so this never changes observable state — but it
    /// *does* seed views installed after their inputs were already
    /// populated, and tapped views report the rebuild as an exact diff.
    /// The serving tier calls this right after installing a standing
    /// query so the tap stream opens with the query's initial contents.
    pub fn refresh_views(&mut self) -> Result<()> {
        self.recompute_all_views()
    }

    /// Rebuild every view table from the current base state.
    fn recompute_all_views(&mut self) -> Result<()> {
        let affected = self.plan.view_tables.clone();
        if affected.is_empty() {
            return Ok(());
        }
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(self.tables.len());
        let res = self.recompute_views(&affected, &mut ctx);
        self.scratch = ctx;
        res
    }

    pub fn settle(&mut self, now: u64) -> Result<Vec<NetTuple>> {
        let mut sends = Vec::new();
        for _ in 0..64 {
            let res = self.tick(now)?;
            sends.extend(res.sends);
            if !self.has_pending() {
                return Ok(sends);
            }
        }
        Err(OverlogError::Eval(
            "settle: runtime did not quiesce within 64 ticks".into(),
        ))
    }

    /// Execute one timestep at virtual time `now`.
    pub fn tick(&mut self, now: u64) -> Result<TickResult> {
        self.now = now;
        let plan = Arc::clone(&self.plan);
        let ntables = self.tables.len();
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(ntables);

        // 1. Fire due timers.
        for t in &mut self.timers {
            if now >= t.next {
                self.pending.push_back(Pending::Insert(
                    t.tid,
                    Arc::new(vec![Value::Int(now as i64)]),
                ));
                t.next = now + t.interval;
            }
        }

        // 2. Apply externally queued work.
        let mut pre_dirty = false;
        let mut work = std::mem::take(&mut self.pending);
        for p in work.drain(..) {
            match p {
                Pending::Insert(tid, row) => {
                    self.apply_insert(tid, row, false, &mut ctx)?;
                }
                Pending::Delete(tid, row) => {
                    if self.tables[tid.idx()].delete(&row) {
                        ctx.changed_tables.insert(tid);
                        if self.durable_ids.contains(tid) {
                            self.commit_log.push((tid, row.clone(), CommitOp::Delete));
                        }
                        if self.tap_ids.contains(tid) {
                            self.tap_log.push((
                                tid,
                                row.clone(),
                                CommitOp::Delete,
                                self.tick_count,
                                self.now,
                            ));
                        }
                        self.record_trace(tid, &row, TraceOp::Delete);
                        if plan.view_inputs.contains(tid) {
                            pre_dirty = true;
                            ctx.shrink_dirty.insert(tid);
                            if plan.options.maintenance {
                                ctx.m_del[tid.idx()].push(row.clone());
                            }
                        }
                    }
                }
            }
        }
        self.pending = work;
        if pre_dirty {
            let affected = self.affected_views(&ctx.shrink_dirty, &ctx.grow_dirty);
            if plan.options.maintenance {
                self.update_views(&affected, &mut ctx, false)?;
            } else {
                self.recompute_views(&affected, &mut ctx)?;
            }
            ctx.shrink_dirty.clear();
            ctx.grow_dirty.clear();
        }

        // 3. Stratified semi-naive fixpoint. A round's delta for table `t`
        // is the log slice `ctx.added[t][cursor[t]..hi[t]]` — no cloning.
        for (stratum, stratum_delta) in plan.strata.iter().zip(&plan.strata_delta) {
            // Aggregates and body-less rules run once, at stratum entry.
            for &rid in stratum {
                let rule = &plan.rules[rid];
                if rule.aggregate {
                    // Inductive aggregates (event-fed, materialized head)
                    // run after the fixpoint: their outputs only become
                    // visible next tick anyway, and their event inputs may
                    // still be derived within this stratum.
                    if rule.inductive {
                        continue;
                    }
                    let inputs_changed = rule
                        .positive_tids
                        .iter()
                        .any(|t| ctx.changed_tables.contains(*t));
                    if inputs_changed && !self.scoped_aggregate(rule, &mut ctx)? {
                        self.eval_aggregate(rule, &mut ctx)?;
                    }
                } else if rule.variants[0].delta_pred.is_none() {
                    let t0 = std::time::Instant::now();
                    let (rows, sups) =
                        self.eval_variant(rule, &rule.variants[0], None, &mut ctx.eval)?;
                    if self.kernel_active(&rule.variants[0]) {
                        self.rule_stats[rid].kernel_evals += 1;
                    }
                    self.rule_stats[rid].eval_ns += t0.elapsed().as_nanos() as u64;
                    self.dispatch(rule, rows, sups, &mut ctx)?;
                }
            }
            // Seed the stratum with everything added so far this tick:
            // rewinding the cursors makes the whole log the first delta.
            // Rounds are driven by the plan's delta index: only the tables
            // some variant in this stratum consumes can extend the
            // fixpoint (rows logged for any other table are invisible
            // here and are picked up by later strata, which rewind the
            // cursors again), so `hi`/`cursor` maintenance and the
            // dirty-check touch just those tables, and only the variants
            // whose delta slice is non-empty run — sorted back to the
            // `(rule id, variant)` sweep order so derivation order (and
            // with it key-overwrite conflict resolution) is unchanged.
            ctx.cursor.iter_mut().for_each(|c| *c = 0);
            loop {
                let mut any = false;
                for (t, _) in stratum_delta {
                    ctx.hi[*t] = ctx.added[*t].len();
                    any |= ctx.cursor[*t] < ctx.hi[*t];
                }
                if !any {
                    break;
                }
                self.eval_stats.fixpoint_rounds += 1;
                // New round, new delta slices: drop the vectorized gate
                // groups built over the previous round's slices.
                ctx.gates.clear();
                ctx.pairs.clear();
                for (t, variants) in stratum_delta {
                    if ctx.cursor[*t] < ctx.hi[*t] {
                        ctx.pairs
                            .extend(variants.iter().map(|&(rid, vi)| (rid, vi, *t)));
                    }
                }
                ctx.pairs.sort_unstable();
                let mut pairs = std::mem::take(&mut ctx.pairs);
                for &(rid, vi, dt) in &pairs {
                    let rule = &plan.rules[rid];
                    let variant = &rule.variants[vi];
                    let (lo, hi) = (ctx.cursor[dt], ctx.hi[dt]);
                    self.rule_stats[rid].delta_in += (hi - lo) as u64;
                    // Delta-gate, vectorized: rows failing the scheduled
                    // delta scan's literal checks are rejected by that
                    // scan before any expression runs, so pruning them
                    // up front is observationally identical (see
                    // [`Variant::delta_gate`]). The round's slice is
                    // grouped once per gated column and shared by every
                    // variant gating on it — the protocol-dispatch
                    // pattern where dozens of handler rules disagree
                    // only on a literal discriminator column.
                    let mut pruned: Option<Vec<Row>> = None;
                    if !variant.delta_gate.is_empty() {
                        match gate_select(
                            &mut ctx.gates,
                            &ctx.added[dt][lo..hi],
                            dt,
                            &variant.delta_gate,
                            plan.options.kernels,
                        ) {
                            GateOutcome::Skip => continue,
                            GateOutcome::Full => {}
                            GateOutcome::Rows(rows) => pruned = Some(rows),
                        }
                    }
                    let delta: &[Row] = match &pruned {
                        Some(rows) => rows,
                        None => &ctx.added[dt][lo..hi],
                    };
                    let t0 = std::time::Instant::now();
                    // Shard-safe variants with a large enough delta fan out
                    // across worker threads; everything else (serial
                    // verdicts, small deltas, provenance capture) takes the
                    // ordinary serial call. Both paths produce byte-identical
                    // outputs: the sharded path concatenates contiguous
                    // delta-range results back in delta-log order before
                    // dispatching.
                    let (rows, sups) = if plan.options.shards > 1
                        && delta.len() >= SHARD_MIN_DELTA_ROWS
                        && !self.prov_on
                        && plan.shard.shard_key(rid, vi).is_some()
                    {
                        let (rows, per_shard) =
                            self.eval_variant_sharded(rule, variant, delta, plan.options.shards)?;
                        for (slot, s) in self.shard_stats[rid].iter_mut().zip(&per_shard) {
                            slot.delta_in += s.delta_in;
                            slot.rows_out += s.rows_out;
                            slot.eval_ns += s.eval_ns;
                        }
                        (rows, None)
                    } else {
                        self.eval_variant(rule, variant, Some(delta), &mut ctx.eval)?
                    };
                    if self.kernel_active(variant) {
                        self.rule_stats[rid].kernel_evals += 1;
                    }
                    // Stop the eval clock before dispatch: insert and
                    // index bookkeeping is shared by every engine and
                    // would dilute the per-rule evaluation attribution
                    // the kernel A/B (E15) and `boomtrace profile` read.
                    self.rule_stats[rid].eval_ns += t0.elapsed().as_nanos() as u64;
                    self.dispatch(rule, rows, sups, &mut ctx)?;
                }
                pairs.clear();
                ctx.pairs = pairs;
                // Rows appended during this round (beyond the `hi`
                // snapshot) become the next round's delta.
                for (t, _) in stratum_delta {
                    ctx.cursor[*t] = ctx.hi[*t];
                }
            }
        }

        // 3b. Inductive aggregates, now that all event derivations settled.
        for rule in plan.rules.iter().filter(|r| r.aggregate && r.inductive) {
            let inputs_changed = rule
                .positive_tids
                .iter()
                .any(|t| ctx.changed_tables.contains(*t));
            if inputs_changed {
                self.eval_aggregate(rule, &mut ctx)?;
            }
        }

        // 4. Apply deferred deletions.
        let mut deletions = 0usize;
        let deferred = std::mem::take(&mut ctx.deferred_deletes);
        for (tid, row) in &deferred {
            if !ctx.delete_seen.insert((*tid, row.clone())) {
                continue;
            }
            if self.tables[tid.idx()].delete(row) {
                deletions += 1;
                if self.durable_ids.contains(*tid) {
                    self.commit_log.push((*tid, row.clone(), CommitOp::Delete));
                }
                if self.tap_ids.contains(*tid) {
                    self.tap_log.push((
                        *tid,
                        row.clone(),
                        CommitOp::Delete,
                        self.tick_count,
                        self.now,
                    ));
                }
                self.record_trace(*tid, row, TraceOp::Delete);
                if plan.view_inputs.contains(*tid) {
                    ctx.shrink_dirty.insert(*tid);
                    if plan.options.maintenance {
                        ctx.m_del[tid.idx()].push(row.clone());
                    }
                }
            }
        }
        ctx.deferred_deletes = deferred;

        // 5. Clear event tables (skipping the untouched ones: `clear` on a
        // pooled hash map costs its capacity, not its length).
        for t in &mut self.tables {
            if t.is_event() && !t.is_empty() {
                t.clear();
            }
        }

        // 6. Propagate retractions into the affected views if any input
        // shrank (or a negated input of a non-monotonic view grew):
        // incrementally where the maintenance analysis certified a
        // strategy, by full recomputation otherwise. With maintenance on
        // this pass always runs, because Counting views must consume their
        // sources' insert logs every tick to keep support counts valid.
        let affected = self.affected_views(&ctx.shrink_dirty, &ctx.grow_dirty);
        let views_recomputed = !affected.is_empty();
        if plan.options.maintenance {
            self.update_views(&affected, &mut ctx, true)?;
        } else if views_recomputed {
            self.recompute_views(&affected, &mut ctx)?;
        }

        // 7. Queue inductive insertions for the next tick.
        for (tid, row) in ctx.deferred_inserts.drain(..) {
            self.pending.push_back(Pending::Insert(tid, row));
        }

        self.tick_count += 1;
        self.eval_stats.ticks += 1;
        for send in &ctx.outbox {
            if let Some(tid) = self.ids.get(&send.table) {
                self.record_trace(tid, &send.row, TraceOp::Send);
            }
        }
        let result = TickResult {
            sends: std::mem::take(&mut ctx.outbox),
            derivations: ctx.derivations,
            deletions,
            views_recomputed,
        };
        // Return the workspace to the pool so next tick reuses its buffers.
        self.scratch = ctx;
        Ok(result)
    }

    /// Insert a derived or external row into a local table; reports
    /// whether the insert was new, a key-overwrite, or a duplicate.
    fn apply_insert(
        &mut self,
        tid: TableId,
        row: Row,
        from_view_rule: bool,
        ctx: &mut TickCtx,
    ) -> Result<InsertOutcome> {
        let t = &mut self.tables[tid.idx()];
        // Deltas must hold exactly what the table holds (Addr coercion).
        let row = t.coerce(row);
        let outcome = t.insert(row.clone())?;
        match &outcome {
            InsertOutcome::New => {
                ctx.added[tid.idx()].push(row.clone());
                ctx.changed_tables.insert(tid);
                if self.durable_ids.contains(tid) {
                    self.commit_log.push((tid, row.clone(), CommitOp::Insert));
                }
                if self.tap_ids.contains(tid) && !self.tap_suspended {
                    self.tap_log.push((
                        tid,
                        row.clone(),
                        CommitOp::Insert,
                        self.tick_count,
                        self.now,
                    ));
                }
                self.record_trace(tid, &row, TraceOp::Insert);
                if self.plan.options.maintenance && self.plan.view_inputs.contains(tid) {
                    ctx.m_add[tid.idx()].push(row.clone());
                }
                // Negation is non-monotone: growing a table that appears
                // negated in a view rule can retract view tuples, so it
                // dirties views exactly like a deletion would — even when
                // the insert itself came from a view rule (one view can
                // feed another's negation).
                if self.plan.neg_view_inputs.contains(tid) {
                    ctx.grow_dirty.insert(tid);
                }
            }
            InsertOutcome::Replaced(old) => {
                ctx.added[tid.idx()].push(row.clone());
                ctx.changed_tables.insert(tid);
                if self.durable_ids.contains(tid) {
                    self.commit_log.push((tid, row.clone(), CommitOp::Insert));
                }
                if self.tap_ids.contains(tid) && !self.tap_suspended {
                    // Retraction semantics: the overwritten row leaves the
                    // table, so subscribers see an explicit Delete first.
                    self.tap_log.push((
                        tid,
                        old.clone(),
                        CommitOp::Delete,
                        self.tick_count,
                        self.now,
                    ));
                    self.tap_log.push((
                        tid,
                        row.clone(),
                        CommitOp::Insert,
                        self.tick_count,
                        self.now,
                    ));
                }
                self.record_trace(tid, &row, TraceOp::Insert);
                if self.plan.options.maintenance && self.plan.view_inputs.contains(tid) {
                    ctx.m_del[tid.idx()].push(old.clone());
                    ctx.m_add[tid.idx()].push(row.clone());
                }
                // A key-overwrite removes a tuple other derivations may have
                // consumed: views over this table must be rebuilt — unless
                // the overwrite came from a view rule itself (aggregates
                // refreshing their groups), which is self-consistent.
                // Negated inputs dirty unconditionally (see above).
                if !from_view_rule && self.plan.view_inputs.contains(tid) {
                    ctx.shrink_dirty.insert(tid);
                }
                if self.plan.neg_view_inputs.contains(tid) {
                    ctx.grow_dirty.insert(tid);
                }
            }
            InsertOutcome::Duplicate => {}
        }
        Ok(outcome)
    }

    fn record_trace(&mut self, tid: TableId, row: &Row, op: TraceOp) {
        if self.trace_all || self.watch_ids.contains(tid) {
            if self.trace.len() >= self.trace_cap {
                self.trace.pop_front();
                self.trace_dropped += 1;
            }
            self.trace.push_back(TraceEvent {
                tick: self.tick_count,
                time: self.now,
                table: self.ids.name(tid).to_string(),
                row: row.clone(),
                op,
            });
        }
    }

    /// First-witness why-provenance: remember which rule and body tuples
    /// produced `row` the first time it was derived.
    fn record_prov(&mut self, rule: &CompiledRule, row: &Row, inputs: &[(String, Row)]) {
        if !self.prov_on {
            return;
        }
        let key = (rule.head_tid, row.clone());
        if self.prov_seen.contains(&key) {
            return;
        }
        if self.prov.len() >= self.prov_cap {
            self.prov_dropped += 1;
            return;
        }
        self.prov_seen.insert(key);
        self.prov.push(ProvRecord {
            tick: self.tick_count,
            time: self.now,
            rule: rule.label.clone(),
            table: rule.head_table.clone(),
            row: row.clone(),
            inputs: inputs.to_vec(),
        });
    }

    /// Route derived rows for a rule: remote sends, deferred deletes, or
    /// local insertion. `supports[i]` (when provenance is on) holds the
    /// positive body tuples behind `rows[i]`.
    fn dispatch(
        &mut self,
        rule: &CompiledRule,
        rows: Vec<Row>,
        supports: Option<Vec<Vec<(String, Row)>>>,
        ctx: &mut TickCtx,
    ) -> Result<()> {
        for (i, row) in rows.into_iter().enumerate() {
            ctx.attempts += 1;
            self.rule_stats[rule.id].attempts += 1;
            if ctx.attempts > self.budget {
                return Err(OverlogError::Eval(format!(
                    "derivation budget exceeded in tick {} (rule `{}`)",
                    self.tick_count, rule.label
                )));
            }
            let inputs: &[(String, Row)] = supports
                .as_ref()
                .and_then(|s| s.get(i))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
            if rule.delete {
                ctx.derivations += 1;
                self.rule_stats[rule.id].fires += 1;
                ctx.deferred_deletes.push((rule.head_tid, row));
                continue;
            }
            if let Some(loc) = rule.head_loc {
                let dest = match &row[loc] {
                    Value::Addr(a) | Value::Str(a) => a.clone(),
                    other => {
                        return Err(OverlogError::Eval(format!(
                            "rule `{}`: location specifier is not an address: {other}",
                            rule.label
                        )))
                    }
                };
                if dest != self.addr {
                    // Set semantics: ship each distinct remote tuple once
                    // per tick, even if semi-naive re-derives it.
                    if ctx.sent.insert((dest.clone(), rule.head_tid, row.clone())) {
                        ctx.derivations += 1;
                        self.rule_stats[rule.id].fires += 1;
                        self.record_prov(rule, &row, inputs);
                        ctx.outbox.push(NetTuple {
                            dest,
                            table: rule.head_table.clone(),
                            row,
                        });
                    }
                    continue;
                }
            }
            if rule.inductive {
                // Dedalus-style induction: the update lands at the start of
                // the next timestep, so this tick's rules all read a
                // consistent pre-state.
                let key = (rule.head_tid, row.clone());
                if ctx.deferred_seen.insert(key) {
                    ctx.derivations += 1;
                    self.rule_stats[rule.id].fires += 1;
                    self.record_prov(rule, &row, inputs);
                    ctx.deferred_inserts.push((rule.head_tid, row));
                }
                continue;
            }
            // Effectiveness comes straight from the insert outcome: a new
            // row or a key-overwrite fires the rule, a duplicate does not.
            let outcome = self.apply_insert(rule.head_tid, row.clone(), rule.is_view, ctx)?;
            if !matches!(outcome, InsertOutcome::Duplicate) {
                ctx.derivations += 1;
                self.rule_stats[rule.id].fires += 1;
                self.record_prov(rule, &row, inputs);
            }
        }
        Ok(())
    }

    /// Evaluate one rule variant; returns projected head rows plus (when
    /// provenance capture is on) the body tuples behind each row.
    ///
    /// `delta_rows == None` makes the delta predicate read its full table
    /// (used for body-less variants, aggregates, and view recomputation).
    /// Takes `&self` — indexes are prebuilt, so the delta slice can borrow
    /// the tick context while tables are probed in place. `scratch` holds
    /// the pooled environment and probe-key buffers: most evaluations
    /// derive nothing, and with pooling they allocate nothing either.
    #[allow(clippy::type_complexity)]
    fn eval_variant(
        &self,
        rule: &CompiledRule,
        variant: &Variant,
        delta_rows: Option<&[Row]>,
        scratch: &mut EvalScratch,
    ) -> Result<(Vec<Row>, Option<Vec<Vec<(String, Row)>>>)> {
        // Kernelized variants bypass the environment machinery entirely
        // unless provenance capture needs the interpreted path's support
        // tracking. Both paths visit the same candidates in the same
        // order and emit the same rows — the kernel compiler mirrors
        // this function exactly (enforced by `tests/engine_equiv.rs`).
        if let Some(kernel) = &variant.kernel {
            if self.plan.options.kernels && !self.prov_on {
                return Ok((self.eval_kernel(kernel, delta_rows, scratch)?, None));
            }
        }
        let mut envs: Vec<Vec<Option<Value>>> = Vec::new();
        let EvalScratch {
            env, probe_vals, ..
        } = scratch;
        env.clear();
        env.resize(rule.nslots, None);
        let mut sup = SupportSink::new(self.prov_on);
        self.exec_ops(
            rule,
            &variant.ops,
            0,
            variant.delta_pred,
            delta_rows,
            env,
            &mut envs,
            &mut sup,
            probe_vals,
        )?;
        // Project heads (non-aggregate rules only reach here).
        let mut out = Vec::with_capacity(envs.len());
        for env in &envs {
            let mut row = Vec::with_capacity(rule.head_args.len());
            for arg in &rule.head_args {
                match arg {
                    CHeadArg::Expr(e) => row.push(eval_cexpr(e, env, &self.builtins)?),
                    CHeadArg::Agg(_, _) => {
                        return Err(OverlogError::Eval(format!(
                            "internal: aggregate rule `{}` evaluated as plain rule",
                            rule.label
                        )))
                    }
                }
            }
            out.push(Arc::new(row));
        }
        // Emission order follows the delta's arrival order (the outermost
        // ready dimension): within-tick key overwrites keep last-writer-wins
        // along the event stream. Inner join dimensions come from hash-map
        // lookups, so their relative order carries no semantics with or
        // without planner reordering.
        Ok((out, sup.into_supports()))
    }

    /// Is `variant` currently executed through its compiled kernel?
    /// Callers use this to attribute `RuleStats::kernel_evals`.
    fn kernel_active(&self, variant: &Variant) -> bool {
        variant.kernel.is_some() && self.plan.options.kernels && !self.prov_on
    }

    /// Evaluate a compiled kernel: the monomorphic twin of
    /// [`Self::eval_variant`]'s interpreted walk. Candidate selection,
    /// recheck exemption and emission order mirror the interpreter
    /// exactly; the wins are no per-row environment writes, direct
    /// column addressing, and `i64`-keyed join probes where column
    /// types allow ([`crate::table::Table::lookup_int`]).
    fn eval_kernel(
        &self,
        kernel: &Kernel,
        delta_rows: Option<&[Row]>,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<Row>> {
        let EvalScratch {
            probe_vals,
            int_vals,
            kregs,
            ..
        } = scratch;
        kregs.clear();
        kregs.resize(kernel.regs, Value::Null);
        // The level stack borrows candidate rows straight out of the
        // tables (and the delta slice): one small allocation per kernel
        // evaluation instead of an `Arc` clone per scanned row.
        let mut klevels: Vec<&Row> = Vec::with_capacity(kernel.ops.len());
        let mut out = Vec::new();
        self.exec_kops(
            kernel,
            0,
            delta_rows,
            &mut klevels,
            kregs,
            &mut out,
            probe_vals,
            int_vals,
        )?;
        Ok(out)
    }

    /// Recursive nested-loop execution of a kernel's op sequence — the
    /// compiled mirror of [`Self::exec_ops`]. `levels` is the
    /// candidate-row stack (one row per scan depth); `regs` the
    /// assignment registers.
    #[allow(clippy::too_many_arguments)]
    fn exec_kops<'a>(
        &'a self,
        kernel: &Kernel,
        oi: usize,
        delta_rows: Option<&'a [Row]>,
        levels: &mut Vec<&'a Row>,
        regs: &mut Vec<Value>,
        out: &mut Vec<Row>,
        probe_vals: &mut Vec<Value>,
        int_vals: &mut Vec<i64>,
    ) -> Result<()> {
        if oi == kernel.ops.len() {
            let mut row = Vec::with_capacity(kernel.head.len());
            for e in &kernel.head {
                row.push(keval(e, levels, regs)?);
            }
            out.push(Arc::new(row));
            return Ok(());
        }
        match &kernel.ops[oi] {
            KOp::Assign(r, e) => {
                regs[*r] = keval(e, levels, regs)?;
                self.exec_kops(
                    kernel,
                    oi + 1,
                    delta_rows,
                    levels,
                    regs,
                    out,
                    probe_vals,
                    int_vals,
                )
            }
            KOp::Filter(e) => {
                if ktruthy(e, levels, regs)? {
                    self.exec_kops(
                        kernel,
                        oi + 1,
                        delta_rows,
                        levels,
                        regs,
                        out,
                        probe_vals,
                        int_vals,
                    )?;
                }
                Ok(())
            }
            KOp::NegScan {
                tid,
                arity,
                index_cols,
                probes,
                int_probe,
                const_checks,
                checks,
            } => {
                let (cands, exact) = self.kcandidates(
                    *tid, index_cols, probes, *int_probe, levels, regs, probe_vals, int_vals,
                )?;
                'rows: for row in cands {
                    if row.len() != *arity {
                        continue;
                    }
                    for (i, v) in const_checks {
                        if row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    for ch in checks {
                        if exact && ch.indexed {
                            continue;
                        }
                        if !kcheck(ch, row, levels, regs)? {
                            continue 'rows;
                        }
                    }
                    // A match refutes the negation: prune this path.
                    return Ok(());
                }
                self.exec_kops(
                    kernel,
                    oi + 1,
                    delta_rows,
                    levels,
                    regs,
                    out,
                    probe_vals,
                    int_vals,
                )
            }
            KOp::Scan {
                tid,
                level: _,
                arity,
                is_delta,
                index_cols,
                probes,
                int_probe,
                const_checks,
                checks,
            } => {
                let use_delta = *is_delta && delta_rows.is_some();
                let (cands, exact) = if use_delta {
                    (
                        Candidates::Slice(delta_rows.expect("use_delta implies delta_rows").iter()),
                        false,
                    )
                } else {
                    self.kcandidates(
                        *tid, index_cols, probes, *int_probe, levels, regs, probe_vals, int_vals,
                    )?
                };
                // In tail position the scan emits heads inline — no
                // recursion frame per matched row on the innermost (and
                // hottest) join level.
                let tail = oi + 1 == kernel.ops.len();
                'rows: for row in cands {
                    if row.len() != *arity {
                        continue;
                    }
                    for (i, v) in const_checks {
                        if row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    // Stack the row, then check: duplicate-variable
                    // patterns reference same-row columns (the
                    // interpreter binds before checking for the same
                    // reason).
                    levels.push(row);
                    let mut ok = true;
                    for ch in checks {
                        if exact && ch.indexed {
                            continue;
                        }
                        if !kcheck(ch, row, levels, regs)? {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        if tail {
                            let mut hrow = Vec::with_capacity(kernel.head.len());
                            for e in &kernel.head {
                                hrow.push(keval(e, levels, regs)?);
                            }
                            out.push(Arc::new(hrow));
                        } else {
                            self.exec_kops(
                                kernel,
                                oi + 1,
                                delta_rows,
                                levels,
                                regs,
                                out,
                                probe_vals,
                                int_vals,
                            )?;
                        }
                    }
                    levels.pop();
                }
                Ok(())
            }
        }
    }

    /// Candidate rows for a kernel scan — [`Self::candidates`] with the
    /// typed fast path in front: when every probed column is declared
    /// `int` *and* every runtime probe value is an `int`, the lookup
    /// hashes raw `i64`s through the typed twin index. The typed bucket
    /// holds the same rows in the same order as the generic one (see
    /// [`Table::ensure_int_index`]), and int columns never coerce, so
    /// the bucket is recheck-exempt exactly when the generic path's
    /// would be.
    #[allow(clippy::too_many_arguments)]
    fn kcandidates(
        &self,
        tid: TableId,
        index_cols: &[usize],
        probes: &[KExpr],
        int_probe: bool,
        levels: &[&Row],
        regs: &[Value],
        probe_vals: &mut Vec<Value>,
        int_vals: &mut Vec<i64>,
    ) -> Result<(Candidates<'_>, bool)> {
        let t = &self.tables[tid.idx()];
        if index_cols.is_empty() {
            return Ok((t.all_candidates(), false));
        }
        probe_vals.clear();
        if let [KExpr::Operand(op)] = probes {
            // Single-operand probe — the dominant join shape. Resolve by
            // borrow and hash the raw `i64` straight into the typed
            // single-column index: no `Value` clone, no probe-tuple
            // staging.
            let v = kresolve(op, levels, regs);
            if int_probe {
                if let Value::Int(k) = v {
                    int_vals.clear();
                    int_vals.push(*k);
                    if let Some(bucket) = t.lookup_int(index_cols, int_vals) {
                        return Ok((Candidates::Slice(bucket.iter()), true));
                    }
                }
            }
            probe_vals.push(v.clone());
        } else {
            for p in probes {
                probe_vals.push(keval(p, levels, regs)?);
            }
            if int_probe && probe_vals.iter().all(|v| matches!(v, Value::Int(_))) {
                int_vals.clear();
                int_vals.extend(probe_vals.iter().filter_map(Value::as_int));
                if let Some(bucket) = t.lookup_int(index_cols, int_vals) {
                    return Ok((Candidates::Slice(bucket.iter()), true));
                }
            }
        }
        // Fallback lattice, middle rung: a non-int runtime value (or a
        // missing typed index) probes the generic `Value`-keyed index,
        // identically to the interpreter.
        let coerced = t.coerce_probe(index_cols, probe_vals);
        let (cands, bucket) = t.candidates(index_cols, probe_vals);
        Ok((cands, bucket && !coerced))
    }

    /// Evaluate a shard-safe variant by splitting the delta slice into
    /// contiguous ranges over `nshards` worker threads (see
    /// [`crate::analysis::shard`]).
    ///
    /// The shard-safety pass certifies that the variant's per-delta-row
    /// evaluations are independent (co-partitioned on the head key, or
    /// closed under broadcasting the small probe relations) — which means
    /// *any* assignment of delta rows to workers produces the same row
    /// set. The shared-memory runtime picks the assignment that costs
    /// nothing to undo: contiguous delta ranges, one [`Self::eval_variant`]
    /// call per worker, concatenated back in range order. Because the
    /// planner always schedules the delta scan outermost, serial
    /// evaluation emits rows in delta-arrival order, so the concatenation
    /// is byte-identical to the serial output at every shard count — and
    /// dispatch (which stays serial; within-tick key overwrites are
    /// last-writer-wins along that order) sees the same row sequence. A
    /// distributed deployment would hash-partition on the verdict's key
    /// instead; the verdict is what certifies both placements.
    fn eval_variant_sharded(
        &self,
        rule: &CompiledRule,
        variant: &Variant,
        delta: &[Row],
        nshards: usize,
    ) -> Result<(Vec<Row>, Vec<ShardStats>)> {
        let chunk = delta.len().div_ceil(nshards);
        let eval_chunk = |slice: &[Row]| {
            let t0 = std::time::Instant::now();
            let mut scratch = EvalScratch::default();
            let res = self
                .eval_variant(rule, variant, Some(slice), &mut scratch)
                .map(|(rows, _)| rows);
            (res, slice.len(), t0.elapsed().as_nanos() as u64)
        };
        // Shard 0 runs on the calling thread, overlapping the spawned
        // workers — one fewer thread spawn per call, which is most of the
        // fan-out overhead at small deltas.
        let results: Vec<(Result<Vec<Row>>, usize, u64)> = std::thread::scope(|scope| {
            let mut chunks = delta.chunks(chunk);
            let first = chunks.next().expect("delta is non-empty");
            let handles: Vec<_> = chunks
                .map(|slice| scope.spawn(move || eval_chunk(slice)))
                .collect();
            let mut out = vec![eval_chunk(first)];
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked")),
            );
            out
        });
        // Errors surface in range order so failure reporting is stable.
        let mut stats = vec![ShardStats::default(); nshards];
        let mut rows = Vec::new();
        for (si, (res, delta_in, ns)) in results.into_iter().enumerate() {
            let mut r = res?;
            stats[si].delta_in += delta_in as u64;
            stats[si].rows_out += r.len() as u64;
            stats[si].eval_ns += ns;
            rows.append(&mut r);
        }
        Ok((rows, stats))
    }

    /// Recursive nested-loop execution of a scheduled op sequence.
    /// `probe_vals` is a shared probe-key scratch buffer: every index
    /// probe refills it in place instead of allocating a fresh `Vec`.
    #[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
    fn exec_ops(
        &self,
        rule: &CompiledRule,
        ops: &[Op],
        oi: usize,
        delta_pred: Option<usize>,
        delta_rows: Option<&[Row]>,
        env: &mut Vec<Option<Value>>,
        out: &mut Vec<Vec<Option<Value>>>,
        sup: &mut SupportSink,
        probe_vals: &mut Vec<Value>,
    ) -> Result<()> {
        if oi == ops.len() {
            out.push(env.clone());
            if sup.enabled {
                sup.out.push(sup.cur.clone());
            }
            return Ok(());
        }
        match &ops[oi] {
            Op::Assign(slot, e) => {
                let v = eval_cexpr(e, env, &self.builtins)?;
                let prev = env[*slot].replace(v);
                self.exec_ops(
                    rule,
                    ops,
                    oi + 1,
                    delta_pred,
                    delta_rows,
                    env,
                    out,
                    sup,
                    probe_vals,
                )?;
                env[*slot] = prev;
                Ok(())
            }
            Op::Filter(e) => {
                if eval_cexpr(e, env, &self.builtins)?.truthy() {
                    self.exec_ops(
                        rule,
                        ops,
                        oi + 1,
                        delta_pred,
                        delta_rows,
                        env,
                        out,
                        sup,
                        probe_vals,
                    )?;
                }
                Ok(())
            }
            Op::NegScan {
                tid,
                pats,
                index_cols,
                const_checks,
            } => {
                let matched = self.probe(*tid, index_cols, pats, const_checks, env, probe_vals)?;
                if !matched {
                    self.exec_ops(
                        rule,
                        ops,
                        oi + 1,
                        delta_pred,
                        delta_rows,
                        env,
                        out,
                        sup,
                        probe_vals,
                    )?;
                }
                Ok(())
            }
            Op::Scan {
                tid,
                pred_idx,
                pats,
                index_cols,
                bind_slots,
                const_checks,
            } => {
                let use_delta = delta_pred == Some(*pred_idx) && delta_rows.is_some();
                // Candidates are borrowed — a delta slice, an index bucket,
                // or the full table — never cloned into a scratch vector.
                // `exact` marks rows proven equal to the probe key on every
                // indexed column, whose checks can therefore be skipped.
                let (candidates, exact) = if use_delta {
                    (
                        Candidates::Slice(delta_rows.expect("use_delta implies delta_rows").iter()),
                        false,
                    )
                } else {
                    self.candidates(*tid, index_cols, pats, env, probe_vals)?
                };
                'rows: for row in candidates {
                    if row.len() != pats.len() {
                        continue;
                    }
                    // Literal checks first: reject a non-matching row with
                    // direct comparisons before touching the environment
                    // (comparing the literal equals evaluating its `Lit`).
                    for (i, v) in const_checks {
                        if row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    // Bind, then check (duplicate-variable patterns
                    // reference same-row binds).
                    for (val, pat) in row.iter().zip(pats) {
                        if let Pat::Bind(slot) = pat {
                            env[*slot] = Some(val.clone());
                        }
                    }
                    let mut ok = true;
                    for (i, (val, pat)) in row.iter().zip(pats).enumerate() {
                        if let Pat::Check(e) = pat {
                            if matches!(e, CExpr::Lit(_)) || (exact && index_cols.contains(&i)) {
                                continue;
                            }
                            if eval_cexpr(e, env, &self.builtins)? != *val {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        if sup.enabled {
                            sup.cur.push((self.ids.name(*tid).to_string(), row.clone()));
                        }
                        self.exec_ops(
                            rule,
                            ops,
                            oi + 1,
                            delta_pred,
                            delta_rows,
                            env,
                            out,
                            sup,
                            probe_vals,
                        )?;
                        if sup.enabled {
                            sup.cur.pop();
                        }
                    }
                    for s in bind_slots {
                        env[*s] = None;
                    }
                }
                Ok(())
            }
        }
    }

    /// Candidate rows for a scan: the prebuilt index over the plan's
    /// statically-bound check columns, or a full scan when there are none.
    /// The flag is true when the rows are an exact-match index bucket for
    /// an *uncoerced* probe — every indexed column of every returned row
    /// is already known equal to its check expression, so the caller can
    /// skip rechecking those columns. A coerced probe (`Str` widened to
    /// `Addr`) is excluded: the recheck compares the uncoerced value and
    /// is the binding semantics.
    fn candidates(
        &self,
        tid: TableId,
        index_cols: &[usize],
        pats: &[Pat],
        env: &[Option<Value>],
        vals: &mut Vec<Value>,
    ) -> Result<(Candidates<'_>, bool)> {
        let t = &self.tables[tid.idx()];
        if index_cols.is_empty() {
            return Ok((t.all_candidates(), false));
        }
        vals.clear();
        for &i in index_cols {
            let Pat::Check(e) = &pats[i] else {
                return Err(OverlogError::Eval(
                    "internal: index column is not a check pattern".into(),
                ));
            };
            vals.push(eval_cexpr(e, env, &self.builtins)?);
        }
        let coerced = t.coerce_probe(index_cols, vals);
        let (cands, bucket) = t.candidates(index_cols, vals);
        Ok((cands, bucket && !coerced))
    }

    /// Does any row match the (fully-bound) patterns?
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        tid: TableId,
        index_cols: &[usize],
        pats: &[Pat],
        const_checks: &[(usize, Value)],
        env: &[Option<Value>],
        vals: &mut Vec<Value>,
    ) -> Result<bool> {
        let (rows, exact) = self.candidates(tid, index_cols, pats, env, vals)?;
        'row: for row in rows {
            if row.len() != pats.len() {
                continue;
            }
            for (i, v) in const_checks {
                if row[*i] != *v {
                    continue 'row;
                }
            }
            for (i, (val, pat)) in row.iter().zip(pats).enumerate() {
                match pat {
                    Pat::Wild => {}
                    Pat::Check(e) => {
                        if matches!(e, CExpr::Lit(_)) || (exact && index_cols.contains(&i)) {
                            continue;
                        }
                        if eval_cexpr(e, env, &self.builtins)? != *val {
                            continue 'row;
                        }
                    }
                    Pat::Bind(_) => {
                        return Err(OverlogError::Eval(
                            "internal: bind pattern in negated scan".into(),
                        ))
                    }
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Full recomputation of an aggregate rule: evaluate the body, group,
    /// fold, and key-overwrite the head table.
    fn eval_aggregate(&mut self, rule: &CompiledRule, ctx: &mut TickCtx) -> Result<()> {
        let t0 = std::time::Instant::now();
        let variant = &rule.variants[0];
        let mut envs: Vec<Vec<Option<Value>>> = Vec::new();
        let EvalScratch {
            env, probe_vals, ..
        } = &mut ctx.eval;
        env.clear();
        env.resize(rule.nslots, None);
        // Aggregate provenance records empty inputs: the support of a fold
        // is the whole group, not a single join path.
        let mut sup = SupportSink::new(false);
        self.exec_ops(
            rule,
            &variant.ops,
            0,
            None,
            None,
            env,
            &mut envs,
            &mut sup,
            probe_vals,
        )?;
        let rows: Vec<Row> = self
            .fold_groups(rule, &envs)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        self.rule_stats[rule.id].eval_ns += t0.elapsed().as_nanos() as u64;
        self.dispatch(rule, rows, None, ctx)
    }

    /// Scoped aggregate evaluation: run the body with `anchor_rows` as the
    /// delta of the variant's anchor predicate (the remaining predicates
    /// join against live tables) and fold the resulting groups.
    fn eval_aggregate_scoped(
        &self,
        rule: &CompiledRule,
        variant: &Variant,
        anchor_rows: &[Row],
        scratch: &mut EvalScratch,
    ) -> Result<Vec<(Vec<Value>, Row)>> {
        let mut envs: Vec<Vec<Option<Value>>> = Vec::new();
        let EvalScratch {
            env, probe_vals, ..
        } = scratch;
        env.clear();
        env.resize(rule.nslots, None);
        let mut sup = SupportSink::new(false);
        self.exec_ops(
            rule,
            &variant.ops,
            0,
            variant.delta_pred,
            Some(anchor_rows),
            env,
            &mut envs,
            &mut sup,
            probe_vals,
        )?;
        self.fold_groups(rule, &envs)
    }

    /// Group and fold an aggregate rule's body environments into
    /// `(group key, head row)` pairs, sorted by group key for
    /// deterministic emission. The group key is the tuple of non-aggregate
    /// head columns, in head order.
    fn fold_groups(
        &self,
        rule: &CompiledRule,
        envs: &[Vec<Option<Value>>],
    ) -> Result<Vec<(Vec<Value>, Row)>> {
        #[derive(Clone)]
        enum Acc {
            Count(i64),
            Sum(Value),
            Min(Value),
            Max(Value),
            Avg(f64, i64),
            Set(std::collections::BTreeSet<Value>),
        }
        let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> = FxHashMap::default();
        for env in envs {
            let mut key = Vec::new();
            for arg in &rule.head_args {
                if let CHeadArg::Expr(e) = arg {
                    key.push(eval_cexpr(e, env, &self.builtins)?);
                }
            }
            let accs = groups.entry(key).or_insert_with(|| {
                rule.head_args
                    .iter()
                    .filter_map(|a| match a {
                        CHeadArg::Agg(k, _) => Some(match k {
                            AggKind::Count => Acc::Count(0),
                            AggKind::Sum => Acc::Sum(Value::Int(0)),
                            AggKind::Min => Acc::Min(Value::Null),
                            AggKind::Max => Acc::Max(Value::Null),
                            AggKind::Avg => Acc::Avg(0.0, 0),
                            AggKind::Set => Acc::Set(Default::default()),
                        }),
                        CHeadArg::Expr(_) => None,
                    })
                    .collect()
            });
            let mut ai = 0usize;
            for arg in &rule.head_args {
                if let CHeadArg::Agg(kind, slot) = arg {
                    let input = match slot {
                        Some(s) => env[*s].clone().ok_or_else(|| {
                            OverlogError::Eval(format!(
                                "aggregate input unbound in `{}`",
                                rule.label
                            ))
                        })?,
                        None => Value::Int(1),
                    };
                    match (&mut accs[ai], kind) {
                        (Acc::Count(c), AggKind::Count) => *c += 1,
                        (Acc::Sum(s), AggKind::Sum) => {
                            *s = add_values(s, &input)?;
                        }
                        (Acc::Min(mv), AggKind::Min) => {
                            if *mv == Value::Null || input < *mv {
                                *mv = input;
                            }
                        }
                        (Acc::Max(mv), AggKind::Max) => {
                            if *mv == Value::Null || input > *mv {
                                *mv = input;
                            }
                        }
                        (Acc::Set(set), AggKind::Set) => {
                            set.insert(input);
                        }
                        (Acc::Avg(sum, n), AggKind::Avg) => {
                            *sum += input.as_float().ok_or_else(|| {
                                OverlogError::Eval("avg over non-numeric value".into())
                            })?;
                            *n += 1;
                        }
                        _ => unreachable!("accumulator kinds align with head args"),
                    }
                    ai += 1;
                }
            }
        }
        // Deterministic emission order.
        let mut keys: Vec<Vec<Value>> = groups.keys().cloned().collect();
        keys.sort();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let accs = &groups[&key];
            let mut row = Vec::with_capacity(rule.head_args.len());
            let (mut ki, mut ai) = (0usize, 0usize);
            for arg in &rule.head_args {
                match arg {
                    CHeadArg::Expr(_) => {
                        row.push(key[ki].clone());
                        ki += 1;
                    }
                    CHeadArg::Agg(_, _) => {
                        row.push(match &accs[ai] {
                            Acc::Count(c) => Value::Int(*c),
                            Acc::Sum(s) => s.clone(),
                            Acc::Min(v) | Acc::Max(v) => v.clone(),
                            Acc::Avg(sum, n) => {
                                if *n == 0 {
                                    Value::Null
                                } else {
                                    Value::Float(sum / *n as f64)
                                }
                            }
                            Acc::Set(set) => Value::list(set.iter().cloned().collect()),
                        });
                        ai += 1;
                    }
                }
            }
            out.push((key, Arc::new(row)));
        }
        Ok(out)
    }

    /// Which view tables must be rebuilt, given the inputs that shrank
    /// (deletions, key-overwrites) and the negated inputs that grew.
    /// With scoping disabled this is all-or-nothing, the pre-analysis
    /// behavior; with scoping on, only views whose transitive dependency
    /// closure intersects the dirty set are affected — and growth skips
    /// the CALM-certified monotonic views entirely, because insertions
    /// were already propagated incrementally by the delta path.
    fn affected_views(&self, shrink: &IdSet, grow: &IdSet) -> IdSet {
        if shrink.is_empty() && grow.is_empty() {
            return IdSet::new();
        }
        if !self.plan.options.scoped_views {
            return self.plan.view_tables.clone();
        }
        let mut out = IdSet::new();
        for (&v, deps) in &self.plan.view_deps {
            let shrunk = shrink.contains(v) || deps.intersects(shrink);
            let grown = !self.plan.monotonic_views.contains(v)
                && (grow.contains(v) || deps.intersects(grow));
            if shrunk || grown {
                out.insert(v);
            }
        }
        out
    }

    /// Clear the `affected` view tables and re-derive them, treating every
    /// other materialized table (bases *and* unaffected views) as stable
    /// seed state. Uses the same cursor-over-log delta representation as
    /// `tick`, local to this call.
    fn recompute_views(&mut self, affected: &IdSet, ctx: &mut TickCtx) -> Result<()> {
        self.eval_stats.view_recomputes += 1;
        // A from-scratch rebuild severs the delta lineage the Counting
        // support counts were accumulated along; drop them (the next
        // maintenance round rebuilds the map from the rebuilt state).
        if !self.maint_support.is_empty() {
            for v in affected.iter() {
                self.maint_support.remove(&v);
            }
        }
        // Tapped views are about to be cleared and rebuilt wholesale;
        // snapshot them so the rebuild can be reported to subscribers as
        // an exact retract/insert diff (cost is bounded by the recompute
        // that is happening anyway).
        let tap_before: Vec<(TableId, Vec<Row>)> = if self.tap_ids.intersects(affected) {
            affected
                .iter()
                .filter(|v| self.tap_ids.contains(*v))
                .map(|v| (v, self.tables[v.idx()].sorted_rows()))
                .collect()
        } else {
            Vec::new()
        };
        for v in affected.iter() {
            self.tables[v.idx()].clear();
        }
        self.tap_suspended = !tap_before.is_empty();
        let res = self.rebuild_affected_views(affected, ctx);
        self.tap_suspended = false;
        res?;
        // Emit the rebuild diff for tapped views: rows that vanished are
        // retractions, rows that appeared are inserts (sorted merge over
        // the before/after snapshots).
        for (tid, before) in tap_before {
            let after = self.tables[tid.idx()].sorted_rows();
            let (tick, now) = (self.tick_count, self.now);
            let (mut i, mut j) = (0usize, 0usize);
            while i < before.len() || j < after.len() {
                match (before.get(i), after.get(j)) {
                    (Some(b), Some(a)) if b == a => {
                        i += 1;
                        j += 1;
                    }
                    (Some(b), Some(a)) if b < a => {
                        self.tap_log
                            .push((tid, b.clone(), CommitOp::Delete, tick, now));
                        i += 1;
                    }
                    (Some(_), Some(a)) => {
                        self.tap_log
                            .push((tid, a.clone(), CommitOp::Insert, tick, now));
                        j += 1;
                    }
                    (Some(b), None) => {
                        self.tap_log
                            .push((tid, b.clone(), CommitOp::Delete, tick, now));
                        i += 1;
                    }
                    (None, Some(a)) => {
                        self.tap_log
                            .push((tid, a.clone(), CommitOp::Insert, tick, now));
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        Ok(())
    }

    /// The rebuild loop of [`Self::recompute_views`], split out so tap
    /// suspension brackets every exit path (including `?` errors).
    fn rebuild_affected_views(&mut self, affected: &IdSet, ctx: &mut TickCtx) -> Result<()> {
        let plan = Arc::clone(&self.plan);
        let ntables = self.tables.len();
        // Seed: full contents of every materialized table that is not
        // being rebuilt *and* is actually consumed by an affected rule's
        // positive body. Negated bodies and aggregate inputs read the live
        // tables directly, so they need no seed rows; everything else is
        // dead weight in the delta logs.
        let mut needed = IdSet::new();
        for rule in plan.rules.iter() {
            if rule.is_view && !rule.aggregate && affected.contains(rule.head_tid) {
                for t in &rule.positive_tids {
                    needed.insert(*t);
                }
            }
        }
        let mut added: Vec<Vec<Row>> = vec![Vec::new(); ntables];
        let mut cursor = vec![0usize; ntables];
        let mut hi = vec![0usize; ntables];
        for (i, t) in self.tables.iter().enumerate() {
            let tid = TableId(i as u32);
            if t.is_event() || affected.contains(tid) || !needed.contains(tid) {
                continue;
            }
            added[i].extend(t.scan().cloned());
        }
        for stratum in &plan.strata {
            for &rid in stratum {
                let rule = &plan.rules[rid];
                if rule.is_view && rule.aggregate && affected.contains(rule.head_tid) {
                    // Recompute into the cleared table.
                    self.eval_agg_into(rule, &mut added, ctx)?;
                }
            }
            // Reseed each stratum with the cumulative log, as in `tick`.
            cursor.iter_mut().for_each(|c| *c = 0);
            loop {
                let mut any = false;
                for t in 0..ntables {
                    hi[t] = added[t].len();
                    any |= cursor[t] < hi[t];
                }
                if !any {
                    break;
                }
                for &rid in stratum {
                    let rule = &plan.rules[rid];
                    if !rule.is_view || rule.aggregate || !affected.contains(rule.head_tid) {
                        continue;
                    }
                    for variant in &rule.variants {
                        let Some(d) = variant.delta_pred else {
                            continue;
                        };
                        let dt = rule.positive_tids[d].idx();
                        let (lo, h) = (cursor[dt], hi[dt]);
                        if lo == h {
                            continue;
                        }
                        let (rows, sups) = self.eval_variant(
                            rule,
                            variant,
                            Some(&added[dt][lo..h]),
                            &mut ctx.eval,
                        )?;
                        for (i, row) in rows.into_iter().enumerate() {
                            ctx.derivations += 1;
                            if ctx.derivations > self.budget {
                                return Err(OverlogError::Eval(
                                    "derivation budget exceeded during view recomputation".into(),
                                ));
                            }
                            match self.tables[rule.head_tid.idx()].insert(row.clone())? {
                                InsertOutcome::New | InsertOutcome::Replaced(_) => {
                                    let inputs: &[(String, Row)] = sups
                                        .as_ref()
                                        .and_then(|s| s.get(i))
                                        .map(|v| v.as_slice())
                                        .unwrap_or(&[]);
                                    self.record_prov(rule, &row, inputs);
                                    added[rule.head_tid.idx()].push(row);
                                }
                                InsertOutcome::Duplicate => {}
                            }
                        }
                    }
                }
                cursor.copy_from_slice(&hi);
            }
        }
        Ok(())
    }

    /// Aggregate recomputation used inside `recompute_views`.
    fn eval_agg_into(
        &mut self,
        rule: &CompiledRule,
        added: &mut [Vec<Row>],
        ctx: &mut TickCtx,
    ) -> Result<()> {
        // Reuse eval_aggregate but capture its insertions via the pooled
        // sub-context (a fresh `TickCtx` per recompute would re-allocate
        // every per-table buffer each time a view aggregate rebuilds).
        let mut sub = std::mem::take(&mut self.agg_scratch);
        sub.reset(self.tables.len());
        self.eval_aggregate(rule, &mut sub)?;
        ctx.derivations += sub.derivations;
        for (i, rows) in sub.added.iter_mut().enumerate() {
            added[i].append(rows);
        }
        self.agg_scratch = sub;
        Ok(())
    }

    ///////////////////////////////////////////////////////////////////////
    // Incremental view maintenance (analysis-driven; strategies certified
    // by `crate::analysis::maint`, threaded through `Plan::maint`).
    ///////////////////////////////////////////////////////////////////////

    /// The maintenance replacement for [`Self::recompute_views`]: update
    /// each affected view in place from its inputs' per-tick delta logs
    /// where the analysis certified a strategy, and recompute the rest in
    /// one batch. Falling back never changes results — a maintained view
    /// and a recomputed view hold byte-identical rows — only cost.
    ///
    /// `final_drain` marks the end-of-tick call, which runs even with an
    /// empty affected set: Counting views must consume their sources'
    /// insert logs every tick to keep support counts complete.
    fn update_views(
        &mut self,
        affected: &IdSet,
        ctx: &mut TickCtx,
        final_drain: bool,
    ) -> Result<()> {
        let plan = Arc::clone(&self.plan);
        if affected.is_empty() && !final_drain {
            return Ok(());
        }
        // Split the affected set: strategy views are ordered topologically
        // (a view reading another view updates after it, so scoped
        // re-evaluation joins against settled upstream state); the rest
        // fall back immediately.
        let mut fallback = IdSet::new();
        let mut remaining: Vec<TableId> = Vec::new();
        for v in affected.iter() {
            if plan.maint.views.contains_key(&v) {
                remaining.push(v);
            } else {
                fallback.insert(v);
            }
        }
        remaining.sort_by_key(|&v| {
            let s = plan
                .table_stratum
                .get(self.ids.name(v))
                .copied()
                .unwrap_or(0);
            (s, v.idx())
        });
        let mut ordered = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut rest = Vec::new();
            let before = ordered.len();
            for &v in &remaining {
                let deps = plan.view_deps.get(&v);
                let blocked = remaining
                    .iter()
                    .any(|&w| w != v && deps.is_some_and(|d| d.contains(w)));
                if blocked {
                    rest.push(v);
                } else {
                    ordered.push(v);
                }
            }
            if ordered.len() == before {
                // Unreachable (strategy views are acyclic apart from
                // self-recursion, which the `w != v` test ignores; mutual
                // recursion disqualifies a strategy), but never loop on it.
                for v in rest {
                    fallback.insert(v);
                }
                break;
            }
            remaining = rest;
        }
        let mut maintained = 0u64;
        for v in ordered {
            // A source rebuilt from scratch leaves no delta lineage to
            // consume: views downstream of a fallback fall back with it.
            if plan
                .view_deps
                .get(&v)
                .is_some_and(|d| d.intersects(&fallback))
            {
                fallback.insert(v);
                continue;
            }
            let ok = match plan
                .maint
                .views
                .get(&v)
                .expect("ordered views have strategies")
            {
                ViewMaint::Counting { rules, sources } => {
                    self.maintain_counting(v, rules, sources, true, &plan, ctx)?
                }
                ViewMaint::GroupRecompute {
                    rule,
                    anchor,
                    sources,
                    group_cols,
                    key_map,
                } => self
                    .maintain_groups(v, *rule, anchor, sources, group_cols, key_map, &plan, ctx)?,
                ViewMaint::KeyRederive {
                    key_cols,
                    rules,
                    sources,
                } => self.maintain_keys(v, key_cols, rules, sources, &plan, ctx)?,
                ViewMaint::Dred { rules, sources } => {
                    self.maintain_dred(v, rules, sources, &plan, ctx)?
                }
            };
            if ok {
                maintained += 1;
            } else {
                fallback.insert(v);
            }
        }
        if maintained > 0 {
            self.eval_stats.maint_rounds += 1;
            self.eval_stats.views_maintained += maintained;
        }
        if !fallback.is_empty() {
            self.recompute_views(&fallback, ctx)?;
            // The rebuild subsumed everything in the fallback views' logs:
            // advance their marks past the logs, and recount Counting
            // supports from the rebuilt state so the next round maintains.
            for v in fallback.iter() {
                match plan.maint.views.get(&v) {
                    Some(ViewMaint::Counting { rules, sources }) => {
                        self.rebuild_support(v, rules, &plan, ctx)?;
                        self.advance_marks(v, sources.iter().copied(), ctx);
                    }
                    Some(ViewMaint::GroupRecompute { sources, .. })
                    | Some(ViewMaint::KeyRederive { sources, .. })
                    | Some(ViewMaint::Dred { sources, .. }) => {
                        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
                    }
                    None => {}
                }
            }
        }
        if final_drain {
            // Counting views not touched above still consume their insert
            // logs (support must count every derivation this tick made),
            // and deletions they were never asked to act on invalidate
            // them — the recompute engine would have left those rows stale
            // this tick, so acting here would diverge.
            for (&v, strat) in plan.maint.views.iter() {
                let ViewMaint::Counting { rules, sources } = strat else {
                    continue;
                };
                if affected.contains(v) {
                    continue;
                }
                self.maintain_counting(v, rules, sources, false, &plan, ctx)?;
            }
        }
        Ok(())
    }

    /// Maintain a Counting view: every derivation named by a source's
    /// delta log adjusts the derived row's support count by ±1; rows whose
    /// support appears are inserted, rows whose support drains to zero are
    /// deleted. With `act = false` (view not affected this round) the
    /// table is not touched — the semi-naive path already propagated the
    /// inserts — and only the counts advance.
    fn maintain_counting(
        &mut self,
        v: TableId,
        rules: &[(usize, usize)],
        sources: &[TableId],
        act: bool,
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        let Some(mut support) = self.maint_support.remove(&v) else {
            if act {
                // Invalid counts cannot drive deletions: fall back (the
                // recompute revalidates via `rebuild_support`).
                return Ok(false);
            }
            // Invalid and idle: stay invalid, just consume the logs.
            self.advance_marks(v, sources.iter().copied(), ctx);
            return Ok(true);
        };
        if !act {
            let deleted = sources.iter().any(|&s| {
                let (_, d0) = ctx.view_marks.get(&(v, s)).copied().unwrap_or((0, 0));
                ctx.m_del[s.idx()].len() > d0
            });
            if deleted {
                // A source shrank without dirtying this view (an aggregate
                // refreshed its own groups mid-tick): the recompute engine
                // leaves the stale rows until the view is next affected,
                // so the counts can no longer be kept truthful — drop them.
                self.advance_marks(v, sources.iter().copied(), ctx);
                return Ok(true);
            }
        }
        // Insert side first: a row that gains and loses a derivation in
        // the same tick never transits zero support.
        for (&(rid, vi), &s) in rules.iter().zip(sources) {
            let (a0, _) = ctx.view_marks.get(&(v, s)).copied().unwrap_or((0, 0));
            if ctx.m_add[s.idx()].len() == a0 {
                continue;
            }
            let rule = &plan.rules[rid];
            let (rows, sups) =
                self.eval_maint(rule, vi, &ctx.m_add[s.idx()][a0..], &mut ctx.eval)?;
            for (i, row) in rows.into_iter().enumerate() {
                *support.entry(row.clone()).or_insert(0) += 1;
                if act {
                    let inputs: &[(String, Row)] = sups
                        .as_ref()
                        .and_then(|sv| sv.get(i))
                        .map(|x| x.as_slice())
                        .unwrap_or(&[]);
                    self.maint_insert(v, rule, row, inputs, ctx)?;
                }
            }
        }
        for (&(rid, vi), &s) in rules.iter().zip(sources) {
            let (_, d0) = ctx.view_marks.get(&(v, s)).copied().unwrap_or((0, 0));
            if ctx.m_del[s.idx()].len() == d0 {
                continue;
            }
            let rule = &plan.rules[rid];
            let (rows, _) = self.eval_maint(rule, vi, &ctx.m_del[s.idx()][d0..], &mut ctx.eval)?;
            for row in rows {
                let n = support.entry(row.clone()).or_insert(0);
                *n -= 1;
                if *n <= 0 {
                    support.remove(&row);
                    if self.tables[v.idx()].delete(&row) {
                        self.log_maint_delete(v, &row, ctx);
                    }
                }
            }
        }
        self.advance_marks(v, sources.iter().copied(), ctx);
        self.maint_support.insert(v, support);
        Ok(true)
    }

    /// Maintain a GroupRecompute view: re-fold exactly the groups the
    /// delta logs touched, overwriting changed group rows and deleting
    /// emptied groups' rows by primary key.
    #[allow(clippy::too_many_arguments)]
    fn maintain_groups(
        &mut self,
        v: TableId,
        rid: usize,
        anchor: &AnchorEval,
        sources: &[SourceDep],
        group_cols: &[usize],
        key_map: &[usize],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        let Some(keys) = self.touched_keys(v, group_cols, sources, plan, ctx)? else {
            return Ok(false);
        };
        if keys.is_empty() {
            self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
            return Ok(true);
        }
        let t0 = std::time::Instant::now();
        let anchor_rows = self.collect_anchor_rows(anchor, keys.iter().map(Vec::as_slice));
        let rule = &plan.rules[rid];
        let pairs = self.eval_aggregate_scoped(
            rule,
            &rule.variants[anchor.variant],
            &anchor_rows,
            &mut ctx.eval,
        )?;
        self.rule_stats[rid].maint_evals += 1;
        self.rule_stats[rid].eval_ns += t0.elapsed().as_nanos() as u64;
        let mut pi = 0usize;
        for key in &keys {
            if pairs.get(pi).is_some_and(|(k, _)| k == key) {
                let row = pairs[pi].1.clone();
                pi += 1;
                self.maint_insert(v, rule, row, &[], ctx)?;
            } else {
                // The touched group is empty now: its head row is stale.
                let pk: Vec<Value> = key_map.iter().map(|&i| key[i].clone()).collect();
                if let Some(old) = self.tables[v.idx()].delete_by_key(&pk) {
                    self.log_maint_delete(v, &old, ctx);
                }
            }
        }
        debug_assert_eq!(pi, pairs.len(), "scoped fold produced an untouched group");
        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
        Ok(true)
    }

    /// Maintain a KeyRederive view: delete every touched key's row, then
    /// re-derive those keys rule by rule in rule order — the same
    /// key-overwrite conflict resolution a from-scratch rebuild applies.
    /// Only the net change is logged: a row deleted and re-derived
    /// unchanged is no change at all.
    fn maintain_keys(
        &mut self,
        v: TableId,
        key_cols: &[usize],
        anchors: &[AnchorEval],
        sources: &[SourceDep],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        let Some(keys) = self.touched_keys(v, key_cols, sources, plan, ctx)? else {
            return Ok(false);
        };
        if keys.is_empty() {
            self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
            return Ok(true);
        }
        let mut removed = Vec::new();
        let mut inserted = Vec::new();
        for key in &keys {
            if let Some(old) = self.tables[v.idx()].delete_by_key(key) {
                removed.push(old);
            }
        }
        for a in anchors {
            let anchor_rows = self.collect_anchor_rows(a, keys.iter().map(Vec::as_slice));
            if anchor_rows.is_empty() {
                continue;
            }
            let rule = &plan.rules[a.rule];
            let (rows, sups) = self.eval_maint(rule, a.variant, &anchor_rows, &mut ctx.eval)?;
            self.maint_put_all(v, rule, rows, sups, &mut removed, &mut inserted, ctx)?;
        }
        self.log_maint_diff(v, removed, inserted, ctx);
        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
        Ok(true)
    }

    /// Maintain a self-recursive view by delete-and-rederive (DRed;
    /// Gupta, Mumick and Subrahmanian, SIGMOD '93), in three phases:
    ///
    /// 1. *Over-delete*: the sources' deleted rows, run through the view's
    ///    delta variants against the still-complete view, name every row
    ///    they derived; the recursive variants then chase those rows'
    ///    consequences until nothing new is named. For `fqpath` this is
    ///    the subtree under the changed inode, and the rows leave the
    ///    table.
    /// 2. *Re-derive*: every over-deleted row is re-derived from what
    ///    remains, through each rule's anchor index.
    /// 3. *Insert*: re-derived rows and the sources' new rows propagate
    ///    semi-naively through the recursive variants to a fixpoint.
    ///
    /// No per-row bookkeeping survives the call. Only the net change is
    /// logged, so a row over-deleted and then re-derived never reaches
    /// taps or downstream delta logs. Returns `false` (fall back) when the
    /// round's dirt defeats phase 1's join against current state: a
    /// changed negated input, or deletions in two non-recursive predicates
    /// of one rule (a derivation through two deleted rows would escape).
    fn maintain_dred(
        &mut self,
        v: TableId,
        anchors: &[AnchorEval],
        sources: &[SourceDep],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<bool> {
        // The view's own logs hold its own derivations, which the fixpoint
        // already propagated: dirt comes from the other sources only.
        if Self::unbound_dirt_defeats(v, sources.iter().filter(|d| d.tid != v), ctx) {
            return Ok(false);
        }
        let dirty = sources.iter().any(|d| {
            let (a0, d0) = ctx.view_marks.get(&(v, d.tid)).copied().unwrap_or((0, 0));
            d.tid != v && (ctx.m_add[d.tid.idx()].len() > a0 || ctx.m_del[d.tid.idx()].len() > d0)
        });
        if !dirty {
            self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
            return Ok(true);
        }
        let recursive: Vec<(usize, usize)> = sources
            .iter()
            .filter(|d| d.tid == v)
            .filter_map(|d| d.variant.map(|vi| (d.rule, vi)))
            .collect();

        // 1. Over-delete. `removed` is append-only: its unread tail is the
        // next round's frontier.
        let mut over: FxHashSet<Row> = FxHashSet::default();
        let mut removed: Vec<Row> = Vec::new();
        for dep in sources.iter().filter(|d| d.tid != v) {
            let Some(vi) = dep.variant else { continue };
            let (_, d0) = ctx.view_marks.get(&(v, dep.tid)).copied().unwrap_or((0, 0));
            if ctx.m_del[dep.tid.idx()].len() == d0 {
                continue;
            }
            let rule = &plan.rules[dep.rule];
            let (rows, _) =
                self.eval_maint(rule, vi, &ctx.m_del[dep.tid.idx()][d0..], &mut ctx.eval)?;
            self.note_over_deleted(v, rows, &mut over, &mut removed);
        }
        let mut lo = 0;
        while lo < removed.len() {
            let hi = removed.len();
            for &(rid, vi) in &recursive {
                let (rows, _) =
                    self.eval_maint(&plan.rules[rid], vi, &removed[lo..hi], &mut ctx.eval)?;
                self.note_over_deleted(v, rows, &mut over, &mut removed);
            }
            lo = hi;
        }
        for row in &removed {
            self.tables[v.idx()].delete(row);
        }

        // 2. Re-derive the over-deleted rows through the anchors.
        let mut inserted: Vec<Row> = Vec::new();
        if !removed.is_empty() {
            for a in anchors {
                let anchor_rows = self.collect_anchor_rows(a, removed.iter().map(|r| r.as_slice()));
                if anchor_rows.is_empty() {
                    continue;
                }
                let rule = &plan.rules[a.rule];
                let (rows, sups) = self.eval_maint(rule, a.variant, &anchor_rows, &mut ctx.eval)?;
                self.maint_put_all(v, rule, rows, sups, &mut removed, &mut inserted, ctx)?;
            }
        }

        // 3. Insert: the sources' new rows that are still there (a row
        // added and then deleted in one tick derives nothing), then
        // everything that entered the view, semi-naively to a fixpoint
        // (`inserted` is the log).
        for dep in sources.iter().filter(|d| d.tid != v) {
            let Some(vi) = dep.variant else { continue };
            let (a0, _) = ctx.view_marks.get(&(v, dep.tid)).copied().unwrap_or((0, 0));
            let src = &self.tables[dep.tid.idx()];
            let live: Vec<Row> = ctx.m_add[dep.tid.idx()][a0..]
                .iter()
                .filter(|r| src.contains(r))
                .cloned()
                .collect();
            if live.is_empty() {
                continue;
            }
            let rule = &plan.rules[dep.rule];
            let (rows, sups) = self.eval_maint(rule, vi, &live, &mut ctx.eval)?;
            self.maint_put_all(v, rule, rows, sups, &mut removed, &mut inserted, ctx)?;
        }
        let mut lo = 0;
        while lo < inserted.len() {
            let hi = inserted.len();
            for &(rid, vi) in &recursive {
                let rule = &plan.rules[rid];
                let (rows, sups) = self.eval_maint(rule, vi, &inserted[lo..hi], &mut ctx.eval)?;
                self.maint_put_all(v, rule, rows, sups, &mut removed, &mut inserted, ctx)?;
            }
            lo = hi;
        }
        self.log_maint_diff(v, removed, inserted, ctx);
        self.advance_marks(v, sources.iter().map(|s| s.tid), ctx);
        Ok(true)
    }

    /// Phase-1 bookkeeping of [`Self::maintain_dred`]: derived rows that
    /// are in the view and not yet over-deleted join `removed`.
    fn note_over_deleted(
        &self,
        v: TableId,
        rows: Vec<Row>,
        over: &mut FxHashSet<Row>,
        removed: &mut Vec<Row>,
    ) {
        for row in rows {
            if self.tables[v.idx()].contains(&row) && over.insert(row.clone()) {
                removed.push(row);
            }
        }
    }

    /// Scoped stratum-entry evaluation of a certified aggregate view: fold
    /// only the groups this tick's delta logs touched and dispatch them
    /// exactly as the full evaluation would. Unchanged groups dispatch as
    /// duplicates in the full path too, so restricting to touched groups
    /// is invisible; emptied groups emit nothing in both paths (their
    /// stale rows fall to the end-of-tick maintenance pass). Returns
    /// `false` when the rule is not certified or a dirty source cannot
    /// name its groups — the caller runs the full evaluation.
    fn scoped_aggregate(&mut self, rule: &CompiledRule, ctx: &mut TickCtx) -> Result<bool> {
        let plan = Arc::clone(&self.plan);
        if !plan.options.maintenance || !rule.is_view {
            return Ok(false);
        }
        let Some(ViewMaint::GroupRecompute {
            rule: rid,
            anchor,
            sources,
            group_cols,
            ..
        }) = plan.maint.views.get(&rule.head_tid)
        else {
            return Ok(false);
        };
        if *rid != rule.id {
            return Ok(false);
        }
        // Read from the consumption marks without advancing them: the
        // end-of-tick pass re-folds anything consumed here (idempotent —
        // the values cannot change between stratum entry and commit
        // without dirtying the source logs again).
        let Some(keys) = self.touched_keys(rule.head_tid, group_cols, sources, &plan, ctx)? else {
            return Ok(false);
        };
        if keys.is_empty() {
            return Ok(true);
        }
        let t0 = std::time::Instant::now();
        let anchor_rows = self.collect_anchor_rows(anchor, keys.iter().map(Vec::as_slice));
        let pairs = self.eval_aggregate_scoped(
            rule,
            &rule.variants[anchor.variant],
            &anchor_rows,
            &mut ctx.eval,
        )?;
        let rows: Vec<Row> = pairs.into_iter().map(|(_, r)| r).collect();
        self.rule_stats[rule.id].maint_evals += 1;
        self.dispatch(rule, rows, None, ctx)?;
        self.rule_stats[rule.id].eval_ns += t0.elapsed().as_nanos() as u64;
        Ok(true)
    }

    /// The set of view keys (or group keys) named by the unconsumed delta
    /// log entries of `sources`, or `None` when some dirty source cannot
    /// name them — the caller falls back. A source whose rows do not carry
    /// the key names it by evaluating its variant on its delta rows and
    /// projecting the derived head rows onto `key_cols`.
    fn touched_keys(
        &mut self,
        v: TableId,
        key_cols: &[usize],
        sources: &[SourceDep],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<Option<std::collections::BTreeSet<Vec<Value>>>> {
        if Self::unbound_dirt_defeats(v, sources.iter(), ctx) {
            return Ok(None);
        }
        let mut keys = std::collections::BTreeSet::new();
        for dep in sources {
            let t = dep.tid.idx();
            let (a0, d0) = ctx.view_marks.get(&(v, dep.tid)).copied().unwrap_or((0, 0));
            if ctx.m_add[t].len() == a0 && ctx.m_del[t].len() == d0 {
                continue;
            }
            if let Some(binds) = &dep.binds {
                for row in ctx.m_add[t][a0..].iter().chain(&ctx.m_del[t][d0..]) {
                    keys.insert(
                        binds
                            .iter()
                            .map(|b| match b {
                                Bind::Col(c) => row[*c].clone(),
                                Bind::Const(val) => val.clone(),
                                Bind::Free => unreachable!("source binds are total"),
                            })
                            .collect::<Vec<Value>>(),
                    );
                }
                continue;
            }
            let vi = dep
                .variant
                .expect("unbound dirt without a variant falls back");
            let rule = &plan.rules[dep.rule];
            for (log, from) in [(&ctx.m_add, a0), (&ctx.m_del, d0)] {
                if log[t].len() == from {
                    continue;
                }
                let (rows, _) = self.eval_maint(rule, vi, &log[t][from..], &mut ctx.eval)?;
                for row in rows {
                    keys.insert(
                        key_cols
                            .iter()
                            .map(|&c| row[c].clone())
                            .collect::<Vec<Value>>(),
                    );
                }
            }
        }
        Ok(Some(keys))
    }

    /// Whether this round's dirt in the *unbound* `sources` (rows that do
    /// not carry the view's key, so the touched keys must come from
    /// evaluating the source's variant against current state) defeats
    /// that evaluation: a changed unbound source with no variant (negated,
    /// or an aggregate's input), or deletions in two unbound predicates of
    /// one rule — a derivation through two deleted rows would go unseen.
    /// A bound source names its own keys, so its deletions are harmless.
    fn unbound_dirt_defeats<'a>(
        v: TableId,
        sources: impl Iterator<Item = &'a SourceDep>,
        ctx: &TickCtx,
    ) -> bool {
        let mut deleting_rules: Vec<usize> = Vec::new();
        for dep in sources.filter(|d| d.binds.is_none()) {
            let (a0, d0) = ctx.view_marks.get(&(v, dep.tid)).copied().unwrap_or((0, 0));
            let shrank = ctx.m_del[dep.tid.idx()].len() > d0;
            if !shrank && ctx.m_add[dep.tid.idx()].len() == a0 {
                continue;
            }
            if dep.variant.is_none() {
                return true;
            }
            if shrank {
                if deleting_rules.contains(&dep.rule) {
                    return true;
                }
                deleting_rules.push(dep.rule);
            }
        }
        false
    }

    /// Gather the anchor-table rows whose key projection lands in `keys`
    /// (they become the scoped re-evaluation's delta). `Col` binds form an
    /// index probe; `Const` binds filter keys the rule can never derive;
    /// `Free` components are settled by the evaluation itself. The result
    /// has no duplicates: each distinct probe runs once.
    fn collect_anchor_rows<'k>(
        &mut self,
        anchor: &AnchorEval,
        keys: impl IntoIterator<Item = &'k [Value]>,
    ) -> Vec<Row> {
        let cols: Vec<usize> = anchor
            .binds
            .iter()
            .filter_map(|b| match b {
                Bind::Col(c) => Some(*c),
                _ => None,
            })
            .collect();
        let derivable = |key: &[Value]| {
            anchor
                .binds
                .iter()
                .zip(key)
                .all(|(b, kv)| !matches!(b, Bind::Const(c) if c != kv))
        };
        let mut out = Vec::new();
        if cols.is_empty() {
            // No probe column: if any touched key is derivable at all,
            // every anchor row may re-derive it.
            if keys.into_iter().any(derivable) {
                out.extend(self.tables[anchor.tid.idx()].scan().cloned());
            }
            return out;
        }
        self.tables[anchor.tid.idx()].ensure_index(&cols);
        // Keys that differ only in `Free` components share a probe.
        let partial = anchor.binds.contains(&Bind::Free);
        let mut probed: FxHashSet<Vec<Value>> = FxHashSet::default();
        let mut vals: Vec<Value> = Vec::with_capacity(cols.len());
        for key in keys {
            if !derivable(key) {
                continue;
            }
            vals.clear();
            for (b, kv) in anchor.binds.iter().zip(key) {
                if let Bind::Col(_) = b {
                    vals.push(kv.clone());
                }
            }
            if partial && !probed.insert(vals.clone()) {
                continue;
            }
            if let Some(rows) = self.tables[anchor.tid.idx()].lookup(&cols, &vals) {
                out.extend(rows.iter().cloned());
            }
        }
        out
    }

    /// Recount a Counting view's support from the current source tables
    /// (used right after a fallback recompute revalidated its contents).
    fn rebuild_support(
        &mut self,
        v: TableId,
        rules: &[(usize, usize)],
        plan: &Plan,
        ctx: &mut TickCtx,
    ) -> Result<()> {
        let mut support: FxHashMap<Row, i64> = FxHashMap::default();
        for &(rid, vi) in rules {
            let rule = &plan.rules[rid];
            let src = rule.positive_tids[0];
            let all: Vec<Row> = self.tables[src.idx()].scan().cloned().collect();
            if all.is_empty() {
                continue;
            }
            let (rows, _) =
                self.eval_variant(rule, &rule.variants[vi], Some(&all), &mut ctx.eval)?;
            for row in rows {
                *support.entry(row).or_insert(0) += 1;
            }
        }
        self.maint_support.insert(v, support);
        Ok(())
    }

    /// Mark every `(view, source)` delta-log pair fully consumed.
    fn advance_marks(&self, v: TableId, sources: impl Iterator<Item = TableId>, ctx: &mut TickCtx) {
        for s in sources {
            ctx.view_marks
                .insert((v, s), (ctx.m_add[s.idx()].len(), ctx.m_del[s.idx()].len()));
        }
    }

    /// Direct insert into a maintained view, mirroring the rebuild path's
    /// semantics (no semi-naive delta log, no coercion, no WAL — views are
    /// never durable), logged through [`Self::log_maint_delete`] and
    /// [`Self::log_maint_insert`] as it happens: an overwritten row first.
    fn maint_insert(
        &mut self,
        v: TableId,
        rule: &CompiledRule,
        row: Row,
        inputs: &[(String, Row)],
        ctx: &mut TickCtx,
    ) -> Result<()> {
        ctx.derivations += 1;
        if ctx.derivations > self.budget {
            return Err(OverlogError::Eval(
                "derivation budget exceeded during view maintenance".into(),
            ));
        }
        let outcome = self.tables[v.idx()].insert(row.clone())?;
        if matches!(outcome, InsertOutcome::Duplicate) {
            return Ok(());
        }
        self.record_prov(rule, &row, inputs);
        if let InsertOutcome::Replaced(old) = outcome {
            self.log_maint_delete(v, &old, ctx);
        }
        self.log_maint_insert(v, &row, ctx);
        Ok(())
    }

    /// Evaluate variant `vi` of `rule` on `delta` for the maintenance
    /// executor, attributing the work to the rule's counters.
    #[allow(clippy::type_complexity)]
    fn eval_maint(
        &mut self,
        rule: &CompiledRule,
        vi: usize,
        delta: &[Row],
        scratch: &mut EvalScratch,
    ) -> Result<(Vec<Row>, Option<Vec<Vec<(String, Row)>>>)> {
        let t0 = std::time::Instant::now();
        let variant = &rule.variants[vi];
        let out = self.eval_variant(rule, variant, Some(delta), scratch)?;
        let kernel = self.kernel_active(variant);
        let st = &mut self.rule_stats[rule.id];
        st.maint_evals += 1;
        if kernel {
            st.kernel_evals += 1;
        }
        st.eval_ns += t0.elapsed().as_nanos() as u64;
        Ok(out)
    }

    /// Insert derived rows into a maintained view *without* logging them:
    /// rows that entered join `inserted` and rows they overwrote join
    /// `removed`, for [`Self::log_maint_diff`] to net out at the end of
    /// the call.
    #[allow(clippy::too_many_arguments)]
    fn maint_put_all(
        &mut self,
        v: TableId,
        rule: &CompiledRule,
        rows: Vec<Row>,
        sups: Option<Vec<Vec<(String, Row)>>>,
        removed: &mut Vec<Row>,
        inserted: &mut Vec<Row>,
        ctx: &mut TickCtx,
    ) -> Result<()> {
        for (i, row) in rows.into_iter().enumerate() {
            ctx.derivations += 1;
            if ctx.derivations > self.budget {
                return Err(OverlogError::Eval(
                    "derivation budget exceeded during view maintenance".into(),
                ));
            }
            let outcome = self.tables[v.idx()].insert(row.clone())?;
            if matches!(outcome, InsertOutcome::Duplicate) {
                continue;
            }
            let inputs: &[(String, Row)] = sups
                .as_ref()
                .and_then(|sv| sv.get(i))
                .map(|x| x.as_slice())
                .unwrap_or(&[]);
            self.record_prov(rule, &row, inputs);
            if let InsertOutcome::Replaced(old) = outcome {
                removed.push(old);
            }
            inserted.push(row);
        }
        Ok(())
    }

    /// Log the net effect of one maintenance call on view `v`. Rows in
    /// `removed` left the table during the call and rows in `inserted`
    /// entered it, once per event. A row's presence flips with every
    /// event, so its insertions minus its removals is its net change: -1
    /// for a row that was there before the call and is gone, +1 for one
    /// that is new, 0 for one that left and came back (over-deleted, then
    /// re-derived) or came and went (derived, then overwritten by a later
    /// derivation of its key). Only the nonzero ones are logged, in
    /// sorted row order — the order [`Self::recompute_views`] reports a
    /// rebuild in — to taps, the watch trace and the view's own delta
    /// logs. A view none of those observe skips the netting.
    fn log_maint_diff(
        &mut self,
        v: TableId,
        mut removed: Vec<Row>,
        mut inserted: Vec<Row>,
        ctx: &mut TickCtx,
    ) {
        let observed = self.tap_ids.contains(v)
            || self.plan.view_inputs.contains(v)
            || self.trace_all
            || self.watch_ids.contains(v);
        if !observed {
            return;
        }
        removed.sort_unstable();
        inserted.sort_unstable();
        let (mut i, mut j) = (0usize, 0usize);
        while i < removed.len() || j < inserted.len() {
            let row = match (removed.get(i), inserted.get(j)) {
                (Some(d), Some(a)) => d.min(a),
                (Some(d), None) => d,
                (None, Some(a)) => a,
                (None, None) => unreachable!(),
            };
            let (i0, j0) = (i, j);
            while removed.get(i) == Some(row) {
                i += 1;
            }
            while inserted.get(j) == Some(row) {
                j += 1;
            }
            match (j - j0) as isize - (i - i0) as isize {
                0 => {}
                1 => self.log_maint_insert(v, row, ctx),
                -1 => self.log_maint_delete(v, row, ctx),
                n => unreachable!("row presence changed by {n} in one call"),
            }
        }
    }

    /// Log an insertion the maintenance executor performed (the row is
    /// already in the table): tap record, watch trace, and the view's own
    /// delta log for downstream maintained views.
    fn log_maint_insert(&mut self, v: TableId, row: &Row, ctx: &mut TickCtx) {
        if self.tap_ids.contains(v) {
            self.tap_log
                .push((v, row.clone(), CommitOp::Insert, self.tick_count, self.now));
        }
        self.record_trace(v, row, TraceOp::Insert);
        if self.plan.view_inputs.contains(v) {
            ctx.m_add[v.idx()].push(row.clone());
        }
    }

    /// Log a deletion the maintenance executor performed (the row is
    /// already out of the table): tap retraction, watch trace, and the
    /// view's own delta log for downstream maintained views.
    fn log_maint_delete(&mut self, v: TableId, row: &Row, ctx: &mut TickCtx) {
        if self.tap_ids.contains(v) {
            self.tap_log
                .push((v, row.clone(), CommitOp::Delete, self.tick_count, self.now));
        }
        self.record_trace(v, row, TraceOp::Delete);
        if self.plan.view_inputs.contains(v) {
            ctx.m_del[v.idx()].push(row.clone());
        }
    }
}

fn add_values(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(*y))),
        _ => {
            let (x, y) = (
                a.as_float()
                    .ok_or_else(|| OverlogError::Eval(format!("sum over non-numeric {a}")))?,
                b.as_float()
                    .ok_or_else(|| OverlogError::Eval(format!("sum over non-numeric {b}")))?,
            );
            Ok(Value::Float(x + y))
        }
    }
}

fn raw_str(v: &Value) -> String {
    match v {
        Value::Str(s) | Value::Addr(s) => s.to_string(),
        other => other.to_string(),
    }
}

/// Evaluate a compiled expression against an environment.
pub fn eval_cexpr(e: &CExpr, env: &[Option<Value>], builtins: &Builtins) -> Result<Value> {
    match e {
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Slot(s) => env
            .get(*s)
            .and_then(|v| v.clone())
            .ok_or_else(|| OverlogError::Eval(format!("unbound variable slot {s}"))),
        CExpr::Unary(op, a) => {
            let v = eval_cexpr(a, env, builtins)?;
            match op {
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(OverlogError::Eval(format!("cannot negate {other}"))),
                },
                UnOp::Not => Ok(Value::Bool(!v.truthy())),
            }
        }
        CExpr::Binary(op, a, b) => {
            // Short-circuit boolean operators.
            if *op == BinOp::And {
                let va = eval_cexpr(a, env, builtins)?;
                if !va.truthy() {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(eval_cexpr(b, env, builtins)?.truthy()));
            }
            if *op == BinOp::Or {
                let va = eval_cexpr(a, env, builtins)?;
                if va.truthy() {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(eval_cexpr(b, env, builtins)?.truthy()));
            }
            let va = eval_cexpr(a, env, builtins)?;
            let vb = eval_cexpr(b, env, builtins)?;
            eval_binop(*op, &va, &vb)
        }
        CExpr::Call(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_cexpr(a, env, builtins)?);
            }
            builtins.call(f, &vals)
        }
        CExpr::List(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for i in items {
                vals.push(eval_cexpr(i, env, builtins)?);
            }
            Ok(Value::list(vals))
        }
    }
}

/// Apply a non-short-circuit binary operator to two already-evaluated
/// values. This is the single implementation both the interpreted path
/// ([`eval_cexpr`]) and the compiled kernels share, so a specialized
/// kernel can never drift from interpreter semantics on comparisons,
/// concatenation or arithmetic. `And`/`Or` stay in [`eval_cexpr`]: they
/// short-circuit over unevaluated subexpressions.
pub fn eval_binop(op: BinOp, va: &Value, vb: &Value) -> Result<Value> {
    match op {
        BinOp::Eq => Ok(Value::Bool(va == vb)),
        BinOp::Ne => Ok(Value::Bool(va != vb)),
        BinOp::Lt => Ok(Value::Bool(va < vb)),
        BinOp::Le => Ok(Value::Bool(va <= vb)),
        BinOp::Gt => Ok(Value::Bool(va > vb)),
        BinOp::Ge => Ok(Value::Bool(va >= vb)),
        BinOp::Concat => match (va, vb) {
            (Value::List(x), Value::List(y)) => {
                let mut out = x.to_vec();
                out.extend(y.iter().cloned());
                Ok(Value::list(out))
            }
            _ => Ok(Value::str(format!("{}{}", raw_str(va), raw_str(vb)))),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, va, vb),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops never reach eval_binop"),
    }
}

/// Minimum delta rows before a gate is answered through the vectorized
/// column-group cache; below this the per-row scan is cheaper than
/// building the group.
const GATE_MIN_ROWS: usize = 8;

/// Outcome of the delta-gate pre-pass for one variant.
enum GateOutcome {
    /// No delta row passes the gate: skip the variant entirely.
    Skip,
    /// Every row passes (or the gate was not vectorizable): evaluate
    /// over the full slice.
    Full,
    /// A strict subset passes: evaluate over just those rows, kept in
    /// delta-arrival order.
    Rows(Vec<Row>),
}

/// Answer a variant's single-column delta gate from the round's
/// column-group cache, building the group on first touch. A group
/// answers `Some` only when its typed layout decides the literal's
/// equality exactly as `Value` equality would (see
/// [`ColGroup::select`]); otherwise — and for multi-column gates, tiny
/// slices, and `vectorize: false` (the `BOOM_KERNELS=0` interpreted
/// engine, which must keep the pre-kernel evaluation path byte for
/// byte) — this falls back to the original per-row all-fail scan.
fn gate_select(
    gates: &mut FxHashMap<(usize, usize), ColGroup>,
    slice: &[Row],
    dt: usize,
    gate: &[(usize, Value)],
    vectorize: bool,
) -> GateOutcome {
    if let [(col, v)] = gate {
        if vectorize && slice.len() >= GATE_MIN_ROWS {
            let group = gates
                .entry((dt, *col))
                .or_insert_with(|| Column::from_rows(slice, *col).group());
            if let Some(sel) = group.select(v) {
                return if sel.is_empty() {
                    GateOutcome::Skip
                } else if sel.len() == slice.len() {
                    GateOutcome::Full
                } else {
                    GateOutcome::Rows(sel.iter().map(|&i| slice[i as usize].clone()).collect())
                };
            }
        }
    }
    if slice.iter().all(|r| gate.iter().any(|(i, v)| r[*i] != *v)) {
        GateOutcome::Skip
    } else {
        GateOutcome::Full
    }
}

/// Resolve a kernel operand to its place: a borrowed value, no
/// environment consulted. `levels` holds *borrowed* candidate rows —
/// the kernel stack never clones an `Arc` per scanned row.
fn kresolve<'a>(op: &'a KOperand, levels: &[&'a Row], regs: &'a [Value]) -> &'a Value {
    match op {
        KOperand::Const(v) => v,
        KOperand::Col { level, col } => &levels[*level][*col],
        KOperand::Reg(r) => &regs[*r],
    }
}

/// Evaluate a kernel expression to an owned value (head projection,
/// probes, assignments).
fn keval(e: &KExpr, levels: &[&Row], regs: &[Value]) -> Result<Value> {
    match e {
        KExpr::Operand(o) => Ok(kresolve(o, levels, regs).clone()),
        KExpr::Binary(op, a, b) => {
            eval_binop(*op, kresolve(a, levels, regs), kresolve(b, levels, regs))
        }
    }
}

/// Truthiness of a kernel expression (filters), without cloning operands.
fn ktruthy(e: &KExpr, levels: &[&Row], regs: &[Value]) -> Result<bool> {
    match e {
        KExpr::Operand(o) => Ok(kresolve(o, levels, regs).truthy()),
        KExpr::Binary(op, a, b) => {
            Ok(eval_binop(*op, kresolve(a, levels, regs), kresolve(b, levels, regs))?.truthy())
        }
    }
}

/// Does the candidate row satisfy one kernel column check? Operand
/// checks (the common case — join columns) compare borrowed values with
/// zero clones.
fn kcheck(ch: &KCheck, row: &Row, levels: &[&Row], regs: &[Value]) -> Result<bool> {
    let val = &row[ch.col];
    match &ch.expr {
        KExpr::Operand(o) => Ok(kresolve(o, levels, regs) == val),
        KExpr::Binary(op, a, b) => {
            Ok(&eval_binop(*op, kresolve(a, levels, regs), kresolve(b, levels, regs))? == val)
        }
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Err(OverlogError::Eval("integer division by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_div(*y)))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(OverlogError::Eval("integer modulo by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_rem(*y)))
                }
            }
            _ => unreachable!("arith called with arithmetic op"),
        };
    }
    let (x, y) = (
        a.as_float()
            .ok_or_else(|| OverlogError::Eval(format!("arithmetic on non-number {a}")))?,
        b.as_float()
            .ok_or_else(|| OverlogError::Eval(format!("arithmetic on non-number {b}")))?,
    );
    Ok(match op {
        BinOp::Add => Value::Float(x + y),
        BinOp::Sub => Value::Float(x - y),
        BinOp::Mul => Value::Float(x * y),
        BinOp::Div => Value::Float(x / y),
        BinOp::Mod => Value::Float(x % y),
        _ => unreachable!("arith called with arithmetic op"),
    })
}
