//! Maintenance-strategy analysis: which incremental algorithm keeps each
//! view correct under *retractions*?
//!
//! Insertions already propagate incrementally through the semi-naive delta
//! path; what forces the runtime into full view recomputation is shrinkage
//! — deletions, key-overwrites, and growth of negated inputs. This pass
//! classifies every planned view-rule variant by the cheapest maintenance
//! algorithm that is *provably* sound for it:
//!
//! * **counting** — set-semantic select/project over a single positive
//!   predicate, no negation, whole-row-keyed head. Each source row derives
//!   its head rows independently, so a multiplicity count per derived row
//!   maintains the view under weighted `(row, +1/-1)` deltas: a head row
//!   leaves exactly when its support reaches zero.
//! * **support-rederive** — joins, negation, or a keyed head: deleting a
//!   source row can retract head rows other sources still support, so the
//!   runtime deletes the touched head keys and re-derives them from the
//!   current state through an *anchor* predicate that binds the whole key
//!   (delete-and-rederive, scoped to the keys the delta names). When the
//!   delta row does not carry the key (`join-discovered`), the touched keys
//!   are found by evaluating the variant itself on the delta rows.
//!   Self-recursive views (`recursive`) run DRed to a fixpoint: over-delete
//!   everything the delta derives transitively, re-derive the over-deleted
//!   rows through the anchor index, then propagate insertions semi-naively.
//! * **group-recompute** — aggregates. A delta row names its group key, so
//!   only the touched groups are re-folded; untouched groups keep their
//!   materialized rows.
//! * **full-recompute** — the fallback, with a machine-readable reason
//!   code and a hard-vs-fixable split: `fixable: true` marks views a
//!   schema or rule rewrite could rescue (lint W0010 surfaces the hot
//!   ones), `false` marks structural blocks (stateful builtins, body-less
//!   rules, recursion through other views).
//!
//! Verdicts drive two consumers. `olgcheck analyze` renders them per view
//! rule variant; the planner compiles them into a [`MaintPlan`] whose
//! per-view [`ViewMaint`] strategies the runtime executes instead of
//! recomputing (`runtime.rs` falls back per round whenever a dirty input
//! defeats the strategy — a changed negated input, or deletions in two
//! inputs of one rule that the key projection cannot see — so determinism
//! never rests on this analysis being complete, only the *speed* does).

use super::ProgramContext;
use crate::ast::{BodyElem, Expr, HeadArg, Predicate, Rule, Span, TableDecl};
use crate::ids::{TableId, TableIds};
use crate::plan::{CExpr, CHeadArg, CompiledRule};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The maintenance verdict for one semi-naive variant of a view rule.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintVerdict {
    /// Weighted multiplicity counting: each delta row's derivations are
    /// independent, a per-row support count decides retraction.
    Counting,
    /// Delete-and-rederive the head keys the delta names, against current
    /// state. Sound under stratified negation.
    SupportRederive {
        /// The head's key columns.
        key: Vec<usize>,
        /// The head is reachable from its own body (through itself only):
        /// the runtime runs delete-and-rederive to a fixpoint (DRed).
        recursive: bool,
        /// The delta row does not carry the key; the touched keys are
        /// found by evaluating this variant on the delta rows.
        discovered: bool,
    },
    /// Re-fold only the aggregate groups the delta touches.
    GroupRecompute {
        /// Head columns forming the group key (the non-aggregate columns).
        group: Vec<usize>,
    },
    /// No incremental strategy applies; the view recomputes wholesale.
    FullRecompute {
        /// Machine-readable reason code (stable across releases):
        /// `impure-builtin`, `no-delta`, `unbound-group-key`,
        /// `unbound-head-key`, `keyed-recursion`, `mutual-recursion`.
        code: &'static str,
        /// Human-readable explanation.
        reason: String,
        /// True when a schema or rule rewrite could rescue the view (the
        /// W0010 hint); false for structural blocks.
        fixable: bool,
    },
}

impl MaintVerdict {
    /// Is this a fixable full-recompute (the W0010 candidate shape)?
    pub fn fixable_full(&self) -> bool {
        matches!(self, MaintVerdict::FullRecompute { fixable: true, .. })
    }

    /// Does the verdict certify some incremental strategy (counting,
    /// rederive — recursive or not — or group recompute)?
    pub fn incremental(&self) -> bool {
        !matches!(self, MaintVerdict::FullRecompute { .. })
    }
}

impl fmt::Display for MaintVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintVerdict::Counting => write!(f, "counting(weighted row deltas)"),
            MaintVerdict::SupportRederive {
                key,
                recursive,
                discovered,
            } => {
                write!(f, "support-rederive(key={key:?}")?;
                if *recursive {
                    write!(f, ", recursive")?;
                }
                if *discovered {
                    write!(f, ", join-discovered")?;
                }
                write!(f, ")")
            }
            MaintVerdict::GroupRecompute { group } => {
                write!(f, "group-recompute(group={group:?})")
            }
            MaintVerdict::FullRecompute {
                code,
                reason,
                fixable,
            } => {
                let fix = if *fixable { ", fixable" } else { "" };
                write!(f, "full-recompute({code}{fix}): {reason}")
            }
        }
    }
}

/// The declared primary key of `table`, or the whole row when unkeyed.
fn placement_cols(decls: &HashMap<String, TableDecl>, table: &str, arity: usize) -> Vec<usize> {
    match decls.get(table).and_then(|d| d.keys.clone()) {
        Some(k) => k,
        None => (0..arity).collect(),
    }
}

/// Is head column `c` a constant or a verbatim column of `pred`'s row?
/// (Only verbatim bindings are *invertible* — the runtime must go from a
/// head key back to the matching source rows via an index probe, so pure
/// computed functions of delta columns do not qualify here, unlike in the
/// shard pass.)
fn head_col_bound(rule: &Rule, c: usize, pred: &Predicate) -> bool {
    match rule.head.args.get(c) {
        Some(HeadArg::Expr(Expr::Lit(_))) => true,
        Some(HeadArg::Expr(Expr::Var(v))) => pred
            .args
            .iter()
            .any(|a| matches!(a, Expr::Var(w) if *w == *v)),
        _ => false,
    }
}

fn full(code: &'static str, reason: impl Into<String>, fixable: bool) -> MaintVerdict {
    MaintVerdict::FullRecompute {
        code,
        reason: reason.into(),
        fixable,
    }
}

/// How a view table depends on itself through view rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recursion {
    /// The view never reaches itself.
    None,
    /// The view reaches itself only through its own rules (a recursive
    /// predicate of its own body, like `fqpath` or transitive closure).
    SelfOnly,
    /// The view reaches itself through another view: the two must be
    /// maintained together, which delete-and-rederive does not do.
    Mutual,
}

/// Judge one semi-naive variant of a view rule: which maintenance
/// algorithm is sound when the delta arrives through positive predicate
/// `delta_pred`? Unlike the shard pass this is order-independent — the
/// judgement depends only on what a delta row determines, not on the
/// schedule the planner runs.
pub fn variant_verdict(
    rule: &Rule,
    delta_pred: Option<usize>,
    decls: &HashMap<String, TableDecl>,
    recursion: Recursion,
) -> MaintVerdict {
    if let Some(fname) = super::shard::impure_call(rule) {
        return full(
            "impure-builtin",
            format!("calls stateful builtin `{fname}()`; re-derivation would mint fresh values"),
            false,
        );
    }
    let Some(d) = delta_pred else {
        return full(
            "no-delta",
            "no positive body predicate: nothing arrives incrementally",
            false,
        );
    };
    let delta = rule
        .positive_predicates()
        .nth(d)
        .expect("delta_pred indexes a positive predicate");

    if rule.is_aggregate() {
        // Groups are keyed by the non-aggregate head columns
        // (`check_aggregate` pins the head table's primary key to exactly
        // these); a delta row must name its group.
        let group: Vec<usize> = rule
            .head
            .args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, HeadArg::Expr(_)))
            .map(|(i, _)| i)
            .collect();
        for &c in &group {
            if !head_col_bound(rule, c, delta) {
                return full(
                    "unbound-group-key",
                    format!(
                        "group key column {c} is not a column of the `{}` delta row",
                        delta.table
                    ),
                    true,
                );
            }
        }
        return MaintVerdict::GroupRecompute { group };
    }

    let key = placement_cols(decls, &rule.head.table, rule.head.args.len());
    let whole_row = key.len() == rule.head.args.len();
    match recursion {
        Recursion::Mutual => {
            return full(
                "mutual-recursion",
                "recursive through another view; delete-and-rederive maintains one view at a time",
                false,
            )
        }
        Recursion::SelfOnly if !whole_row => {
            return full(
                "keyed-recursion",
                "recursive view keyed on a strict subset of its columns: which derivation \
                 wins a key inside the fixpoint depends on evaluation order",
                true,
            )
        }
        Recursion::SelfOnly => {
            return MaintVerdict::SupportRederive {
                key,
                recursive: true,
                discovered: false,
            }
        }
        Recursion::None => {}
    }
    // Counting needs no key binding at all: single positive predicate, no
    // negation, whole-row-keyed head means every derivation stands or
    // falls with exactly one source row, and a support count per derived
    // row replays that — even when the head columns are computed.
    let npos = rule.positive_predicates().count();
    let negated = rule
        .body
        .iter()
        .any(|b| matches!(b, BodyElem::Pred(p) if p.negated));
    if npos == 1 && !negated && whole_row {
        return MaintVerdict::Counting;
    }
    let binds_key = |p: &Predicate| key.iter().all(|&c| head_col_bound(rule, c, p));
    if binds_key(delta) {
        return MaintVerdict::SupportRederive {
            key,
            recursive: false,
            discovered: false,
        };
    }
    // The delta row cannot name the key, but evaluating the variant on it
    // can — as long as some body predicate binds the whole key, so the
    // touched keys can be re-derived through that predicate's index.
    if rule.positive_predicates().any(binds_key) {
        return MaintVerdict::SupportRederive {
            key,
            recursive: false,
            discovered: true,
        };
    }
    full(
        "unbound-head-key",
        "no body predicate binds every head key column, so touched keys have no \
         anchor to re-derive through",
        true,
    )
}

/// Judge every semi-naive variant of a view rule.
pub fn rule_verdicts(
    rule: &Rule,
    decls: &HashMap<String, TableDecl>,
    recursion: Recursion,
) -> Vec<MaintVerdict> {
    let npos = rule.positive_predicates().count();
    if npos == 0 {
        return vec![variant_verdict(rule, None, decls, recursion)];
    }
    (0..npos)
        .map(|d| variant_verdict(rule, Some(d), decls, recursion))
        .collect()
}

/// How each view table depends on itself through view rules: the
/// recursion test behind `SupportRederive { recursive }`. Keyed by table
/// name; only heads of view rules appear (absent means
/// [`Recursion::None`]).
pub fn view_recursion(
    rules: &[Rule],
    decls: &HashMap<String, TableDecl>,
) -> HashMap<String, Recursion> {
    let mut deps: HashMap<&str, HashSet<&str>> = HashMap::new();
    for rule in rules {
        if !super::classify(rule, decls).is_view {
            continue;
        }
        let entry = deps.entry(rule.head.table.as_str()).or_default();
        for b in &rule.body {
            if let BodyElem::Pred(p) = b {
                entry.insert(p.table.as_str());
            }
        }
    }
    // Transitive closure over the view graph only: base tables terminate.
    let heads: Vec<&str> = deps.keys().copied().collect();
    loop {
        let mut grew = false;
        for &h in &heads {
            let reach: Vec<&str> = deps[h]
                .iter()
                .flat_map(|t| deps.get(t).into_iter().flatten())
                .copied()
                .collect();
            let entry = deps.get_mut(h).expect("head present");
            for t in reach {
                grew |= entry.insert(t);
            }
        }
        if !grew {
            break;
        }
    }
    // A recursive view is mutually recursive when another view it reaches
    // reaches it back.
    heads
        .iter()
        .filter(|h| deps[*h].contains(*h))
        .map(|&h| {
            let mutual = deps[h]
                .iter()
                .any(|&w| w != h && deps.get(w).is_some_and(|d| d.contains(h)));
            let r = if mutual {
                Recursion::Mutual
            } else {
                Recursion::SelfOnly
            };
            (h.to_string(), r)
        })
        .collect()
}

/// One view rule's entry in the whole-program [`MaintReport`].
#[derive(Debug, Clone)]
pub struct RuleMaintReport {
    /// Index of the rule in `ProgramContext::rules` (for lint anchoring).
    pub rule_index: usize,
    /// The rule's display label.
    pub label: String,
    /// Head (view) table.
    pub head: String,
    /// Source location of the rule (for annotations).
    pub span: Span,
    /// `(delta table, verdict)` per semi-naive variant, in variant order.
    pub variants: Vec<(String, MaintVerdict)>,
}

/// Whole-program maintenance analysis: a verdict for every planned
/// variant of every view rule.
#[derive(Debug, Clone, Default)]
pub struct MaintReport {
    /// Per-view-rule entries, in rule order (non-view rules are absent —
    /// their heads are events or inductive state, never maintained).
    pub rules: Vec<RuleMaintReport>,
}

/// Run the maintenance pass over a context. `rule_ok` is the error-pass
/// mask; broken rules are skipped.
pub fn analyze(ctx: &ProgramContext, rule_ok: &[bool]) -> MaintReport {
    let recursion = view_recursion(&ctx.rules, &ctx.decls);
    let mut rules = Vec::new();
    for (i, rule) in ctx.rules.iter().enumerate() {
        if !rule_ok[i] || !super::classify(rule, &ctx.decls).is_view {
            continue;
        }
        let rec = recursion
            .get(&rule.head.table)
            .copied()
            .unwrap_or(Recursion::None);
        let verdicts = rule_verdicts(rule, &ctx.decls, rec);
        let mut deltas: Vec<String> = rule
            .positive_predicates()
            .map(|p| p.table.clone())
            .collect();
        if deltas.is_empty() {
            deltas.push("(none)".into());
        }
        rules.push(RuleMaintReport {
            rule_index: i,
            label: rule.label(i),
            head: rule.head.table.clone(),
            span: rule.span,
            variants: deltas.into_iter().zip(verdicts).collect(),
        });
    }
    MaintReport { rules }
}

/// Render the report for `olgcheck analyze` (text format).
pub fn render(report: &MaintReport) -> String {
    let mut s = String::from("maintenance strategies (how retractions propagate to each view):\n");
    if report.rules.is_empty() {
        s.push_str("  (no view rules)\n");
    }
    for r in &report.rules {
        s.push_str(&format!("  view rule `{}` -> {}:\n", r.label, r.head));
        for (delta, v) in &r.variants {
            s.push_str(&format!("    delta {delta}: {v}\n"));
        }
    }
    s
}

/// Render the report as a JSON array (one object per view rule), for
/// `olgcheck analyze --format json`.
pub fn render_json(report: &MaintReport) -> String {
    use super::diag::json_string;
    let mut out = String::from("[");
    for (i, r) in report.rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"head\":{},\"variants\":[",
            json_string(&r.label),
            json_string(&r.head)
        ));
        for (j, (delta, v)) in r.variants.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                MaintVerdict::Counting => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"counting\"}}",
                    json_string(delta)
                )),
                MaintVerdict::SupportRederive {
                    key,
                    recursive,
                    discovered,
                } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"support-rederive\",\"key\":{key:?},\
                     \"recursive\":{recursive},\"discovered\":{discovered}}}",
                    json_string(delta)
                )),
                MaintVerdict::GroupRecompute { group } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"group-recompute\",\"group\":{group:?}}}",
                    json_string(delta)
                )),
                MaintVerdict::FullRecompute {
                    code,
                    reason,
                    fixable,
                } => out.push_str(&format!(
                    "{{\"delta\":{},\"verdict\":\"full-recompute\",\"code\":{},\
                     \"reason\":{},\"fixable\":{fixable}}}",
                    json_string(delta),
                    json_string(code),
                    json_string(reason)
                )),
            }
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

///////////////////////////////////////////////////////////////////////////
// Compiled strategies: what the runtime executes
///////////////////////////////////////////////////////////////////////////

/// How one component of a view's key is computed from a source row.
#[derive(Debug, Clone, PartialEq)]
pub enum Bind {
    /// The key component is this column of the source row, verbatim.
    Col(usize),
    /// The key component is this constant for every row the rule derives.
    Const(Value),
    /// The key component is computed from the rest of the body (only in
    /// the partial anchors of recursive views: the bound components still
    /// narrow the probe, and the evaluation settles the rest).
    Free,
}

/// One body predicate (positive or negated) of some rule deriving a view,
/// as the maintenance executor sees it: where dirt can come from, and how
/// a dirty row names the touched keys.
#[derive(Debug, Clone)]
pub struct SourceDep {
    /// The source table.
    pub tid: TableId,
    /// Key projection (one [`Bind`] per key component), or `None` when a
    /// dirty row of this source cannot name the touched keys by itself.
    pub binds: Option<Vec<Bind>>,
    /// Rule id of the rule whose body holds this predicate.
    pub rule: usize,
    /// The semi-naive variant whose delta is this predicate: `Some` for
    /// positive predicates of non-aggregate rules. Evaluating it on the
    /// source's delta rows names the touched keys when `binds` is `None`;
    /// an unbound source without one makes the executor fall back.
    pub variant: Option<usize>,
}

/// A scoped re-evaluation recipe: which rule variant to run, anchored on
/// which positive predicate, and how to find the anchor rows for a key.
#[derive(Debug, Clone)]
pub struct AnchorEval {
    /// Rule id (index into `Plan::rules`).
    pub rule: usize,
    /// Variant whose delta predicate is the anchor.
    pub variant: usize,
    /// Anchor table.
    pub tid: TableId,
    /// Key projection over anchor rows: `Col` columns form an index probe
    /// and `Const` components filter keys that this rule can never derive.
    /// Only the anchors of [`ViewMaint::Dred`] hold `Free` components.
    pub binds: Vec<Bind>,
}

/// The compiled maintenance strategy for one view table.
#[derive(Debug, Clone)]
pub enum ViewMaint {
    /// Weighted multiplicity counting over single-predicate rules.
    Counting {
        /// `(rule id, variant index)` per deriving rule (each rule has
        /// exactly one positive predicate).
        rules: Vec<(usize, usize)>,
        /// The source table of each rule, parallel to `rules`.
        sources: Vec<TableId>,
    },
    /// Re-fold only the touched groups of a single aggregate rule.
    GroupRecompute {
        /// The aggregate rule id.
        rule: usize,
        /// How to re-evaluate a touched group.
        anchor: AnchorEval,
        /// Every body predicate, with key projections for dirt scoping.
        sources: Vec<SourceDep>,
        /// Head columns forming the group key, in head order.
        group_cols: Vec<usize>,
        /// Declared-key order as indices into the group-key tuple (for
        /// deleting an emptied group's row by primary key).
        key_map: Vec<usize>,
    },
    /// Delete the touched head keys, then re-derive them rule by rule.
    KeyRederive {
        /// The head table's declared key columns.
        key_cols: Vec<usize>,
        /// One anchored re-evaluation per deriving rule, in rule order
        /// (insertion order ties break exactly as recomputation would).
        rules: Vec<AnchorEval>,
        /// Every body predicate of every deriving rule.
        sources: Vec<SourceDep>,
    },
    /// Delete-and-rederive to a fixpoint for a self-recursive view keyed
    /// on its whole row: over-delete what the deleted source rows derive
    /// transitively, re-derive the over-deleted rows through each rule's
    /// anchor, then propagate insertions semi-naively.
    Dred {
        /// One anchored re-evaluation per deriving rule; binds range over
        /// the head columns and may be partial (`Free`).
        rules: Vec<AnchorEval>,
        /// Every body predicate of every deriving rule, the view's own
        /// recursive occurrences included.
        sources: Vec<SourceDep>,
    },
}

/// Per-plan maintenance strategies, built by the planner alongside the
/// shard plan.
#[derive(Debug, Clone, Default)]
pub struct MaintPlan {
    /// `verdicts[rule_id][variant_index]`; empty for non-view rules.
    pub verdicts: Vec<Vec<MaintVerdict>>,
    /// Compiled strategy per view table. Views absent here always
    /// recompute (mutually or key-overwrite recursive, impure, or
    /// structurally unbindable).
    pub views: HashMap<TableId, ViewMaint>,
}

/// The key projection of `pred`'s row onto the head columns `key_cols`:
/// `Free` where a component is neither a constant nor a verbatim column of
/// the predicate. `slot_names` translates compiled head slots back to
/// source-level variable names.
fn partial_binds(cr: &CompiledRule, key_cols: &[usize], pred: &Predicate) -> Vec<Bind> {
    key_cols
        .iter()
        .map(|&c| match cr.head_args.get(c) {
            Some(CHeadArg::Expr(CExpr::Lit(v))) => Bind::Const(v.clone()),
            Some(CHeadArg::Expr(CExpr::Slot(s))) => cr
                .slot_names
                .get(*s)
                .and_then(|name| {
                    pred.args
                        .iter()
                        .position(|a| matches!(a, Expr::Var(w) if *w == *name))
                })
                .map_or(Bind::Free, Bind::Col),
            _ => Bind::Free,
        })
        .collect()
}

/// The key projection of `pred`'s row onto `key_cols`, or `None` when some
/// component is not bound by the predicate alone.
fn source_binds(cr: &CompiledRule, key_cols: &[usize], pred: &Predicate) -> Option<Vec<Bind>> {
    let binds = partial_binds(cr, key_cols, pred);
    (!binds.contains(&Bind::Free)).then_some(binds)
}

/// The body predicates of rule `cr` in body order, each with its table id
/// and (for positive ones) the variant whose delta it is; `None` when some
/// body table is not interned.
fn body_preds<'r>(
    cr: &CompiledRule,
    rule: &'r Rule,
    ids: &TableIds,
) -> Option<Vec<(&'r Predicate, TableId, Option<usize>)>> {
    // Head args on the AST side must agree (paranoia against slot reuse).
    debug_assert_eq!(rule.head.args.len(), cr.head_args.len());
    let mut out = Vec::new();
    let mut pos = 0usize;
    for b in &rule.body {
        let BodyElem::Pred(p) = b else { continue };
        let variant = if p.negated {
            None
        } else {
            pos += 1;
            cr.variants
                .iter()
                .position(|v| v.delta_pred == Some(pos - 1))
        };
        out.push((p, ids.get(&p.table)?, variant));
    }
    Some(out)
}

/// Build the compiled per-view strategies from the planner's outputs.
/// `rules` are the AST rules aligned index-for-index with `compiled`.
pub fn view_strategies(
    rules: &[Rule],
    compiled: &[CompiledRule],
    decls: &HashMap<String, TableDecl>,
    ids: &TableIds,
) -> HashMap<TableId, ViewMaint> {
    let recursion = view_recursion(rules, decls);
    // Deriving view rules per head table, in rule order.
    let mut by_head: HashMap<TableId, Vec<usize>> = HashMap::new();
    for cr in compiled {
        if cr.is_view {
            by_head.entry(cr.head_tid).or_default().push(cr.id);
        }
    }
    let mut out = HashMap::new();
    'views: for (&v, rids) in &by_head {
        // Statefulness anywhere in the deriving set disqualifies the view.
        if rids
            .iter()
            .any(|&rid| super::shard::impure_call(&rules[rid]).is_some())
        {
            continue;
        }
        let arity = compiled[rids[0]].head_args.len();
        let key_cols = placement_cols(decls, &compiled[rids[0]].head_table, arity);
        let any_aggregate = rids.iter().any(|&r| compiled[r].aggregate);
        match recursion.get(&compiled[rids[0]].head_table) {
            None => {}
            Some(Recursion::SelfOnly) if !any_aggregate && key_cols.len() == arity => {
                // DRed: anchor each rule on the positive predicate binding
                // the most head columns (the first among equals); keys are
                // whole rows, so binds range over the head columns.
                let all_cols: Vec<usize> = (0..arity).collect();
                let mut anchors = Vec::new();
                let mut sources = Vec::new();
                for &rid in rids {
                    let (cr, rule) = (&compiled[rid], &rules[rid]);
                    let Some(preds) = body_preds(cr, rule, ids) else {
                        continue 'views;
                    };
                    let mut best: Option<(usize, AnchorEval)> = None;
                    for (p, tid, variant) in preds {
                        if let Some(vi) = variant {
                            let binds = partial_binds(cr, &all_cols, p);
                            let n = binds.iter().filter(|b| matches!(b, Bind::Col(_))).count();
                            if best.as_ref().is_none_or(|(m, _)| n > *m) {
                                let anchor = AnchorEval {
                                    rule: rid,
                                    variant: vi,
                                    tid,
                                    binds,
                                };
                                best = Some((n, anchor));
                            }
                        }
                        sources.push(SourceDep {
                            tid,
                            binds: None,
                            rule: rid,
                            variant,
                        });
                    }
                    match best {
                        Some((_, a)) => anchors.push(a),
                        None => continue 'views,
                    }
                }
                out.insert(
                    v,
                    ViewMaint::Dred {
                        rules: anchors,
                        sources,
                    },
                );
                continue;
            }
            Some(_) => continue,
        }
        if any_aggregate {
            // Aggregate views must be the sole writer of their head: a
            // second rule would interleave with group overwrites in an
            // order the scoped path cannot reproduce.
            if rids.len() != 1 {
                continue;
            }
            let rid = rids[0];
            let (cr, rule) = (&compiled[rid], &rules[rid]);
            let group_cols: Vec<usize> = cr
                .head_args
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a, CHeadArg::Expr(_)))
                .map(|(i, _)| i)
                .collect();
            // Declared key order -> position in the group tuple
            // (`check_aggregate` guarantees the sets match).
            let key_map: Option<Vec<usize>> = key_cols
                .iter()
                .map(|k| group_cols.iter().position(|g| g == k))
                .collect();
            let Some(key_map) = key_map else { continue };
            let Some(preds) = body_preds(cr, rule, ids) else {
                continue;
            };
            let mut sources = Vec::new();
            let mut anchor = None;
            for (p, tid, variant) in preds {
                let binds = source_binds(cr, &group_cols, p);
                if let (None, Some(vi), Some(b)) = (&anchor, variant, &binds) {
                    anchor = Some(AnchorEval {
                        rule: rid,
                        variant: vi,
                        tid,
                        binds: b.clone(),
                    });
                }
                // Aggregate variants fold rather than derive rows, so an
                // unbound source cannot discover its groups.
                sources.push(SourceDep {
                    tid,
                    binds,
                    rule: rid,
                    variant: None,
                });
            }
            let Some(anchor) = anchor else { continue };
            out.insert(
                v,
                ViewMaint::GroupRecompute {
                    rule: rid,
                    anchor,
                    sources,
                    group_cols,
                    key_map,
                },
            );
            continue;
        }

        // Non-aggregate views: counting when every rule is a simple
        // single-predicate projection over a whole-row-keyed head, else
        // keyed delete-and-rederive when every rule can anchor.
        let whole_row = key_cols.len() == arity;
        let countable = whole_row
            && rids.iter().all(|&r| {
                let rule = &rules[r];
                rule.positive_predicates().count() == 1
                    && !rule
                        .body
                        .iter()
                        .any(|b| matches!(b, BodyElem::Pred(p) if p.negated))
            });
        if countable {
            let mut crules = Vec::new();
            let mut sources = Vec::new();
            for &rid in rids {
                let cr = &compiled[rid];
                let Some(vi) = cr.variants.iter().position(|v| v.delta_pred == Some(0)) else {
                    continue 'views;
                };
                crules.push((rid, vi));
                sources.push(cr.positive_tids[0]);
            }
            out.insert(
                v,
                ViewMaint::Counting {
                    rules: crules,
                    sources,
                },
            );
            continue;
        }

        let mut anchors = Vec::new();
        let mut sources = Vec::new();
        for &rid in rids {
            let (cr, rule) = (&compiled[rid], &rules[rid]);
            let Some(preds) = body_preds(cr, rule, ids) else {
                continue 'views;
            };
            let mut anchor = None;
            for (p, tid, variant) in preds {
                let binds = source_binds(cr, &key_cols, p);
                if let (None, Some(vi), Some(b)) = (&anchor, variant, &binds) {
                    anchor = Some(AnchorEval {
                        rule: rid,
                        variant: vi,
                        tid,
                        binds: b.clone(),
                    });
                }
                sources.push(SourceDep {
                    tid,
                    binds,
                    rule: rid,
                    variant,
                });
            }
            // Every deriving rule needs an anchor, or touched keys could
            // not be re-derived through it.
            match anchor {
                Some(a) => anchors.push(a),
                None => continue 'views,
            }
        }
        out.insert(
            v,
            ViewMaint::KeyRederive {
                key_cols: key_cols.clone(),
                rules: anchors,
                sources,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{report, ProgramContext, SourceMap};
    use super::*;

    fn maint_report(src: &str) -> MaintReport {
        let mut ctx = ProgramContext::new();
        let mut map = SourceMap::new();
        assert!(ctx.add_source("t.olg", src, &mut map));
        report(&ctx).maint
    }

    fn verdict(rep: &MaintReport, rule: usize, variant: usize) -> &MaintVerdict {
        &rep.rules[rule].variants[variant].1
    }

    #[test]
    fn single_pred_whole_row_view_counts() {
        let rep = maint_report(
            "define(src, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             src(1, 2);
             v(X, Y) :- src(X, Y), Y > 0;",
        );
        assert_eq!(verdict(&rep, 0, 0), &MaintVerdict::Counting, "{rep:?}");
    }

    #[test]
    fn computed_head_still_counts() {
        // The head column is a pure function of the source row: counting
        // needs no inverse, so this still certifies.
        let rep = maint_report(
            "define(src, keys(0), {Int});
             define(v, keys(0), {Int});
             src(1);
             v(Y) :- src(X), Y := X + 1;",
        );
        assert_eq!(verdict(&rep, 0, 0), &MaintVerdict::Counting);
    }

    #[test]
    fn keyed_join_gets_support_rederive() {
        let rep = maint_report(
            "define(a, keys(0), {Int, Int});
             define(b, keys(0), {Int, Int});
             define(v, keys(0), {Int, Int});
             a(1, 2); b(2, 3);
             v(X, Z) :- a(X, Y), b(Y, Z);",
        );
        // delta a: head key col 0 = X, a column of a's row.
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                recursive: false,
                discovered: false,
            }
        );
        // delta b: X is join-bound, but `a` binds it: the touched keys are
        // discovered by evaluating the variant, then re-derived through a.
        assert_eq!(
            verdict(&rep, 0, 1),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                recursive: false,
                discovered: true,
            }
        );
        assert!(verdict(&rep, 0, 1).incremental());
        assert!(render(&rep).contains("delta b: support-rederive(key=[0], join-discovered)"));
    }

    #[test]
    fn head_key_no_predicate_binds_is_fixable_full() {
        // Key (Y, Z): a binds Y, b binds Z, nobody binds both.
        let rep = maint_report(
            "define(a, keys(0), {Int, Int});
             define(b, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             a(1, 2); b(1, 3);
             v(Y, Z) :- a(X, Y), b(X, Z);",
        );
        for variant in 0..2 {
            match verdict(&rep, 0, variant) {
                MaintVerdict::FullRecompute { code, fixable, .. } => {
                    assert_eq!(*code, "unbound-head-key");
                    assert!(fixable);
                }
                other => panic!("expected full-recompute, got {other}"),
            }
        }
    }

    #[test]
    fn aggregates_group_recompute_when_delta_names_the_group() {
        let rep = maint_report(
            "define(src, keys(0,1), {Int, Int});
             define(agg, keys(0), {Int, Int});
             src(1, 2);
             agg(X, count<Y>) :- src(X, Y);",
        );
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::GroupRecompute { group: vec![0] }
        );
    }

    #[test]
    fn aggregate_over_join_bound_group_is_fixable_full() {
        let rep = maint_report(
            "define(m, keys(0), {Int, Int});
             define(src, keys(0,1), {Int, Int});
             define(agg, keys(0), {Int, Int});
             m(1, 7); src(7, 2);
             agg(G, count<Y>) :- m(X, G), src(X, Y);",
        );
        // delta src: G is join-bound through m.
        match verdict(&rep, 0, 1) {
            MaintVerdict::FullRecompute { code, fixable, .. } => {
                assert_eq!(*code, "unbound-group-key");
                assert!(fixable);
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn recursive_views_are_flagged() {
        let rep = maint_report(
            "define(edge, keys(0,1), {Int, Int});
             define(path, keys(0,1), {Int, Int});
             edge(1, 2);
             path(X, Y) :- edge(X, Y);
             path(X, Z) :- edge(X, Y), path(Y, Z);",
        );
        // Both path rules carry the recursive flag (the head is reachable
        // from its own body), including the non-recursive base rule, and
        // both maintain incrementally (DRed).
        for (rule, variant) in [(1, 1), (0, 0)] {
            match verdict(&rep, rule, variant) {
                MaintVerdict::SupportRederive { recursive, .. } => assert!(recursive),
                other => panic!("expected support-rederive, got {other}"),
            }
            assert!(verdict(&rep, rule, variant).incremental());
        }
    }

    #[test]
    fn keyed_and_mutual_recursion_stay_full() {
        let keyed = maint_report(
            "define(edge, keys(0,1), {Int, Int});
             define(hop, keys(0), {Int, Int});
             edge(1, 2);
             hop(X, Y) :- edge(X, Y);
             hop(X, Z) :- edge(X, Y), hop(Y, Z);",
        );
        assert!(
            matches!(
                verdict(&keyed, 1, 1),
                MaintVerdict::FullRecompute {
                    code: "keyed-recursion",
                    fixable: true,
                    ..
                }
            ),
            "{keyed:?}"
        );
        let mutual = maint_report(
            "define(edge, keys(0,1), {Int, Int});
             define(odd, keys(0,1), {Int, Int});
             define(even, keys(0,1), {Int, Int});
             edge(1, 2);
             odd(X, Y) :- edge(X, Y);
             odd(X, Z) :- edge(X, Y), even(Y, Z);
             even(X, Z) :- edge(X, Y), odd(Y, Z);",
        );
        assert!(
            matches!(
                verdict(&mutual, 2, 0),
                MaintVerdict::FullRecompute {
                    code: "mutual-recursion",
                    fixable: false,
                    ..
                }
            ),
            "{mutual:?}"
        );
    }

    #[test]
    fn stateful_builtin_is_hard_full_recompute() {
        let rep = maint_report(
            "define(src, keys(0), {Int});
             define(v, keys(0,1), {Int, Int});
             src(1);
             v(X, I) :- src(X), I := qid();",
        );
        match verdict(&rep, 0, 0) {
            MaintVerdict::FullRecompute {
                code,
                fixable,
                reason,
            } => {
                assert_eq!(*code, "impure-builtin");
                assert!(!fixable, "{reason}");
            }
            other => panic!("expected full-recompute, got {other}"),
        }
    }

    #[test]
    fn non_view_rules_are_absent() {
        let rep = maint_report(
            "event e, {Int};
             define(t, keys(0), {Int});
             t(X) :- e(X);",
        );
        assert!(rep.rules.is_empty(), "{rep:?}");
    }

    #[test]
    fn negated_body_means_rederive_not_counting() {
        let rep = maint_report(
            "define(a, keys(0), {Int});
             define(b, keys(0), {Int});
             define(v, keys(0), {Int});
             a(1); b(2);
             v(X) :- a(X), notin b(X);",
        );
        assert_eq!(
            verdict(&rep, 0, 0),
            &MaintVerdict::SupportRederive {
                key: vec![0],
                recursive: false,
                discovered: false,
            }
        );
    }

    #[test]
    fn render_lists_verdicts_and_json_is_tagged() {
        let rep = maint_report(
            "define(src, keys(0), {Int, Int});
             define(v, keys(0,1), {Int, Int});
             src(1, 2);
             v(X, Y) :- src(X, Y);",
        );
        let s = render(&rep);
        assert!(s.contains("view rule `rule#0(v)` -> v"), "{s}");
        assert!(s.contains("delta src: counting"), "{s}");
        let j = render_json(&rep);
        assert!(j.contains("\"verdict\":\"counting\""), "{j}");
    }
}
