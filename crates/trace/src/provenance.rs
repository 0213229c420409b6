//! Why-provenance: reconstruct derivation trees from the runtime's
//! first-witness records.
//!
//! The runtime (with `set_provenance(true)`) records, for the first
//! derivation of each tuple, the rule and the positive body tuples that
//! produced it. A [`ProvStore`] collects those records — from one runtime
//! or a whole simulated cluster — and answers *"why does this tuple
//! exist?"* by recursively expanding inputs into a [`DerivationNode`]
//! tree. Tuples with no record (host insertions, facts, network inputs
//! whose sender recorded the send) render as leaves.

use boom_overlog::{ProvRecord, Row};
use std::collections::{HashMap, HashSet};

/// Render a tuple as `table(v1, v2, ...)` using Overlog value syntax.
pub fn render_tuple(table: &str, row: &Row) -> String {
    let args: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    format!("{table}({})", args.join(", "))
}

/// One node of a derivation tree.
#[derive(Debug, Clone)]
pub struct DerivationNode {
    /// Table of the tuple.
    pub table: String,
    /// The tuple itself.
    pub row: Row,
    /// Deriving rule label; `None` for base tuples (facts, host or network
    /// inputs) and for back-edges cut by the cycle guard.
    pub rule: Option<String>,
    /// Simulator node that recorded the derivation, when known.
    pub node: Option<String>,
    /// Tick at which the derivation was recorded.
    pub tick: Option<u64>,
    /// Supporting body tuples, in scan order.
    pub children: Vec<DerivationNode>,
    /// True when this tuple already appeared on the path from the root
    /// (recursive rules); its support is elided to keep the tree finite.
    pub cycle: bool,
}

impl DerivationNode {
    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Render the tree in ASCII, one tuple per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        if !root {
            out.push_str(prefix);
            out.push_str(if last { "`- " } else { "|- " });
        }
        out.push_str(&render_tuple(&self.table, &self.row));
        match (&self.rule, self.cycle) {
            (_, true) => out.push_str("  [cycle: derivation shown above]"),
            (Some(r), _) => {
                out.push_str(&format!("  <- {r}"));
                if let Some(n) = &self.node {
                    out.push_str(&format!(" @{n}"));
                }
                if let Some(t) = self.tick {
                    out.push_str(&format!(" [tick {t}]"));
                }
            }
            (None, _) => out.push_str("  (base/external)"),
        }
        out.push('\n');
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "|  " })
        };
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }
}

/// A collection of provenance records, queryable by tuple.
#[derive(Debug, Default)]
pub struct ProvStore {
    /// First record per `(table, row)` — insertion order decides the
    /// winner, so add nodes in a deterministic order.
    by_tuple: HashMap<(String, Row), usize>,
    records: Vec<(Option<String>, ProvRecord)>,
}

impl ProvStore {
    /// Empty store.
    pub fn new() -> Self {
        ProvStore::default()
    }

    /// Add one runtime's records, tagged with its simulator node name.
    pub fn add_node(&mut self, node: &str, records: impl IntoIterator<Item = ProvRecord>) {
        for rec in records {
            let key = (rec.table.clone(), rec.row.clone());
            let idx = self.records.len();
            self.records.push((Some(node.to_string()), rec));
            self.by_tuple.entry(key).or_insert(idx);
        }
    }

    /// Add records with no node tag (single-runtime use).
    pub fn add(&mut self, records: impl IntoIterator<Item = ProvRecord>) {
        for rec in records {
            let key = (rec.table.clone(), rec.row.clone());
            let idx = self.records.len();
            self.records.push((None, rec));
            self.by_tuple.entry(key).or_insert(idx);
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All derived tuples whose rendered form contains `pattern`
    /// (substring match on `table(v1, ...)`), in insertion order,
    /// deduplicated.
    pub fn find(&self, pattern: &str) -> Vec<(String, Row)> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, rec) in &self.records {
            let key = (rec.table.clone(), rec.row.clone());
            if seen.contains(&key) {
                continue;
            }
            if render_tuple(&rec.table, &rec.row).contains(pattern) {
                seen.insert(key.clone());
                out.push(key);
            }
        }
        out
    }

    /// Build the derivation tree for a tuple. Unrecorded tuples become
    /// base/external leaves; tuples already on the path are cut as cycles.
    pub fn derivation(&self, table: &str, row: &Row) -> DerivationNode {
        let mut path = HashSet::new();
        self.build(table, row, &mut path)
    }

    fn build(&self, table: &str, row: &Row, path: &mut HashSet<(String, Row)>) -> DerivationNode {
        let key = (table.to_string(), row.clone());
        let Some(&idx) = self.by_tuple.get(&key) else {
            return DerivationNode {
                table: table.to_string(),
                row: row.clone(),
                rule: None,
                node: None,
                tick: None,
                children: Vec::new(),
                cycle: false,
            };
        };
        let (node, rec) = &self.records[idx];
        if !path.insert(key.clone()) {
            return DerivationNode {
                table: table.to_string(),
                row: row.clone(),
                rule: Some(rec.rule.clone()),
                node: node.clone(),
                tick: Some(rec.tick),
                children: Vec::new(),
                cycle: true,
            };
        }
        let children = rec
            .inputs
            .iter()
            .map(|(t, r)| self.build(t, r, path))
            .collect();
        path.remove(&key);
        DerivationNode {
            table: table.to_string(),
            row: row.clone(),
            rule: Some(rec.rule.clone()),
            node: node.clone(),
            tick: Some(rec.tick),
            children,
            cycle: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boom_overlog::OverlogRuntime;

    fn transitive_closure_rt() -> OverlogRuntime {
        let mut rt = OverlogRuntime::new("n1");
        rt.set_provenance(true).unwrap();
        rt.load(
            "define(link, keys(0,1), {Str, Str});
             define(path, keys(0,1), {Str, Str});
             lnk path(X, Y) :- link(X, Y);
             hop path(X, Z) :- link(X, Y), path(Y, Z);
             link(\"a\", \"b\");
             link(\"b\", \"c\");",
        )
        .unwrap();
        rt.tick(0).unwrap();
        rt
    }

    #[test]
    fn derivation_tree_reaches_base_links() {
        let mut rt = transitive_closure_rt();
        let mut store = ProvStore::new();
        store.add(rt.take_provenance());
        let targets = store.find("path(\"a\", \"c\")");
        assert_eq!(targets.len(), 1, "{targets:?}");
        let (t, r) = &targets[0];
        let tree = store.derivation(t, r);
        let text = tree.render();
        assert!(text.contains("<- hop"), "{text}");
        assert!(text.contains("link(\"a\", \"b\")"), "{text}");
        assert!(text.contains("(base/external)"), "{text}");
        assert!(tree.size() >= 3, "{text}");
    }

    #[test]
    fn unrecorded_tuples_are_leaves() {
        let store = ProvStore::new();
        let row: Row = std::sync::Arc::new(vec![boom_overlog::Value::Int(1)]);
        let tree = store.derivation("ghost", &row);
        assert!(tree.rule.is_none());
        assert!(tree.children.is_empty());
    }
}
