//! Physical query plans.
//!
//! A plan is an arena of nodes built bottom-up, so node indices are a
//! topological order (children precede parents) — exactly the execution
//! order the paper feeds to the LSTM. Every node renders the
//! Spark-`explain`-style *execution statement* that the word2vec encoder
//! tokenizes, and exposes the signed-degree structure rows used by the
//! structure embedding (children = +1, parent = −1).

use crate::expr::Expr;
use crate::plan::spec::AggSpec;
use crate::schema::ColumnRef;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// Index of a node within a [`PhysicalPlan`].
pub type NodeId = usize;

/// Aggregation mode (Spark splits aggregates around an exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggMode {
    /// Pre-shuffle partial aggregation.
    Partial,
    /// Post-shuffle final aggregation.
    Final,
}

/// Physical operator.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PhysicalOp {
    /// Columnar scan of a base table with optional pushed-down filter.
    FileScan {
        /// Query binding (alias) this scan feeds.
        binding: String,
        /// Base table name in the catalog.
        table: String,
        /// Output columns (binding-qualified).
        output: Vec<ColumnRef>,
        /// Filter pushed into the scan, if any.
        pushed_filter: Option<Expr>,
    },
    /// Row filter.
    Filter {
        /// Predicate (rows failing or NULL are dropped).
        predicate: Expr,
    },
    /// Column pruning / reordering.
    Project {
        /// Output columns.
        columns: Vec<ColumnRef>,
    },
    /// Hash-partitioned shuffle.
    ExchangeHash {
        /// Partitioning keys.
        keys: Vec<ColumnRef>,
        /// Number of shuffle partitions.
        partitions: usize,
    },
    /// Shuffle of everything to a single partition.
    ExchangeSingle,
    /// Broadcast of the build side to every executor.
    BroadcastExchange,
    /// Sort by keys (bool = ascending).
    Sort {
        /// Sort keys with ascending flags.
        keys: Vec<(ColumnRef, bool)>,
    },
    /// Sort-merge join (children: `[left, right]`, both sorted).
    SortMergeJoin {
        /// Left key.
        left_key: ColumnRef,
        /// Right key.
        right_key: ColumnRef,
    },
    /// Broadcast-hash join (children: `[probe, broadcast build]`).
    BroadcastHashJoin {
        /// Probe-side key.
        probe_key: ColumnRef,
        /// Build-side key.
        build_key: ColumnRef,
    },
    /// Shuffled hash join (children: `[left, right]`, both exchanged).
    ShuffledHashJoin {
        /// Left key.
        left_key: ColumnRef,
        /// Right key (build side).
        right_key: ColumnRef,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Partial (map-side) or final (reduce-side).
        mode: AggMode,
        /// Grouping keys.
        group_by: Vec<ColumnRef>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Row-count limit.
    Limit {
        /// Maximum rows.
        n: usize,
    },
}

impl PhysicalOp {
    /// Short operator name, matching Spark SQL's operator vocabulary
    /// (Table II of the paper).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::FileScan { .. } => "FileScan",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::Project { .. } => "Project",
            PhysicalOp::ExchangeHash { .. } => "ExchangeHashPartition",
            PhysicalOp::ExchangeSingle => "ExchangeSinglePartition",
            PhysicalOp::BroadcastExchange => "BroadcastExchange",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::SortMergeJoin { .. } => "SortMergeJoin",
            PhysicalOp::BroadcastHashJoin { .. } => "BroadcastHashJoin",
            PhysicalOp::ShuffledHashJoin { .. } => "ShuffledHashJoin",
            PhysicalOp::HashAggregate { .. } => "HashAggregate",
            PhysicalOp::Limit { .. } => "CollectLimit",
        }
    }

    /// True for the three join operators.
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            PhysicalOp::SortMergeJoin { .. }
                | PhysicalOp::BroadcastHashJoin { .. }
                | PhysicalOp::ShuffledHashJoin { .. }
        )
    }

    /// True for exchanges (stage boundaries).
    pub fn is_exchange(&self) -> bool {
        matches!(
            self,
            PhysicalOp::ExchangeHash { .. }
                | PhysicalOp::ExchangeSingle
                | PhysicalOp::BroadcastExchange
        )
    }
}

/// One node of a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalNode {
    /// Operator.
    pub op: PhysicalOp,
    /// Child node ids (all smaller than this node's id).
    pub children: Vec<NodeId>,
    /// Optimizer-estimated output rows.
    pub est_rows: f64,
    /// Optimizer-estimated output bytes.
    pub est_bytes: f64,
}

/// A physical plan: an arena in bottom-up (topological) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
}

impl PhysicalPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node; children must already exist (bottom-up build).
    ///
    /// # Panics
    /// Panics if any child id is out of range.
    pub fn add(
        &mut self,
        op: PhysicalOp,
        children: Vec<NodeId>,
        est_rows: f64,
        est_bytes: f64,
    ) -> NodeId {
        let id = self.nodes.len();
        assert!(children.iter().all(|&c| c < id), "plan must be built bottom-up");
        self.nodes.push(PhysicalNode { op, children, est_rows, est_bytes });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node id (the last node added).
    ///
    /// # Panics
    /// Panics on an empty plan.
    pub fn root(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "empty plan has no root");
        self.nodes.len() - 1
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id]
    }

    /// All nodes in topological (execution) order.
    pub fn nodes(&self) -> &[PhysicalNode] {
        &self.nodes
    }

    /// Parent of each node (`None` for the root).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                parents[c] = Some(id);
            }
        }
        parents
    }

    /// The signed structure row of a node for the paper's structure
    /// embedding: children are +1, the parent is −1, everything else 0.
    pub fn structure_row(&self, id: NodeId, parents: &[Option<NodeId>]) -> Vec<f32> {
        let mut row = vec![0.0f32; self.nodes.len()];
        for &c in &self.nodes[id].children {
            row[c] = 1.0;
        }
        if let Some(p) = parents[id] {
            row[p] = -1.0;
        }
        row
    }

    /// The Spark-`explain`-style execution statement of a node.
    pub fn statement(&self, id: NodeId) -> String {
        let mut s = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_statement(id, &mut s);
        s
    }

    /// Writes the execution statement of a node into `w` — the one
    /// renderer: [`Self::statement`] collects it into a `String`, the
    /// plan encoder streams it through its tokenizer. It builds no
    /// intermediate text, so it allocates only if `w` does.
    pub fn write_statement(&self, id: NodeId, w: &mut impl fmt::Write) -> fmt::Result {
        // PANIC-FREE: callers pass ids below `len()`, like `node()`.
        match &self.nodes[id].op {
            PhysicalOp::FileScan { table, output, pushed_filter, .. } => {
                write!(w, "FileScan {table}[")?;
                write_list(w, output, ",", |w, c| w.write_str(&c.column))?;
                w.write_char(']')?;
                if let Some(filter) = pushed_filter {
                    w.write_str(" PushedFilters: [")?;
                    write_conjuncts(w, filter, &mut true)?;
                    w.write_char(']')?;
                }
                Ok(())
            }
            PhysicalOp::Filter { predicate } => write!(w, "Filter {predicate}"),
            PhysicalOp::Project { columns } => {
                w.write_str("Project [")?;
                write_list(w, columns, ", ", |w, c| write!(w, "{c}"))?;
                w.write_char(']')
            }
            PhysicalOp::ExchangeHash { keys, partitions } => {
                w.write_str("Exchange hashpartitioning(")?;
                write_list(w, keys, ", ", |w, c| write!(w, "{c}"))?;
                write!(w, ", {partitions})")
            }
            PhysicalOp::ExchangeSingle => w.write_str("Exchange SinglePartition"),
            PhysicalOp::BroadcastExchange => {
                w.write_str("BroadcastExchange HashedRelationBroadcastMode")
            }
            PhysicalOp::Sort { keys } => {
                w.write_str("Sort [")?;
                write_list(w, keys, ", ", |w, (c, asc)| {
                    write!(w, "{c} {}", if *asc { "ASC" } else { "DESC" })
                })?;
                w.write_char(']')
            }
            PhysicalOp::SortMergeJoin { left_key, right_key } => {
                write!(w, "SortMergeJoin [{left_key}], [{right_key}], Inner")
            }
            PhysicalOp::BroadcastHashJoin { probe_key, build_key } => {
                write!(w, "BroadcastHashJoin [{probe_key}], [{build_key}], Inner, BuildRight")
            }
            PhysicalOp::ShuffledHashJoin { left_key, right_key } => {
                write!(w, "ShuffledHashJoin [{left_key}], [{right_key}], Inner, BuildRight")
            }
            PhysicalOp::HashAggregate { mode, group_by, aggs } => {
                w.write_str("HashAggregate(keys=[")?;
                write_list(w, group_by, ", ", |w, c| write!(w, "{c}"))?;
                w.write_str("], functions=[")?;
                let prefix = match mode {
                    AggMode::Partial => "partial_",
                    AggMode::Final => "",
                };
                write_list(w, aggs, ", ", |w, a| match &a.arg {
                    Some(c) => write!(w, "{prefix}{}({c})", a.func),
                    None => write!(w, "{prefix}{}(1)", a.func),
                })?;
                w.write_str("])")
            }
            PhysicalOp::Limit { n } => write!(w, "CollectLimit {n}"),
        }
    }

    /// Multi-line, indented `EXPLAIN`-style rendering, root first.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_rec(self.root(), 0, &mut out);
        out
    }

    fn explain_rec(&self, id: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = self.write_statement(id, out);
        out.push('\n');
        for &c in &self.nodes[id].children {
            self.explain_rec(c, depth + 1, out);
        }
    }

    /// A canonical fingerprint for plan deduplication: every node's
    /// statement and child list — not the estimates, and (a scan renders
    /// its table) not the aliases. One `String` for the whole plan.
    pub fn fingerprint(&self) -> String {
        let mut s = String::with_capacity(64 * self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            // Writing into a `String` cannot fail.
            let _ = write!(s, "{i}:");
            let _ = self.write_statement(i, &mut s);
            let _ = write!(s, "{:?};", n.children);
        }
        s
    }

    /// A 64-bit hash of everything `==` compares: every node's
    /// operator with its columns, predicate trees and literals, its
    /// child edges and its `est_rows` / `est_bytes` (floats by bit
    /// pattern). Equal plans hash equal, a zero's sign aside; the walk
    /// allocates nothing and renders no text, so it is cheap enough to
    /// key a per-request cache — unlike [`Self::fingerprint`], which
    /// builds every statement string and ignores the estimates. Stable
    /// within a process only. A hash match is a hint, not a proof:
    /// confirm with `==`.
    pub fn structural_hash(&self) -> u64 {
        let mut h = WordHasher(0);
        h.write_usize(self.nodes.len());
        for node in &self.nodes {
            node.op.hash(&mut h);
            node.children.hash(&mut h);
            h.write_u64(node.est_rows.to_bits());
            h.write_u64(node.est_bytes.to_bits());
        }
        h.finish()
    }

    /// Ids of join nodes, in execution order.
    pub fn join_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].op.is_join())
            .collect()
    }

    /// Total estimated bytes scanned from base tables.
    pub fn scan_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, PhysicalOp::FileScan { .. }))
            .map(|n| n.est_bytes)
            .sum()
    }
}

/// Writes `items` through `item`, separated by `sep`.
fn write_list<W: fmt::Write, T>(
    w: &mut W,
    items: &[T],
    sep: &str,
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            w.write_str(sep)?;
        }
        item(w, x)?;
    }
    Ok(())
}

/// Writes the AND-ed factors of `expr`, comma-separated, in the order
/// [`Expr::split_conjunction`] lists them; `first` is true until one
/// has been written.
fn write_conjuncts(w: &mut impl fmt::Write, expr: &Expr, first: &mut bool) -> fmt::Result {
    if let Expr::And(a, b) = expr {
        write_conjuncts(w, a, first)?;
        return write_conjuncts(w, b, first);
    }
    if !std::mem::take(first) {
        w.write_str(", ")?;
    }
    write!(w, "{expr}")
}

/// The hasher behind [`PhysicalPlan::structural_hash`]: one
/// rotate-xor-multiply per 8-byte word (the FxHash step) and a final
/// avalanche. A plan is a few hundred short writes — names, tags,
/// counts — and std's SipHash spends twice as long on them (2.0 us vs
/// 1.0 us per 18-node plan); nothing here needs its flood resistance,
/// because a colliding fingerprint can only cost a cache miss. Public
/// for the plan encoder's vocabulary map, whose keys come from a
/// checkpoint, never from a request.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Whole words by a fixed-size copy, the tail by shifts: the
        // variable-length copy into a zeroed word cost a third of the
        // walk, and names are mostly shorter than a word.
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            // PANIC-FREE: `chunks_exact(8)` yields exactly 8 bytes.
            word.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.word(tail.iter().rev().fold(0, |word, &b| word << 8 | u64::from(b)));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// Murmur3's 64-bit finalizer: the multiply step alone leaves the
    /// low bits weak, and callers index tables with them.
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::sql::ast::AggFunc;
    use crate::types::Value;

    fn two_node_plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "title".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: Some(Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Lt, Value::Int(7))),
            },
            vec![],
            100.0,
            800.0,
        );
        p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            vec![scan],
            1.0,
            8.0,
        );
        p
    }

    #[test]
    fn bottom_up_invariant_enforced() {
        let p = two_node_plan();
        assert_eq!(p.root(), 1);
        assert_eq!(p.node(1).children, vec![0]);
    }

    #[test]
    #[should_panic(expected = "bottom-up")]
    fn forward_reference_rejected() {
        let mut p = PhysicalPlan::new();
        p.add(PhysicalOp::ExchangeSingle, vec![3], 0.0, 0.0);
    }

    #[test]
    fn statements_render_spark_style() {
        let p = two_node_plan();
        assert_eq!(p.statement(0), "FileScan title[id] PushedFilters: [(t.id < 7)]");
        assert_eq!(p.statement(1), "HashAggregate(keys=[], functions=[partial_count(1)])");
    }

    /// One statement per operator, with the list separators, the
    /// conjunct split and the aggregate forms — pinned as text, since
    /// the word2vec vocabulary is trained on exactly these strings.
    #[test]
    fn every_operator_renders_its_statement() {
        let col = |c: &str| ColumnRef::new("t", c);
        let cmp = |c: &str, op, v| Expr::cmp(col(c), op, v);
        let filter = Expr::And(
            Box::new(Expr::And(
                Box::new(cmp("id", CmpOp::Ge, Value::Int(3))),
                Box::new(Expr::Or(
                    Box::new(cmp("kind", CmpOp::Eq, Value::Str("tv".into()))),
                    Box::new(Expr::IsNull(Box::new(Expr::Column(col("kind"))))),
                )),
            )),
            Box::new(cmp("rating", CmpOp::Lt, Value::Float(8.25))),
        );
        let agg = |func, arg: Option<&str>| AggSpec { func, arg: arg.map(col) };
        let ops = [
            (
                PhysicalOp::FileScan {
                    binding: "t".into(),
                    table: "title".into(),
                    output: vec![col("id"), col("kind")],
                    pushed_filter: Some(filter.clone()),
                },
                "FileScan title[id,kind] PushedFilters: [(t.id >= 3), \
                 ((t.kind = 'tv') || isnull(t.kind)), (t.rating < 8.25)]",
            ),
            (
                PhysicalOp::FileScan {
                    binding: "t".into(),
                    table: "title".into(),
                    output: vec![],
                    pushed_filter: None,
                },
                "FileScan title[]",
            ),
            (
                PhysicalOp::Filter { predicate: filter },
                "Filter (((t.id >= 3) && ((t.kind = 'tv') || isnull(t.kind))) && \
                 (t.rating < 8.25))",
            ),
            (
                PhysicalOp::Project { columns: vec![col("id"), col("kind")] },
                "Project [t.id, t.kind]",
            ),
            (
                PhysicalOp::ExchangeHash {
                    keys: vec![col("id"), col("kind")],
                    partitions: 200,
                },
                "Exchange hashpartitioning(t.id, t.kind, 200)",
            ),
            (PhysicalOp::ExchangeSingle, "Exchange SinglePartition"),
            (PhysicalOp::BroadcastExchange, "BroadcastExchange HashedRelationBroadcastMode"),
            (
                PhysicalOp::Sort {
                    keys: vec![(col("id"), true), (col("kind"), false)],
                },
                "Sort [t.id ASC, t.kind DESC]",
            ),
            (
                PhysicalOp::SortMergeJoin { left_key: col("id"), right_key: col("kind") },
                "SortMergeJoin [t.id], [t.kind], Inner",
            ),
            (
                PhysicalOp::BroadcastHashJoin { probe_key: col("id"), build_key: col("kind") },
                "BroadcastHashJoin [t.id], [t.kind], Inner, BuildRight",
            ),
            (
                PhysicalOp::ShuffledHashJoin { left_key: col("id"), right_key: col("kind") },
                "ShuffledHashJoin [t.id], [t.kind], Inner, BuildRight",
            ),
            (
                PhysicalOp::HashAggregate {
                    mode: AggMode::Partial,
                    group_by: vec![col("kind"), col("id")],
                    aggs: vec![
                        agg(AggFunc::Count, None),
                        agg(AggFunc::Count, Some("id")),
                        agg(AggFunc::Sum, None),
                    ],
                },
                "HashAggregate(keys=[t.kind, t.id], \
                 functions=[partial_count(1), partial_count(t.id), partial_sum(1)])",
            ),
            (
                PhysicalOp::HashAggregate {
                    mode: AggMode::Final,
                    group_by: vec![],
                    aggs: vec![agg(AggFunc::Avg, Some("rating"))],
                },
                "HashAggregate(keys=[], functions=[avg(t.rating)])",
            ),
            (PhysicalOp::Limit { n: 10 }, "CollectLimit 10"),
        ];
        let mut p = PhysicalPlan::new();
        for (id, (op, statement)) in ops.into_iter().enumerate() {
            p.add(op, vec![], 1.0, 8.0);
            assert_eq!(p.statement(id), statement);
        }
    }

    #[test]
    fn structure_rows_are_signed_degrees() {
        let p = two_node_plan();
        let parents = p.parents();
        assert_eq!(p.structure_row(0, &parents), vec![0.0, -1.0]);
        assert_eq!(p.structure_row(1, &parents), vec![1.0, 0.0]);
    }

    #[test]
    fn explain_is_root_first() {
        let p = two_node_plan();
        let text = p.explain();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("HashAggregate"));
        assert!(text.lines().nth(1).unwrap().trim_start().starts_with("FileScan"));
    }

    /// `write` is defined on zero-padded little-endian words, however
    /// it reads them.
    #[test]
    fn hasher_write_folds_zero_padded_little_endian_words() {
        let bytes: Vec<u8> = (1..=29).collect();
        for len in 0..=bytes.len() {
            let mut by_words = WordHasher(0);
            for chunk in bytes[..len].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                by_words.write_u64(u64::from_le_bytes(word));
            }
            let mut written = WordHasher(0);
            written.write(&bytes[..len]);
            assert_eq!(written.finish(), by_words.finish(), "{len} bytes");
        }
    }

    #[test]
    fn structural_hash_is_equal_for_equal_plans() {
        let a = two_node_plan();
        assert_eq!(a.structural_hash(), two_node_plan().structural_hash());
        assert_eq!(a.structural_hash(), a.clone().structural_hash());
        assert_ne!(a.structural_hash(), PhysicalPlan::new().structural_hash());
    }

    /// Rebuilds `two_node_plan` with one thing changed and checks the
    /// hash (and `==`, which it must follow) notices.
    #[test]
    fn structural_hash_sees_every_compared_field() {
        let scan = |table: &str, column: &str, literal: Value| PhysicalOp::FileScan {
            binding: "t".into(),
            table: table.into(),
            output: vec![ColumnRef::new("t", column)],
            pushed_filter: Some(Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Lt, literal)),
        };
        let count = |mode| PhysicalOp::HashAggregate {
            mode,
            group_by: vec![],
            aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
        };
        let build =
            |leaf: PhysicalOp, top: PhysicalOp, edge: Vec<NodeId>, rows: f64, bytes: f64| {
                let mut p = PhysicalPlan::new();
                p.add(leaf.clone(), vec![], 100.0, 800.0);
                p.add(leaf, vec![], rows, bytes);
                p.add(top, edge, 1.0, 8.0);
                p
            };
        let base_leaf = || scan("title", "id", Value::Int(7));
        let base = build(base_leaf(), count(AggMode::Partial), vec![0], 100.0, 800.0);
        let variants = [
            ("op kind", build(base_leaf(), PhysicalOp::ExchangeSingle, vec![0], 100.0, 800.0)),
            ("op field", build(base_leaf(), count(AggMode::Final), vec![0], 100.0, 800.0)),
            (
                "literal",
                build(
                    scan("title", "id", Value::Int(8)),
                    count(AggMode::Partial),
                    vec![0],
                    100.0,
                    800.0,
                ),
            ),
            (
                "literal type",
                build(
                    scan("title", "id", Value::Float(7.0)),
                    count(AggMode::Partial),
                    vec![0],
                    100.0,
                    800.0,
                ),
            ),
            (
                "column",
                build(
                    scan("title", "kind", Value::Int(7)),
                    count(AggMode::Partial),
                    vec![0],
                    100.0,
                    800.0,
                ),
            ),
            (
                "table",
                build(
                    scan("movie", "id", Value::Int(7)),
                    count(AggMode::Partial),
                    vec![0],
                    100.0,
                    800.0,
                ),
            ),
            ("child edge", build(base_leaf(), count(AggMode::Partial), vec![1], 100.0, 800.0)),
            (
                "extra edge",
                build(base_leaf(), count(AggMode::Partial), vec![0, 1], 100.0, 800.0),
            ),
            ("est_rows", build(base_leaf(), count(AggMode::Partial), vec![0], 101.0, 800.0)),
            ("est_bytes", build(base_leaf(), count(AggMode::Partial), vec![0], 100.0, 801.0)),
        ];
        for (what, variant) in &variants {
            assert_ne!(*variant, base, "{what}: the variant should differ");
            assert_ne!(variant.structural_hash(), base.structural_hash(), "{what} not hashed");
        }
    }

    #[test]
    fn fingerprints_distinguish_plans() {
        let a = two_node_plan();
        let mut b = two_node_plan();
        b.add(PhysicalOp::ExchangeSingle, vec![1], 1.0, 8.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
