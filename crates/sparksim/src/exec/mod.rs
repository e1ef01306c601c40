//! Vectorised plan interpreter.
//!
//! Executes a [`PhysicalPlan`] over the catalog's in-memory tables,
//! producing both the result batch and per-node work metrics
//! ([`NodeMetrics`]) — true output cardinalities and byte volumes. The
//! resource-aware time simulator converts those metrics into execution
//! time; the executor itself is resource-agnostic (it computes the *what*,
//! the simulator computes the *how long*).
//!
//! Materialisation is late: a node copies only the output columns some
//! operator above it reads ([`Reads`]); the rest travel as ghosts that
//! keep their width. Byte volumes therefore count every output column,
//! read or not — the metrics are those of a plan that carried them all.

mod aggregate;
mod join;
pub mod reference;

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::plan::physical::{AggMode, NodeId, PhysicalOp, PhysicalPlan};
use crate::schema::ColumnRef;
use crate::storage::{Column, ColumnData};
use crate::types::Value;
use std::cmp::Ordering;
use std::fmt;

pub use aggregate::execute_aggregate;
pub use join::{hash_join, merge_join};

/// True work counters observed while executing one plan node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeMetrics {
    /// Rows produced by the node.
    pub rows_out: f64,
    /// Bytes produced by the node (row count × row width).
    pub bytes_out: f64,
    /// Rows consumed: children's output rows, or for a scan the base
    /// table's full row count (what is read off storage).
    pub rows_in: f64,
    /// Bytes consumed: children's output bytes, or for a scan the bytes of
    /// the projected columns over the full table.
    pub bytes_in: f64,
}

/// Result of executing a plan: the root batch plus per-node metrics
/// aligned with the plan's node ids.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Output of the root operator.
    pub batch: Batch,
    /// Metrics for node `i` at index `i`.
    pub metrics: Vec<NodeMetrics>,
}

impl ExecResult {
    /// Convenience: the single scalar output of a `COUNT(*)`-style query.
    pub fn scalar_i64(&self) -> Option<i64> {
        if self.batch.num_rows() == 1 && self.batch.num_columns() >= 1 {
            self.batch.entries()[0].1.value(0).as_i64()
        } else {
            None
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn exec_err<T>(message: impl Into<String>) -> Result<T, ExecError> {
    Err(ExecError { message: message.into() })
}

/// Cap on rows materialised by any single operator (guards against
/// runaway join fan-out on skewed keys).
pub const DEFAULT_ROW_LIMIT: usize = 20_000_000;

/// The output columns of one plan node that some operator above it reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Reads {
    /// Every column: the root's output, and everything a final aggregate
    /// merges.
    All,
    /// Only these.
    Only(Vec<ColumnRef>),
}

impl Reads {
    /// Whether `re` is read.
    pub fn contains(&self, re: &ColumnRef) -> bool {
        match self {
            Reads::All => true,
            Reads::Only(refs) => refs.contains(re),
        }
    }

    fn add<'a>(&mut self, refs: impl IntoIterator<Item = &'a ColumnRef>) {
        if let Reads::Only(have) = self {
            for re in refs {
                if !have.contains(re) {
                    have.push(re.clone());
                }
            }
        }
    }

    fn merge(&mut self, other: &Reads) {
        match other {
            Reads::All => *self = Reads::All,
            Reads::Only(refs) => self.add(refs),
        }
    }

    /// Per node, the columns its ancestors read: the root's every column,
    /// and below it what each operator evaluates — filter predicates, sort
    /// keys, join keys, a partial aggregate's groups and arguments — plus
    /// what its own output must carry up.
    fn of_plan(plan: &PhysicalPlan) -> Vec<Reads> {
        let mut reads = vec![Reads::Only(Vec::new()); plan.len()];
        if let Some(root) = reads.last_mut() {
            *root = Reads::All;
        }
        for id in (0..plan.len()).rev() {
            let node = plan.node(id);
            let mut below = reads[id].clone();
            match &*node.op {
                PhysicalOp::FileScan { .. }
                | PhysicalOp::ExchangeHash { .. }
                | PhysicalOp::ExchangeSingle
                | PhysicalOp::BroadcastExchange
                | PhysicalOp::Limit { .. } => {}
                PhysicalOp::Filter { predicate } => below.add(predicate.referenced_columns()),
                PhysicalOp::Project { columns } => {
                    below = Reads::Only(
                        columns.iter().filter(|c| below.contains(c)).cloned().collect(),
                    );
                }
                PhysicalOp::Sort { keys } => below.add(keys.iter().map(|(re, _)| re)),
                PhysicalOp::SortMergeJoin { left_key: a, right_key: b }
                | PhysicalOp::BroadcastHashJoin { probe_key: a, build_key: b }
                | PhysicalOp::ShuffledHashJoin { left_key: a, right_key: b } => below.add([a, b]),
                PhysicalOp::HashAggregate { mode: AggMode::Partial, group_by, aggs } => {
                    below = Reads::Only(Vec::new());
                    below.add(group_by.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())));
                }
                PhysicalOp::HashAggregate { mode: AggMode::Final, .. } => below = Reads::All,
            }
            for &c in &node.children {
                reads[c].merge(&below);
            }
        }
        reads
    }
}

/// Executes physical plans against a catalog.
#[derive(Debug)]
pub struct Executor<'a> {
    catalog: &'a Catalog,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Executes a plan bottom-up and collects per-node metrics.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        let mut metrics = vec![NodeMetrics::default(); plan.len()];
        let mut outputs: Vec<Option<Batch>> = vec![None; plan.len()];
        let reads = Reads::of_plan(plan);
        for id in 0..plan.len() {
            let batch = self.exec_node(plan, id, &reads[id], &mut outputs)?;
            let (rows_in, bytes_in) = match &*plan.node(id).op {
                PhysicalOp::FileScan { table, output, .. } => {
                    // A scan reads the projected columns of the whole table
                    // off storage, regardless of the pushed filter.
                    let Some(t) = self.catalog.table(table) else {
                        return exec_err(format!("unknown table '{table}'"));
                    };
                    let rows = t.num_rows() as f64;
                    let width: usize = output
                        .iter()
                        .filter_map(|re| t.column(&re.column))
                        .map(|c| c.data.row_width())
                        .sum();
                    (rows, rows * width.max(8) as f64)
                }
                _ => {
                    let rows = plan.node(id).children.iter().map(|&c| metrics[c].rows_out).sum();
                    let bytes = plan.node(id).children.iter().map(|&c| metrics[c].bytes_out).sum();
                    (rows, bytes)
                }
            };
            metrics[id] = NodeMetrics {
                rows_out: batch.num_rows() as f64,
                bytes_out: (batch.num_rows() * batch.row_width().max(8)) as f64,
                rows_in,
                bytes_in,
            };
            // Children whose every parent has run can be dropped; with the
            // bottom-up order and tree shape, a child has exactly one parent.
            for &c in &plan.node(id).children {
                outputs[c] = None;
            }
            outputs[id] = Some(batch);
        }
        // The root executes last and is never dropped; an empty plan has none.
        match outputs.pop().flatten() {
            Some(batch) => Ok(ExecResult { batch, metrics }),
            None => exec_err("plan has no root output"),
        }
    }

    fn exec_node(
        &self,
        plan: &PhysicalPlan,
        id: NodeId,
        reads: &Reads,
        outputs: &mut [Option<Batch>],
    ) -> Result<Batch, ExecError> {
        let node = plan.node(id);
        let missing = |i: usize| ExecError { message: format!("node {id} missing child {i}") };
        let child = |i: usize| -> Result<&Batch, ExecError> {
            node.children
                .get(i)
                .and_then(|&c| outputs[c].as_ref())
                .ok_or_else(|| missing(i))
        };
        match &*node.op {
            PhysicalOp::FileScan { binding, table, output, pushed_filter } => {
                let t = self
                    .catalog
                    .table(table)
                    .ok_or_else(|| ExecError { message: format!("unknown table '{table}'") })?;
                let scanned = |re: &ColumnRef| {
                    t.column(&re.column).ok_or_else(|| ExecError {
                        message: format!("table '{table}' has no column '{}'", re.column),
                    })
                };
                let qualified = |re: &ColumnRef| ColumnRef::new(binding.clone(), re.column.clone());
                // The pushed filter sees the output columns it references.
                let keep = match pushed_filter {
                    Some(f) => {
                        let refs = f.referenced_columns();
                        let mut seen = Batch::with_rows(t.num_rows());
                        for re in output {
                            let q = qualified(re);
                            if refs.contains(&&q) {
                                seen.push(q, scanned(re)?.clone());
                            }
                        }
                        Some(kept_rows(&seen, f))
                    }
                    None => None,
                };
                let mut batch = Batch::with_rows(keep.as_ref().map_or(t.num_rows(), Vec::len));
                for re in output {
                    let (q, col) = (qualified(re), scanned(re)?);
                    if !reads.contains(&q) {
                        batch.push_ghost(q, &col.data);
                    } else if let Some(keep) = &keep {
                        batch.push(q, col.take(keep));
                    } else {
                        batch.push(q, col.clone());
                    }
                }
                // A scan with no requested columns (e.g. bare COUNT(*))
                // reports its rows as one column wide: the schema's first
                // column rides along as a ghost, for byte accounting only
                // (the row count is the batch's own).
                if output.is_empty() {
                    if let (Some(def), Some(col)) = (t.schema.columns.first(), t.columns.first()) {
                        let first = ColumnRef::new(binding.clone(), def.name.clone());
                        batch.push_ghost(first, &col.data);
                    }
                }
                Ok(batch)
            }
            PhysicalOp::Filter { predicate } => Ok(apply_filter(child(0)?, predicate)),
            PhysicalOp::Project { columns } => Ok(child(0)?.project(columns)),
            // An exchange's child has no other parent: hand its batch up.
            PhysicalOp::ExchangeHash { .. }
            | PhysicalOp::ExchangeSingle
            | PhysicalOp::BroadcastExchange => node
                .children
                .first()
                .and_then(|&c| outputs[c].take())
                .ok_or_else(|| missing(0)),
            PhysicalOp::Sort { keys } => Ok(sort_batch(child(0)?, keys)),
            PhysicalOp::SortMergeJoin { left_key, right_key } => {
                merge_join(child(0)?, child(1)?, left_key, right_key, reads, DEFAULT_ROW_LIMIT)
            }
            PhysicalOp::BroadcastHashJoin { probe_key, build_key } => {
                hash_join(child(0)?, child(1)?, probe_key, build_key, reads, DEFAULT_ROW_LIMIT)
            }
            PhysicalOp::ShuffledHashJoin { left_key, right_key } => {
                hash_join(child(0)?, child(1)?, left_key, right_key, reads, DEFAULT_ROW_LIMIT)
            }
            PhysicalOp::HashAggregate { mode, group_by, aggs } => {
                execute_aggregate(child(0)?, *mode, group_by, aggs)
            }
            PhysicalOp::Limit { n } => {
                let b = child(0)?;
                let keep: Vec<usize> = (0..b.num_rows().min(*n)).collect();
                Ok(b.take(&keep))
            }
        }
    }
}

/// Applies a predicate, keeping rows where it evaluates to TRUE.
pub fn apply_filter(batch: &Batch, predicate: &Expr) -> Batch {
    batch.take(&kept_rows(batch, predicate))
}

/// The rows of `batch` where `predicate` evaluates to TRUE.
fn kept_rows(batch: &Batch, predicate: &Expr) -> Vec<usize> {
    let mask = predicate.eval_mask(batch);
    mask.iter()
        .enumerate()
        .filter_map(|(i, m)| (*m == Some(true)).then_some(i))
        .collect()
}

/// Sorts a batch by keys (ascending flags per key; NULLs sort last). The
/// sort is stable; a key the batch lacks orders nothing.
pub fn sort_batch(batch: &Batch, keys: &[(ColumnRef, bool)]) -> Batch {
    let keys: Vec<(&Column, bool)> = keys
        .iter()
        .filter_map(|(re, asc)| batch.column(re).map(|col| (col, *asc)))
        .collect();
    let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
    indices.sort_by(|&a, &b| {
        for &(col, asc) in &keys {
            let ord = cmp_rows(col, a, b);
            let ord = if asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    batch.take(&indices)
}

/// Orders rows `a` and `b` of `col` as [`Value::sql_cmp`] orders their
/// values — NaN ties — with NULLs last and tied, reading the typed data
/// in place rather than building a `Value` per comparison.
fn cmp_rows(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_valid(a), col.is_valid(b)) {
        (false, false) => Ordering::Equal,
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (true, true) => match &col.data {
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Float(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
            ColumnData::Str { codes, dict } => {
                dict[codes[a] as usize].cmp(&dict[codes[b] as usize])
            }
        },
    }
}

/// A hashable, comparable wrapper over [`Value`] for grouping and hash
/// joins. Floats hash by bit pattern; NULL is its own key (SQL GROUP BY
/// semantics put all NULLs in one group).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyValue {
    /// NULL key.
    Null,
    /// Integer key.
    Int(i64),
    /// Float key (bit pattern).
    Float(u64),
    /// String key.
    Str(String),
}

impl KeyValue {
    /// Converts a scalar to a key.
    pub fn from_value(v: &Value) -> KeyValue {
        match v {
            Value::Null => KeyValue::Null,
            Value::Int(i) => KeyValue::Int(*i),
            Value::Float(f) => KeyValue::Float(f.to_bits()),
            Value::Str(s) => KeyValue::Str(s.clone()),
        }
    }

    /// The key of row `row` of `col`: `from_value(&col.value(row))`
    /// without building the `Value`.
    pub(crate) fn at(col: &Column, row: usize) -> KeyValue {
        if !col.is_valid(row) {
            return KeyValue::Null;
        }
        match &col.data {
            ColumnData::Int(v) => KeyValue::Int(v[row]),
            ColumnData::Float(v) => KeyValue::Float(v[row].to_bits()),
            ColumnData::Str { codes, dict } => KeyValue::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Back to a scalar.
    pub fn to_value(&self) -> Value {
        match self {
            KeyValue::Null => Value::Null,
            KeyValue::Int(i) => Value::Int(*i),
            KeyValue::Float(b) => Value::Float(f64::from_bits(*b)),
            KeyValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};

    fn batch() -> Batch {
        let mut b = Batch::new();
        b.push(ColumnRef::new("t", "id"), Column::non_null(ColumnData::Int(vec![3, 1, 2])));
        b
    }

    #[test]
    fn a_plan_the_catalog_cannot_run_is_an_error_not_a_panic() {
        let catalog = Catalog::new();
        let mut plan = PhysicalPlan::new();
        assert!(Executor::new(&catalog).execute(&plan).is_err(), "an empty plan has no root");
        plan.add(
            PhysicalOp::FileScan {
                binding: "g".into(),
                table: "ghost".into(),
                output: vec![],
                pushed_filter: None,
            },
            vec![],
            1.0,
            8.0,
        );
        let err = Executor::new(&catalog).execute(&plan).unwrap_err();
        assert!(err.message.contains("unknown table 'ghost'"), "{}", err.message);
    }

    /// A scan of no columns (bare `COUNT(*)`) carries no values; its rows
    /// survive a `Limit`, and both report their rows as one 8-byte
    /// column wide, as when the schema's first column was copied.
    #[test]
    fn a_zero_column_batch_keeps_its_rows_through_limit() {
        use crate::schema::{ColumnDef, TableSchema};
        use crate::types::DataType;
        let mut catalog = Catalog::new();
        catalog.register(crate::storage::Table::new(
            TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int((0..200).collect()))],
        ));
        let mut plan = PhysicalPlan::new();
        let scan = plan.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![],
                pushed_filter: None,
            },
            vec![],
            200.0,
            1600.0,
        );
        plan.add(PhysicalOp::Limit { n: 7 }, vec![scan], 7.0, 56.0);
        let result = Executor::new(&catalog).execute(&plan).unwrap();
        assert_eq!((result.batch.num_rows(), result.batch.num_columns()), (7, 0));
        let rows_and_bytes = |m: &NodeMetrics| (m.rows_out, m.bytes_out);
        assert_eq!(rows_and_bytes(&result.metrics[0]), (200.0, 1600.0));
        assert_eq!(rows_and_bytes(&result.metrics[1]), (7.0, 56.0));
    }

    #[test]
    fn filter_keeps_true_rows() {
        let f = Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Ge, Value::Int(2));
        let out = apply_filter(&batch(), &f);
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn sort_orders_rows() {
        let out = sort_batch(&batch(), &[(ColumnRef::new("t", "id"), true)]);
        let col = out.column(&ColumnRef::new("t", "id")).unwrap();
        assert_eq!(
            (0..3).map(|i| col.value(i).as_i64().unwrap()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let desc = sort_batch(&batch(), &[(ColumnRef::new("t", "id"), false)]);
        let col = desc.column(&ColumnRef::new("t", "id")).unwrap();
        assert_eq!(col.value(0).as_i64(), Some(3));
    }

    #[test]
    fn sort_puts_nulls_last() {
        let mut b = Batch::new();
        b.push(
            ColumnRef::new("t", "x"),
            Column {
                data: ColumnData::Int(vec![5, 0, 1]),
                validity: Some(vec![true, false, true]),
            },
        );
        let out = sort_batch(&b, &[(ColumnRef::new("t", "x"), true)]);
        let col = out.column(&ColumnRef::new("t", "x")).unwrap();
        assert_eq!(col.value(0).as_i64(), Some(1));
        assert_eq!(col.value(1).as_i64(), Some(5));
        assert!(col.value(2).is_null());
    }

    /// `sort_batch` as it was: every comparison looks its keys up by name
    /// and compares the rows' `Value`s through `sql_cmp`.
    fn sort_by_values(batch: &Batch, keys: &[(ColumnRef, bool)]) -> Batch {
        let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
        indices.sort_by(|&a, &b| {
            for (re, asc) in keys {
                let Some(col) = batch.column(re) else {
                    continue;
                };
                let (va, vb) = (col.value(a), col.value(b));
                let ord = match (va.is_null(), vb.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => va.sql_cmp(&vb).unwrap_or(Ordering::Equal),
                };
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        batch.take(&indices)
    }

    /// Ties, NULLs, NaN, ±0, integers past 2^53, strings and a missing
    /// key, one and two keys each way: the same stable permutation.
    #[test]
    fn sort_equals_the_value_comparing_reference() {
        let n = 300;
        let mut state = 7u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) % m
        };
        let edge = 1i64 << 53;
        let (mut ints, mut floats, mut valid) = (Vec::new(), Vec::new(), Vec::new());
        let mut names = crate::storage::StrColumnBuilder::new();
        for _ in 0..n {
            ints.push([3, -1, edge, edge + 1, 0][next(5) as usize]);
            floats.push([0.5, -0.0, 0.0, f64::NAN, 2.0, 1e300][next(6) as usize]);
            valid.push(next(7) != 0);
            match next(5) {
                0 => names.push_null(),
                k => names.push(["b", "a", "ab", "B"][k as usize - 1]),
            }
        }
        let mut b = Batch::new();
        let (i, f, s) =
            (ColumnRef::new("t", "i"), ColumnRef::new("t", "f"), ColumnRef::new("t", "s"));
        b.push(
            i.clone(),
            Column {
                data: ColumnData::Int(ints),
                validity: Some(valid.clone()),
            },
        );
        b.push(
            f.clone(),
            Column {
                data: ColumnData::Float(floats),
                validity: Some(valid),
            },
        );
        b.push(s.clone(), names.finish());
        b.push(ColumnRef::new("t", "row"), Column::non_null(ColumnData::Int((0..n).collect())));
        let missing = ColumnRef::new("t", "missing");
        for keys in [
            vec![(i.clone(), true)],
            vec![(i.clone(), false)],
            vec![(f.clone(), true)],
            vec![(s.clone(), false)],
            vec![(f.clone(), false), (i.clone(), true)],
            vec![(s.clone(), true), (f.clone(), true)],
            vec![(missing, true), (s, true), (i, false)],
        ] {
            let (got, want) = (sort_batch(&b, &keys), sort_by_values(&b, &keys));
            for (g, w) in got.entries().iter().zip(want.entries()) {
                let rows = |c: &Column| -> Vec<String> {
                    (0..n as usize).map(|r| format!("{:?}", c.value(r))).collect()
                };
                assert_eq!(rows(&g.1), rows(&w.1), "{keys:?}: column {}", g.0);
            }
        }
    }

    #[test]
    fn key_value_round_trip() {
        for v in [Value::Null, Value::Int(-7), Value::Float(2.5), Value::Str("abc".into())] {
            assert_eq!(KeyValue::from_value(&v).to_value(), v);
        }
        let mut names = crate::storage::StrColumnBuilder::new();
        names.push("abc");
        names.push_null();
        let floats = Column {
            data: ColumnData::Float(vec![2.5, -0.0]),
            validity: Some(vec![false, true]),
        };
        for col in [names.finish(), floats, batch().entries()[0].1.clone()] {
            for row in 0..col.len() {
                assert_eq!(KeyValue::at(&col, row), KeyValue::from_value(&col.value(row)));
            }
        }
    }
}
