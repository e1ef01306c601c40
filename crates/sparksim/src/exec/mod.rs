//! Vectorised plan interpreter.
//!
//! Executes a [`PhysicalPlan`] over the catalog's in-memory tables,
//! producing both the result batch and per-node work metrics
//! ([`NodeMetrics`]) — true output cardinalities and byte volumes. The
//! resource-aware time simulator converts those metrics into execution
//! time; the executor itself is resource-agnostic (it computes the *what*,
//! the simulator computes the *how long*).

mod aggregate;
mod join;
pub mod reference;

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::plan::physical::{NodeId, PhysicalOp, PhysicalPlan};
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
        for id in 0..plan.len() {
            let batch = self.exec_node(plan, id, &mut outputs)?;
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
                let mut batch = Batch::new();
                for re in output {
                    let col = t.column(&re.column).ok_or_else(|| ExecError {
                        message: format!("table '{table}' has no column '{}'", re.column),
                    })?;
                    batch.push(ColumnRef::new(binding.clone(), re.column.clone()), col.clone());
                }
                // A scan with no requested columns (e.g. bare COUNT(*))
                // still needs row positions; carry the narrowest column.
                if output.is_empty() {
                    if let Some(first) = t.schema.columns.first() {
                        let Some(col) = t.column(&first.name) else {
                            return exec_err(format!(
                                "table '{table}' has no column '{}'",
                                first.name
                            ));
                        };
                        batch
                            .push(ColumnRef::new(binding.clone(), first.name.clone()), col.clone());
                    }
                }
                match pushed_filter {
                    Some(f) => Ok(apply_filter(&batch, f)),
                    None => Ok(batch),
                }
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
                merge_join(child(0)?, child(1)?, left_key, right_key, DEFAULT_ROW_LIMIT)
            }
            PhysicalOp::BroadcastHashJoin { probe_key, build_key } => {
                hash_join(child(0)?, child(1)?, probe_key, build_key, DEFAULT_ROW_LIMIT)
            }
            PhysicalOp::ShuffledHashJoin { left_key, right_key } => {
                hash_join(child(0)?, child(1)?, left_key, right_key, DEFAULT_ROW_LIMIT)
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
pub fn apply_filter(batch: &Batch, predicate: &crate::expr::Expr) -> Batch {
    let mask = predicate.eval_mask(batch);
    let keep: Vec<usize> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, m)| (*m == Some(true)).then_some(i))
        .collect();
    batch.take(&keep)
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
