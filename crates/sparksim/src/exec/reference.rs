//! Naive reference evaluator.
//!
//! Executes a resolved [`QuerySpec`] by brute force — filtered row lists,
//! nested-loop joins, straightforward aggregation — with no planner, no
//! optimizer and no clever operators. It exists purely as an oracle: every
//! candidate physical plan the planner enumerates must produce exactly the
//! rows this evaluator produces (see the property tests and
//! `tests/prop_equivalence.rs`).

use crate::batch::Batch;
use crate::catalog::Catalog;
use crate::exec::{exec_err, ExecError, KeyValue};
use crate::plan::spec::QuerySpec;
use crate::schema::ColumnRef;
use crate::sql::ast::AggFunc;
use crate::types::Value;
use std::collections::HashMap;

/// A result row of the reference evaluator.
pub type RefRow = Vec<Value>;

/// Evaluates a query spec by brute force, returning rows in the same
/// column layout the engine produces: group-by columns then aggregates,
/// or the plain select list. Row order is unspecified for unordered
/// queries.
pub fn execute_reference(catalog: &Catalog, spec: &QuerySpec) -> Result<Vec<RefRow>, ExecError> {
    // Per-binding full-table batches with qualified columns.
    let mut batches: Vec<Batch> = Vec::with_capacity(spec.bindings.len());
    for b in &spec.bindings {
        let table = catalog
            .table(&b.table)
            .ok_or_else(|| ExecError { message: format!("unknown table '{}'", b.table) })?;
        let mut batch = Batch::new();
        for (def, col) in table.schema.columns.iter().zip(&table.columns) {
            batch.push(ColumnRef::new(b.name.clone(), def.name.clone()), col.clone());
        }
        batches.push(batch);
    }

    // Filtered row lists per binding.
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(spec.bindings.len());
    for (bi, b) in spec.bindings.iter().enumerate() {
        let rows: Vec<usize> = match spec.table_filters.get(&b.name) {
            Some(f) => f
                .eval_mask(&batches[bi])
                .iter()
                .enumerate()
                .filter_map(|(i, m)| (*m == Some(true)).then_some(i))
                .collect(),
            None => (0..batches[bi].num_rows()).collect(),
        };
        candidates.push(rows);
    }

    // Every column the output reads, with its binding's index.
    let aggregated = spec.has_aggregates() || !spec.group_by.is_empty();
    let group_by: Vec<_> = spec
        .group_by
        .iter()
        .map(|c| bound(spec, c))
        .collect::<Result<_, _>>()?;
    let agg_args: Vec<_> = spec
        .aggregates
        .iter()
        .map(|agg| agg.arg.as_ref().map(|c| bound(spec, c)).transpose())
        .collect::<Result<_, _>>()?;
    let columns: Vec<_> = if aggregated {
        Vec::new()
    } else if spec.wildcard {
        let refs = batches.iter().enumerate();
        refs.flat_map(|(bi, batch)| batch.refs().map(move |c| (bi, c)))
            .collect()
    } else {
        spec.select_columns
            .iter()
            .map(|c| bound(spec, c))
            .collect::<Result<_, _>>()?
    };

    // Nested-loop join: tuples of row indices, one per binding.
    let mut tuples: Vec<Vec<usize>> = candidates[0].iter().map(|&r| vec![r]).collect();
    for cand in candidates.iter().skip(1) {
        let mut next = Vec::new();
        for tuple in &tuples {
            for &r in cand {
                let mut t = tuple.clone();
                t.push(r);
                if join_edges_hold(spec, &batches, &t) {
                    next.push(t);
                }
            }
        }
        tuples = next;
    }

    let value_of = |tuple: &[usize], &(bi, re): &(usize, &ColumnRef)| -> Value {
        batches[bi]
            .column(re)
            .map(|c| c.value(tuple[bi]))
            .unwrap_or(Value::Null)
    };

    // Aggregation or projection.
    let mut rows: Vec<RefRow> = if aggregated {
        let mut groups: Vec<Vec<KeyValue>> = Vec::new();
        let mut index: HashMap<Vec<KeyValue>, usize> = HashMap::new();
        let mut accs: Vec<Vec<RefAgg>> = Vec::new();
        for tuple in &tuples {
            let key: Vec<KeyValue> = group_by
                .iter()
                .map(|c| KeyValue::from_value(&value_of(tuple, c)))
                .collect();
            let gi = *index.entry(key.clone()).or_insert_with(|| {
                groups.push(key.clone());
                accs.push(spec.aggregates.iter().map(RefAgg::new).collect());
                groups.len() - 1
            });
            for (ai, arg) in agg_args.iter().enumerate() {
                accs[gi][ai].update(arg.as_ref().map(|c| value_of(tuple, c)));
            }
        }
        if spec.group_by.is_empty() && groups.is_empty() {
            groups.push(vec![]);
            accs.push(spec.aggregates.iter().map(RefAgg::new).collect());
        }
        groups
            .into_iter()
            .zip(accs)
            .map(|(key, acc)| {
                let mut row: RefRow = key.iter().map(KeyValue::to_value).collect();
                row.extend(acc.into_iter().map(RefAgg::finish));
                row
            })
            .collect()
    } else {
        tuples
            .iter()
            .map(|tuple| columns.iter().map(|c| value_of(tuple, c)).collect())
            .collect()
    };

    // ORDER BY + LIMIT.
    if !spec.order_by.is_empty() {
        if spec.has_aggregates() && spec.group_by.is_empty() {
            return exec_err("ORDER BY over a global aggregate is meaningless");
        }
        // Only order by output columns (group keys / select list).
        let out_cols: Vec<ColumnRef> = if !spec.group_by.is_empty() {
            spec.group_by.clone()
        } else {
            spec.select_columns.clone()
        };
        let keys: Vec<(usize, bool)> = spec
            .order_by
            .iter()
            .filter_map(|(c, asc)| out_cols.iter().position(|o| o == c).map(|i| (i, *asc)))
            .collect();
        rows.sort_by(|a, b| {
            for &(i, asc) in &keys {
                let ord = match (a[i].is_null(), b[i].is_null()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    _ => a[i].sql_cmp(&b[i]).unwrap_or(std::cmp::Ordering::Equal),
                };
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = spec.limit {
        rows.truncate(n);
    }
    Ok(rows)
}

/// `re` with the index of the binding it names. `QuerySpec`'s fields are
/// public, so a column naming no binding is the caller's error, like an
/// unknown table.
fn bound<'c>(spec: &QuerySpec, re: &'c ColumnRef) -> Result<(usize, &'c ColumnRef), ExecError> {
    match spec.bindings.iter().position(|b| b.name == re.table) {
        Some(bi) => Ok((bi, re)),
        None => exec_err(format!("column '{re}' names no table of the query")),
    }
}

fn join_edges_hold(spec: &QuerySpec, batches: &[Batch], tuple: &[usize]) -> bool {
    let present = tuple.len();
    for e in &spec.join_edges {
        let li = spec.bindings.iter().position(|b| b.name == e.left.table);
        let ri = spec.bindings.iter().position(|b| b.name == e.right.table);
        let (Some(li), Some(ri)) = (li, ri) else {
            continue;
        };
        if li >= present || ri >= present {
            continue; // edge not yet applicable
        }
        let lv = batches[li].column(&e.left).map(|c| c.value(tuple[li]));
        let rv = batches[ri].column(&e.right).map(|c| c.value(tuple[ri]));
        match (lv, rv) {
            (Some(a), Some(b)) => {
                if a.is_null() || b.is_null() || a.sql_cmp(&b) != Some(std::cmp::Ordering::Equal) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

#[derive(Debug, Clone)]
enum RefAgg {
    Count { spec_counts_rows: bool, n: i64 },
    Sum { sum: f64, any: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl RefAgg {
    fn new(spec: &crate::plan::spec::AggSpec) -> RefAgg {
        match spec.func {
            AggFunc::Count => RefAgg::Count { spec_counts_rows: spec.arg.is_none(), n: 0 },
            AggFunc::Sum => RefAgg::Sum { sum: 0.0, any: false },
            AggFunc::Min => RefAgg::Min(None),
            AggFunc::Max => RefAgg::Max(None),
            AggFunc::Avg => RefAgg::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, value: Option<Value>) {
        match self {
            RefAgg::Count { spec_counts_rows, n } => {
                if *spec_counts_rows || value.as_ref().is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            RefAgg::Sum { sum, any } => {
                if let Some(x) = value.and_then(|v| v.as_f64()) {
                    *sum += x;
                    *any = true;
                }
            }
            RefAgg::Min(best) => update_minmax(best, value, true),
            RefAgg::Max(best) => update_minmax(best, value, false),
            RefAgg::Avg { sum, n } => {
                if let Some(x) = value.and_then(|v| v.as_f64()) {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            RefAgg::Count { n, .. } => Value::Int(n),
            RefAgg::Sum { sum, any } => {
                if any {
                    Value::Float(sum)
                } else {
                    Value::Null
                }
            }
            RefAgg::Min(v) | RefAgg::Max(v) => v.unwrap_or(Value::Null),
            RefAgg::Avg { sum, n } => {
                if n > 0 {
                    Value::Float(sum / n as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

fn update_minmax(best: &mut Option<Value>, value: Option<Value>, is_min: bool) {
    let Some(v) = value else { return };
    if v.is_null() {
        return;
    }
    let better = match best {
        None => true,
        Some(b) => match v.sql_cmp(b) {
            Some(std::cmp::Ordering::Less) => is_min,
            Some(std::cmp::Ordering::Greater) => !is_min,
            _ => false,
        },
    };
    if better {
        *best = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::spec::resolve;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::sql::parser::parse;
    use crate::storage::{Column, ColumnData, Table};
    use crate::types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(Table::new(
            TableSchema::new(
                "a",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("x", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int(vec![1, 2, 3, 4])),
                Column::non_null(ColumnData::Int(vec![10, 20, 30, 40])),
            ],
        ));
        c.register(Table::new(
            TableSchema::new(
                "b",
                vec![
                    ColumnDef::new("a_id", DataType::Int, false),
                    ColumnDef::new("y", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int(vec![1, 1, 2, 5])),
                Column::non_null(ColumnData::Int(vec![100, 101, 200, 500])),
            ],
        ));
        c
    }

    fn run(sql: &str) -> Vec<RefRow> {
        let c = catalog();
        let q = parse(sql).unwrap();
        let spec = resolve(&q, &c).unwrap();
        execute_reference(&c, &spec).unwrap()
    }

    #[test]
    fn count_with_filter() {
        let rows = run("SELECT COUNT(*) FROM a WHERE a.x >= 20");
        assert_eq!(rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn join_count() {
        let rows = run("SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id");
        assert_eq!(rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn grouped_aggregate() {
        let mut rows = run("SELECT b.a_id, COUNT(*) FROM a, b WHERE a.id = b.a_id GROUP BY b.a_id");
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(
            rows,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)],]
        );
    }

    #[test]
    fn select_with_order_and_limit() {
        let rows = run("SELECT a.id FROM a WHERE a.x > 10 ORDER BY a.id DESC LIMIT 2");
        assert_eq!(rows, vec![vec![Value::Int(4)], vec![Value::Int(3)]]);
    }

    #[test]
    fn a_column_naming_no_binding_is_an_error() {
        let c = catalog();
        let mut spec =
            resolve(&parse("SELECT a.x, COUNT(*) FROM a GROUP BY a.x").unwrap(), &c).unwrap();
        spec.group_by.push(ColumnRef::new("nope", "x"));
        let err = execute_reference(&c, &spec).unwrap_err();
        assert!(err.message.contains("nope.x"), "{}", err.message);
    }

    #[test]
    fn sum_avg_min_max() {
        let rows = run("SELECT SUM(a.x), AVG(a.x), MIN(a.x), MAX(a.x) FROM a");
        assert_eq!(
            rows,
            vec![vec![Value::Float(100.0), Value::Float(25.0), Value::Int(10), Value::Int(40),]]
        );
    }
}
