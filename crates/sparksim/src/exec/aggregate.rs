//! Hash aggregation: partial (map-side) and final (reduce-side) modes,
//! mirroring how Spark splits aggregates around an exchange.
//!
//! Partial mode folds raw input rows into per-group accumulators and emits
//! internal accumulator columns (qualified under the `#agg` pseudo-table).
//! Final mode merges those accumulator columns and emits the user-visible
//! aggregate values.

use super::{exec_err, ExecError, KeyValue};
use crate::batch::Batch;
use crate::plan::physical::AggMode;
use crate::plan::spec::AggSpec;
use crate::schema::ColumnRef;
use crate::sql::ast::AggFunc;
use crate::storage::{Column, ColumnData, StrColumnBuilder};
use crate::types::Value;
use std::collections::HashMap;

/// Pseudo-table qualifier for internal accumulator columns.
pub const AGG_TABLE: &str = "#agg";

/// Executes one aggregation node.
pub fn execute_aggregate(
    input: &Batch,
    mode: AggMode,
    group_by: &[ColumnRef],
    aggs: &[AggSpec],
) -> Result<Batch, ExecError> {
    match mode {
        AggMode::Partial => partial(input, group_by, aggs),
        AggMode::Final => final_merge(input, group_by, aggs),
    }
}

#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum { sum: f64, any: bool },
    MinMax { best: Option<Value>, is_min: bool },
    Avg { sum: f64, count: i64 },
}

impl Acc {
    fn new(spec: &AggSpec) -> Acc {
        match spec.func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum { sum: 0.0, any: false },
            AggFunc::Min => Acc::MinMax { best: None, is_min: true },
            AggFunc::Max => Acc::MinMax { best: None, is_min: false },
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Folds one input row: `arg` is the argument column and the row,
    /// `None` for `COUNT(*)`.
    fn update(&mut self, arg: Option<(&Column, usize)>) {
        match self {
            // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
            Acc::Count(c) => *c += i64::from(arg.is_none_or(|(col, row)| col.is_valid(row))),
            Acc::Sum { sum, any } => {
                if let Some(x) = arg.and_then(|(col, row)| number_at(col, row)) {
                    *sum += x;
                    *any = true;
                }
            }
            Acc::MinMax { best, is_min } => {
                if let Some((col, row)) = arg {
                    fold_best(best, *is_min, col.value(row));
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(x) = arg.and_then(|(col, row)| number_at(col, row)) {
                    *sum += x;
                    *count += 1;
                }
            }
        }
    }

    /// Folds row `row` of the accumulator columns `partial` emitted for
    /// this aggregate, in `partial_tags` order.
    fn merge(&mut self, partial: &[&Column], row: usize) {
        match (self, partial) {
            (Acc::Count(c), [count]) => *c += int_at(count, row).unwrap_or(0),
            (Acc::Sum { sum, any }, [partial_sum]) => {
                if let Some(x) = number_at(partial_sum, row) {
                    *sum += x;
                    *any = true;
                }
            }
            (Acc::MinMax { best, is_min }, [partial_best]) => {
                fold_best(best, *is_min, partial_best.value(row))
            }
            (Acc::Avg { sum, count }, [partial_sum, partial_count]) => {
                *sum += number_at(partial_sum, row).unwrap_or(0.0);
                *count += int_at(partial_count, row).unwrap_or(0);
            }
            _ => unreachable!("accumulator/partial column mismatch"),
        }
    }
}

/// Keeps the smaller (`is_min`) or larger of `best` and a non-NULL `v`.
fn fold_best(best: &mut Option<Value>, is_min: bool, v: Value) {
    if v.is_null() {
        return;
    }
    let better = match best {
        None => true,
        Some(b) => match v.sql_cmp(b) {
            Some(ord) => {
                if is_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                }
            }
            None => false,
        },
    };
    if better {
        *best = Some(v);
    }
}

/// `col.value(row).as_f64()` without building the `Value`.
fn number_at(col: &Column, row: usize) -> Option<f64> {
    if !col.is_valid(row) {
        return None;
    }
    match &col.data {
        ColumnData::Int(v) => Some(v[row] as f64),
        ColumnData::Float(v) => Some(v[row]),
        ColumnData::Str { .. } => None,
    }
}

/// `col.value(row).as_i64()` without building the `Value`.
fn int_at(col: &Column, row: usize) -> Option<i64> {
    match &col.data {
        ColumnData::Int(v) if col.is_valid(row) => Some(v[row]),
        _ => None,
    }
}

/// Group index preserving first-seen order.
struct Groups {
    keys: Vec<Vec<KeyValue>>,
    index: HashMap<Vec<KeyValue>, usize>,
    /// The key being looked up, reused from row to row.
    scratch: Vec<KeyValue>,
}

impl Groups {
    fn new() -> Self {
        Self {
            keys: Vec::new(),
            index: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The group of `row` under the group columns `by`, added if new. A
    /// row of a known group allocates nothing (a string key aside).
    fn of_row(&mut self, by: &[&Column], row: usize) -> usize {
        // Without group columns every row is in the one group.
        if by.is_empty() && !self.keys.is_empty() {
            return 0;
        }
        self.scratch.clear();
        self.scratch.extend(by.iter().map(|c| KeyValue::at(c, row)));
        if let Some(&i) = self.index.get(self.scratch.as_slice()) {
            return i;
        }
        self.insert(self.scratch.clone())
    }

    fn insert(&mut self, key: Vec<KeyValue>) -> usize {
        let i = self.keys.len();
        self.index.insert(key.clone(), i);
        self.keys.push(key);
        i
    }
}

/// The group columns of `batch`, looked up once.
fn group_columns<'a>(
    batch: &'a Batch,
    group_by: &[ColumnRef],
) -> Result<Vec<&'a Column>, ExecError> {
    group_by
        .iter()
        .map(|re| {
            batch.column(re).ok_or_else(|| ExecError {
                message: format!("aggregate input is missing group column {re}"),
            })
        })
        .collect()
}

fn partial(input: &Batch, group_by: &[ColumnRef], aggs: &[AggSpec]) -> Result<Batch, ExecError> {
    let mut groups = Groups::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    let by = group_columns(input, group_by)?;
    let arg_cols: Vec<Option<&Column>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().and_then(|c| input.column(c)))
        .collect();
    for (a, col) in aggs.iter().zip(&arg_cols) {
        if let (Some(arg), None) = (&a.arg, col) {
            return exec_err(format!("aggregate input is missing argument column {arg}"));
        }
    }

    for row in 0..input.num_rows() {
        let g = groups.of_row(&by, row);
        if g == accs.len() {
            accs.push(aggs.iter().map(Acc::new).collect());
        }
        for (acc, col) in accs[g].iter_mut().zip(&arg_cols) {
            acc.update(col.map(|c| (c, row)));
        }
    }
    // A global aggregate over empty input still yields one (empty) group.
    if group_by.is_empty() && groups.keys.is_empty() {
        groups.insert(vec![]);
        accs.push(aggs.iter().map(Acc::new).collect());
    }

    let mut out = Batch::new();
    emit_group_columns(&mut out, group_by, &groups);
    for (ai, spec) in aggs.iter().enumerate() {
        match spec.func {
            AggFunc::Count => {
                let vals: Vec<Value> = accs
                    .iter()
                    .map(|a| match &a[ai] {
                        Acc::Count(c) => Value::Int(*c),
                        _ => unreachable!(),
                    })
                    .collect();
                out.push(acc_ref(ai, "count"), column_from_values(&vals));
            }
            AggFunc::Sum => {
                let vals: Vec<Value> = accs
                    .iter()
                    .map(|a| match &a[ai] {
                        Acc::Sum { sum, any } => {
                            if *any {
                                Value::Float(*sum)
                            } else {
                                Value::Null
                            }
                        }
                        _ => unreachable!(),
                    })
                    .collect();
                out.push(acc_ref(ai, "sum"), column_from_values(&vals));
            }
            AggFunc::Min | AggFunc::Max => {
                let tag = if spec.func == AggFunc::Min {
                    "min"
                } else {
                    "max"
                };
                let vals: Vec<Value> = accs
                    .iter()
                    .map(|a| match &a[ai] {
                        Acc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
                        _ => unreachable!(),
                    })
                    .collect();
                out.push(acc_ref(ai, tag), column_from_values(&vals));
            }
            AggFunc::Avg => {
                let sums: Vec<Value> = accs
                    .iter()
                    .map(|a| match &a[ai] {
                        Acc::Avg { sum, .. } => Value::Float(*sum),
                        _ => unreachable!(),
                    })
                    .collect();
                let counts: Vec<Value> = accs
                    .iter()
                    .map(|a| match &a[ai] {
                        Acc::Avg { count, .. } => Value::Int(*count),
                        _ => unreachable!(),
                    })
                    .collect();
                out.push(acc_ref(ai, "avg_sum"), column_from_values(&sums));
                out.push(acc_ref(ai, "avg_count"), column_from_values(&counts));
            }
        }
    }
    Ok(out)
}

/// The accumulator columns `partial` emits for one aggregate, by tag.
fn partial_tags(func: AggFunc) -> &'static [&'static str] {
    match func {
        AggFunc::Count => &["count"],
        AggFunc::Sum => &["sum"],
        AggFunc::Min => &["min"],
        AggFunc::Max => &["max"],
        AggFunc::Avg => &["avg_sum", "avg_count"],
    }
}

fn final_merge(
    input: &Batch,
    group_by: &[ColumnRef],
    aggs: &[AggSpec],
) -> Result<Batch, ExecError> {
    let mut groups = Groups::new();
    let mut merged: Vec<Vec<Acc>> = Vec::new();
    let by = group_columns(input, group_by)?;
    // Per aggregate, its accumulator columns, looked up once.
    let partials = aggs
        .iter()
        .enumerate()
        .map(|(ai, spec)| {
            partial_tags(spec.func)
                .iter()
                .map(|tag| {
                    let re = acc_ref(ai, tag);
                    input.column(&re).ok_or_else(|| ExecError {
                        message: format!("final aggregate expects partial column {re}"),
                    })
                })
                .collect::<Result<Vec<&Column>, ExecError>>()
        })
        .collect::<Result<Vec<_>, ExecError>>()?;

    for row in 0..input.num_rows() {
        let g = groups.of_row(&by, row);
        if g == merged.len() {
            merged.push(aggs.iter().map(Acc::new).collect());
        }
        for (acc, partial) in merged[g].iter_mut().zip(&partials) {
            acc.merge(partial, row);
        }
    }
    if group_by.is_empty() && groups.keys.is_empty() {
        groups.insert(vec![]);
        merged.push(aggs.iter().map(Acc::new).collect());
    }

    let mut out = Batch::new();
    emit_group_columns(&mut out, group_by, &groups);
    for (ai, _spec) in aggs.iter().enumerate() {
        let vals: Vec<Value> = merged
            .iter()
            .map(|a| match &a[ai] {
                Acc::Count(c) => Value::Int(*c),
                Acc::Sum { sum, any } => {
                    if *any {
                        Value::Float(*sum)
                    } else {
                        Value::Null
                    }
                }
                Acc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
                Acc::Avg { sum, count } => {
                    if *count > 0 {
                        Value::Float(*sum / *count as f64)
                    } else {
                        Value::Null
                    }
                }
            })
            .collect();
        out.push(ColumnRef::new(AGG_TABLE, format!("a{ai}")), column_from_values(&vals));
    }
    Ok(out)
}

fn acc_ref(ai: usize, tag: &str) -> ColumnRef {
    ColumnRef::new(AGG_TABLE, format!("a{ai}_{tag}"))
}

fn emit_group_columns(out: &mut Batch, group_by: &[ColumnRef], groups: &Groups) {
    for (gi, re) in group_by.iter().enumerate() {
        let vals: Vec<Value> = groups.keys.iter().map(|k| k[gi].to_value()).collect();
        out.push(re.clone(), column_from_values(&vals));
    }
}

/// Builds a column from scalars, inferring the type from the first
/// non-NULL value (Int for all-NULL).
fn column_from_values(values: &[Value]) -> Column {
    let kind = values
        .iter()
        .find(|v| !v.is_null())
        .and_then(Value::data_type)
        .unwrap_or(crate::types::DataType::Int);
    match kind {
        crate::types::DataType::Int => {
            let data: Vec<i64> = values.iter().map(|v| v.as_i64().unwrap_or(0)).collect();
            let any_null = values.iter().any(Value::is_null);
            Column {
                data: ColumnData::Int(data),
                validity: any_null.then(|| values.iter().map(|v| !v.is_null()).collect()),
            }
        }
        crate::types::DataType::Float => {
            let data: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
            let any_null = values.iter().any(Value::is_null);
            Column {
                data: ColumnData::Float(data),
                validity: any_null.then(|| values.iter().map(|v| !v.is_null()).collect()),
            }
        }
        crate::types::DataType::Str => {
            let mut b = StrColumnBuilder::new();
            for v in values {
                match v.as_str() {
                    Some(s) => b.push(s),
                    None => b.push_null(),
                }
            }
            b.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Batch {
        let mut b = Batch::new();
        b.push(ColumnRef::new("t", "g"), Column::non_null(ColumnData::Int(vec![1, 1, 2, 2, 2])));
        b.push(
            ColumnRef::new("t", "x"),
            Column {
                data: ColumnData::Int(vec![10, 20, 30, 40, 0]),
                validity: Some(vec![true, true, true, true, false]),
            },
        );
        b
    }

    fn count_star() -> AggSpec {
        AggSpec { func: AggFunc::Count, arg: None }
    }

    fn agg(func: AggFunc) -> AggSpec {
        AggSpec { func, arg: Some(ColumnRef::new("t", "x")) }
    }

    fn round_trip(group_by: &[ColumnRef], aggs: &[AggSpec]) -> Batch {
        let p = partial(&input(), group_by, aggs).unwrap();
        final_merge(&p, group_by, aggs).unwrap()
    }

    #[test]
    fn global_count_star() {
        let out = round_trip(&[], &[count_star()]);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.entries()[0].1.value(0).as_i64(), Some(5));
    }

    #[test]
    fn count_column_skips_nulls() {
        let out = round_trip(&[], &[agg(AggFunc::Count)]);
        assert_eq!(out.entries()[0].1.value(0).as_i64(), Some(4));
    }

    #[test]
    fn grouped_count_and_sum() {
        let g = vec![ColumnRef::new("t", "g")];
        let out = round_trip(&g, &[count_star(), agg(AggFunc::Sum)]);
        assert_eq!(out.num_rows(), 2);
        let gcol = out.column(&ColumnRef::new("t", "g")).unwrap();
        let ccol = out.column(&ColumnRef::new(AGG_TABLE, "a0")).unwrap();
        let scol = out.column(&ColumnRef::new(AGG_TABLE, "a1")).unwrap();
        // First-seen order: group 1 then group 2.
        assert_eq!(gcol.value(0).as_i64(), Some(1));
        assert_eq!(ccol.value(0).as_i64(), Some(2));
        assert_eq!(scol.value(0).as_f64(), Some(30.0));
        assert_eq!(ccol.value(1).as_i64(), Some(3));
        assert_eq!(scol.value(1).as_f64(), Some(70.0));
    }

    #[test]
    fn min_max_avg() {
        let out = round_trip(&[], &[agg(AggFunc::Min), agg(AggFunc::Max), agg(AggFunc::Avg)]);
        let min = out.column(&ColumnRef::new(AGG_TABLE, "a0")).unwrap();
        let max = out.column(&ColumnRef::new(AGG_TABLE, "a1")).unwrap();
        let avg = out.column(&ColumnRef::new(AGG_TABLE, "a2")).unwrap();
        assert_eq!(min.value(0).as_i64(), Some(10));
        assert_eq!(max.value(0).as_i64(), Some(40));
        assert_eq!(avg.value(0).as_f64(), Some(25.0));
    }

    #[test]
    fn empty_input_global_aggregate_yields_one_row() {
        let empty = {
            let mut b = Batch::new();
            b.push(ColumnRef::new("t", "x"), Column::non_null(ColumnData::Int(vec![])));
            b
        };
        let aggs = [count_star(), agg(AggFunc::Sum)];
        let p = partial(&empty, &[], &aggs).unwrap();
        let out = final_merge(&p, &[], &aggs).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.entries()[0].1.value(0).as_i64(), Some(0));
        assert!(out.entries()[1].1.value(0).is_null(), "SUM of nothing is NULL");
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let mut b = Batch::new();
        b.push(
            ColumnRef::new("t", "g"),
            Column {
                data: ColumnData::Int(vec![0, 0, 1]),
                validity: Some(vec![false, false, true]),
            },
        );
        let g = vec![ColumnRef::new("t", "g")];
        let aggs = [count_star()];
        let p = partial(&b, &g, &aggs).unwrap();
        let out = final_merge(&p, &g, &aggs).unwrap();
        assert_eq!(out.num_rows(), 2, "NULL group plus group 1");
    }

    #[test]
    fn final_without_partial_columns_errors() {
        let res = final_merge(&input(), &[], &[count_star()]);
        assert!(res.is_err());
    }
}
