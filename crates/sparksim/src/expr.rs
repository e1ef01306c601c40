//! Scalar expressions: AST, SQL three-valued evaluation, and the
//! Spark-`explain`-style rendering consumed by the plan encoder.

use crate::batch::Batch;
use crate::schema::ColumnRef;
use crate::storage::{Column, ColumnData};
use crate::types::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator over an ordering.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Qualified column reference.
    Column(ColumnRef),
    /// Constant.
    Literal(Value),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `expr LIKE 'pattern'` with `%` wildcards.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern with `%` wildcards.
        pattern: String,
    },
}

impl Expr {
    /// Builds `column op literal`.
    pub fn cmp(column: ColumnRef, op: CmpOp, value: Value) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(Expr::Column(column)),
            right: Box::new(Expr::Literal(value)),
        }
    }

    /// Conjunction of a list of predicates; `None` for an empty list.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(
            preds
                .into_iter()
                .fold(first, |acc, p| Expr::And(Box::new(acc), Box::new(p))),
        )
    }

    /// Splits a conjunctive expression into its AND-ed factors.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.split_conjunction();
                out.extend(b.split_conjunction());
                out
            }
            other => vec![other],
        }
    }

    /// All column references appearing in the expression.
    pub fn referenced_columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::IsNotNull(e) => e.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Evaluates the expression for a single row of a batch.
    pub fn eval_row(&self, batch: &Batch, row: usize) -> Value {
        match self {
            Expr::Column(c) => batch.column(c).map(|col| col.value(row)).unwrap_or(Value::Null),
            Expr::Literal(v) => v.clone(),
            Expr::Cmp { op, left, right } => {
                let l = left.eval_row(batch, row);
                let r = right.eval_row(batch, row);
                match l.sql_cmp(&r) {
                    Some(ord) => Value::Int(op.test(ord) as i64),
                    None => Value::Null,
                }
            }
            Expr::And(a, b) => tri_and(a.eval_row(batch, row), b.eval_row(batch, row)),
            Expr::IsNotNull(e) => Value::Int(!e.eval_row(batch, row).is_null() as i64),
            Expr::Like { expr, pattern } => match expr.eval_row(batch, row) {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Int(like_match(&s, pattern) as i64),
                _ => Value::Null,
            },
        }
    }

    /// Vectorised evaluation to a three-valued mask over a batch:
    /// `Some(true)` keep, `Some(false)` drop, `None` NULL (also drop under
    /// WHERE semantics).
    pub fn eval_mask(&self, batch: &Batch) -> Vec<Option<bool>> {
        let n = batch.num_rows();
        match self {
            Expr::And(a, b) => {
                let ma = a.eval_mask(batch);
                let mb = b.eval_mask(batch);
                ma.into_iter().zip(mb).map(|(x, y)| tri_and_b(x, y)).collect()
            }
            Expr::IsNotNull(e) => match e.as_ref() {
                Expr::Column(c) => {
                    let col = match batch.column(c) {
                        Some(col) => col,
                        None => return vec![Some(false); n],
                    };
                    (0..n).map(|i| Some(col.is_valid(i))).collect()
                }
                _ => (0..n).map(|i| Some(!e.eval_row(batch, i).is_null())).collect(),
            },
            Expr::Cmp { op, left, right } => {
                // Fast path: column vs literal.
                if let (Expr::Column(c), Expr::Literal(v)) = (left.as_ref(), right.as_ref()) {
                    if let Some(col) = batch.column(c) {
                        return cmp_column_literal(col, *op, v);
                    }
                }
                if let (Expr::Literal(v), Expr::Column(c)) = (left.as_ref(), right.as_ref()) {
                    if let Some(col) = batch.column(c) {
                        return cmp_column_literal(col, op.flip(), v);
                    }
                }
                (0..n)
                    .map(|i| match self.eval_row(batch, i) {
                        Value::Null => None,
                        v => Some(v.as_i64() == Some(1)),
                    })
                    .collect()
            }
            Expr::Like { expr, pattern } => {
                if let Expr::Column(c) = expr.as_ref() {
                    if let Some(col) = batch.column(c) {
                        if let ColumnData::Str { codes, dict } = &col.data {
                            // Match each dictionary entry once.
                            let hits: Vec<bool> =
                                dict.iter().map(|s| like_match(s, pattern)).collect();
                            return (0..n)
                                .map(|i| {
                                    if col.is_valid(i) {
                                        Some(hits[codes[i] as usize])
                                    } else {
                                        None
                                    }
                                })
                                .collect();
                        }
                    }
                }
                (0..n)
                    .map(|i| match self.eval_row(batch, i) {
                        Value::Null => None,
                        v => Some(v.as_i64() == Some(1)),
                    })
                    .collect()
            }
            _ => (0..n)
                .map(|i| match self.eval_row(batch, i) {
                    Value::Null => None,
                    v => Some(v.as_i64() == Some(1)),
                })
                .collect(),
        }
    }
}

fn tri_and(a: Value, b: Value) -> Value {
    match (to_tri(&a), to_tri(&b)) {
        (Some(false), _) | (_, Some(false)) => Value::Int(0),
        (Some(true), Some(true)) => Value::Int(1),
        _ => Value::Null,
    }
}

fn to_tri(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        v => Some(v.as_i64() == Some(1)),
    }
}

fn tri_and_b(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn cmp_column_literal(col: &Column, op: CmpOp, lit: &Value) -> Vec<Option<bool>> {
    let n = col.len();
    if lit.is_null() {
        return vec![None; n];
    }
    // Bind the numeric view of the literal once, so the numeric arms
    // below need no per-arm re-extraction (and no unwrap).
    let num = lit.as_f64();
    match (&col.data, lit, num) {
        // Integers against an integer compare exactly, as `sql_cmp` does.
        (ColumnData::Int(v), Value::Int(x), _) => (0..n)
            .map(|i| col.is_valid(i).then(|| op.test(v[i].cmp(x))))
            .collect(),
        (ColumnData::Int(v), _, Some(x)) => (0..n)
            .map(|i| {
                if col.is_valid(i) {
                    (v[i] as f64).partial_cmp(&x).map(|o| op.test(o))
                } else {
                    None
                }
            })
            .collect(),
        (ColumnData::Float(v), _, Some(x)) => (0..n)
            .map(|i| {
                if col.is_valid(i) {
                    v[i].partial_cmp(&x).map(|o| op.test(o))
                } else {
                    None
                }
            })
            .collect(),
        (ColumnData::Str { codes, dict }, Value::Str(s), _) => {
            // Compare each dictionary entry once, then map codes.
            let verdicts: Vec<bool> = dict.iter().map(|d| op.test(d.as_str().cmp(s))).collect();
            (0..n)
                .map(|i| {
                    if col.is_valid(i) {
                        Some(verdicts[codes[i] as usize])
                    } else {
                        None
                    }
                })
                .collect()
        }
        // Type mismatch (e.g. string column vs numeric literal): unknown.
        _ => vec![None; n],
    }
}

/// SQL LIKE with `%` wildcards (no `_` support — the workloads don't use it).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return s == pattern;
    }
    let mut rest = s;
    // First part must anchor at the start (unless empty).
    let first = parts[0];
    if !first.is_empty() {
        match rest.strip_prefix(first) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    // Last part must anchor at the end (unless empty).
    let last = parts[parts.len() - 1];
    let middle = &parts[1..parts.len() - 1];
    for part in middle {
        if part.is_empty() {
            continue;
        }
        match rest.find(part) {
            Some(pos) => rest = &rest[pos + part.len()..],
            None => return false,
        }
    }
    if last.is_empty() {
        true
    } else {
        rest.ends_with(last) && rest.len() >= last.len()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::IsNotNull(e) => write!(f, "isnotnull({e})"),
            Expr::Like { expr, pattern } => write!(f, "{expr} LIKE '{pattern}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StrColumnBuilder;

    fn batch() -> Batch {
        let mut names = StrColumnBuilder::new();
        names.push("alpha");
        names.push("beta");
        names.push_null();
        names.push("alphabet");
        let mut b = Batch::new();
        b.push(ColumnRef::new("t", "id"), Column::non_null(ColumnData::Int(vec![1, 2, 3, 4])));
        b.push(ColumnRef::new("t", "name"), names.finish());
        b
    }

    fn col(name: &str) -> ColumnRef {
        ColumnRef::new("t", name)
    }

    #[test]
    fn numeric_comparison_mask() {
        let e = Expr::cmp(col("id"), CmpOp::Lt, Value::Int(3));
        assert_eq!(e.eval_mask(&batch()), vec![Some(true), Some(true), Some(false), Some(false)]);
    }

    /// The column-vs-literal fast path agrees with `sql_cmp`, which
    /// tells 2^53 from 2^53 + 1.
    #[test]
    fn integer_literal_compares_exactly_past_two_to_the_53() {
        let mut b = Batch::new();
        b.push(col("id"), Column::non_null(ColumnData::Int(vec![1 << 53, (1 << 53) + 1])));
        let e = Expr::cmp(col("id"), CmpOp::Eq, Value::Int((1 << 53) + 1));
        assert_eq!(e.eval_mask(&b), vec![Some(false), Some(true)]);
        assert_eq!(e.eval_row(&b, 0), Value::Int(0));
    }

    #[test]
    fn null_propagates_through_comparison() {
        let e = Expr::cmp(col("name"), CmpOp::Eq, Value::Str("beta".into()));
        assert_eq!(e.eval_mask(&batch()), vec![Some(false), Some(true), None, Some(false)]);
    }

    #[test]
    fn is_not_null_mask() {
        let e = Expr::IsNotNull(Box::new(Expr::Column(col("name"))));
        assert_eq!(e.eval_mask(&batch()), vec![Some(true), Some(true), Some(false), Some(true)]);
    }

    #[test]
    fn three_valued_and() {
        // name = 'beta' AND id < 3 : row 2 (null name) => NULL && TRUE = NULL
        let e = Expr::And(
            Box::new(Expr::cmp(col("name"), CmpOp::Eq, Value::Str("beta".into()))),
            Box::new(Expr::cmp(col("id"), CmpOp::Lt, Value::Int(5))),
        );
        assert_eq!(e.eval_mask(&batch()), vec![Some(false), Some(true), None, Some(false)]);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("alphabet", "alpha%"));
        assert!(like_match("alphabet", "%bet"));
        assert!(like_match("alphabet", "%phab%"));
        assert!(like_match("alphabet", "alphabet"));
        assert!(!like_match("alphabet", "beta%"));
        assert!(!like_match("alpha", "%bet"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("ab", "a%c"));
    }

    #[test]
    fn like_mask_on_dictionary_column() {
        let e = Expr::Like {
            expr: Box::new(Expr::Column(col("name"))),
            pattern: "alpha%".into(),
        };
        assert_eq!(e.eval_mask(&batch()), vec![Some(true), Some(false), None, Some(true)]);
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let a = Expr::cmp(col("id"), CmpOp::Gt, Value::Int(0));
        let b = Expr::cmp(col("id"), CmpOp::Lt, Value::Int(10));
        let c = Expr::IsNotNull(Box::new(Expr::Column(col("name"))));
        let conj = Expr::conjunction(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let parts = conj.split_conjunction();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &a);
        assert_eq!(parts[2], &c);
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn referenced_columns_counts_every_reference() {
        let e = Expr::And(
            Box::new(Expr::cmp(col("id"), CmpOp::Gt, Value::Int(0))),
            Box::new(Expr::Cmp {
                op: CmpOp::Eq,
                left: Box::new(Expr::Column(ColumnRef::new("u", "id"))),
                right: Box::new(Expr::Column(col("id"))),
            }),
        );
        assert_eq!(e.referenced_columns().len(), 3);
    }

    #[test]
    fn literal_flip_fast_path() {
        // 3 > id  ==  id < 3
        let e = Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::Literal(Value::Int(3))),
            right: Box::new(Expr::Column(col("id"))),
        };
        assert_eq!(e.eval_mask(&batch()), vec![Some(true), Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn display_renders_spark_style() {
        let e = Expr::And(
            Box::new(Expr::IsNotNull(Box::new(Expr::Column(col("id"))))),
            Box::new(Expr::cmp(col("id"), CmpOp::Lt, Value::Int(7))),
        );
        assert_eq!(e.to_string(), "(isnotnull(t.id) && (t.id < 7))");
    }
}
