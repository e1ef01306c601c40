//! Histogram-based selectivity and cardinality estimation, in the style of
//! Catalyst's cost-based optimizer. These estimates drive join ordering,
//! broadcast decisions and the GPSJ baseline; the *learned* cost model never
//! sees them as ground truth, which is exactly the paper's setting (Sec. I:
//! rule-based estimates are error-prone).

use crate::catalog::Catalog;
use crate::expr::{CmpOp, Expr};
use crate::plan::spec::{Binding, JoinEdge, QuerySpec};
use crate::stats::{ColumnStats, TableStats};
use crate::types::Value;

/// Fallback selectivity for predicates the estimator cannot analyse.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fallback selectivity for LIKE patterns.
pub const LIKE_SELECTIVITY: f64 = 0.05;

/// Estimates the fraction of a table's rows satisfying `expr`.
pub fn estimate_selectivity(expr: &Expr, stats: &TableStats) -> f64 {
    let s = selectivity_inner(expr, stats);
    s.clamp(0.0, 1.0)
}

fn selectivity_inner(expr: &Expr, stats: &TableStats) -> f64 {
    match expr {
        Expr::And(a, b) => selectivity_inner(a, stats) * selectivity_inner(b, stats),
        Expr::IsNotNull(e) => match column_of(e) {
            Some(c) => match stats.column(&c.column) {
                Some(cs) if stats.row_count > 0 => {
                    1.0 - cs.null_count as f64 / stats.row_count as f64
                }
                _ => 1.0,
            },
            None => 1.0,
        },
        Expr::Like { .. } => LIKE_SELECTIVITY,
        Expr::Cmp { op, left, right } => cmp_selectivity(*op, left, right, stats),
        Expr::Column(_) | Expr::Literal(_) => DEFAULT_SELECTIVITY,
    }
}

fn column_of(e: &Expr) -> Option<&crate::schema::ColumnRef> {
    match e {
        Expr::Column(c) => Some(c),
        _ => None,
    }
}

fn cmp_selectivity(op: CmpOp, left: &Expr, right: &Expr, stats: &TableStats) -> f64 {
    // Normalise to column-op-literal.
    let (col, op, lit) = match (left, right) {
        (Expr::Column(c), Expr::Literal(v)) => (c, op, v),
        (Expr::Literal(v), Expr::Column(c)) => (c, op.flip(), v),
        // column-op-column within one table, or anything else: fallback.
        _ => return DEFAULT_SELECTIVITY,
    };
    let Some(cs) = stats.column(&col.column) else {
        return DEFAULT_SELECTIVITY;
    };
    let non_null_frac = if stats.row_count > 0 {
        1.0 - cs.null_count as f64 / stats.row_count as f64
    } else {
        1.0
    };
    let sel = match op {
        CmpOp::Eq => eq_selectivity(cs, lit),
        CmpOp::Ne => 1.0 - eq_selectivity(cs, lit),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let Some(x) = lit.as_f64() else {
                return DEFAULT_SELECTIVITY;
            };
            match &cs.histogram {
                Some(h) => {
                    let lt = h.selectivity_lt(x);
                    let eq = eq_selectivity(cs, lit);
                    match op {
                        CmpOp::Lt => lt,
                        CmpOp::Le => (lt + eq).min(1.0),
                        CmpOp::Gt => (1.0 - lt - eq).max(0.0),
                        CmpOp::Ge => 1.0 - lt,
                        _ => unreachable!(),
                    }
                }
                None => DEFAULT_SELECTIVITY,
            }
        }
    };
    (sel * non_null_frac).clamp(0.0, 1.0)
}

fn eq_selectivity(cs: &ColumnStats, lit: &Value) -> f64 {
    if cs.ndv == 0 {
        return 0.0;
    }
    // Out-of-range equality matches nothing.
    if let (Some(x), Some(min), Some(max)) = (lit.as_f64(), cs.min, cs.max) {
        if x < min || x > max {
            return 0.0;
        }
    }
    1.0 / cs.ndv as f64
}

/// Estimated output rows of a scan of `binding` after its pushed filter.
pub fn estimate_scan_rows(spec: &QuerySpec, binding: &Binding, catalog: &Catalog) -> f64 {
    // Bindings are validated against the catalog at resolve time, so a
    // missing stats entry cannot happen on a well-formed spec; a zero
    // estimate degrades the plan ranking instead of panicking if one
    // ever arrives.
    let Some(stats) = catalog.stats(&binding.table) else {
        return 0.0;
    };
    let base = stats.row_count as f64;
    match spec.table_filters.get(&binding.name) {
        Some(f) => base * estimate_selectivity(f, stats),
        None => base,
    }
}

/// Estimated rows of an equi-join using the standard containment
/// assumption: `|L ⋈ R| = |L|·|R| / max(ndv(Lk), ndv(Rk))`.
pub fn estimate_join_rows(
    left_rows: f64,
    right_rows: f64,
    edge: &JoinEdge,
    spec: &QuerySpec,
    catalog: &Catalog,
) -> f64 {
    let ndv = |cr: &crate::schema::ColumnRef| -> f64 {
        spec.binding(&cr.table)
            .and_then(|b| catalog.stats(&b.table))
            .and_then(|s| s.column(&cr.column))
            .map(|c| c.ndv.max(1) as f64)
            .unwrap_or(1.0)
    };
    let denom = ndv(&edge.left).max(ndv(&edge.right));
    (left_rows * right_rows / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnRef, TableSchema};
    use crate::storage::{Column, ColumnData, Table};
    use crate::types::DataType;

    fn uniform_table(n: i64) -> Table {
        Table::new(
            TableSchema::new("t", vec![ColumnDef::new("x", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int((0..n).collect()))],
        )
    }

    fn stats(n: i64) -> TableStats {
        crate::stats::compute_table_stats(&uniform_table(n))
    }

    fn colref() -> ColumnRef {
        ColumnRef::new("t", "x")
    }

    #[test]
    fn range_selectivity_on_uniform_data() {
        let s = stats(1000);
        let e = Expr::cmp(colref(), CmpOp::Lt, Value::Int(250));
        let sel = estimate_selectivity(&e, &s);
        assert!((sel - 0.25).abs() < 0.05, "got {sel}");
    }

    #[test]
    fn equality_uses_ndv() {
        let s = stats(1000);
        let e = Expr::cmp(colref(), CmpOp::Eq, Value::Int(5));
        let sel = estimate_selectivity(&e, &s);
        assert!((sel - 0.001).abs() < 1e-4, "got {sel}");
    }

    #[test]
    fn out_of_range_equality_is_zero() {
        let s = stats(1000);
        let e = Expr::cmp(colref(), CmpOp::Eq, Value::Int(50_000));
        assert_eq!(estimate_selectivity(&e, &s), 0.0);
    }

    #[test]
    fn conjunction_multiplies() {
        let s = stats(1000);
        let e = Expr::And(
            Box::new(Expr::cmp(colref(), CmpOp::Lt, Value::Int(500))),
            Box::new(Expr::cmp(colref(), CmpOp::Ge, Value::Int(0))),
        );
        let sel = estimate_selectivity(&e, &s);
        assert!((sel - 0.5).abs() < 0.1, "got {sel}");
    }

    #[test]
    fn selectivity_is_clamped() {
        let s = stats(10);
        let e = Expr::And(
            Box::new(Expr::cmp(colref(), CmpOp::Ne, Value::Int(3))),
            Box::new(Expr::cmp(colref(), CmpOp::Le, Value::Int(100))),
        );
        let sel = estimate_selectivity(&e, &s);
        assert!((0.0..=1.0).contains(&sel));
    }
}
