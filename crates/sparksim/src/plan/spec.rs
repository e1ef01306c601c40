//! Binder: resolves a parsed [`Query`] against the catalog into a
//! normalised [`QuerySpec`] — per-table conjunctive filters, equi-join
//! edges, residual predicates and the aggregate list. This is the form the
//! join-order optimizer and physical planner work from.

use crate::catalog::Catalog;
use crate::expr::{CmpOp, Expr};
use crate::schema::ColumnRef;
use crate::sql::ast::{AggFunc, AstColumn, AstExpr, Query, SelectItem};
use crate::types::DataType;
use std::collections::HashMap;
use std::fmt;

/// A `FROM`-list entry after alias resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The name used to reference this table in the query (alias or table
    /// name) — also the qualifier used in resolved [`ColumnRef`]s.
    pub name: String,
    /// The base table in the catalog.
    pub table: String,
}

/// An equi-join edge between two bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Key on one side (binding-qualified).
    pub left: ColumnRef,
    /// Key on the other side.
    pub right: ColumnRef,
}

impl JoinEdge {
    /// The edge's key for `binding`, if it touches it.
    pub fn key_for(&self, binding: &str) -> Option<&ColumnRef> {
        if self.left.table == binding {
            Some(&self.left)
        } else if self.right.table == binding {
            Some(&self.right)
        } else {
            None
        }
    }

    /// Whether the edge connects the two given bindings.
    pub fn connects(&self, a: &str, b: &str) -> bool {
        (self.left.table == a && self.right.table == b)
            || (self.left.table == b && self.right.table == a)
    }
}

/// One aggregate in the select list.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument column; `None` for `COUNT(*)`.
    pub arg: Option<ColumnRef>,
}

/// A fully resolved, normalised query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// `FROM` bindings, in query order.
    pub bindings: Vec<Binding>,
    /// Conjunctive single-table filters, keyed by binding name.
    pub table_filters: HashMap<String, Expr>,
    /// Equi-join edges.
    pub join_edges: Vec<JoinEdge>,
    /// Predicates that are neither single-table nor equi-join (applied
    /// after all joins).
    pub residual: Vec<Expr>,
    /// Aggregates in the select list.
    pub aggregates: Vec<AggSpec>,
    /// Plain select-list columns.
    pub select_columns: Vec<ColumnRef>,
    /// Whether the select list contains `*`.
    pub wildcard: bool,
    /// `GROUP BY` columns.
    pub group_by: Vec<ColumnRef>,
    /// `ORDER BY` columns with ascending flags.
    pub order_by: Vec<(ColumnRef, bool)>,
    /// `LIMIT`.
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// Binding by name.
    pub fn binding(&self, name: &str) -> Option<&Binding> {
        self.bindings.iter().find(|b| b.name == name)
    }

    /// True when the query has at least one aggregate.
    pub fn has_aggregates(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// Number of joins implied by the FROM list.
    pub fn num_joins(&self) -> usize {
        self.bindings.len().saturating_sub(1)
    }

    /// All columns a binding must produce: filters are applied at the scan,
    /// so this covers join keys, residuals, aggregates, group/order and the
    /// select list.
    pub fn required_columns(&self, binding: &str) -> Vec<ColumnRef> {
        let mut cols: Vec<ColumnRef> = Vec::new();
        let mut push = |c: &ColumnRef| {
            if c.table == binding && !cols.contains(c) {
                cols.push(c.clone());
            }
        };
        for e in &self.join_edges {
            push(&e.left);
            push(&e.right);
        }
        for r in &self.residual {
            for c in r.referenced_columns() {
                push(c);
            }
        }
        for a in &self.aggregates {
            if let Some(c) = &a.arg {
                push(c);
            }
        }
        for c in &self.select_columns {
            push(c);
        }
        for c in &self.group_by {
            push(c);
        }
        for (c, _) in &self.order_by {
            push(c);
        }
        // Filter columns are needed at the scan even if dropped afterwards.
        if let Some(f) = self.table_filters.get(binding) {
            for c in f.referenced_columns() {
                push(c);
            }
        }
        cols
    }
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveError {
    /// Human-readable message.
    pub message: String,
    /// Token index of the offending item in the original SQL (the same
    /// coordinate space as [`crate::sql::parser::ParseError::position`]),
    /// when the failure can be pinned to one.
    pub position: Option<usize>,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(p) => write!(f, "resolve error at token {p}: {}", self.message),
            None => write!(f, "resolve error: {}", self.message),
        }
    }
}

impl std::error::Error for ResolveError {}

fn err<T>(message: impl Into<String>) -> Result<T, ResolveError> {
    Err(ResolveError { message: message.into(), position: None })
}

fn err_at<T>(position: usize, message: impl Into<String>) -> Result<T, ResolveError> {
    Err(ResolveError { message: message.into(), position: Some(position) })
}

/// Resolves a parsed query against the catalog.
pub fn resolve(query: &Query, catalog: &Catalog) -> Result<QuerySpec, ResolveError> {
    // 1. Bindings.
    let mut bindings = Vec::with_capacity(query.tables.len());
    for t in &query.tables {
        if catalog.table(&t.name).is_none() {
            return err_at(t.position, format!("unknown table '{}'", t.name));
        }
        let name = t.binding().to_string();
        if bindings.iter().any(|b: &Binding| b.name == name) {
            return err_at(t.position, format!("duplicate binding '{name}'"));
        }
        bindings.push(Binding { name, table: t.name.clone() });
    }

    let resolver = ColumnResolver { bindings: &bindings, catalog };

    // 2. Select list.
    let mut aggregates = Vec::new();
    let mut select_columns = Vec::new();
    let mut wildcard = false;
    for item in &query.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Column(c) => select_columns.push(resolver.resolve_column(c)?),
            SelectItem::Aggregate { func, arg } => {
                let arg = match arg {
                    Some(c) => {
                        let rc = resolver.resolve_column(c)?;
                        if *func != AggFunc::Count && *func != AggFunc::Min && *func != AggFunc::Max
                        {
                            // SUM/AVG need numeric arguments.
                            let dt = resolver.column_type(&rc, c.position)?;
                            if dt == DataType::Str {
                                return err_at(
                                    c.position,
                                    format!("{func}({rc}) over a string column"),
                                );
                            }
                        }
                        Some(rc)
                    }
                    None => None,
                };
                aggregates.push(AggSpec { func: *func, arg });
            }
        }
    }

    // 3. Predicate classification.
    let mut table_filter_lists: HashMap<String, Vec<Expr>> = HashMap::new();
    let mut join_edges = Vec::new();
    let mut residual = Vec::new();
    if let Some(pred) = &query.predicate {
        let resolved = resolver.resolve_expr(pred)?;
        for factor in resolved.split_conjunction() {
            match classify(factor) {
                Class::Join(edge) => join_edges.push(edge),
                Class::SingleTable(binding) => {
                    table_filter_lists.entry(binding).or_default().push(factor.clone())
                }
                Class::Residual => residual.push(factor.clone()),
            }
        }
    }
    // Every list was created non-empty via `entry().or_default().push`,
    // so the `None` (empty-conjunction) arm cannot fire; `filter_map`
    // keeps the impossible case panic-free.
    let table_filters = table_filter_lists
        .into_iter()
        .filter_map(|(k, v)| Expr::conjunction(v).map(|e| (k, e)))
        .collect();

    let group_by = query
        .group_by
        .iter()
        .map(|c| resolver.resolve_column(c))
        .collect::<Result<Vec<_>, _>>()?;
    let order_by = query
        .order_by
        .iter()
        .map(|(c, asc)| resolver.resolve_column(c).map(|r| (r, *asc)))
        .collect::<Result<Vec<_>, _>>()?;

    let spec = QuerySpec {
        bindings,
        table_filters,
        join_edges,
        residual,
        aggregates,
        select_columns,
        wildcard,
        group_by,
        order_by,
        limit: query.limit,
    };

    // 4. Connectivity check: a disconnected join graph would be a cross
    // product, which the workloads never produce — reject it early.
    if spec.bindings.len() > 1 {
        let mut reached = vec![false; spec.bindings.len()];
        reached[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for e in &spec.join_edges {
                for (i, b) in spec.bindings.iter().enumerate() {
                    if reached[i] {
                        continue;
                    }
                    let other_reached = spec
                        .bindings
                        .iter()
                        .enumerate()
                        .any(|(j, ob)| reached[j] && e.connects(&ob.name, &b.name));
                    if other_reached {
                        reached[i] = true;
                        changed = true;
                    }
                }
            }
        }
        if reached.iter().any(|r| !r) {
            return err("join graph is disconnected (cross products unsupported)");
        }
    }
    Ok(spec)
}

enum Class {
    Join(JoinEdge),
    SingleTable(String),
    Residual,
}

fn classify(factor: &Expr) -> Class {
    // Equi-join: column = column across different bindings.
    if let Expr::Cmp { op: CmpOp::Eq, left, right } = factor {
        if let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) {
            if l.table != r.table {
                return Class::Join(JoinEdge { left: l.clone(), right: r.clone() });
            }
        }
    }
    let cols = factor.referenced_columns();
    let mut tables: Vec<&str> = cols.iter().map(|c| c.table.as_str()).collect();
    tables.sort_unstable();
    tables.dedup();
    match tables.as_slice() {
        [single] => Class::SingleTable((*single).to_string()),
        _ => Class::Residual,
    }
}

struct ColumnResolver<'a> {
    bindings: &'a [Binding],
    catalog: &'a Catalog,
}

impl ColumnResolver<'_> {
    /// The binding's catalog table. Bindings are only created after a
    /// successful catalog lookup in [`resolve`], so a miss here means the
    /// catalog changed mid-resolution — reported as an error, not a panic.
    fn bound_table(
        &self,
        b: &Binding,
    ) -> Result<&std::sync::Arc<crate::storage::Table>, ResolveError> {
        self.catalog.table(&b.table).ok_or_else(|| ResolveError {
            message: format!("table '{}' disappeared from the catalog during resolution", b.table),
            position: None,
        })
    }

    fn resolve_column(&self, c: &AstColumn) -> Result<ColumnRef, ResolveError> {
        match &c.qualifier {
            Some(q) => {
                let b =
                    self.bindings
                        .iter()
                        .find(|b| &b.name == q)
                        .ok_or_else(|| ResolveError {
                            message: format!("unknown qualifier '{q}'"),
                            position: Some(c.position),
                        })?;
                let table = self.bound_table(b)?;
                if table.schema.column_index(&c.name).is_none() {
                    return err_at(
                        c.position,
                        format!("table '{}' has no column '{}'", b.table, c.name),
                    );
                }
                Ok(ColumnRef::new(b.name.clone(), c.name.clone()))
            }
            None => {
                let mut matches = Vec::new();
                for b in self.bindings {
                    let table = self.bound_table(b)?;
                    if table.schema.column_index(&c.name).is_some() {
                        matches.push(b);
                    }
                }
                match matches.as_slice() {
                    [one] => Ok(ColumnRef::new(one.name.clone(), c.name.clone())),
                    [] => err_at(c.position, format!("unknown column '{}'", c.name)),
                    _ => err_at(c.position, format!("ambiguous column '{}'", c.name)),
                }
            }
        }
    }

    /// Type of an already-resolved column; `position` locates the SQL
    /// token the caller is checking, for error attribution.
    fn column_type(&self, c: &ColumnRef, position: usize) -> Result<DataType, ResolveError> {
        let b = self
            .bindings
            .iter()
            .find(|b| b.name == c.table)
            .ok_or_else(|| ResolveError {
                message: format!("unknown binding '{}'", c.table),
                position: Some(position),
            })?;
        let table = self.bound_table(b)?;
        let column = table.schema.column(&c.column).ok_or_else(|| ResolveError {
            message: format!("table '{}' has no column '{}'", b.table, c.column),
            position: Some(position),
        })?;
        Ok(column.data_type)
    }

    fn resolve_expr(&self, e: &AstExpr) -> Result<Expr, ResolveError> {
        Ok(match e {
            AstExpr::Column(c) => Expr::Column(self.resolve_column(c)?),
            AstExpr::Literal(v) => Expr::Literal(v.clone()),
            AstExpr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(self.resolve_expr(left)?),
                right: Box::new(self.resolve_expr(right)?),
            },
            AstExpr::And(a, b) => {
                Expr::And(Box::new(self.resolve_expr(a)?), Box::new(self.resolve_expr(b)?))
            }
            AstExpr::Or(a, b) => {
                Expr::Or(Box::new(self.resolve_expr(a)?), Box::new(self.resolve_expr(b)?))
            }
            AstExpr::Not(inner) => Expr::Not(Box::new(self.resolve_expr(inner)?)),
            AstExpr::IsNull(inner) => Expr::IsNull(Box::new(self.resolve_expr(inner)?)),
            AstExpr::IsNotNull(inner) => Expr::IsNotNull(Box::new(self.resolve_expr(inner)?)),
            AstExpr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(self.resolve_expr(expr)?),
                pattern: pattern.clone(),
            },
            AstExpr::Between { expr, lo, hi } => {
                let inner = self.resolve_expr(expr)?;
                Expr::And(
                    Box::new(Expr::Cmp {
                        op: CmpOp::Ge,
                        left: Box::new(inner.clone()),
                        right: Box::new(Expr::Literal(lo.clone())),
                    }),
                    Box::new(Expr::Cmp {
                        op: CmpOp::Le,
                        left: Box::new(inner),
                        right: Box::new(Expr::Literal(hi.clone())),
                    }),
                )
            }
            AstExpr::InList { expr, list } => {
                if list.is_empty() {
                    return err("IN () with an empty list");
                }
                let inner = self.resolve_expr(expr)?;
                let mut alts: Vec<Expr> = list
                    .iter()
                    .map(|v| Expr::Cmp {
                        op: CmpOp::Eq,
                        left: Box::new(inner.clone()),
                        right: Box::new(Expr::Literal(v.clone())),
                    })
                    .collect();
                let first = alts.remove(0);
                alts.into_iter()
                    .fold(first, |acc, p| Expr::Or(Box::new(acc), Box::new(p)))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::sql::parser::parse;
    use crate::storage::{Column, ColumnData, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(Table::new(
            TableSchema::new(
                "title",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("kind_id", DataType::Int, true),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int(vec![1, 2])),
                Column::non_null(ColumnData::Int(vec![10, 20])),
            ],
        ));
        c.register(Table::new(
            TableSchema::new(
                "movie_companies",
                vec![
                    ColumnDef::new("movie_id", DataType::Int, false),
                    ColumnDef::new("company_id", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int(vec![1, 2])),
                Column::non_null(ColumnData::Int(vec![5, 6])),
            ],
        ));
        c
    }

    #[test]
    fn resolves_joins_and_filters() {
        let q = parse(
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.kind_id < 7 AND mc.company_id > 1",
        )
        .unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        assert_eq!(spec.bindings.len(), 2);
        assert_eq!(spec.join_edges.len(), 1);
        assert_eq!(spec.table_filters.len(), 2);
        assert!(spec.residual.is_empty());
        assert!(spec.has_aggregates());
        assert_eq!(spec.num_joins(), 1);
    }

    #[test]
    fn unqualified_unique_column_resolves() {
        let q = parse("SELECT COUNT(*) FROM title WHERE kind_id < 7").unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        assert!(spec.table_filters.contains_key("title"));
    }

    #[test]
    fn ambiguous_column_is_error() {
        // Both tables would match a hypothetical shared name; here use `id`
        // vs `movie_id` — craft ambiguity via two bindings of same table.
        let q =
            parse("SELECT COUNT(*) FROM title a, title b WHERE a.id = b.id AND id < 5").unwrap();
        let e = resolve(&q, &catalog()).unwrap_err();
        assert!(e.message.contains("ambiguous"), "{}", e.message);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let q = parse("SELECT COUNT(*) FROM nope").unwrap();
        assert!(resolve(&q, &catalog()).is_err());
        let q = parse("SELECT COUNT(*) FROM title WHERE title.nope = 1").unwrap();
        assert!(resolve(&q, &catalog()).is_err());
    }

    #[test]
    fn disconnected_join_graph_rejected() {
        let q = parse("SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id > 0").unwrap();
        let e = resolve(&q, &catalog()).unwrap_err();
        assert!(e.message.contains("disconnected"));
    }

    #[test]
    fn between_desugars_to_range() {
        let q = parse("SELECT COUNT(*) FROM title WHERE kind_id BETWEEN 3 AND 9").unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        let f = &spec.table_filters["title"];
        let parts = f.split_conjunction();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn in_list_desugars_to_or_chain() {
        let q = parse("SELECT COUNT(*) FROM title WHERE kind_id IN (1, 2, 3)").unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        let f = &spec.table_filters["title"];
        assert!(matches!(f, Expr::Or(_, _)));
    }

    #[test]
    fn required_columns_cover_join_keys_and_filters() {
        let q = parse(
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND t.kind_id < 7",
        )
        .unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        let cols = spec.required_columns("t");
        assert!(cols.contains(&ColumnRef::new("t", "id")));
        assert!(cols.contains(&ColumnRef::new("t", "kind_id")));
    }

    #[test]
    fn resolve_errors_carry_source_positions() {
        // Token 3 is `nope` in `SELECT COUNT ( * ) FROM nope` — tokens
        // are counted the same way ParseError counts them.
        let q = parse("SELECT COUNT(*) FROM nope").unwrap();
        let e = resolve(&q, &catalog()).unwrap_err();
        assert_eq!(e.position, Some(6));
        assert!(e.to_string().contains("at token 6"), "{e}");

        let q = parse("SELECT COUNT(*) FROM title WHERE title.nope = 1").unwrap();
        let e = resolve(&q, &catalog()).unwrap_err();
        assert_eq!(e.position, Some(8));

        let q = parse("SELECT COUNT(*) FROM title WHERE bogus = 1").unwrap();
        let e = resolve(&q, &catalog()).unwrap_err();
        assert_eq!(e.position, Some(8));
    }

    #[test]
    fn self_join_with_aliases_resolves() {
        let q = parse("SELECT COUNT(*) FROM title a, title b WHERE a.id = b.kind_id").unwrap();
        let spec = resolve(&q, &catalog()).unwrap();
        assert_eq!(spec.bindings.len(), 2);
        assert_eq!(spec.join_edges.len(), 1);
    }
}
