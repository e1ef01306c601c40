//! Parsed (pre-resolution) query representation.

use crate::types::Value;
use std::fmt;

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Select-list items.
    pub items: Vec<SelectItem>,
    /// `FROM` tables with optional aliases.
    pub tables: Vec<TableRef>,
    /// `WHERE` predicate.
    pub predicate: Option<AstExpr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<AstColumn>,
    /// `ORDER BY` columns with ascending flags.
    pub order_by: Vec<(AstColumn, bool)>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
}

/// One select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// A bare column.
    Column(AstColumn),
    /// An aggregate call.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<AstColumn>,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `AVG`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// A table in the `FROM` list.
#[derive(Debug, Clone)]
pub struct TableRef {
    /// Base table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// Token index where this reference starts, for resolver errors.
    pub position: usize,
}

// Position is provenance, not identity: two references to the same
// table/alias are equal wherever they appear in the query.
impl PartialEq for TableRef {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.alias == other.alias
    }
}

impl Eq for TableRef {}

impl TableRef {
    /// The name queries use to reference this table's columns.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An (optionally) qualified column before alias resolution.
#[derive(Debug, Clone)]
pub struct AstColumn {
    /// Alias or table qualifier, when written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Token index where this column starts, for resolver errors.
    pub position: usize,
}

// Position is provenance, not identity — keep equality and hashing on
// the (qualifier, name) pair so positions never split otherwise-equal
// columns in maps or assertions.
impl PartialEq for AstColumn {
    fn eq(&self, other: &Self) -> bool {
        self.qualifier == other.qualifier && self.name == other.name
    }
}

impl Eq for AstColumn {}

impl std::hash::Hash for AstColumn {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.qualifier.hash(state);
        self.name.hash(state);
    }
}

impl fmt::Display for AstColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Pre-resolution scalar expression (mirrors [`crate::expr::Expr`] but with
/// unresolved columns).
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Column reference.
    Column(AstColumn),
    /// Literal constant.
    Literal(Value),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: crate::expr::CmpOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// Conjunction.
    And(Box<AstExpr>, Box<AstExpr>),
    /// `IS NOT NULL`.
    IsNotNull(Box<AstExpr>),
    /// `LIKE` with `%` wildcards.
    Like {
        /// String operand.
        expr: Box<AstExpr>,
        /// Pattern.
        pattern: String,
    },
    /// `BETWEEN lo AND hi` (inclusive); desugared during resolution.
    Between {
        /// Operand.
        expr: Box<AstExpr>,
        /// Lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
    },
}
