//! Recursive-descent parser for the SQL subset used by the paper's
//! workloads: `SELECT` with aggregates, comma joins, a `WHERE` clause that
//! is a conjunction of atoms (`col op col`, `col op literal`, `BETWEEN`,
//! `LIKE`, `IS NOT NULL`), `GROUP BY`, `ORDER BY` and `LIMIT`. `OR`, `NOT`,
//! parentheses, `IN` and `IS NULL` are parse errors: no workload emits them.

use super::ast::*;
use super::token::{tokenize, Token};
use crate::expr::CmpOp;
use crate::types::Value;
use std::fmt;

/// Parse error with a message and (approximate) token position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Index of the offending token.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a SQL string into a [`Query`].
pub fn parse(sql: &str) -> Result<Query, ParseError> {
    let tokens =
        tokenize(sql).map_err(|e| ParseError { message: e.message, position: e.offset })?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.error(format!("unexpected trailing token '{}'", p.tokens[p.pos])));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), position: self.pos }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a keyword (case-insensitive identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected keyword {kw}, found {}",
                self.peek().map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{sym}', found {}",
                self.peek().map_or("end of input".to_string(), |t| t.to_string())
            )))
        }
    }

    /// Peeks whether the next token is the given keyword.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error(format!(
                "expected identifier, found {}",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let items = self.select_list()?;
        self.expect_kw("FROM")?;
        let tables = self.table_list()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.conjunction()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.column()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.column()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((col, asc));
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.error("LIMIT expects a non-negative integer")),
            }
        } else {
            None
        };
        Ok(Query {
            items,
            tables,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        for (kw, func) in [
            ("COUNT", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
            ("AVG", AggFunc::Avg),
        ] {
            if self.at_kw(kw) {
                // Only treat as an aggregate when followed by '('.
                if matches!(self.tokens.get(self.pos + 1), Some(Token::Symbol("("))) {
                    self.pos += 1; // keyword
                    self.expect_symbol("(")?;
                    let arg = if self.eat_symbol("*") {
                        if func != AggFunc::Count {
                            return Err(self.error(format!("{kw}(*) is not valid")));
                        }
                        None
                    } else {
                        Some(self.column()?)
                    };
                    self.expect_symbol(")")?;
                    return Ok(SelectItem::Aggregate { func, arg });
                }
            }
        }
        Ok(SelectItem::Column(self.column()?))
    }

    fn table_list(&mut self) -> Result<Vec<TableRef>, ParseError> {
        let mut tables = Vec::new();
        loop {
            let position = self.pos;
            let name = self.ident()?;
            let alias = if self.eat_kw("AS") {
                Some(self.ident()?)
            } else if let Some(Token::Ident(s)) = self.peek() {
                // Bare alias, unless it's a clause keyword.
                let kw = ["WHERE", "GROUP", "ORDER", "LIMIT", "AS"];
                if kw.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                    None
                } else {
                    Some(self.ident()?)
                }
            } else {
                None
            };
            tables.push(TableRef { name, alias, position });
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(tables)
    }

    fn column(&mut self) -> Result<AstColumn, ParseError> {
        let position = self.pos;
        let first = self.ident()?;
        if self.eat_symbol(".") {
            let name = self.ident()?;
            Ok(AstColumn { qualifier: Some(first), name, position })
        } else {
            Ok(AstColumn { qualifier: None, name: first, position })
        }
    }

    /// `atom (AND atom)*`.
    fn conjunction(&mut self) -> Result<AstExpr, ParseError> {
        let mut left = self.predicate_atom()?;
        while self.eat_kw("AND") {
            let right = self.predicate_atom()?;
            left = AstExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn predicate_atom(&mut self) -> Result<AstExpr, ParseError> {
        let left = self.operand()?;
        if self.eat_kw("IS") {
            self.expect_kw("NOT")?;
            self.expect_kw("NULL")?;
            return Ok(AstExpr::IsNotNull(Box::new(left)));
        }
        if self.eat_kw("LIKE") {
            match self.next() {
                Some(Token::Str(p)) => {
                    return Ok(AstExpr::Like { expr: Box::new(left), pattern: p })
                }
                _ => return Err(self.error("LIKE expects a string literal")),
            }
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.literal()?;
            self.expect_kw("AND")?;
            let hi = self.literal()?;
            return Ok(AstExpr::Between { expr: Box::new(left), lo, hi });
        }
        let op = self.cmp_op()?;
        let right = self.operand()?;
        Ok(AstExpr::Cmp { op, left: Box::new(left), right: Box::new(right) })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Some(Token::Symbol("=")) => CmpOp::Eq,
            Some(Token::Symbol("<>")) => CmpOp::Ne,
            Some(Token::Symbol("<")) => CmpOp::Lt,
            Some(Token::Symbol("<=")) => CmpOp::Le,
            Some(Token::Symbol(">")) => CmpOp::Gt,
            Some(Token::Symbol(">=")) => CmpOp::Ge,
            other => {
                return Err(self.error(format!(
                    "expected comparison operator, found {}",
                    other.map_or("end of input".to_string(), |t| t.to_string())
                )))
            }
        };
        self.pos += 1;
        Ok(op)
    }

    fn operand(&mut self) -> Result<AstExpr, ParseError> {
        match self.peek() {
            Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                Ok(AstExpr::Literal(self.literal()?))
            }
            Some(Token::Ident(_)) => Ok(AstExpr::Column(self.column()?)),
            other => Err(self.error(format!(
                "expected operand, found {}",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(x)) => Ok(Value::Float(x)),
            Some(Token::Str(s)) => Ok(Value::Str(s)),
            other => Err(self.error(format!(
                "expected literal, found {}",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_1() {
        // Paper Sec. III query 1 (single table).
        let q = parse("SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id<71692").unwrap();
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.tables[0].name, "movie_keyword");
        assert_eq!(q.tables[0].alias.as_deref(), Some("mk"));
        assert_eq!(q.items, vec![SelectItem::Aggregate { func: AggFunc::Count, arg: None }]);
        assert!(q.predicate.is_some());
    }

    #[test]
    fn parses_paper_query_4() {
        // Paper Sec. III query 4 (three tables).
        let q = parse(
            "SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk \
             WHERE t.id = mc.movie_id AND t.id = mk.movie_id \
             AND mc.company_id = 43268 AND mk.keyword_id < 2560",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 3);
        let p = q.predicate.unwrap();
        // Conjunction of four atoms: ((a AND b) AND c) AND d.
        fn count_ands(e: &AstExpr) -> usize {
            match e {
                AstExpr::And(a, b) => 1 + count_ands(a) + count_ands(b),
                _ => 0,
            }
        }
        assert_eq!(count_ands(&p), 3);
    }

    #[test]
    fn parses_group_order_limit() {
        let q = parse(
            "SELECT t.kind_id, COUNT(*), SUM(t.production_year) FROM title t \
             WHERE t.production_year > 1990 GROUP BY t.kind_id \
             ORDER BY t.kind_id DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].1, "DESC parsed");
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.items.len(), 3);
    }

    #[test]
    fn parses_between_like_not_null() {
        let q = parse(
            "SELECT * FROM t WHERE t.a BETWEEN 1 AND 5 AND t.name LIKE 'abc%' \
             AND t.c IS NOT NULL AND t.d <> t.e",
        )
        .unwrap();
        let atoms = flatten_and(q.predicate.as_ref().unwrap());
        assert_eq!(atoms.len(), 4);
        assert!(matches!(atoms[0], AstExpr::Between { .. }));
        assert!(matches!(atoms[1], AstExpr::Like { .. }));
        assert!(matches!(atoms[2], AstExpr::IsNotNull(_)));
        assert!(matches!(atoms[3], AstExpr::Cmp { op: CmpOp::Ne, .. }));
    }

    fn flatten_and(e: &AstExpr) -> Vec<&AstExpr> {
        match e {
            AstExpr::And(a, b) => {
                let mut v = flatten_and(a);
                v.extend(flatten_and(b));
                v
            }
            other => vec![other],
        }
    }

    /// The WHERE clause is a conjunction of atoms; nothing else parses.
    #[test]
    fn rejects_or_not_parentheses_in_and_is_null() {
        for pred in
            ["t.a = 1 OR t.b = 2", "NOT t.a = 1", "(t.a = 1)", "t.a IN (1, 2)", "t.a IS NULL"]
        {
            assert!(parse(&format!("SELECT * FROM t WHERE {pred}")).is_err(), "{pred}");
        }
    }

    #[test]
    fn count_as_column_name_is_allowed() {
        // COUNT not followed by '(' is an ordinary identifier.
        let q = parse("SELECT count FROM t").unwrap();
        assert!(matches!(&q.items[0], SelectItem::Column(c) if c.name == "count"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT * FROM t WHERE t.a = 1 banana phone").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT *").is_err());
    }

    #[test]
    fn rejects_sum_star() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }
}
