//! Table schemas and the qualified-column naming used throughout planning.

use crate::types::DataType;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A table, column or alias name, shared rather than copied: the catalog
/// allocates each table and column name once and the binder each alias
/// once per query, and every plan, batch and cache key that names it
/// holds a reference-counted pointer to that one allocation.
///
/// It behaves as the `str` it holds — `Hash`, `Ord`, `Display`, `Debug`
/// and serde are `str`'s / `String`'s, so hashes, rendered statements
/// and JSON are the same bytes a `String` gives — and `==` is `Arc`'s,
/// which compares pointers before bytes.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `a` and `b` share one allocation (not merely equal text).
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for Name {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v).map(Name::from)
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (unqualified).
    pub name: Name,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<Name>, data_type: DataType, nullable: bool) -> Self {
        Self { name: name.into(), data_type, nullable }
    }
}

/// Schema of a table: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name.
    pub name: Name,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Creates a schema.
    pub fn new(name: impl Into<Name>, columns: Vec<ColumnDef>) -> Self {
        Self { name: name.into(), columns }
    }

    /// Index of a column by unqualified name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// Column definition by unqualified name.
    pub fn column(&self, column: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }
}

/// A fully qualified column reference `table.column` (after alias
/// resolution, `table` is the query's binding name — the alias, or the
/// table name when the table has none).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Binding name.
    pub table: Name,
    /// Column name.
    pub column: Name,
}

impl ColumnRef {
    /// Creates a qualified reference.
    pub fn new(table: impl Into<Name>, column: impl Into<Name>) -> Self {
        Self { table: table.into(), column: column.into() }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::hash::{Hash, Hasher};

    fn sample() -> TableSchema {
        TableSchema::new(
            "title",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("kind_id", DataType::Int, true),
                ColumnDef::new("title", DataType::Str, true),
            ],
        )
    }

    #[test]
    fn column_lookup() {
        let s = sample();
        assert_eq!(s.column_index("kind_id"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("title").unwrap().data_type, DataType::Str);
        assert_eq!(s.width(), 3);
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::new("t", "id").to_string(), "t.id");
    }

    /// Plan hashes, statements and checkpoints see the same bytes a
    /// `String` gave them.
    #[test]
    fn a_name_hashes_orders_prints_and_serializes_as_its_string() {
        fn hash_of(x: &impl Hash) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        for s in ["", "id", "movie_companies", "#agg"] {
            let (name, owned) = (Name::from(s), s.to_string());
            assert_eq!(hash_of(&name), hash_of(&owned));
            assert_eq!(format!("{name}|{name:>9}|{name:?}"), format!("{s}|{s:>9}|{s:?}"));
            assert_eq!(name.to_value(), owned.to_value());
            assert_eq!(Name::from_value(&owned.to_value()).unwrap(), name);
            assert!(name == *s && name == s && name == owned);
        }
        assert_eq!(Name::from("t").cmp(&Name::from("u")), Ordering::Less);
        assert_eq!(sample().to_value().get("name"), Some(&Value::Str("title".into())));

        let (a, b) = (Name::from("t"), Name::from("t"));
        assert!(Name::ptr_eq(&a, &a.clone()));
        assert!(!Name::ptr_eq(&a, &b) && a == b);
    }
}
