//! The catalog: registered tables plus their statistics.

use crate::schema::Name;
use crate::stats::{compute_table_stats, TableStats};
use crate::storage::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Registry of tables available to the engine. Statistics are computed at
/// registration time (the equivalent of `ANALYZE TABLE`). Its tables'
/// schemas own the [`Name`] of every table and column, which the binder
/// hands out to every plan that names them.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<Name, Arc<Table>>,
    stats: HashMap<Name, TableStats>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its schema name, replacing any previous
    /// table of the same name, and analyzes it.
    pub fn register(&mut self, table: Table) {
        let name = table.schema.name.clone();
        let stats = compute_table_stats(&table);
        self.tables.insert(name.clone(), Arc::new(table));
        self.stats.insert(name, stats);
    }

    /// Fetches a table by name.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Fetches statistics by table name.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total bytes across all registered tables.
    pub fn total_bytes(&self) -> u64 {
        self.stats.values().map(|s| s.total_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::storage::{Column, ColumnData};
    use crate::types::DataType;

    fn tiny(name: &str) -> Table {
        Table::new(
            TableSchema::new(name, vec![ColumnDef::new("id", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int(vec![1, 2, 3]))],
        )
    }

    #[test]
    fn register_computes_stats() {
        let mut c = Catalog::new();
        c.register(tiny("t"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats("t").unwrap().row_count, 3);
        assert!(c.table("t").is_some());
        assert!(c.table("u").is_none());
        assert!(c.total_bytes() > 0);
    }

    #[test]
    fn reregister_replaces() {
        let mut c = Catalog::new();
        c.register(tiny("t"));
        let bigger = Table::new(
            TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int(vec![1, 2, 3, 4, 5]))],
        );
        c.register(bigger);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats("t").unwrap().row_count, 5);
    }
}
