//! Intermediate result representation flowing between operators.

use crate::schema::ColumnRef;
use crate::storage::{Column, ColumnData};

/// A set of named columns of equal length — the unit of data exchanged
/// between executor operators. Columns are qualified so joins of tables
/// with overlapping column names stay unambiguous.
///
/// A column no operator above reads is a *ghost*: its values are
/// dropped, its width is kept, so [`Batch::row_width`] — and the byte
/// volumes the executor reports — count every output column, read or
/// not. The row count is explicit, so a batch of ghosts alone still has
/// rows.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    rows: usize,
    columns: Vec<(ColumnRef, Column)>,
    ghosts: Vec<(ColumnRef, GhostWidth)>,
}

/// What a ghost column contributes to a row's width.
#[derive(Debug, Clone, Copy)]
enum GhostWidth {
    /// A fixed-width type's bytes per row.
    Fixed(usize),
    /// A string column's dictionary payload, amortised over the batch's
    /// rows as [`ColumnData::row_width`] amortises it.
    Str { payload: usize },
}

impl GhostWidth {
    fn of(data: &ColumnData) -> GhostWidth {
        match data {
            ColumnData::Str { dict, .. } => {
                GhostWidth::Str { payload: dict.iter().map(String::len).sum() }
            }
            fixed => GhostWidth::Fixed(fixed.row_width()),
        }
    }

    fn at(self, rows: usize) -> usize {
        match self {
            GhostWidth::Fixed(w) => w,
            GhostWidth::Str { payload } => 4 + payload.checked_div(rows).unwrap_or(0),
        }
    }
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch of `rows` rows and no columns yet.
    pub fn with_rows(rows: usize) -> Self {
        Self { rows, ..Self::default() }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of materialised (non-ghost) columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a materialised column by qualified reference.
    pub fn column(&self, re: &ColumnRef) -> Option<&Column> {
        self.columns.iter().find(|(r, _)| r == re).map(|(_, c)| c)
    }

    /// All materialised columns' qualified references, in order.
    pub fn refs(&self) -> impl Iterator<Item = &ColumnRef> {
        self.columns.iter().map(|(r, _)| r)
    }

    /// All materialised `(ref, column)` pairs.
    pub fn entries(&self) -> &[(ColumnRef, Column)] {
        &self.columns
    }

    /// Appends a column. The first column of a batch without columns or
    /// rows sets its row count.
    ///
    /// # Panics
    /// Panics if the new column's length disagrees with the row count.
    pub fn push(&mut self, re: ColumnRef, col: Column) {
        if self.columns.is_empty() && self.rows == 0 {
            self.rows = col.len();
        }
        assert_eq!(col.len(), self.rows, "pushed column length mismatch");
        self.columns.push((re, col));
    }

    /// Appends a ghost of `data`: its width, not its values.
    pub(crate) fn push_ghost(&mut self, re: ColumnRef, data: &ColumnData) {
        self.ghosts.push((re, GhostWidth::of(data)));
    }

    /// Appends `other`'s ghosts to this batch's.
    pub(crate) fn extend_ghosts(&mut self, other: &Batch) {
        self.ghosts.extend_from_slice(&other.ghosts);
    }

    /// Materialises the rows selected by `indices` into a new batch; its
    /// ghosts carry over.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            rows: indices.len(),
            columns: self
                .columns
                .iter()
                .map(|(r, c)| (r.clone(), c.take(indices)))
                .collect(),
            ghosts: self.ghosts.clone(),
        }
    }

    /// Keeps only the listed columns (in the given order), ghosts as
    /// ghosts, and every row. Missing references are skipped.
    pub fn project(&self, refs: &[ColumnRef]) -> Batch {
        let mut out = Batch::with_rows(self.rows);
        for re in refs {
            if let Some(c) = self.column(re) {
                out.columns.push((re.clone(), c.clone()));
            } else if let Some(g) = self.ghosts.iter().find(|(r, _)| r == re) {
                out.ghosts.push(g.clone());
            }
        }
        out
    }

    /// Approximate width of one row in bytes, ghosts included.
    pub fn row_width(&self) -> usize {
        let columns: usize = self.columns.iter().map(|(_, c)| c.data.row_width()).sum();
        columns + self.ghosts.iter().map(|(_, g)| g.at(self.rows)).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StrColumnBuilder;

    fn batch() -> Batch {
        let mut b = Batch::new();
        b.push(ColumnRef::new("t", "id"), Column::non_null(ColumnData::Int(vec![1, 2, 3])));
        b.push(
            ColumnRef::new("t", "x"),
            Column::non_null(ColumnData::Float(vec![0.1, 0.2, 0.3])),
        );
        b
    }

    #[test]
    fn lookup_and_shape() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert!(b.column(&ColumnRef::new("t", "id")).is_some());
        assert!(b.column(&ColumnRef::new("u", "id")).is_none());
    }

    #[test]
    fn take_filters_rows() {
        let b = batch().take(&[2, 0]);
        assert_eq!(b.num_rows(), 2);
        let c = b.column(&ColumnRef::new("t", "id")).unwrap();
        assert_eq!(c.value(0).as_i64(), Some(3));
        assert_eq!(c.value(1).as_i64(), Some(1));
    }

    #[test]
    fn project_reorders_and_drops() {
        let b = batch().project(&[ColumnRef::new("t", "x")]);
        assert_eq!(b.num_columns(), 1);
        assert_eq!(b.refs().next().unwrap().column, "x");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_batch_rejected() {
        let mut b = Batch::with_rows(1);
        b.push(ColumnRef::new("t", "a"), Column::non_null(ColumnData::Int(vec![1])));
        b.push(ColumnRef::new("t", "b"), Column::non_null(ColumnData::Int(vec![1, 2])));
    }

    #[test]
    fn a_str_ghost_is_as_wide_as_the_column_it_replaces() {
        let mut names = StrColumnBuilder::new();
        for s in ["a", "bcd", "a", "efghij", "k", "bcd", "lmnopqrstu"] {
            names.push(s);
        }
        names.push_null();
        let names = names.finish();
        let re = ColumnRef::new("t", "name");
        let id = ColumnRef::new("t", "id");
        let ids = Column::non_null(ColumnData::Int((0..8).collect()));
        let mut full = Batch::new();
        full.push(id.clone(), ids.clone());
        full.push(re.clone(), names.clone());
        let mut ghosted = Batch::new();
        ghosted.push(id, ids);
        ghosted.push_ghost(re.clone(), &names.data);
        assert_eq!(ghosted.num_columns(), 1);
        for rows in [vec![], vec![3], vec![0, 1, 2], (0..8).collect::<Vec<_>>()] {
            let (f, g) = (full.take(&rows), ghosted.take(&rows));
            assert_eq!(g.num_rows(), rows.len());
            assert_eq!(g.row_width(), f.row_width(), "{} rows", rows.len());
            let p = g.project(std::slice::from_ref(&re));
            assert_eq!(p.row_width(), f.project(std::slice::from_ref(&re)).row_width());
        }
        // A ghost alone: only the string's share of the row.
        let mut alone = Batch::with_rows(8);
        alone.push_ghost(re, &names.data);
        assert_eq!(alone.row_width(), names.data.row_width());
    }

    #[test]
    fn a_zero_column_batch_keeps_its_row_count() {
        let mut b = Batch::with_rows(5);
        b.push_ghost(ColumnRef::new("t", "id"), &ColumnData::Int(vec![]));
        assert_eq!((b.num_rows(), b.num_columns(), b.row_width()), (5, 0, 8));
        assert_eq!(b.take(&[4, 0, 2]).num_rows(), 3);
        assert_eq!(b.take(&[4, 0, 2]).row_width(), 8);
        assert_eq!(b.project(&[]).num_rows(), 5);
        assert_eq!(b.project(&[ColumnRef::new("t", "id")]).row_width(), 8);
        assert_eq!(Batch::with_rows(5).take(&[]).num_rows(), 0);
    }
}
