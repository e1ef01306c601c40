//! Table and column statistics: row counts, NDV, min/max and equi-depth
//! histograms. These feed the cardinality estimator (as in Catalyst's
//! cost-based optimizer) and the GPSJ baseline cost model.

use crate::storage::{Column, ColumnData, Table};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Equi-depth histogram over a numeric column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket boundaries, ascending; `bounds.len() == buckets + 1`.
    bounds: Vec<f64>,
    /// Rows per bucket (equal by construction, up to rounding).
    depth: f64,
}

impl Histogram {
    /// Builds an equi-depth histogram from (non-NULL) values.
    /// Returns `None` when there are no values.
    pub fn build(mut values: Vec<f64>, buckets: usize) -> Option<Self> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        // total_cmp: NaNs (if any slip through) sort high instead of
        // panicking the planner.
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        bounds.push(values[0]);
        for b in 1..buckets {
            bounds.push(values[b * n / buckets]);
        }
        bounds.push(values[n - 1]);
        Some(Self { bounds, depth: n as f64 / buckets as f64 })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Estimated fraction of rows with value `< x` (of non-NULL rows).
    pub fn selectivity_lt(&self, x: f64) -> f64 {
        let lo = self.bounds[0];
        let hi = self.bounds[self.bounds.len() - 1];
        if x <= lo {
            return 0.0;
        }
        if x > hi {
            return 1.0;
        }
        let total = self.depth * self.buckets() as f64;
        let mut acc = 0.0;
        for w in self.bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if x >= b {
                acc += self.depth;
            } else if x > a {
                // Linear interpolation inside the bucket.
                let frac = if b > a { (x - a) / (b - a) } else { 0.5 };
                acc += self.depth * frac;
                break;
            } else {
                break;
            }
        }
        (acc / total).clamp(0.0, 1.0)
    }

    /// Smallest and largest values seen.
    pub fn min_max(&self) -> (f64, f64) {
        (self.bounds[0], self.bounds[self.bounds.len() - 1])
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Number of NULL rows.
    pub null_count: u64,
    /// Number of distinct non-NULL values.
    pub ndv: u64,
    /// Minimum (numeric columns only).
    pub min: Option<f64>,
    /// Maximum (numeric columns only).
    pub max: Option<f64>,
    /// Equi-depth histogram (numeric columns only).
    pub histogram: Option<Histogram>,
    /// Average row width in bytes.
    pub avg_width: f64,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Total rows.
    pub row_count: u64,
    /// Per-column stats keyed by unqualified column name.
    pub columns: HashMap<String, ColumnStats>,
    /// Approximate total bytes.
    pub total_bytes: u64,
}

impl TableStats {
    /// Stats for a column, when known.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

/// Number of histogram buckets used by [`compute_table_stats`].
pub const DEFAULT_HISTOGRAM_BUCKETS: usize = 64;

/// Computes full statistics for a table (exact NDV — tables here are
/// in-memory and modest, so sketches are unnecessary).
pub fn compute_table_stats(table: &Table) -> TableStats {
    let mut columns = HashMap::with_capacity(table.schema.width());
    for (def, col) in table.schema.columns.iter().zip(&table.columns) {
        columns.insert(def.name.to_string(), compute_column_stats(col));
    }
    TableStats {
        row_count: table.num_rows() as u64,
        columns,
        total_bytes: table.approx_bytes() as u64,
    }
}

fn compute_column_stats(col: &Column) -> ColumnStats {
    let null_count = col.null_count() as u64;
    match &col.data {
        ColumnData::Int(v) => {
            let vals: Vec<f64> = (0..v.len())
                .filter(|&i| col.is_valid(i))
                .map(|i| v[i] as f64)
                .collect();
            numeric_stats(vals, null_count, 8.0)
        }
        ColumnData::Float(v) => {
            let vals: Vec<f64> = (0..v.len()).filter(|&i| col.is_valid(i)).map(|i| v[i]).collect();
            numeric_stats(vals, null_count, 8.0)
        }
        ColumnData::Str { codes, .. } => {
            let distinct: HashSet<u32> = (0..codes.len())
                .filter(|&i| col.is_valid(i))
                .map(|i| codes[i])
                .collect();
            ColumnStats {
                null_count,
                ndv: distinct.len() as u64,
                min: None,
                max: None,
                histogram: None,
                // Dictionary payload share is already amortised into row_width.
                avg_width: col.data.row_width() as f64,
            }
        }
    }
}

fn numeric_stats(vals: Vec<f64>, null_count: u64, width: f64) -> ColumnStats {
    let ndv = {
        let mut s: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        s.sort_unstable();
        s.dedup();
        s.len() as u64
    };
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let histogram = Histogram::build(vals, DEFAULT_HISTOGRAM_BUCKETS);
    ColumnStats {
        null_count,
        ndv,
        min: histogram.as_ref().map(|_| min),
        max: histogram.as_ref().map(|_| max),
        histogram,
        avg_width: width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::types::DataType;

    #[test]
    fn histogram_uniform_data_is_linear() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(vals, 32).unwrap();
        // P(X < 500) ~ 0.5 on uniform data.
        assert!((h.selectivity_lt(500.0) - 0.5).abs() < 0.05);
        assert!((h.selectivity_lt(250.0) - 0.25).abs() < 0.05);
        assert_eq!(h.selectivity_lt(-1.0), 0.0);
        assert_eq!(h.selectivity_lt(10_000.0), 1.0);
    }

    #[test]
    fn histogram_skewed_data_tracks_mass() {
        // 90% of the mass at 0..10, 10% spread to 1000.
        let mut vals: Vec<f64> = (0..900).map(|i| (i % 10) as f64).collect();
        vals.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        let h = Histogram::build(vals, 32).unwrap();
        let s = h.selectivity_lt(10.0);
        assert!(s > 0.8, "skewed mass captured, got {s}");
    }

    #[test]
    fn empty_histogram_is_none() {
        assert!(Histogram::build(vec![], 32).is_none());
        assert!(Histogram::build(vec![1.0], 0).is_none());
    }

    #[test]
    fn table_stats_counts_and_ndv() {
        use crate::storage::{Column, ColumnData, StrColumnBuilder};
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("s", DataType::Str, true),
            ],
        );
        let mut sb = StrColumnBuilder::new();
        sb.push("a");
        sb.push("b");
        sb.push("a");
        sb.push_null();
        let t = Table::new(
            schema,
            vec![Column::non_null(ColumnData::Int(vec![1, 2, 2, 3])), sb.finish()],
        );
        let stats = compute_table_stats(&t);
        assert_eq!(stats.row_count, 4);
        let id = stats.column("id").unwrap();
        assert_eq!(id.ndv, 3);
        assert_eq!(id.min, Some(1.0));
        assert_eq!(id.max, Some(3.0));
        let s = stats.column("s").unwrap();
        assert_eq!(s.ndv, 2);
        assert_eq!(s.null_count, 1);
        assert!(s.histogram.is_none());
    }
}
