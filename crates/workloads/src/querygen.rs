//! Template-free query generation over a declared foreign-key graph,
//! producing the paper's two workload types: numeric-predicate queries and
//! complex string-predicate queries, with 0–5 joins (Sec. V-A).

use rand::Rng;

/// A foreign-key edge `table.column → ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fk {
    /// Referencing column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (typically the primary key).
    pub ref_column: String,
}

/// A numeric column predicates may be generated on.
#[derive(Debug, Clone)]
pub struct NumericPredCol {
    /// Column name.
    pub column: String,
    /// Smallest value in the data.
    pub min: i64,
    /// Largest value in the data.
    pub max: i64,
}

/// A string column predicates may be generated on.
#[derive(Debug, Clone)]
pub struct StringPredCol {
    /// Column name.
    pub column: String,
    /// Representative values (sampled for `=` and LIKE-prefix predicates).
    pub values: Vec<String>,
}

/// Generator-facing description of one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name in the catalog.
    pub name: String,
    /// Preferred short alias (`t`, `mc`, …).
    pub alias: String,
    /// Outgoing foreign keys.
    pub fks: Vec<Fk>,
    /// Numeric predicate columns.
    pub numeric_preds: Vec<NumericPredCol>,
    /// String predicate columns.
    pub string_preds: Vec<StringPredCol>,
    /// Low-cardinality numeric columns suitable for GROUP BY.
    pub group_cols: Vec<String>,
}

/// The FK graph of a schema.
#[derive(Debug, Clone, Default)]
pub struct FkGraph {
    /// Tables, generator order.
    pub tables: Vec<TableMeta>,
}

/// Query-generation knobs.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Maximum joins per query (the paper uses 0–5).
    pub max_joins: usize,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self { max_joins: 5 }
    }
}

/// Inclusive range for the number of filter predicates.
const MIN_PREDICATES: usize = 1;
/// Upper bound (inclusive) on predicates.
const MAX_PREDICATES: usize = 4;
/// Probability a generated predicate is a string predicate (the paper's
/// second workload type).
const STRING_PREDICATE_PROB: f64 = 0.3;
/// Probability of extra aggregates (SUM/MIN/MAX/AVG) beyond COUNT(*).
const EXTRA_AGGREGATE_PROB: f64 = 0.2;
/// Probability of a GROUP BY query.
const GROUP_BY_PROB: f64 = 0.1;

/// Generates `n` SQL queries over the FK graph.
pub fn generate_queries(
    graph: &FkGraph,
    cfg: &QueryGenConfig,
    n: usize,
    rng: &mut impl Rng,
) -> Vec<String> {
    (0..n).map(|_| generate_query(graph, cfg, rng)).collect()
}

/// Generates a single SQL query.
pub fn generate_query(graph: &FkGraph, cfg: &QueryGenConfig, rng: &mut impl Rng) -> String {
    let num_joins = rng.gen_range(0..=cfg.max_joins);
    let tables = pick_join_tables(graph, num_joins, rng);

    // FROM clause with aliases.
    let from: Vec<String> = tables
        .iter()
        .map(|&ti| {
            let t = &graph.tables[ti];
            format!("{} {}", t.name, t.alias)
        })
        .collect();

    // Join conditions along the FK edges connecting consecutive picks.
    let mut conditions = Vec::new();
    for (pos, &ti) in tables.iter().enumerate().skip(1) {
        let edge = find_edge(graph, &tables[..pos], ti)
            .expect("pick_join_tables only adds connected tables");
        conditions.push(edge);
    }

    // Multi-join queries get a mandatory selective range predicate per
    // table (when one is available): star joins over skewed foreign keys
    // fan out combinatorially otherwise, which neither JOB nor TPC-H
    // queries do — they are always selective.
    if tables.len() >= 3 {
        for &ti in &tables {
            let t = &graph.tables[ti];
            if let Some(np) = t.numeric_preds.first() {
                let span = (np.max - np.min).max(1);
                let width = ((span as f64 * rng.gen_range(0.05..0.25)) as i64).max(1);
                let lo = np.min + rng.gen_range(0..=(span - width).max(1));
                conditions.push(format!(
                    "{}.{} BETWEEN {lo} AND {}",
                    t.alias,
                    np.column,
                    lo + width
                ));
            }
        }
    }

    // Filter predicates.
    let num_preds = rng.gen_range(MIN_PREDICATES..=MAX_PREDICATES);
    for _ in 0..num_preds {
        let &ti = &tables[rng.gen_range(0..tables.len())];
        let t = &graph.tables[ti];
        let use_string = !t.string_preds.is_empty()
            && (t.numeric_preds.is_empty() || rng.gen::<f64>() < STRING_PREDICATE_PROB);
        if use_string {
            let sp = &t.string_preds[rng.gen_range(0..t.string_preds.len())];
            if sp.values.is_empty() {
                continue;
            }
            let v = &sp.values[rng.gen_range(0..sp.values.len())];
            let pred = match rng.gen_range(0..3) {
                0 => format!("{}.{} = '{}'", t.alias, sp.column, v),
                1 => {
                    let cut = (v.len() / 2).max(1).min(v.len());
                    format!("{}.{} LIKE '{}%'", t.alias, sp.column, &v[..cut])
                }
                _ => format!("{}.{} IS NOT NULL", t.alias, sp.column),
            };
            conditions.push(pred);
        } else if !t.numeric_preds.is_empty() {
            let np = &t.numeric_preds[rng.gen_range(0..t.numeric_preds.len())];
            let span = (np.max - np.min).max(1);
            let v = np.min + rng.gen_range(0..=span);
            let pred = match rng.gen_range(0..5) {
                0 => format!("{}.{} < {v}", t.alias, np.column),
                1 => format!("{}.{} > {v}", t.alias, np.column),
                2 => format!("{}.{} <= {v}", t.alias, np.column),
                3 => format!("{}.{} = {v}", t.alias, np.column),
                _ => {
                    let hi = (v + span / 4).min(np.max);
                    format!("{}.{} BETWEEN {v} AND {hi}", t.alias, np.column)
                }
            };
            conditions.push(pred);
        }
    }

    // Select list: COUNT(*) always, occasionally more.
    let mut select = vec!["COUNT(*)".to_string()];
    if rng.gen::<f64>() < EXTRA_AGGREGATE_PROB {
        let &ti = &tables[rng.gen_range(0..tables.len())];
        let t = &graph.tables[ti];
        if let Some(np) = t.numeric_preds.first() {
            let func = ["SUM", "MIN", "MAX", "AVG"][rng.gen_range(0..4)];
            select.push(format!("{func}({}.{})", t.alias, np.column));
        }
    }
    let mut group_by = String::new();
    if rng.gen::<f64>() < GROUP_BY_PROB {
        let &ti = &tables[rng.gen_range(0..tables.len())];
        let t = &graph.tables[ti];
        if let Some(g) = t.group_cols.first() {
            let col = format!("{}.{}", t.alias, g);
            select.insert(0, col.clone());
            group_by = format!(" GROUP BY {col}");
        }
    }

    let where_clause = if conditions.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conditions.join(" AND "))
    };
    format!(
        "SELECT {} FROM {}{}{}",
        select.join(", "),
        from.join(", "),
        where_clause,
        group_by
    )
}

/// Random-walks the FK graph, returning `num_joins + 1` distinct,
/// join-connected table indices. Falls back to fewer tables when the walk
/// cannot be extended.
fn pick_join_tables(graph: &FkGraph, num_joins: usize, rng: &mut impl Rng) -> Vec<usize> {
    let start = rng.gen_range(0..graph.tables.len());
    let mut picked = vec![start];
    while picked.len() < num_joins + 1 {
        let mut candidates = Vec::new();
        for (ci, cand) in graph.tables.iter().enumerate() {
            if picked.contains(&ci) {
                continue;
            }
            let connected = picked.iter().any(|&pi| {
                let p = &graph.tables[pi];
                p.fks.iter().any(|fk| fk.ref_table == cand.name)
                    || cand.fks.iter().any(|fk| fk.ref_table == p.name)
            });
            if connected {
                candidates.push(ci);
            }
        }
        if candidates.is_empty() {
            break;
        }
        picked.push(candidates[rng.gen_range(0..candidates.len())]);
    }
    picked
}

/// Builds the equi-join condition connecting `new` to one of `included`.
fn find_edge(graph: &FkGraph, included: &[usize], new: usize) -> Option<String> {
    let n = &graph.tables[new];
    for &pi in included {
        let p = &graph.tables[pi];
        for fk in &p.fks {
            if fk.ref_table == n.name {
                return Some(format!("{}.{} = {}.{}", p.alias, fk.column, n.alias, fk.ref_column));
            }
        }
        for fk in &n.fks {
            if fk.ref_table == p.name {
                return Some(format!("{}.{} = {}.{}", n.alias, fk.column, p.alias, fk.ref_column));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_graph() -> FkGraph {
        FkGraph {
            tables: vec![
                TableMeta {
                    name: "a".into(),
                    alias: "a".into(),
                    fks: vec![],
                    numeric_preds: vec![NumericPredCol { column: "x".into(), min: 0, max: 100 }],
                    string_preds: vec![StringPredCol {
                        column: "s".into(),
                        values: vec!["hello".into(), "world".into()],
                    }],
                    group_cols: vec!["x".into()],
                },
                TableMeta {
                    name: "b".into(),
                    alias: "b".into(),
                    fks: vec![Fk {
                        column: "a_id".into(),
                        ref_table: "a".into(),
                        ref_column: "id".into(),
                    }],
                    numeric_preds: vec![NumericPredCol { column: "y".into(), min: 0, max: 50 }],
                    string_preds: vec![],
                    group_cols: vec![],
                },
            ],
        }
    }

    #[test]
    fn queries_are_well_formed_sql() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let queries = generate_queries(&g, &QueryGenConfig::default(), 50, &mut rng);
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert!(q.starts_with("SELECT "), "{q}");
            assert!(q.contains(" FROM "), "{q}");
            // Every query must parse with the sparksim SQL front end.
            sparksim::sql::parser::parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn join_queries_carry_join_conditions() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = QueryGenConfig { max_joins: 1 };
        let queries = generate_queries(&g, &cfg, 100, &mut rng);
        let joined: Vec<&String> = queries
            .iter()
            .filter(|q| {
                let from = q.split(" FROM ").nth(1).unwrap();
                from.split(" WHERE ").next().unwrap().contains(',')
            })
            .collect();
        assert!(!joined.is_empty());
        for q in joined {
            assert!(q.contains("b.a_id = a.id") || q.contains("a.id = b.a_id"), "{q}");
        }
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let g = tiny_graph();
        let a = generate_queries(&g, &QueryGenConfig::default(), 10, &mut StdRng::seed_from_u64(7));
        let b = generate_queries(&g, &QueryGenConfig::default(), 10, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn join_count_respects_cap() {
        let g = tiny_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = QueryGenConfig { max_joins: 0 };
        for q in generate_queries(&g, &cfg, 30, &mut rng) {
            let from = q.split(" FROM ").nth(1).unwrap();
            let from = from.split(" WHERE ").next().unwrap();
            assert!(!from.contains(','), "no joins expected: {q}");
        }
    }
}
