//! Join implementations: hash join (backs both broadcast-hash and
//! shuffled-hash) and merge join (backs sort-merge). Both are inner
//! equi-joins — the only join shape the paper's workloads (JOB / TPC-H
//! count queries) produce — and both drop NULL keys per SQL semantics.

use super::{exec_err, ExecError, KeyValue};
use crate::batch::Batch;
use crate::schema::ColumnRef;
use crate::storage::Column;
use std::collections::HashMap;

/// Inner hash join: builds on `build` (right), probes with `probe` (left).
/// Output columns: all probe columns followed by all build columns.
/// Fails once the output would exceed `max_rows` (guards against runaway
/// fan-out on skewed keys).
pub fn hash_join(
    probe: &Batch,
    build: &Batch,
    probe_key: &ColumnRef,
    build_key: &ColumnRef,
    max_rows: usize,
) -> Result<Batch, ExecError> {
    let probe_col = probe.column(probe_key).ok_or_else(|| missing(probe_key, "probe"))?;
    let build_col = build.column(build_key).ok_or_else(|| missing(build_key, "build"))?;

    let mut table: HashMap<KeyValue, Vec<usize>> = HashMap::with_capacity(build.num_rows());
    for i in 0..build.num_rows() {
        if !build_col.is_valid(i) {
            continue;
        }
        table.entry(KeyValue::at(build_col, i)).or_default().push(i);
    }

    let mut probe_idx = Vec::new();
    let mut build_idx = Vec::new();
    for i in 0..probe.num_rows() {
        if !probe_col.is_valid(i) {
            continue;
        }
        if let Some(matches) = table.get(&KeyValue::at(probe_col, i)) {
            if probe_idx.len() + matches.len() > max_rows {
                return exec_err(format!("join output exceeds the {max_rows}-row limit"));
            }
            for &j in matches {
                probe_idx.push(i);
                build_idx.push(j);
            }
        }
    }
    Ok(stitch(probe, build, &probe_idx, &build_idx))
}

/// Inner merge join over inputs already sorted ascending by their keys
/// (NULLs last, as produced by [`super::sort_batch`]).
pub fn merge_join(
    left: &Batch,
    right: &Batch,
    left_key: &ColumnRef,
    right_key: &ColumnRef,
    max_rows: usize,
) -> Result<Batch, ExecError> {
    let lcol = left.column(left_key).ok_or_else(|| missing(left_key, "left"))?;
    let rcol = right.column(right_key).ok_or_else(|| missing(right_key, "right"))?;

    let mut li = 0usize;
    let mut ri = 0usize;
    let (ln, rn) = (left.num_rows(), right.num_rows());
    let mut left_idx = Vec::new();
    let mut right_idx = Vec::new();

    while li < ln && ri < rn {
        // NULL keys sort last and never match: once reached, we're done.
        if !lcol.is_valid(li) || !rcol.is_valid(ri) {
            break;
        }
        let lv = lcol.value(li);
        let rv = rcol.value(ri);
        match lv.sql_cmp(&rv) {
            Some(std::cmp::Ordering::Less) => li += 1,
            Some(std::cmp::Ordering::Greater) => ri += 1,
            Some(std::cmp::Ordering::Equal) => {
                // Find both runs of equal keys and emit their product.
                let l_end = run_end(|i| lcol.is_valid(i) && lcol.value(i) == lv, li, ln);
                let r_end = run_end(|i| rcol.is_valid(i) && rcol.value(i) == rv, ri, rn);
                if left_idx.len() + (l_end - li) * (r_end - ri) > max_rows {
                    return exec_err(format!("join output exceeds the {max_rows}-row limit"));
                }
                for a in li..l_end {
                    for b in ri..r_end {
                        left_idx.push(a);
                        right_idx.push(b);
                    }
                }
                li = l_end;
                ri = r_end;
            }
            None => return exec_err("incomparable join keys (type mismatch)"),
        }
    }
    Ok(stitch(left, right, &left_idx, &right_idx))
}

fn run_end(matches: impl Fn(usize) -> bool, start: usize, n: usize) -> usize {
    let mut end = start + 1;
    while end < n && matches(end) {
        end += 1;
    }
    end
}

fn stitch(left: &Batch, right: &Batch, left_idx: &[usize], right_idx: &[usize]) -> Batch {
    // Each output column is materialised once, straight into the result.
    let take = |side: &Batch, idx: &[usize]| -> Vec<(ColumnRef, Column)> {
        side.entries().iter().map(|(r, c)| (r.clone(), c.take(idx))).collect()
    };
    let mut columns = take(left, left_idx);
    columns.extend(take(right, right_idx));
    Batch::from_columns(columns)
}

fn missing(key: &ColumnRef, side: &str) -> ExecError {
    ExecError {
        message: format!("{side} side is missing join key column {key}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sort_batch;
    use crate::storage::ColumnData;

    fn batch(table: &str, ids: Vec<i64>, payload: Vec<i64>) -> Batch {
        let mut b = Batch::new();
        b.push(ColumnRef::new(table, "id"), Column::non_null(ColumnData::Int(ids)));
        b.push(ColumnRef::new(table, "v"), Column::non_null(ColumnData::Int(payload)));
        b
    }

    /// `stitch` as it was when a join's rows were copied twice: every
    /// column `take` produced, cloned into a batch grown by `push`.
    fn stitch_by_cloning(l: &Batch, r: &Batch, l_idx: &[usize], r_idx: &[usize]) -> Batch {
        let mut out = Batch::new();
        for side in [l.take(l_idx), r.take(r_idx)] {
            for (re, col) in side.entries() {
                out.push(re.clone(), col.clone());
            }
        }
        out
    }

    fn assert_same_columns(got: &Batch, want: &Batch) {
        assert_eq!(got.refs().collect::<Vec<_>>(), want.refs().collect::<Vec<_>>());
        for ((_, g), (_, w)) in got.entries().iter().zip(want.entries()) {
            assert_eq!(g.len(), w.len());
            for i in 0..w.len() {
                assert_eq!((g.is_valid(i), g.value(i)), (w.is_valid(i), w.value(i)));
            }
        }
    }

    #[test]
    fn stitch_equals_the_cloning_reference() {
        let mut l = batch("l", vec![5, 1, 3, 3, 9], vec![0, 1, 2, 3, 4]);
        l.push(
            ColumnRef::new("l", "s"),
            Column {
                data: ColumnData::Float(vec![0.5, 1.5, 2.5, 3.5, 4.5]),
                validity: Some(vec![true, false, true, true, false]),
            },
        );
        let r = batch("r", vec![3, 3, 5, 7], vec![30, 31, 50, 70]);
        let none = batch("r", vec![], vec![]);
        let (lk, rk) = (ColumnRef::new("l", "id"), ColumnRef::new("r", "id"));
        let (ls, rs) =
            (sort_batch(&l, &[(lk.clone(), true)]), sort_batch(&r, &[(rk.clone(), true)]));

        // Hash join: probe rows in order, matches in build order.
        let (l_idx, r_idx) = ([0, 2, 2, 3, 3], [2, 0, 1, 0, 1]);
        assert_same_columns(
            &stitch(&l, &r, &l_idx, &r_idx),
            &stitch_by_cloning(&l, &r, &l_idx, &r_idx),
        );
        assert_same_columns(
            &hash_join(&l, &r, &lk, &rk, usize::MAX).unwrap(),
            &stitch_by_cloning(&l, &r, &l_idx, &r_idx),
        );
        // Merge join over the sorted sides: ids [1, 3, 3, 5, 9] x [3, 3, 5, 7].
        assert_same_columns(
            &merge_join(&ls, &rs, &lk, &rk, usize::MAX).unwrap(),
            &stitch_by_cloning(&ls, &rs, &[1, 1, 2, 2, 3], &[0, 1, 0, 1, 2]),
        );
        // An empty side keeps every column and no row.
        let want = stitch_by_cloning(&l, &none, &[], &[]);
        assert_eq!((want.num_columns(), want.num_rows()), (5, 0));
        assert_same_columns(&hash_join(&l, &none, &lk, &rk, usize::MAX).unwrap(), &want);
        assert_same_columns(&merge_join(&ls, &none, &lk, &rk, usize::MAX).unwrap(), &want);
        assert_same_columns(
            &hash_join(&none, &l, &rk, &lk, usize::MAX).unwrap(),
            &stitch_by_cloning(&none, &l, &[], &[]),
        );
    }

    #[test]
    fn hash_join_matches_pairs() {
        let probe = batch("l", vec![1, 2, 3, 2], vec![10, 20, 30, 21]);
        let build = batch("r", vec![2, 4], vec![200, 400]);
        let out = hash_join(
            &probe,
            &build,
            &ColumnRef::new("l", "id"),
            &ColumnRef::new("r", "id"),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        let lv = out.column(&ColumnRef::new("l", "v")).unwrap();
        assert_eq!(lv.value(0).as_i64(), Some(20));
        assert_eq!(lv.value(1).as_i64(), Some(21));
    }

    #[test]
    fn hash_join_handles_duplicates_on_both_sides() {
        let probe = batch("l", vec![1, 1], vec![10, 11]);
        let build = batch("r", vec![1, 1, 1], vec![100, 101, 102]);
        let out = hash_join(
            &probe,
            &build,
            &ColumnRef::new("l", "id"),
            &ColumnRef::new("r", "id"),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 6, "2 x 3 cross product of matches");
    }

    #[test]
    fn null_keys_never_match() {
        let mut probe = Batch::new();
        probe.push(
            ColumnRef::new("l", "id"),
            Column {
                data: ColumnData::Int(vec![1, 0]),
                validity: Some(vec![true, false]),
            },
        );
        let mut build = Batch::new();
        build.push(
            ColumnRef::new("r", "id"),
            Column {
                data: ColumnData::Int(vec![1, 0]),
                validity: Some(vec![true, false]),
            },
        );
        let out = hash_join(
            &probe,
            &build,
            &ColumnRef::new("l", "id"),
            &ColumnRef::new("r", "id"),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1, "only the 1=1 match; NULL != NULL");
    }

    #[test]
    fn merge_join_equals_hash_join() {
        let l = batch("l", vec![5, 1, 3, 3, 9], vec![0, 1, 2, 3, 4]);
        let r = batch("r", vec![3, 3, 5, 7], vec![30, 31, 50, 70]);
        let lk = ColumnRef::new("l", "id");
        let rk = ColumnRef::new("r", "id");
        let hj = hash_join(&l, &r, &lk, &rk, usize::MAX).unwrap();
        let ls = sort_batch(&l, &[(lk.clone(), true)]);
        let rs = sort_batch(&r, &[(rk.clone(), true)]);
        let mj = merge_join(&ls, &rs, &lk, &rk, usize::MAX).unwrap();
        assert_eq!(hj.num_rows(), mj.num_rows());
        assert_eq!(mj.num_rows(), 5, "3x2 + 5x1 matches");
    }

    #[test]
    fn merge_join_empty_sides() {
        let l = batch("l", vec![], vec![]);
        let r = batch("r", vec![1], vec![10]);
        let lk = ColumnRef::new("l", "id");
        let rk = ColumnRef::new("r", "id");
        assert_eq!(merge_join(&l, &r, &lk, &rk, usize::MAX).unwrap().num_rows(), 0);
        assert_eq!(merge_join(&r, &l, &rk, &lk, usize::MAX).unwrap().num_rows(), 0);
    }

    #[test]
    fn row_limit_aborts_fanout() {
        let l = batch("l", vec![1; 100], (0..100).collect());
        let r = batch("r", vec![1; 100], (0..100).collect());
        let lk = ColumnRef::new("l", "id");
        let rk = ColumnRef::new("r", "id");
        let err = hash_join(&l, &r, &lk, &rk, 5000).unwrap_err();
        assert!(err.message.contains("row limit"), "{}", err.message);
        let ls = crate::exec::sort_batch(&l, &[(lk.clone(), true)]);
        let rs = crate::exec::sort_batch(&r, &[(rk.clone(), true)]);
        let err = merge_join(&ls, &rs, &lk, &rk, 5000).unwrap_err();
        assert!(err.message.contains("row limit"), "{}", err.message);
    }

    #[test]
    fn missing_key_column_is_error() {
        let l = batch("l", vec![1], vec![10]);
        let r = batch("r", vec![1], vec![10]);
        let res =
            hash_join(&l, &r, &ColumnRef::new("l", "nope"), &ColumnRef::new("r", "id"), usize::MAX);
        assert!(res.is_err());
    }
}
