//! Join implementations: hash join (backs both broadcast-hash and
//! shuffled-hash) and merge join (backs sort-merge). Both are inner
//! equi-joins — the only join shape the paper's workloads (JOB / TPC-H
//! count queries) produce — and both drop NULL keys per SQL semantics.
//!
//! A join gathers only the output columns its [`Reads`] name; when it
//! names none of either side's, the join counts its matches and builds
//! no index vectors at all.

use super::{exec_err, ExecError, KeyValue, Reads};
use crate::batch::Batch;
use crate::schema::ColumnRef;
use std::collections::HashMap;
use std::ops::Range;

/// Inner hash join: builds on `build` (right), probes with `probe` (left).
/// Output columns: all probe columns followed by all build columns, of
/// which those `reads` names are materialised. Fails once the output
/// would exceed `max_rows` (guards against runaway fan-out on skewed
/// keys).
pub fn hash_join(
    probe: &Batch,
    build: &Batch,
    probe_key: &ColumnRef,
    build_key: &ColumnRef,
    reads: &Reads,
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

    let mut matches = Matches::new(probe, build, reads);
    for i in 0..probe.num_rows() {
        if !probe_col.is_valid(i) {
            continue;
        }
        if let Some(rows) = table.get(&KeyValue::at(probe_col, i)) {
            matches.add(i..i + 1, rows.iter().copied(), max_rows)?;
        }
    }
    Ok(matches.stitch(probe, build, reads))
}

/// Inner merge join over inputs already sorted ascending by their keys
/// (NULLs last, as produced by [`super::sort_batch`]).
pub fn merge_join(
    left: &Batch,
    right: &Batch,
    left_key: &ColumnRef,
    right_key: &ColumnRef,
    reads: &Reads,
    max_rows: usize,
) -> Result<Batch, ExecError> {
    let lcol = left.column(left_key).ok_or_else(|| missing(left_key, "left"))?;
    let rcol = right.column(right_key).ok_or_else(|| missing(right_key, "right"))?;

    let mut li = 0usize;
    let mut ri = 0usize;
    let (ln, rn) = (left.num_rows(), right.num_rows());
    let mut matches = Matches::new(left, right, reads);

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
                matches.add(li..l_end, ri..r_end, max_rows)?;
                li = l_end;
                ri = r_end;
            }
            None => return exec_err("incomparable join keys (type mismatch)"),
        }
    }
    Ok(matches.stitch(left, right, reads))
}

fn run_end(matches: impl Fn(usize) -> bool, start: usize, n: usize) -> usize {
    let mut end = start + 1;
    while end < n && matches(end) {
        end += 1;
    }
    end
}

/// A join's matching row pairs: their left and right row indices when
/// some input column is read above the join, their count when none is.
enum Matches {
    Count(usize),
    Pairs(Vec<usize>, Vec<usize>),
}

impl Matches {
    fn new(left: &Batch, right: &Batch, reads: &Reads) -> Matches {
        if left.refs().chain(right.refs()).any(|re| reads.contains(re)) {
            Matches::Pairs(Vec::new(), Vec::new())
        } else {
            Matches::Count(0)
        }
    }

    fn len(&self) -> usize {
        match self {
            Matches::Count(n) => *n,
            Matches::Pairs(left, _) => left.len(),
        }
    }

    /// Adds every pair of `left` × `right`, or fails if the output would
    /// then exceed `max_rows`.
    fn add(
        &mut self,
        left: Range<usize>,
        right: impl ExactSizeIterator<Item = usize> + Clone,
        max_rows: usize,
    ) -> Result<(), ExecError> {
        let product = left.len() * right.len();
        if self.len() + product > max_rows {
            return exec_err(format!("join output exceeds the {max_rows}-row limit"));
        }
        match self {
            Matches::Count(n) => *n += product,
            Matches::Pairs(left_idx, right_idx) => {
                for a in left {
                    for b in right.clone() {
                        left_idx.push(a);
                        right_idx.push(b);
                    }
                }
            }
        }
        Ok(())
    }

    /// The join's output: every column of `left` then of `right`, the
    /// ones `reads` names gathered, the rest ghosts.
    fn stitch(&self, left: &Batch, right: &Batch, reads: &Reads) -> Batch {
        let indices = match self {
            Matches::Count(_) => [None, None],
            Matches::Pairs(l, r) => [Some(l.as_slice()), Some(r.as_slice())],
        };
        let mut out = Batch::with_rows(self.len());
        for (side, idx) in [left, right].into_iter().zip(indices) {
            for (re, col) in side.entries() {
                match idx.filter(|_| reads.contains(re)) {
                    // Each read column is materialised once, straight
                    // into the result.
                    Some(idx) => out.push(re.clone(), col.take(idx)),
                    None => out.push_ghost(re.clone(), &col.data),
                }
            }
            out.extend_ghosts(side);
        }
        out
    }
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
    use crate::storage::{Column, ColumnData, StrColumnBuilder};

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
            &Matches::Pairs(l_idx.to_vec(), r_idx.to_vec()).stitch(&l, &r, &Reads::All),
            &stitch_by_cloning(&l, &r, &l_idx, &r_idx),
        );
        assert_same_columns(
            &hash_join(&l, &r, &lk, &rk, &Reads::All, usize::MAX).unwrap(),
            &stitch_by_cloning(&l, &r, &l_idx, &r_idx),
        );
        // Merge join over the sorted sides: ids [1, 3, 3, 5, 9] x [3, 3, 5, 7].
        assert_same_columns(
            &merge_join(&ls, &rs, &lk, &rk, &Reads::All, usize::MAX).unwrap(),
            &stitch_by_cloning(&ls, &rs, &[1, 1, 2, 2, 3], &[0, 1, 0, 1, 2]),
        );
        // An empty side keeps every column and no row.
        let want = stitch_by_cloning(&l, &none, &[], &[]);
        assert_eq!((want.num_columns(), want.num_rows()), (5, 0));
        assert_same_columns(
            &hash_join(&l, &none, &lk, &rk, &Reads::All, usize::MAX).unwrap(),
            &want,
        );
        assert_same_columns(
            &merge_join(&ls, &none, &lk, &rk, &Reads::All, usize::MAX).unwrap(),
            &want,
        );
        assert_same_columns(
            &hash_join(&none, &l, &rk, &lk, &Reads::All, usize::MAX).unwrap(),
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
            &Reads::All,
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
            &Reads::All,
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
            &Reads::All,
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
        let hj = hash_join(&l, &r, &lk, &rk, &Reads::All, usize::MAX).unwrap();
        let ls = sort_batch(&l, &[(lk.clone(), true)]);
        let rs = sort_batch(&r, &[(rk.clone(), true)]);
        let mj = merge_join(&ls, &rs, &lk, &rk, &Reads::All, usize::MAX).unwrap();
        assert_eq!(hj.num_rows(), mj.num_rows());
        assert_eq!(mj.num_rows(), 5, "3x2 + 5x1 matches");
    }

    #[test]
    fn merge_join_empty_sides() {
        let l = batch("l", vec![], vec![]);
        let r = batch("r", vec![1], vec![10]);
        let lk = ColumnRef::new("l", "id");
        let rk = ColumnRef::new("r", "id");
        assert_eq!(
            merge_join(&l, &r, &lk, &rk, &Reads::All, usize::MAX)
                .unwrap()
                .num_rows(),
            0
        );
        assert_eq!(
            merge_join(&r, &l, &rk, &lk, &Reads::All, usize::MAX)
                .unwrap()
                .num_rows(),
            0
        );
    }

    /// The limit holds at the same threshold whether the join gathers
    /// its rows or only counts them.
    #[test]
    fn row_limit_aborts_fanout() {
        let l = batch("l", vec![1; 100], (0..100).collect());
        let r = batch("r", vec![1; 100], (0..100).collect());
        let lk = ColumnRef::new("l", "id");
        let rk = ColumnRef::new("r", "id");
        let ls = crate::exec::sort_batch(&l, &[(lk.clone(), true)]);
        let rs = crate::exec::sort_batch(&r, &[(rk.clone(), true)]);
        for reads in [Reads::All, Reads::Only(vec![])] {
            let err = hash_join(&l, &r, &lk, &rk, &reads, 9_999).unwrap_err();
            assert!(err.message.contains("row limit"), "{}", err.message);
            let err = merge_join(&ls, &rs, &lk, &rk, &reads, 9_999).unwrap_err();
            assert!(err.message.contains("row limit"), "{}", err.message);
            // At the limit exactly, both join every match.
            assert_eq!(hash_join(&l, &r, &lk, &rk, &reads, 10_000).unwrap().num_rows(), 10_000);
            assert_eq!(merge_join(&ls, &rs, &lk, &rk, &reads, 10_000).unwrap().num_rows(), 10_000);
        }
    }

    #[test]
    fn missing_key_column_is_error() {
        let l = batch("l", vec![1], vec![10]);
        let r = batch("r", vec![1], vec![10]);
        let res = hash_join(
            &l,
            &r,
            &ColumnRef::new("l", "nope"),
            &ColumnRef::new("r", "id"),
            &Reads::All,
            usize::MAX,
        );
        assert!(res.is_err());
    }

    /// Ids with a NULL and duplicates on both sides, and a string
    /// payload on the left.
    fn nullable_sides() -> (Batch, Batch) {
        let side = |table: &str, ids: Vec<i64>| {
            let n = ids.len();
            let mut b = Batch::new();
            let validity = Some((0..n).map(|i| i + 1 < n).collect());
            b.push(ColumnRef::new(table, "id"), Column { data: ColumnData::Int(ids), validity });
            b.push(ColumnRef::new(table, "v"), Column::non_null(ColumnData::Int(vec![7; n])));
            b
        };
        let mut l = side("l", vec![5, 1, 3, 3, 9, 0]);
        let mut names = StrColumnBuilder::new();
        for s in ["ab", "cdefgh", "i", "jk", "lmnopq"] {
            names.push(s);
        }
        names.push_null();
        l.push(ColumnRef::new("l", "s"), names.finish());
        (l, side("r", vec![3, 3, 5, 7, 0]))
    }

    /// Counting and partly materialising joins against the full one:
    /// the same rows and row width, and a read column's same values.
    #[test]
    fn a_count_only_join_equals_the_materialising_join_in_rows_and_width() {
        let (l, r) = nullable_sides();
        let (lk, rk) = (ColumnRef::new("l", "id"), ColumnRef::new("r", "id"));
        let none_l = l.take(&[]);
        let none_r = r.take(&[]);
        let nothing = Reads::Only(vec![]);
        let payload = Reads::Only(vec![ColumnRef::new("l", "s")]);
        let sorted = |b: &Batch, k: &ColumnRef| sort_batch(b, &[(k.clone(), true)]);
        for (left, right) in [(&l, &r), (&none_l, &r), (&l, &none_r), (&none_l, &none_r)] {
            let hash = |reads: &Reads| hash_join(left, right, &lk, &rk, reads, usize::MAX);
            let (ls, rs) = (sorted(left, &lk), sorted(right, &rk));
            let merge = |reads: &Reads| merge_join(&ls, &rs, &lk, &rk, reads, usize::MAX);
            for join in [&hash as &dyn Fn(&Reads) -> Result<Batch, ExecError>, &merge] {
                let full = join(&Reads::All).unwrap();
                for reads in [&nothing, &payload] {
                    let lean = join(reads).unwrap();
                    assert_eq!(lean.num_rows(), full.num_rows());
                    assert_eq!(lean.row_width(), full.row_width(), "{reads:?}");
                }
                assert_eq!(join(&nothing).unwrap().num_columns(), 0);
                let lean = join(&payload).unwrap();
                assert_eq!(lean.num_columns(), 1);
                assert_same_columns(&lean, &full.project(&[ColumnRef::new("l", "s")]));
            }
        }
        // 3 x 2 + 5 x 1 matches; NULL never matches NULL.
        let rows = hash_join(&l, &r, &lk, &rk, &nothing, usize::MAX).unwrap().num_rows();
        assert_eq!(rows, 5);
    }
}
