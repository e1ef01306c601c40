//! The operator-row cache: a node's semantic block — the mean word2vec
//! vector of its execution statement — is a function of its operator
//! alone, and a workload's operators recur, so one service keeps the
//! blocks of the operators it met last and encodes each of them once.
//!
//! Fixed size and set-associative: [`OP_CACHE_ENTRIES`] rows in sets of
//! [`WAYS`], each set ordered most recently used first (a hit rotates
//! its way to the front, a store evicts the last). The set is chosen
//! by the key every [`OpRef`] carries from the planner, so a lookup
//! never walks an operator to find it; a key match is confirmed by the
//! same allocation or, failing that, by `==`. One engine's plans hold
//! one allocation per distinct scan-free operator (`sparksim`'s
//! `OpTable`), so the pointer settles most hits; a scan, a filter or a
//! limit is one allocation per query and meets `==`. The rows are one
//! `Vec<f32>` reserved whole when the cache is built and filled in
//! order, so a cache that met few operators has touched few pages.
//!
//! A cache belongs to the [`PlanEncoder`](crate::PlanEncoder) that
//! built it ([`PlanEncoder::op_cache`](crate::PlanEncoder::op_cache)):
//! its rows are that encoder's embeddings, and an encoder refuses
//! another's cache. Client threads share one through `&self`; the
//! encoder holds its lock twice per plan — once to copy every row held,
//! once to store the rows it computed — and never while it renders,
//! tokenises or embeds.

use raal_sync::sync::{Mutex, MutexGuard};
use sparksim::plan::physical::OpRef;
use std::mem::size_of;

/// Rows one service keeps. Over `probe_unique`'s stream (the repo
/// benchmark's 12 940 distinct plans, 238 907 nodes, 8 196 distinct
/// operators) an LRU cache of 256 entries supplies 80.1% of the nodes'
/// rows, 1 024 entries 85.1%, 4 096 entries 91.8%. At the benchmark's
/// word2vec width (32) the rows are 512 KiB.
pub const OP_CACHE_ENTRIES: usize = 4096;

/// Ways per set: one 64-byte line of keys.
pub const WAYS: usize = 8;

/// Heap bytes a full cache may retain per entry for the operator it
/// holds, when it holds the last reference to it: a cache filled from
/// the candidates of 640 generated IMDB queries (1 954 distinct
/// operators) retains 460–505 B an entry on average for its operators
/// (`tests/plan_names.rs` pins the bound). So at 4 096 entries and the
/// benchmark's width a service's cache retains ≈ 2.7 MB once it has
/// outlived the plans it met, and at most 3.7 MB.
pub const OP_BYTES: usize = 768;

/// One set: keys, operators and where each way's row lies, most
/// recently used way first. Empty ways (`None`) are at the back.
#[derive(Default)]
struct Set {
    keys: [u64; WAYS],
    ops: [Option<OpRef>; WAYS],
    rows: [u32; WAYS],
}

impl Set {
    /// Moves way `way` to the front, the ways before it back by one.
    fn promote(&mut self, way: usize) {
        // Callers pass way < WAYS, the arrays' length.
        self.keys[..=way].rotate_right(1);
        self.ops[..=way].rotate_right(1);
        self.rows[..=way].rotate_right(1);
    }
}

/// What the lock guards.
pub(crate) struct Table {
    sets: Vec<Set>,
    /// Row `r` is `rows[r * width..][..width]`; rows are appended as
    /// ways first fill, so `rows.len() / width` rows are in use.
    rows: Vec<f32>,
    width: usize,
    /// Ways that hold an operator (they never empty again).
    filled: usize,
}

impl Table {
    /// The row held for `op`, its way made the most recent.
    pub(crate) fn find(&mut self, op: &OpRef) -> Option<&[f32]> {
        let key = op.key();
        let sets = self.sets.len();
        // `sets` is a power of two, so the mask is below it.
        let set = &mut self.sets[key as usize & (sets - 1)];
        // Same allocation first: plans from one engine share every
        // scan-free operator, and a query's candidates all of theirs.
        let way = (0..WAYS).find(|&way| {
            set.keys[way] == key
                && set.ops[way]
                    .as_ref()
                    .is_some_and(|held| OpRef::ptr_eq(held, op) || held == op)
        })?;
        set.promote(way);
        let at = set.rows[0] as usize * self.width;
        // A filled way's row was appended whole.
        Some(&self.rows[at..at + self.width])
    }

    /// Keeps `row` as `op`'s, in the set's least recently used way,
    /// unless `op` is held already (a thread or an earlier node of the
    /// plan stored it first).
    pub(crate) fn store(&mut self, op: &OpRef, row: &[f32]) {
        if self.find(op).is_some() {
            return;
        }
        let sets = self.sets.len();
        let set = &mut self.sets[op.key() as usize & (sets - 1)];
        set.promote(WAYS - 1);
        set.keys[0] = op.key();
        if set.ops[0].replace(op.clone()).is_none() {
            // A way's first fill takes the next unused row: every way
            // fills once, so the reserved rows suffice.
            set.rows[0] = self.filled as u32;
            self.filled += 1;
            // Within the capacity reserved for every way.
            self.rows.extend_from_slice(row);
        } else {
            let at = set.rows[0] as usize * self.width;
            self.rows[at..at + self.width].copy_from_slice(row);
        }
    }
}

/// A service's operator-row cache (see the [module docs](self)).
pub struct OpCache {
    /// The identity of the encoder that built it.
    encoder: u64,
    table: Mutex<Table>,
}

impl OpCache {
    /// An empty cache of `entries` rows of `width` floats for the
    /// encoder `encoder`.
    ///
    /// # Panics
    /// Panics unless `entries / WAYS` is a power of two.
    pub(crate) fn new(encoder: u64, width: usize, entries: usize) -> Self {
        let sets = entries / WAYS;
        assert!(sets.is_power_of_two(), "{entries} entries do not make 2^k sets of {WAYS}");
        Self {
            encoder,
            table: Mutex::new(Table {
                sets: std::iter::repeat_with(Set::default).take(sets).collect(),
                rows: Vec::with_capacity(sets * WAYS * width),
                width,
                filled: 0,
            }),
        }
    }

    /// The identity of the encoder that built it.
    pub(crate) fn built_by(&self) -> u64 {
        self.encoder
    }

    /// The table, locked; a panic under the lock leaves it consistent
    /// (each critical section copies rows and rotates ways), so a
    /// poisoned lock is taken over.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Table> {
        match self.table.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Rows it can hold.
    pub fn capacity(&self) -> usize {
        self.lock().sets.len() * WAYS
    }

    /// Rows it holds.
    pub fn len(&self) -> usize {
        self.lock().filled
    }

    /// True until a row is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most heap it retains when full: its set table and rows, and
    /// [`OP_BYTES`] for each operator it may be the last to hold.
    pub fn retained_bytes_bound(&self) -> usize {
        let table = self.lock();
        table.sets.len() * size_of::<Set>()
            + table.rows.capacity() * size_of::<f32>()
            + table.sets.len() * WAYS * OP_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word2vec::{train, W2vConfig};
    use crate::{EncoderConfig, PlanEncoder};
    use sparksim::plan::physical::{PhysicalOp, PhysicalPlan};

    fn encoder() -> PlanEncoder {
        let corpus = crate::tokenizer::plan_sentences(&limits(0..40));
        let w2v = train(&corpus, &W2vConfig { dim: 8, epochs: 2 });
        PlanEncoder::new(w2v, EncoderConfig { max_nodes: 16, structure: true })
    }

    /// A chain of `CollectLimit n` nodes, one per `n`.
    fn limits(ns: impl IntoIterator<Item = usize>) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        for (i, n) in ns.into_iter().enumerate() {
            p.add(PhysicalOp::Limit { n }, if i == 0 { vec![] } else { vec![i - 1] }, 10.0, 80.0);
        }
        p
    }

    fn bits(plan: &crate::EncodedPlan) -> Vec<u32> {
        plan.node_features().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn op_cache_equal_operators_of_two_plannings_share_one_entry() {
        let enc = encoder();
        let cache = enc.op_cache();
        // Two separately built plans: `==` operators, other allocations.
        let (a, b) = (limits([3, 5, 3]), limits([5, 3]));
        assert!(!OpRef::ptr_eq(&a.node(1).op, &b.node(0).op));
        let (first, reused) = enc.try_encode_in(&a, Some(&cache)).unwrap();
        assert_eq!((reused, cache.len()), (0, 2), "two distinct operators");
        assert_eq!(bits(&first), bits(&enc.encode(&a)));
        let (second, reused) = enc.try_encode_in(&b, Some(&cache)).unwrap();
        assert_eq!((reused, cache.len()), (2, 2));
        assert_eq!(bits(&second), bits(&enc.encode(&b)));
    }

    #[test]
    fn op_cache_a_full_set_evicts_its_least_recent_way() {
        let enc = encoder();
        let cache = enc.op_cache_with_entries(WAYS);
        assert_eq!(cache.capacity(), WAYS);
        let plan = limits(0..WAYS);
        enc.try_encode_in(&plan, Some(&cache)).unwrap();
        // `0` is the least recent way until a hit moves it up.
        assert_eq!(enc.try_encode_in(&limits([0]), Some(&cache)).unwrap().1, 1);
        enc.try_encode_in(&limits([WAYS]), Some(&cache)).unwrap();
        assert_eq!(cache.len(), WAYS);
        for (n, held) in [(0, 1), (1, 0), (WAYS, 1), (2, 0), (7, 1)] {
            let (encoded, reused) = enc.try_encode_in(&limits([n]), Some(&cache)).unwrap();
            assert_eq!(reused, held, "CollectLimit {n}");
            assert_eq!(bits(&encoded), bits(&enc.encode(&limits([n]))));
        }
    }

    #[test]
    fn op_cache_a_key_match_is_not_a_match() {
        let enc = encoder();
        let cache = enc.op_cache_with_entries(WAYS);
        let plan = limits([1]);
        let op = &plan.node(0).op;
        let squatter = limits([2]).node(0).op.clone();
        {
            // Another operator under `op`'s key, in every way.
            let mut table = cache.lock();
            let set = &mut table.sets[0];
            set.keys = [op.key(); WAYS];
            set.ops = std::array::from_fn(|_| Some(squatter.clone()));
            let width = table.width;
            table.rows.resize(width, 9.0);
            table.filled = WAYS;
        }
        let (encoded, reused) = enc.try_encode_in(&plan, Some(&cache)).unwrap();
        assert_eq!((bits(&encoded), reused), (bits(&enc.encode(&plan)), 0));
    }

    #[test]
    fn op_cache_threads_sharing_one_cache_get_the_rows_alone_gives() {
        let enc = encoder();
        let cache = enc.op_cache_with_entries(2 * WAYS);
        let plans: Vec<PhysicalPlan> = (0..24).map(|i| limits([i % 11, i % 7, 3])).collect();
        let alone: Vec<Vec<u32>> = plans.iter().map(|p| bits(&enc.encode(p))).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (enc, cache, plans, alone) = (&enc, &cache, &plans, &alone);
                s.spawn(move || {
                    for round in 0..20 {
                        let i = (round * 5 + t * 3) % plans.len();
                        let (encoded, _) = enc.try_encode_in(&plans[i], Some(cache)).unwrap();
                        assert_eq!(bits(&encoded), alone[i], "thread {t}, plan {i}");
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    #[should_panic(expected = "another encoder's OpCache")]
    fn op_cache_from_another_encoder_is_refused() {
        let (enc, other) = (encoder(), encoder());
        let foreign = other.op_cache();
        let _ = enc.try_encode_in(&limits([1]), Some(&foreign));
    }

    #[test]
    fn op_cache_an_encoders_clone_encodes_the_same_rows_and_shares_its_caches() {
        let enc = encoder();
        let cache = enc.op_cache();
        let plan = limits([4, 9]);
        enc.try_encode_in(&plan, Some(&cache)).unwrap();
        let twin = enc.clone();
        let (encoded, reused) = twin.try_encode_in(&plan, Some(&cache)).unwrap();
        assert_eq!((bits(&encoded), reused), (bits(&enc.encode(&plan)), 2));
    }
}
