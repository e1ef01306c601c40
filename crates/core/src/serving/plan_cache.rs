//! The plan-context cache: a bounded map from a physical plan to the
//! resource-independent half of its forward pass
//! ([`PlanContext`]), shared by every client thread of one
//! [`ShardedServing`](super::shard::ShardedServing).
//!
//! The key is the plan's 64-bit
//! [`structural_hash`](PhysicalPlan::structural_hash), but a hash match
//! is only a candidate: a hit is confirmed by `PhysicalPlan ==` against
//! the plan stored with the entry, so a collision costs a miss, never a
//! wrong answer. The comparison runs outside the lock, on a cloned
//! `Arc`.
//!
//! Admission is **on second sighting**. A miss records the fingerprint
//! in a small fixed set-associative array; only a miss whose
//! fingerprint is already there asks the caller to clone the plan and
//! keep the context built for it. A stream of distinct plans therefore
//! never clones, inserts or evicts — it cannot flush the contexts
//! another tenant's sweep is reusing.
//!
//! Retained bytes (context buffers + plan key) are capped by a budget;
//! eviction is CLOCK, run by the inserting thread. A hit only sets the
//! entry's reference bit.

use super::shard::lock;
use crate::model::PlanContext;
use raal_sync::atomic::{AtomicBool, Ordering};
use raal_sync::sync::Mutex;
use sparksim::plan::physical::{PhysicalNode, PhysicalPlan};
use std::collections::{HashMap, VecDeque};
use std::mem::size_of;
use std::sync::Arc;

/// Sets in the recent-fingerprint array.
const RECENT_SETS: usize = 128;
/// Fingerprints per set — one 64-byte line. With a single way, two hot
/// plans that share a slot would overwrite each other's sighting on
/// every round and never be admitted; eight ways make that need nine
/// plans of one sweep in one set.
const RECENT_WAYS: usize = 8;

/// A resident plan with the context built for it.
pub(super) struct CachedPlan {
    fingerprint: u64,
    plan: PhysicalPlan,
    context: PlanContext,
    bytes: usize,
    /// CLOCK reference bit: set by a hit, cleared by a passing sweep.
    touched: AtomicBool,
}

impl CachedPlan {
    /// The cached context.
    pub(super) fn context(&self) -> &PlanContext {
        &self.context
    }

    /// What an entry is charged against the budget: the context's
    /// buffers, exactly, and the plan key at two node sizes per node
    /// (the arena slot plus about as much again in names, column lists
    /// and predicate trees — 315 B per node over 6463 generated plans).
    fn charge(plan: &PhysicalPlan, context: &PlanContext) -> usize {
        size_of::<CachedPlan>() + 2 * plan.len() * size_of::<PhysicalNode>() + context.heap_bytes()
    }
}

/// What [`PlanCache::lookup`] found.
pub(super) enum Lookup {
    /// The plan is resident (confirmed by equality).
    Hit(Arc<CachedPlan>),
    /// Not resident. `seen_before` is true when this fingerprint also
    /// missed recently: the caller should hand the plan over for
    /// [`PlanCache::insert`] once its context is built.
    Miss {
        /// Second (or later) recent sighting of this fingerprint.
        seen_before: bool,
    },
}

struct CacheState {
    /// Resident entries by fingerprint; a bucket holds more than one
    /// only when two different plans collide.
    by_fingerprint: HashMap<u64, Vec<Arc<CachedPlan>>>,
    /// The CLOCK ring, oldest insertion first.
    clock: VecDeque<Arc<CachedPlan>>,
    bytes: usize,
    /// Fingerprints of recent misses, `RECENT_SETS` sets of
    /// `RECENT_WAYS`, newest first within a set. Zero is "empty"; a
    /// plan that hashes to zero is merely admitted one sighting early.
    recent: Box<[[u64; RECENT_WAYS]]>,
}

impl CacheState {
    /// Records a missed fingerprint; true when it was already there.
    fn note_miss(&mut self, fingerprint: u64) -> bool {
        // PANIC-FREE: the index is a remainder by the array's length.
        let set = &mut self.recent[(fingerprint % RECENT_SETS as u64) as usize];
        if set.contains(&fingerprint) {
            return true;
        }
        set.rotate_right(1);
        // PANIC-FREE: RECENT_WAYS > 0.
        set[0] = fingerprint;
        false
    }
}

/// See the [module docs](self).
pub(super) struct PlanCache {
    state: Mutex<CacheState>,
    budget_bytes: usize,
}

impl PlanCache {
    /// An empty cache that retains at most `budget_bytes`.
    pub(super) fn new(budget_bytes: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                by_fingerprint: HashMap::new(),
                clock: VecDeque::new(),
                bytes: 0,
                recent: vec![[0; RECENT_WAYS]; RECENT_SETS].into_boxed_slice(),
            }),
            budget_bytes,
        }
    }

    /// Looks `plan` up under `fingerprint` (its
    /// [`structural_hash`](PhysicalPlan::structural_hash); an argument
    /// so tests can force collisions). Allocates nothing.
    pub(super) fn lookup(&self, fingerprint: u64, plan: &PhysicalPlan) -> Lookup {
        let mut nth = 0;
        loop {
            let candidate = {
                let mut state = lock(&self.state);
                let resident = state.by_fingerprint.get(&fingerprint).and_then(|b| b.get(nth));
                match resident {
                    // HOT-ALLOC: Arc::clone is a reference-count bump.
                    Some(entry) => entry.clone(),
                    None => {
                        let seen_before = state.note_miss(fingerprint);
                        drop(state);
                        telemetry::count("serving.plan_cache.miss", 1);
                        return Lookup::Miss { seen_before };
                    }
                }
            };
            if candidate.plan == *plan {
                // ORDERING: the reference bit is an eviction hint; no
                // data is published through it.
                candidate.touched.store(true, Ordering::Relaxed);
                telemetry::count("serving.plan_cache.hit", 1);
                return Lookup::Hit(candidate);
            }
            // A different plan under the same fingerprint: try the
            // bucket's next entry.
            nth += 1;
        }
    }

    /// Makes `plan` resident with `context`, evicting unreferenced
    /// entries (oldest first) until the budget holds again. A plan that
    /// is already resident — another caller built it concurrently — or
    /// that alone exceeds the budget is dropped instead.
    pub(super) fn insert(&self, fingerprint: u64, plan: PhysicalPlan, context: PlanContext) {
        let bytes = CachedPlan::charge(&plan, &context);
        if bytes > self.budget_bytes {
            return;
        }
        // HOT-ALLOC: insertion happens once per admitted plan, not per
        // request: the entry, its bucket and ring slots.
        let entry = Arc::new(CachedPlan {
            fingerprint,
            plan,
            context,
            bytes,
            touched: AtomicBool::new(false),
        });
        // Evicted entries are dropped after the lock is released.
        let mut evicted = Vec::new();
        let resident_bytes = {
            let mut state = lock(&self.state);
            let bucket = state.by_fingerprint.entry(fingerprint).or_default();
            if bucket.iter().any(|e| e.plan == entry.plan) {
                return;
            }
            bucket.push(entry.clone());
            state.clock.push_back(entry);
            state.bytes += bytes;
            while state.bytes > self.budget_bytes {
                let Some(victim) = state.clock.pop_front() else {
                    break;
                };
                // ORDERING: eviction hint only (see lookup).
                if victim.touched.swap(false, Ordering::Relaxed) {
                    state.clock.push_back(victim);
                    continue;
                }
                state.bytes -= victim.bytes;
                if let Some(bucket) = state.by_fingerprint.get_mut(&victim.fingerprint) {
                    bucket.retain(|e| !Arc::ptr_eq(e, &victim));
                    if bucket.is_empty() {
                        state.by_fingerprint.remove(&victim.fingerprint);
                    }
                }
                evicted.push(victim);
            }
            state.bytes
        };
        telemetry::count("serving.plan_cache.insert", 1);
        telemetry::count("serving.plan_cache.evict", evicted.len() as u64);
        telemetry::gauge("serving.plan_cache.bytes", resident_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostModel, ModelConfig};
    use encoding::plan_encoder::{EncodedPlan, PLAN_STAT_FEATURES};
    use sparksim::plan::physical::PhysicalOp;
    use std::sync::Barrier;

    /// A one-node plan, distinct per `n`.
    fn plan(n: usize) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        p.add(PhysicalOp::Limit { n }, vec![], n as f64, 8.0);
        p
    }

    fn model() -> CostModel {
        CostModel::new(ModelConfig {
            hidden: 8,
            latent_k: 4,
            head_hidden: 8,
            ..ModelConfig::raal(6)
        })
    }

    /// An exact-sized context (a clone, as the service retains it).
    fn tight_context(model: &CostModel) -> PlanContext {
        let built = model.plan_context(&EncodedPlan::from_rows(
            &vec![vec![0.5; 6]; 3],
            &[vec![], vec![0], vec![1]],
            [0.1; PLAN_STAT_FEATURES],
        ));
        built.clone()
    }

    fn entry_bytes(model: &CostModel) -> usize {
        CachedPlan::charge(&plan(0), &tight_context(model))
    }

    impl PlanCache {
        fn resident(&self) -> (usize, usize) {
            let state = lock(&self.state);
            (state.clock.len(), state.bytes)
        }

        fn is_hit(&self, fingerprint: u64, plan: &PhysicalPlan) -> bool {
            matches!(self.lookup(fingerprint, plan), Lookup::Hit(_))
        }
    }

    #[test]
    fn colliding_plans_miss_each_other_and_can_both_be_resident() {
        let model = model();
        let cache = PlanCache::new(1 << 20);
        let (a, b) = (plan(1), plan(2));
        cache.insert(7, a.clone(), tight_context(&model));
        assert!(cache.is_hit(7, &a));
        assert!(!cache.is_hit(7, &b), "a fingerprint match alone must not hit");
        cache.insert(7, b.clone(), tight_context(&model));
        assert!(cache.is_hit(7, &a) && cache.is_hit(7, &b));
        assert_eq!(cache.resident().0, 2);
    }

    #[test]
    fn ten_budgets_of_inserts_never_exceed_the_budget() {
        let model = model();
        let each = entry_bytes(&model);
        let budget = 8 * each + each / 2;
        let cache = PlanCache::new(budget);
        for n in 0..80 {
            cache.insert(n as u64, plan(n), tight_context(&model));
            let (entries, bytes) = cache.resident();
            assert!(bytes <= budget, "{bytes} > {budget} after insert {n}");
            assert_eq!(bytes, entries * each);
        }
        assert_eq!(cache.resident().0, 8);
        assert!(cache.is_hit(79, &plan(79)), "the newest entry is resident");
        assert!(!cache.is_hit(0, &plan(0)), "the oldest was evicted");
        // An entry larger than the whole budget is not kept at all.
        let tiny = PlanCache::new(each - 1);
        tiny.insert(1, plan(1), tight_context(&model));
        assert_eq!(tiny.resident(), (0, 0));
    }

    #[test]
    fn a_hit_entry_outlives_an_unreferenced_older_one() {
        let model = model();
        let each = entry_bytes(&model);
        let cache = PlanCache::new(2 * each);
        cache.insert(1, plan(1), tight_context(&model));
        cache.insert(2, plan(2), tight_context(&model));
        assert!(cache.is_hit(1, &plan(1)));
        cache.insert(3, plan(3), tight_context(&model));
        assert!(cache.is_hit(1, &plan(1)), "referenced entries get a second chance");
        assert!(!cache.is_hit(2, &plan(2)));
    }

    #[test]
    fn an_evicted_entry_stays_valid_for_the_reader_holding_it() {
        let model = model();
        let each = entry_bytes(&model);
        let cache = PlanCache::new(each);
        let res = [1.0f32, 1.0, 0.25, 0.5, 0.25, 0.9, 0.8];
        cache.insert(1, plan(1), tight_context(&model));
        let Lookup::Hit(held) = cache.lookup(1, &plan(1)) else {
            panic!("resident")
        };
        let before = model.predict_with_context(held.context(), &res);
        // `held` carries a reference bit; two inserts sweep past it.
        cache.insert(2, plan(2), tight_context(&model));
        cache.insert(3, plan(3), tight_context(&model));
        assert!(!cache.is_hit(1, &plan(1)), "evicted");
        assert_eq!(model.predict_with_context(held.context(), &res), before);
    }

    #[test]
    fn a_stream_of_distinct_plans_is_never_asked_for_and_inserts_nothing() {
        let cache = PlanCache::new(1 << 20);
        for n in 0..20 * RECENT_SETS * RECENT_WAYS {
            let p = plan(n);
            match cache.lookup(p.structural_hash(), &p) {
                Lookup::Miss { seen_before: false } => {}
                _ => panic!("distinct plan {n} was treated as a repeat"),
            }
        }
        assert_eq!(cache.resident(), (0, 0));
    }

    #[test]
    fn a_plan_seen_twice_is_resident_on_the_third_call() {
        let model = model();
        let cache = PlanCache::new(1 << 20);
        let p = plan(5);
        let fp = p.structural_hash();
        assert!(matches!(cache.lookup(fp, &p), Lookup::Miss { seen_before: false }));
        // Other traffic in between does not erase the sighting.
        for n in 100..200 {
            let other = plan(n);
            cache.lookup(other.structural_hash(), &other);
        }
        assert!(matches!(cache.lookup(fp, &p), Lookup::Miss { seen_before: true }));
        cache.insert(fp, p.clone(), tight_context(&model));
        assert!(cache.is_hit(fp, &p));
    }

    #[test]
    fn concurrent_inserts_of_one_plan_leave_one_entry() {
        let model = model();
        let each = entry_bytes(&model);
        let cache = PlanCache::new(1 << 20);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let ctx = tight_context(&model);
                    start.wait();
                    cache.insert(9, plan(9), ctx);
                });
            }
        });
        assert_eq!(cache.resident(), (1, each));
    }
    /// Schedule exploration (`--cfg raal_model_check`, DESIGN.md §14) of
    /// what client threads may do to one cache at once, now that every
    /// one of them looks up, inserts and evicts.
    #[cfg(raal_model_check)]
    mod model_check {
        use super::*;
        use raal_sync::model::{explore, Config};
        use raal_sync::thread;

        /// Two callers sight one plan twice each the way the service
        /// does — look up, insert on a repeated miss — while a third
        /// inserts two more plans into a budget of two, evicting, and
        /// this thread holds a hit taken before any of them ran. In
        /// every schedule each lookup ends as one hit or one miss,
        /// exactly one of them is the plan's first sighting, no plan is
        /// resident twice, the budget holds, and the held context
        /// prices as it did when it was inserted.
        #[test]
        fn racing_admission_and_eviction_under_a_held_hit() {
            let model = model();
            let context = tight_context(&model);
            let each = entry_bytes(&model);
            let res = [1.0f32, 1.0, 0.25, 0.5, 0.25, 0.9, 0.8];
            let want = model.predict_with_context(&context, &res);
            let cfg = Config {
                max_preemptions: 2,
                max_schedules: 200_000,
                max_steps: 10_000,
            };
            explore("plan-cache-admit-evict-hold", cfg, move || {
                let cache = Arc::new(PlanCache::new(2 * each));
                cache.insert(1, plan(1), context.clone());
                let Lookup::Hit(held) = cache.lookup(1, &plan(1)) else {
                    panic!("resident")
                };
                let sighters: Vec<_> = (0..2)
                    .map(|_| {
                        let (cache, context) = (cache.clone(), context.clone());
                        thread::spawn(move || {
                            let (shared, mut hits, mut firsts, mut repeats) = (plan(2), 0, 0, 0);
                            for _ in 0..2 {
                                match cache.lookup(2, &shared) {
                                    Lookup::Hit(_) => hits += 1,
                                    Lookup::Miss { seen_before: false } => firsts += 1,
                                    Lookup::Miss { seen_before: true } => {
                                        repeats += 1;
                                        cache.insert(2, shared.clone(), context.clone());
                                    }
                                }
                            }
                            [hits, firsts, repeats]
                        })
                    })
                    .collect();
                let evictor = {
                    let (cache, context) = (cache.clone(), context.clone());
                    thread::spawn(move || {
                        cache.insert(3, plan(3), context.clone());
                        cache.insert(4, plan(4), context);
                    })
                };
                assert_eq!(model.predict_with_context(held.context(), &res), want);
                let [hits, firsts, repeats] = sighters
                    .into_iter()
                    .map(|t| t.join().unwrap())
                    .fold([0u32; 3], |sum, seen| std::array::from_fn(|i| sum[i] + seen[i]));
                evictor.join().unwrap();
                assert_eq!(hits + firsts + repeats, 4, "one hit or one miss per lookup");
                assert_eq!(firsts, 1, "a plan is sighted for the first time once");
                {
                    let state = lock(&cache.state);
                    assert!(state.by_fingerprint.values().all(|bucket| bucket.len() == 1));
                    assert_eq!(state.by_fingerprint.len(), state.clock.len());
                    assert_eq!(state.bytes, state.clock.len() * each);
                    assert!(state.bytes <= 2 * each, "{} over budget", state.bytes);
                }
                assert_eq!(model.predict_with_context(held.context(), &res), want);
            });
        }
    }
}
