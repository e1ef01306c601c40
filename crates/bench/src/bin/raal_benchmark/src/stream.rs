//! The four workloads and the request stream each one sends.
//!
//! A stream is one finite *cycle* of requests generated from the seed;
//! client `c` of `n` starts `c/n` of the way round and walks it for as
//! long as the run lasts. Nothing about the stream depends on timing, so
//! the same seed always offers the same requests in the same order
//! ([`Stream::hash`] is printed so two runs can be checked for it).

use crate::fixture::{PlanPool, SELECT_K};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparksim::{ClusterConfig, PhysicalPlan, ResourceConfig, ResourceGrid};

/// Plans in `resweep_hot`'s hot set.
pub const HOT_SET: usize = 32;
/// Requests in one `resweep_hot` cycle (each under its own resource
/// state, so a cycle holds 256 what-if states per hot plan).
pub const RESWEEP_CYCLE: usize = 8_192;
/// Decorrelates the stream's generator from the query generator, which
/// consumes the bare seed.
const STREAM_SALT: u64 = 0x5EED_57EA_4D00_0001;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProbeUnique,
    ResweepHot,
    SelectK,
    ProbeObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProbeUnique,
        Workload::ResweepHot,
        Workload::SelectK,
        Workload::ProbeObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeUnique => "probe_unique",
            Workload::ResweepHot => "resweep_hot",
            Workload::SelectK => "select_k",
            Workload::ProbeObserved => "probe_observed",
        }
    }

    /// Why the workload exists — the same sentence `BENCHMARK.json`
    /// carries (a unit test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ProbeUnique => {
                "single-plan predict, every request a different plan: the full per-request \
                 path (encode, two thread hops, whole forward pass) with nothing to reuse"
            }
            Workload::ResweepHot => {
                "32 hot plans re-scored under a fresh resource state per request (what-if \
                 sweeps): everything plan-dependent repeats, so a plan-context cache shows here"
            }
            Workload::SelectK => {
                "predict_many over a query's 5 candidate plans (plan selection): \
                 compute-dominated, hop costs weigh 1/5, so encoder and kernel work shows here"
            }
            Workload::ProbeObserved => {
                "probe_unique's exact stream with telemetry on (JSONL sink + registry): prices \
                 instrumentation; a telemetry change must move this workload and no other"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run enables the program's telemetry.
    pub fn observed(self) -> bool {
        self == Workload::ProbeObserved
    }
}

/// Picks `resweep_hot`'s hot plans: the middle plan of each of
/// [`HOT_SET`] equal slices of the pool ordered by node count (ties in
/// random order). A plain random draw of 32 plans has a mean size that
/// moves ±7% with the seed, and per-plan cost is linear in nodes — the
/// workload's latency would then depend on the seed more than on the
/// code. Taking the pool's size quantiles keeps the hot set's size
/// distribution that of the pool on every seed.
fn hot_set(pool: &PlanPool, rng: &mut StdRng) -> Vec<u32> {
    let mut by_size: Vec<u32> = (0..pool.plans.len() as u32).collect();
    by_size.shuffle(rng);
    by_size.sort_by_key(|&i| pool.plans[i as usize].len());
    let strata = HOT_SET.min(by_size.len());
    let mut hot: Vec<u32> = (0..strata)
        .map(|s| by_size[(2 * s + 1) * by_size.len() / (2 * strata)])
        .collect();
    hot.shuffle(rng);
    hot
}

/// One serving call: the plans scored together and the resource state
/// they are scored under.
pub struct Request<'a> {
    pub plans: Vec<&'a PhysicalPlan>,
    pub resources: ResourceConfig,
}

/// One cycle of requests.
pub struct Stream<'a> {
    pub requests: Vec<Request<'a>>,
}

impl<'a> Stream<'a> {
    pub fn build(
        workload: Workload,
        pool: &'a PlanPool,
        cluster: &ClusterConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ STREAM_SALT);
        let grid = ResourceGrid::default();
        let calls: Vec<Vec<u32>> = match workload {
            Workload::ProbeUnique | Workload::ProbeObserved => {
                let mut order: Vec<u32> = (0..pool.plans.len() as u32).collect();
                order.shuffle(&mut rng);
                order.into_iter().map(|i| vec![i]).collect()
            }
            Workload::ResweepHot => {
                let hot = hot_set(pool, &mut rng);
                (0..RESWEEP_CYCLE).map(|j| vec![hot[j % hot.len()]]).collect()
            }
            Workload::SelectK => {
                let mut sets: Vec<Vec<u32>> = pool
                    .candidate_sets
                    .iter()
                    .filter(|set| set.len() == SELECT_K)
                    .cloned()
                    .collect();
                sets.shuffle(&mut rng);
                sets
            }
        };
        let requests = calls
            .into_iter()
            .map(|plan_ids| Request {
                plans: plan_ids.iter().map(|&i| &pool.plans[i as usize]).collect(),
                resources: grid.sample(cluster, &mut rng),
            })
            .collect();
        Self { requests }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Where client `client` of `clients` enters the cycle.
    pub fn start_offset(&self, client: usize, clients: usize) -> usize {
        client * self.len() / clients.max(1)
    }

    /// FNV-1a over every request of the cycle: the text of each plan it
    /// scores and the bits of its resource state.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for req in &self.requests {
            for plan in &req.plans {
                eat(plan.explain().as_bytes());
            }
            let r = &req.resources;
            eat(&(r.executors as u64).to_le_bytes());
            eat(&(r.cores_per_executor as u64).to_le_bytes());
            eat(&r.memory_per_executor_gb.to_bits().to_le_bytes());
            eat(&r.network_throughput_mbps.to_bits().to_le_bytes());
            eat(&r.disk_throughput_mbps.to_bits().to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::PlanPool;
    use sparksim::catalog::Catalog;
    use sparksim::schema::{ColumnDef, TableSchema};
    use sparksim::storage::{Column, ColumnData, Table};
    use sparksim::types::DataType;
    use sparksim::Engine;

    /// A pool of 40 single-candidate "queries" plus enough 5-candidate
    /// sets (built by regrouping) to exercise `select_k`.
    fn pool() -> PlanPool {
        let mut catalog = Catalog::new();
        catalog.register(Table::new(
            TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int, false)]),
            vec![Column::non_null(ColumnData::Int((0..100).collect()))],
        ));
        let engine = Engine::new(catalog);
        let plans: Vec<_> = (0..40)
            .map(|i| {
                engine
                    .plan_candidates(&format!("SELECT COUNT(*) FROM t WHERE id < {i}"))
                    .unwrap()
                    .remove(0)
            })
            .collect();
        let mut per_query: Vec<Vec<_>> = plans.chunks(SELECT_K).map(<[_]>::to_vec).collect();
        per_query.push(vec![plans[0].clone()]);
        PlanPool::from_candidates(per_query)
    }

    /// Each request's plans as positions in the pool.
    fn ids(stream: &Stream<'_>, pool: &PlanPool) -> Vec<Vec<usize>> {
        let position = |plan: &PhysicalPlan| {
            pool.plans
                .iter()
                .position(|p| std::ptr::eq(p, plan))
                .expect("plan is in the pool")
        };
        stream
            .requests
            .iter()
            .map(|r| r.plans.iter().map(|p| position(p)).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another_stream() {
        let pool = pool();
        let cluster = ClusterConfig::default();
        for workload in Workload::ALL {
            let a = Stream::build(workload, &pool, &cluster, 7);
            let b = Stream::build(workload, &pool, &cluster, 7);
            let c = Stream::build(workload, &pool, &cluster, 8);
            assert_eq!(ids(&a, &pool), ids(&b, &pool), "{}", workload.name());
            assert_eq!(a.hash(), b.hash(), "{}", workload.name());
            assert_ne!(a.hash(), c.hash(), "{}", workload.name());
        }
    }

    #[test]
    fn observed_probe_replays_the_unique_probe_exactly() {
        let pool = pool();
        let cluster = ClusterConfig::default();
        let unique = Stream::build(Workload::ProbeUnique, &pool, &cluster, 3);
        let observed = Stream::build(Workload::ProbeObserved, &pool, &cluster, 3);
        assert_eq!(unique.hash(), observed.hash());
    }

    #[test]
    fn each_workload_has_its_shape() {
        let pool = pool();
        let cluster = ClusterConfig::default();

        let unique = Stream::build(Workload::ProbeUnique, &pool, &cluster, 1);
        let mut seen: Vec<usize> = ids(&unique, &pool).into_iter().map(|r| r[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), pool.plans.len(), "every plan exactly once per cycle");
        assert_eq!(unique.len(), pool.plans.len());

        let hot = Stream::build(Workload::ResweepHot, &pool, &cluster, 1);
        assert_eq!(hot.len(), RESWEEP_CYCLE);
        let mut hot_ids: Vec<usize> = ids(&hot, &pool).into_iter().map(|r| r[0]).collect();
        hot_ids.sort_unstable();
        hot_ids.dedup();
        assert_eq!(hot_ids.len(), HOT_SET);
        let states: std::collections::HashSet<u64> = hot
            .requests
            .iter()
            .map(|r| r.resources.network_throughput_mbps.to_bits())
            .collect();
        assert!(states.len() > RESWEEP_CYCLE / 2, "resource states must not repeat");

        let select = Stream::build(Workload::SelectK, &pool, &cluster, 1);
        assert_eq!(select.len(), 40 / SELECT_K);
        assert!(select.requests.iter().all(|r| r.plans.len() == SELECT_K));
    }

    #[test]
    fn clients_enter_the_cycle_apart() {
        let pool = pool();
        let stream = Stream::build(Workload::ProbeUnique, &pool, &ClusterConfig::default(), 1);
        assert_eq!(stream.start_offset(0, 2), 0);
        assert_eq!(stream.start_offset(1, 2), stream.len() / 2);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
