//! A plan's names and operators are shared, not copied: every table and
//! column name a candidate plan holds is the catalog's allocation, every
//! alias the binder's one allocation for the query, and every operator
//! one allocation per distinct operator of the query's candidates, which
//! carries the key its walk gives; a planned node's size, its heap
//! footprint, its node array and what a cloned plan or a full
//! operator-row cache allocates and retains are pinned.
//!
//! This binary installs a `#[global_allocator]` that keeps the live heap
//! bytes of the armed thread (what it allocated minus what it freed) and
//! its allocation count, so no other test binary pays for it.

use encoding::{EncoderConfig, PlanEncoder, W2vConfig};
use raal::serving::plan_key_charge;
use sparksim::expr::Expr;
use sparksim::plan::physical::{NodeId, OpRef, PhysicalNode, PhysicalOp, WordHasher};
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::schema::{ColumnRef, Name};
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

/// Live heap bytes a planned node may hold, averaged over every
/// candidate of [`QUERIES`] generated queries: the node's arena slot
/// (its child list is inline) and its share of the query's operators
/// with their column lists, predicate trees and literals and the key each
/// carries. It reads 97.5 B (95 B before operators carried their key)
/// with inline child lists and exact-size node arrays, and read 128 B
/// with a `Vec` per child list, 297 B with an operator per node as well
/// (375 B with a `String` per name on top).
const HEAP_BYTES_PER_NODE: f64 = 110.0;
const QUERIES: usize = 640;

struct LiveBytes;

thread_local! {
    // const-initialized so the TLS access itself never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `delta` bytes and `allocs` allocations (a `realloc` counts) to
/// the armed thread's tally.
fn tally(delta: i64, allocs: u64) {
    // try_with: TLS may be gone during thread teardown; those
    // allocations belong to the runtime, not the measured code.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LIVE.try_with(|n| n.set(n.get() + delta));
            let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
        }
    });
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the tally is a side effect only.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same deferral to `System` as `alloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// What an armed closure did to this thread's heap.
struct Heap {
    /// Bytes it left live (negative: it freed more than it allocated).
    live: i64,
    /// Allocations and reallocations it made.
    allocs: u64,
}

/// Runs `f` on this thread with the tally armed.
fn measure<R>(f: impl FnOnce() -> R) -> (Heap, R) {
    LIVE.with(|n| n.set(0));
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (
        Heap {
            live: LIVE.with(|n| n.get()),
            allocs: ALLOCS.with(|n| n.get()),
        },
        r,
    )
}

fn engine_and_queries() -> (Engine, Vec<String>) {
    let data = generate(&ImdbConfig { title_rows: 400, seed: 11 });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let queries = generate_queries(&data.graph, &QueryGenConfig::default(), QUERIES, &mut rng);
    assert!(queries.len() >= 600, "only {} queries", queries.len());
    (engine, queries)
}

/// Every column reference an operator holds.
fn column_refs(op: &PhysicalOp) -> Vec<&ColumnRef> {
    match op {
        PhysicalOp::FileScan { output, pushed_filter, .. } => output
            .iter()
            .chain(pushed_filter.iter().flat_map(Expr::referenced_columns))
            .collect(),
        PhysicalOp::Filter { predicate } => predicate.referenced_columns(),
        PhysicalOp::Project { columns: keys } | PhysicalOp::ExchangeHash { keys, .. } => {
            keys.iter().collect()
        }
        PhysicalOp::Sort { keys } => keys.iter().map(|(c, _)| c).collect(),
        PhysicalOp::SortMergeJoin { left_key, right_key }
        | PhysicalOp::ShuffledHashJoin { left_key, right_key }
        | PhysicalOp::BroadcastHashJoin { probe_key: left_key, build_key: right_key } => {
            vec![left_key, right_key]
        }
        PhysicalOp::HashAggregate { group_by, aggs, .. } => group_by
            .iter()
            .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
            .collect(),
        PhysicalOp::ExchangeSingle | PhysicalOp::BroadcastExchange | PhysicalOp::Limit { .. } => {
            vec![]
        }
    }
}

#[test]
fn every_name_in_a_candidate_is_the_catalogs_or_the_querys_one_allocation() {
    let (engine, queries) = engine_and_queries();
    let catalog = engine.catalog();
    let (mut refs, mut scans) = (0usize, 0usize);
    for sql in &queries[..200] {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let schema = |table: &Name| &catalog.table(table).expect("a bound table").schema;
        for b in &spec.bindings {
            assert!(Name::ptr_eq(&b.table, &schema(&b.table).name), "{sql}: binding {}", b.name);
        }
        let bound = |alias: &Name| {
            spec.bindings
                .iter()
                .find(|b| b.name == *alias)
                .unwrap_or_else(|| panic!("{sql}: no binding {alias}"))
        };
        for plan in Planner::new(catalog, engine.planner_options().clone()).enumerate(&spec) {
            for node in plan.nodes() {
                if let PhysicalOp::FileScan { binding, table, .. } = &*node.op {
                    let b = bound(binding);
                    assert!(Name::ptr_eq(binding, &b.name), "{sql}: scan of {binding}");
                    assert!(Name::ptr_eq(table, &b.table), "{sql}: scan of {table}");
                    scans += 1;
                }
                for c in column_refs(&node.op) {
                    let b = bound(&c.table);
                    assert!(Name::ptr_eq(&c.table, &b.name), "{sql}: {c} copies its alias");
                    let def = schema(&b.table).column(&c.column).expect("a catalog column");
                    assert!(Name::ptr_eq(&c.column, &def.name), "{sql}: {c} copies its column");
                    refs += 1;
                }
            }
        }
    }
    assert!(
        scans >= 1000 && refs >= 5000,
        "{scans} scans and {refs} column references checked"
    );
}

#[test]
fn a_planned_node_holds_a_bounded_heap_footprint() {
    let (engine, queries) = engine_and_queries();
    let opts = engine.planner_options().clone();
    let (Heap { live, .. }, plans) = measure(|| {
        queries
            .iter()
            .map(|sql| {
                let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                Planner::new(engine.catalog(), opts.clone()).enumerate(&spec)
            })
            .collect::<Vec<_>>()
    });
    let nodes: usize = plans.iter().flatten().map(PhysicalPlan::len).sum();
    let per_node = live as f64 / nodes as f64;
    println!("{nodes} nodes hold {live} heap bytes: {per_node:.1} B a node");
    assert!(
        per_node <= HEAP_BYTES_PER_NODE,
        "{per_node:.1} heap bytes a node over {nodes} nodes (bound {HEAP_BYTES_PER_NODE})"
    );
}

/// Any two `==` operators among one query's candidates are one
/// allocation: `Planner::enumerate` interns what it adds.
#[test]
fn a_querys_candidates_share_every_equal_operator() {
    let (engine, queries) = engine_and_queries();
    let (mut nodes, mut shared) = (0usize, 0usize);
    for sql in &queries[..200] {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let plans =
            Planner::new(engine.catalog(), engine.planner_options().clone()).enumerate(&spec);
        let ops: Vec<&OpRef> = plans.iter().flat_map(|p| p.nodes()).map(|n| &n.op).collect();
        for (i, &a) in ops.iter().enumerate() {
            // `OpRef`'s `==` is the operator's: no pointer shortcut.
            if let Some(&b) = ops[..i].iter().find(|&&b| b == a) {
                assert!(OpRef::ptr_eq(a, b), "{sql}: {} is held twice", a.name());
                shared += 1;
            }
            nodes += 1;
        }
    }
    println!("{shared} of {nodes} nodes hold an operator an earlier node holds");
    assert!(shared * 2 > nodes, "only {shared} of {nodes} nodes share an operator");
}

/// [`plan_key_charge`] bounds what a resident plan key retains when it
/// holds the last reference to its operators: each candidate cloned, and
/// every plan it shared them with dropped.
#[test]
fn a_cloned_plan_holding_its_operators_alone_retains_at_most_its_charge() {
    let (engine, queries) = engine_and_queries();
    let opts = engine.planner_options().clone();
    let (mut retained, mut nodes) = (0i64, 0usize);
    for sql in &queries {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let enumerate = || Planner::new(engine.catalog(), opts.clone()).enumerate(&spec);
        for i in 0..enumerate().len() {
            let (Heap { live, .. }, key) = measure(|| enumerate()[i].clone());
            let charge = plan_key_charge(key.len());
            assert!(
                live <= charge as i64,
                "{sql}: {live} B retained, {charge} charged\n{}",
                key.explain()
            );
            (retained, nodes) = (retained + live, nodes + key.len());
        }
    }
    println!("{nodes} nodes retain {:.1} B a node alone", retained as f64 / nodes as f64);
}

/// `Planner::enumerate` returns each candidate with no spare node
/// capacity, and a clone of one is one allocation: its node array (the
/// operators are shared, the child lists inline).
#[test]
fn a_candidate_holds_exactly_its_nodes_and_clones_in_one_allocation() {
    let (engine, queries) = engine_and_queries();
    let node = size_of::<PhysicalNode>() as i64;
    let mut nodes = 0usize;
    for sql in &queries {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let plans =
            Planner::new(engine.catalog(), engine.planner_options().clone()).enumerate(&spec);
        // Held here, so dropping a plan frees its node array alone.
        let _ops: Vec<OpRef> = plans.iter().flat_map(|p| p.nodes()).map(|n| n.op.clone()).collect();
        for plan in plans {
            let bytes = plan.len() as i64 * node;
            let (cloned, copy) = measure(|| plan.clone());
            assert_eq!(
                (cloned.allocs, cloned.live),
                (1, bytes),
                "{sql}: cloning\n{}",
                copy.explain()
            );
            let (dropped, ()) = measure(|| drop(plan));
            assert_eq!(dropped.live, -bytes, "{sql}: spare capacity\n{}", copy.explain());
            nodes += copy.len();
        }
    }
    assert!(nodes >= 40_000, "only {nodes} nodes checked");
}

/// A candidate's `structural_hash` (the plan-context cache's key) reads
/// as it did when child lists were `Vec<NodeId>`.
#[test]
fn hashes_read_as_with_vec_child_lists() {
    let (engine, queries) = engine_and_queries();
    let mut plans = 0usize;
    for sql in &queries[..200] {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        for plan in
            Planner::new(engine.catalog(), engine.planner_options().clone()).enumerate(&spec)
        {
            let mut hash = WordHasher::default();
            hash.write_usize(plan.len());
            for node in plan.nodes() {
                let children: Vec<NodeId> = node.children.to_vec();
                node.op.hash(&mut hash);
                children.hash(&mut hash);
                hash.write_u64(node.est_rows.to_bits());
                hash.write_u64(node.est_bytes.to_bits());
            }
            assert_eq!(plan.structural_hash(), hash.finish(), "{sql}\n{}", plan.explain());
            plans += 1;
        }
    }
    assert!(plans >= 600, "only {plans} candidates checked");
}

#[test]
fn a_node_is_an_operator_pointer_a_child_list_and_two_estimates() {
    assert!(size_of::<PhysicalNode>() <= 40, "{} B", size_of::<PhysicalNode>());
}

/// Every operator carries the key a fresh walk of it gives, and a cloned
/// plan's operators carry the same keys.
#[test]
fn every_operator_carries_the_key_its_walk_gives() {
    let (engine, queries) = engine_and_queries();
    let (mut plans, mut nodes) = (0usize, 0usize);
    for sql in &queries[..200] {
        let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        for plan in
            Planner::new(engine.catalog(), engine.planner_options().clone()).enumerate(&spec)
        {
            let copy = plan.clone();
            for (node, cloned) in plan.nodes().iter().zip(copy.nodes()) {
                let walk = OpRef::key_of(&node.op);
                assert_eq!((node.op.key(), cloned.op.key()), (walk, walk), "{sql}: {:?}", node.op);
                nodes += 1;
            }
            plans += 1;
        }
    }
    assert!(
        plans >= 500 && nodes >= 10_000,
        "only {plans} candidates, {nodes} nodes checked"
    );
}

/// [`OpCache::retained_bytes_bound`] bounds what a full operator-row
/// cache retains: its set table, its rows, and the operators it holds
/// the last reference to — every plan it encoded dropped.
///
/// [`OpCache::retained_bytes_bound`]: encoding::OpCache::retained_bytes_bound
#[test]
fn a_full_operator_row_cache_retains_at_most_its_bound() {
    let (engine, queries) = engine_and_queries();
    let opts = engine.planner_options().clone();
    let plan_all = || {
        queries
            .iter()
            .flat_map(|sql| {
                let spec = engine.spec(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                Planner::new(engine.catalog(), opts.clone()).enumerate(&spec)
            })
            .collect::<Vec<_>>()
    };
    let corpus: Vec<Vec<String>> = plan_all()
        .iter()
        .flat_map(encoding::tokenizer::plan_sentences)
        .collect();
    let w2v = encoding::train_word2vec(&corpus, &W2vConfig { dim: 32, epochs: 1 });
    let encoder = PlanEncoder::new(w2v, EncoderConfig::default());
    // The queries' candidates hold about two thousand distinct operators:
    // an eighth-size cache fills every set, and evicts.
    let (Heap { live, .. }, cache) = measure(|| {
        let cache = encoder.op_cache_with_entries(512);
        for plan in plan_all() {
            encoder.try_encode_in(&plan, Some(&cache)).expect("a planned tree");
        }
        cache
    });
    let (held, bound) = (cache.len(), cache.retained_bytes_bound());
    println!(
        "{held} rows retain {live} B ({:.0} B a row), bound {bound}",
        live as f64 / held as f64
    );
    assert_eq!(held, cache.capacity(), "the cache did not fill");
    assert!(live <= bound as i64, "{live} B retained, {bound} bound");
}
