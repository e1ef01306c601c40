//! A plan's names are shared, not copied: every table and column name a
//! candidate plan holds is the catalog's allocation and every alias the
//! binder's one allocation for the query, and a planned node's heap
//! footprint is pinned.
//!
//! This binary installs a `#[global_allocator]` that keeps the live heap
//! bytes of the armed thread (what it allocated minus what it freed), so
//! no other test binary pays for it.

use sparksim::expr::Expr;
use sparksim::plan::physical::PhysicalOp;
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::schema::{ColumnRef, Name};
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

/// Live heap bytes a planned node may hold, averaged over every
/// candidate of [`QUERIES`] generated queries: the node's arena slot plus
/// its child list, column lists, predicate trees and literals. It reads
/// 297 B with shared names, and read 375 B with a `String` per name.
const HEAP_BYTES_PER_NODE: f64 = 310.0;
const QUERIES: usize = 640;

struct LiveBytes;

thread_local! {
    // const-initialized so the TLS access itself never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(delta: i64) {
    // try_with: TLS may be gone during thread teardown; those
    // allocations belong to the runtime, not the measured code.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LIVE.try_with(|n| n.set(n.get() + delta));
        }
    });
}

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the tally is a side effect only.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    // SAFETY: same deferral to `System` as `alloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Runs `f` on this thread with the tally armed; returns the heap bytes
/// it left live.
fn live_bytes<R>(f: impl FnOnce() -> R) -> (i64, R) {
    LIVE.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (LIVE.with(|n| n.get()), r)
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
                if let PhysicalOp::FileScan { binding, table, .. } = &node.op {
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
    let (live, plans) = live_bytes(|| {
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
