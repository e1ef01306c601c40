//! A plan's names and operators are shared, not copied: every table and
//! column name a candidate plan holds is the catalog's allocation, every
//! alias the binder's one allocation for the query, and every operator
//! one allocation per distinct operator of the query's candidates; a
//! planned node's size, its heap footprint and what a cloned plan
//! retains are pinned.
//!
//! This binary installs a `#[global_allocator]` that keeps the live heap
//! bytes of the armed thread (what it allocated minus what it freed), so
//! no other test binary pays for it.

use raal::serving::plan_key_charge;
use sparksim::expr::Expr;
use sparksim::plan::physical::{PhysicalNode, PhysicalOp};
use sparksim::plan::planner::{Planner, PlannerOptions};
use sparksim::schema::{ColumnRef, Name};
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;
use workloads::imdb::{generate, ImdbConfig};
use workloads::querygen::{generate_queries, QueryGenConfig};

/// Live heap bytes a planned node may hold, averaged over every
/// candidate of [`QUERIES`] generated queries: the node's arena slot and
/// child list, and its share of the query's operators with their column
/// lists, predicate trees and literals. It reads 128 B with operators
/// shared across a query's candidates, and read 297 B with an operator
/// per node (375 B with a `String` per name as well).
const HEAP_BYTES_PER_NODE: f64 = 150.0;
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
        let ops: Vec<&Arc<PhysicalOp>> =
            plans.iter().flat_map(|p| p.nodes()).map(|n| &n.op).collect();
        for (i, &a) in ops.iter().enumerate() {
            // `Arc`'s `==` is the operator's: no pointer shortcut.
            if let Some(&b) = ops[..i].iter().find(|&&b| b == a) {
                assert!(Arc::ptr_eq(a, b), "{sql}: {} is held twice", a.name());
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
            let (live, key) = live_bytes(|| enumerate()[i].clone());
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

#[test]
fn a_node_is_an_operator_pointer_a_child_list_and_two_estimates() {
    assert!(size_of::<PhysicalNode>() <= 48, "{} B", size_of::<PhysicalNode>());
}
