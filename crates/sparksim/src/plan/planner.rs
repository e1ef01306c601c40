//! Physical plan enumeration.
//!
//! Mirrors Catalyst's behaviour as described in the paper (Sec. II-A /
//! Sec. III): the optimized logical plan develops *multiple* physical
//! plans — differing in join order, join strategy (sort-merge vs.
//! broadcast-hash vs. shuffled-hash) and filter placement — from which a
//! cost model must pick one. `Planner::enumerate` returns the candidate
//! set; the deep cost model ranks it.
//!
//! The rule that keeps enumeration at the price of what it returns:
//! everything that depends only on (spec, binding) is derived once per
//! `enumerate` (the `Scan` table); a candidate is built only if it can
//! still be returned, and kept only if no earlier one has the same
//! operators under the same child lists. Candidates share their
//! operators: each call interns every operator it adds (the `Ops`
//! table), and every *scan-free* operator — all but a `FileScan`,
//! `Filter` or `Limit`, the only ones that carry a literal or a query's
//! own column set — once more through the [`OpTable`] the planner
//! borrows from its engine, so every plan one engine builds holds one
//! allocation per distinct exchange, sort, join and aggregate. A
//! returned candidate's node array holds no spare capacity.

use crate::catalog::Catalog;
use crate::expr::{CmpOp, Expr};
use crate::plan::cardinality::{estimate_join_rows, estimate_scan_rows, DEFAULT_SELECTIVITY};
use crate::plan::physical::{AggMode, NodeId, OpRef, PhysicalOp, PhysicalPlan, WordHasher};
use crate::plan::spec::{Binding, QuerySpec};
use crate::schema::ColumnRef;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Join strategy choice for one join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Shuffle both sides, sort, merge.
    SortMerge,
    /// Broadcast the build side to all executors.
    BroadcastHash,
    /// Shuffle both sides, hash the build side.
    ShuffledHash,
}

/// Planner tunables (the Spark-configuration analogues).
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// `spark.sql.shuffle.partitions`.
    pub shuffle_partitions: usize,
    /// `spark.sql.autoBroadcastJoinThreshold`, in (simulated) bytes.
    pub broadcast_threshold_bytes: f64,
    /// Maximum number of candidate plans to return per query.
    pub max_plans: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            shuffle_partitions: 32,
            broadcast_threshold_bytes: 10.0 * 1024.0 * 1024.0,
            max_plans: 5,
        }
    }
}

impl PlannerOptions {
    /// Options whose broadcast threshold is expressed at the *deployed*
    /// data scale: when the catalog holds a `data_scale`-times scaled-down
    /// copy of the dataset, Catalyst's 10 MB threshold must shrink by the
    /// same factor to make equivalent decisions.
    pub fn scaled_to(data_scale: f64) -> Self {
        let default = Self::default();
        Self {
            broadcast_threshold_bytes: default.broadcast_threshold_bytes / data_scale.max(1.0),
            ..default
        }
    }
}

/// Enumerates candidate physical plans for resolved queries.
#[derive(Debug)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
    opts: PlannerOptions,
    /// The engine's operator table ([`Self::with_table`]); `None` for a
    /// planner built alone, which interns through `own` instead.
    engine_ops: Option<&'a OpTable>,
    own: OpTable,
}

impl<'a> Planner<'a> {
    /// Creates a planner over a catalog, with an operator table of its
    /// own.
    pub fn new(catalog: &'a Catalog, opts: PlannerOptions) -> Self {
        Self {
            catalog,
            opts,
            engine_ops: None,
            own: OpTable::default(),
        }
    }

    /// Creates a planner over a catalog that interns its scan-free
    /// operators through `table` (an [`Engine`](crate::Engine)'s).
    pub fn with_table(catalog: &'a Catalog, opts: PlannerOptions, table: &'a OpTable) -> Self {
        Self {
            engine_ops: Some(table),
            ..Self::new(catalog, opts)
        }
    }

    /// Enumerates up to `max_plans` distinct physical plans, default first.
    pub fn enumerate(&self, spec: &QuerySpec) -> Vec<PhysicalPlan> {
        let scans: Vec<Scan> = spec.bindings.iter().map(|b| self.scan(spec, b)).collect();
        let mut plans = Vec::new();
        let mut ops = Ops::default();
        let table = self.engine_ops.unwrap_or(&self.own);
        // A candidate is built only while one more can be returned, and kept
        // unless an earlier one has the same operators and child lists.
        let mut offer = |plans: &mut Vec<PhysicalPlan>,
                         build: &dyn Fn(&mut Build<'_>) -> Option<()>| {
            if plans.len() >= self.opts.max_plans {
                return;
            }
            let mut draft = Build { ops: &mut ops, table, plan: PhysicalPlan::new() };
            if build(&mut draft).is_none() {
                return;
            }
            let mut plan = draft.plan;
            if !plans.iter().any(|kept| same_structure(kept, &plan)) {
                plan.shrink_to_fit();
                plans.push(plan);
            }
        };

        if spec.bindings.len() == 1 {
            // Single-table: the two Catalyst variants differ in where the
            // filter conditions sit (pushed into the scan vs. a separate
            // Filter), as observed in the paper's Sec. III.
            offer(&mut plans, &|plan| {
                self.build_single_table(plan, spec, &scans, true);
                Some(())
            });
            offer(&mut plans, &|plan| {
                self.build_single_table(plan, spec, &scans, false);
                Some(())
            });
            return plans;
        }

        // Plan 0 — the Catalyst rule-based default: syntactic FROM order
        // and size-based join strategies computed from *unfiltered* table
        // sizes (Spark decides broadcasts from file sizes, not filtered
        // cardinalities, without CBO). This is the plan the paper's
        // "default cost model" runs and the learned model must beat.
        if let Some(syntactic) = self.syntactic_order(spec) {
            let strats = self.rule_based_strategies(spec, &syntactic);
            offer(&mut plans, &|plan| {
                self.build_join_plan(plan, spec, &scans, &syntactic, &strats)
            });
        }

        let num_joins = spec.num_joins();
        for (oi, order) in self.join_orders(spec, &scans).iter().enumerate() {
            let default_strats = self.default_strategies(&scans, order);
            offer(&mut plans, &|plan| {
                self.build_join_plan(plan, spec, &scans, order, &default_strats)
            });
            // Strategy variants: flip each join's strategy, first joins first;
            // for the primary order also try the all-flipped combination.
            for j in 0..num_joins {
                let mut variant = default_strats.clone();
                variant[j] = flip(variant[j]);
                offer(&mut plans, &|plan| {
                    self.build_join_plan(plan, spec, &scans, order, &variant)
                });
            }
            if oi == 0 && num_joins >= 2 {
                let flipped: Vec<_> = default_strats.iter().map(|&s| flip(s)).collect();
                offer(&mut plans, &|plan| {
                    self.build_join_plan(plan, spec, &scans, order, &flipped)
                });
            }
        }
        plans
    }

    /// Derives a binding's [`Scan`] — the only caller of
    /// `required_columns` and `estimate_scan_rows`.
    fn scan(&self, spec: &QuerySpec, b: &Binding) -> Scan {
        #[cfg(test)]
        tests::tally(0);
        let stats = self.catalog.stats(&b.table);
        let output = spec.required_columns(&b.name);
        // A table without stats estimates at the 8-byte floor rather than
        // panicking mid-planning.
        let width = stats.map_or(8.0, |stats| {
            output
                .iter()
                .filter_map(|c| stats.column(&c.column))
                .map(|cs| cs.avg_width)
                .sum::<f64>()
                .max(8.0)
        });
        Scan {
            width,
            base_rows: stats.map_or(0.0, |s| s.row_count as f64),
            est_rows: estimate_scan_rows(spec, b, self.catalog),
            output,
            filter: spec.table_filters.get(&b.name).cloned(),
        }
    }

    /// The syntactic (FROM-clause) join order, when each step connects to
    /// the tables joined so far; `None` otherwise.
    fn syntactic_order(&self, spec: &QuerySpec) -> Option<Vec<usize>> {
        let n = spec.bindings.len();
        for step in 1..n {
            let name = &spec.bindings[step].name;
            let connected = spec
                .join_edges
                .iter()
                .any(|e| spec.bindings[..step].iter().any(|b| e.connects(&b.name, name)));
            if !connected {
                return None;
            }
        }
        Some((0..n).collect())
    }

    /// Size-based strategies from unfiltered table bytes (rule-based
    /// Catalyst: no selectivity information).
    fn rule_based_strategies(&self, spec: &QuerySpec, order: &[usize]) -> Vec<JoinStrategy> {
        order[1..]
            .iter()
            .map(|&bi| {
                let b = &spec.bindings[bi];
                let bytes = self
                    .catalog
                    .stats(&b.table)
                    .map(|s| s.total_bytes as f64)
                    .unwrap_or(f64::INFINITY);
                if bytes <= self.opts.broadcast_threshold_bytes {
                    JoinStrategy::BroadcastHash
                } else {
                    JoinStrategy::SortMerge
                }
            })
            .collect()
    }

    /// Greedy join orders: start from the smallest (and second-smallest)
    /// filtered binding, then repeatedly attach the connected binding that
    /// minimises the estimated intermediate result.
    fn join_orders(&self, spec: &QuerySpec, scans: &[Scan]) -> Vec<Vec<usize>> {
        let n = spec.bindings.len();
        let rows: Vec<f64> = scans.iter().map(|s| s.est_rows).collect();
        let mut starts: Vec<usize> = (0..n).collect();
        starts.sort_by(|&a, &b| rows[a].total_cmp(&rows[b]));
        starts.truncate(2);

        let mut orders = Vec::new();
        for &start in &starts {
            let mut order = vec![start];
            let mut current_rows = rows[start];
            let mut included: HashSet<&str> = HashSet::new();
            included.insert(&spec.bindings[start].name);
            while order.len() < n {
                let mut best: Option<(usize, f64)> = None;
                for (cand, cand_rows) in rows.iter().enumerate() {
                    if order.contains(&cand) {
                        continue;
                    }
                    let cand_name = &spec.bindings[cand].name;
                    let edge = spec
                        .join_edges
                        .iter()
                        .find(|e| included.iter().any(|inc| e.connects(inc, cand_name)));
                    let Some(edge) = edge else { continue };
                    let est =
                        estimate_join_rows(current_rows, *cand_rows, edge, spec, self.catalog);
                    if best.is_none_or(|(_, b)| est < b) {
                        best = Some((cand, est));
                    }
                }
                // A disconnected join graph (cross join the resolver
                // does not model) ends the greedy walk; the incomplete
                // order is dropped below.
                let Some((next, est)) = best else { break };
                current_rows = est;
                included.insert(&spec.bindings[next].name);
                order.push(next);
            }
            if order.len() == n && !orders.contains(&order) {
                orders.push(order);
            }
        }
        orders
    }

    /// Threshold-driven default strategy per join in an order.
    fn default_strategies(&self, scans: &[Scan], order: &[usize]) -> Vec<JoinStrategy> {
        order[1..]
            .iter()
            .map(|&bi| {
                let bytes = scans[bi].est_rows * scans[bi].width;
                if bytes <= self.opts.broadcast_threshold_bytes {
                    JoinStrategy::BroadcastHash
                } else {
                    JoinStrategy::SortMerge
                }
            })
            .collect()
    }

    fn scan_node(
        plan: &mut Build<'_>,
        b: &Binding,
        scan: &Scan,
        push_filter: bool,
    ) -> (NodeId, f64) {
        let Scan { width, base_rows, est_rows, .. } = *scan;
        let output = scan.output.clone();
        match scan.filter.clone() {
            Some(predicate) if !push_filter => {
                let scan = plan.add(
                    PhysicalOp::FileScan {
                        binding: b.name.clone(),
                        table: b.table.clone(),
                        output,
                        pushed_filter: None,
                    },
                    [],
                    base_rows,
                    base_rows * width,
                );
                let id =
                    plan.add(PhysicalOp::Filter { predicate }, [scan], est_rows, est_rows * width);
                (id, est_rows)
            }
            filter => {
                let id = plan.add(
                    PhysicalOp::FileScan {
                        binding: b.name.clone(),
                        table: b.table.clone(),
                        output,
                        pushed_filter: filter,
                    },
                    [],
                    est_rows,
                    est_rows * width,
                );
                (id, est_rows)
            }
        }
    }

    fn build_single_table(
        &self,
        plan: &mut Build<'_>,
        spec: &QuerySpec,
        scans: &[Scan],
        push_filter: bool,
    ) {
        let (node, rows) = Self::scan_node(plan, &spec.bindings[0], &scans[0], push_filter);
        self.finish_plan(plan, spec, node, rows, scans[0].width);
    }

    /// `None` when `order` skips a join edge the spec never provided —
    /// i.e. the join graph is disconnected under this order.
    fn build_join_plan(
        &self,
        plan: &mut Build<'_>,
        spec: &QuerySpec,
        scans: &[Scan],
        order: &[usize],
        strategies: &[JoinStrategy],
    ) -> Option<()> {
        let first = order[0];
        let (mut current, mut current_rows) =
            Self::scan_node(plan, &spec.bindings[first], &scans[first], true);
        let mut included: Vec<&str> = vec![&spec.bindings[first].name];
        let mut applied_edges = vec![false; spec.join_edges.len()];
        let mut width = scans[first].width;

        for (step, &bi) in order[1..].iter().enumerate() {
            let b = &spec.bindings[bi];
            // Pick the connecting edge (first by spec order).
            let (edge_idx, edge) = spec.join_edges.iter().enumerate().find(|(i, e)| {
                !applied_edges[*i] && included.iter().any(|inc| e.connects(inc, &b.name))
            })?;
            applied_edges[edge_idx] = true;
            let (left_key, right_key) = if included.contains(&edge.left.table.as_str()) {
                (edge.left.clone(), edge.right.clone())
            } else {
                (edge.right.clone(), edge.left.clone())
            };

            let (right, right_rows) = Self::scan_node(plan, b, &scans[bi], true);
            let right_width = scans[bi].width;
            let out_rows = estimate_join_rows(current_rows, right_rows, edge, spec, self.catalog);
            width += right_width;
            let out_bytes = out_rows * width;

            current = match strategies[step] {
                JoinStrategy::SortMerge => {
                    let lex = plan.add(
                        PhysicalOp::ExchangeHash {
                            keys: vec![left_key.clone()],
                            partitions: self.opts.shuffle_partitions,
                        },
                        [current],
                        current_rows,
                        current_rows * (width - right_width),
                    );
                    let lsort = plan.add(
                        PhysicalOp::Sort { keys: vec![(left_key.clone(), true)] },
                        [lex],
                        current_rows,
                        current_rows * (width - right_width),
                    );
                    let rex = plan.add(
                        PhysicalOp::ExchangeHash {
                            keys: vec![right_key.clone()],
                            partitions: self.opts.shuffle_partitions,
                        },
                        [right],
                        right_rows,
                        right_rows * right_width,
                    );
                    let rsort = plan.add(
                        PhysicalOp::Sort { keys: vec![(right_key.clone(), true)] },
                        [rex],
                        right_rows,
                        right_rows * right_width,
                    );
                    plan.add(
                        PhysicalOp::SortMergeJoin { left_key, right_key },
                        [lsort, rsort],
                        out_rows,
                        out_bytes,
                    )
                }
                JoinStrategy::BroadcastHash => {
                    let bex = plan.add(
                        PhysicalOp::BroadcastExchange,
                        [right],
                        right_rows,
                        right_rows * right_width,
                    );
                    plan.add(
                        PhysicalOp::BroadcastHashJoin { probe_key: left_key, build_key: right_key },
                        [current, bex],
                        out_rows,
                        out_bytes,
                    )
                }
                JoinStrategy::ShuffledHash => {
                    let lex = plan.add(
                        PhysicalOp::ExchangeHash {
                            keys: vec![left_key.clone()],
                            partitions: self.opts.shuffle_partitions,
                        },
                        [current],
                        current_rows,
                        current_rows * (width - right_width),
                    );
                    let rex = plan.add(
                        PhysicalOp::ExchangeHash {
                            keys: vec![right_key.clone()],
                            partitions: self.opts.shuffle_partitions,
                        },
                        [right],
                        right_rows,
                        right_rows * right_width,
                    );
                    plan.add(
                        PhysicalOp::ShuffledHashJoin { left_key, right_key },
                        [lex, rex],
                        out_rows,
                        out_bytes,
                    )
                }
            };
            current_rows = out_rows;
            included.push(&b.name);

            // Extra (cycle-closing) edges between already-included bindings
            // become filters.
            for (i, e) in spec.join_edges.iter().enumerate() {
                if applied_edges[i] {
                    continue;
                }
                if included.contains(&e.left.table.as_str())
                    && included.contains(&e.right.table.as_str())
                {
                    applied_edges[i] = true;
                    current_rows *= DEFAULT_SELECTIVITY;
                    current = plan.add(
                        PhysicalOp::Filter {
                            predicate: Expr::Cmp {
                                op: CmpOp::Eq,
                                left: Box::new(Expr::Column(e.left.clone())),
                                right: Box::new(Expr::Column(e.right.clone())),
                            },
                        },
                        [current],
                        current_rows,
                        current_rows * width,
                    );
                }
            }
        }
        self.finish_plan(plan, spec, current, current_rows, width);
        Some(())
    }

    /// Adds aggregation / projection / ordering / limit above `node`.
    fn finish_plan(
        &self,
        plan: &mut Build<'_>,
        spec: &QuerySpec,
        node: NodeId,
        rows: f64,
        width: f64,
    ) {
        #[cfg(test)]
        tests::tally(1);
        let mut current = node;
        let mut current_rows = rows;
        if spec.has_aggregates() || !spec.group_by.is_empty() {
            let groups_est = if spec.group_by.is_empty() {
                1.0
            } else {
                // NDV of the first group column bounds the group count.
                spec.group_by
                    .first()
                    .and_then(|c| spec.binding(&c.table))
                    .and_then(|b| self.catalog.stats(&b.table))
                    .and_then(|s| s.column(&spec.group_by[0].column))
                    .map(|cs| cs.ndv as f64)
                    .unwrap_or(current_rows.sqrt().max(1.0))
                    .min(current_rows.max(1.0))
            };
            let out_width = (spec.group_by.len() + spec.aggregates.len()) as f64 * 8.0;
            let partial = plan.add(
                PhysicalOp::HashAggregate {
                    mode: AggMode::Partial,
                    group_by: spec.group_by.clone(),
                    aggs: spec.aggregates.clone(),
                },
                [current],
                groups_est * (self.opts.shuffle_partitions as f64).sqrt(),
                groups_est * out_width,
            );
            let exchange = if spec.group_by.is_empty() {
                plan.add(PhysicalOp::ExchangeSingle, [partial], groups_est, groups_est * out_width)
            } else {
                plan.add(
                    PhysicalOp::ExchangeHash {
                        keys: spec.group_by.clone(),
                        partitions: self.opts.shuffle_partitions,
                    },
                    [partial],
                    groups_est,
                    groups_est * out_width,
                )
            };
            current = plan.add(
                PhysicalOp::HashAggregate {
                    mode: AggMode::Final,
                    group_by: spec.group_by.clone(),
                    aggs: spec.aggregates.clone(),
                },
                [exchange],
                groups_est,
                groups_est * out_width,
            );
            current_rows = groups_est;
        } else {
            // Plain select: prune to the requested columns.
            let columns: Vec<ColumnRef> = if spec.wildcard {
                spec.bindings
                    .iter()
                    .filter_map(|b| self.catalog.table(&b.table).map(|t| (b, t)))
                    .flat_map(|(b, table)| {
                        table
                            .schema
                            .columns
                            .iter()
                            .map(|c| ColumnRef::new(b.name.clone(), c.name.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            } else {
                spec.select_columns.clone()
            };
            if !columns.is_empty() {
                current = plan.add(
                    PhysicalOp::Project { columns },
                    [current],
                    current_rows,
                    current_rows * width,
                );
            }
        }
        if !spec.order_by.is_empty() {
            let single =
                plan.add(PhysicalOp::ExchangeSingle, [current], current_rows, current_rows * width);
            current = plan.add(
                PhysicalOp::Sort { keys: spec.order_by.clone() },
                [single],
                current_rows,
                current_rows * width,
            );
        }
        if let Some(n) = spec.limit {
            let out = current_rows.min(n as f64);
            plan.add(PhysicalOp::Limit { n }, [current], out, out * width);
        }
    }
}

/// Whether two candidates are one plan to the cost model: node by node
/// the same operator (most are one allocation, so the pointer test
/// settles them) under the same child list, the estimates aside.
fn same_structure(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    a.len() == b.len()
        && a.nodes()
            .iter()
            .zip(b.nodes())
            .all(|(x, y)| (OpRef::ptr_eq(&x.op, &y.op) || x.op == y.op) && x.children == y.children)
}

/// Whether `op` is interned per call only: a scan, a filter and a limit
/// carry a literal or a query's own column set, so they seldom recur
/// across queries. Every other kind goes to the engine's [`OpTable`].
fn per_query(op: &PhysicalOp) -> bool {
    match op {
        PhysicalOp::FileScan { .. } | PhysicalOp::Filter { .. } | PhysicalOp::Limit { .. } => true,
        PhysicalOp::Project { .. }
        | PhysicalOp::ExchangeHash { .. }
        | PhysicalOp::ExchangeSingle
        | PhysicalOp::BroadcastExchange
        | PhysicalOp::Sort { .. }
        | PhysicalOp::SortMergeJoin { .. }
        | PhysicalOp::BroadcastHashJoin { .. }
        | PhysicalOp::ShuffledHashJoin { .. }
        | PhysicalOp::HashAggregate { .. } => false,
    }
}

/// Operators an [`OpTable`] holds at most (the operator-row cache's
/// size). A column's qualifier is the query's alias, so a stream of
/// fresh aliases makes fresh operators; past the cap they are interned
/// per call only. The benchmark's 3 000-query pool needs about 200.
pub const OP_TABLE_ENTRIES: usize = 4096;

type OpMap = HashMap<u64, OpRef, BuildHasherDefault<WordHasher>>;

/// One engine's scan-free operators, shared by every plan it builds:
/// one allocation per distinct operator, keyed by the [`OpRef::key`] it
/// carries. A key hit is confirmed by `==`; an operator whose key
/// another holds, or that finds the table full, is simply not shared.
/// The map outlives the call, so the query stream chooses its keys, but
/// the cap bounds it: colliding keys can slow a lookup to a scan of
/// [`OP_TABLE_ENTRIES`] words, and a flood of fresh operators can only
/// fill the table, after which planning interns per call as a planner
/// built alone does — so the map needs no flood-resistant hasher. Every
/// `enumerate` looks in its own call's table first, so it takes the
/// lock at most once per distinct operator.
#[derive(Default)]
pub struct OpTable(Mutex<OpMap>);

impl OpTable {
    /// The map, locked. Nothing panics under the lock between two
    /// consistent states, so a poisoned lock is taken over.
    fn lock(&self) -> MutexGuard<'_, OpMap> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Operators held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True until an operator is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's allocation of `op`, whose key is `key`: the one an
    /// earlier `==` operator got, a new one it keeps while below the cap,
    /// or a new one it does not keep.
    fn intern(&self, key: u64, op: PhysicalOp) -> OpRef {
        let mut held = self.lock();
        let room = held.len() < OP_TABLE_ENTRIES;
        match held.entry(key) {
            Entry::Occupied(shared) if **shared.get() == op => shared.get().clone(),
            Entry::Vacant(slot) if room => slot.insert(OpRef::with_key(key, op)).clone(),
            _ => OpRef::with_key(key, op),
        }
    }
}

impl fmt::Debug for OpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpTable").field("len", &self.len()).finish()
    }
}

/// One `enumerate` call's operator table: every distinct operator its
/// candidates hold, keyed by the `WordHasher` walk `structural_hash`
/// makes of it — the key each [`OpRef`] then carries. A hash hit is
/// confirmed by `==`; an operator whose hash another holds is simply
/// not shared. It holds at most the call's own nodes, so keys a query
/// could make collide slow that call only. A scan-free operator it
/// meets first is looked up in the engine's [`OpTable`].
#[derive(Default)]
struct Ops(OpMap);

impl Ops {
    /// The call's allocation of `op`: the one an earlier `==` operator
    /// got (`op` is dropped), or — met first — `table`'s, or a new one
    /// for an operator [`per_query`]. The operator is walked once, before
    /// anything is allocated.
    fn intern(&mut self, op: PhysicalOp, table: &OpTable) -> OpRef {
        let key = OpRef::key_of(&op);
        match self.0.entry(key) {
            Entry::Occupied(held) if **held.get() == op => held.get().clone(),
            Entry::Occupied(_) => OpRef::with_key(key, op),
            Entry::Vacant(slot) => slot
                .insert(if per_query(&op) {
                    OpRef::with_key(key, op)
                } else {
                    table.intern(key, op)
                })
                .clone(),
        }
    }
}

/// A candidate under construction: its plan, and the call's operator
/// table every node it adds is interned through (and the engine's,
/// behind it).
struct Build<'a> {
    ops: &'a mut Ops,
    table: &'a OpTable,
    plan: PhysicalPlan,
}

impl Build<'_> {
    fn add<const N: usize>(
        &mut self,
        op: PhysicalOp,
        children: [NodeId; N],
        rows: f64,
        bytes: f64,
    ) -> NodeId {
        let op = self.ops.intern(op, self.table);
        self.plan.add(op, children, rows, bytes)
    }
}

/// What every candidate's scan of one binding shares — functions of
/// (spec, binding) only: the row width of the required columns, the
/// unfiltered and filtered row estimates, those columns, and the
/// binding's filter.
struct Scan {
    width: f64,
    base_rows: f64,
    est_rows: f64,
    output: Vec<ColumnRef>,
    filter: Option<Expr>,
}

fn flip(s: JoinStrategy) -> JoinStrategy {
    match s {
        JoinStrategy::SortMerge => JoinStrategy::BroadcastHash,
        JoinStrategy::BroadcastHash => JoinStrategy::SortMerge,
        JoinStrategy::ShuffledHash => JoinStrategy::SortMerge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::spec::resolve;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::sql::parser::parse;
    use crate::storage::{Column, ColumnData, Table};
    use crate::types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let n_big = 10_000i64;
        c.register(Table::new(
            TableSchema::new(
                "title",
                vec![
                    ColumnDef::new("id", DataType::Int, false),
                    ColumnDef::new("kind_id", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..n_big).collect())),
                Column::non_null(ColumnData::Int((0..n_big).map(|i| i % 7).collect())),
            ],
        ));
        c.register(Table::new(
            TableSchema::new(
                "movie_companies",
                vec![
                    ColumnDef::new("movie_id", DataType::Int, false),
                    ColumnDef::new("company_id", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..n_big * 2).map(|i| i % n_big).collect())),
                Column::non_null(ColumnData::Int((0..n_big * 2).map(|i| i % 500).collect())),
            ],
        ));
        c.register(Table::new(
            TableSchema::new(
                "movie_keyword",
                vec![
                    ColumnDef::new("movie_id", DataType::Int, false),
                    ColumnDef::new("keyword_id", DataType::Int, false),
                ],
            ),
            vec![
                Column::non_null(ColumnData::Int((0..500i64).map(|i| i % 300).collect())),
                Column::non_null(ColumnData::Int((0..500i64).map(|i| i % 100).collect())),
            ],
        ));
        c
    }

    thread_local! {
        /// `[scans derived, plans built]` by this thread's planners.
        static WORK: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
    }

    pub(super) fn tally(what: usize) {
        WORK.with(|w| {
            let mut work = w.get();
            work[what] += 1;
            w.set(work);
        });
    }

    /// Everything that depends only on (spec, binding) is derived once
    /// per `enumerate`, and no plan is built that cannot be returned: a
    /// budget of `k` builds `k` plans plus at most the duplicates the
    /// unbounded enumeration discards.
    #[test]
    fn enumerate_builds_what_it_returns() {
        let cat = catalog();
        let mut exact = 0;
        for sql in [
            "SELECT COUNT(*) FROM title t WHERE t.kind_id < 3",
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND mc.company_id < 50",
            "SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk \
             WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mk.keyword_id < 20",
            "SELECT t.kind_id, COUNT(*) FROM movie_keyword mk, title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND mk.movie_id = t.id AND t.kind_id < 4 \
             GROUP BY t.kind_id",
        ] {
            let spec = resolve(&parse(sql).unwrap(), &cat).unwrap();
            let run = |max_plans| {
                WORK.with(|w| w.set([0; 2]));
                let opts = PlannerOptions { max_plans, ..PlannerOptions::default() };
                let plans = Planner::new(&cat, opts).enumerate(&spec);
                let [scans, built] = WORK.with(|w| w.get());
                assert_eq!(scans, spec.bindings.len(), "{sql}: one scan per binding");
                (plans.len(), built)
            };
            let (distinct, built_unbounded) = run(64);
            let discarded = built_unbounded - distinct;
            exact += usize::from(discarded == 0 && distinct > 2);
            assert_eq!(run(0), (0, 0), "{sql}");
            for k in 1..=distinct {
                let (kept, built) = run(k);
                assert_eq!(kept, k, "{sql}");
                assert!((k..=k + discarded).contains(&built), "{sql}: {built} builds for {k}");
            }
        }
        assert!(exact > 0, "no join query enumerates without duplicates");
    }

    fn plans_for(sql: &str) -> Vec<PhysicalPlan> {
        let cat = catalog();
        let q = parse(sql).unwrap();
        let spec = resolve(&q, &cat).unwrap();
        Planner::new(&cat, PlannerOptions::default()).enumerate(&spec)
    }

    /// A panic while the table's lock is held poisons it; planning
    /// through the table takes the lock over and interns as before.
    #[test]
    fn a_poisoned_table_still_interns() {
        let cat = catalog();
        let spec =
            resolve(&parse("SELECT COUNT(*) FROM title t GROUP BY t.kind_id").unwrap(), &cat)
                .unwrap();
        let table = OpTable::default();
        let planner = Planner::with_table(&cat, PlannerOptions::default(), &table);
        let before = planner.enumerate(&spec);
        let held = table.len();
        let poison = std::panic::catch_unwind(|| {
            let _guard = table.0.lock();
            panic!("poisons the lock");
        });
        assert!(poison.is_err() && table.0.is_poisoned());
        let after = planner.enumerate(&spec);
        assert_eq!(after, before);
        assert_eq!(table.len(), held);
        let shared = |p: &PhysicalPlan, q: &PhysicalPlan| {
            p.nodes()
                .iter()
                .zip(q.nodes())
                .filter(|(a, b)| OpRef::ptr_eq(&a.op, &b.op))
                .count()
        };
        assert!(shared(&before[0], &after[0]) >= 3, "the table's operators were not reused");
    }

    #[test]
    fn single_table_gets_two_plans() {
        let plans = plans_for("SELECT COUNT(*) FROM title t WHERE t.kind_id < 3");
        assert_eq!(plans.len(), 2);
        // First plan pushes the filter, the second has an explicit Filter.
        assert!(plans[0].explain().contains("PushedFilters"));
        assert!(plans[1].explain().contains("Filter "));
    }

    #[test]
    fn join_plans_are_distinct_and_bounded() {
        let plans = plans_for(
            "SELECT COUNT(*) FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND mc.company_id < 50",
        );
        assert!(plans.len() >= 2, "got {}", plans.len());
        assert!(plans.len() <= PlannerOptions::default().max_plans);
        for (i, p) in plans.iter().enumerate() {
            assert!(!plans[..i].contains(p), "plans must be distinct");
        }
    }

    #[test]
    fn small_table_defaults_to_broadcast() {
        let plans =
            plans_for("SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id");
        // movie_keyword is tiny -> default plan broadcasts it.
        assert!(
            plans[0].explain().contains("BroadcastHashJoin"),
            "default plan:\n{}",
            plans[0].explain()
        );
        // And some variant uses sort-merge.
        assert!(plans.iter().any(|p| p.explain().contains("SortMergeJoin")));
    }

    #[test]
    fn aggregate_splits_into_partial_and_final() {
        let plans = plans_for("SELECT COUNT(*) FROM title t WHERE t.kind_id < 3");
        let text = plans[0].explain();
        assert!(text.contains("partial_count(1)"));
        assert!(text.contains("functions=[count(1)]"));
        assert!(text.contains("Exchange SinglePartition"));
    }

    #[test]
    fn three_table_join_has_two_joins() {
        let plans = plans_for(
            "SELECT COUNT(*) FROM title t, movie_companies mc, movie_keyword mk \
             WHERE t.id = mc.movie_id AND t.id = mk.movie_id AND mk.keyword_id < 20",
        );
        for p in &plans {
            assert_eq!(p.join_nodes().len(), 2, "plan:\n{}", p.explain());
        }
    }

    #[test]
    fn group_by_uses_hash_exchange() {
        let plans = plans_for("SELECT t.kind_id, COUNT(*) FROM title t GROUP BY t.kind_id");
        assert!(plans[0].explain().contains("Exchange hashpartitioning"));
    }

    #[test]
    fn order_and_limit_appear_at_top() {
        let plans = plans_for("SELECT t.id FROM title t WHERE t.kind_id < 3 ORDER BY t.id LIMIT 5");
        let p = &plans[0];
        assert!(matches!(*p.node(p.root()).op, PhysicalOp::Limit { n: 5 }));
    }

    #[test]
    fn estimates_are_positive_and_monotone_ish() {
        let plans =
            plans_for("SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id");
        for p in &plans {
            for n in p.nodes() {
                assert!(n.est_rows >= 0.0);
                assert!(n.est_bytes >= 0.0);
            }
            assert!(p.scan_bytes() > 0.0);
        }
    }
}
