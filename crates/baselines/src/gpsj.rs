//! GPSJ baseline — the hand-crafted analytical cost model for Spark SQL of
//! Baldacci & Golfarelli (the paper's Spark-side state of the art).
//!
//! GPSJ estimates the time of a Generalised-Projection/Selection/Join plan
//! from **database statistics and cluster parameters only**: per-stage
//! disk-read, CPU, shuffle-write/read and broadcast terms computed from the
//! optimizer's *estimated* row counts, divided by the configured
//! throughputs and task slots. It knows nothing about spill, GC, page
//! cache, placement, skew or estimation error — the paper's Sec. V-B(3)
//! attributes its large errors to exactly that: over-reliance on
//! statistics and rigid hand-built formulas.

use serde::{Deserialize, Serialize};
use sparksim::plan::physical::{PhysicalOp, PhysicalPlan};
use sparksim::resource::ResourceConfig;

const MB: f64 = 1024.0 * 1024.0;

/// The analytical model's one per-deployment setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpsjParams {
    /// Multiplier applied to estimated bytes/rows to reach the deployed
    /// data scale (same role as the simulator's `data_scale`).
    pub data_scale: f64,
}

impl Default for GpsjParams {
    fn default() -> Self {
        Self { data_scale: 1.0 }
    }
}

// Calibration constants of the analytical model (the "significant
// person-hours of engineering" the paper mentions — the knobs a human
// would tune per cluster).

/// Assumed per-row CPU cost, ns.
const CPU_NS_PER_ROW: f64 = 120.0;
/// Assumed sort constant, ns per row·log2(rows).
const SORT_NS_PER_ROW: f64 = 14.0;
/// Fraction of scan bytes served from OS caches (fixed guess).
const CACHE_FACTOR: f64 = 0.3;
/// Fixed per-stage overhead, seconds.
const STAGE_OVERHEAD_S: f64 = 0.2;
/// Fixed per-query overhead, seconds.
const QUERY_OVERHEAD_S: f64 = 0.5;

/// The GPSJ analytical cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpsjModel {
    params: GpsjParams,
}

impl GpsjModel {
    /// Creates the model with given calibration.
    pub fn new(params: GpsjParams) -> Self {
        Self { params }
    }

    /// Estimates a plan's execution time in seconds from optimizer
    /// estimates and the resource configuration.
    pub fn estimate_seconds(&self, plan: &PhysicalPlan, res: &ResourceConfig) -> f64 {
        let slots = res.total_slots().max(1) as f64;
        let disk = res.disk_throughput_mbps * MB;
        let net = res.network_throughput_mbps * MB;

        let mut cpu_rows = 0.0f64;
        let mut sort_cost_ns = 0.0f64;
        let mut scan_bytes = 0.0f64;
        let mut shuffle_bytes = 0.0f64;
        let mut broadcast_bytes = 0.0f64;
        let mut stages = 1usize;

        for node in plan.nodes() {
            let rows = node.est_rows * self.params.data_scale;
            let bytes = node.est_bytes * self.params.data_scale;
            match &*node.op {
                PhysicalOp::FileScan { .. } => {
                    cpu_rows += rows;
                    scan_bytes += bytes;
                }
                PhysicalOp::ExchangeHash { .. } | PhysicalOp::ExchangeSingle => {
                    shuffle_bytes += bytes;
                    cpu_rows += rows;
                    stages += 1;
                }
                PhysicalOp::BroadcastExchange => {
                    broadcast_bytes += bytes;
                    stages += 1;
                }
                PhysicalOp::Sort { .. } => {
                    sort_cost_ns += rows * (rows.max(2.0)).log2() * SORT_NS_PER_ROW;
                }
                PhysicalOp::SortMergeJoin { .. }
                | PhysicalOp::BroadcastHashJoin { .. }
                | PhysicalOp::ShuffledHashJoin { .. }
                | PhysicalOp::HashAggregate { .. }
                | PhysicalOp::Filter { .. }
                | PhysicalOp::Project { .. } => cpu_rows += rows,
                PhysicalOp::Limit { .. } => {}
            }
        }

        let cpu_s = (cpu_rows * CPU_NS_PER_ROW + sort_cost_ns) * 1e-9 / slots;
        let read_s = scan_bytes * (1.0 - CACHE_FACTOR) / (disk * slots.min(8.0));
        // Shuffle data crosses the wire twice (write + read).
        let shuffle_s = 2.0 * shuffle_bytes / (net * slots.min(8.0));
        let broadcast_s = broadcast_bytes * res.executors.max(1) as f64 / net;
        QUERY_OVERHEAD_S
            + stages as f64 * STAGE_OVERHEAD_S
            + cpu_s
            + read_s
            + shuffle_s
            + broadcast_s
    }
}

/// GPSJ is the serving-time analytical fallback: always available, no
/// checkpoint, no deadline risk.
impl raal::serving::FallbackModel for GpsjModel {
    fn estimate_seconds(&self, plan: &PhysicalPlan, res: &ResourceConfig) -> f64 {
        GpsjModel::estimate_seconds(self, plan, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparksim::plan::physical::AggMode;
    use sparksim::plan::spec::AggSpec;
    use sparksim::schema::ColumnRef;
    use sparksim::sql::ast::AggFunc;

    fn res(executors: usize, cores: usize) -> ResourceConfig {
        ResourceConfig {
            executors,
            cores_per_executor: cores,
            memory_per_executor_gb: 4.0,
            network_throughput_mbps: 120.0,
            disk_throughput_mbps: 200.0,
        }
    }

    fn scan_agg_plan(scan_rows: f64) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: None,
            },
            vec![],
            scan_rows,
            scan_rows * 8.0,
        );
        let aggs = vec![AggSpec { func: AggFunc::Count, arg: None }];
        let partial = p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: aggs.clone(),
            },
            vec![scan],
            1.0,
            8.0,
        );
        let ex = p.add(PhysicalOp::ExchangeSingle, vec![partial], 1.0, 8.0);
        p.add(
            PhysicalOp::HashAggregate { mode: AggMode::Final, group_by: vec![], aggs },
            vec![ex],
            1.0,
            8.0,
        );
        p
    }

    #[test]
    fn bigger_scans_cost_more() {
        let m = GpsjModel::new(GpsjParams::default());
        let small = m.estimate_seconds(&scan_agg_plan(1e5), &res(2, 2));
        let large = m.estimate_seconds(&scan_agg_plan(1e8), &res(2, 2));
        assert!(large > small);
    }

    #[test]
    fn more_slots_cost_less() {
        let m = GpsjModel::new(GpsjParams::default());
        let slow = m.estimate_seconds(&scan_agg_plan(1e8), &res(1, 1));
        let fast = m.estimate_seconds(&scan_agg_plan(1e8), &res(4, 4));
        assert!(fast < slow, "GPSJ is monotone in slots by construction");
    }

    #[test]
    fn estimate_is_deterministic_and_positive() {
        let m = GpsjModel::new(GpsjParams::default());
        let a = m.estimate_seconds(&scan_agg_plan(1e6), &res(2, 2));
        let b = m.estimate_seconds(&scan_agg_plan(1e6), &res(2, 2));
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn data_scale_scales_cost() {
        let params = GpsjParams { data_scale: 10.0 };
        let scaled = GpsjModel::new(params).estimate_seconds(&scan_agg_plan(1e7), &res(2, 2));
        let base =
            GpsjModel::new(GpsjParams::default()).estimate_seconds(&scan_agg_plan(1e7), &res(2, 2));
        assert!(scaled > base);
    }
}
