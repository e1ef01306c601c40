//! Resource-aware execution-time simulator — the substitute for the
//! paper's real Spark cluster.
//!
//! Given a physical plan, its *true* per-node work metrics (from the
//! executor) and a [`ResourceConfig`], the simulator produces the wall-clock
//! seconds the plan would take on the modelled cluster. The model is
//! stage-based, like Spark:
//!
//! * plans split into **stages** at exchange boundaries; a stage runs
//!   `partitions` tasks in **waves** of `executors × cores` slots;
//! * per-task time combines CPU, disk, shuffle and broadcast terms;
//! * four mechanisms make executor memory **non-monotonic** (the paper's
//!   Sec. III observation):
//!   1. sort/hash operators **spill** when the working set exceeds the
//!      task's memory share — extra disk traffic at *small* memories;
//!   2. **GC/heap management** overhead grows with heap size;
//!   3. the OS **page cache** shrinks as executor memory grows, lowering
//!      the effective scan throughput;
//!   4. executors that no longer fit on the nodes are not scheduled,
//!      shrinking the effective slot count at *large* memories;
//! * broadcast joins pay a collect+distribute term and a steep penalty
//!   when the build side does not fit the broadcast memory cap — this is
//!   what flips the optimal plan as memory varies (paper Fig. 2).
//!
//! Run-to-run variance is modelled by seeded multiplicative log-normal
//! noise.

use crate::exec::NodeMetrics;
use crate::plan::physical::{NodeId, PhysicalOp, PhysicalPlan};
use crate::resource::{ClusterConfig, ResourceConfig};
use serde::{Deserialize, Serialize};

const GB: f64 = 1024.0 * 1024.0 * 1024.0;
const MB: f64 = 1024.0 * 1024.0;

/// Process-wide job-id sequence for the Spark-style event-log stream:
/// every simulated run is one "job", like one Spark action.
fn next_job_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static JOB_SEQ: AtomicU64 = AtomicU64::new(0);
    // ORDERING: Relaxed — a unique-id counter needs only atomicity of
    // the increment; no other memory is published via this operation.
    JOB_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Simulator tunables. Defaults are calibrated so that the paper's
/// workload sizes (a few GB) produce the tens-of-seconds query times of
/// its Figs. 1–2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatorConfig {
    /// Multiplier applied to executed rows/bytes, so a scaled-down
    /// in-memory dataset stands in for the paper's full-size one.
    pub data_scale: f64,
    /// Target bytes per scan partition (Spark's input split size).
    pub bytes_per_partition: f64,
    /// Fraction of executor memory usable by tasks
    /// (`spark.memory.fraction`).
    pub memory_fraction: f64,
    /// Per-executor JVM overhead, GB (counts against node memory).
    pub executor_overhead_gb: f64,
    /// GC overhead per GB of heap at full occupancy (fraction of CPU time).
    pub gc_per_gb: f64,
    /// Fraction of executor memory a broadcast relation may occupy.
    pub broadcast_cap_fraction: f64,
    /// Effective page-cache read throughput, MB/s.
    pub cache_throughput_mbps: f64,
    /// Fixed scheduling overhead per stage, seconds.
    pub stage_overhead_s: f64,
    /// Scheduling overhead per wave, seconds.
    pub wave_overhead_s: f64,
    /// Fixed driver/setup overhead per query, seconds.
    pub driver_overhead_s: f64,
    /// Log-normal noise sigma (0 disables noise).
    pub noise_sigma: f64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            data_scale: 1.0,
            bytes_per_partition: 512.0 * MB,
            memory_fraction: 0.6,
            executor_overhead_gb: 0.35,
            gc_per_gb: 0.045,
            broadcast_cap_fraction: 0.2,
            cache_throughput_mbps: 2500.0,
            stage_overhead_s: 0.12,
            wave_overhead_s: 0.05,
            driver_overhead_s: 0.35,
            noise_sigma: 0.05,
        }
    }
}

/// Per-row CPU costs in nanoseconds (single core).
#[derive(Debug, Clone, Copy)]
struct CpuCosts {
    scan: f64,
    filter: f64,
    project: f64,
    exchange_write: f64,
    exchange_read: f64,
    sort_per_cmp: f64,
    merge: f64,
    hash_build: f64,
    hash_probe: f64,
    aggregate: f64,
}

const CPU: CpuCosts = CpuCosts {
    scan: 45.0,
    filter: 18.0,
    project: 8.0,
    exchange_write: 38.0,
    exchange_read: 28.0,
    sort_per_cmp: 11.0,
    merge: 32.0,
    hash_build: 72.0,
    hash_probe: 44.0,
    aggregate: 52.0,
};

/// Detailed timing breakdown of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total wall-clock seconds (noise included).
    pub seconds: f64,
    /// Seconds per stage, in execution order.
    pub stage_seconds: Vec<f64>,
    /// Total bytes spilled to disk.
    pub spill_bytes: f64,
    /// Total CPU seconds spent in GC-attributed overhead.
    pub gc_seconds: f64,
    /// Executors that actually fit on the cluster.
    pub effective_executors: usize,
    /// Whether any broadcast exceeded its memory cap.
    pub broadcast_overflow: bool,
    /// Page-cache hit fraction applied to scans.
    pub cache_hit: f64,
}

/// One pipeline between exchange boundaries.
#[derive(Debug, Default)]
struct Stage {
    /// Non-exchange nodes in the stage.
    nodes: Vec<NodeId>,
    /// Exchanges this stage reads from (its inputs).
    sources: Vec<NodeId>,
    /// Exchange this stage writes into (`None` for the result stage).
    sink: Option<NodeId>,
}

/// The resource-aware cost simulator.
#[derive(Debug, Clone)]
pub struct CostSimulator {
    cluster: ClusterConfig,
    cfg: SimulatorConfig,
}

impl CostSimulator {
    /// Creates a simulator for a cluster.
    pub fn new(cluster: ClusterConfig, cfg: SimulatorConfig) -> Self {
        Self { cluster, cfg }
    }

    /// The cluster being modelled.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulatorConfig {
        &self.cfg
    }

    /// Simulates one run and returns only the seconds.
    pub fn simulate(
        &self,
        plan: &PhysicalPlan,
        metrics: &[NodeMetrics],
        res: &ResourceConfig,
        seed: u64,
    ) -> f64 {
        self.simulate_report(plan, metrics, res, seed).seconds
    }

    /// Simulates one run with a full breakdown.
    pub fn simulate_report(
        &self,
        plan: &PhysicalPlan,
        metrics: &[NodeMetrics],
        res: &ResourceConfig,
        seed: u64,
    ) -> SimReport {
        assert_eq!(plan.len(), metrics.len(), "metrics must align with plan nodes");
        let mut sim_span = telemetry::span("sparksim.simulate");
        sim_span.record("plan_nodes", plan.len() as u64);
        let scale = self.cfg.data_scale;

        // ---- Placement: which executors actually fit. ----
        let usable_node_gb = self.cluster.memory_per_node_gb * 0.92;
        let per_executor_gb = res.memory_per_executor_gb + self.cfg.executor_overhead_gb;
        let max_per_node = (usable_node_gb / per_executor_gb).floor() as usize;
        if max_per_node == 0 {
            // Executors cannot start at all: model as a failed/blocked run.
            return SimReport {
                seconds: 3600.0,
                stage_seconds: vec![],
                spill_bytes: 0.0,
                gc_seconds: 0.0,
                effective_executors: 0,
                broadcast_overflow: false,
                cache_hit: 0.0,
            };
        }
        let effective_executors = res.executors.min(max_per_node * self.cluster.nodes);
        let nodes_used = effective_executors.min(self.cluster.nodes).max(1);
        let executors_per_node = (effective_executors as f64 / nodes_used as f64).ceil().max(1.0);
        let slots = (effective_executors * res.cores_per_executor).max(1);
        // CPU oversubscription: more concurrent task threads than cores.
        let cpu_slowdown = (executors_per_node * res.cores_per_executor as f64
            / self.cluster.cores_per_node as f64)
            .max(1.0);

        // ---- Page cache: what's left of node memory caches the dataset. ----
        let dataset_bytes: f64 = plan
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, PhysicalOp::FileScan { .. }))
            .map(|(i, _)| metrics[i].bytes_in * scale)
            .sum();
        let cache_gb_total =
            (usable_node_gb - executors_per_node * per_executor_gb).max(0.0) * nodes_used as f64;
        let cache_hit = if dataset_bytes > 0.0 {
            (cache_gb_total * GB / dataset_bytes).clamp(0.0, 0.9)
        } else {
            0.0
        };

        let task_mem_bytes = (res.memory_per_executor_gb * self.cfg.memory_fraction * GB
            / res.cores_per_executor as f64)
            .max(1.0);

        let stages = build_stages(plan);
        let mut stage_seconds = Vec::with_capacity(stages.len());
        let mut spill_total = 0.0;
        let mut gc_total = 0.0;
        let mut broadcast_overflow = false;

        // Spark-mimicking event-log stream: one job per simulated run,
        // stages in execution (leaf-first) order.
        let job_id = if telemetry::enabled() {
            let id = next_job_id();
            telemetry::event(
                "job_start",
                &[
                    ("job_id", telemetry::Value::UInt(id)),
                    ("stages", telemetry::Value::UInt(stages.len() as u64)),
                    ("executors", telemetry::Value::UInt(effective_executors as u64)),
                    ("slots", telemetry::Value::UInt(slots as u64)),
                ],
            );
            Some(id)
        } else {
            None
        };

        // Stages were discovered root-first; execute leaf-first.
        for (stage_id, stage) in stages.iter().rev().enumerate() {
            let partitions = self.stage_partitions(plan, stage, metrics, scale);
            let mut cpu_ns = 0.0; // total across all tasks
            let mut disk_read = 0.0;
            let mut disk_write = 0.0;
            let mut net_read = 0.0;
            let mut fixed_s = 0.0; // per-stage one-off costs (broadcast)
            let mut working_set = 0.0f64; // max per-task working set in stage

            for &id in &stage.nodes {
                let m = &metrics[id];
                let rows_in = m.rows_in * scale;
                let rows_out = m.rows_out * scale;
                let bytes_in = m.bytes_in * scale;
                match &plan.node(id).op {
                    PhysicalOp::FileScan { pushed_filter, .. } => {
                        cpu_ns += rows_in * CPU.scan;
                        if pushed_filter.is_some() {
                            cpu_ns += rows_in * CPU.filter;
                        }
                        disk_read += bytes_in;
                    }
                    PhysicalOp::Filter { .. } => cpu_ns += rows_in * CPU.filter,
                    PhysicalOp::Project { .. } => cpu_ns += rows_in * CPU.project,
                    PhysicalOp::Sort { .. } => {
                        let per_task_rows = (rows_in / partitions as f64).max(2.0);
                        cpu_ns += rows_in * per_task_rows.log2() * CPU.sort_per_cmp;
                        working_set = working_set.max(bytes_in / partitions as f64);
                    }
                    PhysicalOp::SortMergeJoin { .. } => {
                        cpu_ns += rows_in * CPU.merge + rows_out * CPU.project;
                    }
                    PhysicalOp::BroadcastHashJoin { .. } => {
                        // The probe side flows through this stage; the build
                        // side arrives via the BroadcastExchange source.
                        let probe_rows = plan
                            .node(id)
                            .children
                            .first()
                            .map(|&c| metrics[c].rows_out * scale)
                            .unwrap_or(0.0);
                        cpu_ns += probe_rows * CPU.hash_probe + rows_out * CPU.project;
                    }
                    PhysicalOp::ShuffledHashJoin { .. } => {
                        let (probe_rows, build_rows, build_bytes) = {
                            let ch = &plan.node(id).children;
                            let p = ch.first().map(|&c| metrics[c].rows_out * scale).unwrap_or(0.0);
                            let b = ch.get(1).map(|&c| metrics[c].rows_out * scale).unwrap_or(0.0);
                            let bb =
                                ch.get(1).map(|&c| metrics[c].bytes_out * scale).unwrap_or(0.0);
                            (p, b, bb)
                        };
                        cpu_ns += build_rows * CPU.hash_build
                            + probe_rows * CPU.hash_probe
                            + rows_out * CPU.project;
                        working_set = working_set.max(build_bytes / partitions as f64);
                    }
                    PhysicalOp::HashAggregate { .. } => {
                        cpu_ns += rows_in * CPU.aggregate;
                        working_set =
                            working_set.max(metrics[id].bytes_out * scale / partitions as f64);
                    }
                    PhysicalOp::Limit { .. } => cpu_ns += rows_out * CPU.project,
                    // Exchanges never land in `nodes`.
                    PhysicalOp::ExchangeHash { .. }
                    | PhysicalOp::ExchangeSingle
                    | PhysicalOp::BroadcastExchange => unreachable!("exchange inside stage"),
                }
            }

            // Inputs: shuffle reads and broadcasts.
            for &src in &stage.sources {
                let m = &metrics[src];
                let bytes = m.bytes_out * scale;
                let rows = m.rows_out * scale;
                match &plan.node(src).op {
                    PhysicalOp::ExchangeHash { .. } | PhysicalOp::ExchangeSingle => {
                        net_read += bytes;
                        cpu_ns += rows * CPU.exchange_read;
                    }
                    PhysicalOp::BroadcastExchange => {
                        // Collect at driver, ship to every executor, build a
                        // hash relation once per executor (parallel).
                        let collect_s = bytes / (res.network_throughput_mbps * MB);
                        let ship_s = bytes * effective_executors as f64
                            / (res.network_throughput_mbps * MB * nodes_used as f64);
                        let build_s = rows * CPU.hash_build * 1e-9;
                        let mut one_off = collect_s + ship_s + build_s;
                        let cap = self.cfg.broadcast_cap_fraction * res.memory_per_executor_gb * GB;
                        if bytes > cap {
                            // The relation does not fit the broadcast cap:
                            // executors churn (GC storms, retries).
                            let ratio = bytes / cap;
                            one_off *= 1.0 + 3.0 * (ratio - 1.0);
                            disk_write += bytes; // forced to disk
                            broadcast_overflow = true;
                        }
                        fixed_s += one_off;
                    }
                    _ => unreachable!("stage source must be an exchange"),
                }
            }
            // Output: shuffle write.
            let mut shuffle_write = 0.0;
            if let Some(sink) = stage.sink {
                let m = &metrics[sink];
                shuffle_write = m.bytes_out * scale;
                disk_write += shuffle_write;
                cpu_ns += m.rows_out * scale * CPU.exchange_write;
            }

            // Spill: working set beyond the task's memory share goes to disk
            // once per extra merge pass.
            let spill = (working_set - task_mem_bytes).max(0.0);
            let mut stage_spill = 0.0;
            if spill > 0.0 {
                let passes = (working_set / task_mem_bytes).log2().ceil().max(1.0);
                stage_spill = spill * passes * partitions as f64;
                disk_write += stage_spill;
                disk_read += stage_spill;
                spill_total += stage_spill;
            }

            // GC: grows with heap size and memory pressure.
            let occupancy = (working_set / task_mem_bytes).clamp(0.0, 1.0);
            let gc_factor =
                self.cfg.gc_per_gb * res.memory_per_executor_gb * (0.3 + 0.7 * occupancy);

            let tasks = partitions.max(1);
            let waves = (tasks as f64 / slots as f64).ceil().max(1.0);
            // Bandwidth is shared among the tasks actually running
            // concurrently in this stage, not the theoretical slot count:
            // a single-partition stage gets a node's full bandwidth.
            let stage_concurrency = ((tasks.min(slots)) as f64 / nodes_used as f64).max(1.0);
            let disk_bw = res.disk_throughput_mbps * MB / stage_concurrency;
            let net_bw = res.network_throughput_mbps * MB / stage_concurrency;
            let cache_bw = self.cfg.cache_throughput_mbps * MB / stage_concurrency;
            let cpu_pt = cpu_ns * 1e-9 / tasks as f64 * cpu_slowdown * (1.0 + gc_factor);
            let stage_gc = cpu_ns * 1e-9 * gc_factor;
            gc_total += stage_gc;
            let read_pt = {
                let b = disk_read / tasks as f64;
                (1.0 - cache_hit) * b / disk_bw + cache_hit * b / cache_bw
            };
            let write_pt = disk_write / tasks as f64 / disk_bw;
            let net_pt = net_read / tasks as f64 / net_bw;
            let task_s = cpu_pt + read_pt + write_pt + net_pt;
            let stage_s = waves * task_s
                + self.cfg.stage_overhead_s
                + waves * self.cfg.wave_overhead_s
                + fixed_s;
            stage_seconds.push(stage_s);

            if let Some(job_id) = job_id {
                let rows: f64 = stage.nodes.iter().map(|&id| metrics[id].rows_in * scale).sum();
                // One representative task per stage: every task in a wave
                // is modelled identically, so a single task_end carries
                // the full per-task breakdown.
                telemetry::event(
                    "task_end",
                    &[
                        ("job_id", telemetry::Value::UInt(job_id)),
                        ("stage_id", telemetry::Value::UInt(stage_id as u64)),
                        ("task_id", telemetry::Value::UInt(0)),
                        ("seconds", telemetry::Value::F64(task_s)),
                        ("cpu_seconds", telemetry::Value::F64(cpu_pt)),
                        ("read_seconds", telemetry::Value::F64(read_pt)),
                        ("write_seconds", telemetry::Value::F64(write_pt)),
                        ("net_seconds", telemetry::Value::F64(net_pt)),
                    ],
                );
                telemetry::event(
                    "stage_completed",
                    &[
                        ("job_id", telemetry::Value::UInt(job_id)),
                        ("stage_id", telemetry::Value::UInt(stage_id as u64)),
                        ("tasks", telemetry::Value::UInt(tasks as u64)),
                        ("waves", telemetry::Value::F64(waves)),
                        ("seconds", telemetry::Value::F64(stage_s)),
                        ("rows", telemetry::Value::F64(rows)),
                        ("shuffle_read_bytes", telemetry::Value::F64(net_read)),
                        ("shuffle_write_bytes", telemetry::Value::F64(shuffle_write)),
                        ("spill_bytes", telemetry::Value::F64(stage_spill)),
                        ("gc_seconds", telemetry::Value::F64(stage_gc)),
                    ],
                );
            }
        }

        let mut seconds: f64 = self.cfg.driver_overhead_s + stage_seconds.iter().sum::<f64>();
        if self.cfg.noise_sigma > 0.0 {
            seconds *= lognormal_noise(seed, self.cfg.noise_sigma);
        }
        if let Some(job_id) = job_id {
            telemetry::event(
                "job_end",
                &[
                    ("job_id", telemetry::Value::UInt(job_id)),
                    ("seconds", telemetry::Value::F64(seconds)),
                    ("spill_bytes", telemetry::Value::F64(spill_total)),
                    ("gc_seconds", telemetry::Value::F64(gc_total)),
                    ("effective_executors", telemetry::Value::UInt(effective_executors as u64)),
                    ("cache_hit", telemetry::Value::F64(cache_hit)),
                    ("broadcast_overflow", telemetry::Value::Bool(broadcast_overflow)),
                ],
            );
            telemetry::count("sparksim.jobs.completed", 1);
        }
        sim_span.record("stages", stage_seconds.len() as u64);
        SimReport {
            seconds,
            stage_seconds,
            spill_bytes: spill_total,
            gc_seconds: gc_total,
            effective_executors,
            broadcast_overflow,
            cache_hit,
        }
    }

    fn stage_partitions(
        &self,
        plan: &PhysicalPlan,
        stage: &Stage,
        metrics: &[NodeMetrics],
        scale: f64,
    ) -> usize {
        // Shuffle-fed stages inherit the exchange's partitioning.
        let mut from_exchange: Option<usize> = None;
        for &src in &stage.sources {
            match &plan.node(src).op {
                PhysicalOp::ExchangeHash { partitions, .. } => {
                    from_exchange =
                        Some(from_exchange.map_or(*partitions, |p: usize| p.max(*partitions)));
                }
                PhysicalOp::ExchangeSingle => {
                    from_exchange = Some(from_exchange.map_or(1, |p: usize| p.max(1)));
                }
                PhysicalOp::BroadcastExchange => {}
                _ => {}
            }
        }
        if let Some(p) = from_exchange {
            return p.max(1);
        }
        // Leaf stages: partitions follow the input split size.
        let scan_bytes: f64 = stage
            .nodes
            .iter()
            .filter(|&&id| matches!(plan.node(id).op, PhysicalOp::FileScan { .. }))
            .map(|&id| metrics[id].bytes_in * scale)
            .sum();
        ((scan_bytes / self.cfg.bytes_per_partition).ceil() as usize).max(1)
    }
}

/// Splits a plan into stages at exchange boundaries, root stage first.
fn build_stages(plan: &PhysicalPlan) -> Vec<Stage> {
    let mut stages: Vec<Stage> = vec![Stage::default()];
    // Work list of (node, stage index).
    let mut work = vec![(plan.root(), 0usize)];
    while let Some((id, si)) = work.pop() {
        if plan.node(id).op.is_exchange() {
            stages[si].sources.push(id);
            let new_si = stages.len();
            stages.push(Stage { sink: Some(id), ..Stage::default() });
            for &c in &plan.node(id).children {
                work.push((c, new_si));
            }
        } else {
            stages[si].nodes.push(id);
            for &c in &plan.node(id).children {
                work.push((c, si));
            }
        }
    }
    stages
}

/// Deterministic multiplicative log-normal noise from a seed (Box–Muller
/// over a splitmix64 stream).
fn lognormal_noise(seed: u64, sigma: f64) -> f64 {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let u1 = ((next() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (next() >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::physical::{AggMode, PhysicalOp, PhysicalPlan};
    use crate::plan::spec::AggSpec;
    use crate::schema::ColumnRef;
    use crate::sql::ast::AggFunc;

    fn cluster() -> ClusterConfig {
        ClusterConfig::default()
    }

    fn res(executors: usize, cores: usize, mem: f64) -> ResourceConfig {
        ResourceConfig {
            executors,
            cores_per_executor: cores,
            memory_per_executor_gb: mem,
            network_throughput_mbps: 120.0,
            disk_throughput_mbps: 200.0,
        }
    }

    /// scan -> partial agg -> exchange single -> final agg
    fn agg_plan() -> (PhysicalPlan, Vec<NodeMetrics>) {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: None,
            },
            vec![],
            1e6,
            8e6,
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
        let metrics = vec![
            NodeMetrics {
                rows_out: 1e6,
                bytes_out: 8e6,
                rows_in: 1e6,
                bytes_in: 8e6,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: 1e6,
                bytes_in: 8e6,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: 1.0,
                bytes_in: 8.0,
            },
            NodeMetrics {
                rows_out: 1.0,
                bytes_out: 8.0,
                rows_in: 1.0,
                bytes_in: 8.0,
            },
        ];
        (p, metrics)
    }

    #[test]
    fn stages_split_at_exchanges() {
        let (p, _) = agg_plan();
        let stages = build_stages(&p);
        assert_eq!(stages.len(), 2);
        // Root stage reads from the exchange; leaf stage writes into it.
        assert_eq!(stages[0].sources.len(), 1);
        assert_eq!(stages[1].sink, Some(stages[0].sources[0]));
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (p, m) = agg_plan();
        let sim = CostSimulator::new(cluster(), SimulatorConfig::default());
        let r = res(2, 2, 4.0);
        assert_eq!(sim.simulate(&p, &m, &r, 7), sim.simulate(&p, &m, &r, 7));
        assert_ne!(sim.simulate(&p, &m, &r, 7), sim.simulate(&p, &m, &r, 8));
    }

    #[test]
    fn more_executors_do_not_hurt_a_parallel_scan() {
        let (p, mut m) = agg_plan();
        // A large scan that splits into many partitions.
        m[0].bytes_in = 8.0 * GB / SimulatorConfig::default().data_scale;
        m[0].rows_in = 1e8;
        let cfg = SimulatorConfig { noise_sigma: 0.0, ..SimulatorConfig::default() };
        let sim = CostSimulator::new(cluster(), cfg);
        let slow = sim.simulate(&p, &m, &res(1, 1, 2.0), 0);
        let fast = sim.simulate(&p, &m, &res(4, 2, 2.0), 0);
        assert!(fast < slow, "8 slots ({fast}s) should beat 1 slot ({slow}s)");
    }

    #[test]
    fn oversized_memory_prevents_placement() {
        let (p, m) = agg_plan();
        let sim = CostSimulator::new(cluster(), SimulatorConfig::default());
        let report = sim.simulate_report(&p, &m, &res(2, 2, 64.0), 0);
        assert_eq!(report.effective_executors, 0);
        assert!(report.seconds >= 3600.0);
    }

    #[test]
    fn large_memory_reduces_effective_executors() {
        let (p, m) = agg_plan();
        let cfg = SimulatorConfig { noise_sigma: 0.0, ..SimulatorConfig::default() };
        let sim = CostSimulator::new(cluster(), cfg);
        // 8 executors x 12 GB cannot fit on 4 x 16 GB nodes.
        let report = sim.simulate_report(&p, &m, &res(8, 2, 12.0), 0);
        assert!(report.effective_executors < 8);
    }

    #[test]
    fn broadcast_overflow_is_penalised() {
        let mut p = PhysicalPlan::new();
        let probe = p.add(
            PhysicalOp::FileScan {
                binding: "l".into(),
                table: "l".into(),
                output: vec![ColumnRef::new("l", "id")],
                pushed_filter: None,
            },
            vec![],
            1e6,
            8e6,
        );
        let build = p.add(
            PhysicalOp::FileScan {
                binding: "r".into(),
                table: "r".into(),
                output: vec![ColumnRef::new("r", "id")],
                pushed_filter: None,
            },
            vec![],
            1e6,
            8e6,
        );
        let bex = p.add(PhysicalOp::BroadcastExchange, vec![build], 1e6, 8e6);
        p.add(
            PhysicalOp::BroadcastHashJoin {
                probe_key: ColumnRef::new("l", "id"),
                build_key: ColumnRef::new("r", "id"),
            },
            vec![probe, bex],
            1e6,
            1.6e7,
        );
        let big = 2.0 * GB;
        let metrics = vec![
            NodeMetrics {
                rows_out: 1e6,
                bytes_out: 8e6,
                rows_in: 1e6,
                bytes_in: 8e6,
            },
            NodeMetrics {
                rows_out: 1e7,
                bytes_out: big,
                rows_in: 1e7,
                bytes_in: big,
            },
            NodeMetrics {
                rows_out: 1e7,
                bytes_out: big,
                rows_in: 1e7,
                bytes_in: big,
            },
            NodeMetrics {
                rows_out: 1e6,
                bytes_out: 1.6e7,
                rows_in: 1.1e7,
                bytes_in: big + 8e6,
            },
        ];
        let cfg = SimulatorConfig { noise_sigma: 0.0, ..SimulatorConfig::default() };
        let sim = CostSimulator::new(cluster(), cfg);
        // 1 GB executors: a 2 GB broadcast blows the cap.
        let small = sim.simulate_report(&p, &metrics, &res(2, 2, 1.0), 0);
        assert!(small.broadcast_overflow);
        // 12 GB executors (cap 2.4 GB): it fits.
        let large = sim.simulate_report(&p, &metrics, &res(2, 2, 12.0), 0);
        assert!(!large.broadcast_overflow);
        assert!(large.seconds < small.seconds);
    }

    #[test]
    fn gc_grows_with_heap() {
        let (p, mut m) = agg_plan();
        m[0].bytes_in = 4.0 * GB;
        m[0].rows_in = 5e7;
        let cfg = SimulatorConfig { noise_sigma: 0.0, ..SimulatorConfig::default() };
        let sim = CostSimulator::new(cluster(), cfg);
        let small = sim.simulate_report(&p, &m, &res(2, 2, 1.0), 0);
        let large = sim.simulate_report(&p, &m, &res(2, 2, 8.0), 0);
        assert!(large.gc_seconds > small.gc_seconds);
    }

    #[test]
    fn noise_is_small_and_multiplicative() {
        for seed in 0..50 {
            let f = lognormal_noise(seed, 0.05);
            assert!(f > 0.7 && f < 1.4, "noise factor {f} out of range");
        }
    }
}
