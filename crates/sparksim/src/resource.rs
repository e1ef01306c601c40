//! Cluster and per-application resource configurations (the paper's
//! Tables I and III), their normalised feature encoding (Eq. 1), and
//! resource-grid generation for data collection.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Physical cluster configuration (Table III analogue: 4 nodes, 4 cores,
/// 16 GB each).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Physical cores per node.
    pub cores_per_node: usize,
    /// Main memory per node, GB.
    pub memory_per_node_gb: f64,
    /// Peak sequential disk throughput per node, MB/s.
    pub disk_throughput_mbps: f64,
    /// Peak network throughput per node, MB/s.
    pub network_throughput_mbps: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // The paper's evaluation cluster: 4 nodes x 4 cores x 16 GB,
        // cloud block storage and gigabit-class networking.
        Self {
            nodes: 4,
            cores_per_node: 4,
            memory_per_node_gb: 16.0,
            disk_throughput_mbps: 200.0,
            network_throughput_mbps: 120.0,
        }
    }
}

impl ClusterConfig {
    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// Resources allocated to one application (Table I): the features the
/// RAAL model consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceConfig {
    /// Number of executors.
    pub executors: usize,
    /// Cores per executor (concurrent tasks per executor).
    pub cores_per_executor: usize,
    /// Memory per executor, GB.
    pub memory_per_executor_gb: f64,
    /// Real-time available network throughput, MB/s (shared cloud tenancy
    /// can push this below the hardware peak).
    pub network_throughput_mbps: f64,
    /// Real-time available disk throughput, MB/s.
    pub disk_throughput_mbps: f64,
}

impl ResourceConfig {
    /// A sane mid-grid default: 2 executors x 2 cores x 4 GB.
    pub fn default_for(cluster: &ClusterConfig) -> Self {
        Self {
            executors: 2,
            cores_per_executor: 2,
            memory_per_executor_gb: 4.0,
            network_throughput_mbps: cluster.network_throughput_mbps,
            disk_throughput_mbps: cluster.disk_throughput_mbps,
        }
    }

    /// Total task slots.
    pub fn total_slots(&self) -> usize {
        self.executors * self.cores_per_executor
    }

    /// The paper's Eq. 1 encoding: each feature divided by its maximum
    /// available value on the cluster, in Table I order
    /// `[node, core, executor, e-core, e-memory, n-throughput, d-throughput]`.
    pub fn feature_vector(&self, cluster: &ClusterConfig) -> Vec<f32> {
        self.feature_array(cluster).to_vec()
    }

    /// [`Self::feature_vector`] as a fixed-size array, for callers that
    /// encode per request and must not allocate.
    pub fn feature_array(&self, cluster: &ClusterConfig) -> [f32; Self::NUM_FEATURES] {
        // 1 core per executor minimum
        let max_executors = cluster.total_cores() as f64;
        [
            // The full set of nodes (and their cores) hosts every
            // application, so the first two Table I features saturate.
            1.0,
            1.0,
            (self.executors as f64 / max_executors) as f32,
            (self.cores_per_executor as f64 / cluster.cores_per_node as f64) as f32,
            (self.memory_per_executor_gb / cluster.memory_per_node_gb) as f32,
            (self.network_throughput_mbps / cluster.network_throughput_mbps) as f32,
            (self.disk_throughput_mbps / cluster.disk_throughput_mbps) as f32,
        ]
    }

    /// Number of features produced by [`ResourceConfig::feature_vector`].
    pub const NUM_FEATURES: usize = 7;
}

/// Generates the resource states a query is observed under during data
/// collection — the cloud-tenancy variation of the paper's Sec. V-A.
#[derive(Debug, Clone)]
pub struct ResourceGrid {
    /// Executor counts to sweep.
    pub executors: Vec<usize>,
    /// Cores-per-executor values to sweep.
    pub cores_per_executor: Vec<usize>,
    /// Memory sizes (GB) to sweep.
    pub memory_gb: Vec<f64>,
    /// Relative jitter applied to network/disk throughput to mimic noisy
    /// neighbours (0.0 = none).
    pub throughput_jitter: f64,
}

impl Default for ResourceGrid {
    fn default() -> Self {
        Self {
            executors: vec![1, 2, 3, 4, 6, 8],
            cores_per_executor: vec![1, 2, 4],
            memory_gb: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            throughput_jitter: 0.25,
        }
    }
}

impl ResourceGrid {
    /// All grid points (without jitter).
    pub fn enumerate(&self, cluster: &ClusterConfig) -> Vec<ResourceConfig> {
        let mut out = Vec::new();
        for &e in &self.executors {
            for &c in &self.cores_per_executor {
                for &m in &self.memory_gb {
                    out.push(ResourceConfig {
                        executors: e,
                        cores_per_executor: c,
                        memory_per_executor_gb: m,
                        network_throughput_mbps: cluster.network_throughput_mbps,
                        disk_throughput_mbps: cluster.disk_throughput_mbps,
                    });
                }
            }
        }
        out
    }

    /// Samples one random grid point with throughput jitter — one
    /// "real-time resource state" observation.
    pub fn sample(&self, cluster: &ClusterConfig, rng: &mut impl Rng) -> ResourceConfig {
        let e = self.executors[rng.gen_range(0..self.executors.len())];
        let c = self.cores_per_executor[rng.gen_range(0..self.cores_per_executor.len())];
        let m = self.memory_gb[rng.gen_range(0..self.memory_gb.len())];
        let jitter = |rng: &mut dyn rand::RngCore, base: f64| {
            let f = 1.0 - self.throughput_jitter * rng.gen_range(0.0..1.0);
            base * f
        };
        ResourceConfig {
            executors: e,
            cores_per_executor: c,
            memory_per_executor_gb: m,
            network_throughput_mbps: jitter(rng, cluster.network_throughput_mbps),
            disk_throughput_mbps: jitter(rng, cluster.disk_throughput_mbps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn feature_vector_is_normalised() {
        let cluster = ClusterConfig::default();
        let res = ResourceConfig::default_for(&cluster);
        let f = res.feature_vector(&cluster);
        assert_eq!(f.len(), ResourceConfig::NUM_FEATURES);
        assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)), "{f:?}");
    }

    #[test]
    fn total_slots_is_executors_times_cores() {
        let r = ResourceConfig {
            executors: 3,
            cores_per_executor: 2,
            memory_per_executor_gb: 4.0,
            network_throughput_mbps: 100.0,
            disk_throughput_mbps: 200.0,
        };
        assert_eq!(r.total_slots(), 6);
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let grid = ResourceGrid {
            executors: vec![1, 2],
            cores_per_executor: vec![1],
            memory_gb: vec![2.0, 4.0],
            throughput_jitter: 0.0,
        };
        let pts = grid.enumerate(&ClusterConfig::default());
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn sample_respects_jitter_bounds() {
        let cluster = ClusterConfig::default();
        let grid = ResourceGrid::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = grid.sample(&cluster, &mut rng);
            assert!(r.network_throughput_mbps <= cluster.network_throughput_mbps);
            assert!(
                r.network_throughput_mbps
                    >= cluster.network_throughput_mbps * (1.0 - grid.throughput_jitter) - 1e-9
            );
            assert!(grid.executors.contains(&r.executors));
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let cluster = ClusterConfig::default();
        let grid = ResourceGrid::default();
        let a = grid.sample(&cluster, &mut StdRng::seed_from_u64(9));
        let b = grid.sample(&cluster, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
