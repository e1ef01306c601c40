//! Micro-model baseline — per-operator learned cost models in the style
//! of CLEO/Microlearner (the paper's Sec. II "query optimization for big
//! data processing"): instead of one end-to-end deep network, fit small
//! per-operator models over optimizer statistics and combine them
//! additively.
//!
//! Concretely: each plan is featurised as, per operator type, the summed
//! `log(1+est_rows)` and `log(1+est_bytes)` of its nodes, concatenated
//! with the normalised resource vector and a bias; a closed-form ridge
//! regression maps that to the normalised-log cost. This sits between
//! GPSJ (no learning) and RAAL (deep, structure-aware): it learns
//! calibration but cannot see plan structure or node interactions.

use raal::model::{denormalize_seconds, normalize_seconds};
use serde::{Deserialize, Serialize};
use sparksim::plan::physical::PhysicalPlan;
use sparksim::resource::{ClusterConfig, ResourceConfig};

/// Operator vocabulary (must cover every `PhysicalOp::name`).
const OPS: [&str; 12] = [
    "FileScan",
    "Filter",
    "Project",
    "ExchangeHashPartition",
    "ExchangeSinglePartition",
    "BroadcastExchange",
    "Sort",
    "SortMergeJoin",
    "BroadcastHashJoin",
    "ShuffledHashJoin",
    "HashAggregate",
    "CollectLimit",
];

/// Feature width: 2 per operator type + resources + bias.
pub const NUM_FEATURES: usize = 2 * OPS.len() + ResourceConfig::NUM_FEATURES + 1;

/// Ridge strength that generalises well for this featurisation. The
/// features are unstandardised log-scale sums of O(1) magnitude over a few
/// hundred training rows, so an O(1) penalty is the right scale; weaker
/// penalties (1e-4 and below) overfit the operator columns and lose to the
/// hand-tuned GPSJ formulas on held-out queries.
pub const DEFAULT_RIDGE: f64 = 1.0;

/// A fitted micro-model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroModel {
    weights: Vec<f64>,
    /// Ridge regularisation used at fit time.
    pub ridge: f64,
}

/// Featurises one (plan, resources) pair.
pub fn features(plan: &PhysicalPlan, res: &ResourceConfig, cluster: &ClusterConfig) -> Vec<f64> {
    let mut f = vec![0.0f64; NUM_FEATURES];
    for node in plan.nodes() {
        if let Some(i) = OPS.iter().position(|&o| o == node.op.name()) {
            f[2 * i] += (1.0 + node.est_rows.max(0.0)).ln() / 30.0;
            f[2 * i + 1] += (1.0 + node.est_bytes.max(0.0)).ln() / 40.0;
        }
    }
    for (j, &r) in res.feature_vector(cluster).iter().enumerate() {
        f[2 * OPS.len() + j] = r as f64;
    }
    *f.last_mut().expect("bias slot") = 1.0;
    f
}

impl MicroModel {
    /// Fits the model on (plan, resources, seconds) records by solving the
    /// ridge-regularised normal equations.
    pub fn fit<'a>(
        records: impl Iterator<Item = (&'a PhysicalPlan, &'a ResourceConfig, f64)>,
        cluster: &ClusterConfig,
        ridge: f64,
    ) -> Self {
        let rows = records.map(|(plan, res, seconds)| {
            (features(plan, res, cluster), normalize_seconds(seconds) as f64)
        });
        let weights = ridge_fit(rows, NUM_FEATURES, ridge);
        Self { weights, ridge }
    }

    /// Predicts seconds for a plan under resources.
    pub fn predict_seconds(
        &self,
        plan: &PhysicalPlan,
        res: &ResourceConfig,
        cluster: &ClusterConfig,
    ) -> f64 {
        let x = features(plan, res, cluster);
        let y: f64 = x.iter().zip(&self.weights).map(|(a, b)| a * b).sum();
        denormalize_seconds(y as f32)
    }
}

/// Closed-form ridge regression: the `w` of `(XᵀX + ridge·I) w = Xᵀy` over
/// `rows` of `d` features and a target each, by Gaussian elimination with
/// partial pivoting (the system is tiny). Panics if `rows` is empty.
pub fn ridge_fit(rows: impl Iterator<Item = (Vec<f64>, f64)>, d: usize, ridge: f64) -> Vec<f64> {
    let (mut a, mut b) = (vec![0.0f64; d * d], vec![0.0f64; d]);
    let mut n = 0usize;
    for (x, y) in rows {
        for i in 0..d {
            b[i] += x[i] * y;
            for j in 0..d {
                a[i * d + j] += x[i] * x[j];
            }
        }
        n += 1;
    }
    assert!(n > 0, "a ridge fit requires at least one record");
    for i in 0..d {
        a[i * d + i] += ridge;
    }
    for col in 0..d {
        let mut pivot = col;
        for r in col + 1..d {
            if a[r * d + col].abs() > a[pivot * d + col].abs() {
                pivot = r;
            }
        }
        for c in 0..d {
            a.swap(col * d + c, pivot * d + c);
        }
        b.swap(col, pivot);
        let p = a[col * d + col];
        if p.abs() < 1e-12 {
            continue;
        }
        for r in 0..d {
            if r == col {
                continue;
            }
            let f = a[r * d + col] / p;
            for c in col..d {
                a[r * d + c] -= f * a[col * d + c];
            }
            b[r] -= f * b[col];
        }
    }
    (0..d)
        .map(|i| {
            let p = a[i * d + i];
            if p.abs() < 1e-12 {
                0.0
            } else {
                b[i] / p
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparksim::plan::physical::{AggMode, PhysicalOp};
    use sparksim::plan::spec::AggSpec;
    use sparksim::schema::ColumnRef;
    use sparksim::sql::ast::AggFunc;

    fn plan(rows: f64) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "t".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: None,
            },
            vec![],
            rows,
            rows * 8.0,
        );
        let aggs = vec![AggSpec { func: AggFunc::Count, arg: None }];
        let pa = p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: aggs.clone(),
            },
            vec![scan],
            1.0,
            8.0,
        );
        let ex = p.add(PhysicalOp::ExchangeSingle, vec![pa], 1.0, 8.0);
        p.add(
            PhysicalOp::HashAggregate { mode: AggMode::Final, group_by: vec![], aggs },
            vec![ex],
            1.0,
            8.0,
        );
        p
    }

    fn res() -> ResourceConfig {
        ResourceConfig::default_for(&ClusterConfig::default())
    }

    #[test]
    fn features_cover_all_operators_and_bias() {
        let f = features(&plan(100.0), &res(), &ClusterConfig::default());
        assert_eq!(f.len(), NUM_FEATURES);
        assert_eq!(*f.last().unwrap(), 1.0);
        // FileScan rows/bytes slots populated.
        assert!(f[0] > 0.0 && f[1] > 0.0);
    }

    #[test]
    fn fits_a_monotone_cost() {
        // Synthetic: cost grows with scan rows.
        let cluster = ClusterConfig::default();
        let plans: Vec<PhysicalPlan> = (1..40).map(|i| plan(i as f64 * 1e5)).collect();
        let r = res();
        let records: Vec<(&PhysicalPlan, &ResourceConfig, f64)> = plans
            .iter()
            .map(|p| (p, &r, 2.0 + p.node(0).est_rows / 1e5))
            .collect();
        let model = MicroModel::fit(records.iter().map(|&(p, r, s)| (p, r, s)), &cluster, 1e-6);
        let small = model.predict_seconds(&plan(1e5), &r, &cluster);
        let large = model.predict_seconds(&plan(35e5), &r, &cluster);
        assert!(large > small, "{small} vs {large}");
        // Interpolation should be in the right ballpark.
        let mid = model.predict_seconds(&plan(20e5), &r, &cluster);
        assert!((mid - 22.0).abs() < 8.0, "mid prediction {mid}");
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn fit_rejects_empty() {
        let _ = MicroModel::fit(std::iter::empty(), &ClusterConfig::default(), 1e-6);
    }
}
