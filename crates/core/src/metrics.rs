//! Evaluation metrics of the paper's Sec. V-A: relative error (Eq. 12),
//! mean squared error (Eq. 13), Pearson correlation (Eq. 14) and the
//! coefficient of determination R² (Eq. 15), plus Eqs. 14–15 over
//! `ln(1 + seconds)`, where one heavy-tailed plan cannot dominate them.

use crate::train::training_transform;

/// Paired actual/estimated costs for a test set.
#[derive(Debug, Clone, Default)]
pub struct EvalSet {
    actual: Vec<f64>,
    estimated: Vec<f64>,
}

impl EvalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from paired vectors.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn from_pairs(actual: Vec<f64>, estimated: Vec<f64>) -> Self {
        assert_eq!(actual.len(), estimated.len(), "paired vectors required");
        Self { actual, estimated }
    }

    /// Records one pair.
    pub fn push(&mut self, actual: f64, estimated: f64) {
        self.actual.push(actual);
        self.estimated.push(estimated);
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.actual.len()
    }

    /// True when no pairs are recorded.
    pub fn is_empty(&self) -> bool {
        self.actual.is_empty()
    }

    /// Underlying pairs (actual, estimated).
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.actual.iter().copied().zip(self.estimated.iter().copied())
    }

    /// Mean relative error `|ac − es| / ac` (Eq. 12). Pairs with a
    /// non-positive actual cost are skipped.
    pub fn relative_error(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (ac, es) in self.pairs() {
            if ac > 0.0 {
                sum += (ac - es).abs() / ac;
                n += 1;
            }
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Mean squared error (Eq. 13) over a transform of the costs. The
    /// paper reports MSE on normalised costs; pass the same transform used
    /// for training (e.g. `log1p`) to match.
    pub fn mse_with(&self, transform: impl Fn(f64) -> f64) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        self.pairs()
            .map(|(ac, es)| {
                let d = transform(ac) - transform(es);
                d * d
            })
            .sum::<f64>()
            / self.len() as f64
    }

    /// Plain MSE on raw costs.
    pub fn mse(&self) -> f64 {
        self.mse_with(|x| x)
    }

    /// Pearson correlation between actual and estimated costs (Eq. 14).
    pub fn correlation(&self) -> f64 {
        if self.len() < 2 {
            return f64::NAN;
        }
        let n = self.len() as f64;
        let ma = self.actual.iter().sum::<f64>() / n;
        let me = self.estimated.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut ve = 0.0;
        for (ac, es) in self.pairs() {
            cov += (ac - ma) * (es - me);
            va += (ac - ma) * (ac - ma);
            ve += (es - me) * (es - me);
        }
        if va == 0.0 || ve == 0.0 {
            return 0.0;
        }
        cov / (va.sqrt() * ve.sqrt())
    }

    /// Coefficient of determination R² (Eq. 15). Can be negative for
    /// models worse than predicting the mean.
    pub fn r_squared(&self) -> f64 {
        if self.len() < 2 {
            return f64::NAN;
        }
        let n = self.len() as f64;
        let ma = self.actual.iter().sum::<f64>() / n;
        let ss_res: f64 = self.pairs().map(|(ac, es)| (ac - es) * (ac - es)).sum();
        let ss_tot: f64 = self.actual.iter().map(|ac| (ac - ma) * (ac - ma)).sum();
        if ss_tot == 0.0 {
            return 0.0;
        }
        1.0 - ss_res / ss_tot
    }

    /// The same pairs as `ln(1 + seconds)`.
    pub fn log_space(&self) -> EvalSet {
        Self {
            actual: self.actual.iter().map(|x| x.ln_1p()).collect(),
            estimated: self.estimated.iter().map(|x| x.ln_1p()).collect(),
        }
    }

    /// Every table's metrics at once: RE, MSE on the training transform,
    /// and COR / R² in raw and in log space.
    pub fn summary(&self) -> MetricSummary {
        let log = self.log_space();
        MetricSummary {
            re: self.relative_error(),
            mse: self.mse_with(training_transform),
            cor: self.correlation(),
            r2: self.r_squared(),
            cor_log: log.correlation(),
            r2_log: log.r_squared(),
        }
    }
}

/// The four metrics the paper reports in every table, and COR / R² over
/// `ln(1 + seconds)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Relative error.
    pub re: f64,
    /// Mean squared error (on the training transform).
    pub mse: f64,
    /// Pearson correlation.
    pub cor: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Pearson correlation over `ln(1 + seconds)`.
    pub cor_log: f64,
    /// Coefficient of determination over `ln(1 + seconds)`.
    pub r2_log: f64,
}

impl std::fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RE={:.4} MSE={:.4} COR={:.4} R2={:.4} COR_log={:.4} R2_log={:.4}",
            self.re, self.mse, self.cor, self.r2, self.cor_log, self.r2_log
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let e = EvalSet::from_pairs(vec![1.0, 2.0, 4.0], vec![1.0, 2.0, 4.0]);
        assert_eq!(e.relative_error(), 0.0);
        assert_eq!(e.mse(), 0.0);
        assert!((e.correlation() - 1.0).abs() < 1e-12);
        assert!((e.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_hand_computed() {
        let e = EvalSet::from_pairs(vec![10.0, 20.0], vec![8.0, 25.0]);
        // (2/10 + 5/20)/2 = 0.225
        assert!((e.relative_error() - 0.225).abs() < 1e-12);
    }

    #[test]
    fn mse_hand_computed() {
        let e = EvalSet::from_pairs(vec![1.0, 3.0], vec![2.0, 1.0]);
        assert!((e.mse() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn anti_correlated_predictions() {
        let e = EvalSet::from_pairs(vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]);
        assert!((e.correlation() + 1.0).abs() < 1e-12);
        assert!(e.r_squared() < 0.0, "worse than the mean predictor");
    }

    #[test]
    fn constant_actuals_are_degenerate_not_nan() {
        let e = EvalSet::from_pairs(vec![2.0, 2.0], vec![1.0, 3.0]);
        assert_eq!(e.correlation(), 0.0);
        assert_eq!(e.r_squared(), 0.0);
    }

    #[test]
    fn zero_actuals_skipped_in_re() {
        let e = EvalSet::from_pairs(vec![0.0, 10.0], vec![5.0, 10.0]);
        assert_eq!(e.relative_error(), 0.0);
    }

    #[test]
    fn one_outlier_sinks_raw_r2_but_not_log_r2() {
        // Twenty plans predicted within 10%, and one 1000 s plan predicted
        // at 3000 s: its squared error outweighs the raw variance.
        let mut actual: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut estimated: Vec<f64> = actual.iter().map(|a| a * 1.1).collect();
        actual.push(1000.0);
        estimated.push(3000.0);
        let s = EvalSet::from_pairs(actual, estimated).summary();
        assert!(s.r2 < 0.0, "raw R² {}", s.r2);
        assert!(s.r2_log > 0.9, "log R² {}", s.r2_log);
        assert!(s.cor_log > 0.95, "log COR {}", s.cor_log);
    }

    #[test]
    fn mse_with_transform() {
        let e = EvalSet::from_pairs(vec![9.0], vec![99.0]);
        let mse = e.mse_with(|x| (1.0 + x).ln());
        let d = (10.0f64.ln() - 100.0f64.ln()).powi(2);
        assert!((mse - d).abs() < 1e-12);
    }
}
