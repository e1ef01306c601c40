//! Online prediction-quality tracking and drift detection.
//!
//! A served cost model goes stale per workload (the Microsoft
//! retrofitting study's core finding), so quality has to be tracked
//! *per workload class*, not as one global gauge. [`QualityMonitor`] is
//! fed `(predicted, observed)` pairs as ground truth arrives and keeps,
//! per class:
//!
//! * a **rolling window** of recent errors — mean absolute error and
//!   Q-error (`max(pred/obs, obs/pred)`, the cost-model literature's
//!   scale-free metric, >= 1 with 1 = perfect);
//! * a **Page–Hinkley drift detector** over the Q-error stream: an
//!   alarm means the error level *shifted upward* — retrain, or at
//!   least stop trusting the model for that class.
//!
//! Page–Hinkley (Page 1954, the CUSUM family): with incremental mean
//! `x̄_t` of the observed statistic `x_t`, accumulate
//! `m_t = Σ_{i<=t} (x_i − x̄_i − δ)` and its running minimum `M_t`;
//! alarm when `m_t − M_t > λ`. δ absorbs tolerated wobble, λ sets the
//! evidence required — both in units of the statistic (Q-error here),
//! so the defaults are interpretable: `δ = 0.05` ignores sub-5% error
//! inflation, `λ = 2.0` demands the equivalent of ~10 samples running
//! 0.2 Q-error above the learned mean.
//!
//! The monitor itself has **no telemetry dependency in its math** — it
//! works (returns alarms, exposes stats) with telemetry disabled, so a
//! retraining loop can poll it directly. When telemetry *is* enabled it
//! additionally publishes per-class gauges to the live registry
//! (`monitor.mae.<class>`, `monitor.qerror.<class>`,
//! `monitor.drift.<class>`) and emits a `drift.alarm` event into the
//! JSONL log the moment a detector fires.

use crate::Value;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Rolling-window length per class (pairs kept for MAE / Q-error).
const WINDOW: usize = 64;
/// Page–Hinkley tolerated magnitude δ: drift smaller than this in the
/// Q-error mean never alarms.
const PH_DELTA: f64 = 0.05;
/// Page–Hinkley alarm threshold λ: accumulated positive deviation (in
/// Q-error units) required to fire.
const PH_LAMBDA: f64 = 2.0;
/// Samples a class must see before its detector may fire (the mean
/// estimate is meaningless at n = 1).
const MIN_SAMPLES: u64 = 8;

/// A drift alarm: the Page–Hinkley statistic for `class` crossed λ.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarm {
    /// Workload class whose detector fired.
    pub class: String,
    /// Samples the class had seen when it fired.
    pub samples: u64,
    /// Rolling mean absolute error at alarm time.
    pub mae: f64,
    /// Rolling mean Q-error at alarm time.
    pub q_error: f64,
    /// The Page–Hinkley statistic `m_t − M_t` that crossed λ.
    pub ph_statistic: f64,
}

/// Rolling quality stats for one class, from [`QualityMonitor::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Total pairs observed (not capped by the window).
    pub samples: u64,
    /// Mean absolute error over the rolling window.
    pub mae: f64,
    /// Mean Q-error over the rolling window.
    pub q_error_mean: f64,
    /// Largest Q-error in the rolling window.
    pub q_error_max: f64,
    /// Whether the drift detector has fired and not been reset.
    pub drifted: bool,
}

#[derive(Debug, Default)]
struct ClassState {
    /// Recent (|pred − obs|, q-error) pairs, capped at [`WINDOW`].
    recent: VecDeque<(f64, f64)>,
    samples: u64,
    /// Incremental mean of the Q-error stream (all samples).
    mean: f64,
    /// Page–Hinkley cumulative statistic `m_t`.
    ph_m: f64,
    /// Running minimum `M_t` of `ph_m`.
    ph_min: f64,
    drifted: bool,
}

impl ClassState {
    fn mae(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().map(|(a, _)| a).sum::<f64>() / self.recent.len() as f64
    }

    fn q_mean(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().map(|(_, q)| q).sum::<f64>() / self.recent.len() as f64
    }
}

/// Online per-class prediction-quality tracker with drift detection.
/// See the [module docs](self) for the math and the telemetry surface.
///
/// A retraining loop feeds it ground truth as it arrives and polls the
/// per-class verdicts — no telemetry required:
///
/// ```
/// use telemetry::monitor::QualityMonitor;
///
/// let mut monitor = QualityMonitor::new();
///
/// // A healthy class: predictions track observations.
/// for i in 0..100u64 {
///     let observed = 10.0 + (i % 7) as f64 / 10.0;
///     assert!(monitor.record("scan", observed * 1.02, observed).is_none());
/// }
/// let stats = monitor.stats("scan").unwrap();
/// assert_eq!(stats.samples, 100);
/// assert!(stats.q_error_mean < 1.1 && !stats.drifted);
///
/// // A stale class: observed times run away from the predictions, and
/// // the Page–Hinkley detector fires exactly once.
/// let mut alarms = 0;
/// for i in 0..60u64 {
///     if let Some(alarm) = monitor.record("join", 10.0, 10.0 + i as f64) {
///         assert_eq!(alarm.class, "join");
///         alarms += 1;
///     }
/// }
/// assert_eq!(alarms, 1);
/// assert!(monitor.is_drifted("join") && !monitor.is_drifted("scan"));
///
/// // After retraining, `reset` re-arms the class.
/// monitor.reset("join");
/// assert!(!monitor.is_drifted("join"));
/// ```
#[derive(Debug, Default)]
pub struct QualityMonitor {
    classes: BTreeMap<String, ClassState>,
}

/// Q-error of one prediction: `max(pred/obs, obs/pred)`, with both
/// sides clamped away from zero so a degenerate pair stays finite.
///
/// ```
/// assert_eq!(telemetry::monitor::q_error(10.0, 10.0), 1.0);
/// assert_eq!(telemetry::monitor::q_error(5.0, 10.0), 2.0); // symmetric
/// assert_eq!(telemetry::monitor::q_error(10.0, 5.0), 2.0);
/// assert!(telemetry::monitor::q_error(0.0, 3.0).is_finite());
/// ```
pub fn q_error(predicted: f64, observed: f64) -> f64 {
    let p = predicted.abs().max(1e-9);
    let o = observed.abs().max(1e-9);
    (p / o).max(o / p)
}

impl QualityMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one `(predicted, observed)` pair for `class`. Returns the
    /// drift alarm if this sample fired the class's detector (each
    /// detector fires once until [`reset`](Self::reset)). A pair with a
    /// non-finite side is skipped: it returns `None` and leaves the
    /// class as it was, since one `inf` would turn the detector's mean
    /// into `inf`, then `NaN`, and disarm it for good.
    pub fn record(&mut self, class: &str, predicted: f64, observed: f64) -> Option<DriftAlarm> {
        if !(predicted.is_finite() && observed.is_finite()) {
            return None;
        }
        let q = q_error(predicted, observed);
        let abs_err = (predicted - observed).abs();
        let st = self.classes.entry(class.to_string()).or_default();
        st.samples += 1;
        st.recent.push_back((abs_err, q));
        while st.recent.len() > WINDOW {
            st.recent.pop_front();
        }
        // Page–Hinkley update on the Q-error stream.
        st.mean += (q - st.mean) / st.samples as f64;
        st.ph_m += q - st.mean - PH_DELTA;
        st.ph_min = st.ph_min.min(st.ph_m);
        let ph_stat = st.ph_m - st.ph_min;
        let fired = !st.drifted && st.samples >= MIN_SAMPLES && ph_stat > PH_LAMBDA;
        if fired {
            st.drifted = true;
        }
        let (mae, q_mean, samples) = (st.mae(), st.q_mean(), st.samples);

        // Best-effort live publication; every call below is a no-op
        // when telemetry is disabled.
        crate::count("monitor.samples", 1);
        crate::gauge(&format!("monitor.mae.{class}"), mae);
        crate::gauge(&format!("monitor.qerror.{class}"), q_mean);
        if fired {
            crate::gauge(&format!("monitor.drift.{class}"), 1.0);
            crate::count("monitor.drift.alarms", 1);
            crate::event(
                "drift.alarm",
                &[
                    ("class", Value::Str(class.to_string())),
                    ("samples", Value::UInt(samples)),
                    ("mae", Value::F64(mae)),
                    ("q_error", Value::F64(q_mean)),
                    ("ph_statistic", Value::F64(ph_stat)),
                ],
            );
            return Some(DriftAlarm {
                class: class.to_string(),
                samples,
                mae,
                q_error: q_mean,
                ph_statistic: ph_stat,
            });
        }
        None
    }

    /// Rolling stats for a class, if it has seen any samples.
    pub fn stats(&self, class: &str) -> Option<ClassStats> {
        let st = self.classes.get(class)?;
        Some(ClassStats {
            samples: st.samples,
            mae: st.mae(),
            q_error_mean: st.q_mean(),
            q_error_max: st.recent.iter().map(|(_, q)| *q).fold(0.0, f64::max),
            drifted: st.drifted,
        })
    }

    /// Whether a class's detector has fired (and not been reset).
    pub fn is_drifted(&self, class: &str) -> bool {
        self.classes.get(class).is_some_and(|s| s.drifted)
    }

    /// The classes seen so far, in sorted order.
    pub fn classes(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    /// Re-arms a class after retraining: clears its detector state and
    /// rolling window (the error distribution is expected to change)
    /// and flips `monitor.drift.<class>` back to 0.
    pub fn reset(&mut self, class: &str) {
        if let Some(st) = self.classes.get_mut(class) {
            *st = ClassState::default();
            crate::gauge(&format!("monitor.drift.{class}"), 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-1, 1] (no rand dependency).
    fn noise(seed: u64, i: u64) -> f64 {
        let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        (x % 2_000_000) as f64 / 1_000_000.0 - 1.0
    }

    #[test]
    fn q_error_is_scale_free_and_bounded_below() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(20.0, 10.0), 2.0);
        assert_eq!(q_error(10.0, 20.0), 2.0);
        assert!(q_error(0.0, 5.0).is_finite());
    }

    #[test]
    fn stationary_noise_never_alarms() {
        let mut m = QualityMonitor::new();
        for i in 0..2_000u64 {
            // Predictions within ±10% of the observation: a healthy,
            // noisy, *stationary* model.
            let obs = 10.0 + noise(7, i);
            let pred = obs * (1.0 + 0.1 * noise(11, i));
            assert!(m.record("scan", pred, obs).is_none(), "false alarm at sample {i}");
        }
        let stats = m.stats("scan").unwrap();
        assert!(!stats.drifted);
        assert!(stats.q_error_mean < 1.2);
    }

    #[test]
    fn upward_error_shift_fires_once() {
        let mut m = QualityMonitor::new();
        for i in 0..200u64 {
            let obs = 10.0 + noise(3, i);
            let pred = obs * (1.0 + 0.05 * noise(5, i));
            assert!(m.record("join", pred, obs).is_none());
        }
        // Workload shift: the observed times double, predictions don't.
        let mut alarms = 0;
        let mut fired_at = None;
        for i in 0..100u64 {
            let obs = 20.0 + 2.0 * noise(3, i);
            let pred = 10.0 * (1.0 + 0.05 * noise(5, i));
            if let Some(alarm) = m.record("join", pred, obs) {
                alarms += 1;
                fired_at = Some(i);
                assert_eq!(alarm.class, "join");
                assert!(alarm.q_error > 1.0, "window already worse than perfect");
                assert!(alarm.ph_statistic > 2.0);
            }
        }
        assert_eq!(alarms, 1, "detector fires exactly once until reset");
        assert!(fired_at.unwrap() < 50, "should fire within ~50 shifted samples");
        assert!(m.is_drifted("join"));
        // By the end of the shifted phase the rolling window itself has
        // visibly degraded, not just the detector statistic.
        let stats = m.stats("join").unwrap();
        assert!(stats.q_error_max > 1.8, "window max q-error: {}", stats.q_error_max);
        assert!(stats.q_error_mean > 1.5, "window mean q-error: {}", stats.q_error_mean);
    }

    #[test]
    fn classes_are_isolated() {
        let mut m = QualityMonitor::new();
        for i in 0..100u64 {
            let obs = 10.0 + noise(3, i);
            m.record("healthy", obs * 1.02, obs);
            m.record("sick", obs * (2.0 + (i as f64 / 25.0)), obs);
        }
        assert!(m.is_drifted("sick"));
        assert!(!m.is_drifted("healthy"));
        assert_eq!(m.classes(), vec!["healthy", "sick"]);
    }

    #[test]
    fn reset_rearms_the_detector() {
        let mut m = QualityMonitor::new();
        for i in 0..60u64 {
            m.record("c", 10.0, 10.0 + i as f64); // runaway error
        }
        assert!(m.is_drifted("c"));
        m.reset("c");
        assert!(!m.is_drifted("c"));
        assert_eq!(m.stats("c").unwrap().samples, 0);
        // It can fire again on a fresh shift.
        let mut fired = false;
        for i in 0..120u64 {
            fired |= m.record("c", 10.0, 10.0 + 2.0 * i as f64).is_some();
        }
        assert!(fired, "reset detector fires on a new shift");
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let mut m = QualityMonitor::new();
        for i in 0..MIN_SAMPLES - 1 {
            // Violent errors, but under the warmup count.
            assert!(m.record("w", 1.0, 100.0 + i as f64).is_none());
        }
    }

    #[test]
    fn a_non_finite_pair_is_skipped_and_leaves_the_detector_armed() {
        let mut m = QualityMonitor::new();
        for _ in 0..50 {
            assert!(m.record("c", 10.0, 10.0).is_none());
        }
        let before = m.stats("c");
        for (predicted, observed) in
            [(10.0, f64::INFINITY), (f64::NAN, 10.0), (f64::NEG_INFINITY, f64::NAN)]
        {
            assert!(m.record("c", predicted, observed).is_none());
        }
        assert!(m.record("fresh", f64::INFINITY, 1.0).is_none());
        assert_eq!(m.stats("c"), before);
        assert_eq!(m.classes(), vec!["c"]);
        // Ten times the error: the detector still fires.
        let fired = (0..500).filter(|_| m.record("c", 10.0, 100.0).is_some()).count();
        assert_eq!(fired, 1);
    }
}
