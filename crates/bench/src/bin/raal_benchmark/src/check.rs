//! The correctness gate: every answer is checked, violations are counted
//! by reason and reported — never `assert!`-aborted mid-run, so a broken
//! build still produces numbers next to its failure count.
//!
//! * every prediction must come from the deep model and be finite — a
//!   run that quietly fell back to the analytical model would "win" on
//!   latency while measuring nothing;
//! * on a fixed sample of the cycle the served (int8) value must stay
//!   within the repo's quantisation budget of the autodiff-tape
//!   reference: [`QUANT_REL_BUDGET`] relative error in log-seconds space
//!   with a unit floor, the same gate `bench_inference` and the
//!   `quant_infer` property test apply;
//! * on `select_k` the served argmin must equal the reference argmin,
//!   near-ties within [`NEAR_TIE`] excepted.

use crate::fixture::Fixture;
use crate::stream::Stream;
use raal::{PredictionSource, ServingPrediction};

pub const QUANT_REL_BUDGET: f64 = 0.15;
pub const NEAR_TIE: f64 = 0.05;
/// Requests of the cycle that carry a tape reference (at least this many
/// when the cycle is long enough; evenly spaced so every client meets
/// them).
pub const CHECK_SAMPLE: usize = 512;

/// Why a call was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// Wrong number of predictions for the plans sent.
    WrongCount,
    /// A prediction came from the fallback, not the model.
    NotModel,
    /// A prediction was NaN or infinite.
    NonFinite,
    /// Outside the quantisation budget of the tape reference.
    QuantBudget,
    /// `select_k` picked another plan than the reference, beyond a near-tie.
    Argmin,
    /// Traced run only: the served value differs from the same request
    /// replayed straight through `FrozenModel::predict_packed`.
    ReplayMismatch,
}

impl FailReason {
    pub const ALL: [FailReason; 6] = [
        FailReason::WrongCount,
        FailReason::NotModel,
        FailReason::NonFinite,
        FailReason::QuantBudget,
        FailReason::Argmin,
        FailReason::ReplayMismatch,
    ];

    /// The per-layer metric this reason is counted under.
    pub fn metric(self) -> &'static str {
        match self {
            FailReason::WrongCount => "client.failed.wrong_count",
            FailReason::NotModel => "client.failed.not_model",
            FailReason::NonFinite => "client.failed.non_finite",
            FailReason::QuantBudget => "client.failed.quant_budget",
            FailReason::Argmin => "client.failed.argmin",
            FailReason::ReplayMismatch => "client.failed.replay_mismatch",
        }
    }
}

/// Calls attempted and failed, by reason. A call fails at most once (its
/// first violated rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub by_reason: [u64; 6],
}

impl Tally {
    pub fn tally_call(&mut self, outcome: Result<(), FailReason>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.by_reason[reason as usize] += 1;
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (mine, theirs) in self.by_reason.iter_mut().zip(other.by_reason) {
            *mine += theirs;
        }
    }

    pub fn failed(&self) -> u64 {
        self.by_reason.iter().sum()
    }
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Relative error in log-seconds space with a unit floor.
fn log_rel_error(served: f64, reference: f64) -> f64 {
    let (ys, yr) = ((1.0 + served).ln(), (1.0 + reference).ln());
    (ys - yr).abs() / yr.abs().max(1.0)
}

/// Checks one call's answers against the rules above; `reference` is the
/// tape's seconds per plan when the request is in the check sample.
pub fn check_call(
    plans_sent: usize,
    preds: &[ServingPrediction],
    reference: Option<&[f64]>,
) -> Result<(), FailReason> {
    if preds.len() != plans_sent {
        return Err(FailReason::WrongCount);
    }
    if preds.iter().any(|p| p.source != PredictionSource::Model) {
        return Err(FailReason::NotModel);
    }
    if preds.iter().any(|p| !p.seconds.is_finite()) {
        return Err(FailReason::NonFinite);
    }
    let Some(reference) = reference else {
        return Ok(());
    };
    if preds
        .iter()
        .zip(reference)
        .any(|(p, &r)| log_rel_error(p.seconds, r) > QUANT_REL_BUDGET)
    {
        return Err(FailReason::QuantBudget);
    }
    if preds.len() > 1 {
        let served: Vec<f64> = preds.iter().map(|p| p.seconds).collect();
        let (ri, si) = (argmin(reference), argmin(&served));
        let near_tie = (reference[ri] - reference[si]).abs()
            <= NEAR_TIE * reference[ri].max(reference[si]).max(1e-9);
        if ri != si && !near_tie {
            return Err(FailReason::Argmin);
        }
    }
    Ok(())
}

/// Tape references for the check sample of one stream.
pub struct Checker {
    /// Per request of the cycle: the tape's seconds per plan, if sampled.
    references: Vec<Option<Vec<f64>>>,
}

impl Checker {
    pub fn build(fixture: &Fixture, stream: &Stream<'_>) -> Self {
        let stride = (stream.len() / CHECK_SAMPLE).max(1);
        let cluster = fixture.cluster();
        let references = stream
            .requests
            .iter()
            .enumerate()
            .map(|(pos, req)| {
                (pos % stride == 0).then(|| {
                    let feats = req.resources.feature_vector(cluster);
                    req.plans
                        .iter()
                        .map(|plan| {
                            let encoded = fixture.encoder.encode(plan);
                            fixture.model.predict_seconds_tape(&encoded, &feats)
                        })
                        .collect()
                })
            })
            .collect();
        Self { references }
    }

    /// Requests of the cycle that carry a reference.
    pub fn sample_size(&self) -> usize {
        self.references.iter().flatten().count()
    }

    pub fn check(
        &self,
        pos: usize,
        plans_sent: usize,
        preds: &[ServingPrediction],
    ) -> Result<(), FailReason> {
        check_call(plans_sent, preds, self.references[pos].as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raal::FallbackReason;

    fn model(seconds: f64) -> ServingPrediction {
        ServingPrediction { seconds, source: PredictionSource::Model }
    }

    #[test]
    fn source_and_shape_are_checked_on_every_call() {
        assert_eq!(check_call(1, &[model(3.0)], None), Ok(()));
        assert_eq!(check_call(2, &[model(3.0)], None), Err(FailReason::WrongCount));
        let shed = ServingPrediction {
            seconds: 3.0,
            source: PredictionSource::Fallback(FallbackReason::Busy),
        };
        assert_eq!(check_call(1, &[shed], None), Err(FailReason::NotModel));
        assert_eq!(check_call(1, &[model(f64::NAN)], None), Err(FailReason::NonFinite));
    }

    #[test]
    fn quant_budget_is_relative_in_log_space_with_a_unit_floor() {
        // ln(1+100) = 4.615; 15% of it is 0.69 → 1+x in [50.6, 201.5].
        assert_eq!(check_call(1, &[model(150.0)], Some(&[100.0])), Ok(()));
        assert_eq!(check_call(1, &[model(300.0)], Some(&[100.0])), Err(FailReason::QuantBudget));
        // Small values: the floor makes the budget absolute (0.15 nats).
        assert_eq!(check_call(1, &[model(0.11)], Some(&[0.0])), Ok(()));
        assert_eq!(check_call(1, &[model(0.2)], Some(&[0.0])), Err(FailReason::QuantBudget));
    }

    #[test]
    fn argmin_may_differ_only_inside_the_near_tie_band() {
        let reference = [10.0, 10.4, 30.0];
        let same = [model(10.1), model(10.5), model(29.0)];
        assert_eq!(check_call(3, &same, Some(&reference)), Ok(()));
        // Served picks plan 1: references 10.0 vs 10.4 are within 5%.
        let swapped = [model(10.4), model(10.0), model(29.0)];
        assert_eq!(check_call(3, &swapped, Some(&reference)), Ok(()));
        // Served picks plan 1 although the reference separates them by 20%.
        let reference = [10.0, 12.0, 30.0];
        let wrong = [model(11.2), model(11.0), model(29.0)];
        assert_eq!(check_call(3, &wrong, Some(&reference)), Err(FailReason::Argmin));
    }

    #[test]
    fn a_call_fails_once_and_tallies_add_up() {
        let mut a = Tally::default();
        a.tally_call(Ok(()));
        a.tally_call(Err(FailReason::Argmin));
        let mut b = Tally::default();
        b.tally_call(Err(FailReason::NotModel));
        a.merge(&b);
        assert_eq!(a.attempted, 3);
        assert_eq!(a.failed(), 2);
        assert_eq!(a.by_reason[FailReason::Argmin as usize], 1);
        for (i, r) in FailReason::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i);
        }
    }
}
