//! The traced phase: spans recorded *by the benchmark* around each call
//! into a layer — name, start, end, parent, request id — kept in memory
//! and written to `trace.json` when the run ends. Spans inside the
//! program are a later change.
//!
//! Per request id there are two root spans:
//!
//! * `shard.predict` around the served call, and
//! * `replay`, whose children push the *same request* directly through
//!   the layers a served call crosses on the way to its answer:
//!   `encoding.encode`, `sparksim.feature_vector`,
//!   `baselines.gpsj_estimate` and `raal.model.predict_packed`.
//!
//! What the served call took beyond the replayed layers — two thread
//! hops, queueing, admission, reply — is `unattributed_us`: the served
//! median minus the replay children's medians, reported unclamped so a
//! negative value exposes a measurement error instead of hiding it.

use crate::calib::Speedometer;
use crate::check::{FailReason, Tally};
use crate::drive::{ClientState, Load, WINDOW_NS};
use crate::fixture::Fixture;
use crate::stats;
use encoding::EncodedPlan;
use std::io::Write as _;
use std::path::Path;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span list.
#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = telemetry::clock_ns();
        self.spans
            .push(Span { name, start_ns: now, end_ns: now, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = telemetry::clock_ns();
    }

    /// Durations of every span called `name`, ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Self times of every span called `name`, ascending: a span's
    /// duration minus the part its direct children cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                covered[parent] += s.dur_ns();
            }
        }
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, covered)| s.dur_ns().saturating_sub(covered))
            .collect();
        v.sort_unstable();
        v
    }

    /// Writes the spans as one JSON array, one object per span.
    pub fn write_trace_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

pub const SERVED: &str = "shard.predict";
pub const REPLAY: &str = "replay";
pub const REPLAY_ENCODE: &str = "encoding.encode";
pub const REPLAY_FEATURES: &str = "sparksim.feature_vector";
pub const REPLAY_GPSJ: &str = "baselines.gpsj_estimate";
pub const REPLAY_PACKED: &str = "raal.model.predict_packed";

/// What the traced phase measured. The recorder (and `trace.json`) holds
/// the spans as the clock read them; the accessors bring their medians to
/// reference speed like every other time the benchmark reports.
pub struct Traced {
    pub recorder: Recorder,
    pub requests: u64,
    /// Seconds spent serving and replaying, calibrations excluded.
    pub wall_s: f64,
    /// How much slower than the reference machine the phase ran: the mean
    /// over its calibrated stretches.
    pub slowdown: f64,
    pub tally: Tally,
}

impl Traced {
    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::percentile(&self.recorder.durations_ns(name), 0.5) as f64 / 1e3 / self.slowdown
    }

    /// Median self time of the spans called `name`, in microseconds.
    pub fn median_self_us(&self, name: &str) -> f64 {
        stats::percentile(&self.recorder.self_times_ns(name), 0.5) as f64 / 1e3 / self.slowdown
    }

    /// Traced-and-replayed requests completed per second.
    pub fn calls_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s * self.slowdown
    }

    /// Served median minus the replayed layers' medians.
    pub fn unattributed_us(&self) -> f64 {
        self.median_us(SERVED)
            - [REPLAY_ENCODE, REPLAY_FEATURES, REPLAY_GPSJ, REPLAY_PACKED]
                .iter()
                .map(|name| self.median_us(name))
                .sum::<f64>()
    }
}

/// Runs one client closed-loop for `dur_ns` with every request traced
/// and replayed. With a single client each dispatched batch holds exactly
/// this request, so the served value must equal the replayed
/// `predict_packed` value bit for bit; a difference is a failed call.
pub fn traced_phase(
    load: &Load<'_>,
    fixture: &Fixture,
    state: &mut ClientState,
    dur_ns: u64,
) -> Traced {
    let frozen = load
        .service
        .model()
        .expect("a healthy service exposes its frozen model");
    let cluster = fixture.cluster();
    let mut rec = Recorder::default();
    let mut tally = Tally::default();
    let mut request = 0u64;
    // Stretches of one window length with a calibration on either side,
    // like the windows of the untraced phase.
    let mut speed = Speedometer::start();
    let mut slowdowns = Vec::new();
    let mut busy_ns = 0;
    while busy_ns < dur_ns {
        let stretch_start = telemetry::clock_ns();
        while telemetry::clock_ns() - stretch_start < WINDOW_NS {
            let req = &load.stream.requests[state.cursor];

            let served = rec.open(SERVED, None, request);
            let (preds, outcome) = load.call(&state.tenant, state.cursor);
            rec.close(served);

            let replay = rec.open(REPLAY, None, request);
            let s = rec.open(REPLAY_ENCODE, Some(replay), request);
            let encoded: Vec<EncodedPlan> =
                req.plans.iter().map(|p| fixture.encoder.encode(p)).collect();
            rec.close(s);
            let s = rec.open(REPLAY_FEATURES, Some(replay), request);
            let feats = req.resources.feature_vector(cluster);
            rec.close(s);
            let s = rec.open(REPLAY_GPSJ, Some(replay), request);
            for p in &req.plans {
                std::hint::black_box(fixture.gpsj.estimate_seconds(p, &req.resources));
            }
            rec.close(s);
            let s = rec.open(REPLAY_PACKED, Some(replay), request);
            let items: Vec<(&EncodedPlan, &[f32])> =
                encoded.iter().map(|e| (e, feats.as_slice())).collect();
            let replayed = frozen.predict_packed(&items);
            rec.close(s);
            rec.close(replay);

            let same = preds.iter().map(|p| p.seconds).eq(replayed.iter().copied());
            tally.tally_call(outcome.and(if same {
                Ok(())
            } else {
                Err(FailReason::ReplayMismatch)
            }));
            state.cursor = (state.cursor + 1) % load.stream.len();
            request += 1;
        }
        busy_ns += telemetry::clock_ns() - stretch_start;
        slowdowns.push(speed.lap());
    }
    Traced {
        recorder: rec,
        requests: request,
        wall_s: busy_ns as f64 * 1e-9,
        slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let rec = Recorder {
            spans: vec![
                span(REPLAY, 0, 1_000, None),
                span(REPLAY_ENCODE, 10, 410, Some(0)),
                span(REPLAY_PACKED, 500, 900, Some(0)),
                span(SERVED, 2_000, 2_500, None),
            ],
        };
        assert_eq!(rec.self_times_ns(REPLAY), vec![200]);
        assert_eq!(rec.self_times_ns(SERVED), vec![500]);
        assert_eq!(rec.durations_ns(REPLAY_ENCODE), vec![400]);
    }

    #[test]
    fn unattributed_is_the_served_median_minus_the_replayed_medians_unclamped() {
        let mut spans = Vec::new();
        for (served, encode) in [(300_000, 100_000), (310_000, 110_000), (290_000, 90_000)] {
            spans.push(span(SERVED, 0, served, None));
            spans.push(span(REPLAY_ENCODE, 0, encode, None));
            spans.push(span(REPLAY_FEATURES, 0, 1_000, None));
            spans.push(span(REPLAY_GPSJ, 0, 2_000, None));
            spans.push(span(REPLAY_PACKED, 0, 70_000, None));
        }
        let traced = Traced {
            recorder: Recorder { spans },
            requests: 3,
            wall_s: 1.0,
            slowdown: 1.0,
            tally: Tally::default(),
        };
        assert_eq!(traced.median_us(SERVED), 300.0);
        let sum = traced.median_us(REPLAY_ENCODE)
            + traced.median_us(REPLAY_FEATURES)
            + traced.median_us(REPLAY_GPSJ)
            + traced.median_us(REPLAY_PACKED);
        assert_eq!(sum + traced.unattributed_us(), traced.median_us(SERVED));
        assert_eq!(traced.unattributed_us(), 127.0);

        // A replay slower than the served call shows as a negative number.
        let traced = Traced {
            recorder: Recorder {
                spans: vec![span(SERVED, 0, 50_000, None), span(REPLAY_PACKED, 0, 70_000, None)],
            },
            requests: 1,
            wall_s: 1.0,
            slowdown: 1.0,
            tally: Tally::default(),
        };
        assert_eq!(traced.unattributed_us(), -20.0);

        // A slow machine stretches every span alike; the identity holds
        // at reference speed too.
        let traced = Traced { slowdown: 2.0, ..traced };
        assert_eq!(traced.unattributed_us(), -10.0);
        assert_eq!(traced.calls_per_s(), 2.0);
    }

    #[test]
    fn trace_json_holds_one_object_per_span() {
        let rec = Recorder {
            spans: vec![span(REPLAY, 5, 9, None), span(REPLAY_GPSJ, 6, 7, Some(0))],
        };
        let dir = std::env::temp_dir().join(format!("raal_benchmark_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        rec.write_trace_file(&path).unwrap();
        let parsed: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let serde::Value::Array(items) = parsed else {
            panic!("trace.json is not an array")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").and_then(crate::report::as_f64), Some(0.0));
        assert_eq!(items[0].get("parent"), Some(&serde::Value::Null));
        assert_eq!(items[1].get("name"), Some(&serde::Value::Str(REPLAY_GPSJ.to_string())));
    }
}
