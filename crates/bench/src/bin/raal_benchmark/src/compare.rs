//! `--compare A B`: applies the bounds from `BENCHMARK.json` to two sets
//! of results and says, per end-to-end metric and workload, whether B is
//! the `same` as A, `worse`, `better`, or `unresolved` — the run-to-run
//! spread is wider than the bound, so the runs cannot tell.
//!
//! A result set is a file of JSON lines as written by `--append`: the
//! run's result line plus its `workload` and thread `placement`.
//!
//! Failed calls gate as well: a change that sheds load or falls back to
//! the analytical model gets *faster*, so a side whose failed share
//! exceeds [`FAILED_SHARE_BOUND`], or that has a run with
//! `correct: false`, is `worse` whatever its timings say.

use crate::report::{as_array, as_f64, as_str};
use crate::stats;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Failed ÷ attempted calls a side may show per workload (absolute, not a
/// share of the other side: the seed commit's value is 0).
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// An end-to-end metric's declared direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B's may be worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What the correctness gate counted over one side's runs of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    /// Runs whose result line said `correct: false`.
    pub incorrect_runs: u64,
}

impl Calls {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn passes(&self) -> bool {
        self.incorrect_runs == 0 && self.failed_share() <= FAILED_SHARE_BOUND
    }
}

/// Runs of one side.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// Metric values, keyed by (workload, metric).
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Call counts, keyed by workload.
    pub calls: BTreeMap<String, Calls>,
    /// Every thread placement the runs were made under.
    pub placements: BTreeSet<String>,
}

pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let file: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let entries = file
        .get("end_to_end")
        .and_then(as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(as_str).ok_or("metric without a name")?;
            let better = e.get("better").and_then(as_str).ok_or("metric without 'better'")?;
            let bound = e.get("bound").and_then(as_f64).ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = run
            .get("workload")
            .and_then(as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let count = |key: &str| {
            run.get(key)
                .and_then(as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("line {}: no '{key}' count", n + 1))
        };
        let calls = set.calls.entry(workload.to_string()).or_default();
        calls.attempted += count("attempted")?;
        calls.failed += count("failed")?;
        calls.incorrect_runs += u64::from(run.get("correct") != Some(&Value::Bool(true)));
        if let Some(placement) = run.get("placement").and_then(as_str) {
            set.placements.insert(placement.to_string());
        }
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics object", n + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// How B's runs compare with A's under `bound`.
///
/// * spread (IQR ÷ median) of either side wider than the bound →
///   `unresolved`, unless every run of B is on one side of every run of A
///   (then the runs *can* tell, whatever their spread);
/// * B's median worse than A's by more than the bound → `worse`;
/// * B's median better than A's by more than the spread between A's own
///   runs (its IQR) → `better`;
/// * otherwise `same`.
pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(qa), Some(qb)) = (stats::quartiles(a), stats::quartiles(b)) else {
        return Verdict::Unresolved;
    };
    // Positive when B is worse.
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let worsening = sign * (qb[1] - qa[1]);
    let beyond_bound = worsening > bound.bound * qa[1].abs();
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs();
    if spread(&qa) > bound.bound || spread(&qb) > bound.bound {
        let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst(b) < best(a) {
            Verdict::Better
        } else if best(b) > worst(a) && beyond_bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if beyond_bound {
        Verdict::Worse
    } else if -worsening > qa[2] - qa[0] {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn describe(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("n={} (too few runs)", values.len()),
    }
}

/// B's failures against the absolute bound: `worse` when B fails the
/// gate, `better` when only A did, else `same`.
pub fn failure_verdict(a: &Calls, b: &Calls) -> Verdict {
    match (a.passes(), b.passes()) {
        (_, false) => Verdict::Worse,
        (false, true) => Verdict::Better,
        (true, true) => Verdict::Same,
    }
}

/// Two sets can be compared only if every run of both was made under one
/// thread placement: a run that could not place its threads measured
/// another regime (see the README), not another program.
pub fn same_placement(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    let all: BTreeSet<&String> = a.placements.iter().chain(&b.placements).collect();
    if all.len() > 1 {
        return Err(format!(
            "the runs were made under different thread placements ({all:?}); they do not compare"
        ));
    }
    Ok(())
}

/// Prints the table and returns how many pairings were `worse` and how
/// many `unresolved`.
pub fn compare(bounds: &[Bound], a: &ResultSet, b: &ResultSet) -> (usize, usize) {
    let (mut worse, mut unresolved) = (0, 0);
    let workloads: BTreeSet<&String> = a.calls.keys().chain(b.calls.keys()).collect();
    println!(
        "{:<16} {:<24} {:<11} {:>8}  A: median [q1, q3]  |  B: median [q1, q3]",
        "workload", "metric", "verdict", "change"
    );
    for workload in workloads {
        for bound in bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let v = verdict(bound, va, vb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let change = (stats::median(vb) / stats::median(va) - 1.0) * 100.0;
            println!(
                "{:<16} {:<24} {:<11} {:>+7.2}%  {}  |  {}   (bound {:.0}%, {} is better)",
                workload,
                bound.name,
                v.name(),
                change,
                describe(va),
                describe(vb),
                bound.bound * 100.0,
                if bound.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            );
        }
        if let (Some(ca), Some(cb)) = (a.calls.get(workload), b.calls.get(workload)) {
            let v = failure_verdict(ca, cb);
            worse += usize::from(v == Verdict::Worse);
            let side = |c: &Calls| {
                format!(
                    "{} of {} calls failed, {} incorrect runs",
                    c.failed, c.attempted, c.incorrect_runs
                )
            };
            println!(
                "{:<16} {:<24} {:<11} {:>8}  {}  |  {}   (absolute bound {})",
                workload,
                "failed_share",
                v.name(),
                "",
                side(ca),
                side(cb),
                FAILED_SHARE_BOUND,
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    (worse, unresolved)
}

/// Entry point of `--compare`; the process exit code.
pub fn run(a_path: &Path, b_path: &Path, bounds_path: &Path) -> Result<i32, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let bounds = parse_bounds(&read(bounds_path)?)?;
    let a = parse_result_set(&read(a_path)?).map_err(|e| format!("{}: {e}", a_path.display()))?;
    let b = parse_result_set(&read(b_path)?).map_err(|e| format!("{}: {e}", b_path.display()))?;
    same_placement(&a, &b)?;
    let (worse, _) = compare(&bounds, &a, &b);
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "throughput_plans_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    ]}"#;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|&v| run_line(workload, metric, v, 1_000, 0, "split"))
            .collect()
    }

    fn run_line(
        workload: &str,
        metric: &str,
        value: f64,
        attempted: u64,
        failed: u64,
        placement: &str,
    ) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"placement\":\"{placement}\",\"correct\":{},\
             \"attempted\":{attempted},\"failed\":{failed},\
             \"metrics\":{{\"{metric}\":{{\"value\":{value},\"unit\":\"us\"}}}}}}\n",
            failed == 0
        )
    }

    fn verdict_of(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        let bound = bounds.iter().find(|b| b.name == metric).unwrap();
        let a = parse_result_set(&runs("w", metric, a)).unwrap();
        let b = parse_result_set(&runs("w", metric, b)).unwrap();
        let key = ("w".to_string(), metric.to_string());
        verdict(bound, &a.values[&key], &b.values[&key])
    }

    const STEADY: [f64; 5] = [220.0, 221.0, 222.0, 223.0, 224.0];

    #[test]
    fn bounds_and_result_sets_parse() {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(!bounds[0].higher_is_better && bounds[1].higher_is_better);
        assert_eq!(bounds[0].bound, 0.1);
        let set = parse_result_set(&runs("w", "latency_p50_us", &[1.0, 2.5])).unwrap();
        assert_eq!(set.values[&("w".to_string(), "latency_p50_us".to_string())], vec![1.0, 2.5]);
        assert_eq!(set.calls["w"], Calls { attempted: 2_000, failed: 0, incorrect_runs: 0 });
        assert_eq!(set.placements.len(), 1);
        assert!(parse_result_set("{\"metrics\":{}}").is_err());
        assert!(parse_result_set("{\"workload\":\"w\",\"metrics\":{}}").is_err());
        assert!(parse_result_set("not json").is_err());
    }

    #[test]
    fn same_when_inside_the_bound_and_the_noise() {
        assert_eq!(verdict_of("latency_p50_us", &STEADY, &STEADY), Verdict::Same);
        let slightly_slower = STEADY.map(|x| x * 1.05);
        assert_eq!(verdict_of("latency_p50_us", &STEADY, &slightly_slower), Verdict::Same);
    }

    #[test]
    fn worse_and_better_respect_the_direction() {
        let slower = STEADY.map(|x| x * 1.2);
        let faster = STEADY.map(|x| x * 0.8);
        assert_eq!(verdict_of("latency_p50_us", &STEADY, &slower), Verdict::Worse);
        assert_eq!(verdict_of("latency_p50_us", &STEADY, &faster), Verdict::Better);
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(verdict_of("throughput_plans_per_s", &STEADY, &slower), Verdict::Better);
        assert_eq!(verdict_of("throughput_plans_per_s", &STEADY, &faster), Verdict::Worse);
    }

    #[test]
    fn unresolved_when_the_spread_is_wider_than_the_bound() {
        let noisy = [180.0, 200.0, 220.0, 250.0, 290.0];
        assert_eq!(verdict_of("latency_p50_us", &noisy, &STEADY), Verdict::Unresolved);
        assert_eq!(verdict_of("latency_p50_us", &STEADY, &noisy), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let clearly_faster = noisy.map(|x| x * 0.5);
        assert_eq!(verdict_of("latency_p50_us", &noisy, &clearly_faster), Verdict::Better);
        let clearly_slower = noisy.map(|x| x * 2.0);
        assert_eq!(verdict_of("latency_p50_us", &noisy, &clearly_slower), Verdict::Worse);
        // One run cannot show a spread at all.
        assert_eq!(verdict_of("latency_p50_us", &[220.0], &[220.0]), Verdict::Unresolved);
    }

    #[test]
    fn a_faster_side_that_fails_calls_is_worse() {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        let a = parse_result_set(&runs("w", "latency_p50_us", &STEADY)).unwrap();
        // Twice as fast, but 5 of 2000 calls fell back: 0.0025 > 0.001.
        let shed: String = [110.0, 111.0]
            .iter()
            .map(|&v| {
                run_line("w", "latency_p50_us", v, 1_000, if v == 110.0 { 5 } else { 0 }, "split")
            })
            .collect();
        let b = parse_result_set(&shed).unwrap();
        assert_eq!(b.calls["w"], Calls { attempted: 2_000, failed: 5, incorrect_runs: 1 });
        assert_eq!(failure_verdict(&a.calls["w"], &b.calls["w"]), Verdict::Worse);
        assert_eq!(failure_verdict(&b.calls["w"], &a.calls["w"]), Verdict::Better);
        assert_eq!(compare(&bounds, &a, &b).0, 1);
        // One failure in 2000 calls is inside the share bound, but the run
        // that had it said `correct: false`, and that alone gates.
        let one: String = run_line("w", "latency_p50_us", 220.0, 2_000, 1, "split");
        let b = parse_result_set(&one).unwrap();
        assert!(b.calls["w"].failed_share() <= FAILED_SHARE_BOUND);
        assert_eq!(failure_verdict(&a.calls["w"], &b.calls["w"]), Verdict::Worse);
        assert_eq!(failure_verdict(&a.calls["w"], &a.calls["w"]), Verdict::Same);
    }

    #[test]
    fn sets_made_under_different_placements_do_not_compare() {
        let a = parse_result_set(&run_line("w", "latency_p50_us", 220.0, 10, 0, "split")).unwrap();
        let b = parse_result_set(&run_line("w", "latency_p50_us", 220.0, 10, 0, "free")).unwrap();
        assert!(same_placement(&a, &a).is_ok());
        assert!(same_placement(&a, &b).unwrap_err().contains("placements"));
    }

    #[test]
    fn the_table_counts_worse_and_unresolved_pairings() {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        let mut a_text = runs("probe_unique", "latency_p50_us", &STEADY);
        a_text += &runs("select_k", "latency_p50_us", &STEADY);
        a_text += &runs("select_k", "throughput_plans_per_s", &[180.0, 200.0, 220.0, 250.0, 290.0]);
        let mut b_text = runs("probe_unique", "latency_p50_us", &STEADY.map(|x| x * 1.3));
        b_text += &runs("select_k", "latency_p50_us", &STEADY);
        b_text += &runs("select_k", "throughput_plans_per_s", &STEADY);
        let a = parse_result_set(&a_text).unwrap();
        let b = parse_result_set(&b_text).unwrap();
        assert_eq!(compare(&bounds, &a, &b), (1, 1));
    }
}
