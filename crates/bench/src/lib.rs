//! # bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index). This library holds the shared plumbing: argument
//! parsing, dataset/engine construction at two scales (`--full` ≈ paper
//! scale, default = reduced-but-shape-preserving), the standard
//! collect→encode→train pipeline, TSV output, and the `BENCH_*.json`
//! report + `--check` ratchet of `bench_inference`.

#![warn(missing_docs)]

use encoding::word2vec::W2vConfig;
use encoding::{EncoderConfig, PlanEncoder};
use raal::dataset::{collect, Collection, CollectionConfig};
use raal::{CostModel, ModelConfig, TrainConfig};
use serde::Serialize;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use workloads::querygen::QueryGenConfig;
use workloads::FkGraph;

/// Command-line options shared by every harness.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Paper-scale run (slow) instead of the reduced default.
    pub full: bool,
    /// Output directory for TSV result files.
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
}

impl HarnessOpts {
    /// Parses `--full`, `--out <dir>` and `--seed <n>` from `std::env`.
    ///
    /// Also activates telemetry from `RAAL_TELEMETRY`/`RAAL_TRACE_OUT`
    /// and stamps the run manifest, so every harness is observable
    /// without per-binary wiring.
    pub fn from_env() -> Self {
        telemetry::init_from_env();
        let mut opts = Self {
            full: false,
            out_dir: PathBuf::from("results"),
            seed: 42,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => opts.full = true,
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(args.get(i).expect("--out needs a value"));
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .expect("--seed needs a value")
                        .parse()
                        .expect("--seed must be an integer");
                }
                other => panic!("unknown argument '{other}' (use --full / --out DIR / --seed N)"),
            }
            i += 1;
        }
        telemetry::manifest(&[
            ("bench_full", telemetry::Value::Bool(opts.full)),
            ("bench_seed", telemetry::Value::UInt(opts.seed)),
            ("bench_out_dir", telemetry::Value::Str(opts.out_dir.display().to_string())),
        ]);
        opts
    }
}

/// Workload identity for harness pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IMDB-like (JOB) dataset.
    Imdb,
    /// TPC-H-like dataset.
    Tpch,
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::Imdb => write!(f, "IMDB"),
            Workload::Tpch => write!(f, "TPC-H"),
        }
    }
}

/// A workload bound to an engine whose simulator is scaled to the paper's
/// dataset size.
pub struct Bench {
    /// The engine (catalog + planner + simulator).
    pub engine: Engine,
    /// FK graph for query generation.
    pub graph: FkGraph,
    /// Which workload this is.
    pub workload: Workload,
}

/// Builds a workload engine. Reduced scale keeps every harness minutes-
/// fast; `--full` approaches the paper's row counts.
pub fn build_bench(workload: Workload, full: bool, seed: u64) -> Bench {
    let cluster = ClusterConfig::default();
    let (catalog, graph, scale) = match workload {
        Workload::Imdb => {
            let rows = if full { 20_000 } else { 2_000 };
            let data =
                workloads::imdb::generate(&workloads::imdb::ImdbConfig { title_rows: rows, seed });
            let scale = data.simulated_scale();
            (data.catalog, data.graph, scale)
        }
        Workload::Tpch => {
            let rows = if full { 6_000 } else { 800 };
            let data = workloads::tpch::generate(&workloads::tpch::TpchConfig {
                customer_rows: rows,
                seed,
            });
            let scale = data.simulated_scale();
            (data.catalog, data.graph, scale)
        }
    };
    let sim_cfg = SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() };
    let engine = Engine::with_options(catalog, planner_options(scale), cluster, sim_cfg);
    Bench { engine, graph, workload }
}

/// Planner options with the broadcast threshold expressed at the
/// *deployed* data scale: estimated plan bytes are unscaled (the catalog
/// holds the scaled-down tables), so Catalyst's 10 MB threshold must be
/// divided by the simulator's `data_scale`.
pub fn planner_options(data_scale: f64) -> PlannerOptions {
    PlannerOptions::scaled_to(data_scale)
}

/// Standard collection sizes: the paper gathers 63k records (IMDB) and
/// 50k (TPC-H); the reduced default keeps the same structure at ~1/40.
pub fn collection_config(workload: Workload, full: bool, seed: u64) -> CollectionConfig {
    let num_queries = match (workload, full) {
        (Workload::Imdb, true) => 6000,
        (Workload::Imdb, false) => 120,
        (Workload::Tpch, true) => 5000,
        (Workload::Tpch, false) => 100,
    };
    CollectionConfig {
        num_queries,
        resource_states_per_plan: 3,
        runs_per_observation: 3,
        querygen: QueryGenConfig::default(),
        grid: sparksim::ResourceGrid::default(),
        seed,
        threads: 0,
    }
}

/// Standard training configuration.
pub fn train_config(full: bool, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: if full { 25 } else { 35 },
        lr: 1.5e-3,
        batch_size: 32,
        clip_norm: 5.0,
        seed,
        threads: 0,
    }
}

/// Standard word2vec configuration.
pub fn w2v_config(full: bool) -> W2vConfig {
    W2vConfig {
        dim: 32,
        epochs: if full { 4 } else { 2 },
        ..W2vConfig::default()
    }
}

/// The standard pipeline: collect → word2vec → encode.
pub struct Pipeline {
    /// Raw collection.
    pub collection: Collection,
    /// Trained encoder.
    pub encoder: PlanEncoder,
    /// Encoded samples.
    pub samples: Vec<encoding::Sample>,
}

/// Runs the standard pipeline for a workload.
pub fn run_pipeline(bench: &Bench, full: bool, seed: u64, structure: bool) -> Pipeline {
    let cfg = collection_config(bench.workload, full, seed);
    let collection = collect(&bench.engine, &bench.graph, &cfg);
    let encoder = collection
        .build_encoder(&w2v_config(full), EncoderConfig { structure, ..EncoderConfig::default() });
    let samples = collection.encode(&encoder, &bench.engine);
    Pipeline { collection, encoder, samples }
}

/// Builds a RAAL-family model sized for harness runs.
pub fn build_model(cfg: ModelConfig) -> CostModel {
    CostModel::new(cfg)
}

/// Writes a TSV file with a header row, creating the directory as needed.
///
/// A `<name>.manifest.json` sidecar records the run identity (run id, git
/// sha, config, and the kernel tier latencies were taken on) next to
/// each result file — a sidecar rather than a TSV column so downstream
/// TSV consumers stay untouched. It is written even when telemetry is
/// disabled: result provenance should not depend on tracing being on.
pub fn write_tsv(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create results file");
    writeln!(f, "{}", header.join("\t")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join("\t")).expect("write row");
    }
    let manifest = telemetry::manifest_json(&[
        ("result_file", telemetry::Value::Str(name.to_string())),
        ("result_rows", telemetry::Value::UInt(rows.len() as u64)),
        ("kernel_tier", telemetry::Value::Str(nn::infer::kernel_tier().to_string())),
    ]);
    std::fs::write(dir.join(format!("{name}.manifest.json")), manifest)
        .expect("write manifest sidecar");
    println!("  -> wrote {}", path.display());
    path
}

/// Formats a float for tables.
pub fn fmt(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// Prints a boxed section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// One entry of a `BENCH_*.json` report.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// Metric name (the ratchet's key).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Tracked metrics are ratcheted by `--check`; untracked ones are
    /// recorded for context only.
    pub tracked: bool,
}

impl Metric {
    /// A metric recorded for context only.
    pub fn info(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit, tracked: false }
    }

    /// A higher-is-better ratio the `--check` ratchet holds.
    pub fn tracked(name: &'static str, value: f64) -> Self {
        Self { name, value, unit: "ratio", tracked: true }
    }
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    /// The telemetry run manifest (run id, git sha, host identity).
    manifest: serde::Value,
    metrics: Vec<Metric>,
}

/// Prints the metric table of a bench run.
pub fn print_metrics(metrics: &[Metric]) {
    println!("\n{:>28} {:>14} {:>8} {:>8}", "metric", "value", "unit", "tracked");
    for m in metrics {
        println!("{:>28} {:>14.4} {:>8} {:>8}", m.name, m.value, m.unit, m.tracked);
    }
}

/// Writes a `BENCH_*.json` report: schema tag, the telemetry run
/// manifest extended with `manifest_fields`, and the metrics.
pub fn write_report(
    path: &Path,
    schema: &'static str,
    manifest_fields: &[(&str, telemetry::Value)],
    metrics: Vec<Metric>,
) {
    let manifest: serde::Value = serde_json::from_str(&telemetry::manifest_json(manifest_fields))
        .expect("telemetry manifest is valid JSON");
    let json = serde_json::to_string(&Report { schema, manifest, metrics }).expect("serialise");
    std::fs::write(path, json + "\n").expect("write report");
    println!("\n  -> wrote {}", path.display());
}

/// What the ratchet found for one metric name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At or above `baseline * (1 - tolerance)`.
    Held,
    /// Below that floor.
    Regressed,
    /// Tracked in the run, not in the baseline: reported, not compared.
    New,
    /// Tracked in the baseline, absent (or untracked) in the run: a
    /// metric cannot leave the ratchet by being deleted from the
    /// harness — the baseline has to be re-recorded without it.
    Missing,
}

impl Verdict {
    /// Whether this verdict fails `--check`.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Missing)
    }
}

/// One row of a ratchet comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RatchetRow {
    /// Metric name.
    pub name: String,
    /// The run's value (`None` when [`Verdict::Missing`]).
    pub value: Option<f64>,
    /// The baseline's value (`None` when [`Verdict::New`]).
    pub baseline: Option<f64>,
    /// The comparison's outcome.
    pub verdict: Verdict,
}

/// Compares a run's tracked metrics with a baseline report's tracked
/// metrics (both higher-is-better): one row per name tracked on either
/// side, the run's first.
///
/// # Panics
/// Panics if `baseline` has no `metrics` array.
pub fn ratchet(baseline: &serde::Value, metrics: &[Metric], tolerance: f64) -> Vec<RatchetRow> {
    let entries = match baseline.get("metrics") {
        Some(serde::Value::Array(a)) => a,
        _ => panic!("baseline has no metrics array"),
    };
    let tracked_baseline: Vec<(&str, f64)> = entries
        .iter()
        .filter(|m| matches!(m.get("tracked"), Some(serde::Value::Bool(true))))
        .filter_map(|m| {
            let name = match m.get("name") {
                Some(serde::Value::Str(s)) => s.as_str(),
                _ => return None,
            };
            let value = match m.get("value") {
                Some(serde::Value::Float(v)) => *v,
                Some(serde::Value::Int(v)) => *v as f64,
                Some(serde::Value::UInt(v)) => *v as f64,
                _ => return None,
            };
            Some((name, value))
        })
        .collect();
    let run: Vec<&Metric> = metrics.iter().filter(|m| m.tracked).collect();
    let mut rows: Vec<RatchetRow> = run
        .iter()
        .map(|m| {
            let baseline = tracked_baseline.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            let verdict = match baseline {
                None => Verdict::New,
                Some(base) if m.value >= base * (1.0 - tolerance) => Verdict::Held,
                Some(_) => Verdict::Regressed,
            };
            RatchetRow {
                name: m.name.to_string(),
                value: Some(m.value),
                baseline,
                verdict,
            }
        })
        .collect();
    for (name, base) in tracked_baseline {
        if !run.iter().any(|m| m.name == name) {
            rows.push(RatchetRow {
                name: name.to_string(),
                value: None,
                baseline: Some(base),
                verdict: Verdict::Missing,
            });
        }
    }
    rows
}

/// `--check`: runs [`ratchet`] against the report at `baseline_path`,
/// prints every row, and exits the process non-zero if any row
/// [fails](Verdict::fails).
pub fn check_against(baseline_path: &Path, metrics: &[Metric], tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", baseline_path.display()));
    let baseline: serde::Value = serde_json::from_str(&text).expect("baseline parses as JSON");
    let rows = ratchet(&baseline, metrics, tolerance);
    // The fast path's tile depends on the CPU, the tape's does not: a
    // ratio recorded on a narrower tier is a floor on a wider one.
    let tier = baseline
        .get("manifest")
        .and_then(|m| m.get("fields")?.get("kernel_tier"));
    let baseline_tier = match tier {
        Some(serde::Value::Str(s)) => s.as_str(),
        _ => "unrecorded",
    };
    println!(
        "\nperf ratchet vs {} (tolerance {tolerance}; baseline kernel tier {baseline_tier}, running {}):",
        baseline_path.display(),
        nn::infer::kernel_tier()
    );
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    for r in &rows {
        println!(
            "  {:>22}: {} vs baseline {} {:?}",
            r.name,
            show(r.value),
            show(r.baseline),
            r.verdict
        );
    }
    let failures: Vec<&str> = rows
        .iter()
        .filter(|r| r.verdict.fails())
        .map(|r| r.name.as_str())
        .collect();
    if !failures.is_empty() {
        eprintln!(
            "perf ratchet FAILED: {failures:?} regressed more than {:.0}% or went missing",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("perf ratchet passed.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_benches_construct() {
        let b = build_bench(Workload::Imdb, false, 1);
        assert!(b.engine.catalog().len() >= 10);
        let b = build_bench(Workload::Tpch, false, 1);
        assert_eq!(b.engine.catalog().len(), 8);
    }

    #[test]
    fn tsv_writer_round_trips() {
        let dir = std::env::temp_dir().join("raal_bench_test");
        let path = write_tsv(&dir, "t.tsv", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n");
    }

    fn baseline() -> serde::Value {
        serde_json::from_str(
            r#"{"metrics":[{"name":"kept","value":2.0,"unit":"ratio","tracked":true},
                           {"name":"dropped","value":1.5,"unit":"ratio","tracked":true},
                           {"name":"context","value":9,"unit":"us","tracked":false}]}"#,
        )
        .unwrap()
    }

    fn verdicts(metrics: &[Metric]) -> Vec<(String, Verdict)> {
        ratchet(&baseline(), metrics, 0.10)
            .into_iter()
            .map(|r| (r.name, r.verdict))
            .collect()
    }

    #[test]
    fn ratchet_fails_a_tracked_baseline_metric_missing_from_the_run() {
        // Deleting a metric from the harness must not un-ratchet it; an
        // untracked baseline entry ("context") is nobody's business.
        let got = verdicts(&[Metric::tracked("kept", 2.0)]);
        assert_eq!(
            got,
            vec![("kept".to_string(), Verdict::Held), ("dropped".to_string(), Verdict::Missing)]
        );
        assert!(Verdict::Missing.fails());
        // Demoting it to untracked in the run is the same deletion.
        let got = verdicts(&[Metric::tracked("kept", 2.0), Metric::info("dropped", 1.5, "ratio")]);
        assert_eq!(got[1], ("dropped".to_string(), Verdict::Missing));
    }

    #[test]
    fn ratchet_reports_a_new_metric_and_fails_a_regressed_one() {
        let got = verdicts(&[
            Metric::tracked("kept", 1.79),
            Metric::tracked("dropped", 1.36),
            Metric::tracked("fresh", 0.1),
        ]);
        assert_eq!(
            got,
            vec![
                ("kept".to_string(), Verdict::Regressed),
                ("dropped".to_string(), Verdict::Held),
                ("fresh".to_string(), Verdict::New),
            ]
        );
        assert!(Verdict::Regressed.fails() && !Verdict::New.fails() && !Verdict::Held.fails());
    }
}
