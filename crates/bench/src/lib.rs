//! # bench — experiment harnesses
//!
//! One binary per group of tables/figures of the paper's evaluation (see
//! DESIGN.md's per-experiment index). This library holds the shared
//! plumbing: argument parsing, dataset/engine construction at two scales
//! (`--full` ≈ paper scale, default = reduced-but-shape-preserving), the
//! standard collect→encode→train pipeline, the per-seed result tables with
//! their spread, the ordering counts, TSV output, and the `BENCH_*.json`
//! report + `--check` ratchet of `bench_inference`.

#![warn(missing_docs)]

use encoding::word2vec::W2vConfig;
use encoding::{EncoderConfig, PlanEncoder};
use raal::dataset::{collect, Collection, CollectionConfig};
use raal::{MetricSummary, TrainConfig};
use serde::Serialize;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, SimulatorConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use workloads::FkGraph;

/// The seeds a harness runs: `--seeds N` takes the first `N`.
pub const SEEDS: [u64; 5] = [42, 1, 7, 13, 99];

/// Command-line options shared by every harness.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Paper-scale run (slow) instead of the reduced default.
    pub full: bool,
    /// Output directory for TSV result files.
    pub out_dir: PathBuf,
    /// Master seeds, a prefix of [`SEEDS`]. The accuracy tables, Table V
    /// and Fig. 1 run every one; the other harnesses run the first.
    pub seeds: Vec<u64>,
}

impl HarnessOpts {
    /// Parses `--full`, `--out <dir>` and `--seeds <n>` (default 5) from
    /// `std::env`.
    ///
    /// Also activates telemetry from `RAAL_TELEMETRY`/`RAAL_METRICS_OUT`
    /// and stamps the run manifest, so every harness is observable
    /// without per-binary wiring.
    pub fn from_env() -> Self {
        telemetry::init_from_env();
        let mut opts = Self {
            full: false,
            out_dir: PathBuf::from("results"),
            seeds: SEEDS.to_vec(),
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
                "--seeds" => {
                    i += 1;
                    let n: usize = args
                        .get(i)
                        .expect("--seeds needs a value")
                        .parse()
                        .expect("--seeds must be an integer");
                    assert!(
                        (1..=SEEDS.len()).contains(&n),
                        "--seeds takes 1 to {} of {SEEDS:?}",
                        SEEDS.len()
                    );
                    opts.seeds = SEEDS[..n].to_vec();
                }
                other => panic!("unknown argument '{other}' (use --full / --out DIR / --seeds N)"),
            }
            i += 1;
        }
        let seeds: Vec<String> = opts.seeds.iter().map(u64::to_string).collect();
        telemetry::manifest(&[
            ("bench_full", telemetry::Value::Bool(opts.full)),
            ("bench_seeds", telemetry::Value::Str(seeds.join(","))),
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
    let engine = Engine::with_options(catalog, PlannerOptions::scaled_to(scale), cluster, sim_cfg);
    Bench { engine, graph, workload }
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
    W2vConfig { dim: 32, epochs: if full { 4 } else { 2 } }
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

/// Writes a TSV file with a header row, creating the directory as needed.
///
/// A `<name>.manifest.json` sidecar records the run identity (run id, git
/// sha and whether the tree differed from it, config, kernel tier) next to
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
        // A NaN is written as `null`: git could not tell.
        (
            "git_dirty",
            git_dirty().map_or(telemetry::Value::F64(f64::NAN), telemetry::Value::Bool),
        ),
    ]);
    std::fs::write(dir.join(format!("{name}.manifest.json")), manifest)
        .expect("write manifest sidecar");
    println!("  -> wrote {}", path.display());
    path
}

/// Whether tracked files outside `results/` differ from `HEAD`; `None`
/// when `git` cannot tell (not installed, no checkout).
fn git_dirty() -> Option<bool> {
    let diff = Command::new("git")
        .args(["diff", "--quiet", "HEAD", "--", ":(top)", ":(top,exclude)results"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    diff.ok()?.code().filter(|c| (0..=1).contains(c)).map(|c| c == 1)
}

/// Formats a float for tables.
pub fn fmt(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// A table cell: a count prints as an integer, any other value as [`fmt`].
fn cell(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e9 {
        format!("{x:.0}")
    } else {
        fmt(x)
    }
}

/// Prints a boxed section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// The metric columns of every accuracy table: Eqs. 12–15, then COR and R²
/// over `ln(1 + seconds)`.
pub const METRICS: [&str; 6] = ["RE", "MSE", "COR", "R2", "COR_log", "R2_log"];

/// A summary's values in [`METRICS`] order.
pub fn metrics(s: &MetricSummary) -> [f64; 6] {
    [s.re, s.mse, s.cor, s.r2, s.cor_log, s.r2_log]
}

/// The title and seed of the table line printed last: a table repeats its
/// header when either changes.
static LAST_PRINTED: Mutex<String> = Mutex::new(String::new());

/// One result table, one row per seed and key. A row is printed aligned as
/// it is pushed (unless the title is empty: a curve, a scatter) and kept for
/// the TSV, whose first column is the seed.
pub struct Rows {
    title: &'static str,
    header: Vec<String>,
    keys: usize,
    cell: fn(f64) -> String,
    rows: Vec<Row>,
}

struct Row {
    /// The seed, or `mean` / `min` / `max` over the seeds.
    seed: String,
    keys: Vec<String>,
    values: Vec<f64>,
    /// A seed's row that [`Rows::spread`] and [`Rows::series`] read.
    paired: bool,
}

impl Rows {
    /// A table whose `keys` columns name a row and whose `values` columns
    /// hold its numbers.
    pub fn new(title: &'static str, keys: &[&str], values: &[&str]) -> Self {
        let header = keys.iter().chain(values).map(|h| h.to_string()).collect();
        Self {
            title,
            header,
            keys: keys.len(),
            cell,
            rows: Vec::new(),
        }
    }

    /// Formats every value with `cell` instead of the default (a count as an
    /// integer, anything else as [`fmt`]).
    pub fn cells(self, cell: fn(f64) -> String) -> Self {
        Self { cell, ..self }
    }

    /// Adds seed `seed`'s row `keys`, which [`Rows::spread`] summarises with
    /// the other seeds' rows of the same keys.
    pub fn push(&mut self, seed: u64, keys: &[&str], values: &[f64]) {
        self.add(seed.to_string(), keys, values, true, true);
    }

    /// Adds a row only seed `seed` has (a query it generated, a scatter
    /// point): kept for the TSV, not printed, not in the spread.
    pub fn detail(&mut self, seed: u64, keys: &[&str], values: &[f64]) {
        self.add(seed.to_string(), keys, values, false, false);
    }

    fn add(&mut self, seed: String, keys: &[&str], values: &[f64], paired: bool, print: bool) {
        let shape_ok = keys.len() == self.keys && keys.len() + values.len() == self.header.len();
        assert!(
            shape_ok,
            "{}: a row of {} keys and {} values",
            self.title,
            keys.len(),
            values.len()
        );
        let keys = keys.iter().map(|k| k.to_string()).collect();
        let row = Row { seed, keys, values: values.to_vec(), paired };
        if print && !self.title.is_empty() {
            let group = format!("{} / {}", self.title, if paired { &row.seed } else { "spread" });
            let mut last = LAST_PRINTED.lock().unwrap_or_else(|e| e.into_inner());
            if *last != group {
                println!("\n--- {} ---\n{}", self.title, self.aligned("seed", &self.header));
                *last = group;
            }
            println!("{}", self.aligned(&row.seed, &self.cells_of(&row)));
        }
        self.rows.push(row);
    }

    fn cells_of(&self, row: &Row) -> Vec<String> {
        let values = row.values.iter().map(|&v| (self.cell)(v));
        row.keys.iter().cloned().chain(values).collect()
    }

    fn aligned(&self, seed: &str, cells: &[String]) -> String {
        let widths = self.header.iter().enumerate();
        let widths = widths.map(|(i, h)| h.len().max(if i < self.keys { 10 } else { 9 }));
        let line = format!("{seed:>5}");
        cells
            .iter()
            .zip(widths)
            .fold(line, |line, (c, w)| line + &format!(" {c:>w$}"))
    }

    /// Appends a `mean`, a `min` and a `max` row for every key pushed by
    /// more than one seed. A NaN in any seed makes all three NaN.
    pub fn spread(&mut self) {
        let mut groups: Vec<(Vec<String>, Vec<Vec<f64>>)> = Vec::new();
        for r in self.rows.iter().filter(|r| r.paired) {
            match groups.iter_mut().find(|(keys, _)| *keys == r.keys) {
                Some((_, seeds)) => seeds.push(r.values.clone()),
                None => groups.push((r.keys.clone(), vec![r.values.clone()])),
            }
        }
        for (keys, seeds) in groups.into_iter().filter(|(_, seeds)| seeds.len() > 1) {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let stat = |f: fn(f64, f64) -> f64, init: f64| -> Vec<f64> {
                let column = |i: usize| seeds.iter().map(move |v: &Vec<f64>| v[i]);
                let fold = |i| {
                    if column(i).any(f64::is_nan) {
                        f64::NAN
                    } else {
                        column(i).fold(init, f)
                    }
                };
                (0..seeds[0].len()).map(fold).collect()
            };
            let n = seeds.len() as f64;
            let mean: Vec<f64> = stat(|a, b| a + b, 0.0).iter().map(|sum| sum / n).collect();
            self.add("mean".into(), &keys, &mean, false, true);
            self.add("min".into(), &keys, &stat(f64::min, f64::INFINITY), false, true);
            self.add("max".into(), &keys, &stat(f64::max, f64::NEG_INFINITY), false, true);
        }
    }

    /// `(seed, value)` of column `column` in every seed's row `keys`.
    ///
    /// # Panics
    /// Panics if the table has no column `column`.
    pub fn series(&self, keys: &[&str], column: &str) -> Vec<(u64, f64)> {
        let at = self.header.iter().position(|h| h == column);
        let at = at.unwrap_or_else(|| panic!("{}: no column {column}", self.title)) - self.keys;
        self.rows
            .iter()
            .filter(|r| r.paired && r.keys.iter().map(String::as_str).eq(keys.iter().copied()))
            .map(|r| (r.seed.parse().expect("a paired row's seed is a number"), r.values[at]))
            .collect()
    }

    /// Writes the table to `dir/name` with a leading `seed` column (see
    /// [`write_tsv`]).
    pub fn write(&self, dir: &Path, name: &str) -> PathBuf {
        let header: Vec<&str> = ["seed"]
            .into_iter()
            .chain(self.header.iter().map(String::as_str))
            .collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| [vec![r.seed.clone()], self.cells_of(r)].concat())
            .collect();
        write_tsv(dir, name, &header, &rows)
    }
}

/// Counts the seeds in which `better` beats `worse`, among the seeds both
/// have a value for: `(holds, paired)`. Lower wins if `lower_is_better`.
/// A tie or a NaN on either side does not hold.
pub fn count_holds(
    better: &[(u64, f64)],
    worse: &[(u64, f64)],
    lower_is_better: bool,
) -> (usize, usize) {
    let paired: Vec<(f64, f64)> = better
        .iter()
        .filter_map(|(seed, b)| worse.iter().find(|(s, _)| s == seed).map(|(_, w)| (*b, *w)))
        .collect();
    let holds = paired
        .iter()
        .filter(|(b, w)| if lower_is_better { b < w } else { b > w });
    (holds.count(), paired.len())
}

/// `orderings.tsv`'s columns: an ordering the paper claims, and the number
/// of seeds it holds in out of those both sides ran.
const ORDERING_HEADER: [&str; 5] = ["table", "claim", "metric", "holds", "seeds"];

/// The orderings a harness counted; [`Orderings::write`] merges them into
/// `orderings.tsv`.
#[derive(Default)]
pub struct Orderings {
    rows: Vec<Vec<String>>,
}

impl Orderings {
    /// Counts the seeds in which `better` beats `worse` on `metric` (see
    /// [`count_holds`]; COR and R² columns are higher-is-better, every other
    /// metric lower-is-better), prints the count and keeps the row.
    pub fn claim(
        &mut self,
        table: &str,
        claim: &str,
        metric: &str,
        better: &[(u64, f64)],
        worse: &[(u64, f64)],
    ) {
        let lower_is_better = !(metric.starts_with("COR") || metric.starts_with("R2"));
        let (holds, seeds) = count_holds(better, worse, lower_is_better);
        println!("{table:>7} {claim} on {metric}: holds in {holds} of {seeds} seeds");
        let row = [table, claim, metric, &holds.to_string(), &seeds.to_string()];
        self.rows.push(row.map(str::to_string).to_vec());
    }

    /// Writes `dir/orderings.tsv`: the rows already there for tables this
    /// set does not hold, and this set's, ordered by table.
    pub fn write(&self, dir: &Path) -> PathBuf {
        let mine = |table: &str| self.rows.iter().any(|r| r[0] == table);
        let kept = std::fs::read_to_string(dir.join("orderings.tsv")).unwrap_or_default();
        let mut rows: Vec<Vec<String>> = kept
            .lines()
            .skip(1)
            .map(|l| l.split('\t').map(str::to_string).collect::<Vec<_>>())
            .filter(|r| r.len() == ORDERING_HEADER.len() && !mine(&r[0]))
            .chain(self.rows.iter().cloned())
            .collect();
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        write_tsv(dir, "orderings.tsv", &ORDERING_HEADER, &rows)
    }
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
    fn manifest_records_whether_the_tree_was_dirty() {
        let dir = std::env::temp_dir().join(format!("bench-manifest-{}", std::process::id()));
        write_tsv(&dir, "t.tsv", &["a"], &[]);
        let manifest = std::fs::read_to_string(dir.join("t.tsv.manifest.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let recorded = |v| manifest.contains(&format!("\"git_dirty\":{v}"));
        assert!(["true", "false", "null"].into_iter().any(recorded), "{manifest}");
    }

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
        let mut rows = Rows::new("", &["model"], &["RE", "n"]);
        rows.push(42, &["RAAL"], &[0.5, 40.0]);
        rows.push(1, &["RAAL"], &[0.25, 41.0]);
        rows.push(1, &["RAAC"], &[0.125, 40.0]);
        rows.detail(1, &["Q1"], &[1.0, 2.5]);
        rows.spread();
        let content = std::fs::read_to_string(rows.write(&dir, "t.tsv")).unwrap();
        assert_eq!(
            content,
            "seed\tmodel\tRE\tn\n42\tRAAL\t0.5000\t40\n1\tRAAL\t0.2500\t41\n\
             1\tRAAC\t0.1250\t40\n1\tQ1\t1\t2.5000\n\
             mean\tRAAL\t0.3750\t40.5000\nmin\tRAAL\t0.2500\t40\nmax\tRAAL\t0.5000\t41\n"
        );
        assert_eq!(rows.series(&["RAAL"], "n"), vec![(42, 40.0), (1, 41.0)]);
    }

    #[test]
    fn orderings_count_paired_seeds_and_a_tie_or_nan_does_not_hold() {
        let raal = [(42, 0.20), (1, 0.30), (7, 0.25), (13, f64::NAN), (99, 0.10)];
        // Seed 99 has no ablation row: unpaired, not counted either way.
        let ablation = [(42, 0.25), (1, 0.28), (7, 0.25), (13, 0.40), (5, 0.01)];
        // 42 holds, 1 loses, 7 ties, 13 is NaN.
        assert_eq!(count_holds(&raal, &ablation, true), (1, 4));
        assert_eq!(count_holds(&raal, &ablation, false), (1, 4));
        assert_eq!(count_holds(&raal, &[], true), (0, 0));

        let dir = std::env::temp_dir().join("raal_bench_orderings_test");
        let _ = std::fs::remove_file(dir.join("orderings.tsv"));
        let mut v = Orderings::default();
        v.claim("V", "RAAL beats TLSTM", "COR", &[(42, 0.9), (1, 0.5)], &[(42, 0.8), (1, 0.6)]);
        v.write(&dir);
        let mut iv = Orderings::default();
        iv.claim("IV", "RAAL beats RAAC", "RE", &raal, &ablation);
        iv.write(&dir);
        // A second run of a harness replaces its own rows only.
        iv.write(&dir);
        let content = std::fs::read_to_string(dir.join("orderings.tsv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "IV\tRAAL beats RAAC\tRE\t1\t4");
        assert_eq!(lines[2], "V\tRAAL beats TLSTM\tCOR\t1\t2");
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
