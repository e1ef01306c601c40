//! Diagnostic (not a paper experiment): measures how much signal the
//! encoded features carry about the simulated time.
//!
//! 1. A closed-form ridge regression on `[resources ++ plan_stats ++ 1]`
//!    — if even this linear probe correlates well, the deep models should
//!    do better; if not, the features are the bottleneck.
//! 2. A long RAAL training run to check convergence behaviour.

use bench::{metrics, run_pipeline, section, HarnessOpts, Rows, Workload, METRICS};
use raal::model::normalize_seconds;
use raal::{evaluate, train, train_test_split, CostModel, EvalSet, ModelConfig, TrainConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    let seed = opts.seeds[0];
    section("probe — linear learnability of the encoded features");
    let bench = bench::build_bench(Workload::Imdb, opts.full, seed);
    let pipeline = run_pipeline(&bench, opts.full, seed, true);
    let (train_set, test_set) = train_test_split(pipeline.samples.clone(), 0.8, seed);
    println!("records: train {}, test {}", train_set.len(), test_set.len());

    // ---- linear probe ----
    let feat = |s: &encoding::Sample| -> Vec<f64> {
        let mut v: Vec<f64> = s.resources.iter().map(|&x| x as f64).collect();
        v.extend(s.plan.plan_stats.iter().map(|&x| x as f64));
        // Interaction terms the simulator obviously has: bytes/slots.
        let slots = (s.resources[2] * s.resources[3]) as f64;
        v.push(s.plan.plan_stats[0] as f64 / (slots + 0.05));
        v.push(1.0);
        v
    };
    let d = feat(&train_set[0]).len();
    let mut xtx = vec![0.0f64; d * d];
    let mut xty = vec![0.0f64; d];
    for s in &train_set {
        let x = feat(s);
        let y = normalize_seconds(s.seconds) as f64;
        for i in 0..d {
            xty[i] += x[i] * y;
            for j in 0..d {
                xtx[i * d + j] += x[i] * x[j];
            }
        }
    }
    for i in 0..d {
        xtx[i * d + i] += 1e-4; // ridge
    }
    let w = solve(&mut xtx, &mut xty, d);
    let mut probe_eval = EvalSet::new();
    for s in &test_set {
        let x = feat(s);
        let yhat: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let pred = ((yhat.clamp(0.0, 1.5)) * (7201.0f64).ln()).exp() - 1.0;
        probe_eval.push(s.seconds, pred);
    }
    let mut table = Rows::new("probe (IMDB test split)", &["model"], &METRICS);
    table.push(seed, &["linear-probe"], &metrics(&probe_eval.summary()));

    // ---- long RAAL run ----
    let mut model = CostModel::new(ModelConfig::raal(pipeline.encoder.node_dim()));
    let tcfg = TrainConfig {
        epochs: 40,
        lr: 2e-3,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let history = train(&mut model, &train_set, &tcfg);
    println!("RAAL losses: {:?}", history.epoch_losses);
    table.push(seed, &["raal-40ep"], &metrics(&evaluate(&model, &test_set).summary()));
    table.write(&opts.out_dir, "probe_learnability.tsv");
}

/// Gaussian elimination with partial pivoting for the small normal system.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        let mut pivot = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        for c in 0..n {
            a.swap(col * n + c, pivot * n + c);
        }
        b.swap(col, pivot);
        let p = a[col * n + col];
        if p.abs() < 1e-12 {
            continue;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col] / p;
            for c in 0..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    (0..n)
        .map(|i| {
            let p = a[i * n + i];
            if p.abs() < 1e-12 {
                0.0
            } else {
                b[i] / p
            }
        })
        .collect()
}
