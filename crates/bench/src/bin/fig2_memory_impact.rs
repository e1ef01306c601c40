//! **Fig. 2** — The impact of executor memory on the cost of candidate
//! query execution plans (paper Sec. III).
//!
//! Reproduces the four representative IMDB queries (single-table,
//! SMJ-leaning two-table, BHJ-leaning two-table, three-table mix), sweeps
//! executor memory 1–8 GB at 2 executors × 2 cores, and reports the
//! simulated time of each candidate plan. The paper's observations to
//! check: plan costs vary non-monotonically with memory, and the *optimal
//! plan flips* as memory changes. A flip counts (`flip` = 1) only where
//! the new cheapest plan beats the one last counted optimal by more than
//! the spread of its own three simulated runs; a smaller change of the
//! cheapest plan is printed as a tie.
//!
//! **Simulator mechanism ablation** (an extension): the most memory-sensitive
//! of those plans under a noise-free simulator, whole and with GC, the
//! broadcast cap, the page cache or spill off — which makes which feature.

use bench::{section, HarnessOpts, Rows};
use sparksim::exec::ExecResult;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{
    ClusterConfig, CostSimulator, Engine, PhysicalPlan, ResourceConfig, SimulatorConfig,
};

fn main() {
    let opts = HarnessOpts::from_env();
    let seed = opts.seeds[0];
    let rows = if opts.full { 20_000 } else { 4_000 };
    let data = workloads::imdb::generate(&workloads::imdb::ImdbConfig { title_rows: rows, seed });
    let scale = data.simulated_scale();
    let queries = workloads::imdb::paper_section3_queries(&data);
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions { max_plans: 3, ..PlannerOptions::scaled_to(scale) },
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );

    let memories: Vec<f64> = (1..=8).map(|m| m as f64).collect();
    let values = ["plan1_s", "plan2_s", "plan3_s", "best_plan", "flip"];
    let mut table =
        Rows::new("Fig. 2 — plan seconds by executor memory", &["query", "memory_gb"], &values);

    let mut runs = Vec::new();
    for (name, sql) in &queries {
        section(&format!("Fig. 2 — {name}"));
        println!("query: {sql}");
        let plans = engine.plan_candidates(sql).expect("paper queries must plan");
        let execs: Vec<_> = plans
            .iter()
            .map(|p| engine.execute_plan(p).expect("paper queries must run"))
            .collect();
        let (mut flips, mut ties) = (Vec::new(), Vec::new());
        // The plan last counted optimal.
        let mut leader = None;
        for &mem in &memories {
            let res = at(mem);
            let (mut times, mut spreads) = (Vec::new(), Vec::new());
            for (i, plan) in plans.iter().enumerate() {
                // Average of three runs, as in the paper.
                let runs: Vec<f64> = (0..3u64)
                    .map(|run| {
                        engine.simulator().simulate(
                            plan,
                            &execs[i].metrics,
                            &res,
                            seed ^ (run * 7717 + i as u64 * 131 + mem as u64),
                        )
                    })
                    .collect();
                times.push(runs.iter().sum::<f64>() / 3.0);
                let (lo, hi) = runs
                    .iter()
                    .fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
                spreads.push(hi - lo);
            }
            let best = times
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let flip = match leader {
                Some(l) if l != best && times[l] - times[best] > spreads[best] => {
                    flips.push(mem);
                    true
                }
                Some(l) if l != best => {
                    ties.push(mem);
                    false
                }
                _ => false,
            };
            if flip || leader.is_none() {
                leader = Some(best);
            }
            // A query with two candidates leaves plan3_s empty (NaN).
            times.resize(3, f64::NAN);
            table.push(
                seed,
                &[name, &mem.to_string()],
                &[&times[..], &[best as f64 + 1.0, f64::from(u8::from(flip))]].concat(),
            );
        }
        match flips.is_empty() {
            true => println!("optimal plan stable across memories"),
            false => println!(
                "optimal plan flips at memory {flips:?} GB (beyond the winner's run spread)"
            ),
        }
        if !ties.is_empty() {
            println!("cheapest plan changes within its run spread (a tie) at memory {ties:?} GB");
        }
        runs.extend(plans.into_iter().zip(execs).map(|(plan, exec)| (sql, plan, exec)));
    }
    table.write(&opts.out_dir, "fig2_memory_impact.tsv");

    let ablation = mechanisms(&runs, scale, &memories, seed);
    ablation.write(&opts.out_dir, "ext_sim_ablation.tsv");
}

/// 2 executors × 2 cores with `memory_gb` each, at the default throughputs.
fn at(memory_gb: f64) -> ResourceConfig {
    ResourceConfig {
        executors: 2,
        cores_per_executor: 2,
        memory_per_executor_gb: memory_gb,
        network_throughput_mbps: 120.0,
        disk_throughput_mbps: 200.0,
    }
}

/// The ablation's rows: the (query, plan) whose noise-free simulated time
/// spreads most across `memories`, simulated by the full model and by each
/// variant with one mechanism off.
fn mechanisms(
    runs: &[(&String, PhysicalPlan, ExecResult)],
    scale: f64,
    memories: &[f64],
    seed: u64,
) -> Rows {
    section("Extension — simulator mechanism ablation (memory sweep)");
    let base = SimulatorConfig {
        data_scale: scale,
        noise_sigma: 0.0,
        ..SimulatorConfig::default()
    };
    let variants = [
        ("full model", base.clone()),
        ("no GC term", SimulatorConfig { gc_per_gb: 0.0, ..base.clone() }),
        (
            "no broadcast cap",
            SimulatorConfig { broadcast_cap_fraction: 1e9, ..base.clone() },
        ),
        // Cache reads at the disk's 200 MB/s (`at`): the cache buys nothing.
        (
            "no page cache",
            SimulatorConfig { cache_throughput_mbps: 200.0, ..base.clone() },
        ),
        ("no spill", SimulatorConfig { memory_fraction: 1e9, ..base.clone() }),
    ];
    let curve = |sim: &CostSimulator, plan: &PhysicalPlan, exec: &ExecResult| -> Vec<f64> {
        memories
            .iter()
            .map(|&m| sim.simulate(plan, &exec.metrics, &at(m), 0))
            .collect()
    };

    // The curve whose mechanisms are worth attributing: the plan whose cost
    // responds most to memory.
    let full = CostSimulator::new(ClusterConfig::default(), base.clone());
    let mut chosen = None;
    for (sql, plan, exec) in runs {
        let (lo, hi) = curve(&full, plan, exec)
            .into_iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), t| (lo.min(t), hi.max(t)));
        let spread = hi / lo.max(1e-9);
        if chosen.is_none_or(|(_, _, _, best)| spread > best) {
            chosen = Some((sql, plan, exec, spread));
        }
    }
    let (sql, plan, exec, spread) = chosen.expect("at least one plan");
    println!("query: {sql}");
    println!("most memory-sensitive plan (x{spread:.1} spread):\n{}", plan.explain());
    let columns: Vec<String> = memories.iter().map(|m| format!("{m}GB")).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Rows::new("simulated seconds by executor memory", &["variant"], &columns);
    for (name, cfg) in variants {
        let sim = CostSimulator::new(ClusterConfig::default(), cfg);
        table.push(seed, &[name], &curve(&sim, plan, exec));
    }
    table
}
