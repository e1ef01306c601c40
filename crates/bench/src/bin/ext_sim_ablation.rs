//! **Extension (DESIGN.md ablation)** — which simulator mechanism produces
//! which memory phenomenon.
//!
//! The substitution argument of this reproduction rests on the simulator's
//! four memory mechanisms (spill, GC, page cache, placement) plus the
//! broadcast cap. This harness disables them one at a time and reports the
//! memory-sweep curve of the paper's three-table query, showing each
//! mechanism's contribution to the non-monotonic shape.

use bench::{section, HarnessOpts, Rows};
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, ResourceConfig, SimulatorConfig};
use workloads::imdb::{generate, paper_section3_queries, ImdbConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    let seed = opts.seeds[0];
    section("Extension — simulator mechanism ablation (memory sweep)");
    let rows_cfg = if opts.full { 20_000 } else { 4_000 };
    let data = generate(&ImdbConfig { title_rows: rows_cfg, seed });
    let scale = data.simulated_scale();
    let queries = paper_section3_queries(&data);

    let base = SimulatorConfig {
        data_scale: scale,
        noise_sigma: 0.0,
        ..SimulatorConfig::default()
    };
    let variants: Vec<(&str, SimulatorConfig)> = vec![
        ("full model", base.clone()),
        ("no GC term", SimulatorConfig { gc_per_gb: 0.0, ..base.clone() }),
        (
            "no broadcast cap",
            SimulatorConfig { broadcast_cap_fraction: 1e9, ..base.clone() },
        ),
        // Cache reads at the disk's 200 MB/s (`at` below): the cache buys nothing.
        (
            "no page cache",
            SimulatorConfig { cache_throughput_mbps: 200.0, ..base.clone() },
        ),
        ("no spill", SimulatorConfig { memory_fraction: 1e9, ..base.clone() }),
    ];

    let catalog = data.catalog;
    let planner_opts = PlannerOptions { max_plans: 3, ..PlannerOptions::scaled_to(scale) };
    let engine =
        Engine::with_options(catalog, planner_opts, ClusterConfig::default(), base.clone());
    let memories: Vec<f64> = (1..=8).map(|m| m as f64).collect();
    let at = |memory_gb: f64| ResourceConfig {
        executors: 2,
        cores_per_executor: 2,
        memory_per_executor_gb: memory_gb,
        network_throughput_mbps: 120.0,
        disk_throughput_mbps: 200.0,
    };

    // Pick the (query, plan) whose cost responds most to memory — that is
    // the curve whose mechanisms are worth attributing.
    let mut chosen: Option<(String, sparksim::PhysicalPlan, sparksim::exec::ExecResult, f64)> =
        None;
    for (_, sql) in &queries {
        let plans = engine.plan_candidates(sql).expect("plans");
        for plan in plans {
            let exec = engine.execute_plan(&plan).expect("runs");
            let times: Vec<f64> = memories
                .iter()
                .map(|&m| engine.simulator().simulate(&plan, &exec.metrics, &at(m), 0))
                .collect();
            let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = times.iter().cloned().fold(0.0f64, f64::max);
            let spread = hi / lo.max(1e-9);
            if chosen.as_ref().is_none_or(|(_, _, _, best)| spread > *best) {
                chosen = Some((sql.clone(), plan, exec, spread));
            }
        }
    }
    let (sql, plan, exec, spread) = chosen.expect("at least one plan");
    let plan = &plan;
    println!("query: {sql}");
    println!("most memory-sensitive plan (x{spread:.1} spread):\n{}", plan.explain());
    let columns: Vec<String> = memories.iter().map(|m| format!("{m}GB")).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Rows::new("simulated seconds by executor memory", &["variant"], &columns);
    for (name, cfg) in &variants {
        let sim = sparksim::CostSimulator::new(ClusterConfig::default(), cfg.clone());
        let times: Vec<f64> = memories
            .iter()
            .map(|&m| sim.simulate(plan, &exec.metrics, &at(m), 0))
            .collect();
        table.push(seed, &[name], &times);
    }
    println!(
        "\nreading: removing the broadcast cap flattens the low-memory spike; \
         removing GC flattens the high-memory rise; spill/page-cache shape \
         the middle of the curve."
    );
    table.write(&opts.out_dir, "ext_sim_ablation.tsv");
}
