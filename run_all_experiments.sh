#!/bin/bash
# Regenerates every table and figure of the paper (reduced scale by
# default; pass --full for paper-scale runs, --seeds N for fewer seeds).
# accuracy_tables (Tables IV, VI–VIII, Figs. 6–8), tab5_vs_tlstm
# (Tables V and IX) and fig1_plan_selection run the 5 seeds of
# bench::SEEDS, the other harnesses the first. A harness that fails stops
# the script with its exit status.
set -euo pipefail
EXTRA="$*"
BINS="fig2_memory_impact fig1_plan_selection accuracy_tables tab5_vs_tlstm ext_sim_ablation ext_coldstart probe_learnability"
for b in $BINS; do
  echo "=== running $b ==="
  cargo run --release -p bench --bin "$b" -- $EXTRA 2>&1 | tee "results/logs/$b.log" | tail -3
done
echo "ALL_EXPERIMENTS_DONE"
