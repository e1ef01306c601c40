#!/bin/bash
# Regenerates every table and figure of the paper (reduced scale by
# default; pass --full for paper-scale runs, --seeds N for fewer seeds).
# accuracy_tables trains every model (Tables IV–IX, Figs. 1 and 6–8, the
# cold-start run and the probe) over the 5 seeds of bench::SEEDS;
# fig2_memory_impact (Fig. 2 and the simulator ablation) runs the first.
# Each log ends with its harness's wall time. A harness that fails stops
# the script with its exit status.
set -euo pipefail
EXTRA="$*"
for b in fig2_memory_impact accuracy_tables; do
  echo "=== running $b ==="
  start=$SECONDS
  cargo run --release -p bench --bin "$b" -- $EXTRA 2>&1 | tee "results/logs/$b.log" | tail -3
  echo "=== $b: $((SECONDS - start)) s ===" | tee -a "results/logs/$b.log"
done
echo "ALL_EXPERIMENTS_DONE"
