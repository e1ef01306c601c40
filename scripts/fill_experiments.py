#!/usr/bin/env python3
"""Refreshes the `<!-- MEASURED -->` section of EXPERIMENTS.md from the
result TSVs written by ./run_all_experiments.sh."""

import os
import sys

RESULTS = "results"
DOC = "EXPERIMENTS.md"
MARK = "<!-- MEASURED -->"

TABLES = [
    ("Fig. 1 — plan selection (per query)", "fig1_plan_selection.tsv", 22),
    ("Fig. 2 — memory sweep", "fig2_memory_impact.tsv", 34),
    ("Table IV — module ablation", "tab4_ablation.tsv", 6),
    ("Fig. 6 — training loss per epoch", "fig6_training_loss.tsv", 40),
    ("Table V — RAAL vs TLSTM (fixed resources)", "tab5_vs_tlstm.tsv", 4),
    ("Table VI — RAAL vs GPSJ", "tab6_vs_gpsj.tsv", 4),
    ("Table VII — ± resource-aware attention", "tab7_resource_attention.tsv", 10),
    ("Fig. 8 — adaptability by memory", "fig8_adaptability.tsv", 10),
    ("Table VIII — training size", "tab8_training_size.tsv", 7),
    ("Table IX — inference latency", "tab9_inference_latency.tsv", 5),
    ("Extension — cold start", "ext_coldstart.tsv", 5),
    ("Extension — simulator ablation", "ext_sim_ablation.tsv", 7),
]


def tsv_to_md(path: str, max_rows: int) -> str:
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines:
        return "_empty_\n"
    header = lines[0].split("\t")
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    body = lines[1:]
    clipped = len(body) > max_rows
    for line in body[:max_rows]:
        out.append("| " + " | ".join(line.split("\t")) + " |")
    if clipped:
        out.append(f"| … | ({len(body) - max_rows} more rows in the TSV) |" )
    return "\n".join(out) + "\n"


def main() -> int:
    with open(DOC) as f:
        doc = f.read()
    if MARK not in doc:
        print(f"marker {MARK} missing from {DOC}", file=sys.stderr)
        return 1
    head = doc.split(MARK)[0] + MARK + "\n\n"
    sections = []
    for title, name, max_rows in TABLES:
        path = os.path.join(RESULTS, name)
        if not os.path.exists(path):
            sections.append(f"### {title}\n\n_not yet generated ({name})_\n")
            continue
        sections.append(f"### {title}\n\n" + tsv_to_md(path, max_rows))
    with open(DOC, "w") as f:
        f.write(head + "\n".join(sections))
    print(f"updated {DOC} from {RESULTS}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
