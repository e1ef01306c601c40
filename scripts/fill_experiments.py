#!/usr/bin/env python3
"""Refreshes the `<!-- MEASURED -->` section of EXPERIMENTS.md from the
result TSVs written by ./run_all_experiments.sh.

It refuses (exit 1, EXPERIMENTS.md untouched) a TSV whose
`<name>.manifest.json` sidecar is missing, whose manifest's `git_sha` is
not an ancestor of HEAD, or whose manifest says the tree differed from that
commit (`git_dirty: true`): a table is only shown if a commit in this
branch's history made it. Each title names the kernel tier the table was
measured on and the tree's state (`clean`, `unknown` when git could not
tell, `unrecorded` for manifests older than the field). A table with a
`seed` column shows, per key, its `mean [min, max]` rows over the seeds when
it has them.
"""

import json
import os
import subprocess
import sys

RESULTS = "results"
DOC = "EXPERIMENTS.md"
MARK = "<!-- MEASURED -->"


def table(title, name, max_rows, keys=1, keep=None):
    """A section: its title, its TSV, the most rows shown, how many columns
    after `seed` name a row, and an optional filter on a row's cells by
    column name."""
    return title, name, max_rows, keys, keep


TABLES = [
    table("Orderings — seeds in which each claimed ordering holds", "orderings.tsv", 40),
    table("Fig. 1 — plan selection (total of 20 queries)", "fig1_plan_selection.tsv", 22),
    table("Fig. 2 — memory sweep", "fig2_memory_impact.tsv", 34),
    table("Table IV — module ablation", "tab4_ablation.tsv", 6),
    table("Fig. 6 — training loss, every fifth epoch", "fig6_training_loss.tsv", 8,
          keep=lambda row: row["epoch"] == "1" or int(row["epoch"]) % 5 == 0),
    table("Table V — RAAL vs TLSTM (fixed resources)", "tab5_vs_tlstm.tsv", 4),
    table("Table VI — RAAL vs GPSJ", "tab6_vs_gpsj.tsv", 4),
    table("Table VII — ± resource-aware attention", "tab7_resource_attention.tsv", 10, keys=2),
    table("Fig. 8 — adaptability by memory", "fig8_adaptability.tsv", 10),
    table("Table VIII — training size", "tab8_training_size.tsv", 7),
    table("Table IX — inference latency", "tab9_inference_latency.tsv", 5),
    table("Extension — cold start", "ext_coldstart.tsv", 5),
    table("Extension — simulator ablation", "ext_sim_ablation.tsv", 7),
    table("Probe — linear learnability", "probe_learnability.tsv", 4),
]

STATS = ("mean", "min", "max")


def provenance(path: str):
    """`(note for the title, None)` if `path` may be shown, else
    `(None, why not)`."""
    manifest = path + ".manifest.json"
    if not os.path.exists(manifest):
        return None, f"{path}: no manifest ({manifest})"
    with open(manifest) as f:
        run = json.load(f)
    sha, fields = run.get("git_sha", ""), run.get("fields", {})
    ok = subprocess.run(
        ["git", "merge-base", "--is-ancestor", sha, "HEAD"], capture_output=True
    ).returncode == 0
    if not ok:
        return None, f"{path}: git_sha {sha!r} is not an ancestor of HEAD"
    dirty = fields.get("git_dirty", "unrecorded")
    if dirty is True:
        return None, f"{path}: made from a tree that differed from {sha[:12]} (git_dirty)"
    tree = {False: "clean", None: "unknown"}.get(dirty, dirty)
    return f"kernel tier {fields.get('kernel_tier', 'unrecorded')} · tree {tree}", None


def spread_rows(header, body, k):
    """Per key (the `k` columns after `seed`), `mean [min, max]` cells from
    a seeded table's stat rows; the table as written when it has none."""
    stats = {}
    for cells in body:
        if cells[0] in STATS:
            stats.setdefault(tuple(cells[1 : 1 + k]), {})[cells[0]] = cells[1 + k :]
    if not stats:
        return header, body
    rows = []
    for key, by_stat in stats.items():
        mean, lo, hi = (by_stat[s] for s in STATS)
        rows.append(list(key) + [f"{m} [{a}, {b}]" for m, a, b in zip(mean, lo, hi)])
    return header[1:], rows


def tsv_to_md(path: str, max_rows: int, keys: int, keep) -> str:
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines:
        return "_empty_\n"
    header = lines[0].split("\t")
    body = [line.split("\t") for line in lines[1:]]
    if header[0] == "seed":
        header, body = spread_rows(header, body, keys)
    if keep:
        body = [cells for cells in body if keep(dict(zip(header, cells)))]
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for cells in body[:max_rows]:
        out.append("| " + " | ".join(cells) + " |")
    if len(body) > max_rows:
        out.append(f"| … | ({len(body) - max_rows} more rows in the TSV) |")
    return "\n".join(out) + "\n"


def main() -> int:
    with open(DOC) as f:
        doc = f.read()
    if MARK not in doc:
        print(f"marker {MARK} missing from {DOC}", file=sys.stderr)
        return 1
    head = doc.split(MARK)[0] + MARK + "\n\n"
    sections, refused = [], []
    for title, name, max_rows, keys, keep in TABLES:
        path = os.path.join(RESULTS, name)
        if not os.path.exists(path):
            sections.append(f"### {title}\n\n_not yet generated ({name})_\n")
            continue
        note, error = provenance(path)
        if error:
            refused.append(error)
            continue
        sections.append(f"### {title} · {note}\n\n" + tsv_to_md(path, max_rows, keys, keep))
    if refused:
        print("refusing to fill EXPERIMENTS.md:\n  " + "\n  ".join(refused), file=sys.stderr)
        return 1
    with open(DOC, "w") as f:
        f.write(head + "\n".join(sections))
    print(f"updated {DOC} from {RESULTS}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
