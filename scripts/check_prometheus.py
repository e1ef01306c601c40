#!/usr/bin/env python3
"""Validates a Prometheus text-exposition snapshot (format 0.0.4), as
written at shutdown by a run with `RAAL_METRICS_OUT` set.

Usage: check_prometheus.py <metrics.prom> [--require NAME ...]

Checks, line by line:
  * every sample line parses as `name{labels} value` with a valid metric
    name and a float value (NaN/+Inf/-Inf allowed);
  * every metric carries a preceding `# TYPE` of counter/gauge/summary,
    and samples agree with it (counters end in `_total` and never
    regress below zero, summaries expose `quantile` labels plus matching
    `_sum`/`_count` series);
  * `# TYPE` is declared at most once per metric.

`--require` names (raw RAAL names, e.g. `monitor.drift.agg_join`) must
be present as a sample with a non-NaN value — CI uses this to assert the
drift monitor's gauge flipped and that the serving counters a hit rate
is read from (`serving.predict`, `serving.predict.model`) were written.
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def fail(msg):
    print(f"check_prometheus: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_value(text):
    if text in ("NaN", "+Inf", "-Inf", "Inf"):
        return float(text.replace("Inf", "inf"))
    try:
        return float(text)
    except ValueError:
        return None


def raal_name(name):
    """Maps a raw RAAL metric name to its Prometheus rendering."""
    return "raal_" + re.sub(r"[^a-zA-Z0-9]", "_", name)


def main():
    args = sys.argv[1:]
    if not args:
        fail("usage: check_prometheus.py <metrics.prom> [--require NAME ...]")
    path, required = args[0], []
    rest = args[1:]
    while rest:
        if rest[0] != "--require" or len(rest) < 2:
            fail(f"unexpected argument {rest[0]!r}")
        required.append(rest[1])
        rest = rest[2:]

    types = {}  # metric family -> declared type
    samples = {}  # sample name (with suffix) -> [(labels, value)]
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 2 and parts[1] in ("TYPE", "HELP"):
                    if len(parts) < 3 or not NAME_RE.match(parts[2]):
                        fail(f"line {lineno}: malformed {parts[1]} comment: {line}")
                    if parts[1] == "TYPE":
                        name, ty = parts[2], parts[3] if len(parts) > 3 else ""
                        if ty not in ("counter", "gauge", "summary", "histogram", "untyped"):
                            fail(f"line {lineno}: unknown TYPE {ty!r} for {name}")
                        if name in types:
                            fail(f"line {lineno}: duplicate TYPE for {name}")
                        if name in samples:
                            fail(f"line {lineno}: TYPE for {name} after its samples")
                        types[name] = ty
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"line {lineno}: unparseable sample: {line}")
            value = parse_value(m.group("value"))
            if value is None:
                fail(f"line {lineno}: bad value {m.group('value')!r}")
            labels = m.group("labels")
            if labels:
                for pair in labels.split(","):
                    if not LABEL_RE.match(pair.strip()):
                        fail(f"line {lineno}: bad label {pair!r}")
            samples.setdefault(m.group("name"), []).append((labels or "", value))

    if not samples:
        fail(f"{path}: no samples")

    # Every sample must belong to a declared family: exact for counters
    # and gauges, base-name for summary quantile/_sum/_count series.
    for name, entries in samples.items():
        family = None
        for candidate in (name, name.removesuffix("_sum"), name.removesuffix("_count")):
            if candidate in types:
                family = candidate
                break
        if family is None:
            fail(f"{name}: sample without a TYPE declaration")
        ty = types[family]
        if ty == "counter":
            if not name.endswith("_total"):
                fail(f"{name}: counter samples must end in _total")
            for labels, value in entries:
                if value < 0:
                    fail(f"{name}: negative counter value {value}")
        if ty == "summary" and family == name:
            for labels, _ in entries:
                if "quantile=" not in labels:
                    fail(f"{name}: summary series without a quantile label")

    # Each summary family must expose _sum and _count.
    for family, ty in types.items():
        if ty == "summary":
            for suffix in ("_sum", "_count"):
                if family + suffix not in samples:
                    fail(f"{family}: summary missing {family}{suffix}")

    for raw in required:
        name = raal_name(raw)
        found = samples.get(name) or samples.get(name + "_total")
        if not found:
            fail(f"required metric {raw} ({name}) not present")
        if all(v != v for _, v in found):  # all NaN
            fail(f"required metric {raw} is NaN")

    total = sum(len(v) for v in samples.values())
    print(f"ok: {total} samples across {len(types)} metric families in {path}")


if __name__ == "__main__":
    main()
