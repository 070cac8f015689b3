#!/usr/bin/env python3
"""Compare benchmark result files from two commits, or summarize one set.

    python3 perfbench/compare.py BASE_DIR [HEAD_DIR]

Each directory holds the result files ``run.py`` writes (one per run, from
--trace 0 runs; traced runs are skipped). With one directory, prints each
workload x end-to-end metric's median, quartiles and quartile spread against
its bound. With two, prints one row per workload x metric:

- ``improved``: HEAD wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than BASE's quartile spread;
- ``regressed``: HEAD's median is worse than BASE's by more than the
  metric's bound;
- ``unresolved``: BASE's own quartile spread exceeds the bound, unless every
  HEAD run beats every BASE run;
- ``within bound`` otherwise.

Runs pair by seed where both sides ran the same seeds, else in file order.
Bounds come from BENCHMARK.json for the gated metrics and from catalog.NAMED
for the workload-specific ones.
"""

import json
import statistics
import sys
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load_results(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        if record.get("trace") == 0:
            runs.append(record)
    return runs


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: (m["unit"], m["better"], m["bound"], None) for m in bench["end_to_end"]}
    for name, (unit, better, bound, workloads) in catalog.NAMED.items():
        specs.setdefault(name, (unit, better, bound, workloads))
    return specs


def values_of(run, name):
    if name in run["metrics"]:
        return run["metrics"][name]
    named = run["named"].get(name)
    return None if named is None else named["value"]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def series(runs, workload, name):
    pairs = [(r["seed"], values_of(r, name)) for r in runs if r["workload"] == workload]
    return [(seed, v) for seed, v in pairs if v is not None]


def pair_up(base, head):
    base_by_seed, head_by_seed = dict(base), dict(head)
    common = sorted(set(base_by_seed) & set(head_by_seed))
    if common:
        return [(base_by_seed[s], head_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in head]))


def verdict(base, head, better, bound):
    """Apply the pairing rule and the metric's bound; returns (verdict, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = pair_up(base, head)
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    b_vals, h_vals = [v for _, v in base], [v for _, v in head]
    bq1, bmed, bq3 = quartiles(b_vals)
    hmed = statistics.median(h_vals)
    all_better = all(sign * (h - b) > 0 for h in h_vals for b in b_vals)
    if bmed and spread(b_vals) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (hmed - bmed) > (bq3 - bq1):
        return "improved", wins, len(pairs)
    if sign * (hmed - bmed) < -bound * abs(bmed) or (bound == 0 and sign * (hmed - bmed) < 0):
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load_results(d) for d in argv]
    specs = metric_specs()
    workloads = sorted({r["workload"] for runs in sides for r in runs})
    if not workloads:
        print("no --trace 0 result files found", file=sys.stderr)
        return 2
    if len(sides) == 1:
        print(f"{'workload':<14} {'metric':<36} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    else:
        print(
            f"{'workload':<14} {'metric':<36} {'base median':>12} {'base iqr':>20} {'head median':>12} "
            f"{'change':>8} {'wins':>7} {'bound':>6}  verdict"
        )
    status = 0
    for workload in workloads:
        for name, (unit, better, bound, only) in specs.items():
            if only is not None and workload not in only:
                continue
            alias = catalog.ALIASES.get(workload, {}).get(name)
            label = f"{name}={alias}" if alias else name
            if len(sides) == 1:
                data = series(sides[0], workload, name)
                if not data:
                    continue
                vals = [v for _, v in data]
                q1, med, q3 = quartiles(vals)
                print(
                    f"{workload:<14} {label:<36} {len(vals):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{spread(vals):>8.3f} {bound:>6.3f}"
                )
                continue
            base, head = series(sides[0], workload, name), series(sides[1], workload, name)
            if not base or not head:
                continue
            result, wins, n = verdict(base, head, better, bound)
            if n < MIN_PAIRS:
                result += f" (only {n} pairs)"
            status |= result.startswith("regressed")
            b_vals = [v for _, v in base]
            bq1, bmed, bq3 = quartiles(b_vals)
            hmed = statistics.median([v for _, v in head])
            change = (hmed - bmed) / abs(bmed) if bmed else 0.0
            print(
                f"{workload:<14} {label:<36} {bmed:>12.5g} {f'[{bq1:.4g}, {bq3:.4g}]':>20} {hmed:>12.5g} "
                f"{change:>+8.1%} {f'{wins}/{n}':>7} {bound:>6.3f}  {result}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
