"""Compare two sets of benchmark runs, metric by metric.

``python3 bench/compare.py A.json B.json`` — each file is what
``bench/run.py --repeat R --out PATH`` wrote.  A is the base, B the
candidate.  For every workload and end-to-end metric it prints both
medians, the ratio B/A (base: A's median), each side's run-to-run spread
(distance between the quartiles of its runs, as a share of their
median), the metric's bound from ``BENCHMARK.json`` and a verdict:

``better``        B's median is better than A's by more than the bound
``within-bound``  B's median is no worse than A's by more than the bound
``worse``         B's median is worse than A's by more than the bound
``unresolved``    a side's spread exceeds the bound, so the runs cannot
                  tell — unless every run of B reads better than every
                  run of A, which is ``better`` whatever the spread

Exits non-zero on any ``worse``, any ``unresolved`` and any failed or
incorrect run.  Per-layer rows (traced runs) are printed as plain
medians: they explain a movement, they do not gate it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> "dict[tuple[str, int], list[dict]]":
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    grouped: "dict[tuple[str, int], list[dict]]" = {}
    for run in document["runs"]:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def values(runs: "list[dict]", metric: str) -> "list[float]":
    return [run["metrics"][metric]["value"] for run in runs]


def spread(samples: "list[float]") -> "float | None":
    """Interquartile distance over the median; None from a single run."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a)
    )  # > 0: B is worse
    b_always_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "better" if b_always_better else "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within-bound"


def fmt_spread(value: "float | None") -> str:
    return "   n=1" if value is None else f"{value:6.1%}"


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    side_a, side_b = load_runs(argv[0]), load_runs(argv[1])
    bad = 0

    print(f"{'workload':22s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'A iqr':>6s} {'B iqr':>6s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get((workload, 0)), side_b.get((workload, 0))
        if not runs_a or not runs_b:
            continue
        for run in runs_a + runs_b:
            if run["failed"] or not run["correct"]:
                bad += 1
                print(f"{workload:22s} seed {run['seed']}: {run['failed']} of "
                      f"{run['attempted']} ops failed, correct={run['correct']}")
        for metric in spec["end_to_end"]:
            a, b = values(runs_a, metric["name"]), values(runs_b, metric["name"])
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome in ("worse", "unresolved")
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:22s} {metric['name']:14s} {med_a:12.4f} {med_b:12.4f} "
                  f"{med_b / med_a:7.3f} {fmt_spread(spread(a))} {fmt_spread(spread(b))} "
                  f"{metric['bound']:6.0%}  {outcome}")

    print(f"\n{'workload':22s} {'per-layer metric':36s} {'A':>16s} {'B':>16s} {'B/A':>7s}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get((workload, 1)), side_b.get((workload, 1))
        if not runs_a or not runs_b:
            continue
        for metric in spec["per_layer"]:
            med_a = statistics.median(values(runs_a, metric["name"]))
            med_b = statistics.median(values(runs_b, metric["name"]))
            if med_a == med_b == 0.0:
                continue  # a layer this workload does not run
            ratio = f"{med_b / med_a:7.3f}" if med_a else "    n/a"
            exact = "  exact" if med_a == med_b else ""
            print(f"{workload:22s} {metric['name']:36s} {med_a:16.4f} {med_b:16.4f} "
                  f"{ratio}{exact}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
