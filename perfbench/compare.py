"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file or a directory of them, as ``run.py``
writes to ``--out``.  Only untraced runs are compared.  One row per
workload and end-to-end metric of BENCHMARK.json gives each side's median
and quartiles, NEW's pair wins over BASE, whether NEW stayed within the
metric's bound, and a verdict:

* ``unresolved``: one side's quartile spread, as a share of its median, is
  wider than the bound, and NEW does not beat BASE on every run;
* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``gain``: NEW wins at least 9 of every 10 pairs, and the medians differ by
  more than BASE's quartile spread;
* ``held``: none of these.

Runs pair up by seed when both sides share seeds, otherwise in run order.
Exits 1 when a row regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            results.append(record)
    results.sort(key=lambda r: r["started_at"])
    return results


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(base, new):
    """(base value, new value) pairs: by shared seed, else by run order."""
    base_by_seed = {r["seed"]: r for r in base}
    shared = [r for r in new if r["seed"] in base_by_seed]
    if shared:
        return [(base_by_seed[r["seed"]], r) for r in shared]
    return list(zip(base, new))


def compare_metric(base, new, metric):
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in new]
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)

    def better(x, y):
        return x < y if lower else x > y

    matched = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"])
               for ra, rb in pairs(base, new)]
    wins = sum(better(vb, va) for va, vb in matched)
    worse = (bm - am) / am if lower else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    beats_every_run = all(better(vb, va) for va in a for vb in b)
    if spread > bound and not beats_every_run:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif matched and wins >= WIN_SHARE * len(matched) and abs(bm - am) > a3 - a1:
        verdict = "gain"
    else:
        verdict = "held"
    return {
        "metric": name,
        "unit": metric["unit"],
        "base": (len(a), a1, am, a3),
        "new": (len(b), b1, bm, b3),
        "change": -worse,
        "spread": spread,
        "bound": bound,
        "wins": (wins, len(matched)),
        "bound_held": worse <= bound,
        "verdict": verdict,
    }


def compare(base, new, spec):
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        wa = [r for r in base if r["workload"] == workload]
        wb = [r for r in new if r["workload"] == workload]
        if not wa or not wb:
            continue
        for metric in spec["end_to_end"]:
            row = compare_metric(wa, wb, metric)
            row["workload"] = workload
            row["failed"] = (sum(r["failed"] for r in wa), sum(r["failed"] for r in wb))
            rows.append(row)
    return rows


def format_side(side):
    n, q1, med, q3 = side
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={n}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="a result file or a directory of them")
    parser.add_argument("new", help="a result file or a directory of them")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_results(args.base), load_results(args.new), spec)
    if not rows:
        print("compare: no workload has untraced results on both sides", file=sys.stderr)
        return 2
    header = ("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
              "better by", "spread", "bound", "wins", "held", "verdict", "failed")
    table = [header]
    for r in rows:
        table.append((
            r["workload"], f"{r['metric']} ({r['unit']})", format_side(r["base"]),
            format_side(r["new"]), f"{r['change']:+.2%}", f"{r['spread']:.2%}",
            f"{r['bound']:.0%}", "{}/{}".format(*r["wins"]),
            "yes" if r["bound_held"] else "no", r["verdict"], "{}/{}".format(*r["failed"]),
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
