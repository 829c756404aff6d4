"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, *args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args, "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(tmp_path, workload, trace, seed=3):
    proc = bench(tmp_path, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def printed_metrics(lines):
    """(name, unit) of each metric line the harness prints before its JSON line."""
    return [(line.split()[0], line.split()[2]) for line in lines[:-1] if line.startswith("  ")]


def assert_printed_names_known(lines, known):
    for name, unit in printed_metrics(lines):
        if name == "fail_ratio":
            continue  # carried by "attempted" and "failed" in the JSON line
        assert known[name] == unit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_end_to_end(tmp_path, workload):
    lines = tiny(tmp_path, workload, trace=0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name] and metric["value"] > 0
    assert {name for name, _ in printed_metrics(lines)} == set(END_TO_END) | {"fail_ratio"}
    assert_printed_names_known(lines, END_TO_END)

    (path,) = tmp_path.glob("*.json")
    record = json.loads(path.read_text())
    assert record["seed"] == 3 and record["fail_ratio"] == 0
    assert record["machine"]["nproc"] >= 1
    assert {"python", "numpy", "scipy"} <= set(record["versions"])
    assert {"git_commit", "git_dirty", "src_sha256"} <= set(record["source"])
    assert len(record["output_sha256"]) == 64


def test_traced_runs_report_every_layer_metric_and_repeat_counts(tmp_path):
    counts = []
    for workload in ("verify-default", "resample-study"):
        lines = tiny(tmp_path / workload, workload, trace=1, seed=5)
        result = json.loads(lines[-1])
        assert result["correct"]
        assert set(result["metrics"]) == set(PER_LAYER)
        assert_printed_names_known(lines, PER_LAYER)
        counts.append({k: result["metrics"][k]["value"]
                       for k in ("power.cells", "power.reps_scored", "power.degenerate_count")})
        (path,) = (tmp_path / workload).glob("*.json")
        record = json.loads(path.read_text())
        assert record["self_times"]["layers"]["count"] == 1
        assert {s["run"] for s in record["spans"]} == {
            f"{workload}/seed5/workload", f"{workload}/seed5/layers"}
    assert counts[0] == counts[1]


def test_forced_check_failure_counts_in_fail_ratio(tmp_path):
    workload = worker.VerifyDefault(seed=1, size="tiny", workdir=tmp_path)
    real_check = workload.check
    workload.check = lambda out: [False] + real_check(out)[1:]
    _, tally = worker.measure(workload, seconds=0.0)
    assert (tally.failed, tally.attempted) == (1, worker.VERIFY_CLAIMS)

    def broken(span):
        raise RuntimeError("forced")

    workload.run = broken
    _, tally = worker.measure(workload, seconds=0.0)
    assert tally.failed == tally.attempted == worker.VERIFY_CLAIMS


def test_checks_reject_wrong_outputs(tmp_path):
    table = worker.Table3Paper(seed=1, size="tiny", workdir=tmp_path)
    report, text = table.run(spans.no_span)
    assert all(table.check((report, text)))
    row = report.rows[1]  # D_01, To: a rank-scored null row
    (n, est), rest = row.estimates[0], row.estimates[1:]
    bad_row = dataclasses.replace(
        row, estimates=((n, dataclasses.replace(est, pow=est.pow + 0.001)),) + rest)
    bad = dataclasses.replace(report, rows=(report.rows[0], bad_row) + report.rows[2:])
    assert table.check((bad, text)).count(False) == 1
    missing_last_row = text[: text.rindex("\n", 0, -1) + 1]
    assert not any(table.check((report, missing_last_row)))

    tb = worker.TbCell(seed=1, size="tiny", workdir=tmp_path)
    alt = tb.run(spans.no_span)
    assert tb.check(alt) == [True, True]
    assert tb.check(tb.null_est) == [True, False]

    assert worker.check_verify([{"passed": True}] * 7 + [{"passed": False}]).count(False) == 1

    study = worker.ResampleStudy(seed=1, size="tiny", workdir=tmp_path)
    analysis, freqs = study.run(spans.no_span)
    assert all(study.check((analysis, freqs)))
    freqs[0][1]["W"] = 1.5
    assert study.check((analysis, freqs)) == [False, True, True]


def test_changed_output_at_same_seed_fails_the_repetition():
    tally = worker.Tally()
    tally.add([True, True], "a")
    tally.add([True, True], "b")
    assert (tally.failed, tally.attempted) == (2, 4)


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tb-cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.run_id = "r"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    times = spans.self_times(tracer.spans)
    assert times["inner"]["count"] == 2
    outer = tracer.spans[0]
    children = times["inner"]["total_s"]
    assert times["outer"]["self_s"] == pytest.approx(outer["end"] - outer["start"] - children)
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[0]["parent"] is None


def fake_results(workload, walls, seed0=0):
    return [
        {"workload": workload, "seed": seed0 + i, "trace": 0, "failed": 0,
         "started_at": f"2026-01-01T00:00:{i:02d}",
         "metrics": {m["name"]: {"value": wall, "unit": m["unit"]} for m in SPEC["end_to_end"]}}
        for i, wall in enumerate(walls)
    ]


@pytest.mark.parametrize("new_walls, verdict", [
    ([10.0, 10.1, 9.9, 10.05, 9.95], "held"),
    ([13.0, 13.1, 12.9, 13.05, 12.95], "regressed"),
    ([7.0, 7.1, 6.9, 7.05, 6.95], "gain"),
    ([5.0, 15.0, 8.0, 12.0, 10.0], "unresolved"),
])
def test_compare_verdicts(new_walls, verdict):
    base = fake_results("tb-cell", [10.0, 10.1, 9.9, 10.05, 9.95])
    new = fake_results("tb-cell", new_walls, seed0=100)
    rows = compare.compare(base, new, SPEC)
    assert {r["verdict"] for r in rows} == {verdict}
    assert all(r["wins"][1] == 5 for r in rows)
