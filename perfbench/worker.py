"""One workload process of the benchmark.

``run.py`` starts this script in a fresh interpreter per workload, so the
process's CPU time and peak RSS belong to that workload alone.  It imports
the library from the checkout's ``src/``, makes the workload's inputs from
the seed, calls the same public functions the matching CLI subcommand
calls, checks every output, and prints one JSON object as its last line.

With ``--trace 0`` it repeats the workload until ``--seconds`` have passed.  With ``--trace 1`` it runs the workload once with
tracing off and once with spans around each library call (their ratio is
the tracing overhead), then runs the layer suite: the public functions of
each layer called one at a time on the same inputs, each inside a span.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ancitest  # noqa: E402
import numpy as np  # noqa: E402
from ancitest import (  # noqa: E402
    DesignId,
    RandomStream,
    StudyPlan,
    best_level_power,
    check_prop_1_1,
    check_prop_2_1,
    check_prop_2_2,
    check_prop_2_3,
    check_prop_2_4,
    check_prop_2_5,
    check_prop_3_1,
    estimate_power,
    likelihood_ratio,
    load_xy_csv,
    make_fixture,
    pow_indicators,
    render_table,
    reproduce_table,
    resample_power_study,
    residual_median_analysis,
    sample_design_matrix,
    statistic_sample,
    verify_propositions,
)
from ancitest.characterization import (  # noqa: E402
    FiniteStatistic,
    coarsening_counter_model,
    default_alpha_grid,
    product_model,
    random_model,
    random_statistic,
    singleton_indicators,
)

from spans import Tracer, no_span  # noqa: E402

ALPHA = 0.05

# Table 3 of the paper: design indices, sample sizes and tests, in the
# report's row and column order.  Every test but W is scored against the
# rank threshold of its matched null vector.
TABLE3_INDICES = (1, 2, 3, 4)
TABLE3_NS = (50, 150)
TABLE3_TESTS = ("W", "To", "T1", "TN")
RANK_SCORED = ("To", "T1", "TN")
CHUNK_ROWS = 4096

# The TB cell of table 1: the D_02 null and its D_12 alternative at n=250.
TB_INDEX = 2
STUDY_NBS = (70, 80, 90)
FIXTURE_N = 100
VERIFY_CLAIMS = 8

# "paper" is what the benchmark measures; "tiny" only makes the
# benchmark's own tests fast.
SIZES = {
    "paper": {
        "table_reps": 55000,
        "tb_reps": 1000,
        "tb_b": 1000,
        "tb_n": 250,
        "verify_models": 100,
        "verify_pairs": 1000,
        "study_reps": 55000,
        "chunk_rows": CHUNK_ROWS,
        "report_reps": 1000,
        "blp_pairs": 150,
        "repeats": 21,
    },
    "tiny": {
        "table_reps": 1000,
        "tb_reps": 1000,
        "tb_b": 100,
        "tb_n": 50,
        "verify_models": 20,
        "verify_pairs": 20,
        "study_reps": 2000,
        "chunk_rows": 256,
        "report_reps": 1000,
        "blp_pairs": 5,
        "repeats": 3,
    },
}


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_fixture_csv(path, seed):
    """The fixture as ``ancitest fixture`` writes it: one ``residual`` column."""
    sample = make_fixture(FIXTURE_N, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["residual"])
        for value in sample:
            writer.writerow([f"{value:.12g}"])


def in_unit(x):
    return 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# Output checks.  Each returns one flag per operation; they hold for any
# correct program without pinning its output bytes.


def check_table3(report, text, reps):
    """One flag per (row, n) cell of table 3."""
    n_cells = len(TABLE3_INDICES) * 2 * len(TABLE3_TESTS) * len(TABLE3_NS)
    expected_rows = [
        (f"D_{h}{m}", t) for m in TABLE3_INDICES for h in (0, 1) for t in TABLE3_TESTS
    ]
    lines = text.splitlines()
    width = 2 + 2 * len(TABLE3_NS)
    shape_ok = (
        [(row.design.label, row.test) for row in report.rows] == expected_rows
        and all(tuple(n for n, _ in row.estimates) == TABLE3_NS for row in report.rows)
        and len(lines) == 1 + len(expected_rows)
        and all(len(line.split(",")) == width for line in lines)
    )
    if not shape_ok:
        return [False] * n_cells
    exact_null = math.floor(ALPHA * reps + 1e-9) / reps
    flags = []
    for row, line in zip(report.rows, lines[1:]):
        try:
            csv_ok = all(in_unit(float(v)) for v in line.split(",")[2:])
        except ValueError:
            csv_ok = False
        for _, est in row.estimates:
            ok = csv_ok and in_unit(est.powa) and in_unit(est.pow) and est.reps == reps
            if row.design.hypothesis == 0 and row.test in RANK_SCORED:
                ok = ok and est.pow == exact_null
            flags.append(ok)
    return flags


def check_tb(null_est, alt_est):
    """Null cell, then alternative cell; the alternative must reject more."""
    null_ok = in_unit(null_est.powa) and in_unit(null_est.pow)
    alt_ok = in_unit(alt_est.powa) and in_unit(alt_est.pow) and alt_est.pow > null_est.pow
    return [null_ok, alt_ok]


def check_verify(rows):
    """One flag per claim; every claim of the verifier must pass."""
    if len(rows) < VERIFY_CLAIMS:
        return [False] * VERIFY_CLAIMS
    return [bool(row["passed"]) for row in rows]


def check_study(analysis, study):
    """One flag per resample size."""
    analysis_ok = analysis.n == FIXTURE_N and all(in_unit(p) for p in analysis.p_values.values())
    return [
        analysis_ok and set(freqs) == {"W", "To2", "TN2"} and all(in_unit(f) for f in freqs.values())
        for _, freqs in study
    ]


# ---------------------------------------------------------------------------
# Workloads.  run() makes the library calls the CLI subcommand makes and is
# the timed part; check() and text() run after the clock stops.


class Table3Paper:
    """``ancitest tables --table 3`` at the paper's 55000 reps."""

    n_ops = len(TABLE3_INDICES) * 2 * len(TABLE3_TESTS) * len(TABLE3_NS)

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.reps = SIZES[size]["table_reps"]

    def run(self, span):
        with span("power.reproduce_table"):
            report = reproduce_table("3", reps=self.reps, seed=self.seed, threads=1)
        with span("power.render_table"):
            text = render_table(report, "csv")
        return report, text

    def check(self, out):
        return check_table3(out[0], out[1], self.reps)

    def text(self, out):
        return out[1]


def tb_plans(seed, size):
    """The TB plans D_02 -> D_02 (the null cell alone) and D_02 -> D_12."""
    sz = SIZES[size]
    null = DesignId("1", 0, TB_INDEX)
    return [
        StudyPlan("TB", null, alt, ns=(sz["tb_n"],), reps=sz["tb_reps"],
                  root_seed=seed, alpha=ALPHA, bootstrap_b=sz["tb_b"])
        for alt in (null, DesignId("1", 1, TB_INDEX))
    ]


class TbCell:
    """``estimate_power`` of the TB plan D_02 -> D_12.

    The call simulates the null cell and the alternative cell and reports
    the alternative.  The null cell's own rate, which the check compares
    against, is scored once before the clock starts.
    """

    n_ops = 2

    def __init__(self, seed, size, workdir):
        null_plan, self.plan = tb_plans(seed, size)
        try:
            (self.null_est,) = estimate_power(null_plan, threads=1).values()
        except Exception:
            traceback.print_exc()
            self.null_est = None

    def run(self, span):
        with span("power.estimate_power"):
            (est,) = estimate_power(self.plan, threads=1).values()
        return est

    def check(self, out):
        if self.null_est is None:
            return [False, False]
        return check_tb(self.null_est, out)

    def text(self, out):
        return f"{self.null_est!r}\n{out!r}\n"


class VerifyDefault:
    """``ancitest verify`` with its default model and pair counts."""

    n_ops = VERIFY_CLAIMS

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.models = SIZES[size]["verify_models"]
        self.pairs = SIZES[size]["verify_pairs"]

    def run(self, span):
        with span("characterization.verify_propositions"):
            return verify_propositions(seed=self.seed, n_models=self.models, n_pairs=self.pairs)

    def check(self, out):
        return check_verify(out)

    def text(self, out):
        return "".join(
            f"{r['name']},{r['passed']},{r['max_violation']!r},{r['cases']}\n" for r in out
        )


class ResampleStudy:
    """``ancitest analyze --ycol residual --study nb=70,80,90`` on the fixture."""

    n_ops = len(STUDY_NBS)

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.reps = SIZES[size]["study_reps"]
        self.path = Path(workdir) / "residuals.csv"
        write_fixture_csv(self.path, seed)

    def run(self, span):
        with span("regression.load_xy_csv"):
            eps, _ = load_xy_csv(self.path, "residual", "residual")
        with span("regression.residual_median_analysis"):
            analysis = residual_median_analysis(eps, alpha=ALPHA)
        study = []
        for n_b in STUDY_NBS:
            with span("regression.resample_power_study"):
                freqs = resample_power_study(eps, n_b, reps=self.reps, alpha=ALPHA, seed=self.seed)
            study.append((n_b, freqs))
        return analysis, study

    def check(self, out):
        return check_study(*out)

    def text(self, out):
        analysis, study = out
        lines = [f"p_values {sorted(analysis.p_values.items())!r}"]
        lines += [f"n_b={n_b} {sorted(freqs.items())!r}" for n_b, freqs in study]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    "table3-paper": Table3Paper,
    "tb-cell": TbCell,
    "verify-default": VerifyDefault,
    "resample-study": ResampleStudy,
}


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_once(workload, span):
    """One timed repetition: (wall_s, cpu_s, op flags, output text or None).

    An exception fails every operation of the repetition; its traceback
    goes to stderr.
    """
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        try:
            out = workload.run(span)
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        return wall, cpu, workload.check(out), workload.text(out)
    except Exception:
        traceback.print_exc()
        return wall, cpu, [False] * workload.n_ops, None


class Tally:
    """Operation counts and the output digest across repetitions.

    A repetition whose output differs from the first one's fails all its
    operations: at a fixed seed the library's output is deterministic.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, flags, text):
        digest = None if text is None else sha256_text(text)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            flags = [False] * len(flags)
        self.attempted += len(flags)
        self.failed += flags.count(False)


def measure(workload, seconds):
    """Repeat the workload until ``seconds`` have passed, at least once."""
    tally = Tally()
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        wall, cpu, flags, text = run_once(workload, no_span)
        tally.add(flags, text)
        iterations.append({"wall_s": wall, "cpu_s": cpu})
    return iterations, tally


# ---------------------------------------------------------------------------
# Layer suite: each layer's public functions on the workloads' inputs.


def _check_props(gen, n_models, span):
    """The check_prop_* calls ``verify_propositions`` makes, without np-dominance."""
    grid = default_alpha_grid()
    models = [random_model(gen, int(gen.integers(2, 9))) for _ in range(n_models)]
    counter, merged = coarsening_counter_model()
    with span("characterization.check_prop_1_1"):
        for mod in models:
            check_prop_1_1(mod)
    with span("characterization.check_prop_2_1"):
        for mod in models:
            check_prop_2_1(mod, random_statistic(gen, mod.m))
    with span("characterization.check_prop_2_3"):
        for mod in models:
            lam = likelihood_ratio(mod)
            family = singleton_indicators(mod.m) + [FiniteStatistic((1.0,) * mod.m)]
            check_prop_2_3(mod, lam, family)
            bumped = np.array(lam.values)
            bumped[0] += 1e-6
            check_prop_2_3(mod, FiniteStatistic(tuple(bumped)), family)
    with span("characterization.check_prop_2_2"):
        for mod in models[:20]:
            check_prop_2_2(mod, likelihood_ratio(mod), grid)
        check_prop_2_2(counter, merged, grid)
    with span("characterization.check_prop_2_5"):
        for mod in models[:20]:
            check_prop_2_5(mod, likelihood_ratio(mod), grid)
        check_prop_2_5(counter, merged, grid)
    with span("characterization.check_prop_2_4"):
        for mod in models[:20]:
            lam = likelihood_ratio(mod)
            check_prop_2_4(mod, lam, random_statistic(gen, mod.m), grid)
            check_prop_2_4(mod, lam, lam, grid)
    with span("characterization.check_prop_3_1"):
        for _ in range(20):
            mod, t, a, tn = product_model(gen, int(gen.integers(2, 5)), int(gen.integers(2, 4)))
            check_prop_3_1(mod, t, a, tn, grid)


def layer_suite(seed, size, tracer, workdir):
    """Per-layer metrics, each from spans around one layer's public calls."""
    sz = SIZES[size]
    span = tracer.span
    repeats = sz["repeats"]
    ms = 1e3

    # designs and _kernels: one chunk of every table-3 cell, drawn on the
    # stream path the table engine gives chunk 0 of that cell.
    rows = sz["chunk_rows"]
    cells = [(m, h, n) for m in TABLE3_INDICES for h in (0, 1) for n in TABLE3_NS]
    for m, h, n in cells:
        did = DesignId("3", h, m)
        with span("designs.sample_design_matrix"):
            sample_design_matrix(did, rows, n, RandomStream(seed, ("3", m, h, n, 0)))
        with span("power.statistic_sample[TN]"):
            statistic_sample("TN", did, n, rows, seed)
        with span("power.statistic_sample[W]"):
            statistic_sample("W", did, n, rows, seed)
    sample = tracer.total("designs.sample_design_matrix")
    metrics = {
        "designs.sample_ms": sample / len(cells) * ms,
        "kernels.median_ms": (tracer.total("power.statistic_sample[TN]") - sample) / len(cells) * ms,
        "kernels.signed_rank_ms": (tracer.total("power.statistic_sample[W]") - sample) / len(cells) * ms,
    }

    # power: thresholding a reps-long pair, rendering a table-3 report.
    reps = sz["table_reps"]
    null, _ = statistic_sample("TN", DesignId("3", 0, 1), 50, reps, seed)
    alt, _ = statistic_sample("TN", DesignId("3", 1, 1), 50, reps, seed)
    for _ in range(repeats):
        with span("power.pow_indicators"):
            pow_indicators(alt, null, ALPHA)
    with span("power.reproduce_table"):
        report = reproduce_table("3", reps=sz["report_reps"], seed=seed, threads=1)
    for _ in range(repeats):
        with span("power.render_table"):
            render_table(report, "csv")
    metrics["power.threshold_ms"] = statistics.median(tracer.durations("power.pow_indicators")) * ms
    metrics["power.render_ms"] = statistics.median(tracer.durations("power.render_table")) * ms

    # _kernels through estimate_power: the TB null cell.
    plan = tb_plans(seed, size)[0]
    with span("power.estimate_power"):
        tb = list(estimate_power(plan, threads=1).values())
    tb_reps = sum(est.reps for est in tb)
    metrics["kernels.bootstrap_ms_per_rep"] = tracer.total("power.estimate_power") / tb_reps * ms
    estimates = [est for row in report.rows for _, est in row.estimates] + tb
    metrics["power.cells"] = len(estimates)
    metrics["power.reps_scored"] = sum(est.reps for est in estimates)
    metrics["power.degenerate_count"] = sum(est.degenerate_count for est in estimates)

    # characterization: best_level_power over a fixed set of
    # (model, statistic, alpha), then the proposition checks.
    gen = np.random.default_rng([seed, 1])
    pairs = []
    for _ in range(sz["blp_pairs"]):
        mod = random_model(gen, int(gen.integers(2, 9)))
        pairs += [(mod, random_statistic(gen, mod.m)), (mod, likelihood_ratio(mod))]
    grid = default_alpha_grid()
    with span("characterization.best_level_power"):
        for mod, t in pairs:
            for al in grid:
                best_level_power(mod, t, al)
    calls = len(pairs) * len(grid)
    metrics["characterization.best_level_power_us"] = (
        tracer.total("characterization.best_level_power") / calls * 1e6
    )
    with span("characterization.props"):
        _check_props(np.random.default_rng([seed, 2]), sz["verify_models"], span)
    metrics["characterization.props_s"] = tracer.total("characterization.props")

    # regression: ingestion and analysis, then each resample size.
    study = ResampleStudy(seed, size, workdir)
    for _ in range(repeats):
        with span("regression.load_xy_csv"):
            eps, _ = load_xy_csv(study.path, "residual", "residual")
        with span("regression.residual_median_analysis"):
            residual_median_analysis(eps, alpha=ALPHA)
    for n_b in STUDY_NBS:
        with span("regression.resample_power_study"):
            resample_power_study(eps, n_b, reps=study.reps, alpha=ALPHA, seed=seed)
    metrics["regression.analysis_ms"] = (
        statistics.median(tracer.durations("regression.load_xy_csv"))
        + statistics.median(tracer.durations("regression.residual_median_analysis"))
    ) * ms
    metrics["regression.resample_ms_per_1k"] = (
        tracer.total("regression.resample_power_study") / (len(STUDY_NBS) * study.reps) * 1e6
    )
    return metrics


def traced_run(workload, name, seed, size, workdir):
    """One repetition untraced, one traced, then the layer suite."""
    tally = Tally()
    wall_off, _, flags, text = run_once(workload, no_span)
    tally.add(flags, text)
    tracer = Tracer()
    tracer.run_id = f"{name}/seed{seed}/workload"
    with tracer.span(f"workload:{name}"):
        wall_on, _, flags, text = run_once(workload, tracer.span)
    tally.add(flags, text)
    tracer.run_id = f"{name}/seed{seed}/layers"
    with tracer.span("layers"):
        layers = layer_suite(seed, size, tracer, workdir)
    layers["trace.overhead_pct"] = (wall_on - wall_off) / wall_off * 100.0
    return layers, tracer.spans, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    library = Path(ancitest.__file__).resolve()
    if ROOT / "src" not in library.parents:
        print(f"worker: imported ancitest from {library}, not from this checkout",
              file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    result = {}
    if args.trace:
        layers, spans, tally = traced_run(workload, args.workload, args.seed, args.size,
                                          args.workdir)
        result.update(layers=layers, spans=spans)
    else:
        iterations, tally = measure(workload, args.seconds)
        result["iterations"] = iterations
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        output_sha256=tally.digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
