"""Seeded, parallel Monte Carlo engine for the power studies.

Two rejection-rate criteria are computed per (test, design, n) cell:

* PowA rejects when the statistic strictly exceeds the asymptotic one-sided
  normal critical value.
* Pow rejects when the statistic strictly exceeds an empirical threshold
  taken from the matched null design: with k = floor(alpha * reps), the
  threshold is the (reps - k)-th order statistic of the null statistic
  vector.  On the null vector itself this rejects exactly k of reps
  replications, so a null design's Pow equals k/reps by construction, and
  the rejection indicators are invariant under strictly increasing
  transforms of the statistic.

Reproducibility contract: replications are produced in fixed-size chunks,
and chunk c of a cell draws from the stream path (table, index, hypothesis,
n, c).  The bootstrap test TB decides a null cell and its alternative, a
location shift of it, on the null's chunk path (table, index, 0, n, c): one
pass over the null rows' resamples decides both.  The rows of each
512-row block share one sequence of resample indices, drawn one step at
a time from the child path (table, index, 0, n, c, 1); every block draws
all its steps, so a null cell alone draws exactly as its pair does (stream
layout 5, see designs.STREAM_LAYOUT).  Chunk content therefore depends
only on the root seed and the cell coordinates, never on the worker
schedule, and rates are reduced from integer rejection counts, so any
thread count yields identical output.

Every cell is simulated and scored from one test table (_TABLES), which
holds each test's kernel, the kernel's input and the cell's scoring rule.
W (by the normal critical value) and the bootstrap test TB (by its own
decisions) report Pow := PowA.  Every kernel returns its values with a
reason vector, nonzero on each degenerate row.  Per (cell, test) the engine
keeps only what the score reads, reduced chunk by chunk as tasks finish:
the PowA, Pow and degenerate counts, and for a matched null cell of a RANK
test its k + 1 largest values, whose smallest is the threshold.  One
function, _rank_rule, keeps those values, reads the threshold and rejects
strictly above it; pow_indicators applies it with the whole null vector as
one chunk.  No reps-long vector is kept.  The resample study in
``regression`` shares the row-tile dispatch.  Both public drivers name only
the cells they report; _run_cells adds the matched null of each RANK cell,
and every cell is scored through one function, _Scores.estimate.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .designs import (
    STREAM_LAYOUT, DesignId, RandomStream, design_params, list_designs, null_shift,
    sample_design_matrix,
)

__all__ = [
    "CHUNK",
    "PowerEstimate",
    "StudyPlan",
    "TableReport",
    "TableRow",
    "default_a_grid",
    "default_mu_grid",
    "estimate_power",
    "pow_indicators",
    "render_table",
    "reproduce_table",
    "statistic_sample",
    "table_grid",
    "toy_power_curve",
    "toy_three_obs_powers",
]

CHUNK = 4096

# The test table: per reported table its sample sizes, the pieces builder
# pieces(x, sigma, variant) of a row tile, and a record per test in column
# order.  A ROWS kernel reads the tile's rows and a PIECES kernel its
# pieces; a NULL_CHUNK kernel(x, sigma, alpha, bootstrap_b, generator,
# shifts) reads the matched null's whole chunk and its child stream 1, and
# decides the null and each requested shift of it (designs.null_shift); its
# resample blocks are part of the stream layout.
# RANK takes Pow from the matched null's rank threshold; ASYMPTOTIC and
# DECISION report Pow := PowA.  The design families are the registry's
# (list_designs).
_Table = namedtuple("_Table", "ns pieces tests")
_Test = namedtuple("_Test", "kernel input rule")
ROWS, PIECES, NULL_CHUNK = "rows", "pieces", "null chunk+streams"
RANK, ASYMPTOTIC, DECISION = "rank", "asymptotic", "decision"
_TABLES = {
    "1": _Table((150, 200, 250, 300, 350), _kernels.moment_pieces, {
        "To": _Test(_kernels.mean_to, PIECES, RANK),
        "TN": _Test(_kernels.mean_tn, PIECES, RANK),
        "TB": _Test(_kernels.bootstrap_mean_reject, NULL_CHUNK, DECISION),
    }),
    "2": _Table((25, 50, 75), lambda x, sigma, variant: _kernels.median_pieces(x), {
        "W": _Test(_kernels.signed_rank, ROWS, ASYMPTOTIC),
        "To": _Test(_kernels.median_to, PIECES, RANK),
        "TN": _Test(_kernels.median_tn, PIECES, RANK),
    }),
    "3": _Table((50, 150), lambda x, sigma, variant: _kernels.median_pieces(x), {
        "W": _Test(_kernels.signed_rank, ROWS, ASYMPTOTIC),
        "To": _Test(_kernels.sym_to, PIECES, RANK),
        "T1": _Test(_kernels.median_to, PIECES, RANK),
        "TN": _Test(_kernels.sym_tn, PIECES, RANK),
    }),
}


def table_grid(table: str) -> dict:
    """Tests, sample sizes and registered design indices of one table."""
    table = str(table)
    _kernels.check_choice(tuple(_TABLES), table=table)
    indices = tuple(d.index for d, _ in list_designs() if d.table == table and d.hypothesis == 0)
    return {"tests": tuple(_TABLES[table].tests), "ns": _TABLES[table].ns, "indices": indices}


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection rates of one (test, design, n) cell.

    rank_threshold is the threshold that Pow compares against, the
    (reps - k)-th order statistic of the matched null vector, or NaN when
    the test's rule is not RANK and Pow is PowA.
    """

    powa: float
    pow: float
    reps: int
    degenerate_count: int
    mc_se_powa: float
    mc_se_pow: float
    rank_threshold: float

    def __post_init__(self):
        if not 0.0 <= self.powa <= 1.0 or not 0.0 <= self.pow <= 1.0:
            raise ValueError("rates must lie in [0, 1]")
        if not 0 <= self.degenerate_count <= self.reps:
            raise ValueError("degenerate_count must lie in [0, reps]")


@dataclass(frozen=True)
class StudyPlan:
    """One power study: a test, a matched design pair, and sample sizes.

    design_null must be the hypothesis-0 member of the pair; design_alt may
    equal design_null, in which case the study measures size rather than
    power and the empirical-threshold rate is k/reps exactly.
    """

    test: str
    design_null: DesignId
    design_alt: DesignId
    ns: tuple
    reps: int
    root_seed: int
    alpha: float = 0.05
    moment_variant: str = "quartic"
    bootstrap_b: int = 1000

    def __post_init__(self):
        _test_record(self.test, self.design_null)
        if self.design_null.hypothesis != 0:
            raise ValueError("design_null must have hypothesis 0")
        if (self.design_alt.table, self.design_alt.index) != (
            self.design_null.table,
            self.design_null.index,
        ):
            raise ValueError("design pair must share table and index")
        _kernels.check_integers(at_least=10, **{f"ns[{i}]": n for i, n in enumerate(self.ns)})
        ns = tuple(int(n) for n in self.ns)
        if not ns:
            raise ValueError("ns must name at least one sample size")
        object.__setattr__(self, "ns", ns)
        _check_run(self.reps, self.alpha, self.moment_variant, self.bootstrap_b,
                   root_seed=self.root_seed)


def _test_record(test, design):
    """The record of test, which must be a column of the design's table."""
    _kernels.check_choice(tuple(_TABLES), table=design.table)
    _kernels.check_choice(tuple(_TABLES[design.table].tests), test=test)
    return _TABLES[design.table].tests[test]


def _check_run(reps, alpha, moment_variant, bootstrap_b, **seed):
    """Checks shared by every public driver; each error names its parameter."""
    _kernels.check_integers(at_least=1000, reps=reps)  # the least reportable run
    _kernels.check_integers(at_least=100, bootstrap_b=bootstrap_b)
    _kernels.check_integers(at_least=0, **seed)
    _rank_k(alpha, reps)
    _kernels.check_choice(_kernels.MOMENT_VARIANTS, moment_variant=moment_variant)


# ---------------------------------------------------------------------------
# Cell simulation.


def _chunks(reps):
    return [
        (c, c * CHUNK, min((c + 1) * CHUNK, reps))
        for c in range((reps + CHUNK - 1) // CHUNK)
    ]


def _statistics(table, tests, x, sigma=None, variant="quartic"):
    """{test: (stat, reason)} of the given ROWS and PIECES tests of a table
    on the rows of x, each from its record's kernel.

    The rows are scored in tiles of _kernels._TILE_ELEMS // n rows (at
    least one), so that each tile's temporaries stay in cache; per tile the
    pieces are built once and shared by the tests.  Every kernel is
    row-independent, so the tile size does not change the output and is not
    part of the stream layout.  No tests give {}."""
    spec = _TABLES[table]
    records = {t: spec.tests[t] for t in tests}
    uses_pieces = any(r.input == PIECES for r in records.values())
    step = max(1, _kernels._TILE_ELEMS // x.shape[1])
    tiles = []
    for tile in (x[r : r + step] for r in range(0, x.shape[0], step)):
        pieces = spec.pieces(tile, sigma, variant) if uses_pieces else None
        tiles.append({t: r.kernel(pieces if r.input == PIECES else tile)[:2]
                      for t, r in records.items()})
    return {t: tuple(np.concatenate([tile[t][i] for tile in tiles]) for i in (0, 1))
            for t in tests}


def _chunk_statistics(did, n, tests, rows, chunk_idx, root_seed, variant, alpha, bootstrap_b):
    """{(design, test): (values, reason)} for one chunk of the path (did, n),
    where tests maps each test to the designs it fills: rows replications
    drawn from the chunk's own stream path and scored by _statistics for
    did, then each NULL_CHUNK test on the whole chunk and its child paths,
    deciding did first and then each other design as a shift of it."""
    stream = RandomStream(root_seed, (did.table, did.index, did.hypothesis, n, chunk_idx))
    x = sample_design_matrix(did, rows, n, stream)
    # Table 1's alternatives are pure location shifts of the matched null
    # design, whose sigma the known-sigma tests use.
    sigma = design_params(_null_of(did)).sigma
    records = _TABLES[did.table].tests
    whole = [t for t in tests if records[t].input == NULL_CHUNK]
    own = _statistics(did.table, [t for t in tests if t not in whole], x, sigma, variant)
    out = {(did, t): values for t, values in own.items()}
    for t in whole:
        designs = [did] + [d for d in tests[t] if d != did]
        reject, reason, _ = records[t].kernel(
            x, sigma, alpha, bootstrap_b, stream.child(1).generator(),
            [null_shift(d) for d in designs])
        out.update({(d, t): (reject[j], reason[j])
                    for j, d in enumerate(designs) if d in tests[t]})
    return out


def _null_of(did):
    """The hypothesis-0 member of a design's matched pair."""
    return DesignId(did.table, 0, did.index)


def _run_cells(cells, reps, root_seed, variant, alpha, bootstrap_b, threads):
    """The _Scores of every cell of {(design, n): tests}, each cell scored
    by _Scores.estimate.

    A cell is simulated on its own path (design, n), except that a
    NULL_CHUNK test's cell is simulated on its matched null's path, whose
    chunk task fills the null's cell and every requested shift of it.  A
    RANK cell also fills its matched null's cell, whose threshold it reads.
    Work is split into (path, chunk) tasks whose content is fixed by the
    stream path.  Each task reduces its kernels' (values, reason) pairs with
    _Scores.chunk, and the main thread merges them in task order with
    _Scores.add, so the thread count cannot change the result.  The
    matched-null paths (hypothesis 0) run first and the other paths only
    after all of them are merged, so that a chunk of an alternative is
    counted against its matched null's final rank threshold.
    """
    _kernels.check_integers(at_least=1, threads=threads)
    scores = _Scores(reps, alpha)
    paths = {}  # {(design, n): {test: designs it fills}}
    for (d, n), tests in cells.items():
        for t in tests:
            record = _TABLES[d.table].tests[t]
            src = _null_of(d) if record.input == NULL_CHUNK else d
            paths.setdefault((src, n), {}).setdefault(t, []).append(d)
            if record.rule == RANK:
                paths.setdefault((_null_of(d), n), {}).setdefault(t, [])

    def work(task):
        (did, n), c, lo, hi = task
        out = _chunk_statistics(
            did, n, paths[did, n], hi - lo, c, root_seed, variant, alpha, bootstrap_b)
        return n, [(d, t, scores.chunk(d, n, t, *pair)) for (d, t), pair in out.items()]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for nulls in (True, False):
            tasks = [(key, c, lo, hi) for key in paths if (key[0].hypothesis == 0) == nulls
                     for c, lo, hi in _chunks(reps)]
            for n, parts in (pool.map if threads > 1 else map)(work, tasks):
                for d, t, part in parts:
                    scores.add(d, n, t, part)
    return scores


# ---------------------------------------------------------------------------
# Estimates.


def _rank_k(alpha, reps):
    """k = floor(alpha reps), the number of null replications that strictly
    exceed the rank threshold; the guard keeps products like 0.95 * 5000,
    a hair below the integer in binary, from losing a rank.  alpha must pass
    check_alpha and k be at least 1; each error names the values."""
    _kernels.check_alpha(alpha)
    k = int(math.floor(alpha * reps + 1e-9))
    if k < 1:
        raise ValueError(f"alpha * reps must be at least 1, got alpha={alpha}, reps={reps}")
    return k


def _rank_rule(keep, top, values=(), stats=()):
    """The one rank rule: (top, threshold, stats > threshold).

    top, the keep = k + 1 largest null values so far, takes in values by
    one np.partition (an introselect, Knuth, TAOCP vol. 3, 5.3.3), NaN
    highest and the smallest at top[0].  That smallest is the threshold:
    over any chunk split of the null vector, its (reps - k)-th order
    statistic, np.partition(null, reps - k - 1)[reps - k - 1].  Rejection
    is strictly above it: exactly k null values, ties aside."""
    if len(values):
        both = np.concatenate([top, values]) if top.size else values
        cut = max(0, both.size - keep)
        top = np.partition(both, cut)[cut:].copy()  # a view would keep all of both
    threshold = float(top[0])
    return top, threshold, np.asarray(stats) > threshold


def pow_indicators(stats, null_stats, alpha):
    """Empirical-threshold rejection indicator vector of stats: the engine's
    rank rule (_rank_rule) with the whole 1-D null_stats as one chunk.

    Applying the same strictly increasing transform to both vectors leaves
    the indicators unchanged, because only ranks enter the threshold.
    """
    null = np.asarray(null_stats, dtype=float)
    if null.ndim != 1:
        raise ValueError(f"null_stats must be one-dimensional, got shape {null.shape}")
    k = _rank_k(alpha, null.size)
    if not np.isfinite(null).any():
        raise RuntimeError("all matched-null replications are degenerate")
    return _rank_rule(k + 1, np.empty(0), null, np.asarray(stats, dtype=float))[2]


class _Tally:
    """What the score of one (cell, test) reads, summed over its chunks:
    the PowA rejections, the degenerate rows and a RANK alternative's Pow
    rejections.  A RANK matched null keeps instead its k + 1 largest values
    in top, as _rank_rule keeps them, and whether any of its values is
    finite."""

    def __init__(self, powa=0, degenerate=0):
        self.powa, self.degenerate, self.pow = powa, degenerate, 0
        self.top, self.finite = np.empty(0), False


class _Scores:
    """The scores of _run_cells: cells maps (design, n, test) to the cell's
    _Tally.  chunk counts a RANK alternative's rejections by _rank_rule
    against its matched null's top, final by then since _run_cells merges
    every matched-null chunk first, and hands a matched null's whole chunk
    on in top, which add merges by _rank_rule.  estimate scores a cell."""

    def __init__(self, reps, alpha):
        self.reps, self.keep = reps, _rank_k(alpha, reps) + 1
        self.z = _kernels.normal_upper(alpha)
        self.cells = {}

    def chunk(self, d, n, t, values, reason):
        rule = _TABLES[d.table].tests[t].rule
        part = _Tally(powa=int(np.count_nonzero(values if rule == DECISION else values > self.z)),
                      degenerate=int(np.count_nonzero(reason)))
        if rule == RANK and d == _null_of(d):
            part.top, part.finite = values, bool(np.isfinite(values).any())
        elif rule == RANK:
            top = self.cells[_null_of(d), n, t].top
            part.pow = int(np.count_nonzero(_rank_rule(self.keep, top, stats=values)[2]))
        return part

    def add(self, d, n, t, part):
        cell = self.cells.setdefault((d, n, t), _Tally())
        cell.powa += part.powa
        cell.degenerate += part.degenerate
        cell.pow += part.pow
        cell.finite = cell.finite or part.finite
        if part.top.size:
            cell.top = _rank_rule(self.keep, cell.top, part.top)[0]

    def estimate(self, d, n, t):
        """PowerEstimate of the cell (d, n, t) by its test's rule; only RANK
        reads the matched null's tally, through _rank_rule.  A matched null
        counts its own Pow from its top, since every value above the
        threshold is among them."""
        cell, reps = self.cells[d, n, t], self.reps
        if cell.degenerate == reps:
            raise RuntimeError("all replications are degenerate")
        threshold, pow_count = math.nan, cell.powa
        if _TABLES[d.table].tests[t].rule == RANK:
            null_cell = self.cells[_null_of(d), n, t]
            if not null_cell.finite:
                raise RuntimeError("all matched-null replications are degenerate")
            _, threshold, above = _rank_rule(self.keep, null_cell.top, stats=cell.top)
            pow_count = cell.pow + int(np.count_nonzero(above))
        powa, pw = cell.powa / reps, pow_count / reps
        return PowerEstimate(
            powa=powa,
            pow=pw,
            reps=reps,
            degenerate_count=cell.degenerate,
            mc_se_powa=_mc_se(powa, reps),
            mc_se_pow=_mc_se(pw, reps),
            rank_threshold=threshold,
        )


def _mc_se(p, reps):
    return math.sqrt(p * (1.0 - p) / reps)


def estimate_power(plan: StudyPlan, threads: int = 1) -> dict:
    """PowerEstimate of plan.design_alt per sample size, keyed by n.

    Only the alternative cell is asked of _run_cells, so it is simulated
    and scored exactly as reproduce_table does it, and the matched null is
    simulated only where the score reads it.  A RANK test's Pow thresholds
    come from the matched null's own stream paths, so they are independent
    of the evaluated replications whenever the pair differs; when the pair
    coincides, both are one cell, the evaluated vector is its own threshold
    source and Pow is exact.  TB's alternative is decided on the null's
    chunk paths from the null rows' resamples (common random numbers with
    the null cell), and a W plan simulates its alternative cell alone.
    """
    alt = plan.design_alt
    scores = _run_cells({(alt, n): (plan.test,) for n in plan.ns}, plan.reps, plan.root_seed,
                        plan.moment_variant, plan.alpha, plan.bootstrap_b, threads)
    return {n: scores.estimate(alt, n, plan.test) for n in plan.ns}


def statistic_sample(
    test: str,
    design: DesignId,
    n: int,
    reps: int,
    root_seed: int,
    moment_variant: str = "quartic",
):
    """Raw statistic vector and degeneracy mask (the kernel's reason != 0)
    for one cell.

    Each chunk is drawn and scored by the table engine's chunk task
    (_chunk_statistics: same stream paths and row tiles), and the chunks
    are concatenated instead of being scored.  This makes it the hook for
    cross-checking the batched kernels against the test-only scalar oracles
    and for transform invariance checks.  The bootstrap decision has no
    scalar statistic.
    """
    if _test_record(test, design).input == NULL_CHUNK:
        raise ValueError("the bootstrap decision has no scalar statistic")
    _kernels.check_integers(at_least=10, n=n)
    _kernels.check_integers(at_least=1, reps=reps)
    _kernels.check_integers(at_least=0, root_seed=root_seed)
    _kernels.check_choice(_kernels.MOMENT_VARIANTS, moment_variant=moment_variant)
    n, reps = int(n), int(reps)
    chunks = [_chunk_statistics(design, n, {test: [design]}, hi - lo, c, root_seed,
                                moment_variant, 0.05, 1000)[design, test]
              for c, lo, hi in _chunks(reps)]
    stats, reason = (np.concatenate(part) for part in zip(*chunks))
    return stats, reason != 0


# ---------------------------------------------------------------------------
# Table reports.


@dataclass(frozen=True)
class TableRow:
    design: DesignId
    test: str
    estimates: tuple  # ((n, PowerEstimate), ...) in column order


@dataclass(frozen=True)
class TableReport:
    table: str
    reps: int
    root_seed: int
    alpha: float
    moment_variant: str
    bootstrap_b: int
    ns: tuple
    rows: tuple
    stream_layout: int = STREAM_LAYOUT

    def cell(self, design_label: str, test: str, n: int) -> PowerEstimate:
        for row in self.rows:
            if row.design.label == design_label and row.test == test:
                for nn, est in row.estimates:
                    if nn == n:
                        return est
        raise KeyError((design_label, test, n))


def reproduce_table(
    table,
    reps: int,
    seed: int,
    moment_variant: str = "quartic",
    alpha: float = 0.05,
    bootstrap_b: int = 1000,
    threads: int = 1,
) -> TableReport:
    """Full PowA/Pow grid of one reported table.

    Rows follow list_designs (family major, null first), tests in the
    table's column order, each cell scored by its test's rule.  For a RANK
    test each family's single null statistic vector provides both the null
    row's evaluations and every row's empirical thresholds, which keeps
    null-row Pow exact and alternative-row thresholds independent.  Table
    1's TB null and alternative rows are decided in one pass over the null
    rows' resamples, so they share draws (common random numbers): each row
    is an unbiased estimate of its own rate, but the two are not
    independent.  To and TN keep their own draws.
    """
    grid = table_grid(table)
    table = str(table)
    _check_run(reps, alpha, moment_variant, bootstrap_b, seed=seed)
    designs = [d for d, _ in list_designs() if d.table == table]
    cells = {(d, n): grid["tests"] for d in designs for n in grid["ns"]}
    scores = _run_cells(cells, reps, seed, moment_variant, alpha, bootstrap_b, threads)
    rows = [
        TableRow(design=d, test=t,
                 estimates=tuple((n, scores.estimate(d, n, t)) for n in grid["ns"]))
        for d in designs
        for t in grid["tests"]
    ]
    return TableReport(
        table=table,
        reps=reps,
        root_seed=seed,
        alpha=alpha,
        moment_variant=moment_variant,
        bootstrap_b=bootstrap_b,
        ns=tuple(grid["ns"]),
        rows=tuple(rows),
    )


def _csv(header, rows) -> str:
    """CSV text of a header row and data rows, newline-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_table(report: TableReport, fmt: str = "csv") -> str:
    """Stable text rendering: Design, Test, then PowA/Pow per sample size,
    three decimals."""
    _kernels.check_choice(("csv", "markdown"), format=fmt)
    header = ["design", "test"]
    for n in report.ns:
        header += [f"powa_n{n}", f"pow_n{n}"]
    body = []
    for row in report.rows:
        cells = [row.design.label, row.test]
        for _, est in row.estimates:
            cells += [f"{est.powa:.3f}", f"{est.pow:.3f}"]
        body.append(cells)
    if fmt == "csv":
        return _csv(header, body)
    rows = [header, ["---"] * len(header), *body]
    return "".join("| " + " | ".join(cells) + " |\n" for cells in rows)


# ---------------------------------------------------------------------------
# Closed-form toy power curves (no simulation).


def default_a_grid():
    """Mixing-weight grid for the two-observation curve, step 0.01."""
    return np.linspace(-0.01, 0.90, 92)


def default_mu_grid():
    """Mean grid for the three-observation curves."""
    return np.linspace(0.0, 5.0, 101)


def toy_power_curve(a_grid, mu1=5.0, sigma1=1.0, sigma2=4.0, alpha=0.05):
    """Power gain of T + a(X1 - X2) over T for two heteroscedastic normals.

    T is the plain two-observation mean; adding a(X1 - X2) keeps the mean
    (the coefficients still sum to 1) and changes only the variance, so the
    exact-size normal test has closed-form power.  Columns: a, P(a) - P(0),
    and the covariance of T with the added ancillary difference, whose root
    marks the maximal-power weight.
    """
    _kernels.check_positive_finite(sigma1=sigma1, sigma2=sigma2)
    _kernels.check_alpha(alpha)
    a = np.asarray(a_grid, dtype=float)
    v1, v2 = sigma1**2, sigma2**2
    z = _kernels.normal_upper(alpha)
    sd = np.sqrt((0.5 + a) ** 2 * v1 + (0.5 - a) ** 2 * v2)
    sd0 = math.sqrt(0.25 * (v1 + v2))
    power = _kernels.normal_sf(z - mu1 / sd)
    p0 = _kernels.normal_sf(z - mu1 / sd0)
    cov = 0.5 * (v1 - v2) + a * (v1 + v2)
    return np.column_stack([a, power - p0, cov])


def toy_three_obs_powers(mu_grid, sigma1=1.0, sigma2=4.0, sigma3=3.0, alpha=0.05):
    """Closed-form powers of three unit-coefficient-sum mean statistics.

    Columns: mu, then the powers of the plain mean, of the mean decorrelated
    from X1 - X2, and of the precision-weighted mean.  All three statistics
    are normal with mean mu and known variance, so power is a normal tail
    probability and the variance ordering gives the pointwise power ordering
    weighted >= decorrelated >= plain.
    """
    _kernels.check_positive_finite(sigma1=sigma1, sigma2=sigma2, sigma3=sigma3)
    _kernels.check_alpha(alpha)
    mu = np.asarray(mu_grid, dtype=float)
    v1, v2, v3 = sigma1**2, sigma2**2, sigma3**2
    z = _kernels.normal_upper(alpha)
    sd_plain = math.sqrt((v1 + v2 + v3) / 9.0)
    gamma = (v2 - v1) / (3.0 * (v1 + v2))
    sd_decor = math.sqrt(
        (1.0 / 3.0 + gamma) ** 2 * v1 + (1.0 / 3.0 - gamma) ** 2 * v2 + v3 / 9.0
    )
    sd_weighted = math.sqrt(1.0 / (1.0 / v1 + 1.0 / v2 + 1.0 / v3))

    def p(sd):
        return _kernels.normal_sf(z - mu / sd)

    return np.column_stack([mu, p(sd_plain), p(sd_decor), p(sd_weighted)])
