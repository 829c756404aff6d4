"""Case-study pipeline: CSV ingestion, simple least squares, median analysis
of regression residuals, and a resampled power comparison of the median
tests on a calibrated synthetic residual fixture.

The fixture is a four-component equal-median mixture: a shifted, scaled
negative lognormal (long left tail), a narrow normal at the common median m,
and two narrow normals at m - d and m + d with equal weight.  Every
component has median m, and the side pair is symmetric about m, so the
population median is exactly m while the scale s is solved in closed form
to put the population mean at 0 and the variance at the target value.  The
result is a near-zero-mean, positive-median, skewed sample on which the
mean-anchored symmetry view and the median tests disagree, which is the
behavior the analysis pipeline is built to expose.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .designs import RandomStream
from .power import _chunks, _statistics
from .stattests import median_test_TN, median_test_To, two_sided, wilcoxon_signed_rank

__all__ = [
    "MedianAnalysis",
    "RegressionFit",
    "check_resample_sizes",
    "fixture_population_summary",
    "load_xy_csv",
    "make_fixture",
    "ols_fit",
    "resample_power_study",
    "residual_median_analysis",
    "residuals",
]


# ---------------------------------------------------------------------------
# CSV ingestion.


def load_xy_csv(path, y_col: str, z_col: str, log_transform: bool = False):
    """Read two numeric columns; returns (y, z) arrays of equal length >= 3.

    Errors name the offending column or 1-based data row; a header that
    repeats a name is an error.  A UTF-8 byte-order mark is skipped.  With
    log_transform, both columns must be strictly positive and are replaced
    by their natural logs.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, no header row")
        for i, col in enumerate(reader.fieldnames):
            if col in reader.fieldnames[:i]:
                raise ValueError(f"{path}: repeated column {col!r} in the header")
        for col in (y_col, z_col):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        ys, zs = [], []
        for i, record in enumerate(reader, start=1):
            for col, dest in ((y_col, ys), (z_col, zs)):
                raw = record.get(col)
                if raw is None or raw.strip() == "":
                    raise ValueError(f"{path}: blank {col!r} cell in data row {i}")
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric {col!r} cell in data row {i}: {raw!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: non-finite {col!r} cell in data row {i}")
                if log_transform and value <= 0.0:
                    raise ValueError(
                        f"{path}: non-positive {col!r} cell in data row {i} "
                        "cannot be log-transformed"
                    )
                dest.append(value)
    if len(ys) < 3:
        raise ValueError(f"{path}: need at least 3 data rows, found {len(ys)}")
    y = np.array(ys, dtype=float)
    z = np.array(zs, dtype=float)
    if log_transform:
        y = np.log(y)
        z = np.log(z)
    return y, z


# ---------------------------------------------------------------------------
# Simple least squares.


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    t_values: tuple  # (intercept, slope)
    residual_se: float
    r_squared: float
    df: int


def _t_ratio(coef, se):
    if se > 0.0:
        return coef / se
    # Exact fits have zero residual error; the ratio degenerates.
    return math.inf if coef > 0 else (-math.inf if coef < 0 else math.nan)


def ols_fit(y, z) -> RegressionFit:
    """Least-squares line y = a + b z with textbook standard errors."""
    y = _kernels.as_sample(y, 3, "ols_fit y")
    z = _kernels.as_sample(z, 3, "ols_fit z")
    if y.size != z.size:
        raise ValueError("y and z must be vectors of equal length")
    n = y.size
    zbar = float(z.mean())
    ybar = float(y.mean())
    dz = z - zbar
    sxx = float(dz @ dz)
    if sxx <= 0.0:
        raise ValueError("constant regressor: slope is not identifiable")
    b = float(dz @ (y - ybar)) / sxx
    a = ybar - b * zbar
    resid = y - a - b * z
    sse = float(resid @ resid)
    df = n - 2
    residual_se = math.sqrt(sse / df)
    syy = float((y - ybar) @ (y - ybar))
    r_squared = 1.0 if sse == 0.0 else 1.0 - sse / syy
    r_squared = min(1.0, max(0.0, r_squared))
    se_b = residual_se / math.sqrt(sxx)
    se_a = residual_se * math.sqrt(1.0 / n + zbar**2 / sxx)
    return RegressionFit(
        intercept=a,
        slope=b,
        se_intercept=se_a,
        se_slope=se_b,
        t_values=(_t_ratio(a, se_a), _t_ratio(b, se_b)),
        residual_se=residual_se,
        r_squared=r_squared,
        df=df,
    )


def residuals(fit: RegressionFit, y, z):
    """Fitted residuals y - a - b z; their sum vanishes by construction."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("y and z must be vectors of equal length")
    if y.size != fit.df + 2:
        raise ValueError("data length does not match the fit")
    return y - fit.intercept - fit.slope * z


# ---------------------------------------------------------------------------
# Synthetic residual fixture.

_P_TAIL = 0.5  # negative-lognormal weight
_R_CENTER = 0.30  # narrow normal at the common median
_Q_SIDE = 0.10  # each of the two offset normals
_TAU = 0.85  # lognormal log-scale
_KAPPA = 0.16  # normal-component sd as a fraction of s
_D_RIGHT = 0.40  # offset of the above-median normal
_D_LEFT = 0.48  # offset of the below-median normal
_TARGET_VARIANCE = 0.073


def _calibrate():
    # Mean zero requires m = p s g + D with g = E exp(tau Z) - 1 and
    # D = q (d_left - d_right); substituting into E[X^2] = V leaves the
    # quadratic A s^2 - 2 p g D s - (V - C) = 0 with
    # A = p v + (1 - p) kappa^2 + p (1 - p) g^2 and
    # C = q (d_left^2 + d_right^2) - D^2, so s solves in closed form.
    g = math.exp(_TAU**2 / 2.0) - 1.0
    v_logn = (math.exp(_TAU**2) - 1.0) * math.exp(_TAU**2)
    a = (
        _P_TAIL * v_logn
        + (1.0 - _P_TAIL) * _KAPPA**2
        + _P_TAIL * (1.0 - _P_TAIL) * g * g
    )
    delta = _Q_SIDE * (_D_LEFT - _D_RIGHT)
    c = _Q_SIDE * (_D_LEFT**2 + _D_RIGHT**2) - delta * delta
    lin = _P_TAIL * g * delta
    s = (lin + math.sqrt(lin * lin + a * (_TARGET_VARIANCE - c))) / a
    return s, _P_TAIL * s * g + delta


_FIX_S, _FIX_M = _calibrate()


def fixture_population_summary() -> dict:
    """Exact population quantities of the fixture generator.

    The median equals m: the long tail has median m (the lognormal factor
    has median 1), the narrow center splits its mass evenly about m, and
    the offset pair sits entirely above respectively below m with equal
    weight, so the mixture cdf at m is 1/2 to double precision (the
    offset normals cross m with mass under 1e-40).
    """
    return {"mean": 0.0, "variance": _TARGET_VARIANCE, "median": _FIX_M}


def make_fixture(n: int, seed: int):
    """Deterministic residual-like sample of size n.

    Draw order is fixed (component selector, shared normal, lognormal
    normal) and pinned by snapshot tests; changing it silently would
    invalidate every recorded frequency.
    """
    _kernels.check_integers(at_least=10, n=n)
    _kernels.check_integers(at_least=0, seed=seed)
    gen = RandomStream(seed, ("fixture",)).generator()
    u = gen.random(n)
    z = gen.standard_normal(n)
    z_logn = gen.standard_normal(n)
    long_tail = (_FIX_M + _FIX_S) - _FIX_S * np.exp(_TAU * z_logn)
    center = _FIX_M + _KAPPA * _FIX_S * z
    return np.where(
        u < _P_TAIL,
        long_tail,
        np.where(
            u < _P_TAIL + _R_CENTER,
            center,
            np.where(u < _P_TAIL + _R_CENTER + _Q_SIDE, center + _D_RIGHT, center - _D_LEFT),
        ),
    )


# ---------------------------------------------------------------------------
# Residual median analysis.


@dataclass(frozen=True)
class MedianAnalysis:
    """Two-sided location diagnostics of a residual sample.

    p_values carries the signed-rank test and the squared median tests
    keyed as W, To2 and TN2; the histogram uses 20 equal-width bins over
    the sample range.
    """

    n: int
    mean: float
    variance: float
    alpha: float
    p_values: dict
    statistics: dict
    rejects: dict
    histogram_counts: tuple
    histogram_edges: tuple


_TWO_SIDED_TESTS = {"W": wilcoxon_signed_rank, "To2": median_test_To, "TN2": median_test_TN}


def residual_median_analysis(eps, alpha: float = 0.05) -> MedianAnalysis:
    arr = _kernels.as_sample(eps, 10, "median analysis")
    out = {k: two_sided(test(arr, alpha), alpha) for k, test in _TWO_SIDED_TESTS.items()}
    counts, edges = np.histogram(arr, bins=20)
    moments = _kernels.moment_pieces(arr[None, :])
    return MedianAnalysis(
        n=int(arr.size),
        mean=float(moments.mean[0]),
        variance=float(moments.s2[0]),
        alpha=float(alpha),
        p_values={k: o.p_value for k, o in out.items()},
        statistics={k: o.statistic for k, o in out.items()},
        rejects={k: o.reject for k, o in out.items()},
        histogram_counts=tuple(int(c) for c in counts),
        histogram_edges=tuple(float(e) for e in edges),
    )


def check_resample_sizes(n_bs, n: int) -> None:
    """Raise ValueError naming the first resample size n_b outside
    10 <= n_b < n, the sample size."""
    for n_b in n_bs:
        if not 10 <= n_b < n:
            raise ValueError(
                f"resample size must satisfy 10 <= n_b < sample size {n}, got n_b={n_b}")


def resample_power_study(eps, n_b: int, reps: int, alpha: float = 0.05, seed: int = 0):
    """Rejection frequency of each two-sided test over with-replacement
    resamples of size n_b.

    Returns {"W": f, "To2": f, "TN2": f}.  Degenerate resamples count as
    non-rejections.  The resample indices are drawn in sequence from one
    generator on the stream path ("resample", n_b), in the power engine's
    CHUNK-row blocks; each block is scored by the engine's dispatch (table
    2's W, To and TN), and a test rejects when its squared statistic
    strictly exceeds the chi-square(1) critical value.  numpy draws indices
    below 2**32 from 32-bit halves that the bit generator buffers across
    calls, so the block size does not change the draws: a seed fixes the
    result.
    """
    _kernels.check_integers(n_b=n_b)
    _kernels.check_integers(at_least=1, reps=reps)
    _kernels.check_integers(at_least=0, seed=seed)
    arr = _kernels.as_sample(eps, 11, "resample study")
    n = arr.size
    check_resample_sizes((n_b,), n)
    _kernels.check_alpha(alpha)
    gen = RandomStream(seed, ("resample", n_b)).generator()
    crit = _kernels.normal_upper(alpha / 2.0) ** 2
    tests = ("W", "To", "TN")
    counts = dict.fromkeys(tests, 0)
    for _, lo, hi in _chunks(reps):
        x = arr[gen.integers(0, n, size=(hi - lo, n_b))]
        for t, (stat, reason) in _statistics("2", tests, x).items():
            counts[t] += int(np.count_nonzero((reason == 0) & (stat * stat > crit)))
    return {"W": counts["W"] / reps, "To2": counts["To"] / reps, "TN2": counts["TN"] / reps}
