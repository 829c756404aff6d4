"""Location tests: the known-sigma mean test and its skewness-corrected
modification, median tests built on a kernel density estimate, tests for a
center of symmetry, the signed-rank baseline, a bootstrap mean test, and a
variance-stabilizing monotone transform.

Each test computes its statistic, and the components it reports, by calling
the matching ``_kernels`` kernel on its one sample as a (1, n) matrix, so a
test and the Monte Carlo engine share one formula.  The bootstrap test takes
To, T*_b and its threshold from ``known_sigma_z`` and ``type7_quantile`` and
keeps only its own draw and p-value.

Every test but the bootstrap one turns its kernel's one-row result into an
upper-tail outcome against the normal quantile in one place, and
``two_sided`` squares any such outcome into the chi-square(1) rule.  All
rejection rules use strict inequality at the threshold.  A statistic that is
undefined for a particular sample raises DegenerateStatistic with the
kernel's named reason; simulation callers score such replications as
non-rejections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .designs import RandomStream

__all__ = [
    "DegenerateStatistic",
    "TestOutcome",
    "ONE_SIDED_UPPER",
    "TWO_SIDED_CHI2",
    "bootstrap_t_test",
    "median_test_To",
    "median_test_TN",
    "modified_mean_test",
    "symmetry_test",
    "t_test_known_sigma",
    "thomas_transform",
    "two_sided",
    "wilcoxon_signed_rank",
]

ONE_SIDED_UPPER = "one_sided_upper"
TWO_SIDED_CHI2 = "two_sided_chi2"


class DegenerateStatistic(ArithmeticError, ValueError):
    """The statistic is undefined for this sample.

    The reason attribute names the failed condition so that simulation
    drivers can tally degeneracy modes separately.  It is a ValueError too,
    since the sample is the input at fault.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    threshold: float
    side: str
    reject: bool
    p_value: float
    components: dict = field(default_factory=dict)


def _check_sigma(sigma, power: int = 1):
    """sigma must be positive and finite, and so must sigma**power, the
    highest power of sigma that the statistic takes."""
    _kernels.check_positive_finite(sigma=sigma)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(sigma) ** power):
            raise ValueError(f"sigma**{power} overflows float64, got sigma={sigma}")


def _outcome(x, alpha, least, name, kernel, pieces=None):
    """Upper-tail outcome of kernel on the sample x as a (1, n) row, or on
    pieces(row) when pieces is given, with the kernel's parts as components.

    The sample must be a finite 1-D array of at least `least` values; name
    labels its errors.  A nonzero kernel reason raises DegenerateStatistic.
    """
    row = _kernels.as_sample(x, least, name)[None, :]
    _kernels.check_alpha(alpha)
    stat, reason, parts = kernel(row if pieces is None else pieces(row))
    if reason[0]:
        raise DegenerateStatistic(_kernels.REASONS[reason[0]])
    z = _kernels.normal_upper(alpha)
    return TestOutcome(
        statistic=float(stat[0]),
        threshold=z,
        side=ONE_SIDED_UPPER,
        reject=bool(stat[0] > z),
        p_value=float(_kernels.normal_sf(stat[0])),
        components={k: v[0].item() for k, v in parts.items()},
    )


def t_test_known_sigma(x, sigma: float, alpha: float = 0.05) -> TestOutcome:
    """Upper-tail mean test sqrt(n) * mean / sigma against the normal quantile."""
    _check_sigma(sigma)

    def pieces(row):
        # mean_to reads only the mean: the squared pieces may overflow at a
        # large scale without touching the statistic.
        with np.errstate(over="ignore", invalid="ignore"):
            return _kernels.moment_pieces(row, sigma)

    return _outcome(x, alpha, 2, "t_test_known_sigma", _kernels.mean_to, pieces)


def modified_mean_test(x, sigma: float, alpha: float = 0.05, variant: str = "quartic") -> TestOutcome:
    """Skewness-corrected mean test with known sigma.

    The third sample moment drives a correction that subtracts the scaled
    covariate S^2 - sigma^2 from the base statistic; the result is
    standardized by the estimated variance of the corrected statistic.  On
    exactly symmetric samples (zero third moment) this reduces to
    t_test_known_sigma.  The moment variant selects the centering constant of
    the squared-deviation variance estimators, see _kernels.MomentPieces.
    """
    _kernels.check_variant(variant)
    _check_sigma(sigma, 4 if variant == "quartic" else 2)
    return _outcome(x, alpha, 3, "modified_mean_test", _kernels.mean_tn,
                    lambda row: _kernels.moment_pieces(row, sigma, variant))


def bootstrap_t_test(
    x,
    sigma: float,
    alpha: float = 0.05,
    n_boot: int = 1000,
    stream: RandomStream | None = None,
) -> TestOutcome:
    """Centered bootstrap version of the known-sigma mean test.

    Draws n_boot resamples with replacement, forms the centered statistics
    T*_b = sqrt(n) (mean*_b - mean) / sigma, and rejects when the observed
    statistic exceeds their type-7 (1 - alpha) quantile.  The p-value is
    the fraction of T*_b at or above the observed statistic.  The indices
    are the engine's row-block index sequence (_kernels.bootstrap_sequence,
    stream layout 5), so on a TB chunk's child stream 1 this test decides
    each row of the chunk's first 512-row block as the engine does.  The
    resample means come from the engine's count-matrix product
    (_kernels.resample_means), so they equal the gathered means
    x[idx].mean() up to a few rounding errors.  A zero-range sample raises
    DegenerateStatistic, as the engine scores it.
    """
    arr = _kernels.as_sample(x, 2, "bootstrap_t_test")
    _kernels.check_alpha(alpha)
    _check_sigma(sigma)
    _kernels.check_integers(at_least=100, n_boot=n_boot)
    if stream is None:
        raise ValueError("a RandomStream is required for resampling")
    if np.ptp(arr) == 0.0:
        raise DegenerateStatistic(_kernels.REASONS[_kernels.CONSTANT])
    n = arr.size
    gen = stream.generator()
    xbar = float(np.mean(arr))
    to = _kernels.known_sigma_z(xbar, n, sigma)
    idx = _kernels.bootstrap_sequence(gen, n_boot, n)
    tstar = _kernels.known_sigma_z(_kernels.resample_means(arr[None], idx)[0] - xbar, n, sigma)
    q = float(_kernels.type7_quantile(np.sort(tstar)[None, :], 1.0 - alpha)[0])
    return TestOutcome(
        statistic=to,
        threshold=q,
        side=ONE_SIDED_UPPER,
        reject=bool(to > q),
        p_value=float(np.mean(tstar >= to)),
        components={"bootstrap_quantile": q, "n_boot": n_boot},
    )


def median_test_To(x, alpha: float = 0.05) -> TestOutcome:
    """Upper-tail median test 2 sqrt(n) median fhat(median)."""
    return _outcome(x, alpha, 4, "median_test_To", _kernels.median_to, _kernels.median_pieces)


def median_test_TN(x, alpha: float = 0.05) -> TestOutcome:
    """Median test decorrelated from the studentized mean.

    Scales the base median statistic by S / w_hat, subtracts the studentized
    mean, and standardizes by sqrt(S^2 / w_hat^2 - 1).
    """
    return _outcome(x, alpha, 4, "median_test_TN", _kernels.median_tn, _kernels.median_pieces)


_SYMMETRY = {"To": _kernels.sym_to, "T1": _kernels.median_to, "TN": _kernels.sym_tn}


def symmetry_test(x, which: str = "TN", alpha: float = 0.05) -> TestOutcome:
    """Upper-tail tests for a positive center of symmetry.

    which selects the statistic: "To" is the studentized mean
    sqrt(n) mean / S, "T1" is the median statistic 2 sqrt(n) median
    fhat(median), and "TN" combines them through the mean-median contrast:

        TN = { To + delta sqrt(n) (mean - median) / sqrt(D) } / sqrt(V)

    with D = S^2 - w/fhat + 1/(4 fhat^2), delta = (w/(2 S fhat) - S)/sqrt(D)
    and V = 1 - delta^2 (the expanded forms of V reduce to this).
    """
    if which not in _SYMMETRY:
        raise ValueError("which must be one of 'To', 'T1', 'TN'")
    return _outcome(x, alpha, 4, "symmetry_test", _SYMMETRY[which], _kernels.median_pieces)


def two_sided(outcome: TestOutcome, alpha: float = 0.05) -> TestOutcome:
    """Square a normal-referenced one-sided outcome into the chi-square(1)
    rule: reject when statistic**2 strictly exceeds normal_upper(alpha/2)**2.
    This is the one two-sided rule of the package."""
    _kernels.check_alpha(alpha)
    if outcome.side != ONE_SIDED_UPPER:
        raise ValueError("two_sided requires a one-sided normal-referenced outcome")
    stat = outcome.statistic**2
    threshold = _kernels.normal_upper(alpha / 2.0) ** 2
    components = dict(outcome.components)
    components["signed_statistic"] = outcome.statistic
    return TestOutcome(
        statistic=float(stat),
        threshold=threshold,
        side=TWO_SIDED_CHI2,
        reject=bool(stat > threshold),
        p_value=float(2.0 * _kernels.normal_sf(abs(outcome.statistic))),
        components=components,
    )


def wilcoxon_signed_rank(x, alpha: float = 0.05) -> TestOutcome:
    """Upper-tail signed-rank test via the normal approximation, computed by
    ``_kernels.signed_rank`` on the one sample.

    Exact zeros are dropped; fewer than five nonzero observations raise
    DegenerateStatistic.  Ties in the absolute values receive mid-ranks and
    the approximation variance gets the tie correction sum(t^3 - t)/48.  No
    continuity correction is applied.  two_sided(outcome, alpha) gives the
    two-sided test.
    """
    return _outcome(x, alpha, 1, "wilcoxon_signed_rank", _kernels.signed_rank)


def thomas_transform(t_squared, n: int):
    """Monotone map t^2 -> -n log(1 - t^2 / n), defined on [0, n).

    Strictly increasing on its domain and tending to t^2 as n grows, so any
    rank-based thresholding of the squared statistic is unchanged by it.
    """
    _kernels.check_integers(at_least=1, n=n)
    arr = np.asarray(t_squared, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= n):
        raise ValueError("t_squared must lie in [0, n)")
    out = -n * np.log1p(-arr / n)
    if np.isscalar(t_squared) or arr.ndim == 0:
        return float(out)
    return out
