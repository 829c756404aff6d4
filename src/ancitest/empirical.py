"""Sample summaries: medians, type-7 quantiles, moments, and a Gaussian KDE
evaluated at a point.

Each helper calls the ``_kernels`` piece that the statistics use (kde_at:
the KDE of median_pieces) on its one sample as a (1, n) matrix, so a helper
returns exactly the value the tests and the Monte Carlo engine compute.
The bandwidth rule and the point KDE mirror the defaults of R's density():
Gaussian kernel with nrd0 bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5),
with the sd substituted when the IQR is zero.  The even-n median is the
midpoint of the two central order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "SampleMoments",
    "bandwidth_nrd0",
    "kde_at",
    "quantile_type7",
    "sample_median",
    "sample_moments",
]


def _sorted_row(x, min_n, what):
    return np.sort(_kernels.as_sample(x, min_n, what))[None, :]


def sample_median(x) -> float:
    """Middle order statistic; midpoint of the central pair when n is even."""
    return float(_kernels.sorted_median(_sorted_row(x, 1, "sample_median"))[0])


def quantile_type7(x, p: float) -> float:
    """Linear-interpolation sample quantile at h = (n - 1) p + 1.

    Continuous in p and equal to sample_median at p = 0.5.
    """
    s = _sorted_row(x, 1, "quantile_type7")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return float(_kernels.type7_quantile(s, p)[0])


def bandwidth_nrd0(x) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    A zero IQR falls back to the sd; a constant sample has no scale and is an
    error, even where rounding leaves its sd a little above zero.
    """
    pieces = _kernels.median_pieces(_kernels.as_sample(x, 2, "bandwidth_nrd0")[None, :])
    if pieces.degenerate[0]:
        raise ValueError("constant sample has no usable scale")
    return float(pieces.h[0])


def kde_at(x, point: float, bandwidth: float) -> float:
    """Gaussian kernel density estimate at a single point."""
    arr = _kernels.as_sample(x, 1, "kde_at")
    if not 0 < bandwidth < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if not np.isfinite(point):
        raise ValueError(f"point must be finite, got {point}")
    point, bandwidth = np.full(1, point, dtype=float), np.full(1, bandwidth, dtype=float)
    return float(_kernels._kde_of_deviations(point[:, None] - arr[None, :], bandwidth)[0])


@dataclass(frozen=True)
class SampleMoments:
    """Plug-in moment estimators shared by the modified tests.

    var_sq_hat estimates var{(X - mu)^2}; its centering constant depends on
    whether sigma was supplied and on the configured moment variant (see
    sample_moments).
    """

    n: int
    mean: float
    s2: float
    mu3_hat: float
    w_hat: float
    var_sq_hat: float


def sample_moments(x, sigma_known: float | None = None, variant: str = "quartic") -> SampleMoments:
    """Mean, unbiased variance, third central moment, mean absolute deviation
    about the median, and the squared-deviation variance estimator.

    With variant "quartic" the squared deviations are centered at sigma^4 (or
    S^4 when sigma is unknown); variant "quadratic" centers at sigma^2 (or
    S^2), the dimensionally consistent form.  Both are kept because the power
    studies are run under each and the better-matching one is recorded.
    """
    x = _kernels.as_sample(x, 2, "sample_moments")[None, :]
    if sigma_known is not None and not 0 < sigma_known < np.inf:
        raise ValueError(f"sigma_known must be positive and finite, got {sigma_known}")
    m = _kernels.moment_pieces(x, sigma_known, variant)
    var_sq = m.var_s if sigma_known is None else m.var_known
    return SampleMoments(
        n=m.n,
        mean=float(m.mean[0]),
        s2=float(m.s2[0]),
        mu3_hat=float(m.mu3[0]),
        w_hat=float(_kernels.median_pieces(x).w[0]),
        var_sq_hat=float(var_sq[0]),
    )
