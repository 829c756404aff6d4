"""Sample summaries: medians, type-7 quantiles, moments, and a Gaussian KDE
evaluated at a point.

The bandwidth rule and the point KDE mirror the defaults of R's density():
Gaussian kernel with nrd0 bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5), with
the sd substituted when the IQR is zero.  The even-n median is the midpoint
of the two central order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampleMoments",
    "bandwidth_nrd0",
    "kde_at",
    "quantile_type7",
    "sample_median",
    "sample_moments",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_sample(x, min_n=1):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if arr.size < min_n:
        raise ValueError(f"sample must contain at least {min_n} observations")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def sample_median(x) -> float:
    """Middle order statistic; midpoint of the central pair when n is even."""
    arr = _as_sample(x)
    return float(np.median(arr))


def quantile_type7(x, p: float) -> float:
    """Linear-interpolation sample quantile at h = (n - 1) p + 1.

    Continuous in p and equal to sample_median at p = 0.5.
    """
    arr = _as_sample(x)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return float(np.quantile(arr, p))


def bandwidth_nrd0(x) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    A zero IQR falls back to the sd; a constant sample has no scale and is an
    error, even where rounding leaves its sd a little above zero.
    """
    arr = _as_sample(x, min_n=2)
    sd = float(np.std(arr, ddof=1))
    iqr = quantile_type7(arr, 0.75) - quantile_type7(arr, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0 or np.ptp(arr) == 0.0:
        raise ValueError("constant sample has no usable scale")
    return 0.9 * spread * arr.size ** (-0.2)


def kde_at(x, point: float, bandwidth: float) -> float:
    """Gaussian kernel density estimate at a single point."""
    arr = _as_sample(x)
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    u = (point - arr) / bandwidth
    return float(np.mean(np.exp(-0.5 * u * u)) / (bandwidth * _SQRT_2PI))


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
    arr = _as_sample(x, min_n=2)
    if variant not in ("quartic", "quadratic"):
        raise ValueError("variant must be 'quartic' or 'quadratic'")
    if sigma_known is not None and not sigma_known > 0:
        raise ValueError("sigma_known must be positive")
    n = arr.size
    mean = float(np.mean(arr))
    d = arr - mean
    s2 = float(np.sum(d * d) / (n - 1))
    mu3 = float(np.mean(d**3))
    w = float(np.mean(np.abs(arr - np.median(arr))))
    base = sigma_known**2 if sigma_known is not None else s2
    center = base**2 if variant == "quartic" else base
    var_sq = float(np.mean((d * d - center) ** 2))
    return SampleMoments(n=n, mean=mean, s2=s2, mu3_hat=mu3, w_hat=w, var_sq_hat=var_sq)
