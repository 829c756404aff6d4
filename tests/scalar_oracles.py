"""Test-only scalar oracles for the statistic kernels.

These are the per-sample formulas that the public tests used before they
became one-row calls of ``ancitest._kernels``: each oracle computes its
statistic from plain numpy on one sample (``np.median``, ``np.quantile``,
``np.std``, scalar moments and a scalar KDE), with the same degeneracy
checks in the same order and the same reason strings.  The rankdata
signed-rank reference lives here too.  The tests hold the kernels, and the
public tests that call them, to these independent routes.  Inputs are
assumed clean (1-D, finite, large enough); the public tests own the input
checks.
"""

import math

import numpy as np
from scipy.stats import rankdata

from ancitest import DegenerateStatistic, TestOutcome
from ancitest._kernels import normal_sf, normal_upper

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _one_sided_outcome(stat, alpha, components):
    z = normal_upper(alpha)
    return TestOutcome(
        statistic=float(stat),
        threshold=z,
        side="one_sided_upper",
        reject=bool(stat > z),
        p_value=float(normal_sf(stat)),
        components=components,
    )


def sample_median(arr):
    return float(np.median(arr))


def quantile_type7(arr, p):
    return float(np.quantile(arr, p))


def bandwidth_nrd0(arr):
    sd = float(np.std(arr, ddof=1))
    iqr = quantile_type7(arr, 0.75) - quantile_type7(arr, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0 or np.ptp(arr) == 0.0:
        raise ValueError("constant sample has no usable scale")
    return 0.9 * spread * arr.size ** (-0.2)


def kde_at(arr, point, bandwidth):
    u = (point - arr) / bandwidth
    return float(np.mean(np.exp(-0.5 * u * u)) / (bandwidth * _SQRT_2PI))


def sample_moments(arr, sigma_known=None, variant="quartic"):
    """(mean, s2, mu3_hat, w_hat, var_sq_hat) of one sample."""
    n = arr.size
    mean = float(np.mean(arr))
    d = arr - mean
    s2 = float(np.sum(d * d) / (n - 1))
    mu3 = float(np.mean(d**3))
    w = float(np.mean(np.abs(arr - np.median(arr))))
    base = sigma_known**2 if sigma_known is not None else s2
    center = base**2 if variant == "quartic" else base
    var_sq = float(np.mean((d * d - center) ** 2))
    return mean, s2, mu3, w, var_sq


def t_test_known_sigma(arr, sigma, alpha=0.05):
    stat = math.sqrt(arr.size) * float(np.mean(arr)) / sigma
    return _one_sided_outcome(stat, alpha, {})


def modified_mean_test(arr, sigma, alpha=0.05, variant="quartic"):
    n = arr.size
    mean, s2, mu3, _, var_known = sample_moments(arr, sigma_known=sigma, variant=variant)
    var_self = sample_moments(arr, variant=variant)[4]
    if s2 <= 0 or np.ptp(arr) == 0.0:
        raise DegenerateStatistic("constant sample")
    if var_known <= 0:
        raise DegenerateStatistic("zero squared-deviation variance (known sigma)")
    if var_self <= 0:
        raise DegenerateStatistic("zero squared-deviation variance")
    delta_hat = 1.0 - mu3**2 / (s2 * var_self)
    if delta_hat <= 0:
        raise DegenerateStatistic("nonpositive standardizer")
    to = math.sqrt(n) * mean / sigma
    correction = mu3 * math.sqrt(n) * (s2 - sigma**2) / (sigma * var_known)
    stat = (to - correction) / math.sqrt(delta_hat)
    components = {
        "to": to,
        "mu3_hat": mu3,
        "s2": s2,
        "delta_hat": delta_hat,
        "correction": correction,
    }
    return _one_sided_outcome(stat, alpha, components)


def _median_pieces(arr):
    med = sample_median(arr)
    try:
        h = bandwidth_nrd0(arr)
    except ValueError as exc:
        raise DegenerateStatistic("constant sample") from exc
    fhat = kde_at(arr, med, h)
    s = math.sqrt(float(np.var(arr, ddof=1)))
    w = float(np.mean(np.abs(arr - med)))
    return med, fhat, s, w, float(np.mean(arr))


def median_test_To(arr, alpha=0.05):
    med, fhat, _, _, _ = _median_pieces(arr)
    stat = 2.0 * math.sqrt(arr.size) * med * fhat
    return _one_sided_outcome(stat, alpha, {"fhat_median": fhat})


def median_test_TN(arr, alpha=0.05):
    med, fhat, s, w, mean = _median_pieces(arr)
    n = arr.size
    if w <= 0:
        raise DegenerateStatistic("zero mean absolute deviation")
    if s * s <= w * w:
        raise DegenerateStatistic("variance not above squared mean deviation")
    to = 2.0 * math.sqrt(n) * med * fhat
    stat = (to * s / w - math.sqrt(n) * mean / s) / math.sqrt(s * s / (w * w) - 1.0)
    components = {
        "fhat_median": fhat,
        "s": s,
        "w_hat": w,
        "ancillary_term": math.sqrt(n) * mean / s,
    }
    return _one_sided_outcome(stat, alpha, components)


def symmetry_test(arr, which="TN", alpha=0.05):
    med, fhat, s, w, mean = _median_pieces(arr)
    n = arr.size
    if which == "T1":
        return median_test_To(arr, alpha)
    if s <= 0:
        raise DegenerateStatistic("constant sample")
    if which == "To":
        return _one_sided_outcome(math.sqrt(n) * mean / s, alpha, {"s": s})
    dhat = s * s - w / fhat + 1.0 / (4.0 * fhat * fhat)
    if dhat <= 0:
        raise DegenerateStatistic("nonpositive dispersion gap")
    delta = (w / (2.0 * s * fhat) - s) / math.sqrt(dhat)
    v = 1.0 - delta * delta
    if v <= 0:
        raise DegenerateStatistic("nonpositive variance factor")
    to = math.sqrt(n) * mean / s
    stat = (to + delta * math.sqrt(n) * (mean - med) / math.sqrt(dhat)) / math.sqrt(v)
    components = {"d_hat": dhat, "delta": delta, "v": v, "fhat_median": fhat, "to": to}
    return _one_sided_outcome(stat, alpha, components)


def wilcoxon_z(x):
    """Signed-rank z of each row of x: zeros dropped, mid-ranks from
    scipy's rankdata, tie correction from np.unique, -inf for rows with
    fewer than 5 nonzero entries."""
    z = np.full(x.shape[0], -np.inf)
    for i, row in enumerate(x):
        nz = row[row != 0.0]
        n = nz.size
        if n < 5:
            continue
        wplus = float(rankdata(np.abs(nz))[nz > 0].sum())
        _, counts = np.unique(np.abs(nz), return_counts=True)
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float(np.sum(counts.astype(float) ** 3 - counts) / 48.0)
        z[i] = (wplus - n * (n + 1) / 4.0) / math.sqrt(var)
    return z
