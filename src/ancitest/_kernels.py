"""Vectorized statistic kernels over replication matrices.

Every kernel maps an (R, n) matrix of samples (one replication per row) to a
length-R vector of statistic values plus, where the statistic can be
undefined, a boolean degeneracy mask.  The Monte Carlo engine
(``power``) and the resampling study (``regression.resample_power_study``)
consume them directly.  The signed-rank test in ``stattests`` calls
``signed_rank`` on its one sample; the other per-sample public tests compute
each statistic from its own scalar formula, and the tests hold the two
routes to agreement row by row.  Rows flagged degenerate carry unusable
values and must be scored as non-rejections by callers; zero-range rows are
always degenerate.

Rows may contain ties and exact zeros (resampled rows always have ties).
Order statistics come from one sort per row and equal numpy's ``median`` and
type-7 ``quantile`` bit for bit; the signed-rank kernel drops exact zeros and
gives tied absolute values their mid-ranks.  Rows must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])
_BOOT_STEP = 50  # bootstrap resamples evaluated per step along B
_BOOT_ELEMS = 1 << 20  # indices in one step of a full bootstrap row block


def normal_upper(alpha: float) -> float:
    """Upper critical value z with P(Z > z) = alpha; the chi-square(1)
    critical value at level alpha is normal_upper(alpha / 2) ** 2."""
    return -NormalDist().inv_cdf(alpha)


def normal_sf(x):
    """Upper tail P(Z > x) of the standard normal, elementwise; the
    chi-square(1) tail of s ** 2 is 2 * normal_sf(abs(s))."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def mean_to(x: np.ndarray, sigma: float) -> np.ndarray:
    n = x.shape[1]
    return math.sqrt(n) * x.mean(axis=1) / sigma


def mean_tn(x: np.ndarray, sigma: float, variant: str = "quartic"):
    """Skewness-corrected mean statistic with known sigma.

    Returns (statistic, degenerate_mask).  The correction subtracts the
    scaled covariate S^2 - sigma^2 and standardizes by the estimated variance
    of the corrected statistic.
    """
    if variant not in ("quartic", "quadratic"):
        raise ValueError("variant must be 'quartic' or 'quadratic'")
    rows, n = x.shape
    mean = x.mean(axis=1)
    d = x - mean[:, None]
    dd = d * d
    s2 = dd.sum(axis=1) / (n - 1)
    mu3 = (dd * d).mean(axis=1)
    c_known = sigma**4 if variant == "quartic" else sigma**2
    var_known = ((dd - c_known) ** 2).mean(axis=1)
    c_s = s2**2 if variant == "quartic" else s2
    var_s = ((dd - c_s[:, None]) ** 2).mean(axis=1)
    degen = (np.ptp(x, axis=1) == 0.0) | (var_known <= 0.0) | (var_s <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 1.0 - mu3**2 / (s2 * var_s)
        degen |= ~np.isfinite(delta) | (delta <= 0.0)
        to = math.sqrt(n) * mean / sigma
        tn = (to - mu3 * math.sqrt(n) * (s2 - sigma**2) / (sigma * var_known)) / np.sqrt(delta)
    tn = np.where(degen, -np.inf, tn)
    return tn, degen


@dataclass(frozen=True)
class MedianPieces:
    """Shared per-row summaries for the median and symmetry statistics."""

    n: int
    mean: np.ndarray
    median: np.ndarray
    s: np.ndarray  # sqrt of the unbiased variance
    w: np.ndarray  # mean absolute deviation about the median
    fhat: np.ndarray  # Gaussian KDE at the median, rule-of-thumb bandwidth
    degenerate: np.ndarray  # rows with no usable scale


def _type7_quantile(s: np.ndarray, q: float) -> np.ndarray:
    """Type-7 quantile of each row of the row-sorted matrix s, computed with
    numpy's own lerp form so that it equals np.quantile(..., axis=1)."""
    n = s.shape[1]
    v = (n - 1) * q
    lo = math.floor(v)
    g = v - lo
    a = s[:, lo]
    b = s[:, min(lo + 1, n - 1)]
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def median_pieces(x: np.ndarray) -> MedianPieces:
    rows, n = x.shape
    mean = x.mean(axis=1)
    s = np.sort(x, axis=1)
    # np.median's own reduction (the mean of the middle one or two entries),
    # which also maps a -0.0 middle entry to +0.0.
    mid = n // 2
    med = np.mean(s[:, mid - 1 + n % 2 : mid + 1], axis=1)
    sd = x.std(axis=1, ddof=1)
    iqr = _type7_quantile(s, 0.75) - _type7_quantile(s, 0.25)
    # A zero-range row can still get a tiny positive sd from rounding.
    flat = s[:, 0] == s[:, -1]
    del s  # free the sorted copy before the KDE's temporaries
    spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
    degen = (spread <= 0.0) | flat
    h = 0.9 * np.where(degen, 1.0, spread) * n ** (-0.2)
    u = (med[:, None] - x) / h[:, None]
    fhat = np.exp(-0.5 * u * u).mean(axis=1) / (h * _SQRT_2PI)
    w = np.abs(x - med[:, None]).mean(axis=1)
    return MedianPieces(n=n, mean=mean, median=med, s=sd, w=w, fhat=fhat, degenerate=degen)


def median_to(p: MedianPieces):
    stat = 2.0 * math.sqrt(p.n) * p.median * p.fhat
    stat = np.where(p.degenerate, -np.inf, stat)
    return stat, p.degenerate.copy()


def median_tn(p: MedianPieces):
    """Median statistic decorrelated from the studentized mean."""
    degen = p.degenerate | (p.w <= 0.0) | (p.s**2 <= p.w**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        to = 2.0 * math.sqrt(p.n) * p.median * p.fhat
        tn = (to * p.s / p.w - math.sqrt(p.n) * p.mean / p.s) / np.sqrt(p.s**2 / p.w**2 - 1.0)
    tn = np.where(degen, -np.inf, tn)
    return tn, degen


def sym_to(p: MedianPieces):
    degen = p.degenerate.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = math.sqrt(p.n) * p.mean / p.s
    stat = np.where(degen, -np.inf, stat)
    return stat, degen


def sym_t1(p: MedianPieces):
    return median_to(p)


def sym_tn(p: MedianPieces):
    """Symmetry-point statistic combining the studentized mean with the
    scaled mean-median contrast.  V simplifies to 1 - delta^2; the expanded
    algebraic forms are checked against this in the tests."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dhat = p.s**2 - p.w / p.fhat + 1.0 / (4.0 * p.fhat**2)
        degen_d = p.degenerate | (p.s <= 0.0) | ~np.isfinite(dhat) | (dhat <= 0.0)
        dhat_safe = np.where(degen_d, 1.0, dhat)
        delta = (p.w / (2.0 * p.s * p.fhat) - p.s) / np.sqrt(dhat_safe)
        v = 1.0 - delta * delta
        degen = degen_d | ~np.isfinite(v) | (v <= 0.0)
        to = math.sqrt(p.n) * p.mean / p.s
        tn = (to + delta * math.sqrt(p.n) * (p.mean - p.median) / np.sqrt(dhat_safe)) / np.sqrt(v)
    tn = np.where(degen, -np.inf, tn)
    return tn, degen


def signed_rank(x: np.ndarray):
    """Normal-approximation signed-rank test of each row, returned as the
    arrays (z, w_plus, n_used, tie_correction).

    Exact zeros (of either sign) are dropped, so n_used counts the nonzero
    entries.  Tied |x| get mid-ranks, W+ sums the ranks of the positive
    entries, and the variance n(n+1)(2n+1)/24 loses the tie correction
    sum(t^3 - t)/48 over runs of t equal |x|.  No continuity correction.
    Rows with fewer than 5 nonzero entries get z = NaN.
    """
    rows, n = x.shape
    # One sort per row of the key bits(|x|) << 1 | (x > 0): a non-negative
    # double's bit pattern orders like its value and fits in 63 bits, so the
    # key sorts by |x| and carries each entry's sign in its low bit.
    key = np.abs(np.asarray(x, dtype=np.float64)).view(np.uint64) << np.uint64(1)
    key |= x > 0.0
    key.sort(axis=1)
    positive = (key & np.uint64(1)).astype(bool)
    key >>= np.uint64(1)
    # Twice W+ over all n entries, in integers: ordinal ranks, then mid-ranks
    # on the rows that have ties.  Ranks are half-integers, so W+ is exact.
    wplus2 = 2 * (positive * np.arange(1, n + 1)).sum(axis=1)
    ties = np.zeros(rows, dtype=np.int64)
    tied = np.flatnonzero((key[:, 1:] == key[:, :-1]).any(axis=1))
    wplus2[tied], ties[tied] = _tied_rank_sums(key[tied], positive[tied])
    # Zeros sort first and are never positive: dropping z0 of them lowers each
    # positive entry's rank by z0 and removes their run from the tie sum.
    m = np.full(rows, n)
    has_zero = np.flatnonzero(key[:, 0] == 0)
    z0 = np.count_nonzero(key[has_zero] == 0, axis=1)
    m[has_zero] -= z0
    wplus2[has_zero] -= 2 * z0 * np.count_nonzero(positive[has_zero], axis=1)
    ties[has_zero] -= z0**3 - z0
    tie_correction = ties / 48.0
    var = m * (m + 1) * (2 * m + 1) / 24.0 - tie_correction
    w_plus = wplus2 / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (w_plus - m * (m + 1) / 4.0) / np.sqrt(var)
    z[m < 5] = np.nan
    return z, w_plus, m, tie_correction


def wilcoxon_z(x: np.ndarray) -> np.ndarray:
    """The z column of signed_rank: zeros dropped, mid-ranks, tie-corrected
    variance, NaN for rows with fewer than 5 nonzero entries."""
    return signed_rank(x)[0]


def _tied_rank_sums(v: np.ndarray, selected: np.ndarray):
    """Per row of the row-sorted v: twice the sum of the mid-ranks of the
    selected entries, and sum(t^3 - t) over the runs of t equal values.

    An entry at 0-based position j in a run spanning positions first..last
    has mid-rank (first + last) / 2 + 1.  With d = last - first = t - 1,
    each of the run's t entries adds d (d + 2), which sums to t^3 - t."""
    rows, n = v.shape
    # d (d + 2) < n^2 must fit the index dtype.
    j = np.arange(n, dtype=np.int32 if n <= 46340 else np.int64)
    # starts[:, j] marks a run starting at j; starts[:, j + 1] one ending at j.
    starts = np.ones((rows, n + 1), dtype=bool)
    np.not_equal(v[:, 1:], v[:, :-1], out=starts[:, 1:-1])
    first = np.maximum.accumulate(np.where(starts[:, :-1], j, 0), axis=1)
    last = np.minimum.accumulate(np.where(starts[:, :0:-1], j[::-1], n), axis=1)[:, ::-1]
    d = last - first
    ties = (d * (d + 2)).sum(axis=1)
    first += last
    return (first * selected).sum(axis=1) + 2 * np.count_nonzero(selected, axis=1), ties


def bootstrap_steps(n_boot: int):
    """(b0, b1) bounds of the steps of _BOOT_STEP resamples along B."""
    return [(b0, min(b0 + _BOOT_STEP, n_boot)) for b0 in range(0, n_boot, _BOOT_STEP)]


def bootstrap_draw(gen: np.random.Generator, rows: int, step: int, n: int):
    """Indices of one step of resamples: gen.integers(0, n, size=(rows,
    step, n)), drawn as uint16 when n <= 65536 and as int64 above."""
    dtype = np.uint16 if n <= 1 << 16 else np.int64
    return gen.integers(0, n, size=(rows, step, n), dtype=dtype)


def bootstrap_row_draws(gen: np.random.Generator, n_boot: int, n: int):
    """All n_boot resample indices of one row, (n_boot, n), drawn step by
    step: the indices bootstrap_mean_reject draws for a one-row block on
    every step it evaluates."""
    steps = bootstrap_steps(n_boot)
    return np.concatenate([bootstrap_draw(gen, 1, b1 - b0, n)[0] for b0, b1 in steps])


def bootstrap_decide(x, sigma, alpha, n_boot, draw, max_elems=_BOOT_ELEMS):
    """Early-stopped bootstrap-t decisions on the resamples that draw supplies.

    Row r rejects when its statistic To = sqrt(n) mean / sigma exceeds
    np.quantile(T*, 1 - alpha) of its n_boot resample statistics
    T*_b = sqrt(n) (mean*_b - mean) / sigma.  Rows are taken in blocks of
    max_elems // (_BOOT_STEP * n) (83 rows at n = 250), and each block
    steps along B, _BOOT_STEP resamples at a time (bootstrap_steps).  At
    each step draw(rows, b0, b1) must return the (len(rows), b1 - b0, n)
    indices of resamples b0..b1-1 of the given rows of x, for the rows
    still live only.  The quantile sits at v = (n_boot - 1)(1 - alpha),
    between the sorted T*_(lo) and T*_(lo+1) with lo = floor(v), so with
    c = #{T*_b < To}:

    - a row rejects once c >= lo + 2, or c >= lo + 1 when v is an integer;
    - a row keeps once #{T*_b >= To} >= n_boot - lo;
    - only a row that ends at c = lo + 1 with a fractional v needs the
      quantile itself, which np.quantile then takes from all its T*_b.

    Each resample mean is the same whichever rows and steps are evaluated
    together, so the decisions equal To > np.quantile(T*, 1 - alpha) over
    all n_boot resamples of the same indices, bit for bit.  Returns the
    decision vector and the number of resamples each row evaluated.
    """
    rows, n = x.shape
    xbar = x.mean(axis=1)
    to = math.sqrt(n) * xbar / sigma
    v = (n_boot - 1) * (1.0 - alpha)  # numpy's own virtual index
    lo = math.floor(v)
    reject_at = lo + 1 if v == lo else lo + 2
    keep_at = n_boot - lo
    reject = np.empty(rows, dtype=bool)
    used = np.full(rows, n_boot)
    block = max(1, max_elems // (_BOOT_STEP * n))
    for r0 in range(0, rows, block):
        m = min(block, rows - r0)
        flat = x[r0 : r0 + m].ravel()
        offset = np.arange(0, m * n, n, dtype=np.intp)[:, None, None]
        tstar = np.empty((m, n_boot))
        live = np.arange(m)
        below = np.zeros(m, dtype=np.int64)
        for b0, b1 in bootstrap_steps(n_boot):
            sub = draw(r0 + live, b0, b1) + offset[live]  # intp indices
            means = np.take(flat, sub).mean(axis=2)
            t = math.sqrt(n) * (means - xbar[r0 + live, None]) / sigma
            tstar[live, b0:b1] = t
            below += np.count_nonzero(t < to[r0 + live, None], axis=1)
            up = below >= reject_at
            done = up | (b1 - below >= keep_at)
            reject[r0 + live[done]] = up[done]
            used[r0 + live[done]] = b1
            live, below = live[~done], below[~done]
            if not live.size:
                break
        if live.size:
            q = np.quantile(tstar[live], 1.0 - alpha, axis=1)
            reject[r0 + live] = to[r0 + live] > q
    return reject, used


def bootstrap_mean_reject(
    x: np.ndarray,
    sigma: float,
    alpha: float,
    n_boot: int,
    gen: np.random.Generator,
    max_elems: int = _BOOT_ELEMS,
):
    """Centered bootstrap-t with known sigma, one decision per row.

    The decision rule is bootstrap_decide's.  Each step draws
    bootstrap_draw(gen, live, step, n) for the rows of its block still
    undecided, block after block, so a row draws exactly the resamples it
    evaluates.  The decisions depend only on (x, gen state, max_elems): the
    block size is part of the stream layout.  How many indices are drawn
    depends on when rows stop, so the generator's end state depends on x.
    Returns the boolean decision vector only.
    """
    n = x.shape[1]

    def draw(live, b0, b1):
        return bootstrap_draw(gen, live.size, b1 - b0, n)

    return bootstrap_decide(x, sigma, alpha, n_boot, draw, max_elems)[0]
