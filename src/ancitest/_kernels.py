"""Vectorized statistic kernels over replication matrices.

This module is the only place where a statistic or a piece of one is
computed.  The Monte Carlo engine (``power``) and the resampling study
(``regression``) call the kernels on whole chunks of an (R, n) matrix, one
replication per row; the public tests in ``stattests`` call them on a
(1, n) matrix holding their one sample.  A TN kernel is its base kernel
plus an ancillary correction read from a kernel; both bootstrap tests take
To, T*_b and their threshold from known_sigma_z and type7_quantile.

Every statistic kernel returns (stat, reason, parts): the length-R statistic
vector, a uint8 reason vector indexing REASONS (0 for a usable row, else
the first check that failed), and the named per-row intermediates that the
public tests report as components.  Rows with a reason carry stat = -inf
and must be scored as non-rejections; zero-range rows are always degenerate.
The bootstrap decision follows the same contract with a boolean decision
vector in place of the statistic (one per location shift it decides),
False on every row with a reason.

Rows may contain ties and exact zeros (resampled rows always have ties).
Order statistics come from one sort per row and equal numpy's ``median`` and
type-7 ``quantile`` bit for bit; the signed-rank kernel drops exact zeros and
gives tied |x| mid-ranks from ordinal ranks and run lengths.  Rows must be finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])
_BOOT_STEP = 50  # bootstrap resamples evaluated per step along B
# Rows of a bootstrap row block, whatever n is; part of the stream layout.
# Each block draws and counts its whole index sequence, so fewer, larger
# blocks cost less, but the call's T*_b buffer grows with the block.  On a
# 1000-row pair at n = 250, n_boot = 1000: 256 rows took 25-26 ms (3.2 MB
# traced), 512 rows 23-24 ms (5.6 MB) and 1024 rows 21-22 ms (10.4 MB).
_BOOT_ROWS = 512
# Entries per row tile of the statistic dispatch (power._statistics).  A
# float64 tile is 512 KB, so the tile, its sorted copy and the kernels' other
# temporaries stay in a 2 MB L2 cache (2**16 and 2**17 measured fastest on
# table 3, 2**15 slower).  The kernels are row-independent, so the tile size
# cannot change a result.
_TILE_ELEMS = 1 << 16

# Degeneracy reasons, indexed by the uint8 codes the kernels return.
REASONS = (
    "",
    "constant sample",
    "zero mean absolute deviation",
    "variance not above squared mean deviation",
    "nonpositive dispersion gap",
    "nonpositive variance factor",
    "zero squared-deviation variance (known sigma)",
    "zero squared-deviation variance",
    "nonpositive standardizer",
    "fewer than 5 nonzero observations",
)
CONSTANT, ZERO_MAD, NO_VARIANCE_GAP, DISPERSION_GAP, VARIANCE_FACTOR = range(1, 6)
KNOWN_SQ_VAR, SQ_VAR, STANDARDIZER, FEW_NONZERO = range(6, 10)


def as_sample(x, min_n: int, what: str) -> np.ndarray:
    """x as a finite 1-D float array of at least min_n values: the input check
    of every per-sample entry point, what, which each error names."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what}: sample must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_n:
        raise ValueError(f"{what} requires at least {min_n} observations, got {arr.size}")
    finite = np.isfinite(arr)
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError(f"{what}: sample contains non-finite values, first at index {i} ({arr[i]})")
    return arr


def check_integers(*, at_least=None, **values) -> None:
    """The one check of integer parameters: each named value must be a Python
    or numpy integer, not a bool, and at least at_least when that is given;
    the error names the parameter and its value."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if at_least is not None and value < at_least:
            raise ValueError(f"{name} must be >= {at_least}, got {value}")


def check_positive_finite(**values) -> None:
    """The one check of scalar scales such as sigma: each named value must be
    positive and finite; the error names the parameter."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def check_variant(variant, name: str = "variant") -> None:
    """The one check of a moment variant, named name in the error."""
    if variant not in ("quartic", "quadratic"):
        raise ValueError(f"{name} must be 'quartic' or 'quadratic', got {variant!r}")


def check_alpha(alpha) -> None:
    """The one check of a scalar significance level."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def normal_upper(alpha: float) -> float:
    """Upper critical value z with P(Z > z) = alpha; the chi-square(1)
    critical value at level alpha is normal_upper(alpha / 2) ** 2."""
    return -NormalDist().inv_cdf(alpha)


def normal_sf(x):
    """Upper tail P(Z > x) of the standard normal, elementwise; the
    chi-square(1) tail of s ** 2 is 2 * normal_sf(abs(s))."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _first_reason(*checks):
    """Per row, the code of the first (code, failed) check that fails, else 0."""
    reason = np.zeros(checks[0][1].shape, dtype=np.uint8)
    for code, failed in reversed(checks):
        reason[failed] = code
    return reason


def _scored(stat, reason, parts):
    return np.where(reason != 0, -np.inf, stat), reason, parts


@dataclass(frozen=True)
class MomentPieces:
    """Per-row moments of the known-sigma mean statistics.  var_known and
    var_s are the mean of (d^2 - c)^2, c = sigma^4 and S^4 (variant quartic)
    or sigma^2 and S^2 (quadratic); without sigma, var_known is None."""

    n: int
    sigma: float | None
    mean: np.ndarray
    s2: np.ndarray  # unbiased variance S^2
    mu3: np.ndarray  # third central moment, divisor n
    var_known: np.ndarray | None
    var_s: np.ndarray
    flat: np.ndarray  # zero-range rows


def centered_squares(d: np.ndarray, out=None):
    """Squares of the row deviations d = x - mean, written to out when given,
    and S^2 = their row sum / (n - 1).  This is numpy's own var reduction,
    so sqrt(S^2) equals x.std(axis=1, ddof=1) bit for bit."""
    dd = np.multiply(d, d, out=out)
    return dd, dd.sum(axis=1) / (d.shape[1] - 1)


def moment_pieces(x: np.ndarray, sigma=None, variant: str = "quartic") -> MomentPieces:
    check_variant(variant)
    mean = x.mean(axis=1)
    d = x - mean[:, None]
    dd, s2 = centered_squares(d)
    mu3 = (dd * d).mean(axis=1)
    var_known = None
    if sigma is not None:
        # numpy's power, which overflows to inf where a Python float's
        # raises: mean_to reads only the mean and must not fail.
        c_known = np.float64(sigma) ** (4 if variant == "quartic" else 2)
        var_known = ((dd - c_known) ** 2).mean(axis=1)
    c_s = s2**2 if variant == "quartic" else s2
    var_s = ((dd - c_s[:, None]) ** 2).mean(axis=1)
    flat = np.ptp(x, axis=1) == 0.0
    return MomentPieces(x.shape[1], sigma, mean, s2, mu3, var_known, var_s, flat)


def known_sigma_z(mean, n: int, sigma: float):
    """sqrt(n) mean / sigma: the known-sigma mean statistic of a sample mean,
    or a bootstrap T*_b of a centred resample mean."""
    return math.sqrt(n) * mean / sigma


def mean_to(m: MomentPieces):
    """Known-sigma mean statistic sqrt(n) mean / sigma; never degenerate."""
    stat = known_sigma_z(m.mean, m.n, m.sigma)
    return stat, np.zeros(stat.shape, dtype=np.uint8), {}


def mean_tn(m: MomentPieces):
    """Skewness-corrected mean statistic with known sigma: mean_to less the
    scaled covariate S^2 - sigma^2, standardized by the estimated variance
    of the corrected statistic."""
    n, sigma = m.n, m.sigma
    to = mean_to(m)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 1.0 - m.mu3**2 / (m.s2 * m.var_s)
        correction = m.mu3 * math.sqrt(n) * (m.s2 - sigma**2) / (sigma * m.var_known)
        tn = (to - correction) / np.sqrt(delta)
    reason = _first_reason(
        (CONSTANT, (m.s2 <= 0.0) | m.flat),
        (KNOWN_SQ_VAR, m.var_known <= 0.0),
        (SQ_VAR, m.var_s <= 0.0),
        (STANDARDIZER, ~np.isfinite(delta) | (delta <= 0.0)),
    )
    parts = {"to": to, "mu3_hat": m.mu3, "s2": m.s2, "delta_hat": delta, "correction": correction}
    return _scored(tn, reason, parts)


@dataclass(frozen=True)
class MedianPieces:
    """Shared per-row summaries for the median and symmetry statistics."""

    n: int
    mean: np.ndarray
    median: np.ndarray
    s: np.ndarray  # sqrt of the unbiased variance
    w: np.ndarray  # mean absolute deviation about the median
    h: np.ndarray  # nrd0 bandwidth (from a unit spread on degenerate rows)
    fhat: np.ndarray  # Gaussian KDE at the median with bandwidth h
    degenerate: np.ndarray  # rows with no usable scale (reason CONSTANT)


def sorted_median(s: np.ndarray) -> np.ndarray:
    """Median of each row of the row-sorted matrix s: np.median's own
    reduction (the mean of the middle one or two entries), which also maps
    a -0.0 middle entry to +0.0."""
    n = s.shape[1]
    mid = n // 2
    return np.mean(s[:, mid - 1 + n % 2 : mid + 1], axis=1)


def type7_quantile(s: np.ndarray, q: float) -> np.ndarray:
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


def _kde_of_deviations(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gaussian KDE of each row at its point, bandwidth h, from the
    deviations d = point - x (or |d|), computed in place in d.  The kernel
    exponent is (u * u) * -0.5 for u = d / h: a power-of-two scaling
    commutes with rounding, so exp sees the values of -0.5 * u * u, and exp
    rounds to 1 wherever an exponent is too small for that to hold."""
    d /= h[:, None]
    np.multiply(d, d, out=d)
    d *= -0.5
    np.exp(d, out=d)
    return d.mean(axis=1) / (h * _SQRT_2PI)


def median_pieces(x: np.ndarray) -> MedianPieces:
    """Mean, median, S, w, the nrd0 bandwidth 0.9 min(S, IQR/1.34) n^(-1/5)
    (S alone when the IQR is zero) and the KDE at the median of each row.

    One (R, n) buffer beyond x: the row-sorted copy, which after the order
    statistics holds the centered squares for S (centered_squares, equal
    to x.std(ddof=1)) and then |med - x|, which gives w and is turned into
    the KDE's kernel values in place."""
    n = x.shape[1]
    mean = x.mean(axis=1)
    s = np.sort(x, axis=1)
    med = sorted_median(s)
    iqr = type7_quantile(s, 0.75) - type7_quantile(s, 0.25)
    # A zero-range row can still get a tiny positive sd from rounding.
    flat = s[:, 0] == s[:, -1]
    d = np.subtract(x, mean[:, None], out=s)
    sd = np.sqrt(centered_squares(d, out=d)[1])
    spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
    degen = (spread <= 0.0) | flat
    h = 0.9 * np.where(degen, 1.0, spread) * n ** (-0.2)
    np.subtract(med[:, None], x, out=d)
    w = np.abs(d, out=d).mean(axis=1)
    fhat = _kde_of_deviations(d, h)
    return MedianPieces(n=n, mean=mean, median=med, s=sd, w=w, h=h, fhat=fhat, degenerate=degen)


def median_to(p: MedianPieces):
    """Median statistic 2 sqrt(n) median fhat(median); also table 3's T1."""
    stat = 2.0 * math.sqrt(p.n) * p.median * p.fhat
    reason = _first_reason((CONSTANT, p.degenerate))
    return _scored(stat, reason, {"fhat_median": p.fhat})


def median_tn(p: MedianPieces):
    """median_to decorrelated from the studentized mean sym_to.  Their -inf
    rows are CONSTANT rows, which this kernel marks degenerate first."""
    to, ancillary = median_to(p)[0], sym_to(p)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tn = (to * p.s / p.w - ancillary) / np.sqrt(p.s**2 / p.w**2 - 1.0)
    reason = _first_reason(
        (CONSTANT, p.degenerate),
        (ZERO_MAD, p.w <= 0.0),
        (NO_VARIANCE_GAP, p.s**2 <= p.w**2),
    )
    parts = {"fhat_median": p.fhat, "s": p.s, "w_hat": p.w, "ancillary_term": ancillary}
    return _scored(tn, reason, parts)


def sym_to(p: MedianPieces):
    """Studentized mean sqrt(n) mean / S."""
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = math.sqrt(p.n) * p.mean / p.s
    reason = _first_reason((CONSTANT, p.degenerate))
    return _scored(stat, reason, {"s": p.s})


def sym_tn(p: MedianPieces):
    """Symmetry-point statistic combining the studentized mean sym_to with
    the scaled mean-median contrast.  V simplifies to 1 - delta^2; the
    expanded algebraic forms are checked against this in the tests."""
    to = sym_to(p)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        dhat = p.s**2 - p.w / p.fhat + 1.0 / (4.0 * p.fhat**2)
        degen_d = p.degenerate | (p.s <= 0.0) | ~np.isfinite(dhat) | (dhat <= 0.0)
        dhat_safe = np.where(degen_d, 1.0, dhat)
        delta = (p.w / (2.0 * p.s * p.fhat) - p.s) / np.sqrt(dhat_safe)
        v = 1.0 - delta * delta
        tn = (to + delta * math.sqrt(p.n) * (p.mean - p.median) / np.sqrt(dhat_safe)) / np.sqrt(v)
    reason = _first_reason(
        (CONSTANT, p.degenerate | (p.s <= 0.0)),
        (DISPERSION_GAP, ~np.isfinite(dhat) | (dhat <= 0.0)),
        (VARIANCE_FACTOR, ~np.isfinite(v) | (v <= 0.0)),
    )
    parts = {"d_hat": dhat, "delta": delta, "v": v, "fhat_median": p.fhat, "to": to}
    return _scored(tn, reason, parts)


def signed_rank(x: np.ndarray):
    """Normal-approximation signed-rank test of each row, with the parts
    w_plus, n_used and tie_correction.

    Exact zeros (of either sign) are dropped, so n_used counts the nonzero
    entries.  Tied |x| get mid-ranks, W+ sums the ranks of the positive
    entries, and the variance n(n+1)(2n+1)/24 loses the tie correction
    sum(t^3 - t)/48 over runs of t equal |x|.  No continuity correction.
    Rows with fewer than 5 nonzero entries are degenerate.  Each row is
    sorted once as one uint64 key per entry.  W+ comes from the ordinal
    ranks less a term per run that mixes signs, and the tie sum from the
    run lengths; an x without ties skips the run pass.
    """
    rows, n = x.shape
    # One sort per row of the key bits(|x|) << 1 | (x > 0): a non-negative
    # double's bit pattern orders like its value and fits in 63 bits, so the
    # key sorts by |x|, non-positive entries first within a run of equal |x|.
    # The shift drops the sign bit, so bits(x) << 1 is bits(|x|) << 1.
    key = np.asarray(x, dtype=np.float64).view(np.uint64) << np.uint64(1)
    key |= x > 0.0
    key.sort(axis=1)
    positive = (key & np.uint64(1)).astype(bool)
    key >>= np.uint64(1)
    # Twice W+ over all n entries, in integers, from the ordinal ranks.  In a
    # run of t equal |x| holding q non-positive entries and then p positive
    # ones, the positives' mid-ranks sum to their ordinal ranks less p q / 2,
    # and sum(p q) = (sum(t^2) - sum(u^2)) / 2 over the runs u of equal keys.
    wplus2 = 2 * (positive * np.arange(1, n + 1)).sum(axis=1)
    ties = np.zeros(rows, dtype=np.int64)
    flat, pos = key.ravel(), positive.ravel()
    starts = np.empty(flat.size, dtype=bool)  # the first entry of each run
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::n] = True
    if not starts.all():
        t, first = _runs(starts, n)
        ties = np.add.reduceat((t * t - 1) * t, first)
        mixed = pos[1:] > (pos[:-1] | starts[1:])  # a positive after a non-positive of its run
        if mixed.any():
            starts[1:] |= mixed
            u, u_first = _runs(starts, n)
            wplus2 -= (np.add.reduceat(t * t, first) - np.add.reduceat(u * u, u_first)) // 2
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
    reason = _first_reason((FEW_NONZERO, m < 5))
    return _scored(z, reason, {"w_plus": w_plus, "n_used": m, "tie_correction": tie_correction})


def _runs(starts: np.ndarray, n: int):
    """The lengths of the runs that the flat flags starts open, as intp (int64
    on 64-bit hosts), and the index of each row's first run in them; every
    row of n entries opens one."""
    at = np.flatnonzero(starts)
    return np.diff(at, append=starts.size), np.searchsorted(at, np.arange(0, starts.size, n))


def bootstrap_steps(n_boot: int):
    """(b0, b1) bounds of the steps of _BOOT_STEP resamples along B."""
    return [(b0, min(b0 + _BOOT_STEP, n_boot)) for b0 in range(0, n_boot, _BOOT_STEP)]


def bootstrap_sequence(gen: np.random.Generator, n_boot: int, n: int):
    """The (n_boot, n) resample indices of one row block (stream layout 5),
    drawn as one gen.integers(0, n, size=(b1 - b0, n)) call per step of
    bootstrap_steps into one array, as uint16 when n <= 65536 and as int64
    above."""
    dtype = np.uint16 if n <= 1 << 16 else np.int64
    idx = np.empty((n_boot, n), dtype=dtype)
    for b0, b1 in bootstrap_steps(n_boot):
        idx[b0:b1] = gen.integers(0, n, size=(b1 - b0, n), dtype=dtype)
    return idx


def resample_means(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Means of the k resamples that the shared (k, n) indices idx make of
    every row of the (rows, n) matrix x: out[r, b] is the mean of
    x[r, idx[b]].

    A resample is fixed by how often it drew each observation, so one
    bincount gives the (k, n) count matrix C of the k resamples, and the
    means of all rows are one product x @ C.T / n.  The product sums in
    another order than a gather x[r, idx[b]].mean() does, and BLAS may pick
    that order by its build, its thread count and the number of rows, so a
    mean can differ from the gathered one by a few eps * max|x[r]|.  Rows
    whose sums are exact in any order, such as integer-valued rows, get
    the gathered means bit for bit."""
    k, n = idx.shape
    counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
    return x @ counts.reshape(k, n).T.astype(float) / n


def bootstrap_decide(x, sigma, alpha, n_boot, blocks, shifts=0.0):
    """Early-stopped bootstrap-t decisions on the index sequences of blocks.

    Row r rejects when its statistic To = sqrt(n) mean / sigma exceeds
    type7_quantile(T*, 1 - alpha) of its n_boot resample statistics
    T*_b = sqrt(n) (mean*_b - mean) / sigma, both from known_sigma_z.  Rows
    are taken in blocks of _BOOT_ROWS (512) rows.  The iterator blocks
    yields each row block's (n_boot, n) index sequence in turn; no sequence
    is taken past the last block.  A block steps along B, _BOOT_STEP
    resamples at a time (bootstrap_steps), from b0 = 0 on, and every live
    row of the block resamples with the step's indices idx[b0:b1].  The
    step's resample means of all live rows are one count-matrix product
    (resample_means), of the block's rows as a view until a row stops and
    of the live rows gathered after that.  The T*_b of a block's rows fill
    one (min(_BOOT_ROWS, rows), n_boot) buffer, allocated once per call.

    Each shift s of shifts gets its own decision on every row, for the row
    x + s: its To is known_sigma_z of the mean of x + s (taken per block),
    and its T*_b are those of x, since a centred T*_b does not change when
    the row is shifted.  So one set of resamples decides every shift, and a
    row stays live until all its decisions are fixed.  A scalar shift (the
    default 0.0) decides x itself and returns one decision per row.

    The quantile sits at v = (n_boot - 1)(1 - alpha), between the sorted
    T*_(lo) and T*_(lo+1) with lo = floor(v), so with c = #{T*_b < To}:

    - a decision rejects once c >= lo + 2, or c >= lo + 1 when v is an
      integer;
    - a decision keeps once #{T*_b >= To} >= n_boot - lo;
    - only a row still live at n_boot needs the quantile itself, which
      type7_quantile then takes once from all its sorted T*_b.

    Both counts only grow, so a fixed decision stays fixed, and it equals
    To > type7_quantile(T*, 1 - alpha) over all n_boot resamples.  The
    T*_b come from resample_means, so a decision can differ from that rule
    on gathered resample means only where a T*_b lies within a few
    rounding errors of To.  Returns the decisions, of shape
    np.shape(shifts) + (rows,), and the number of resamples each row
    evaluated.
    """
    rows, n = x.shape
    xbar = x.mean(axis=1)
    v = (n_boot - 1) * (1.0 - alpha)  # type7_quantile's position
    lo = math.floor(v)
    reject_at = lo + 1 if v == lo else lo + 2
    keep_at = n_boot - lo
    s = np.ravel(shifts)
    reject = np.empty((s.size, rows), dtype=bool)
    used = np.full(rows, n_boot)
    tstar = np.empty((min(_BOOT_ROWS, rows), n_boot))
    for r0, idx in zip(range(0, rows, _BOOT_ROWS), blocks):
        m = min(_BOOT_ROWS, rows - r0)
        blk = slice(r0, r0 + m)
        to = known_sigma_z(np.array([(x[blk] + d).mean(axis=1) if d else xbar[blk] for d in s]),
                           n, sigma)
        live = np.arange(m)
        below = np.zeros((s.size, m), dtype=np.int64)
        for b0, b1 in bootstrap_steps(n_boot):
            means = resample_means(x[blk] if live.size == m else x[r0 + live], idx[b0:b1])
            t = known_sigma_z(means - xbar[r0 + live, None], n, sigma)
            tstar[live, b0:b1] = t
            below += np.count_nonzero(t < to[:, live, None], axis=2)
            up = below >= reject_at
            out = (up | (b1 - below >= keep_at)).all(axis=0)
            reject[:, r0 + live[out]] = up[:, out]
            used[r0 + live[out]] = b1
            live, below = live[~out], below[:, ~out]
            if not live.size:
                break
        if live.size:
            q = type7_quantile(np.sort(tstar[live], axis=1), 1.0 - alpha)
            reject[:, r0 + live] = to[:, live] > q
    return reject.reshape(np.shape(shifts) + (rows,)), used


def bootstrap_mean_reject(
    x: np.ndarray,
    sigma: float,
    alpha: float,
    n_boot: int,
    gen: np.random.Generator,
    shifts=0.0,
):
    """Centered bootstrap-t with known sigma, one decision per row and shift.

    The decision rule is bootstrap_decide's (stream layout 5).  Each row
    block of _BOOT_ROWS (512) rows draws its whole index sequence,
    bootstrap_sequence(gen, n_boot, n), block after block, and every row
    live at a step resamples with that step's indices.  A block draws all
    n_boot resamples however early its rows stop, so the k-th block's
    sequence depends only on the generator's starting state and k, never on
    x, and so does the generator's end state.  A block's decisions depend
    only on its rows, the shifts and its sequence; in particular a shift
    pair's first decisions equal those of a one-shift call on the same
    generator, up to the rounding of a T*_b that lies within a few rounding
    errors of To (resample_means).  The block size _BOOT_ROWS is part of
    the stream layout.  One block's index
    sequence (500 KB at n = 250, n_boot = 1000), one step's count matrix and
    the call's one T*_b buffer (4 MB at 512 rows and n_boot = 1000) are held
    at a time.

    Follows the kernel contract with a decision in place of a statistic:
    returns (reject, reason, parts) with the boolean decisions and uint8
    reasons, both of shape np.shape(shifts) + (rows,), and parts =
    {"resamples": the number of resamples each row evaluated}.  Rows whose
    shifted sample x + s has zero range get reason CONSTANT for that shift
    and never reject it; they are still resampled, like every other row.
    """
    n = x.shape[1]
    blocks = (bootstrap_sequence(gen, n_boot, n) for _ in itertools.count())
    reject, used = bootstrap_decide(x, sigma, alpha, n_boot, blocks, shifts)
    # Rounding is monotone, so max(x + s) and min(x + s) are the shifted
    # max and min, and x + s is flat exactly where they agree.
    s = np.reshape(shifts, (-1, 1))
    flat = (x.max(axis=1) + s == x.min(axis=1) + s).reshape(reject.shape)
    reason = _first_reason((CONSTANT, flat))
    return reject & (reason == 0), reason, {"resamples": used}
