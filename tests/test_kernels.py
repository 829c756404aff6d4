"""Bit-for-bit checks of the sort-based kernels against direct references.

median_pieces reads the median and the type-7 quartiles from one sort per
row; the reference below takes them from np.median and np.quantile.
wilcoxon_z ranks the nonzero |x| from one sort per row; the reference drops
the zeros, takes mid-ranks from scipy.stats.rankdata and the tie correction
from np.unique, and serves only as a test oracle here.  Both must agree
exactly, on continuous rows and on the tied rows that resampling produces.
The stdlib normal tails are checked against scipy.stats to rel 1e-12.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import rankdata

from ancitest import _kernels as ker
from ancitest.regression import make_fixture

FIELDS = ("mean", "median", "s", "w", "fhat", "degenerate")


def _reference_pieces(x):
    n = x.shape[1]
    mean = x.mean(axis=1)
    med = np.median(x, axis=1)
    sd = x.std(axis=1, ddof=1)
    q1, q3 = np.quantile(x, [0.25, 0.75], axis=1)
    iqr = q3 - q1
    spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
    degen = (spread <= 0.0) | (np.ptp(x, axis=1) == 0.0)
    h = 0.9 * np.where(degen, 1.0, spread) * n ** (-0.2)
    u = (med[:, None] - x) / h[:, None]
    fhat = np.exp(-0.5 * u * u).mean(axis=1) / (h * math.sqrt(2.0 * math.pi))
    w = np.abs(x - med[:, None]).mean(axis=1)
    return {"mean": mean, "median": med, "s": sd, "w": w, "fhat": fhat, "degenerate": degen}


def _reference_wilcoxon_z(x):
    z = np.full(x.shape[0], np.nan)
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


def _assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _rows(n, seed):
    """Continuous rows, tied rows resampled from the residual fixture, rows
    with exact zeros of both signs, and constant rows."""
    gen = np.random.default_rng(seed)
    fixture = make_fixture(100, seed)
    continuous = gen.standard_normal((60, n)) + 0.2
    resampled = fixture[gen.integers(0, fixture.size, size=(60, n))]
    rounded = np.round(gen.standard_normal((30, n)), 1)  # ties, 0.0 and -0.0
    zeros = np.where(gen.random((10, n)) < 0.3, 0.0, gen.standard_normal((10, n)))
    zeros[:5] = np.where(zeros[:5] == 0.0, -0.0, zeros[:5])
    constant = np.vstack([np.full(n, 0.7), np.zeros(n), np.full(n, -0.0)])
    return np.vstack([continuous, resampled, rounded, zeros, constant])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 11, 25, 50, 80, 81, 150])
def test_median_pieces_bit_equal_to_numpy_median_and_quantile(n):
    x = _rows(n, seed=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = ker.median_pieces(x)
        want = _reference_pieces(x)
    assert got.n == n
    for field in FIELDS:
        _assert_bit_equal(getattr(got, field), want[field])


def test_median_pieces_constant_row_is_degenerate():
    # 0.5 is exact in binary, so the row's mean is exact and its sd is 0;
    # the mean of 50 copies of 0.7 is not, and its sd comes out near 2e-16.
    x = np.vstack([np.full(50, 0.5), np.linspace(-1.0, 1.0, 50), np.full(50, 0.7)])
    pieces = ker.median_pieces(x)
    assert pieces.degenerate.tolist() == [True, False, True]
    assert pieces.median[0] == 0.5
    for kernel in (ker.median_to, ker.median_tn, ker.sym_to, ker.sym_t1, ker.sym_tn):
        stat, degen = kernel(pieces)
        assert degen.tolist() == [True, False, True]
        assert stat[2] == -np.inf
    tn, degen = ker.mean_tn(x, 1.0)
    assert degen.tolist() == [True, False, True]


def test_median_of_negative_zero_middle_is_positive_zero():
    # np.median reduces the middle entries by a sum, which turns -0.0 into
    # +0.0; the sort-based median keeps that.
    for values in ([-1.0, -0.0, 2.0], [-0.0, -0.0, -0.0], [-1.0, -0.0, -0.0, 3.0]):
        row = np.array([values])
        with np.errstate(divide="ignore", invalid="ignore"):
            got = ker.median_pieces(row).median
        _assert_bit_equal(got, np.median(row, axis=1))
        assert math.copysign(1.0, got[0]) == 1.0


@pytest.mark.parametrize("n", [2, 3, 5, 26, 50, 70, 80, 81, 90, 150])
def test_wilcoxon_z_bit_equal_to_rankdata_midranks(n):
    x = _rows(n, seed=100 + n)
    _assert_bit_equal(ker.wilcoxon_z(x), _reference_wilcoxon_z(x))


def test_wilcoxon_z_drops_zeros_and_tie_corrects():
    # The zeros are dropped, leaving |x| = 1, 2, 2, 2, 3, 3 with ranks 1,
    # 3, 3, 3, 5.5, 5.5.  Positive entries: 1, two of the 2s and one 3, so
    # W+ = 1 + 3 + 3 + 5.5 = 12.5.  n = 6 and the runs of 3 and 2 equal
    # values give the tie correction (24 + 6) / 48.
    x = np.array([[0.0, -0.0, 1.0, 2.0, -2.0, 2.0, 3.0, -3.0]])
    n = 6
    var = n * (n + 1) * (2 * n + 1) / 24.0 - 30.0 / 48.0
    z, w_plus, n_used, tie_correction = ker.signed_rank(x)
    assert (w_plus[0], n_used[0], tie_correction[0]) == (12.5, 6, 30.0 / 48.0)
    assert z[0] == (12.5 - n * (n + 1) / 4.0) / math.sqrt(var)
    _assert_bit_equal(ker.wilcoxon_z(x), _reference_wilcoxon_z(x))
    # Four nonzero entries are too few, whatever the row length.
    assert np.isnan(ker.wilcoxon_z(np.array([[0.0, 0.0, 1.0, -2.0, 3.0, 4.0]])))[0]


ALPHAS = (0.01, 0.025, 0.037, 0.05, 0.1)


def test_normal_tails_match_scipy():
    for alpha in ALPHAS:
        assert ker.normal_upper(alpha) == pytest.approx(sps.norm.isf(alpha), rel=1e-12)
        assert ker.normal_upper(alpha / 2.0) ** 2 == pytest.approx(
            sps.chi2.isf(alpha, df=1), rel=1e-12
        )
    x = np.linspace(-8.0, 8.0, 1601)
    np.testing.assert_allclose(ker.normal_sf(x), sps.norm.sf(x), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        2.0 * ker.normal_sf(np.abs(x)), sps.chi2.sf(x * x, df=1), rtol=1e-12, atol=0.0
    )
