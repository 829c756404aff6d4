"""Empirical building blocks: medians, type-7 quantiles, nrd0 bandwidth, KDE,
and the sample moments, each checked on the ``_kernels`` piece that computes
it, run on one sample as a (1, n) matrix.

Oracles are hand-computed closed forms (exact fractions where possible) and
the plain-numpy formulas of ``scalar_oracles``; the equivariance properties
are checked with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ancitest import _kernels as ker
import scalar_oracles as orc

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _row(x):
    return np.asarray(x, dtype=float)[None, :]


def _median(x):
    return float(ker.sorted_median(np.sort(_row(x), axis=1))[0])


def _quantile(x, p):
    return float(ker.type7_quantile(np.sort(_row(x), axis=1), p)[0])


def _bandwidth(x):
    """median_pieces' nrd0 bandwidth of one sample, None where the sample
    has no usable scale (the piece's degenerate flag)."""
    pieces = ker.median_pieces(_row(x))
    return None if pieces.degenerate[0] else float(pieces.h[0])


def _kde(x, point, h):
    """The KDE of median_pieces at one point, on one row of deviations."""
    return float(ker._kde_of_deviations(point - _row(x), np.full(1, h))[0])


def test_sample_median_oracles():
    assert _median([3.0, 1.0, 2.0]) == 2.0
    # Even n: midpoint of the two central order statistics.
    assert _median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert _median([5.0]) == 5.0


def test_quantile_type7_hand_oracles():
    # Type 7: h = (n - 1) p + 1, linear interpolation between order stats.
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert _quantile(x, 0.25) == pytest.approx(0.75, abs=1e-15)
    assert _quantile([1.0, 2.0, 3.0, 4.0], 0.25) == pytest.approx(1.75, abs=1e-15)
    assert _quantile(x, 0.0) == 0.0
    assert _quantile(x, 1.0) == 3.0
    assert _quantile([2.0, 1.0, 3.0], 0.5) == 2.0


def test_bandwidth_nrd0_hand_value():
    # n = 3 sample {-1, 0, 1}: sd = 1, type-7 IQR = 1, so the spread term is
    # min(1, 1/1.34) and h = 0.9 * (1/1.34) * 3^(-1/5).
    x = np.array([-1.0, 0.0, 1.0])
    want = 0.9 * (1.0 / 1.34) * 3.0 ** (-0.2)
    assert _bandwidth(x) == pytest.approx(want, rel=1e-12)


def test_bandwidth_nrd0_zero_iqr_falls_back_to_sd():
    x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    sd = np.std(x, ddof=1)
    want = 0.9 * sd * 6.0 ** (-0.2)
    assert _bandwidth(x) == pytest.approx(want, rel=1e-12)


def test_bandwidth_nrd0_guards():
    assert _bandwidth([2.0, 2.0, 2.0]) is None
    assert _bandwidth(np.full(50, 0.7)) is None  # sd rounds to about 2e-16, not 0


def test_kde_at_hand_sums():
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    assert _kde([0.0], 0.0, 1.0) == pytest.approx(phi(0.0), rel=1e-12)
    x = np.array([-1.0, 0.0, 2.0])
    h = 0.7
    want = (phi(1.5 / h) + phi(0.5 / h) + phi(-1.5 / h)) / (3 * h)
    assert _kde(x, 0.5, h) == pytest.approx(want, rel=1e-12)


def test_kde_integrates_to_one():
    x = np.array([-0.3, 0.1, 0.4, 2.0, 2.2])
    h = _bandwidth(x)
    total, err = integrate.quad(lambda t: _kde(x, t, h), -30.0, 30.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(finite_floats, min_size=2, max_size=40),
    st.floats(min_value=0.1, max_value=50.0),
    finite_floats,
)
def test_median_affine_equivariance(values, a, b):
    x = np.asarray(values, dtype=float)
    got = _median(a * x + b)
    want = a * _median(x) + b
    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0),
        min_size=3,
        max_size=40,
        unique=True,
    ),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_bandwidth_scale_equivariance(values, a, b):
    x = np.asarray(values, dtype=float)
    # Keep the spread, and the quartile gap unless it is exact ties, well
    # above the float noise floor of the shift b.
    if np.ptp(x) < 1e-3:
        return
    q25, q75 = np.quantile(x, [0.25, 0.75])
    if 0.0 < q75 - q25 < 1e-3:
        return
    got = _bandwidth(a * x + b)
    want = a * _bandwidth(x)
    assert got == pytest.approx(want, rel=1e-6)


@settings(deadline=None, max_examples=60)
@given(st.lists(finite_floats, min_size=2, max_size=40), st.randoms())
def test_permutation_invariance(values, rng):
    x = np.asarray(values, dtype=float)
    order = list(range(len(values)))
    rng.shuffle(order)
    y = x[order]
    assert _median(y) == _median(x)
    assert ker.median_pieces(_row(y)).median[0] == ker.median_pieces(_row(x)).median[0]
    assert _quantile(y, 0.37) == _quantile(x, 0.37)


def test_sample_moments_exact_fractions():
    x = _row([0.0, 1.0, 2.0, 3.0])
    m = ker.moment_pieces(x)
    assert m.n == 4
    assert m.mean[0] == pytest.approx(1.5, abs=1e-15)
    assert m.s2[0] == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert m.mu3[0] == pytest.approx(0.0, abs=1e-13)
    assert ker.median_pieces(x).w[0] == pytest.approx(1.0, abs=1e-15)
    # Centering at S^4 = 25/9: mean of (d^2 - 25/9)^2 = 4321/1296.
    assert m.var_s[0] == pytest.approx(4321.0 / 1296.0, rel=1e-12)

    mc = ker.moment_pieces(x, variant="quadratic")
    # Centering at S^2 = 5/3: mean of (d^2 - 5/3)^2 = 169/144.
    assert mc.var_s[0] == pytest.approx(169.0 / 144.0, rel=1e-12)

    mk = ker.moment_pieces(x, 1.0)
    # Centering at sigma^4 = 1: mean of (d^2 - 1)^2 = 17/16.
    assert mk.var_known[0] == pytest.approx(17.0 / 16.0, rel=1e-12)

    mkc = ker.moment_pieces(x, 2.0, "quadratic")
    # Centering at sigma^2 = 4: d^2 in {9/4, 1/4}; mean of (d^2 - 4)^2.
    want = (2 * (9.0 / 4.0 - 4.0) ** 2 + 2 * (1.0 / 4.0 - 4.0) ** 2) / 4.0
    assert mkc.var_known[0] == pytest.approx(want, rel=1e-12)


def test_sample_moments_variant_validation():
    with pytest.raises(ValueError):
        ker.moment_pieces(_row([1.0, 2.0, 3.0]), variant="other")


def test_helpers_equal_scalar_oracles():
    # Each piece on one row.  The median, quantile, bandwidth and KDE equal
    # the plain-numpy oracles bit for bit; the moments agree to rounding
    # (the kernel cubes as d * d * d, the oracle as d ** 3).
    gen = np.random.default_rng(31)
    for n in (2, 3, 4, 9, 50, 151):
        for x in (gen.standard_normal(n), np.round(gen.exponential(1.0, n), 1)):
            assert _median(x) == orc.sample_median(x)
            for p in np.append(gen.random(20), [0.0, 0.25, 0.5, 0.75, 1.0]):
                assert _quantile(x, p) == orc.quantile_type7(x, p)
            w = ker.median_pieces(_row(x)).w[0]
            for sigma in (None, 1.3):
                for variant in ("quartic", "quadratic"):
                    m = ker.moment_pieces(_row(x), sigma, variant)
                    var_sq = m.var_s if sigma is None else m.var_known
                    want = orc.sample_moments(x, sigma_known=sigma, variant=variant)
                    got = (m.mean[0], m.s2[0], m.mu3[0], w, var_sq[0])
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            try:
                h = orc.bandwidth_nrd0(x)
            except ValueError:
                assert _bandwidth(x) is None
                continue
            assert _bandwidth(x) == h
            point = float(gen.normal())
            assert _kde(x, point, h) == orc.kde_at(x, point, h)
