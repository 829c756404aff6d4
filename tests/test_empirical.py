"""Empirical building blocks: medians, type-7 quantiles, nrd0 bandwidth, KDE,
and the pooled sample-moment helper.

Oracles are hand-computed closed forms (exact fractions where possible) and
the plain-numpy formulas of ``scalar_oracles``; the equivariance properties
are checked with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ancitest import bandwidth_nrd0, kde_at, quantile_type7, sample_median, sample_moments
import scalar_oracles as orc

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_sample_median_oracles():
    assert sample_median(np.array([3.0, 1.0, 2.0])) == 2.0
    # Even n: midpoint of the two central order statistics.
    assert sample_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
    assert sample_median(np.array([5.0])) == 5.0


def test_quantile_type7_hand_oracles():
    # Type 7: h = (n - 1) p + 1, linear interpolation between order stats.
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert quantile_type7(x, 0.25) == pytest.approx(0.75, abs=1e-15)
    assert quantile_type7(np.array([1.0, 2.0, 3.0, 4.0]), 0.25) == pytest.approx(
        1.75, abs=1e-15
    )
    assert quantile_type7(x, 0.0) == 0.0
    assert quantile_type7(x, 1.0) == 3.0
    assert quantile_type7(np.array([2.0, 1.0, 3.0]), 0.5) == 2.0
    with pytest.raises(ValueError):
        quantile_type7(x, 1.5)


def test_bandwidth_nrd0_hand_value():
    # n = 3 sample {-1, 0, 1}: sd = 1, type-7 IQR = 1, so the spread term is
    # min(1, 1/1.34) and h = 0.9 * (1/1.34) * 3^(-1/5).
    x = np.array([-1.0, 0.0, 1.0])
    want = 0.9 * (1.0 / 1.34) * 3.0 ** (-0.2)
    assert bandwidth_nrd0(x) == pytest.approx(want, rel=1e-12)


def test_bandwidth_nrd0_zero_iqr_falls_back_to_sd():
    x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    sd = np.std(x, ddof=1)
    want = 0.9 * sd * 6.0 ** (-0.2)
    assert bandwidth_nrd0(x) == pytest.approx(want, rel=1e-12)


def test_bandwidth_nrd0_guards():
    with pytest.raises(ValueError):
        bandwidth_nrd0(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(ValueError):
        bandwidth_nrd0(np.full(50, 0.7))  # sd rounds to about 2e-16, not 0
    with pytest.raises(ValueError):
        bandwidth_nrd0(np.array([1.0]))


def test_kde_at_hand_sums():
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    assert kde_at(np.array([0.0]), 0.0, 1.0) == pytest.approx(phi(0.0), rel=1e-12)
    x = np.array([-1.0, 0.0, 2.0])
    h = 0.7
    want = (phi(1.5 / h) + phi(0.5 / h) + phi(-1.5 / h)) / (3 * h)
    assert kde_at(x, 0.5, h) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        kde_at(x, 0.5, 0.0)


def test_kde_integrates_to_one():
    x = np.array([-0.3, 0.1, 0.4, 2.0, 2.2])
    h = bandwidth_nrd0(x)
    total, err = integrate.quad(lambda t: kde_at(x, t, h), -30.0, 30.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(finite_floats, min_size=2, max_size=40),
    st.floats(min_value=0.1, max_value=50.0),
    finite_floats,
)
def test_median_affine_equivariance(values, a, b):
    x = np.asarray(values, dtype=float)
    got = sample_median(a * x + b)
    want = a * sample_median(x) + b
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
    got = bandwidth_nrd0(a * x + b)
    want = a * bandwidth_nrd0(x)
    assert got == pytest.approx(want, rel=1e-6)


@settings(deadline=None, max_examples=60)
@given(st.lists(finite_floats, min_size=2, max_size=40), st.randoms())
def test_permutation_invariance(values, rng):
    x = np.asarray(values, dtype=float)
    order = list(range(len(values)))
    rng.shuffle(order)
    y = x[order]
    assert sample_median(y) == sample_median(x)
    assert quantile_type7(y, 0.37) == quantile_type7(x, 0.37)


def test_sample_moments_exact_fractions():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    m = sample_moments(x)
    assert m.n == 4
    assert m.mean == pytest.approx(1.5, abs=1e-15)
    assert m.s2 == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert m.mu3_hat == pytest.approx(0.0, abs=1e-13)
    assert m.w_hat == pytest.approx(1.0, abs=1e-15)
    # Centering at S^4 = 25/9: mean of (d^2 - 25/9)^2 = 4321/1296.
    assert m.var_sq_hat == pytest.approx(4321.0 / 1296.0, rel=1e-12)

    mc = sample_moments(x, variant="quadratic")
    # Centering at S^2 = 5/3: mean of (d^2 - 5/3)^2 = 169/144.
    assert mc.var_sq_hat == pytest.approx(169.0 / 144.0, rel=1e-12)

    mk = sample_moments(x, sigma_known=1.0)
    # Centering at sigma^4 = 1: mean of (d^2 - 1)^2 = 17/16.
    assert mk.var_sq_hat == pytest.approx(17.0 / 16.0, rel=1e-12)

    mkc = sample_moments(x, sigma_known=2.0, variant="quadratic")
    # Centering at sigma^2 = 4: d^2 in {9/4, 1/4}; mean of (d^2 - 4)^2.
    want = (2 * (9.0 / 4.0 - 4.0) ** 2 + 2 * (1.0 / 4.0 - 4.0) ** 2) / 4.0
    assert mkc.var_sq_hat == pytest.approx(want, rel=1e-12)


def test_sample_moments_variant_validation():
    with pytest.raises(ValueError):
        sample_moments(np.array([1.0, 2.0, 3.0]), variant="other")


def test_helpers_equal_scalar_oracles():
    # Each helper is a one-row kernel call.  The median, quantile, bandwidth
    # and KDE equal the plain-numpy oracles bit for bit; the moments agree
    # to rounding (the kernel cubes as d * d * d, the oracle as d ** 3).
    gen = np.random.default_rng(31)
    for n in (2, 3, 4, 9, 50, 151):
        for x in (gen.standard_normal(n), np.round(gen.exponential(1.0, n), 1)):
            assert sample_median(x) == orc.sample_median(x)
            for p in np.append(gen.random(20), [0.0, 0.25, 0.5, 0.75, 1.0]):
                assert quantile_type7(x, p) == orc.quantile_type7(x, p)
            for sigma in (None, 1.3):
                for variant in ("quartic", "quadratic"):
                    m = sample_moments(x, sigma_known=sigma, variant=variant)
                    want = orc.sample_moments(x, sigma_known=sigma, variant=variant)
                    got = (m.mean, m.s2, m.mu3_hat, m.w_hat, m.var_sq_hat)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            try:
                h = orc.bandwidth_nrd0(x)
            except ValueError:
                with pytest.raises(ValueError):
                    bandwidth_nrd0(x)
                continue
            assert bandwidth_nrd0(x) == h
            point = float(gen.normal())
            assert kde_at(x, point, h) == orc.kde_at(x, point, h)
