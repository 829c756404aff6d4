"""Scalar test statistics: hand-worked oracles, algebraic identities, and
agreement between the batched kernels and the test-only scalar oracles.

Every public test is a one-row call of its ``_kernels`` kernel, so the
independent route is ``scalar_oracles``: the per-sample formulas built on
plain numpy, with the same degeneracy checks and reason strings.  Kernel
rows and public outcomes must match them, and the median, symmetry and
known-sigma mean statistics bit for bit.  The signed-rank test's reference
is scipy's ``wilcoxon``, used here as a test oracle only.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from ancitest import (
    DegenerateStatistic,
    DesignId,
    RandomStream,
    StudyPlan,
    bootstrap_t_test,
    median_test_TN,
    median_test_To,
    modified_mean_test,
    reproduce_table,
    resample_power_study,
    symmetry_test,
    t_test_known_sigma,
    thomas_transform,
    toy_power_curve,
    toy_three_obs_powers,
    two_sided,
    wilcoxon_signed_rank,
)
from ancitest import _kernels as ker
from ancitest.regression import make_fixture
from ancitest.stattests import TWO_SIDED_CHI2
import scalar_oracles as orc

Z95 = sps.norm.isf(0.05)


def test_t_test_known_sigma_oracle():
    x = np.array([0.0, 0.0, 0.0, 4.0])
    out = t_test_known_sigma(x, sigma=1.0)
    assert out.statistic == pytest.approx(2.0, abs=1e-14)
    assert out.threshold == pytest.approx(Z95, abs=1e-12)
    assert out.reject is True
    assert out.p_value == pytest.approx(sps.norm.sf(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        t_test_known_sigma(np.array([1.0]), sigma=1.0)
    with pytest.raises(ValueError):
        t_test_known_sigma(x, sigma=0.0)


@pytest.mark.parametrize("c", [1e100, 1e160])
def test_known_sigma_tests_where_a_power_of_sigma_overflows(c):
    # (c x, c sigma) leaves the known-sigma statistics unchanged, but at
    # these scales sigma**4 overflows float64.  t_test_known_sigma reads
    # only the mean and returns its statistic, without a warning;
    # modified_mean_test, whose quartic variant centres at sigma**4, names
    # sigma (and so does its quadratic variant once sigma**2 overflows).
    x = np.random.default_rng(5).exponential(size=60) - 1.0
    want = t_test_known_sigma(x, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = t_test_known_sigma(c * x, c)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-14)
    assert got.reject == want.reject and got.p_value == pytest.approx(want.p_value, rel=1e-12)
    with pytest.raises(ValueError, match=f"^{re.escape(f'sigma**4 overflows float64, got sigma={c}')}$"):
        modified_mean_test(c * x, c)
    if c == 1e160:
        with pytest.raises(ValueError, match=r"^sigma\*\*2 overflows float64"):
            modified_mean_test(c * x, c, variant="quadratic")


def test_modified_mean_test_hand_oracle_both_variants():
    # x = {0, 0, 0, 4}, sigma = 1: mean 1, S^2 = 4, mu3_hat = 6, To = 2.
    # Quartic centering (sigma^4 and S^4):
    #   var_known = 16, correction = 6*2*3/16 = 2.25,
    #   var_s = 181, delta = 1 - 36/(4*181) = 172/181,
    #   TN = (2 - 2.25) / sqrt(172/181).
    x = np.array([0.0, 0.0, 0.0, 4.0])
    out = modified_mean_test(x, sigma=1.0)
    want = -0.25 / math.sqrt(172.0 / 181.0)
    assert out.statistic == pytest.approx(want, rel=1e-12)
    assert out.components["to"] == pytest.approx(2.0, abs=1e-14)
    assert out.components["mu3_hat"] == pytest.approx(6.0, rel=1e-13)
    assert out.components["delta_hat"] == pytest.approx(172.0 / 181.0, rel=1e-12)
    assert out.components["correction"] == pytest.approx(2.25, rel=1e-13)
    assert out.reject is False

    # Corrected centering (sigma^2 and S^2): var_s = 13, delta = 4/13,
    #   TN = (2 - 2.25) / sqrt(4/13) = -0.25 sqrt(13) / 2.
    out_c = modified_mean_test(x, sigma=1.0, variant="quadratic")
    assert out_c.statistic == pytest.approx(-0.25 * math.sqrt(13.0) / 2.0, rel=1e-12)
    assert out_c.components["delta_hat"] == pytest.approx(4.0 / 13.0, rel=1e-12)


def test_modified_mean_test_pseudo_observation_route():
    # The statistic can also be built from the decorrelated pseudo
    # observations Y_i = (X_i - mu3_hat (n (X_i - mean)^2/(n-1) - sigma^2)
    # / var_known) / sqrt(delta): TN = sqrt(n) mean(Y) / sigma.
    gen = np.random.default_rng(42)
    for _ in range(25):
        n = int(gen.integers(5, 40))
        x = gen.gamma(2.0, 1.5, size=n) - 3.0
        sigma = float(gen.uniform(0.5, 2.0))
        try:
            out = modified_mean_test(x, sigma=sigma)
        except DegenerateStatistic:
            continue
        m = ker.moment_pieces(x[None, :], sigma)
        d = x - x.mean()
        y = x - m.mu3[0] * (d**2 * n / (n - 1.0) - sigma**2) / m.var_known[0]
        tn_y = math.sqrt(n) * y.mean() / sigma / math.sqrt(out.components["delta_hat"])
        assert out.statistic == pytest.approx(tn_y, rel=1e-11)


def test_modified_mean_test_reduces_to_t_test_when_mu3_zero():
    x = np.array([-2.0, -1.0, 1.0, 2.0])
    out = modified_mean_test(x, sigma=1.3)
    plain = t_test_known_sigma(x, sigma=1.3)
    assert out.statistic == pytest.approx(plain.statistic, abs=1e-12)
    assert out.components["correction"] == pytest.approx(0.0, abs=1e-13)


def test_modified_mean_test_degenerate_square_lattice():
    # Two-point sample symmetric in the squares: squared deviations are
    # constant, so the quartic centering has zero fourth-moment spread.
    x = np.array([-0.75, -0.75, 0.75, 0.75])
    with pytest.raises(DegenerateStatistic) as exc:
        modified_mean_test(x, sigma=1.0)
    assert "squared-deviation" in exc.value.reason
    out = modified_mean_test(x, sigma=1.0, variant="quadratic")
    assert out.statistic == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DegenerateStatistic):
        modified_mean_test(np.array([3.0, 3.0, 3.0, 3.0]), sigma=1.0)


def test_bootstrap_t_test_contract():
    x = np.array([0.4, -0.2, 1.3, 0.8, -0.5, 0.1, 2.0, -1.1])
    a = bootstrap_t_test(x, sigma=1.0, stream=RandomStream(5, ("boot",)))
    b = bootstrap_t_test(x, sigma=1.0, stream=RandomStream(5, ("boot",)))
    assert a == b
    c = bootstrap_t_test(x, sigma=1.0, stream=RandomStream(6, ("boot",)))
    assert c.threshold != a.threshold
    assert a.statistic == pytest.approx(
        math.sqrt(8) * x.mean() / 1.0, rel=1e-13
    )
    assert a.threshold == a.components["bootstrap_quantile"]
    assert 0.0 <= a.p_value <= 1.0
    with pytest.raises(ValueError):
        bootstrap_t_test(x, sigma=1.0)
    with pytest.raises(ValueError):
        bootstrap_t_test(x, sigma=1.0, n_boot=50, stream=RandomStream(5))


def test_bootstrap_scalar_matches_batched_kernel():
    # 195 single rows over n and (n_boot, alpha), To spread across the
    # threshold.  Both draw the row's whole index sequence from the same
    # stream, so they share the T*_b of every step the kernel evaluates.
    # The kernel returns decisions only; the scalar test keeps its p-value,
    # which must be the share of its own T*_b at or above To.
    gen = np.random.default_rng(17)
    cases = ((100, 0.05), (101, 0.05), (1000, 0.05), (1000, 0.037), (400, 0.1))
    decisions = []
    for n in (15, 50, 250):
        for n_boot, alpha in cases:
            for k in range(13):
                z = gen.standard_normal(n)
                x = z - z.mean() + gen.uniform(0.0, 3.0) / math.sqrt(n)
                stream = RandomStream(k, ("k", n, n_boot))
                out = bootstrap_t_test(x, sigma=0.9, alpha=alpha, n_boot=n_boot, stream=stream)
                rej, reason, _ = ker.bootstrap_mean_reject(
                    x[None, :], 0.9, alpha, n_boot, stream.generator()
                )
                assert reason[0] == 0 and bool(rej[0]) == out.reject
                decisions.append(out.reject)

                # The test's T*_b are the count-matrix means of the stream's
                # resamples, the gathered means up to rounding.
                idx = ker.bootstrap_sequence(stream.generator(), n_boot, n)
                means = ker.resample_means(x[None], idx)[0]
                bound = 3 * n * np.finfo(float).eps * np.abs(x).max()
                assert np.all(np.abs(means - x[idx].mean(axis=1)) <= bound)
                tstar = np.sort(math.sqrt(n) * (means - x.mean()) / 0.9)
                assert out.threshold == np.quantile(tstar, 1.0 - alpha)
                at_or_above = n_boot - np.searchsorted(tstar, out.statistic, side="left")
                assert out.p_value == at_or_above / n_boot
    assert len(decisions) == 195 and 20 < sum(decisions) < 175


def test_median_test_To_composition_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    med = orc.sample_median(x)
    fhat = orc.kde_at(x, med, orc.bandwidth_nrd0(x))
    out = median_test_To(x)
    assert out.statistic == pytest.approx(2.0 * math.sqrt(5) * med * fhat, rel=1e-12)
    assert out.components["fhat_median"] == pytest.approx(fhat, rel=1e-12)
    with pytest.raises(ValueError):
        median_test_To(np.array([1.0, 2.0, 3.0]))


def test_median_test_TN_formula_from_pieces():
    x = np.array([0.3, -1.2, 0.8, 2.4, -0.6, 1.1, 0.05])
    med = orc.sample_median(x)
    fhat = orc.kde_at(x, med, orc.bandwidth_nrd0(x))
    s = math.sqrt(np.var(x, ddof=1))
    w = float(np.mean(np.abs(x - med)))
    to = 2.0 * math.sqrt(x.size) * med * fhat
    want = (to * s / w - math.sqrt(x.size) * x.mean() / s) / math.sqrt(
        s**2 / w**2 - 1.0
    )
    out = median_test_TN(x)
    assert out.statistic == pytest.approx(want, rel=1e-12)
    assert out.components["s"] == pytest.approx(s, rel=1e-12)
    assert out.components["w_hat"] == pytest.approx(w, rel=1e-12)


def test_median_test_TN_degenerate_reasons():
    # Constant samples have no usable bandwidth.  The variance-gap guard is
    # defensive only: with ddof=1, s^2 strictly exceeds w^2 for any
    # non-constant sample, so it cannot fire on real data.
    with pytest.raises(DegenerateStatistic) as exc:
        median_test_TN(np.zeros(6))
    assert exc.value.reason == "constant sample"
    out = median_test_TN(np.array([-1.0, -1.0, 1.0, 1.0]))
    assert np.isfinite(out.statistic)


@pytest.mark.parametrize(
    "test",
    [
        median_test_To,
        median_test_TN,
        lambda x: modified_mean_test(x, sigma=1.0),
        lambda x: symmetry_test(x, "To"),
        lambda x: symmetry_test(x, "T1"),
        lambda x: symmetry_test(x, "TN"),
        lambda x: bootstrap_t_test(x, 1.0, stream=RandomStream(1)),
    ],
    ids=[
        "median_To", "median_TN", "modified_mean", "symmetry_To", "symmetry_T1", "symmetry_TN",
        "bootstrap",
    ],
)
def test_zero_range_sample_is_degenerate(test):
    # The mean of 50 copies of 0.7 is not exact, so the sd comes out near
    # 2e-16 instead of 0; the zero range still makes the sample degenerate.
    with pytest.raises(DegenerateStatistic) as exc:
        test(np.full(50, 0.7))
    assert exc.value.reason == "constant sample"


def test_two_sided_wraps_one_sided():
    x = np.array([0.1, -0.3, 0.25, -3.4, 0.6, -0.2])
    one = t_test_known_sigma(x, sigma=1.0)
    two = two_sided(one, alpha=0.05)
    assert two.statistic == pytest.approx(one.statistic**2, rel=1e-14)
    assert two.threshold == pytest.approx(sps.chi2.isf(0.05, 1), rel=1e-12)
    assert two.threshold == pytest.approx(sps.norm.isf(0.025) ** 2, rel=1e-9)
    assert two.p_value == pytest.approx(sps.chi2.sf(one.statistic**2, 1), rel=1e-12)
    assert two.components["signed_statistic"] == one.statistic
    # A large negative mean is invisible one-sided but rejected two-sided.
    y = np.array([-2.0, -2.5, -1.5, -2.2])
    assert t_test_known_sigma(y, sigma=1.0).reject is False
    assert two_sided(t_test_known_sigma(y, sigma=1.0), 0.05).reject is True
    with pytest.raises(ValueError):
        two_sided(two, alpha=0.05)


def test_symmetry_variance_factor_identities():
    # The printed variance factor admits two equivalent closed forms; both
    # must agree with 1 - delta^2 once the dispersion-gap term is expressed
    # over sqrt(D). Checked on random samples to 1e-12.
    gen = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        n = int(gen.integers(8, 60))
        x = gen.standard_t(6, size=n)
        try:
            out = symmetry_test(x, which="TN")
        except DegenerateStatistic:
            continue
        comp = out.components
        d_hat, delta, v = comp["d_hat"], comp["delta"], comp["v"]
        fhat = comp["fhat_median"]
        s = math.sqrt(np.var(x, ddof=1))
        w = float(np.mean(np.abs(x - orc.sample_median(x))))
        form1 = 1.0 + delta**2 + 2.0 * delta * s / math.sqrt(d_hat) - delta * w / (
            math.sqrt(d_hat) * s * fhat
        )
        form2 = (
            1.0
            + 2.0 * w / (d_hat * fhat)
            - (w / (2.0 * s * fhat) + s) ** 2 / d_hat
        )
        assert v == pytest.approx(1.0 - delta**2, rel=1e-12)
        assert form1 == pytest.approx(v, rel=1e-10, abs=1e-12)
        assert form2 == pytest.approx(v, rel=1e-10, abs=1e-12)
        checked += 1
    assert checked >= 30


def test_symmetry_test_variants_and_composition():
    x = np.array([0.5, -0.1, 1.7, 2.3, -0.9, 0.2, 1.1, -2.2, 0.7])
    n = x.size
    to = symmetry_test(x, which="To")
    assert to.statistic == pytest.approx(
        math.sqrt(n) * x.mean() / math.sqrt(np.var(x, ddof=1)), rel=1e-12
    )
    t1 = symmetry_test(x, which="T1")
    med = orc.sample_median(x)
    fhat = orc.kde_at(x, med, orc.bandwidth_nrd0(x))
    assert t1.statistic == pytest.approx(2.0 * math.sqrt(n) * med * fhat, rel=1e-12)
    with pytest.raises(ValueError):
        symmetry_test(x, which="T2")
    with pytest.raises(DegenerateStatistic):
        symmetry_test(np.zeros(8), which="TN")


def test_wilcoxon_matches_scipy_normal_approximation():
    gen = np.random.default_rng(11)
    for _ in range(20):
        n = int(gen.integers(6, 40))
        x = np.round(gen.standard_normal(n) * 3.0, 1)
        x = x[x != 0.0]
        if x.size < 5:
            continue
        out = wilcoxon_signed_rank(x)
        ref = sps.wilcoxon(
            x,
            zero_method="wilcox",
            correction=False,
            alternative="greater",
            method="approx",
        )
        # scipy reports min(W+, W-); ours reports the positive-rank sum.
        assert out.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-12)


def test_wilcoxon_hand_oracle_and_components():
    x = np.array([1.0, 2.0, -3.0, 4.0, 5.0])
    # |x| ranks are 1..5; positive ranks are {1, 2, 4, 5} so W+ = 12,
    # mean = 15/2, var = 5*6*11/24 = 13.75 with no ties.
    out = wilcoxon_signed_rank(x)
    assert out.components["w_plus"] == 12.0
    assert out.components["n_used"] == 5
    assert out.components["tie_correction"] == 0.0
    assert out.statistic == pytest.approx((12.0 - 7.5) / math.sqrt(13.75), rel=1e-13)

    # Zeros are dropped before ranking.
    out0 = wilcoxon_signed_rank(np.array([0.0, 1.0, 2.0, -3.0, 4.0, 5.0, 0.0]))
    assert out0.components["n_used"] == 5
    assert out0.statistic == pytest.approx(out.statistic, rel=1e-13)

    # Tied magnitudes trigger the tie correction, matching scipy.
    xt = np.array([1.0, 1.0, -1.0, 2.0, 2.0, -3.0, 4.0])
    outt = wilcoxon_signed_rank(xt)
    assert outt.components["tie_correction"] > 0.0
    ref = sps.wilcoxon(
        xt, zero_method="wilcox", correction=False, alternative="greater", method="approx"
    )
    assert outt.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_wilcoxon_antisymmetry_and_two_sided():
    x = np.array([0.8, -0.4, 1.6, 2.2, -1.3, 0.9, 0.3, -2.7])
    up = wilcoxon_signed_rank(x)
    down = wilcoxon_signed_rank(-x)
    assert up.statistic == pytest.approx(-down.statistic, abs=1e-12)
    two = two_sided(up, 0.05)
    assert two.side == TWO_SIDED_CHI2
    assert two.statistic == pytest.approx(up.statistic**2, rel=1e-12)
    assert two.p_value == pytest.approx(sps.chi2.sf(up.statistic**2, 1), rel=1e-12)


def test_wilcoxon_guards():
    # A degenerate sample raises DegenerateStatistic, a ValueError too.
    for x in (np.zeros(10), np.array([1.0, -2.0, 3.0, 4.0])):
        with pytest.raises(DegenerateStatistic, match="^fewer than 5 nonzero observations$"):
            wilcoxon_signed_rank(x)
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(x)


def test_thomas_transform_oracle():
    assert thomas_transform(1.0, 100) == pytest.approx(-100.0 * math.log(0.99), rel=1e-13)
    # Vectorized and strictly increasing on [0, n).
    grid = np.linspace(0.0, 40.0, 200)
    vals = thomas_transform(grid, 50)
    assert vals.shape == grid.shape
    assert np.all(np.diff(vals) > 0)
    assert thomas_transform(0.0, 10) == 0.0
    # Approaches the identity for large n.
    assert thomas_transform(4.0, 10**9) == pytest.approx(4.0, rel=1e-6)
    with pytest.raises(ValueError):
        thomas_transform(10.0, 10)
    with pytest.raises(ValueError):
        thomas_transform(-0.5, 10)


def _oracle_rows(seed, n):
    """Normal, exponential and Laplace rows, rounded rows with ties, rows
    resampled from the residual fixture, and one constant row."""
    gen = np.random.default_rng(seed)
    fixture = make_fixture(100, seed)
    return np.vstack([
        gen.standard_normal((8, n)) + 0.2,
        gen.exponential(1.0, (8, n)) - 1.0,
        gen.laplace(0.4, 1.0, (8, n)),
        np.round(gen.standard_normal((8, n)), 1),
        fixture[gen.integers(0, fixture.size, size=(8, n))],
        np.full((1, n), 0.7),
    ])


def _assert_rows_match_oracle(x, scored, public, oracle, exact):
    """Row by row: the kernel's value and reason, the public test on the
    row, and the scalar oracle agree.  A degenerate row must give the
    oracle's reason string both as the kernel's code and as the public
    test's DegenerateStatistic.  exact asks for bit-equal statistics."""
    stat, reason, _ = scored
    usable = 0
    for i, row in enumerate(x):
        try:
            want = oracle(row)
        except DegenerateStatistic as exc:
            assert ker.REASONS[reason[i]] == exc.reason
            with pytest.raises(DegenerateStatistic) as got:
                public(row)
            assert got.value.reason == exc.reason
            continue
        usable += 1
        got = public(row)
        assert reason[i] == 0
        if exact:
            assert stat[i] == want.statistic and got.statistic == want.statistic
        else:
            assert stat[i] == pytest.approx(want.statistic, rel=1e-12, abs=1e-12)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12, abs=1e-12)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-12)
        assert got.components.keys() == want.components.keys()
        for key, value in want.components.items():
            assert got.components[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert usable >= x.shape[0] - 2


def test_mean_kernels_match_scalar():
    sigma = 1.1
    for n in (4, 21, 150):
        x = _oracle_rows(2024 + n, n)
        m = ker.moment_pieces(x, sigma)
        _assert_rows_match_oracle(
            x, ker.mean_to(m), lambda r: t_test_known_sigma(r, sigma),
            lambda r: orc.t_test_known_sigma(r, sigma), exact=True,
        )
        for variant in ("quartic", "quadratic"):
            m = ker.moment_pieces(x, sigma, variant)
            _assert_rows_match_oracle(
                x, ker.mean_tn(m), lambda r: modified_mean_test(r, sigma, variant=variant),
                lambda r: orc.modified_mean_test(r, sigma, variant=variant), exact=False,
            )


def test_median_kernels_match_scalar():
    for n in (4, 25, 150):
        x = _oracle_rows(2025 + n, n)
        pieces = ker.median_pieces(x)
        _assert_rows_match_oracle(
            x, ker.median_to(pieces), median_test_To, orc.median_test_To, exact=True
        )
        _assert_rows_match_oracle(
            x, ker.median_tn(pieces), median_test_TN, orc.median_test_TN, exact=True
        )


def test_symmetry_kernels_match_scalar():
    kernels = {"To": ker.sym_to, "T1": ker.median_to, "TN": ker.sym_tn}
    for n in (5, 30, 250):
        x = _oracle_rows(2026 + n, n)
        pieces = ker.median_pieces(x)
        for which, kernel in kernels.items():
            _assert_rows_match_oracle(
                x, kernel(pieces), lambda r: symmetry_test(r, which),
                lambda r: orc.symmetry_test(r, which), exact=True,
            )


def _median_kernel(kernel):
    return lambda x: kernel(ker.median_pieces(x))


def _mean_tn_kernel(x):
    return ker.mean_tn(ker.moment_pieces(x, 1.0))


@pytest.mark.parametrize(
    "public, kernel, row, reason",
    [
        (median_test_To, _median_kernel(ker.median_to), np.full(50, 0.7), "constant sample"),
        (median_test_TN, _median_kernel(ker.median_tn), np.zeros(6), "constant sample"),
        (lambda r: symmetry_test(r, "To"), _median_kernel(ker.sym_to), np.full(9, -2.5),
         "constant sample"),
        (lambda r: symmetry_test(r, "TN"), _median_kernel(ker.sym_tn), np.full(9, 0.1),
         "constant sample"),
        (lambda r: modified_mean_test(r, 1.0), _mean_tn_kernel, np.full(5, 0.7),
         "constant sample"),
        (lambda r: modified_mean_test(r, 1.0), _mean_tn_kernel, np.array([-1.0, -1.0, 1.0, 1.0]),
         "zero squared-deviation variance (known sigma)"),
        (lambda r: modified_mean_test(r, 1.0), _mean_tn_kernel,
         np.array([-0.75, -0.75, 0.75, 0.75]), "zero squared-deviation variance"),
        (wilcoxon_signed_rank, ker.signed_rank, np.array([0.0, 1.0, -2.0, 0.0, 3.0, 4.0]),
         "fewer than 5 nonzero observations"),
    ],
    ids=["median_To", "median_TN", "symmetry_To", "symmetry_TN", "mean_constant",
         "mean_known_sigma_lattice", "mean_self_lattice", "wilcoxon_few_nonzero"],
)
def test_reachable_reasons_through_wrapper_and_kernel(public, kernel, row, reason):
    # The other reasons cannot be reached.  On a non-constant sample
    # w <= sqrt((n-1)/n) S < S, so D = S^2 - w^2 + (1/(2 fhat) - w)^2 > 0
    # and V = 1 - delta^2 > 0; and mu3 = mean(d (d^2 - c)) for any c gives
    # the standardizer 1 - mu3^2 / (S^2 var) >= 1/n by Cauchy-Schwarz.
    with pytest.raises(DegenerateStatistic) as exc:
        public(row)
    assert str(exc.value) == reason
    stat, code, _ = kernel(row[None, :])
    assert ker.REASONS[code[0]] == reason and stat[0] == -np.inf


def test_wilcoxon_kernel_matches_scalar_on_tie_free_rows():
    # Independent tie-free reference: ordinal ranks of |x| from a double
    # argsort, W+ over the positive entries, and the untied variance.
    gen = np.random.default_rng(2027)
    x = gen.standard_normal((30, 26)) + 0.2  # continuous: no ties, no zeros
    n = x.shape[1]
    ranks = np.argsort(np.argsort(np.abs(x), axis=1), axis=1) + 1
    w_plus = (ranks * (x > 0)).sum(axis=1)
    ref = (w_plus - n * (n + 1) / 4) / math.sqrt(n * (n + 1) * (2 * n + 1) / 24)
    z = ker.signed_rank(x)[0]
    for i in range(x.shape[0]):
        assert z[i] == pytest.approx(ref[i], rel=1e-11)
        assert wilcoxon_signed_rank(x[i]).statistic == pytest.approx(ref[i], rel=1e-11)


_X = np.linspace(-1.0, 2.0, 40)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: t_test_known_sigma(_X, 1.0, a),
        lambda a: modified_mean_test(_X, 1.0, a),
        lambda a: bootstrap_t_test(_X, 1.0, a),
        lambda a: median_test_To(_X, a),
        lambda a: median_test_TN(_X, a),
        lambda a: symmetry_test(_X, alpha=a),
        lambda a: two_sided(median_test_To(_X), a),
        lambda a: wilcoxon_signed_rank(_X, alpha=a),
        lambda a: toy_power_curve([0.0], alpha=a),
        lambda a: toy_three_obs_powers([0.0], alpha=a),
        lambda a: resample_power_study(_X, 20, 10, alpha=a),
        lambda a: reproduce_table("2", reps=1000, seed=0, alpha=a),
        lambda a: StudyPlan("To", DesignId("1", 0, 1), DesignId("1", 1, 1), (50,), 1000, 0, alpha=a),
    ],
    ids=["t_test_known_sigma", "modified_mean_test", "bootstrap_t_test", "median_test_To",
         "median_test_TN", "symmetry_test", "two_sided", "wilcoxon_signed_rank",
         "toy_power_curve", "toy_three_obs_powers", "resample_power_study",
         "reproduce_table", "StudyPlan"],
)
@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan")])
def test_scalar_alpha_has_one_check(call, alpha):
    # Every scalar alpha goes through _kernels.check_alpha, whose message
    # names the value it got.
    msg = f"^alpha must lie strictly between 0 and 1, got {alpha}$"
    with pytest.raises(ValueError, match=msg):
        ker.check_alpha(alpha)
    with pytest.raises(ValueError, match=msg):
        call(alpha)
