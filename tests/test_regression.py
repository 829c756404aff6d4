"""CSV loading, the least-squares fit, the heavy-tailed residual fixture, and
the median-analysis pipeline.

The OLS oracle is the normal-equations route solved with numpy's linear
algebra, deliberately separate from the scalar formulas inside ols_fit.
The fixture's population facts (mean 0, variance 0.073, positive median)
are re-derived from scipy's lognormal moments rather than trusted.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from ancitest import _kernels as ker
from ancitest import (
    RandomStream,
    load_xy_csv,
    make_fixture,
    ols_fit,
    resample_power_study,
    residual_median_analysis,
    residuals,
)
from ancitest.regression import fixture_population_summary


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_xy_csv_well_formed(tmp_path):
    path = _write(tmp_path, "y,z,extra\n1.5,2.0,9\n2.5,4.0,9\n3.5,6.0,9\n")
    y, z = load_xy_csv(path, "y", "z")
    np.testing.assert_allclose(y, [1.5, 2.5, 3.5])
    np.testing.assert_allclose(z, [2.0, 4.0, 6.0])


def test_load_xy_csv_error_reporting(tmp_path):
    path = _write(tmp_path, "y,z\n1.0,2.0\n,3.0\n2.0,4.0\n")
    with pytest.raises(ValueError, match="data row 2"):
        load_xy_csv(path, "y", "z")
    path = _write(tmp_path, "y,z\n1.0,2.0\nfoo,3.0\n2.0,4.0\n")
    with pytest.raises(ValueError, match="data row 2"):
        load_xy_csv(path, "y", "z")
    path = _write(tmp_path, "y,z\n1.0,2.0\n2.0,3.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="'w'"):
        load_xy_csv(path, "y", "w")
    path = _write(tmp_path, "y,z\n1.0,2.0\n2.0,3.0\n")
    with pytest.raises(ValueError):
        load_xy_csv(path, "y", "z")
    with pytest.raises(FileNotFoundError):
        load_xy_csv(str(tmp_path / "absent.csv"), "y", "z")


def test_load_xy_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("residual,z\n1.0,4.0\n2.0,5.0\n3.0,6.0\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    y, z = load_xy_csv(str(path), "residual", "z")
    np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(z, [4.0, 5.0, 6.0])


def test_load_xy_csv_rejects_a_repeated_column_by_name(tmp_path):
    # csv.DictReader would keep the last of two equal names, here 9, 8, 7.
    path = _write(tmp_path, "residual,residual\n1,9\n2,8\n3,7\n")
    with pytest.raises(ValueError, match=r": repeated column 'residual' in the header$"):
        load_xy_csv(path, "residual", "residual")
    path = _write(tmp_path, "y,z,note,note\n1,2,a,b\n2,3,a,b\n3,4,a,b\n")
    with pytest.raises(ValueError, match=r": repeated column 'note' in the header$"):
        load_xy_csv(path, "y", "z")


def test_load_xy_csv_log_transform(tmp_path):
    path = _write(tmp_path, "y,z\n1.0,2.0\n2.0,4.0\n4.0,8.0\n")
    y, z = load_xy_csv(path, "y", "z", log_transform=True)
    np.testing.assert_allclose(y, np.log([1.0, 2.0, 4.0]))
    np.testing.assert_allclose(z, np.log([2.0, 4.0, 8.0]))
    bad = _write(tmp_path, "y,z\n1.0,2.0\n0.0,4.0\n4.0,8.0\n")
    with pytest.raises(ValueError, match="log"):
        load_xy_csv(bad, "y", "z", log_transform=True)


def test_ols_exact_fit():
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = 2.0 + 3.0 * z
    fit = ols_fit(y, z)
    assert fit.intercept == pytest.approx(2.0, abs=1e-12)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.residual_se == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0
    assert fit.df == 3
    np.testing.assert_allclose(residuals(fit, y, z), np.zeros(5), atol=1e-12)


def test_ols_matches_normal_equations_oracle():
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([2.1, 3.9, 6.2, 7.8, 10.1])
    fit = ols_fit(y, z)

    n = z.size
    xtx = np.array([[n, z.sum()], [z.sum(), (z * z).sum()]])
    xty = np.array([y.sum(), (z * y).sum()])
    beta = np.linalg.solve(xtx, xty)
    assert fit.intercept == pytest.approx(beta[0], abs=1e-9)
    assert fit.slope == pytest.approx(beta[1], abs=1e-9)

    eps = y - beta[0] - beta[1] * z
    sse = float(eps @ eps)
    s2 = sse / (n - 2)
    cov = s2 * np.linalg.inv(xtx)
    assert fit.residual_se == pytest.approx(math.sqrt(s2), rel=1e-9)
    assert fit.se_intercept == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-9)
    assert fit.se_slope == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-9)
    assert fit.t_values[0] == pytest.approx(beta[0] / math.sqrt(cov[0, 0]), rel=1e-9)
    assert fit.t_values[1] == pytest.approx(beta[1] / math.sqrt(cov[1, 1]), rel=1e-9)
    syy = float(((y - y.mean()) ** 2).sum())
    assert fit.r_squared == pytest.approx(1.0 - sse / syy, rel=1e-9)

    res = residuals(fit, y, z)
    assert abs(res.sum()) <= 1e-9
    assert abs(res @ z) <= 1e-9


def test_ols_shift_invariance_and_guards():
    gen = np.random.default_rng(12)
    z = gen.uniform(0.0, 10.0, 30)
    y = 1.0 + 0.5 * z + gen.standard_normal(30)
    base = ols_fit(y, z)
    shifted = ols_fit(y + 7.0, z)
    assert shifted.intercept == pytest.approx(base.intercept + 7.0, rel=1e-10)
    assert shifted.slope == pytest.approx(base.slope, rel=1e-12)
    assert shifted.se_slope == pytest.approx(base.se_slope, rel=1e-10)
    np.testing.assert_allclose(
        residuals(shifted, y + 7.0, z), residuals(base, y, z), atol=1e-10
    )
    with pytest.raises(ValueError):
        ols_fit(y[:2], z[:2])
    with pytest.raises(ValueError):
        ols_fit(y[:5], np.full(5, 2.0))
    with pytest.raises(ValueError):
        residuals(base, y[:10], z[:10])


def test_fixture_population_facts_rederived():
    summary = fixture_population_summary()
    assert summary["mean"] == 0.0
    assert summary["variance"] == 0.073
    med = summary["median"]
    assert med > 0.0

    # Re-derive the mixture facts from component distributions.  Weights:
    # long-tail p = 0.5, center r = 0.3, two offset bumps q = 0.1 each,
    # the lower bump pushed slightly further out than the upper one.
    p, r, q, tau, kappa = 0.5, 0.30, 0.10, 0.85, 0.16
    d_left, d_right = 0.48, 0.40
    lt = sps.lognorm(tau)
    g = lt.mean() - 1.0
    v_logn = lt.var()
    a_coef = p * v_logn + (1.0 - p) * kappa**2 + p * (1.0 - p) * g * g
    delta = q * (d_left - d_right)
    c_coef = q * (d_left**2 + d_right**2) - delta**2
    lin = p * g * delta
    s = (lin + math.sqrt(lin * lin + a_coef * (0.073 - c_coef))) / a_coef
    m = p * s * g + delta

    # Component means: long tail (m + s) - s L has mean m + s - s(1+g) =
    # m - s g; the bumps sit at m + d_right and m - d_left.  Mixture mean 0.
    mix_mean = p * (m - s * g) + r * m + q * (m + d_right) + q * (m - d_left)
    assert mix_mean == pytest.approx(0.0, abs=1e-12)

    # Mixture variance via E[X^2] with scipy moments.
    e2_long = lt.var() * s * s + (m - s * g) ** 2
    e2_center = (kappa * s) ** 2 + m * m
    e2_plus = (kappa * s) ** 2 + (m + d_right) ** 2
    e2_minus = (kappa * s) ** 2 + (m - d_left) ** 2
    mix_var = p * e2_long + r * e2_center + q * e2_plus + q * e2_minus
    assert mix_var == pytest.approx(0.073, rel=1e-12)

    # Median: the long tail and the center both have median m, the upper
    # bump lies wholly above m and the lower bump wholly below (each is 14+
    # bump sds away from m), so the mixture CDF at m is 1/2 to double
    # precision.
    assert med == pytest.approx(m, rel=1e-12)
    cdf_long = 1.0 - lt.cdf(1.0)  # P((m+s) - sL <= m) = P(L >= 1)
    cdf_center = sps.norm.cdf(0.0)
    cdf_side = sps.norm.cdf(d_left / (kappa * s)) + sps.norm.cdf(-d_right / (kappa * s))
    mix_cdf = p * cdf_long + r * cdf_center + q * cdf_side
    assert mix_cdf == pytest.approx(0.5, abs=1e-12)


def test_fixture_sample_matches_population():
    n = 400_000
    x = make_fixture(n, seed=31)
    assert x.shape == (n,)
    summary = fixture_population_summary()
    assert x.mean() == pytest.approx(0.0, abs=4.0 * math.sqrt(0.073 / n))
    se_var = np.std((x - x.mean()) ** 2) / math.sqrt(n)
    assert x.var(ddof=1) == pytest.approx(0.073, abs=5.0 * se_var)
    # Median has positive bias direction fixed by construction.
    assert np.median(x) == pytest.approx(summary["median"], abs=0.002)
    assert np.median(x) > 0.0
    # Left tail is the heavy one: large negative excursions dominate.
    assert abs(x.min()) > 3.0 * x.max()


def test_fixture_determinism_and_guards():
    a = make_fixture(200, seed=7)
    b = make_fixture(200, seed=7)
    assert np.array_equal(a, b)
    c = make_fixture(200, seed=8)
    assert not np.array_equal(a, c)
    assert np.array_equal(make_fixture(np.int32(200), seed=np.int64(7)), a)
    with pytest.raises(ValueError):
        make_fixture(9, seed=0)


def test_residual_median_analysis_fields():
    x = make_fixture(120, seed=2)
    analysis = residual_median_analysis(x, alpha=0.05)
    assert analysis.n == 120
    assert analysis.mean == pytest.approx(float(x.mean()), rel=1e-12)
    assert analysis.variance == pytest.approx(float(x.var(ddof=1)), rel=1e-12)
    assert set(analysis.p_values) == {"W", "To2", "TN2"}
    assert set(analysis.rejects) == {"W", "To2", "TN2"}
    for key, p in analysis.p_values.items():
        assert 0.0 <= p <= 1.0
        assert analysis.rejects[key] == (p < 0.05)
    assert len(analysis.histogram_counts) == 20
    assert sum(analysis.histogram_counts) == 120
    assert len(analysis.histogram_edges) == 21
    assert np.all(np.diff(analysis.histogram_edges) > 0)
    with pytest.raises(ValueError):
        residual_median_analysis(x[:9])


def test_residual_median_analysis_symmetric_sample_accepts():
    # Perfectly antisymmetric sample: mean and median are exactly zero, so
    # every two-sided statistic collapses to zero and nothing rejects.
    half = np.arange(1.0, 11.0) / 10.0
    x = np.concatenate([half, -half])
    analysis = residual_median_analysis(x)
    assert analysis.statistics["To2"] == pytest.approx(0.0, abs=1e-20)
    assert analysis.statistics["TN2"] == pytest.approx(0.0, abs=1e-20)
    assert analysis.p_values["W"] == pytest.approx(1.0, abs=1e-12)
    assert not any(analysis.rejects.values())


def test_fixture_median_tests_beat_mean_tests_in_p_value():
    # On the skewed fixture the decorrelated median statistic should be the
    # more emphatic rejection most of the time.
    wins = 0
    for seed in range(20):
        analysis = residual_median_analysis(make_fixture(100, seed=seed))
        wins += analysis.p_values["TN2"] <= analysis.p_values["To2"]
    assert wins >= 12


def test_resample_power_study_contract():
    x = make_fixture(100, seed=0)
    out = resample_power_study(x, 70, reps=1, seed=3)
    assert set(out) == {"W", "To2", "TN2"}
    for v in out.values():
        assert v in (0.0, 1.0)
    a = resample_power_study(x, 70, reps=500, seed=3)
    b = resample_power_study(x, 70, reps=500, seed=3)
    assert a == b
    assert resample_power_study(x, np.int64(70), reps=500, seed=np.uint8(3)) == a
    c = resample_power_study(x, 70, reps=500, seed=4)
    assert any(a[k] != c[k] for k in a)
    for v in a.values():
        assert 0.0 <= v <= 1.0
    with pytest.raises(ValueError):
        resample_power_study(x, 100, reps=10)  # n_b must be below n
    with pytest.raises(ValueError):
        resample_power_study(x, 9, reps=10)


def _one_block_study(eps, n_b, reps, alpha=0.05, seed=0):
    """The resample study with all reps resamples drawn by one integers
    call and scored by the kernels directly: the reference that the
    study's chunked draws and dispatch must reproduce."""
    arr = np.asarray(eps, dtype=float)
    gen = RandomStream(seed, ("resample", n_b)).generator()
    x = arr[gen.integers(0, arr.size, size=(reps, n_b))]
    crit = ker.normal_upper(alpha / 2.0) ** 2
    pieces = ker.median_pieces(x)
    scored = {"W": ker.signed_rank(x), "To2": ker.median_to(pieces), "TN2": ker.median_tn(pieces)}
    return {
        key: np.count_nonzero((reason == 0) & (stat * stat > crit)) / reps
        for key, (stat, reason, _) in scored.items()
    }


@pytest.mark.parametrize("reps", [100, 4096, 4097, 20000])
@pytest.mark.parametrize("n_b", [20, 70, 90])
@pytest.mark.parametrize("tied", [False, True], ids=["fixture", "ties"])
def test_resample_power_study_does_not_depend_on_chunking(tied, n_b, reps):
    # numpy draws indices below 2**32 from 32-bit halves that the bit
    # generator buffers across calls, so drawing the study in CHUNK-row
    # pieces gives the indices of one draw.  A numpy change that broke
    # this would change every recorded study frequency.
    x = make_fixture(100, seed=1)
    if tied:
        x = np.round(x, 1)
    assert resample_power_study(x, n_b, reps, seed=5) == _one_block_study(x, n_b, reps, seed=5)


def test_resample_power_ordering_on_reference_seed():
    x = make_fixture(100, seed=0)
    freqs = {nb: resample_power_study(x, nb, reps=1500, seed=0) for nb in (70, 90)}
    assert freqs[90]["TN2"] >= freqs[70]["TN2"]
    assert freqs[90]["TN2"] > freqs[90]["W"]


@pytest.mark.parametrize(
    "case, digest",
    [
        ("fixture", "090ab4036b43fa69dffde4de66c16c6192ceec09536cdba330173a53fd099fb2"),
        ("mixed-sign", "a390ddbd8c7244009a068640ab9842223922c9152b39eb7ad4c592bc24f5f04d"),
    ],
)
def test_resample_power_study_snapshot(case, digest):
    # sha256 of the study's frequencies at n_b = 70, 80, 90, recorded while
    # signed_rank still took mid-ranks in a separate pass.  Every resampled
    # row is tied; the mixed-sign input holds each of its values as a and -a,
    # so its resampled rows also have runs of equal |x| with both signs.
    f = make_fixture(100, 1)
    x = f if case == "fixture" else np.concatenate([f[:50], -f[:50]])
    text = repr([resample_power_study(x, n_b, 20000, seed=1) for n_b in (70, 80, 90)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
