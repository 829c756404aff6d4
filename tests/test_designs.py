"""Sampling designs: registry contracts, parameter oracles, sampler fidelity.

Population parameters stored in the registry are checked against scipy's
frozen-distribution moment machinery (an independent derivation route), and
the samplers are checked against those parameters with large-sample Monte
Carlo bands.  All randomness is seeded, so every band below is deterministic.
The in-place samplers equal the plain expressions they replaced bit for bit,
and a snapshot of each design's first draws pins the draw order.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from ancitest import designs as designs_module

from ancitest import (
    DesignId,
    RandomStream,
    UnknownDesignError,
    design_params,
    list_designs,
    make_fixture,
    resample_power_study,
    sample_design,
    sample_design_matrix,
    statistic_sample,
)


def scalar_designs():
    return [d for d, _ in list_designs() if d.table != "toy"]


def toy_designs():
    return [d for d, _ in list_designs() if d.table == "toy"]


# Each scalar design is an affine map X = a*B + b of a scipy base variable B.
# a may be negative; the median is equivariant under any nonzero affine map
# because the 0.5 quantile maps to the 0.5 quantile for continuous B.
def _affine_oracle(design):
    t, h, m = design.table, design.hypothesis, design.index
    if t == "1":
        shift = (0.2 if m == 4 else 0.1) * h
        if m == 1:
            return stats.norm(), 1.0, shift
        if m == 2:
            return stats.expon(), -1.0, 1.0 + shift
        if m == 3:
            return stats.expon(), 1.0, shift - 1.0
        # (Weibull(shape 1, scale 2) - 2) / 2 + shift
        return stats.weibull_min(1.0, scale=2.0), 0.5, shift - 1.0
    if t == "2":
        if (h, m) == (0, 1):
            return stats.laplace(), 1.0, 0.0
        if (h, m) == (1, 1):
            return stats.expon(), -1.0, 1.0
        if (h, m) == (0, 2):
            return stats.norm(scale=2.0), 1.0, 0.0
        return stats.lognorm(1.0), -1.0, float(np.exp(0.5))
    shift = 0.1 * h
    if m == 1:
        return stats.norm(), 1.0, shift
    if m == 2:
        return stats.laplace(), 1.0, shift
    if m == 3:
        return stats.uniform(loc=-1.0, scale=2.0), 1.0, shift
    return stats.arcsine(), 1.0, shift - 0.5


def _oracle_params(design):
    dist, a, b = _affine_oracle(design)
    mean_b, var_b, skew_b, kurt_b = (float(v) for v in dist.stats("mvsk"))
    sd_b = np.sqrt(var_b)
    med_b = float(dist.median())
    lo, hi = dist.support()
    if not np.isfinite(lo):
        lo = float(dist.ppf(1e-14))
    if not np.isfinite(hi):
        hi = float(dist.ppf(1.0 - 1e-14))
    left, err_l = integrate.quad(lambda v: (med_b - v) * dist.pdf(v), lo, med_b)
    right, err_r = integrate.quad(lambda v: (v - med_b) * dist.pdf(v), med_b, hi)
    mad_b = left + right
    assert err_l + err_r < 1e-8
    return {
        "mean": a * mean_b + b,
        "sigma": abs(a) * sd_b,
        "mu3": a**3 * skew_b * sd_b**3,
        "mu4": a**4 * (kurt_b + 3.0) * var_b**2,
        "median": a * med_b + b,
        "density_at_median": dist.pdf(med_b) / abs(a),
        "mean_abs_dev_about_median": abs(a) * mad_b,
    }


def test_registry_shape_and_stable_order():
    pairs = list_designs()
    assert len(pairs) == 24
    assert pairs == list_designs()
    ids = [d for d, _ in pairs]
    assert len(set(ids)) == 24
    counts = {}
    for d in ids:
        counts[d.table] = counts.get(d.table, 0) + 1
    assert counts == {"1": 8, "2": 4, "3": 8, "toy": 4}
    for d, text in pairs:
        assert d.label == f"D_{d.hypothesis}{d.index}"
        assert text.strip()


@pytest.mark.parametrize("design", scalar_designs(), ids=lambda d: f"{d.table}-{d.label}")
def test_registry_params_match_scipy_oracle(design):
    got = design_params(design)
    want = _oracle_params(design)
    for field, value in want.items():
        tol = 2e-8 if field == "mean_abs_dev_about_median" else 1e-8
        assert getattr(got, field) == pytest.approx(value, abs=tol), field


@pytest.mark.parametrize(
    "field, value",
    [("sigma", math.inf), ("sigma", 0.0), ("density_at_median", math.nan),
     ("mean_abs_dev_about_median", -1.0)],
)
def test_design_params_scales_have_one_check(field, value):
    # The scales go through _kernels.check_positive_finite, which names them.
    with pytest.raises(ValueError, match=rf"^{field} must be positive and finite, got {value}$"):
        replace(design_params(DesignId("1", 0, 1)), **{field: value})


def test_pinned_shift_sizes():
    # Location alternatives: 0.1 for every family except the rescaled
    # Weibull in the first table, which uses 0.2.
    for m in (1, 2, 3):
        d0 = design_params(DesignId("1", 0, m))
        d1 = design_params(DesignId("1", 1, m))
        assert d1.mean - d0.mean == pytest.approx(0.1, abs=1e-12)
    assert design_params(DesignId("1", 1, 4)).mean == pytest.approx(0.2, abs=1e-12)
    for m in (1, 2, 3, 4):
        d0 = design_params(DesignId("3", 0, m))
        d1 = design_params(DesignId("3", 1, m))
        assert d1.mean - d0.mean == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("design", scalar_designs(), ids=lambda d: f"{d.table}-{d.label}")
def test_sampler_agrees_with_params(design):
    n = 1_000_000
    p = design_params(design)
    x = sample_design(design, n, RandomStream(2026, ("mc", design.table, design.index, design.hypothesis)))
    assert x.shape == (n,)
    root_n = np.sqrt(n)

    assert abs(x.mean() - p.mean) <= 4.0 * p.sigma / root_n

    var_se = np.sqrt(max(p.mu4 - p.sigma**4, 0.0) / n)
    assert abs(x.var(ddof=1) - p.sigma**2) <= 4.0 * var_se

    d = x - x.mean()
    mu3_hat = np.mean(d**3)
    se3 = np.std((d - 0.0) ** 3) / root_n
    assert abs(mu3_hat - p.mu3) <= 5.0 * se3

    mu4_hat = np.mean(d**4)
    se4 = np.std(d**4) / root_n
    assert abs(mu4_hat - p.mu4) <= 5.0 * se4

    med_se = 1.0 / (2.0 * p.density_at_median * root_n)
    assert abs(np.median(x) - p.median) <= 4.0 * med_se

    dev = np.abs(x - p.median)
    assert abs(dev.mean() - p.mean_abs_dev_about_median) <= 4.0 * dev.std() / root_n


@pytest.mark.parametrize("table", ["1", "3"])
def test_alternative_is_exact_shift_of_null_draw(table):
    # Null and alternative share the base sampler, so the same stream must
    # give bitwise-identical draws up to the location shift.
    for m in (1, 2, 3, 4):
        null = DesignId(table, 0, m)
        alt = DesignId(table, 1, m)
        shift = design_params(alt).mean - design_params(null).mean
        a = sample_design(alt, 64, RandomStream(11, ("shift", table, m)))
        b = sample_design(null, 64, RandomStream(11, ("shift", table, m)))
        assert np.array_equal(a, b + shift)
        # null_shift states the shift itself, which is what the draw adds.
        assert designs_module.null_shift(null) == 0.0
        assert np.array_equal(a, b + designs_module.null_shift(alt))


def test_null_shift_refuses_a_design_that_is_not_a_shift():
    # Table 2's alternatives draw from other base samplers than their nulls.
    with pytest.raises(ValueError, match="table 2 D_11 is not a location shift"):
        designs_module.null_shift(DesignId("2", 1, 1))


def test_stream_determinism_and_child_separation():
    s1 = RandomStream(7, ("a", 2))
    s2 = RandomStream(7, ("a", 2))
    assert np.array_equal(s1.generator().random(16), s2.generator().random(16))

    base = RandomStream(7)
    x = base.child("a", 2).generator().random(16)
    assert np.array_equal(x, s1.generator().random(16))
    y = base.child("a", 3).generator().random(16)
    z = base.child("b", 2).generator().random(16)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # Integer and string path elements must not collide.
    assert not np.array_equal(
        base.child(1).generator().random(8), base.child("1").generator().random(8)
    )


def test_stream_path_validation():
    # Each path element is checked when the stream is made, by position and
    # value; numpy integers are stored as int and name the same stream.
    with pytest.raises(ValueError, match=r"^path\[0\] must be an integer, got True$"):
        RandomStream(0, (True,))
    with pytest.raises(ValueError, match=r"^path\[0\] must be >= 0, got -3$"):
        RandomStream(0, (-3,))
    with pytest.raises(ValueError, match=r"^path\[1\] must be an integer, got 2\.5$"):
        RandomStream(0, ("a", 2.5))
    with pytest.raises(ValueError, match=r"^path\[2\] must be >= 0, got -1$"):
        RandomStream(0, ("a",)).child(1, -1)
    numpy_path = RandomStream(0, (np.int64(3), "a", np.uint32(7)))
    assert numpy_path == RandomStream(0, (3, "a", 7))
    assert [type(v) for v in numpy_path.path] == [int, str, int]
    assert np.array_equal(numpy_path.generator().random(8),
                          RandomStream(0, (3, "a", 7)).generator().random(8))


def test_negative_root_seed_rejected_by_name():
    # Each entry point names its own seed parameter, not RandomStream's.
    with pytest.raises(ValueError, match=r"^root_seed must be >= 0, got -1$"):
        RandomStream(-1, ("a",))
    with pytest.raises(ValueError, match=r"^root_seed must be >= 0, got -1$"):
        statistic_sample("TN", DesignId("3", 0, 1), 50, 100, root_seed=-1)
    eps = make_fixture(100, 1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        resample_power_study(eps, 70, 100, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        make_fixture(100, -1)
    # Seed 0 stays valid and its stream is unchanged.
    seq = np.random.SeedSequence(0, spawn_key=())
    assert np.array_equal(
        RandomStream(0).generator().random(8), np.random.default_rng(seq).random(8)
    )


def test_matrix_sampler_contract():
    design = DesignId("2", 1, 1)
    s = RandomStream(5, ("mat",))
    x = sample_design_matrix(design, 10, 25, s)
    assert x.shape == (10, 25)
    again = sample_design_matrix(design, 10, 25, RandomStream(5, ("mat",)))
    assert np.array_equal(x, again)
    with pytest.raises(ValueError):
        sample_design_matrix(design, 10, 1, s)
    with pytest.raises(ValueError):
        sample_design_matrix(toy_designs()[0], 4, 5, s)


def test_toy_designs_are_vector_valued():
    for d in toy_designs():
        dim = 2 if d.index == 1 else 3
        x = sample_design(d, 50_000, RandomStream(1, ("toy", d.index, d.hypothesis)))
        assert x.shape == (50_000, dim)
        want_mean = 5.0 * d.hypothesis
        sds = (1.0, 4.0) if dim == 2 else (1.0, 4.0, 3.0)
        for j in range(dim):
            assert x[:, j].mean() == pytest.approx(want_mean, abs=4.0 * sds[j] / np.sqrt(50_000))
            assert x[:, j].std(ddof=1) == pytest.approx(sds[j], rel=0.03)
        with pytest.raises(ValueError):
            design_params(d)


def test_unknown_designs_rejected():
    with pytest.raises(UnknownDesignError):
        DesignId("1", 0, 9)
    with pytest.raises(UnknownDesignError):
        DesignId("4", 0, 1)
    with pytest.raises(UnknownDesignError):
        DesignId("1", 2, 1)


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_design_id_stores_numpy_integers_as_int(integer):
    design = DesignId("3", integer(0), integer(1))
    plain = DesignId("3", 0, 1)
    assert design == plain
    assert type(design.hypothesis) is int and type(design.index) is int
    for got, want in zip(statistic_sample("To", design, 20, 10, 1),
                         statistic_sample("To", plain, 20, 10, 1)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("field", ["hypothesis", "index"])
@pytest.mark.parametrize("bad", [True, 1.0, "0"])
def test_design_id_rejects_non_integer_fields_by_name(field, bad):
    # True and 1.0 equal a registered key, so only the type check stops them.
    args = {"table": "1", "hypothesis": 1, "index": 1, field: bad}
    with pytest.raises(ValueError, match=f"DesignId {field} must be an integer"):
        DesignId(**args)


# The sampler expressions before they were written in place: test-only
# oracles, keyed by the name of each design's base sampler.
def _old_exp1(shape, gen):
    return -np.log1p(-gen.random(shape))


_OLD_SAMPLERS = {
    "_std_normal": lambda shape, gen: gen.standard_normal(shape),
    "_normal_sd2": lambda shape, gen: 2.0 * gen.standard_normal(shape),
    "_laplace": lambda shape, gen: _old_exp1(shape, gen) - _old_exp1(shape, gen),
    "_one_minus_exp": lambda shape, gen: 1.0 - _old_exp1(shape, gen),
    "_exp_minus_one": lambda shape, gen: _old_exp1(shape, gen) - 1.0,
    "_exphalf_minus_lognormal": lambda shape, gen: math.exp(0.5) - np.exp(gen.standard_normal(shape)),
    "_uniform_m1_1": lambda shape, gen: 2.0 * gen.random(shape) - 1.0,
    "_arcsine_centered": lambda shape, gen: np.sin(0.5 * np.pi * gen.random(shape)) ** 2 - 0.5,
}
# Table 1's D_04 family draws with _exp_minus_one; it is held to the
# expression it was defined by, the centered weibull(shape 1, scale 2).
_OLD_BY_FAMILY = {
    ("1", 4): lambda shape, gen: (2.0 * _old_exp1(shape, gen) - 2.0) / 2.0,
}


@pytest.mark.parametrize("design", scalar_designs(), ids=lambda d: f"{d.table}-{d.label}")
# (2000, 50) crosses several row blocks of laplace's second exponential.
@pytest.mark.parametrize("rows, n", [(1, 11), (7, 50), (2000, 50)])
def test_in_place_samplers_equal_plain_expressions(design, rows, n):
    entry = designs_module._entry(design)
    stream = RandomStream(3, ("oracle", design.table, design.index))
    got = sample_design_matrix(design, rows, n, stream)
    oracle = _OLD_BY_FAMILY.get((design.table, design.index), _OLD_SAMPLERS[entry.base.__name__])
    want = oracle((rows, n), stream.generator())
    if entry.shift:
        want = want + entry.shift
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# x[0, 0], x[0, 1] and x[1, 2] of sample_design_matrix(design, 2, 3,
# RandomStream(20260815, ("snapshot",))): a change of draw order, or of which
# draws a sampler uses, fails here on any platform.
_SNAPSHOTS = [
    (("1", 0, 1), (-0.33996145739663597, -0.8892698280924218, 1.6969494147441044)),
    (("1", 1, 1), (-0.23996145739663596, -0.7892698280924219, 1.7969494147441045)),
    (("1", 0, 2), (0.6854141122887076, -4.513885006733896, 0.14399802926862482)),
    (("1", 1, 2), (0.7854141122887076, -4.413885006733897, 0.24399802926862482)),
    (("1", 0, 3), (-0.6854141122887076, 4.513885006733896, -0.14399802926862482)),
    (("1", 1, 3), (-0.5854141122887077, 4.613885006733896, -0.04399802926862481)),
    (("1", 0, 4), (-0.6854141122887076, 4.513885006733896, -0.14399802926862482)),
    (("1", 1, 4), (-0.4854141122887076, 4.713885006733896, 0.056001970731375195)),
    (("2", 0, 1), (0.05031970480542225, 5.031875564159517, -0.4313764386345883)),
    (("2", 1, 1), (0.6854141122887076, -4.513885006733896, 0.14399802926862482)),
    (("2", 0, 2), (-0.6799229147932719, -1.7785396561848437, 3.393898829488209)),
    (("2", 1, 2), (0.9369235139275963, 1.2377655591560228, -3.808552822412021)),
    (("3", 0, 1), (-0.33996145739663597, -0.8892698280924218, 1.6969494147441044)),
    (("3", 1, 1), (-0.23996145739663596, -0.7892698280924219, 1.7969494147441045)),
    (("3", 0, 2), (0.05031970480542225, 5.031875564159517, -0.4313764386345883)),
    (("3", 1, 2), (0.15031970480542226, 5.131875564159516, -0.3313764386345883)),
    (("3", 0, 3), (-0.46018230278814, 0.9919391625524023, 0.1502854336369568)),
    (("3", 1, 3), (-0.36018230278814, 1.0919391625524024, 0.25028543363695677)),
    (("3", 0, 4), (-0.3307633202122948, 0.49995991939326845, 0.11694065515768515)),
    (("3", 1, 4), (-0.23076332021229481, 0.5999599193932684, 0.21694065515768515)),
]


@pytest.mark.parametrize("key, values", _SNAPSHOTS, ids=[f"{t}-D_{h}{m}" for (t, h, m), _ in _SNAPSHOTS])
def test_sampler_draw_order_snapshot(key, values):
    x = sample_design_matrix(DesignId(*key), 2, 3, RandomStream(20260815, ("snapshot",)))
    np.testing.assert_allclose([x[0, 0], x[0, 1], x[1, 2]], values, rtol=1e-12, atol=0)
