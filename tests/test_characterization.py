"""Finite discrete models: best level-alpha power, identity checks, and the
most-powerful-test characterizations, all by exhaustive enumeration.

The two-outcome model f0 = (1/2, 1/2), f1 = (1/4, 3/4) is small enough to
solve by hand and anchors most oracles below.
"""

import hashlib
import math

import numpy as np
import pytest

from ancitest import characterization, cli
from ancitest import (
    DiscreteModel,
    FiniteStatistic,
    best_level_power,
    check_prop_1_1,
    check_prop_2_1,
    check_prop_2_2,
    check_prop_2_3,
    check_prop_2_4,
    check_prop_2_5,
    check_prop_3_1,
    level_powers,
    likelihood_ratio,
    verify_propositions,
)
from ancitest.characterization import (
    coarsening_counter_model,
    default_alpha_grid,
    product_model,
    random_model,
    random_statistic,
    singleton_indicators,
)

TWO = DiscreteModel((0.5, 0.5), (0.25, 0.75))
LAM_TWO = FiniteStatistic((0.5, 1.5))


def _loop_levels(model, t):
    """(p0, p1) of each level of t in decreasing t order, each summed by
    f[mask].sum()."""
    f0, f1 = model.arrays()
    values = t.array()
    return [
        (f0[values == u].sum(), f1[values == u].sum()) for u in np.unique(values)[::-1]
    ]


def _loop_power(model, t, alphas):
    """The per-level loop of the randomized threshold test, run once per
    alpha: the oracle level_powers must equal bit for bit."""
    levels = _loop_levels(model, t)
    out = []
    for alpha in alphas:
        power = 0.0
        size = 0.0
        for p0, p1 in levels:
            if size + p0 <= alpha:
                power += p1
                size += p0
            else:
                power += (alpha - size) / p0 * p1
                break
        out.append(float(power))
    return np.array(out)


def _loop_sizes(model, t):
    """Cumulative null size after each level, as the loop accumulates it."""
    sizes, size = [], 0.0
    for p0, _ in _loop_levels(model, t):
        size += p0
        sizes.append(size)
    return np.array(sizes)


def _loop_masks(values):
    """Distinct values ascending with their outcome masks."""
    return [(u, values == u) for u in np.unique(values)]


def _loop_identity(model, v1, v2=None):
    """Largest |f1[cell].sum() - u f0[cell].sum()| over the attained cells of
    the levels of v1 (and v2), u the cell's v1 level."""
    f0, f1 = model.arrays()
    inner = _loop_masks(np.zeros(model.m) if v2 is None else v2)
    worst = 0.0
    for u, mask_u in _loop_masks(v1):
        for _, mask_v in inner:
            mask = mask_u & mask_v
            if mask.any():
                worst = max(worst, abs(f1[mask].sum() - u * f0[mask].sum()))
    return worst


def _loop_prop_1_1(model):
    return {"max_violation": float(_loop_identity(model, likelihood_ratio(model).array()))}


def _loop_prop_2_1(model, a):
    worst = _loop_identity(model, likelihood_ratio(model).array(), a.array())
    return {"max_violation": float(worst)}


def _loop_prop_2_4(model, t1, t2, grid):
    worst = _loop_identity(model, t1.array(), t2.array())
    if worst > 1e-12:
        return {"applicable": False, "hypothesis_violation": float(worst), "dominates": None}
    gap = float(np.min(level_powers(model, t1, grid) - level_powers(model, t2, grid)))
    return {
        "applicable": True,
        "hypothesis_violation": float(worst),
        "dominates": gap >= -1e-12,
        "min_power_gap": gap,
    }


def _loop_prop_2_5(model, t, grid):
    f0, f1 = model.arrays()
    sufficient = True
    calibrated = True
    for u, mask in _loop_masks(t.array()):
        p0 = f0[mask].sum()
        p1 = f1[mask].sum()
        if np.max(np.abs(f0[mask] / p0 - f1[mask] / p1)) > 1e-12:
            sufficient = False
        if abs(p1 / p0 - u) > 1e-12:
            calibrated = False
    lam = likelihood_ratio(model)
    gap = float(np.max(np.abs(level_powers(model, t, grid) - level_powers(model, lam, grid))))
    return {"sufficient": sufficient, "calibrated": calibrated, "is_mp": gap <= 1e-12,
            "max_power_gap": gap}


def _loop_prop_3_1(model, t, a, tn, grid):
    f0, f1 = model.arrays()
    av, tnv, tv = a.array(), tn.array(), t.array()

    def failed(premise):
        return {"premises_ok": False, "failed_premise": premise, "dominates": None}

    for _, mask in _loop_masks(av):
        if abs(f0[mask].sum() - f1[mask].sum()) > 1e-12:
            return failed("ancillarity")
    for f in (f0, f1):
        for _, mask_u in _loop_masks(tnv):
            for _, mask_v in _loop_masks(av):
                joint = f[mask_u & mask_v].sum()
                if abs(joint - f[mask_u].sum() * f[mask_v].sum()) > 1e-12:
                    return failed("independence")
    for _, mask_u in _loop_masks(tnv):
        for _, mask_v in _loop_masks(av):
            mask = mask_u & mask_v
            if mask.any() and np.ptp(tv[mask]) > 1e-12:
                return failed("factorization")
    ratios = [f1[mask].sum() / f0[mask].sum() for _, mask in _loop_masks(tnv)]
    if any(ratios[i + 1] < ratios[i] - 1e-12 for i in range(len(ratios) - 1)):
        return failed("monotone_ratio")
    gap = float(np.min(level_powers(model, tn, grid) - level_powers(model, t, grid)))
    return {"premises_ok": True, "failed_premise": None, "dominates": gap >= -1e-12,
            "min_power_gap": gap}


def test_model_and_statistic_validation():
    with pytest.raises(ValueError):
        DiscreteModel((1.0,), (1.0,))
    with pytest.raises(ValueError):
        DiscreteModel((0.5, 0.4), (0.5, 0.5))
    with pytest.raises(ValueError):
        DiscreteModel((0.5, 0.5, 0.0), (0.2, 0.3, 0.5))
    with pytest.raises(ValueError):
        DiscreteModel(tuple([1.0 / 13] * 13), tuple([1.0 / 13] * 13))
    with pytest.raises(ValueError):
        FiniteStatistic((1.0,))
    with pytest.raises(ValueError):
        FiniteStatistic((1.0, float("nan")))
    with pytest.raises(ValueError, match="strictly positive"):
        DiscreteModel((float("nan"), 0.5), (0.5, 0.5))
    assert TWO.m == 2


def test_np_dominance_pairs_get_the_model_checks(monkeypatch):
    # The pairs are drawn as arrays, not as DiscreteModel objects; a pair
    # whose last probability vector has a zero entry still fails the model
    # check.  np-dominance makes the last _random_pmf calls.
    original = characterization._random_pmf
    calls = []

    def spoiled(gen, m):
        calls.append(m)
        f = original(gen, m)
        if len(calls) == target:
            f[0] = 0.0
        return f

    monkeypatch.setattr(characterization, "_random_pmf", spoiled)
    target = 0
    verify_propositions(n_models=5, n_pairs=40)
    target = len(calls)
    calls.clear()
    with pytest.raises(ValueError, match="probabilities must be strictly positive"):
        verify_propositions(n_models=5, n_pairs=40)


def test_likelihood_ratio_values():
    lam = likelihood_ratio(TWO)
    assert np.allclose(lam.array(), [0.5, 1.5], atol=1e-15)


def test_best_level_power_two_outcome_hand_oracle():
    # Reject on outcome 2 (ratio 1.5): size 1/2, power 3/4.
    assert best_level_power(TWO, LAM_TWO, 0.5) == pytest.approx(0.75, abs=1e-14)
    # alpha below the top level mass: randomize on outcome 2 only.
    assert best_level_power(TWO, LAM_TWO, 0.25) == pytest.approx(
        (0.25 / 0.5) * 0.75, abs=1e-14
    )
    # alpha above: take outcome 2 fully, randomize on outcome 1.
    assert best_level_power(TWO, LAM_TWO, 0.7) == pytest.approx(
        0.75 + (0.2 / 0.5) * 0.25, abs=1e-14
    )
    with pytest.raises(ValueError):
        best_level_power(TWO, LAM_TWO, 0.0)
    with pytest.raises(ValueError):
        best_level_power(TWO, FiniteStatistic((1.0, 2.0, 3.0)), 0.5)


def test_level_powers_bit_equal_to_loop():
    # Continuous statistics, ties from rounding to 1 decimal, and a
    # three-valued statistic whose levels reach 8 or more outcomes (where
    # numpy's sum stops adding in outcome order), each with its likelihood
    # ratio, on the default grid plus alpha at every cumulative level size.
    gen = np.random.default_rng(12)
    grid = default_alpha_grid()
    kinds = ("continuous", "rounded", "three-valued")
    for i in range(1200):
        model = random_model(gen, int(gen.integers(2, 13)))
        vals = random_statistic(gen, model.m).array()
        kind = kinds[i % 3]
        if kind == "rounded":
            vals = np.round(vals, 1)
        elif kind == "three-valued":
            vals = np.floor(3.0 * vals)
        for t in (FiniteStatistic(tuple(vals)), likelihood_ratio(model)):
            knots = _loop_sizes(model, t)
            alphas = np.concatenate((grid, knots[(knots > 0.0) & (knots < 1.0)]))
            assert np.array_equal(level_powers(model, t, alphas), _loop_power(model, t, alphas))
            assert best_level_power(model, t, alphas[-1]) == _loop_power(model, t, alphas[-1:])[0]


def _oracle_statistic(gen, m, kind):
    vals = gen.random(m)
    if kind == "rounded":
        vals = np.round(vals, 1)
    elif kind == "three-valued":
        vals = np.floor(3.0 * vals)
    return FiniteStatistic(tuple(vals))


def _tied_model(gen, m):
    """Uniform f0 and two-valued f1: the likelihood ratio has two levels,
    the larger one of 8 or more outcomes once m >= 11."""
    f1 = np.where(gen.permutation(m) < m // 3, 3.0, 1.0)
    return DiscreteModel(tuple(np.full(m, 1.0 / m)), tuple(f1 / f1.sum()))


def test_level_curves_rows_bit_equal_to_loop():
    # The stacked kernel on blocks of every size m from 2 to 12.  A block
    # mixes continuous, rounded and three-valued statistics (rows with
    # fewer levels than outcomes) with likelihood ratios, some with levels
    # of 8 or more outcomes; each row equals the per-level loop on the
    # default grid plus every row's cumulative level sizes, and _power_gaps
    # is the row-wise difference of two such curves.
    gen = np.random.default_rng(31)
    grid = default_alpha_grid()
    kinds = ("continuous", "rounded", "three-valued")
    for m in range(2, 13):
        models = [random_model(gen, m) if i % 2 else _tied_model(gen, m) for i in range(9)]
        stats = [_oracle_statistic(gen, m, kinds[i % 3]) for i in range(9)]
        lams = [likelihood_ratio(model) for model in models]
        knots = np.concatenate([_loop_sizes(mod, t) for mod in models for t in stats + lams])
        alphas = np.concatenate((grid, knots[(knots > 0.0) & (knots < 1.0)]))
        f = np.array([[model.f0 for model in models], [model.f1 for model in models]])
        t, lam = (np.array([s.values for s in col]) for col in (stats, lams))
        curves = characterization._level_curves(f, t, alphas)
        gaps = characterization._power_gaps(f, t, lam, alphas)
        for i, model in enumerate(models):
            assert np.array_equal(curves[i], _loop_power(model, stats[i], alphas))
            assert np.array_equal(
                gaps[i], _loop_power(model, stats[i], alphas) - _loop_power(model, lams[i], alphas)
            )


def _prop_3_1_cases(gen):
    """(model, t, a, tn) inputs that pass and that fail each premise."""
    model, t, a, tn = product_model(gen, int(gen.integers(2, 5)), int(gen.integers(2, 4)))
    yield model, t, a, tn
    f0, f1 = model.arrays()
    # Swapping f1 between two outcomes of one a level keeps a ancillary but
    # makes tn and a dependent under the alternative.
    same = np.flatnonzero(a.array() == 0.0)
    swapped = f1.copy()
    swapped[same[:2]] = f1[same[1::-1]]
    yield DiscreteModel(model.f0, tuple(swapped)), t, a, tn
    tilted = f1 * np.where(a.array() == 0.0, 1.5, 1.0)
    yield DiscreteModel(model.f0, tuple(tilted / tilted.sum())), t, a, tn
    # A constant a merges the a levels, and t varies within each tn level.
    yield model, t, FiniteStatistic((0.0,) * model.m), tn
    yield model, t, a, FiniteStatistic(tuple(-tn.array()))
    # Factorization fails before the monotone ratio does.
    yield model, t, FiniteStatistic((0.0,) * model.m), FiniteStatistic(tuple(-tn.array()))
    # f0 = f1 makes every statistic ancillary; three-valued tn and a leave
    # (tn, a) pairs that no outcome attains, and a continuous t is rarely a
    # function of the pair.
    m = int(gen.integers(4, 13))
    null = random_model(gen, m)
    a3, tn3 = (_oracle_statistic(gen, m, "three-valued") for _ in range(2))
    yield DiscreteModel(null.f0, null.f0), _oracle_statistic(gen, m, "continuous"), a3, tn3
    # Premises hold with tn levels of 8 or more outcomes.
    tied = _tied_model(gen, 12)
    lam = likelihood_ratio(tied)
    yield tied, lam, FiniteStatistic((1.0,) * 12), lam


def _unattained_pair_case():
    """f0 = f1 on a 3 x 3 (tn, a) grid without its (3, 3) pair.  That pair's
    product of marginals, 1.5e-12, exceeds the tolerance, while each attained
    pair's mass is off the product of its marginals by at most half of it:
    only the unattained pair shows that tn and a are dependent."""
    x = 1.5e-12
    e = math.sqrt(x)
    dev = np.array([[-x / 4, -x / 4, x / 2], [-x / 4, -x / 4, x / 2], [x / 2, x / 2, -x]])
    joint = (np.outer([0.5, 0.5 - e, e], [0.4, 0.6 - e, e]) + dev).ravel()[:8]
    tn = FiniteStatistic(tuple(np.repeat([0.0, 1.0, 2.0], 3)[:8]))
    a = FiniteStatistic(tuple(np.tile([0.0, 1.0, 2.0], 3)[:8]))
    return DiscreteModel(tuple(joint), tuple(joint)), tn, a, tn


def test_level_table_checks_equal_loop_oracles():
    # Every check reads one level table; its reports must equal, repr for
    # repr, the per-level mask loops they replaced, on continuous, rounded
    # and three-valued statistics, on likelihood ratios with levels of 8 or
    # more outcomes, on joint level pairs no outcome attains, and on each
    # premise of Proposition 3.1.
    gen = np.random.default_rng(21)
    grid = default_alpha_grid()
    kinds = ("continuous", "rounded", "three-valued")
    premises = set()
    for i in range(120):
        m = int(gen.integers(2, 13))
        model = random_model(gen, m) if i % 2 else _tied_model(gen, m)
        lam = likelihood_ratio(model)
        s1 = _oracle_statistic(gen, m, kinds[i % 3])
        s2 = _oracle_statistic(gen, m, kinds[(i // 3) % 3])
        doubled = FiniteStatistic(tuple(2.0 * lam.array()))
        one = FiniteStatistic((1.0,) * m)
        assert repr(check_prop_1_1(model)) == repr(_loop_prop_1_1(model))
        for s in (s1, s2, lam, one):
            assert repr(check_prop_2_1(model, s)) == repr(_loop_prop_2_1(model, s))
            assert repr(check_prop_2_5(model, s, grid)) == repr(_loop_prop_2_5(model, s, grid))
        for t1, t2 in ((lam, s1), (lam, one), (doubled, s1), (s1, s2)):
            assert repr(check_prop_2_4(model, t1, t2, grid)) == repr(
                _loop_prop_2_4(model, t1, t2, grid)
            )
        for case in ((model, s1, s2, lam), *_prop_3_1_cases(gen)):
            rep = check_prop_3_1(*case, grid)
            assert repr(rep) == repr(_loop_prop_3_1(*case, grid))
            premises.add(rep["failed_premise"])
    case = _unattained_pair_case()
    rep = check_prop_3_1(*case, grid)
    assert rep["failed_premise"] == "independence"
    assert repr(rep) == repr(_loop_prop_3_1(*case, grid))
    assert premises == {None, "ancillarity", "independence", "factorization", "monotone_ratio"}


_SHORT = FiniteStatistic((1.0, 2.0, 3.0))
_ONE_TWO = FiniteStatistic((1.0, 1.0))


# check_prop_1_1 takes no statistic: its likelihood ratio always fits.
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s: level_powers(TWO, s, [0.5]), "t"),
        (lambda s: best_level_power(TWO, s, 0.5), "t"),
        (lambda s: check_prop_2_1(TWO, s), "a"),
        (lambda s: check_prop_2_2(TWO, s), "t"),
        (lambda s: check_prop_2_3(TWO, s, singleton_indicators(2)), "t"),
        (lambda s: check_prop_2_3(TWO, LAM_TWO, singleton_indicators(2) + [s]),
         r"g_family\[2\]"),
        (lambda s: check_prop_2_4(TWO, s, LAM_TWO), "t1"),
        (lambda s: check_prop_2_4(TWO, LAM_TWO, s), "t2"),
        (lambda s: check_prop_2_5(TWO, s), "t"),
        (lambda s: check_prop_3_1(TWO, s, _ONE_TWO, LAM_TWO), "t"),
        (lambda s: check_prop_3_1(TWO, LAM_TWO, s, LAM_TWO), "a"),
        (lambda s: check_prop_3_1(TWO, LAM_TWO, _ONE_TWO, s), "tn"),
    ],
    ids=["level_powers", "best_level_power", "2_1", "2_2", "2_3-t", "2_3-family",
         "2_4-t1", "2_4-t2", "2_5", "3_1-t", "3_1-a", "3_1-tn"],
)
def test_statistic_length_mismatch_is_named(call, name):
    with pytest.raises(ValueError, match=rf"^{name} has 3 values but the model has 2 outcomes$"):
        call(_SHORT)


def test_level_powers_reject_any_alpha_outside_unit_interval():
    msg = "alpha must lie strictly between 0 and 1"
    model, t, a, tn = product_model(np.random.default_rng(13), 2, 2)
    # A grid's error names its first bad entry, as the scalar check does.
    for bad, first in (([0.5, 1.0, 2.0], r"1\.0"), ([0.0, 0.5], r"0\.0"),
                       ([0.2, -0.1, 0.3], r"-0\.1"), ([0.5, float("nan")], "nan")):
        with pytest.raises(ValueError, match=rf"^{msg}, got {first}$"):
            level_powers(TWO, LAM_TWO, bad)
        with pytest.raises(ValueError, match=msg):
            check_prop_2_2(TWO, LAM_TWO, bad)
        with pytest.raises(ValueError, match=msg):
            check_prop_2_5(TWO, LAM_TWO, bad)
        with pytest.raises(ValueError, match=msg):
            check_prop_2_4(TWO, LAM_TWO, LAM_TWO, bad)
        with pytest.raises(ValueError, match=msg):
            check_prop_3_1(model, t, a, tn, bad)
    with pytest.raises(ValueError, match=msg):
        best_level_power(TWO, LAM_TWO, 1.0)
    with pytest.raises(ValueError, match="non-empty"):
        level_powers(TWO, LAM_TWO, [])
    # The grid is checked before the hypothesis and the premises, which
    # both fail here: a bad grid never yields a report.
    counter, merged = coarsening_counter_model()
    lam = likelihood_ratio(counter)
    doubled = FiniteStatistic(tuple(2.0 * lam.array()))
    assert not check_prop_2_4(counter, doubled, merged)["applicable"]
    assert check_prop_3_1(counter, merged, lam, lam)["failed_premise"] == "ancillarity"
    with pytest.raises(ValueError, match=msg):
        check_prop_2_4(counter, doubled, merged, [2.0])
    with pytest.raises(ValueError, match=msg):
        check_prop_3_1(counter, merged, lam, lam, [2.0])


def test_constant_statistic_power_equals_alpha():
    t = FiniteStatistic((2.0, 2.0))
    for alpha in (0.05, 0.3, 0.9):
        assert best_level_power(TWO, t, alpha) == pytest.approx(alpha, abs=1e-14)


def test_best_level_power_invariant_under_monotone_relabeling():
    gen = np.random.default_rng(3)
    for _ in range(20):
        model = random_model(gen, int(gen.integers(2, 9)))
        t = random_statistic(gen, model.m)
        vals = t.array()
        relabeled = FiniteStatistic(tuple(np.exp(vals) + 3.0 * vals))
        for alpha in (0.05, 0.33, 0.8):
            assert best_level_power(model, t, alpha) == pytest.approx(
                best_level_power(model, relabeled, alpha), abs=1e-12
            )


def test_best_level_power_concave_in_alpha():
    gen = np.random.default_rng(4)
    grid = default_alpha_grid()
    for _ in range(10):
        model = random_model(gen, 6)
        lam = likelihood_ratio(model)
        powers = np.array([best_level_power(model, lam, a) for a in grid])
        second_diff = np.diff(powers, 2)
        assert np.all(second_diff <= 1e-10)
        assert np.all(np.diff(powers) >= -1e-12)


def test_identity_checks_on_random_models():
    gen = np.random.default_rng(5)
    for _ in range(50):
        model = random_model(gen, int(gen.integers(2, 9)))
        assert check_prop_1_1(model)["max_violation"] <= 1e-12
        a = random_statistic(gen, model.m)
        assert check_prop_2_1(model, a)["max_violation"] <= 1e-12


def test_mp_condition_hand_cases():
    lam = likelihood_ratio(TWO)
    res = check_prop_2_2(TWO, lam, default_alpha_grid())
    assert res["condition_holds"] and res["is_mp"]
    assert res["max_power_gap"] <= 1e-12

    # Doubling the ratio breaks the defining identity but not optimality.
    doubled = FiniteStatistic(tuple(2.0 * lam.array()))
    res2 = check_prop_2_2(TWO, doubled, default_alpha_grid())
    assert not res2["condition_holds"]
    assert res2["is_mp"]

    model, t = coarsening_counter_model()
    res3 = check_prop_2_2(model, t, default_alpha_grid())
    assert not res3["condition_holds"]
    assert not res3["is_mp"]
    assert res3["max_power_gap"] > 1e-3

    with pytest.raises(ValueError):
        check_prop_2_2(TWO, FiniteStatistic((-1.0, 1.0)), default_alpha_grid())


def test_coarsening_counter_model_hand_value():
    # f0 uniform on three outcomes, f1 = (1/6, 1/3, 1/2); T merges the
    # ratio-1/2 and ratio-3/2 outcomes.  At alpha = 1/3 the NP test takes
    # outcome 3 (power 1/2) while the merged statistic randomizes over
    # {1, 3} at theta = 1/2 for power (1/6 + 1/2)/2 = 1/3.
    model, t = coarsening_counter_model()
    lam = likelihood_ratio(model)
    assert best_level_power(model, lam, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-14)
    assert best_level_power(model, t, 1.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_indicator_family_check():
    lam = likelihood_ratio(TWO)
    fam = singleton_indicators(2)
    assert check_prop_2_3(TWO, lam, fam) is True
    with pytest.raises(ValueError):
        check_prop_2_3(TWO, lam, fam[:1])
    bad = [FiniteStatistic((2.0, 0.0)), fam[1]]
    with pytest.raises(ValueError):
        check_prop_2_3(TWO, lam, bad)
    # A one-pass family is read once: the identity is checked on every member.
    doubled = FiniteStatistic(tuple(2.0 * lam.array()))
    assert check_prop_2_3(TWO, doubled, iter(fam)) is False


def test_conditional_dominance_check():
    gen = np.random.default_rng(6)
    lam = likelihood_ratio(TWO)
    res = check_prop_2_4(TWO, lam, lam, default_alpha_grid())
    assert res["applicable"] and res["dominates"]

    # A non-multiplicative partner makes the hypothesis fail.
    model, t = coarsening_counter_model()
    res2 = check_prop_2_4(model, FiniteStatistic(tuple(2.0 * likelihood_ratio(model).array())), t, default_alpha_grid())
    assert not res2["applicable"]
    assert res2["dominates"] is None
    with pytest.raises(ValueError):
        check_prop_2_4(TWO, FiniteStatistic((-0.2, 1.0)), lam, default_alpha_grid())


def test_sufficiency_calibration_check():
    lam = likelihood_ratio(TWO)
    res = check_prop_2_5(TWO, lam, default_alpha_grid())
    assert res["sufficient"] and res["calibrated"] and res["is_mp"]

    # Order-preserving relabeling keeps sufficiency and optimality but the
    # values no longer equal the density ratio.
    relabeled = FiniteStatistic((10.0, 20.0))
    res2 = check_prop_2_5(TWO, relabeled, default_alpha_grid())
    assert res2["sufficient"] and not res2["calibrated"] and res2["is_mp"]

    model, t = coarsening_counter_model()
    res3 = check_prop_2_5(model, t, default_alpha_grid())
    assert not res3["sufficient"] and not res3["is_mp"]


def test_ancillary_refinement_check_on_product_models():
    gen = np.random.default_rng(7)
    for _ in range(10):
        model, t, a, tn = product_model(gen, int(gen.integers(2, 4)), int(gen.integers(2, 4)))
        res = check_prop_3_1(model, t, a, tn, default_alpha_grid())
        assert res["premises_ok"], res["failed_premise"]
        assert res["dominates"]
        assert res["min_power_gap"] >= -1e-12


def test_ancillary_refinement_premise_failures():
    grid = default_alpha_grid()

    # Not ancillary: the index carries signal.
    model = DiscreteModel((0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4))
    a = FiniteStatistic((0.0, 0.0, 1.0, 1.0))
    tn = FiniteStatistic((1.0, 2.0, 1.0, 2.0))
    t = FiniteStatistic((1.0, 2.0, 1.0, 2.0))
    res = check_prop_3_1(model, t, a, tn, grid)
    assert not res["premises_ok"] and res["failed_premise"] == "ancillarity"

    # Ancillary but dependent under the alternative.
    model2 = DiscreteModel((0.25, 0.25, 0.25, 0.25), (0.4, 0.2, 0.1, 0.3))
    a2 = FiniteStatistic((0.0, 1.0, 0.0, 1.0))  # P(A=0) = 1/2 under both
    tn2 = FiniteStatistic((2.0, 1.0, 1.0, 2.0))
    t2 = FiniteStatistic((2.0, 1.0, 1.0, 2.0))
    res2 = check_prop_3_1(model2, t2, a2, tn2, grid)
    assert not res2["premises_ok"] and res2["failed_premise"] == "independence"

    # T not a function of (TN, A).
    model3 = DiscreteModel((0.25, 0.25, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25))
    a3 = FiniteStatistic((0.0, 1.0, 0.0, 1.0))
    tn3 = FiniteStatistic((1.0, 1.0, 1.0, 1.0))
    t3 = FiniteStatistic((1.0, 2.0, 3.0, 4.0))
    res3 = check_prop_3_1(model3, t3, a3, tn3, grid)
    assert not res3["premises_ok"] and res3["failed_premise"] == "factorization"

    # Ratio decreasing in the refined statistic.
    model4 = TWO
    a4 = FiniteStatistic((1.0, 1.0))
    tn4 = FiniteStatistic((2.0, 1.0))
    t4 = FiniteStatistic((2.0, 1.0))
    res4 = check_prop_3_1(model4, t4, a4, tn4, grid)
    assert not res4["premises_ok"] and res4["failed_premise"] == "monotone_ratio"


def test_np_dominance_on_random_pairs():
    gen = np.random.default_rng(8)
    grid = default_alpha_grid()
    worst = -1.0
    for _ in range(200):
        model = random_model(gen, int(gen.integers(2, 9)))
        lam = likelihood_ratio(model)
        t = random_statistic(gen, model.m)
        for alpha in grid[::7]:
            gap = best_level_power(model, lam, alpha) - best_level_power(model, t, alpha)
            worst = max(worst, -gap)
    assert worst <= 1e-12


def test_verify_propositions_counts_checks_run():
    rows = verify_propositions(seed=99, n_models=5, n_pairs=7)
    cases = {r["name"]: r["cases"] for r in rows}
    assert cases == {
        "ratio-level-identity": 5,
        "joint-level-identity": 5,
        "moment-identity": 10,  # the ratio and its perturbation, per model
        "mp-condition": 7,  # 5 models, the counter-model, the doubled statistic
        "sufficiency-calibration": 7,  # 5 models, the merged and relabeled statistics
        "conditional-dominance": 11,  # 2 per model, the inapplicable pair
        "ancillary-refinement": 21,  # 20 product models, the counter-model
        "np-dominance": 7,
    }
    assert all(r["passed"] for r in rows)


def test_verify_propositions_small_run():
    rows = verify_propositions(seed=99, n_models=10, n_pairs=25)
    names = [r["name"] for r in rows]
    assert names == [
        "ratio-level-identity",
        "joint-level-identity",
        "moment-identity",
        "mp-condition",
        "sufficiency-calibration",
        "conditional-dominance",
        "ancillary-refinement",
        "np-dominance",
    ]
    assert all(r["passed"] for r in rows)
    for r in rows:
        assert r["max_violation"] <= 1e-12


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": -1}, r"seed must be >= 0, got -1"),
        ({"n_models": 0}, r"n_models must be >= 1, got 0"),
        ({"n_pairs": -3}, r"n_pairs must be >= 1, got -3"),
        ({"seed": 1.5}, r"seed must be an integer, got 1\.5"),
        ({"n_models": 2.5}, r"n_models must be an integer, got 2\.5"),
        ({"n_pairs": True}, r"n_pairs must be an integer, got True"),
    ],
)
def test_verify_propositions_rejects_bad_input_by_name(kwargs, message):
    # Anchored, so that a message naming another parameter (root_seed) fails.
    with pytest.raises(ValueError, match=rf"^{message}$"):
        verify_propositions(**{"n_models": 5, "n_pairs": 5, **kwargs})


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        ({}, "205cee17bdf118a256c58c06747c417f036b4e38b16c30d25b69708a42175053"),
        (
            {"seed": 99, "n_models": 10, "n_pairs": 25},
            "b0cc5eef4c5c52e4fd7799c22172218d8cf08ad470466a8b41463ceb32000cdd",
        ),
    ],
)
def test_verify_propositions_snapshot(kwargs, digest):
    # Recorded before the claims were built from check lists; the draws and
    # every row field must not move.
    rows = verify_propositions(**kwargs)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# claim -> (the function it calls per case, how one result is spoiled, the
# claim's max_violation once that case fails).
_SPOILERS = {
    "ratio-level-identity": ("check_prop_1_1", lambda rep: {"max_violation": 0.25}, 0.25),
    "joint-level-identity": ("check_prop_2_1", lambda rep: {"max_violation": 0.25}, 0.25),
    "moment-identity": ("check_prop_2_3", lambda holds: not holds, 1.0),
    "mp-condition": ("check_prop_2_2", lambda rep: {**rep, "is_mp": False}, 1.0),
    "sufficiency-calibration": ("check_prop_2_5", lambda rep: {**rep, "calibrated": False}, 1.0),
    "conditional-dominance": ("check_prop_2_4", lambda rep: {**rep, "dominates": False}, 1.0),
    "ancillary-refinement": ("check_prop_3_1", lambda rep: {**rep, "dominates": False}, 1.0),
    # np-dominance calls no check_prop_*; one pair's row of its last batched
    # gaps is spoiled.
    "np-dominance": ("_power_gaps", lambda gaps: np.vstack((gaps[:-1], np.full_like(gaps[-1:], 0.25))),
                     0.25),
}


@pytest.mark.parametrize("claim", list(_SPOILERS))
def test_one_failed_case_fails_only_its_claim(monkeypatch, capsys, claim):
    kwargs = {"n_models": 5, "n_pairs": 5}
    baseline = verify_propositions(**kwargs)
    name, spoil, size = _SPOILERS[claim]
    original = getattr(characterization, name)
    calls = []

    def spoiled(*args):
        calls.append(args)
        out = original(*args)
        return spoil(out) if len(calls) == target else out

    monkeypatch.setattr(characterization, name, spoiled)
    target = 1
    if name == "_power_gaps":
        target = 0  # count the calls first: np-dominance makes the last ones
        verify_propositions(**kwargs)
        target = len(calls)

    calls.clear()
    rows = verify_propositions(**kwargs)
    assert [r["name"] for r in rows if not r["passed"]] == [claim]
    assert [r["cases"] for r in rows] == [r["cases"] for r in baseline]
    assert [r for r in rows if r["name"] != claim] == [r for r in baseline if r["name"] != claim]
    assert next(r for r in rows if r["name"] == claim)["max_violation"] == size

    calls.clear()
    assert cli.main(["verify", "--models", "5", "--pairs", "5"]) == 1
    assert f"{claim},FAIL," in capsys.readouterr().out
