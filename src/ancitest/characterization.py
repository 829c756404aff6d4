"""Exhaustive verification of the most-powerful-test characterization on
finite discrete models.

Continuous density identities reduce to exact point-mass identities on a
finite outcome space, so every claim here is checked by enumeration, with a
1e-12 tolerance absorbing floating-point error only.  Every level mass is
summed in one place, _level_masses, and the checks read them as one level
table, _level_table: the masses P_i(T = u), or P_i(T = u, A = v) on every
level pair of two statistics, attained or not.  Exact size alpha on a
discrete space requires randomizing at the boundary level of the statistic;
level_powers implements that randomized threshold test.  Its power is
piecewise linear in alpha with one knot per level, so the whole alpha grid
is read from one set of level masses; best_level_power is the one-alpha
case.  The curves come from one kernel, _level_curves, over a stack of
equal-size (model, statistic) rows, each row equal bit for bit to its
one-row result; level_powers is the one-row case.  The np-dominance claim
of verify_propositions draws its pairs in 32-pair blocks and scores the
pairs of each block that share an outcome count in one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import check_alpha, check_integers
from .designs import RandomStream

__all__ = [
    "DiscreteModel",
    "FiniteStatistic",
    "best_level_power",
    "check_prop_1_1",
    "check_prop_2_1",
    "check_prop_2_2",
    "check_prop_2_3",
    "check_prop_2_4",
    "check_prop_2_5",
    "check_prop_3_1",
    "coarsening_counter_model",
    "default_alpha_grid",
    "level_powers",
    "likelihood_ratio",
    "product_model",
    "random_model",
    "random_statistic",
    "singleton_indicators",
    "verify_propositions",
]

TOL = 1e-12
# np-dominance pairs drawn and scored per block: a bounded stack, whose
# (pairs, levels, alphas) comparison stays small.
_PAIR_BLOCK = 32


@dataclass(frozen=True)
class DiscreteModel:
    """Finite outcome space with strictly positive null and alternative
    probability vectors."""

    f0: tuple
    f1: tuple

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        if f0.shape != f1.shape or f0.ndim != 1:
            raise ValueError("f0 and f1 must be vectors of equal length")
        _check_models(np.array((f0, f1))[:, None], ("f0", "f1"))
        object.__setattr__(self, "f0", tuple(float(v) for v in f0))
        object.__setattr__(self, "f1", tuple(float(v) for v in f1))

    @property
    def m(self) -> int:
        return len(self.f0)

    def arrays(self):
        return np.array(self.f0), np.array(self.f1)


@dataclass(frozen=True)
class FiniteStatistic:
    """Real-valued statistic on the outcome space, one value per outcome."""

    values: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        _check_statistics(vals[None], "values")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def array(self):
        return np.array(self.values)


def _check_entries(ok, values, names, rule):
    """Raise ValueError unless ok holds at every entry of values, one (K, m)
    stack per name: the error names the stack (and row, when K > 1), the
    rule, and the first failing entry's index and value."""
    if ok.all():
        return
    s, k, j = np.unravel_index(np.argmin(ok), ok.shape)
    name = names[s] if ok.shape[1] == 1 else f"{names[s]} row {k}"
    raise ValueError(f"{name}: {rule}, first at index {j} ({values[s, k, j]})")


def _check_models(f, names):
    """DiscreteModel's checks on a (2, K, m) stack of models, f0 over f1,
    named names; a NaN probability fails them."""
    if not 2 <= f.shape[2] <= 12:
        raise ValueError(f"outcome count must lie in [2, 12], got {f.shape[2]}")
    _check_entries(f > 0, f, names, "probabilities must be strictly positive")
    sums = f.sum(axis=2)
    if not np.all(np.abs(sums - 1.0) <= TOL):
        s, k = np.unravel_index(np.argmax(~(np.abs(sums - 1.0) <= TOL)), sums.shape)
        raise ValueError(f"{names[s]}: probability vectors must sum to 1, got {sums[s, k]}")


def _check_statistics(values, name):
    """FiniteStatistic's checks on a (K, m) stack of statistics named name."""
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError(f"{name}: statistic needs one value per outcome")
    _check_entries(np.isfinite(values)[None], values[None], (name,),
                   "statistic values must be finite")


def likelihood_ratio(model: DiscreteModel) -> FiniteStatistic:
    f0, f1 = model.arrays()
    return FiniteStatistic(tuple(f1 / f0))


def default_alpha_grid():
    return np.linspace(0.01, 0.99, 99)


def _alpha_vector(alphas) -> np.ndarray:
    """alphas as a non-empty float vector with every entry in (0, 1); the
    first bad entry is named by check_alpha."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a non-empty vector")
    inside = (alphas > 0.0) & (alphas < 1.0)
    if not inside.all():
        check_alpha(float(alphas[np.argmin(inside)]))
    return alphas


def _alpha_grid(alpha_grid) -> np.ndarray:
    """The proposition checks' grid: the default one, or a checked vector."""
    return default_alpha_grid() if alpha_grid is None else _alpha_vector(alpha_grid)


def _values(model: DiscreteModel, name: str, stat: FiniteStatistic) -> np.ndarray:
    """The values of stat, the argument called name, one per model outcome."""
    values = stat.array()
    if values.size != model.m:
        raise ValueError(f"{name} has {values.size} values but the model has {model.m} outcomes")
    return values


def _level_masses(codes, size, f):
    """Null and alternative mass of each of size levels in every row.

    f is a (2, K, m) stack, the null rows over the alternative rows, and
    codes (K, m) holds the level of each outcome of its row.  Returns a
    (2, K, size) array, 0 on the levels no outcome attains.  Each mass is
    summed as f[codes == k].sum() sums it: bincount adds in outcome order,
    which is numpy's own order below 8 terms; a level of 8 or more outcomes
    is re-summed by numpy, whose pairwise sum groups those terms.
    """
    k, m = codes.shape
    inv = (codes + np.arange(0, 2 * k * size, size).reshape(2, k, 1)).ravel()
    f = f.ravel()
    p = np.bincount(inv, weights=f, minlength=2 * k * size)
    if m >= 8:
        for i in np.flatnonzero(np.bincount(inv, minlength=2 * k * size) >= 8):
            p[i] = f[inv == i].sum()
    return p.reshape(2, k, size)


def _level_table(model: DiscreteModel, **stats: FiniteStatistic):
    """Null and alternative mass of every level tuple of the named statistics.

    Returns (levels, inv, p0, p1): levels holds each statistic's distinct
    values ascending, inv the flat index of each outcome's level tuple, and
    p0, p1 the masses (_level_masses) as arrays of shape
    (len(levels[0]), ...), 0 on the tuples no outcome attains.
    """
    levels, inv = [], 0
    for name, stat in stats.items():
        uniq, k = np.unique(_values(model, name, stat), return_inverse=True)
        levels.append(uniq)
        inv = inv * uniq.size + k
    shape = tuple(u.size for u in levels)
    p = _level_masses(inv[None], math.prod(shape), *_rows(model))
    return levels, inv, p[0, 0].reshape(shape), p[1, 0].reshape(shape)


def _rows(model: DiscreteModel, **stats: FiniteStatistic):
    """One-row stacks: the model's f0 over its f1, of shape (2, 1, m), then
    each named statistic's values, of shape (1, m), checked by name against
    the model's size."""
    f = np.array((model.f0, model.f1))[:, None]
    return (f, *(_values(model, name, s)[None] for name, s in stats.items()))


def _level_curves(f, values, alphas) -> np.ndarray:
    """level_powers of every row of a stack of models, f of shape (2, K, m),
    and a (K, m) stack of statistics: a (K, len(alphas)) array.

    Each row's outcomes get level codes in decreasing value order, its
    masses come from _level_masses (0 past the row's level count), and its
    cumulative sizes c0 and powers c1 are cumulative sums along the row, so
    each row repeats the one-row float operations in the one-row order.  j
    counts the cumulative sizes <= alpha, as a binary search on the row's
    increasing c0 would; the padded levels repeat the row's total, so a j at
    or past the level count reads the total power.  The ufunc methods
    (add.accumulate, add.reduce) skip the cumsum and sum wrappers, since
    every level_powers call is a one-row case.
    """
    k, m = values.shape
    row = np.arange(k)[:, None]
    order = (-values).argsort(axis=1)
    ordered = values[row, order]
    ranked = np.zeros((k, m), dtype=np.intp)
    np.add.accumulate(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranked[:, 1:])
    codes = np.empty_like(ranked)
    codes[row, order] = ranked
    levels = ranked[:, -1:] + 1
    p = _level_masses(codes, m, f)
    c = np.zeros((2, k, m + 1))
    np.add.accumulate(p, axis=2, out=c[:, :, 1:])
    j = np.add.reduce(c[0, :, 1:, None] <= alphas, axis=1)
    b = np.minimum(j, levels - 1)
    c0, c1 = c[:, row, j]
    p0, p1 = p[:, row, b]
    partial = c1 + (alphas - c0) / p0 * p1
    return np.where(j < levels, partial, c[1, row, levels])


def level_powers(model: DiscreteModel, t: FiniteStatistic, alphas) -> np.ndarray:
    """Powers of the exact size-alpha randomized threshold tests based on t,
    one per entry of the alpha vector.

    Outcomes are taken level by level in decreasing t order; the boundary
    level is accepted with the fractional probability that makes the null
    rejection mass exactly alpha.  The level masses of (model, t) are
    summed once: with cumulative sizes c0 and powers c1 (both starting at
    0), j levels are taken in full while c0[j] <= alpha, and the power is
    c1[j] + (alpha - c0[j]) / p0[j] * p1[j], or c1 of all levels once alpha
    reaches the total null mass.  This is the one-row case of the stacked
    kernel _level_curves.
    """
    return _level_curves(*_rows(model, t=t), _alpha_vector(alphas))[0]


def best_level_power(model: DiscreteModel, t: FiniteStatistic, alpha: float) -> float:
    """Power of the exact size-alpha randomized threshold test based on t:
    level_powers at the single level alpha."""
    return float(level_powers(model, t, [alpha])[0])


def _identity_violation(model: DiscreteModel, **stats: FiniteStatistic) -> float:
    """Largest |P1(cell) - u P0(cell)| over the level tuples of the named
    statistics, u the cell's level of the first one.  A tuple no outcome
    attains has both masses 0, so it adds nothing."""
    levels, _, p0, p1 = _level_table(model, **stats)
    u = levels[0].reshape((-1,) + (1,) * (len(levels) - 1))
    return float(np.max(np.abs(p1 - u * p0)))


def _power_gaps(f, t1, t2, alpha_grid) -> np.ndarray:
    """Power of t1 minus power of t2 at each alpha of the grid, row by row
    over a (2, K, m) stack of models and (K, m) stacks of statistics: the
    one place two level_powers curves are compared."""
    return _level_curves(f, t1, alpha_grid) - _level_curves(f, t2, alpha_grid)


def _mp_power_gap(model: DiscreteModel, t: FiniteStatistic, alpha_grid) -> float:
    """Largest power difference between t and the likelihood ratio on the grid."""
    gaps = _power_gaps(*_rows(model, t=t, lam=likelihood_ratio(model)), alpha_grid)
    return float(np.max(np.abs(gaps)))


def check_prop_1_1(model: DiscreteModel) -> dict:
    """Level-mass identity for the likelihood ratio: P1(L = u) = u P0(L = u)."""
    return {"max_violation": _identity_violation(model, lam=likelihood_ratio(model))}


def check_prop_2_1(model: DiscreteModel, a: FiniteStatistic) -> dict:
    """Joint version of the level-mass identity for (likelihood ratio, A)."""
    return {"max_violation": _identity_violation(model, lam=likelihood_ratio(model), a=a)}


def check_prop_2_2(model: DiscreteModel, t: FiniteStatistic, alpha_grid=None) -> dict:
    """Value-calibration condition versus attained most-powerful power.

    condition_holds tests f1 = t f0 outcome-wise (taking A as the identity
    statistic, which decides the condition for every A on a finite space).
    is_mp tests power equality with the likelihood ratio across the grid.
    The condition implies MP; the converse can fail for statistics that
    order outcomes like the likelihood ratio but carry different values.
    """
    tv = t.array()[None, None]
    _check_entries(tv >= 0, tv, ("t",),
                   "statistic must be non-negative for the calibration condition")
    alpha_grid = _alpha_grid(alpha_grid)
    f0, f1 = model.arrays()
    condition_violation = float(np.max(np.abs(f1 - _values(model, "t", t) * f0)))
    power_gap = _mp_power_gap(model, t, alpha_grid)
    return {
        "condition_holds": condition_violation <= TOL,
        "is_mp": power_gap <= TOL,
        "condition_violation": condition_violation,
        "max_power_gap": power_gap,
    }


def singleton_indicators(m: int):
    """Indicator statistics of each single outcome, the decisive test family."""
    eye = np.eye(m)
    return [FiniteStatistic(tuple(row)) for row in eye]


def check_prop_2_3(model: DiscreteModel, t: FiniteStatistic, g_family) -> bool:
    """Moment identity E1 g(D) = E0 g(D) t(D) over a family of [0, 1] functions.

    The family must contain every singleton indicator; those alone force
    t to equal the likelihood ratio pointwise when the identity holds.
    """
    f0, f1 = model.arrays()
    tv = _values(model, "t", t)
    gvs = [_values(model, f"g_family[{i}]", g) for i, g in enumerate(g_family)]
    for i, gv in enumerate(gvs):
        g = gv[None, None]
        _check_entries((g >= -TOL) & (g <= 1.0 + TOL), g, (f"g_family[{i}]",),
                       "family functions must map into [0, 1]")
    singletons = {int(np.argmax(gv)) for gv in gvs
                  if np.count_nonzero(gv) == 1 and gv.max() == 1.0}
    if len(singletons) < model.m:
        raise ValueError("family must include all singleton indicator functions")
    return not any(abs(np.dot(gv, f1) - np.dot(gv * tv, f0)) > TOL for gv in gvs)


def check_prop_2_4(
    model: DiscreteModel, t1: FiniteStatistic, t2: FiniteStatistic, alpha_grid=None
) -> dict:
    """Power dominance of t1 over t2 under the joint calibration hypothesis.

    The hypothesis requires P1(t1 = u, t2 = v) = u P0(t1 = u, t2 = v) on all
    attained level pairs.  When it fails the dominance claim does not apply
    and the report says so.
    """
    tv = t1.array()[None, None]
    _check_entries(tv >= 0, tv, ("t1",), "statistic must be non-negative")
    alpha_grid = _alpha_grid(alpha_grid)
    worst = _identity_violation(model, t1=t1, t2=t2)
    if worst > TOL:
        return {"applicable": False, "hypothesis_violation": worst, "dominates": None}
    gap = float(np.min(_power_gaps(*_rows(model, t1=t1, t2=t2), alpha_grid)))
    return {
        "applicable": True,
        "hypothesis_violation": worst,
        "dominates": gap >= -TOL,
        "min_power_gap": gap,
    }


def check_prop_2_5(model: DiscreteModel, t: FiniteStatistic, alpha_grid=None) -> dict:
    """Sufficiency plus level-ratio calibration versus most-powerful power.

    sufficient: within each t level the conditional outcome distribution is
    the same under both hypotheses.  calibrated: the level mass ratio
    P1(t = u)/P0(t = u) equals u.  is_mp: power equality with the likelihood
    ratio on the grid.
    """
    alpha_grid = _alpha_grid(alpha_grid)
    f0, f1 = model.arrays()
    (u,), inv, p0, p1 = _level_table(model, t=t)
    power_gap = _mp_power_gap(model, t, alpha_grid)
    return {
        "sufficient": bool(np.max(np.abs(f0 / p0[inv] - f1 / p1[inv])) <= TOL),
        "calibrated": bool(np.all(np.abs(p1 / p0 - u) <= TOL)),
        "is_mp": power_gap <= TOL,
        "max_power_gap": power_gap,
    }


def check_prop_3_1(
    model: DiscreteModel,
    t: FiniteStatistic,
    a: FiniteStatistic,
    tn: FiniteStatistic,
    alpha_grid=None,
) -> dict:
    """Dominance of a decorrelated statistic over the statistic it refines.

    Premises, each verified before the claim is evaluated: a is ancillary
    (same distribution under both hypotheses); tn and a are independent
    under both hypotheses; t is a function of the (tn, a) pair; the level
    ratio of tn is monotone in its value.  A failed premise is named and the
    claim is not evaluated.
    """
    alpha_grid = _alpha_grid(alpha_grid)
    tv = _values(model, "t", t)
    _, _, a0, a1 = _level_table(model, a=a)
    _, _, n0, n1 = _level_table(model, tn=tn)
    _, inv, j0, j1 = _level_table(model, tn=tn, a=a)
    # Independence compares every (tn, a) pair, the unattained ones (joint
    # mass 0) included; factorization reads t's range on each pair.
    hi = np.full(j0.size, -np.inf)
    lo = np.full(j0.size, np.inf)
    np.maximum.at(hi, inv, tv)
    np.minimum.at(lo, inv, tv)
    ratios = n1 / n0
    premises = (
        ("ancillarity", np.abs(a0 - a1) > TOL),
        ("independence", (np.abs(j0 - np.outer(n0, a0)) > TOL)
         | (np.abs(j1 - np.outer(n1, a1)) > TOL)),
        ("factorization", hi - lo > TOL),
        ("monotone_ratio", ratios[1:] < ratios[:-1] - TOL),
    )
    for premise, failed in premises:
        if np.any(failed):
            return {"premises_ok": False, "failed_premise": premise, "dominates": None}
    gap = float(np.min(_power_gaps(*_rows(model, tn=tn, t=t), alpha_grid)))
    return {"premises_ok": True, "failed_premise": None, "dominates": gap >= -TOL,
            "min_power_gap": gap}


# ---------------------------------------------------------------------------
# Model and statistic generators.


def _random_pmf(gen: np.random.Generator, m: int) -> np.ndarray:
    """m probabilities bounded away from zero: gen.random(m) + 0.05, normalized."""
    f = gen.random(m)
    f += 0.05
    f /= f.sum()
    return f


def random_model(gen: np.random.Generator, m: int) -> DiscreteModel:
    """Random model with probabilities bounded away from zero."""
    return DiscreteModel(tuple(_random_pmf(gen, m)), tuple(_random_pmf(gen, m)))


def random_statistic(gen: np.random.Generator, m: int) -> FiniteStatistic:
    return FiniteStatistic(tuple(gen.random(m)))


def coarsening_counter_model():
    """Three-outcome model with a statistic that merges distinct ratio levels.

    The merged statistic loses the ordering information of the likelihood
    ratio, so both the calibration condition and most-powerful power fail.
    """
    model = DiscreteModel((1 / 3, 1 / 3, 1 / 3), (1 / 6, 1 / 3, 1 / 2))
    merged = FiniteStatistic((1.0, 0.9, 1.0))
    return model, merged


def product_model(gen: np.random.Generator, i_size: int, j_size: int):
    """Two-component model whose second coordinate is shared noise.

    Returns (model, t, a, tn) where a reads the noise coordinate, tn is the
    likelihood ratio of the informative coordinate, and t is an arbitrary
    function of the (tn, a) pair.
    """
    p0 = _random_pmf(gen, i_size)
    p1 = _random_pmf(gen, i_size)
    q = _random_pmf(gen, j_size)
    f0 = np.outer(p0, q).ravel()
    f1 = np.outer(p1, q).ravel()
    lam_i = p1 / p0
    tn = np.repeat(lam_i, j_size)
    a = np.tile(np.arange(j_size, dtype=float), i_size)
    # Any deterministic combination of (tn, a) qualifies as the coarser statistic.
    t = tn + 0.25 * np.sin(a + 1.0)
    return (
        DiscreteModel(tuple(f0), tuple(f1)),
        FiniteStatistic(tuple(t)),
        FiniteStatistic(tuple(a)),
        FiniteStatistic(tuple(tn)),
    )


# ---------------------------------------------------------------------------
# Verification driver.


def verify_propositions(seed: int = 20260815, n_models: int = 100, n_pairs: int = 1000):
    """Run the full certification suite; returns one report row per claim.

    Each claim builds one list of per-case checks, and its row is derived
    from that list: passed is all(checks), cases is len(checks), and
    max_violation is the measured size where the claim has one (the largest
    identity residual; for np-dominance the largest power gain of a
    statistic over the likelihood ratio, or 0), otherwise 0.0 on a pass and
    1.0 on a failure.  Identity checks use n_models random models (the MP,
    sufficiency and conditional-dominance claims at most 20 of them, plus
    their counter-model checks); the dominance oracle uses n_pairs random
    (model, statistic) pairs on the default alpha grid, drawn and scored in
    blocks of _PAIR_BLOCK pairs.  The random models and statistics are drawn
    in sequence from the root stream RandomStream(seed), so the draws depend
    on n_models as well as on seed, and not on the block size.
    """
    check_integers(at_least=0, seed=seed)
    check_integers(at_least=1, n_models=n_models, n_pairs=n_pairs)
    gen = RandomStream(seed).generator()
    grid = default_alpha_grid()
    rows = []

    def add(name, checks, violation=None, detail=""):
        passed = all(checks)
        if violation is None:
            violation = 0.0 if passed else 1.0
        rows.append(
            {
                "name": name,
                "passed": passed,
                "max_violation": float(violation),
                "cases": len(checks),
                "detail": detail,
            }
        )

    models = [random_model(gen, int(gen.integers(2, 9))) for _ in range(n_models)]

    sizes = [check_prop_1_1(mod)["max_violation"] for mod in models]
    add("ratio-level-identity", [v <= TOL for v in sizes], max(sizes))

    sizes = [
        check_prop_2_1(mod, random_statistic(gen, mod.m))["max_violation"] for mod in models
    ]
    add("joint-level-identity", [v <= TOL for v in sizes], max(sizes))

    checks = []
    for mod in models:
        lam = likelihood_ratio(mod)
        family = singleton_indicators(mod.m) + [FiniteStatistic((1.0,) * mod.m)]
        bumped = np.array(lam.values)
        bumped[0] += 1e-6
        checks.append(check_prop_2_3(mod, lam, family))
        checks.append(not check_prop_2_3(mod, FiniteStatistic(tuple(bumped)), family))
    add("moment-identity", checks, detail="ratio passes, pointwise perturbation fails")

    counter_model, merged = coarsening_counter_model()
    checks = []
    for mod in models[:20]:
        rep = check_prop_2_2(mod, likelihood_ratio(mod), grid)
        checks.append(rep["condition_holds"] and rep["is_mp"])
    rep = check_prop_2_2(counter_model, merged, grid)
    checks.append(not rep["condition_holds"] and not rep["is_mp"])
    lam_c = likelihood_ratio(counter_model)
    doubled = FiniteStatistic(tuple(2.0 * v for v in lam_c.values))
    rep = check_prop_2_2(counter_model, doubled, grid)
    # Doubling preserves the ordering (still MP) but breaks the value
    # calibration; the condition is about values, not ranks.
    checks.append(not rep["condition_holds"] and rep["is_mp"])
    add("mp-condition", checks)

    checks = []
    for mod in models[:20]:
        rep = check_prop_2_5(mod, likelihood_ratio(mod), grid)
        checks.append(rep["sufficient"] and rep["calibrated"] and rep["is_mp"])
    rep = check_prop_2_5(counter_model, merged, grid)
    checks.append(not rep["sufficient"] and not rep["is_mp"])
    rep = check_prop_2_5(counter_model, FiniteStatistic((10.0, 20.0, 30.0)), grid)
    checks.append(rep["sufficient"] and not rep["calibrated"])
    add("sufficiency-calibration", checks)

    checks = []
    for mod in models[:20]:
        lam = likelihood_ratio(mod)
        rep = check_prop_2_4(mod, lam, random_statistic(gen, mod.m), grid)
        checks.append(rep["applicable"] and rep["dominates"])
        rep = check_prop_2_4(mod, lam, lam, grid)
        checks.append(rep["applicable"] and rep["dominates"])
    checks.append(not check_prop_2_4(counter_model, doubled, merged, grid)["applicable"])
    add("conditional-dominance", checks)

    checks = []
    for _ in range(20):
        i_size = int(gen.integers(2, 5))
        j_size = int(gen.integers(2, 4))
        rep = check_prop_3_1(*product_model(gen, i_size, j_size), grid)
        checks.append(rep["premises_ok"] and rep["dominates"])
    rep = check_prop_3_1(counter_model, merged, lam_c, lam_c, grid)
    checks.append(not rep["premises_ok"] and rep["failed_premise"] == "ancillarity")
    add("ancillary-refinement", checks)

    gaps = []
    for lo in range(0, n_pairs, _PAIR_BLOCK):
        groups = {}
        for _ in range(min(_PAIR_BLOCK, n_pairs - lo)):
            m = int(gen.integers(2, 9))
            pair = _random_pmf(gen, m), _random_pmf(gen, m), gen.random(m)
            groups.setdefault(m, []).append(pair)
        for group in groups.values():
            f0, f1, t = zip(*group)
            f, t = np.array((f0, f1)), np.array(t)
            lam = f[1] / f[0]
            _check_models(f, ("f0", "f1"))
            _check_statistics(t, "t")
            _check_statistics(lam, "likelihood ratio")
            gaps += np.max(_power_gaps(f, t, lam, grid), axis=1).tolist()
    add("np-dominance", [g <= TOL for g in gaps], max(0.0, *gaps),
        "likelihood ratio attains maximal power at every level")

    return rows
