"""The engine's PowA against cells whose rejection rate is known exactly.

58 cells have a closed-form rate P(statistic > z) at the one-sided normal
quantile z = z_0.95:

* table 1's To, sqrt(n) mean with sigma = 1, on all 8 designs and 5 sizes.
  On D_01/D_11 it is normal, so the rate is Phi(d sqrt(n) - z) with d the
  design's shift.  On D_02-D_04 n times the mean is a Gamma(n, 1) sum of
  unit exponentials, shifted and reflected, so the rate is a regularized
  incomplete gamma function;
* table 3's To, the studentized mean sqrt(n) mean / S, on the normal D_01
  and D_11: Student t with n - 1 degrees of freedom, noncentral by
  d sqrt(n) under the shift;
* W on the 14 symmetric null cells (table 2's D_01 and D_02, table 3's
  D_01-D_04).  The signed-rank statistic of a continuous symmetric sample
  has a distribution-free null law, P(W+ = k) = #{subsets of 1..n with sum
  k} / 2^n, computed here by the subset-sum recursion.  At n = 25 its size
  is 0.0507, not 0.05.

Each cell runs 20000 replications at seed 1, and its PowA must lie within
4.5 Monte Carlo standard errors sqrt(p (1 - p) / reps) of the exact rate p.
The seed, the replication count and the bound were fixed before the first
run.  scipy serves only as the oracle here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special, stats

from ancitest import DesignId, StudyPlan, estimate_power
from ancitest.power import table_grid

REPS, SEED, BOUND = 20000, 1, 4.5
Z = stats.norm.isf(0.05)


def _mean_rate(index, shift, n):
    """P(sqrt(n) mean > Z) on table 1's design family index with its shift.

    D_01 is N(0, 1); D_02 is 1 - E, D_03 is E - 1 and D_04 is
    (Weibull(1, 2) - 2) / 2 = E - 1, with E a unit exponential, so the sum
    of n draws of E is Gamma(n, 1).
    """
    if index == 1:
        return stats.norm.cdf(shift * math.sqrt(n) - Z)
    if index == 2:  # 1 - E: rejects when sum(E) < n (1 + shift) - Z sqrt(n)
        return special.gammainc(n, n * (1.0 + shift) - Z * math.sqrt(n))
    # E - 1: rejects when sum(E) > n (1 - shift) + Z sqrt(n)
    return special.gammaincc(n, n * (1.0 - shift) + Z * math.sqrt(n))


def _studentized_rate(shift, n):
    """P(sqrt(n) mean / S > Z) on N(shift, 1) samples of size n."""
    if shift == 0.0:
        return stats.t.sf(Z, n - 1)
    return stats.nct.sf(Z, n - 1, shift * math.sqrt(n))


def _signed_rank_size(n):
    """P(W+ standardized > Z) under the exact null law of W+ at size n."""
    probs = np.ones(1)
    for j in range(1, n + 1):
        grown = np.zeros(probs.size + j)
        grown[: probs.size] += probs
        grown[j:] += probs
        probs = 0.5 * grown
    k = np.arange(probs.size)
    z = (k - n * (n + 1) / 4.0) / math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    # No attainable W+ sits on the threshold, so the kernel's own rounding
    # of z cannot flip a count.
    assert np.min(np.abs(z - Z)) > 1e-9
    return float(probs[z > Z].sum())


_SHIFTS = {1: 0.1, 2: 0.1, 3: 0.1, 4: 0.2}  # table 1's D_1i minus D_0i


def _cells():
    ns1 = table_grid("1")["ns"]
    for index, shift in _SHIFTS.items():
        for h in (0, 1):
            d = shift * h
            for n in ns1:
                yield "To", DesignId("1", h, index), n, _mean_rate(index, d, n)
    for h in (0, 1):
        for n in table_grid("3")["ns"]:
            yield "To", DesignId("3", h, 1), n, _studentized_rate(0.1 * h, n)
    for table in ("2", "3"):
        grid = table_grid(table)
        for index in grid["indices"]:
            for n in grid["ns"]:
                yield "W", DesignId(table, 0, index), n, _signed_rank_size(n)


CELLS = list(_cells())


def test_cell_count():
    assert len(CELLS) == 58
    assert sum(t == "W" for t, *_ in CELLS) == 14


@pytest.mark.parametrize(
    "test, design, n, exact", CELLS,
    ids=[f"{t}-table{d.table}-{d.label}-n{n}" for t, d, n, _ in CELLS],
)
def test_powa_matches_exact_rate(test, design, n, exact):
    null = DesignId(design.table, 0, design.index)
    plan = StudyPlan(test, null, design, (n,), REPS, SEED)
    est = estimate_power(plan, threads=2)[n]
    assert est.degenerate_count == 0
    z = (est.powa - exact) / math.sqrt(exact * (1.0 - exact) / REPS)
    assert abs(z) <= BOUND, f"PowA {est.powa:.5f}, exact {exact:.5f}, z = {z:+.2f}"
