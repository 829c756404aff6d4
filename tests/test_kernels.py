"""Bit-for-bit checks of the sort-based kernels against direct references.

median_pieces reads the median and the type-7 quartiles from one sort per
row; the reference below takes them from np.median and np.quantile.
signed_rank ranks the nonzero |x| from one sort per row; the reference
(scalar_oracles.wilcoxon_z) drops the zeros, takes mid-ranks from
scipy.stats.rankdata and the tie correction from np.unique, and serves only
as a test oracle here.  Both must agree
exactly, on continuous rows and on the tied rows that resampling produces,
including runs of equal |x| that hold both signs; signed_rank must also
give the same bits when a row is scaled by any power of two that keeps it
exact.
The stdlib normal tails are checked against scipy.stats to rel 1e-12.
bootstrap_decide stops each row early; the full-B loop below, which
gathers every resample of every row (row[idx].mean()), is its oracle on the
same indices, fed to it as an iterator of pre-drawn (B, n) sequences, one
per row block.  bootstrap_mean_reject (stream layout 5) draws one index
sequence per 512-row block, every step of it however early the rows stop,
and takes the step's resample means of all the block's live rows as one
count-matrix product (resample_means).  Those means match the gathered
ones within 3 n eps max|x| and bit for bit on rows whose sums are exact in
any order, which the test rows with ties T*_b = To are; a block's
decisions do not depend on when the blocks before it stop.  It returns
(reject, reason, parts) like every other kernel, with zero-range rows
degenerate and never rejecting, and parts["resamples"] the resamples each
row evaluated.
Deciding a shift pair keeps the one-shift null decisions and draws, and
each of its decisions is the one-shift decision of its shift on the same
indices.
Each TN kernel must follow the base kernels it reads, and both bootstrap
paths must take To, T*_b and their threshold from known_sigma_z and
type7_quantile.  The variance gate bounds the resampling share of TB's
Monte Carlo error on fixed data, so a change to TB's draws or arithmetic
that correlates its resamples fails by name.
"""

import ast
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ancitest import DesignId, RandomStream, bootstrap_t_test, design_params, sample_design_matrix
from ancitest.designs import null_shift
from ancitest import _kernels as ker
from ancitest.regression import make_fixture
from scalar_oracles import wilcoxon_z as _reference_wilcoxon_z

FIELDS = ("mean", "median", "s", "w", "h", "fhat", "degenerate")


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
    return {"mean": mean, "median": med, "s": sd, "w": w, "h": h, "fhat": fhat, "degenerate": degen}


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
    for kernel in (ker.median_to, ker.median_tn, ker.sym_to, ker.sym_tn):
        stat, reason, _ = kernel(pieces)
        assert reason.tolist() == [ker.CONSTANT, 0, ker.CONSTANT]
        assert stat[2] == -np.inf
    tn, reason, _ = ker.mean_tn(ker.moment_pieces(x, 1.0))
    assert reason.tolist() == [ker.CONSTANT, 0, ker.CONSTANT]


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
    _assert_bit_equal(ker.signed_rank(x)[0], _reference_wilcoxon_z(x))


def test_wilcoxon_z_drops_zeros_and_tie_corrects():
    # The zeros are dropped, leaving |x| = 1, 2, 2, 2, 3, 3 with ranks 1,
    # 3, 3, 3, 5.5, 5.5.  Positive entries: 1, two of the 2s and one 3, so
    # W+ = 1 + 3 + 3 + 5.5 = 12.5.  n = 6 and the runs of 3 and 2 equal
    # values give the tie correction (24 + 6) / 48.
    x = np.array([[0.0, -0.0, 1.0, 2.0, -2.0, 2.0, 3.0, -3.0]])
    n = 6
    var = n * (n + 1) * (2 * n + 1) / 24.0 - 30.0 / 48.0
    z, reason, parts = ker.signed_rank(x)
    got = (parts["w_plus"][0], parts["n_used"][0], parts["tie_correction"][0])
    assert got == (12.5, 6, 30.0 / 48.0)
    assert z[0] == (12.5 - n * (n + 1) / 4.0) / math.sqrt(var)
    assert reason[0] == 0
    _assert_bit_equal(z, _reference_wilcoxon_z(x))
    # Four nonzero entries are too few, whatever the row length.
    z, reason, _ = ker.signed_rank(np.array([[0.0, 0.0, 1.0, -2.0, 3.0, 4.0]]))
    assert (z[0], reason[0]) == (-np.inf, ker.FEW_NONZERO)


def test_signed_rank_mixed_sign_runs_take_mid_ranks():
    # The zero is dropped, leaving |x| = 1, 1, 2, 2, 2, 3, 3, 3, 4 with
    # mid-ranks 1.5, 4, 7 and 9.  Every run of equal |x| but the last holds
    # both signs.  Positive entries: one 1, two 2s, one 3 and the 4, so
    # W+ = 1.5 + 4 + 4 + 7 + 9 = 25.5; the runs of 2, 3 and 3 give the tie
    # sum 6 + 24 + 24 = 54.
    x = np.array([[0.0, -1.0, 1.0, -2.0, 2.0, 2.0, 3.0, -3.0, -3.0, 4.0]])
    z, reason, parts = ker.signed_rank(x)
    got = (parts["w_plus"][0], parts["n_used"][0], parts["tie_correction"][0])
    assert got == (25.5, 9, 54.0 / 48.0)
    assert reason[0] == 0
    _assert_bit_equal(z, _reference_wilcoxon_z(x))


def _reference_signed_rank_parts(x):
    """w_plus, n_used and tie_correction of each row from rankdata and
    np.unique, on the nonzero entries."""
    w_plus, n_used, tie_correction = [], [], []
    for row in x:
        nz = row[row != 0.0]
        _, counts = np.unique(np.abs(nz), return_counts=True)
        w_plus.append(float(sps.rankdata(np.abs(nz))[nz > 0].sum()))
        n_used.append(nz.size)
        tie_correction.append(int(np.sum(counts**3 - counts)) / 48.0)
    return {"w_plus": w_plus, "n_used": n_used, "tie_correction": tie_correction}


SMALL_INTEGERS = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@settings(deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.lists(SMALL_INTEGERS, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_signed_rank_on_small_integer_rows_equals_rankdata(rows):
    # Rows of a few small integers have long runs of equal |x|, most of them
    # with both signs, and zeros of either sign.
    x = np.array(rows)
    z, _, parts = ker.signed_rank(x)
    _assert_bit_equal(z, _reference_wilcoxon_z(x))
    for name, want in _reference_signed_rank_parts(x).items():
        assert parts[name].tolist() == want


@settings(deadline=None)
@given(st.integers(-1074, 1023))
def test_signed_rank_is_bit_equal_under_power_of_two_scaling(k):
    # Ranks and signs do not change when every entry is scaled exactly, so
    # neither does any output, however large or small the scale.
    x = np.vstack([_rows(40, seed=7), np.array([[-3.0, -1.0, 1.0, 1.0, -0.0, 2.0, 3.0, 3.0] * 5])])
    with np.errstate(over="ignore"):
        y = np.ldexp(x, k)
    assume(np.isfinite(y).all() and np.array_equal(np.ldexp(y, -k), x))
    want, got = ker.signed_rank(x), ker.signed_rank(y)
    for a, b in zip((want[0], want[1], *want[2].values()), (got[0], got[1], *got[2].values())):
        _assert_bit_equal(b, a)


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



BOOT_CASES = [(100, 0.05), (101, 0.05), (1000, 0.05), (1000, 0.037), (400, 0.1)]


def _full_b_bootstrap(x, sigma, alpha, idx):
    """The full-B bootstrap loop on the (rows, B, n) indices idx: every
    resample of every row, then To > np.quantile(T*, 1 - alpha).
    Returns (reject, To, T*)."""
    rows, n = x.shape
    xbar = x.mean(axis=1)
    to = math.sqrt(n) * xbar / sigma
    resampled = x[np.arange(rows)[:, None, None], idx]
    tstar = math.sqrt(n) * (resampled.mean(axis=2) - xbar[:, None]) / sigma
    return to > np.quantile(tstar, 1.0 - alpha, axis=1), to, tstar


def _stop_rule(n_boot, alpha):
    """(lo, reject_at, keep_at): the quantile sits between the sorted
    T*_(lo) and T*_(lo+1); a row's decision is fixed once c = #{T*_b < To}
    reaches reject_at or #{T*_b >= To} reaches keep_at."""
    v = (n_boot - 1) * (1.0 - alpha)
    lo = math.floor(v)
    return lo, lo + 1 if v == lo else lo + 2, n_boot - lo


def _stop_steps(to, tstar, alpha):
    """Resamples each row needs: up to the first step that fixes its
    decision, or all of them."""
    n_boot = tstar.shape[1]
    _, reject_at, keep_at = _stop_rule(n_boot, alpha)
    ends = np.r_[np.arange(ker._BOOT_STEP, n_boot, ker._BOOT_STEP), n_boot]
    c = np.cumsum(tstar < to[:, None], axis=1)[:, ends - 1]
    fixed = (c >= reject_at) | (ends - c >= keep_at)
    return np.where(fixed.any(axis=1), ends[fixed.argmax(axis=1)], n_boot)


@pytest.fixture
def products(monkeypatch):
    """(rows, resamples) of each count-matrix product of resample_means."""
    shapes = []
    means = ker.resample_means

    def counting_means(x, idx):
        shapes.append((x.shape[0], idx.shape[0]))
        return means(x, idx)

    monkeypatch.setattr(ker, "resample_means", counting_means)
    return shapes


def _evaluated(products):
    """Resamples evaluated over all rows: the sum of rows x resamples."""
    return sum(rows * step for rows, step in products)


@pytest.mark.parametrize("n", [15, 250, 350])
def test_resample_means_count_product_matches_gather(n):
    # The count-matrix product sums each resample in another order than the
    # gather row[idx].mean(axis=-1) does: within 3 n eps max|x| on
    # continuous rows at any scale, for a block, one row (the scalar test's
    # call) and a partial step.  Integer-valued rows sum exactly in any
    # order, so there they agree bit for bit and the ties T*_b = To of
    # _bootstrap_rows stay ties.
    gen = np.random.default_rng(n)
    idx = ker.bootstrap_sequence(gen, ker._BOOT_STEP, n)
    eps = np.finfo(float).eps
    for scale in (1e-3, 1.0, 1e3):
        x = scale * (gen.standard_normal((83, n)) + 0.3)
        for rows, step in ((x, idx), (x[:1], idx), (x[:7], idx[:13])):
            got = ker.resample_means(rows, step)
            want = rows[:, step].mean(axis=-1)
            assert got.shape == want.shape == (len(rows), len(step))
            bound = 3 * n * eps * np.abs(rows).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)
    ints = gen.integers(-3, 4, size=(83, n)).astype(float)
    _assert_bit_equal(ker.resample_means(ints, idx), ints[:, idx].mean(axis=-1))
    _assert_bit_equal(ker.resample_means(ints[:1], idx), ints[:1, idx].mean(axis=-1))


def _bootstrap_rows(n, alpha, seed):
    """Rows whose To sits near the bootstrap (1 - alpha) quantile, rows
    rounded to multiples of 1/8, zero-mean integer rows (To = 0, and
    T*_b = To whenever a resample sums to 0), one constant row and plain
    shifted rows.  The rounded and integer rows sum exactly in any order,
    so their ties T*_b = To do not depend on how a resample mean is summed."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((40, n))
    z -= z.mean(axis=1, keepdims=True)
    tuned = z + ker.normal_upper(alpha) * z.std(axis=1, keepdims=True) / math.sqrt(n)
    rounded = np.round(8.0 * (gen.standard_normal((6, n)) + 0.2)) / 8.0
    ints = gen.integers(-2, 3, size=(4, n)).astype(float)
    ints[:, 0] -= ints.sum(axis=1)
    plain = gen.standard_normal((8, n)) + 0.1
    return np.vstack([tuned, rounded, ints, np.full((1, n), 0.7), plain])


@pytest.mark.parametrize("n", [15, 50, 250])
@pytest.mark.parametrize("n_boot, alpha", BOOT_CASES)
def test_bootstrap_early_stop_equals_full_b_loop(n, n_boot, alpha, products, monkeypatch):
    # Seeds chosen so that every case has rows ending at c = lo + 1.
    x = _bootstrap_rows(n, alpha, seed=n_boot + n + 5)
    # 8-row blocks: 59 rows span eight of them, each with its own sequence
    seqs = np.random.default_rng(n + 1).integers(0, n, size=(8, n_boot, n))
    monkeypatch.setattr(ker, "_BOOT_ROWS", 8)
    # The decision stage gets the pre-drawn sequences block by block; the
    # oracle resamples each row with its block's sequence.
    got, used = ker.bootstrap_decide(x, 1.0, alpha, n_boot, iter(seqs))
    want, to, tstar = _full_b_bootstrap(x, 1.0, alpha, seqs[np.arange(len(x)) // 8])
    assert np.array_equal(got, want)
    # Each row stops at the first step that fixes its decision.
    stops = _stop_steps(to, tstar, alpha)
    assert np.array_equal(used, stops)
    assert _evaluated(products) == stops.sum()
    # The data reach ties T*_b = To, rows that end exactly at the boundary
    # count c = lo + 1, and both decisions.
    lo, _, _ = _stop_rule(n_boot, alpha)
    assert np.any(tstar == to[:, None])
    assert np.any(np.count_nonzero(tstar < to[:, None], axis=1) == lo + 1)
    assert want.any() and not want.all()


@pytest.mark.parametrize("n", [15, 250])
@pytest.mark.parametrize("n_boot, alpha", BOOT_CASES + [(1000, 0.1)])
def test_bootstrap_boundary_count_decided_by_the_quantile(n, n_boot, alpha, products):
    # One centered row, shifted so that To lands at chosen points among the
    # sorted T*_b of its own resamples.  A shift moves To but leaves the
    # T*_b (up to rounding), and every call draws the same indices: a
    # one-row block draws the whole bootstrap_sequence.  With a fractional
    # v, To just above T*_(lo) but below the interpolated quantile keeps at
    # c = lo + 1, To above it rejects.
    z = np.random.default_rng(n_boot).standard_normal(n)
    z -= z.mean()
    idx = ker.bootstrap_sequence(np.random.default_rng(1), n_boot, n)[None]
    _, _, tstar = _full_b_bootstrap(z[None], 1.0, alpha, idx)
    s = np.sort(tstar[0])
    lo, reject_at, _ = _stop_rule(n_boot, alpha)
    g = (n_boot - 1) * (1.0 - alpha) - lo
    gap = s[lo + 1] - s[lo]
    assert gap > 0.0
    # (To, its count c, the decision)
    targets = [((s[lo - 1] + s[lo]) / 2.0, lo, False),
               (s[lo] + (1.0 + g) / 2.0 * gap, lo + 1, True)]
    if g > 0.0:
        targets.append((s[lo] + g / 2.0 * gap, lo + 1, False))
    # Where the reject count can be reached before the last step, a row
    # that reaches it exactly there.
    last = (n_boot - 1) // ker._BOOT_STEP * ker._BOOT_STEP
    if reject_at <= last:
        p = np.sort(tstar[0, :last])
        target = (p[reject_at - 1] + p[reject_at]) / 2.0
        targets.append((target, np.count_nonzero(s < target), True))
    for target, c, decision in targets:
        x = (z + target / math.sqrt(n))[None]
        products.clear()
        got = ker.bootstrap_mean_reject(x, 1.0, alpha, n_boot, np.random.default_rng(1))
        want, to, tstar = _full_b_bootstrap(x, 1.0, alpha, idx)
        assert np.count_nonzero(tstar < to[0]) == c
        assert want[0] == decision
        assert np.array_equal(got[0], want)
        assert _evaluated(products) == _stop_steps(to, tstar, alpha).sum()


class _CountingGenerator:
    """A generator proxy that records the size of every integers() draw."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return self.gen.integers(low, high, size=size, dtype=dtype)


def _block_sequences(seed, rows, block, n_boot, n):
    """The generator default_rng(seed) and the index sequence of each row
    block of rows drawn on it, whole (bootstrap_sequence)."""
    gen = np.random.default_rng(seed)
    return gen, [ker.bootstrap_sequence(gen, n_boot, n) for _ in range(0, rows, block)]


@pytest.mark.parametrize("n", [15, 250])
@pytest.mark.parametrize("n_boot, alpha", BOOT_CASES)
def test_bootstrap_draws_exactly_the_resamples_it_evaluates(n, n_boot, alpha, products, monkeypatch):
    # Stream layout 5's rule on 8-row blocks: each block draws one index
    # sequence, all n_boot resamples of it as one (step, n) draw per step,
    # and every row live at a step resamples with that step's indices.  The
    # rows evaluate exactly those resamples, each up to its own stop, and
    # nothing else is drawn: the generator ends where the whole sequences
    # end.
    x = _bootstrap_rows(n, alpha, seed=n_boot + n + 5)
    monkeypatch.setattr(ker, "_BOOT_ROWS", 8)  # 8-row blocks
    proxy = _CountingGenerator(3)
    got = ker.bootstrap_mean_reject(x, 1.0, alpha, n_boot, proxy)
    formed = list(products)
    # The same sequences, drawn whole, through the decision stage give the
    # decisions and each row's stop.
    gen, seqs = _block_sequences(3, len(x), 8, n_boot, n)
    want, used = ker.bootstrap_decide(x, 1.0, alpha, n_boot, iter(seqs))
    # The constant row is resampled like the others but never rejects.
    assert np.array_equal(got[0], want & (np.ptp(x, axis=1) > 0.0))
    assert np.array_equal(got[2]["resamples"], used)
    assert proxy.gen.bit_generator.state == gen.bit_generator.state
    steps = ker.bootstrap_steps(n_boot)
    assert proxy.sizes == [(b1 - b0, n) for _ in range(0, len(x), 8) for b0, b1 in steps]
    # One product per block and step that has live rows, of those rows and
    # the step's b1 - b0 resamples.
    live = [(np.count_nonzero(used[r0 : r0 + 8] > b0), b1 - b0)
            for r0 in range(0, len(x), 8) for b0, b1 in steps]
    assert formed == [(rows, step) for rows, step in live if rows]
    assert _evaluated(formed) == used.sum() < len(x) * n_boot


def test_bootstrap_block_decisions_do_not_depend_on_earlier_blocks(monkeypatch):
    # Two inputs that share their second 8-row block.  In the first, the
    # first block's rows sit far below their threshold and all stop after
    # one step; in the second they sit near it and some run to n_boot.
    # Every block draws its whole sequence, so the second block resamples
    # with the same indices either way.
    n, n_boot = 50, 400
    monkeypatch.setattr(ker, "_BOOT_ROWS", 8)  # 8-row blocks
    rows = _bootstrap_rows(n, 0.05, seed=7)
    later = rows[51:59]  # the plain shifted rows
    runs = []
    for first in (rows[:8] - 1.0, rows[:8]):
        gen = np.random.default_rng(4)
        x = np.vstack([first, later])
        reject, _, parts = ker.bootstrap_mean_reject(x, 1.0, 0.05, n_boot, gen)
        runs.append((reject, parts["resamples"], gen.bit_generator.state))
    (rej_low, used_low, end_low), (rej_near, used_near, end_near) = runs
    assert np.all(used_low[:8] == ker._BOOT_STEP) and used_near[:8].max() == n_boot
    assert np.array_equal(rej_low[8:], rej_near[8:])
    assert np.array_equal(used_low[8:], used_near[8:])
    assert end_low == end_near


def test_bootstrap_mean_reject_follows_the_kernel_contract():
    # Constant rows of 0.7 (which the bare decision rule rejects: every
    # T*_b is 0 < To) and of 0.0 (which it keeps) among normal rows.  They
    # are resampled like the others, so the normal rows get the decisions
    # of bootstrap_decide on the one row block's index sequence.
    n = 40
    x = np.random.default_rng(8).standard_normal((12, n)) + 0.3
    x[[2, 7]] = 0.7
    x[5] = 0.0
    flat = np.isin(np.arange(12), [2, 5, 7])
    reject, reason, parts = ker.bootstrap_mean_reject(x, 1.0, 0.05, 200, np.random.default_rng(9))
    idx = ker.bootstrap_sequence(np.random.default_rng(9), 200, n)
    want, used = ker.bootstrap_decide(x, 1.0, 0.05, 200, iter([idx]))
    assert reject.dtype == bool and reason.dtype == np.uint8
    assert parts.keys() == {"resamples"} and np.array_equal(parts["resamples"], used)
    assert np.array_equal(reason, np.where(flat, ker.CONSTANT, 0))
    assert want[[2, 7]].all() and not want[5]
    assert not reject[flat].any()
    assert np.array_equal(reject[~flat], want[~flat])
    assert reject.any() and not reject[~flat].all()


def test_bootstrap_draw_dtype_and_range():
    gen = np.random.default_rng(4)
    assert ker.bootstrap_sequence(gen, 3, 250).dtype == np.uint16
    top = ker.bootstrap_sequence(gen, 6, 1 << 16)
    assert top.dtype == np.uint16 and top.max() > 60000
    # Above 65536 the indices no longer fit uint16: int64, still in [0, n).
    n = 70001
    idx = ker.bootstrap_sequence(gen, 6, n)
    assert idx.dtype == np.int64 and idx.shape == (6, n)
    assert idx.min() == 0 and 65536 <= idx.max() < n


def test_bootstrap_default_row_block():
    # The default block size is part of the stream layout: 512 rows at
    # every n.  Each block draws its own sequence of every step, so 512
    # rows draw one sequence and 513 rows two.
    for n, (rows, blocks) in itertools.product((150, 350), ((512, 1), (513, 2))):
        x = np.random.default_rng(6).standard_normal((rows, n))
        proxy = _CountingGenerator(7)
        ker.bootstrap_mean_reject(x, 1.0, 0.05, 100, proxy)
        assert proxy.sizes == [(ker._BOOT_STEP, n)] * (2 * blocks)


@pytest.mark.parametrize(
    "seed, rows, n, n_boot, packed_sha256, resamples",
    [
        (11, 200, 60, 200, "10051123e4acbbe9ad91434289ecce002dfbf343ecbd4cdfde1a5e89e895090f", 25450),
        (12, 90, 250, 1000, "20661bd9b723b108c26a6698b48d05ab86e0d68891fd55d1856747218e6a1aa6", 82350),
    ],
)
def test_bootstrap_layout_4_snapshot(seed, rows, n, n_boot, packed_sha256, resamples):
    # Pins TB's draws, not only its rule: the decisions and the resamples
    # evaluated on fixed seeds, recorded under stream layout 4 with a
    # per-row gather of the resample means, so they also hold the
    # count-matrix product to the gather's decisions.  A change to the draw
    # order or to the step size moves them.  Both cases are one 512-row
    # block under layout 5; the 90-row case spanned two 83-row blocks under
    # layout 4, and its last 7 rows reject after all n_boot resamples on
    # either block's sequence, so the digests held.  The TB plan
    # of test_table_output_snapshot spans two 512-row blocks.  A last-bit
    # change in the resample means rarely flips a decision;
    # test_resample_means_count_product_matches_gather bounds that change.
    x = np.random.default_rng(seed).standard_normal((rows, n)) + 0.15
    reject, _, parts = ker.bootstrap_mean_reject(
        x, 1.0, 0.05, n_boot, np.random.default_rng(seed + 100)
    )
    assert hashlib.sha256(np.packbits(reject).tobytes()).hexdigest() == packed_sha256
    assert parts["resamples"].sum() == resamples


def test_bootstrap_variance_gate():
    # The statistical gate of stream layouts 4 and 5 (BENCH_27_tb.json,
    # BENCH_30_tb.json): on fixed data, Var(PowA | data) over 200 generator
    # seeds may exceed layout 4's by at most 0.1 p (1 - p) / reps per shift.
    # Both bounds come from the committed records, not from this run.  Rows
    # that shared one resample index across steps would read about 1.9e-5
    # and 6.3e-5 here.
    x = sample_design_matrix(DesignId("1", 0, 2), 1000, 250, RandomStream(1, ("vargate",)))
    powa = np.array([
        ker.bootstrap_mean_reject(x, 1.0, 0.05, 1000,
                                  RandomStream(g, ("vargate", "boot")).child(1).generator(),
                                  (0.0, 0.1))[0].mean(axis=1)
        for g in range(200)
    ])
    var = powa.var(axis=0, ddof=1)
    assert var[0] <= 3.42e-6 + 6.88e-6
    assert var[1] <= 1.40e-5 + 2.50e-5
    # A rule that never rejected would pass the variance bounds: the mean
    # rates must stay at the records' 0.0743 and 0.510, here known to about
    # 1.5e-4 and 2.7e-4.
    assert abs(powa[:, 0].mean() - 0.0743) < 0.002
    assert abs(powa[:, 1].mean() - 0.510) < 0.005


@pytest.mark.parametrize("n", [15, 250])
@pytest.mark.parametrize("n_boot, alpha", BOOT_CASES)
def test_bootstrap_pair_keeps_the_one_shift_null_decisions(n, n_boot, alpha, monkeypatch):
    # A shift pair's null decisions, reasons and draws are those of the
    # one-shift kernel on the same generator, bit for bit: each block draws
    # its whole index sequence either way, and the rows kept live only for
    # the alternative resample with the same steps of it.
    x = _bootstrap_rows(n, alpha, seed=n_boot + n + 5)
    monkeypatch.setattr(ker, "_BOOT_ROWS", 8)  # 8-row blocks
    one = _CountingGenerator(3)
    reject, reason, parts = ker.bootstrap_mean_reject(x, 1.0, alpha, n_boot, one)
    null = _CountingGenerator(3)
    pair = ker.bootstrap_mean_reject(x, 1.0, alpha, n_boot, null, (0.0, 1.0 / math.sqrt(n)))
    assert pair[0].shape == pair[1].shape == (2, len(x))
    assert np.array_equal(pair[0][0], reject) and np.array_equal(pair[1][0], reason)
    assert null.sizes == one.sizes
    assert null.gen.bit_generator.state == one.gen.bit_generator.state
    assert np.all(pair[2]["resamples"] >= parts["resamples"])
    assert np.any(pair[2]["resamples"] > parts["resamples"])


@pytest.mark.parametrize("n", [15, 250])
@pytest.mark.parametrize("n_boot, alpha", BOOT_CASES)
def test_bootstrap_pair_resamples_are_the_larger_single_count(n, n_boot, alpha, monkeypatch):
    # Fed the same block sequences, each decision of a pair is the
    # one-shift decision of its shift, and a row evaluates as many resamples
    # as the longer of the two.
    x = _bootstrap_rows(n, alpha, seed=n_boot + n + 5)
    seqs = np.random.default_rng(n).integers(0, n, size=(8, n_boot, n))
    monkeypatch.setattr(ker, "_BOOT_ROWS", 8)  # 8-row blocks
    shifts = (0.0, 1.0 / math.sqrt(n))
    got, used = ker.bootstrap_decide(x, 1.0, alpha, n_boot, iter(seqs), shifts)
    singles = [ker.bootstrap_decide(x, 1.0, alpha, n_boot, iter(seqs), s) for s in shifts]
    for decisions, (want, _) in zip(got, singles):
        assert np.array_equal(decisions, want)
    assert np.array_equal(used, np.maximum(singles[0][1], singles[1][1]))
    assert np.any(used > singles[0][1])  # rows kept live for the alternative


def test_bootstrap_pair_alternative_matches_the_shifted_rows(record_property):
    # A table-1 alternative is decided from its null rows' T*_b against the
    # To of x + shift.  A direct decision on x + shift with the same indices
    # has T*_b that differ only in their last bits, so the two may differ
    # only where a T*_b lies within rounding of To.  Count the flips over the
    # four families at fixed seeds; every row block resamples with one
    # sequence.
    n, n_boot, rows = 60, 200, 500
    flips = total = 0
    for m in (1, 2, 3, 4):
        null, alt = DesignId("1", 0, m), DesignId("1", 1, m)
        sigma, shift = design_params(null).sigma, null_shift(alt)
        for seed in (1, 2):
            x = sample_design_matrix(null, rows, n, RandomStream(seed, ("pair", m)))
            idx = np.random.default_rng(seed).integers(0, n, size=(n_boot, n), dtype=np.uint16)
            same = itertools.repeat(idx)
            got, _ = ker.bootstrap_decide(x, sigma, 0.05, n_boot, same, (0.0, shift))
            want, _ = ker.bootstrap_decide(x + shift, sigma, 0.05, n_boot, same)
            flips += np.count_nonzero(got[1] != want)
            total += rows
    record_property("flipped_decisions", f"{flips} of {total}")
    assert total == 4000 and flips == 0, f"{flips} of {total} alternative decisions flipped"


def test_bootstrap_pair_reasons_follow_each_shifted_row():
    # A row whose shifted copy rounds to one value is flat for that shift
    # only; a constant row is flat for every shift.  Flat rows never reject.
    n = 40
    x = np.random.default_rng(8).standard_normal((6, n)) + 0.3
    x[1] = np.linspace(1e-20, 4e-20, n)  # x + 1.0 is 1.0 throughout
    x[4] = 0.7
    reject, reason, _ = ker.bootstrap_mean_reject(
        x, 1.0, 0.05, 200, np.random.default_rng(9), (0.0, 1.0))
    assert np.array_equal(reason[0], np.where(np.arange(6) == 4, ker.CONSTANT, 0))
    assert np.array_equal(reason[1], np.where(np.isin(np.arange(6), [1, 4]), ker.CONSTANT, 0))
    assert not reject[1, [1, 4]].any() and reject[1].any()


def test_bootstrap_step_holds_no_block_sized_gather():
    # One 1000-row cell at n = 250, B = 1000, in two 512-row blocks.  The
    # call's one T*_b buffer is (512, B) floats (4 MB), which both blocks
    # fill; a row block's uint16 index sequence is one (B, n) array
    # (500 KB), a step's offset indices and count matrix are (step, n)
    # arrays (100 KB each), and a block's gathered live rows 1 MB.  A
    # second T*_b buffer alive at the block boundary would break the bound,
    # and a per-row index copy or float gather of a block's step would add
    # 51 MB each.
    x = np.random.default_rng(5).standard_normal((1000, 250))
    tracemalloc.start()
    try:
        ker.bootstrap_mean_reject(x, 1.0, 0.05, 1000, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _median_gap(parts):
    return np.sqrt(parts["s"] ** 2 / parts["w_hat"] ** 2 - 1.0)


# Each TN kernel, a base kernel it reads, the part that reports that base
# statistic, and dTN/dbase on a usable row (from the TN kernel's parts).
_TN_BASES = [
    ("mean_tn", "mean_to", "to", lambda p: 1.0 / np.sqrt(p["delta_hat"])),
    ("sym_tn", "sym_to", "to", lambda p: 1.0 / np.sqrt(p["v"])),
    ("median_tn", "median_to", None, lambda p: p["s"] / p["w_hat"] / _median_gap(p)),
    ("median_tn", "sym_to", "ancillary_term", lambda p: -1.0 / _median_gap(p)),
]


@pytest.mark.parametrize(
    "tn, base, part, slope", _TN_BASES, ids=[f"{tn}-{base}" for tn, base, _, _ in _TN_BASES]
)
def test_tn_kernels_read_their_base_kernels(tn, base, part, slope, monkeypatch):
    # Shifting a base kernel's statistic by 0.5 moves the TN statistic by
    # 0.5 dTN/dbase on every usable row and keeps the degenerate rows at
    # -inf: a TN kernel that restated the base formula would not move.
    x = _rows(50, seed=21)
    pieces = ker.moment_pieces(x, 1.3) if base == "mean_to" else ker.median_pieces(x)
    kernel, unshifted = getattr(ker, tn), getattr(ker, base)
    base_stat = unshifted(pieces)[0]

    def shifted(p):
        stat, reason, parts = unshifted(p)
        return stat + 0.5, reason, parts

    with np.errstate(divide="ignore", invalid="ignore"):
        before, reason, parts = kernel(pieces)
        want = 0.5 * slope(parts)
        monkeypatch.setattr(ker, base, shifted)
        after, reason_after, parts_after = kernel(pieces)
    usable = reason == 0
    assert usable.sum() > 100 and (~usable).any()
    assert np.array_equal(reason_after, reason)
    assert np.all(after[~usable] == -np.inf)
    np.testing.assert_allclose(after[usable] - before[usable], want[usable], rtol=1e-8, atol=1e-12)
    if part is not None:
        assert np.array_equal(parts_after[part][usable], base_stat[usable] + 0.5)


@pytest.fixture
def counted(monkeypatch):
    """Calls of known_sigma_z and type7_quantile, by name, with arguments."""
    calls = {"known_sigma_z": [], "type7_quantile": []}
    for name in calls:
        def recorded(*args, _name=name, _f=getattr(ker, name)):
            calls[_name].append(args)
            return _f(*args)

        monkeypatch.setattr(ker, name, recorded)
    return calls


def test_bootstrap_t_test_takes_its_arithmetic_from_the_kernels(counted):
    x = np.random.default_rng(2).standard_normal(40) + 0.2
    out = bootstrap_t_test(x, 1.0, 0.05, 400, RandomStream(5))
    # To, then the T*_b of all resamples, then one type-7 quantile of the
    # sorted T*_b.
    assert len(counted["known_sigma_z"]) == 2 and len(counted["type7_quantile"]) == 1
    sorted_tstar, q = counted["type7_quantile"][0]
    assert sorted_tstar.shape == (1, 400) and np.all(np.diff(sorted_tstar) >= 0.0)
    assert q == 0.95 and out.threshold == ker.type7_quantile(sorted_tstar, q)[0]
    assert out.statistic == ker.known_sigma_z(float(np.mean(x)), 40, 1.0)


def test_bootstrap_fallback_takes_the_type7_quantile(counted):
    # n_boot = 100 at alpha = 0.05: v = 94.05 is fractional, so rows that
    # end at c = lo + 1 = 95 need the quantile of all their sorted T*_b.
    x = _bootstrap_rows(50, 0.05, seed=155)
    reject, _, parts = ker.bootstrap_mean_reject(x, 1.0, 0.05, 100, np.random.default_rng(0))
    steps = len(ker.bootstrap_steps(100))
    assert len(counted["known_sigma_z"]) == 1 + steps  # To, then T*_b per step
    ((sorted_tstar, q),) = counted["type7_quantile"]
    assert q == 0.95 and sorted_tstar.shape[1] == 100
    assert sorted_tstar.shape[0] > 0 and np.all(np.diff(sorted_tstar, axis=1) >= 0.0)
    assert np.count_nonzero(parts["resamples"] == 100) >= sorted_tstar.shape[0]


def test_src_calls_no_np_quantile_or_default_rng():
    # Every quantile is type7_quantile and every generator comes from
    # RandomStream; calls only, so docstrings may name the numpy functions.
    banned = {"np.quantile", "numpy.quantile", "np.random.default_rng", "numpy.random.default_rng"}
    found = []
    for path in sorted(Path(ker.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in banned:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert found == []
