"""Power-study engine: rank thresholds, exact null calibration, determinism
across worker counts, dual-route checks against the scalar oracles, table
reproduction shapes, rendering, and the closed-form toy curves.
"""

import ast
import csv
import hashlib
import io
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ancitest import (
    DesignId,
    STREAM_LAYOUT,
    RandomStream,
    StudyPlan,
    TableReport,
    bootstrap_t_test,
    design_params,
    estimate_power,
    make_fixture,
    median_test_To,
    median_test_TN,
    modified_mean_test,
    ols_fit,
    pow_indicators,
    render_table,
    reproduce_table,
    resample_power_study,
    sample_design,
    sample_design_matrix,
    statistic_sample,
    symmetry_test,
    t_test_known_sigma,
    thomas_transform,
    toy_power_curve,
    toy_three_obs_powers,
    wilcoxon_signed_rank,
)
from ancitest import _kernels as ker
from ancitest import power as power_module
from ancitest.power import (
    CHUNK,
    default_a_grid,
    default_mu_grid,
    table_grid,
)
import scalar_oracles as orc

D01_T1 = DesignId("1", 0, 1)
D11_T1 = DesignId("1", 1, 1)


def _plan(test, null, alt, ns, reps, seed=0, **kw):
    return StudyPlan(
        test=test, design_null=null, design_alt=alt, ns=tuple(ns), reps=reps,
        root_seed=seed, **kw,
    )


def test_rank_threshold_hand_oracle():
    null = np.array([0.1, 0.9, 0.3, 0.7, 0.5, 0.2, 0.8, 0.4, 0.6, 1.0])
    # alpha = 0.2, reps = 10: k = 2, threshold = 8th smallest = 0.8, the
    # smallest of the k + 1 = 3 values the rule keeps, in one chunk or two.
    rule = power_module._rank_rule
    top, thr, _ = rule(3, np.empty(0), null)
    assert thr == 0.8 and sorted(top) == [0.8, 0.9, 1.0]
    assert rule(3, rule(3, np.empty(0), null[:4])[0], null[4:])[1] == 0.8
    ind = pow_indicators(np.array([0.75, 0.8, 0.85, 2.0]), null, 0.2)
    assert ind.tolist() == [False, False, True, True]
    # Exactly k null replications strictly exceed the threshold.
    assert pow_indicators(null, null, 0.2).sum() == 2
    with pytest.raises(ValueError):
        pow_indicators(null, null, 0.05)


def test_rank_threshold_floor_is_float_safe():
    # alpha * reps values like 0.95 * 5000 land a hair above the integer in
    # binary; the floor must not lose a rank to that.
    null = np.arange(5000, dtype=float)
    assert pow_indicators(null, null, 0.95).sum() == 4750


def test_null_row_rate_is_exact_k_over_reps():
    for alpha, reps in ((0.05, 2000), (0.037, 2000), (0.05, 1001)):
        plan = _plan("To", D01_T1, D01_T1, [150], reps, seed=4, alpha=alpha)
        est = estimate_power(plan)[150]
        k = math.floor(alpha * reps + 1e-9)
        assert est.pow == k / reps
        assert est.pow * reps == pytest.approx(round(est.pow * reps), abs=1e-9)


def test_estimates_are_integer_multiples_of_inverse_reps():
    plan = _plan("TN", D01_T1, D11_T1, [50, 150], 1500, seed=1)
    for est in estimate_power(plan).values():
        for rate in (est.powa, est.pow):
            assert rate * 1500 == pytest.approx(round(rate * 1500), abs=1e-9)
        assert est.mc_se_powa == pytest.approx(
            math.sqrt(est.powa * (1 - est.powa) / 1500), rel=1e-12
        )
        assert 0 <= est.degenerate_count <= 1500


def test_estimate_power_deterministic_across_threads():
    plan = _plan("TN", DesignId("2", 0, 1), DesignId("2", 1, 1), [25, 50], 6000, seed=9)
    a = estimate_power(plan, threads=1)
    b = estimate_power(plan, threads=3)
    assert a == b
    c = estimate_power(plan, threads=1)
    assert a == c


def test_bootstrap_estimate_deterministic_across_threads():
    plan = _plan("TB", DesignId("1", 0, 3), DesignId("1", 1, 3), [50, 150], 1000,
                 seed=9, bootstrap_b=100)
    a = estimate_power(plan, threads=1)
    assert a == estimate_power(plan, threads=3)
    assert all(0.0 < est.powa < 1.0 for est in a.values())


def test_statistic_sample_matches_scalar_tests():
    # The engine must draw through the documented stream path
    # (table, index, hypothesis, n, chunk) and reproduce the test-only
    # scalar oracles row for row; this is the engine-vs-reference dual route.
    seed = 13
    cases = [
        ("To", DesignId("1", 1, 2), 12, lambda row: orc.t_test_known_sigma(row, 1.0).statistic),
        ("TN", DesignId("1", 1, 2), 12, lambda row: orc.modified_mean_test(row, 1.0).statistic),
        ("To", DesignId("2", 1, 2), 25, lambda row: orc.median_test_To(row).statistic),
        ("TN", DesignId("2", 0, 1), 25, lambda row: orc.median_test_TN(row).statistic),
        ("W", DesignId("2", 1, 1), 25, lambda row: orc.wilcoxon_z(row[None, :])[0]),
        ("To", DesignId("3", 1, 4), 20, lambda row: orc.symmetry_test(row, "To").statistic),
        ("T1", DesignId("3", 0, 2), 20, lambda row: orc.symmetry_test(row, "T1").statistic),
        ("TN", DesignId("3", 1, 3), 20, lambda row: orc.symmetry_test(row, "TN").statistic),
    ]
    for test, design, n, scalar in cases:
        reps = 60
        stats, degen = statistic_sample(test, design, n, reps, seed)
        stream = RandomStream(seed, (design.table, design.index, design.hypothesis, n, 0))
        x = sample_design_matrix(design, reps, n, stream)
        keep = ~degen
        assert keep.sum() > reps // 2
        want = np.array([scalar(x[i]) for i in range(reps) if keep[i]])
        np.testing.assert_allclose(stats[keep], want, rtol=1e-12, atol=1e-12)


def test_statistic_sample_masks_are_kernel_reasons(monkeypatch):
    # The engine's degeneracy mask must be the kernel's reason != 0.  The
    # designs are continuous, so rows with a reason are planted in the
    # engine's draws: constant rows, +-1 lattice rows (zero squared-deviation
    # variance at sigma = 1) and rows with four nonzero entries.
    draw = power_module.sample_design_matrix

    def planted(design, rows, n, stream):
        x = draw(design, rows, n, stream)
        x[::7] = 0.7
        x[3::7] = np.resize([-1.0, 1.0], n)
        x[5::7] = np.pad([1.0, -2.0, 3.0, 4.0], (0, n - 4))
        return x

    monkeypatch.setattr(power_module, "sample_design_matrix", planted)
    seed, reps = 4, 60
    cases = [
        ("TN", DesignId("1", 1, 1), 12, lambda x: ker.mean_tn(ker.moment_pieces(x, 1.0))),
        ("W", DesignId("2", 1, 2), 25, ker.signed_rank),
        ("TN", DesignId("3", 0, 3), 20, lambda x: ker.sym_tn(ker.median_pieces(x))),
    ]
    assert design_params(DesignId("1", 0, 1)).sigma == 1.0
    for test, design, n, kernel in cases:
        stats, degen = statistic_sample(test, design, n, reps, seed)
        stream = RandomStream(seed, (design.table, design.index, design.hypothesis, n, 0))
        stat, reason, _ = kernel(planted(design, reps, n, stream))
        assert degen.dtype == bool and degen.any()
        np.testing.assert_array_equal(degen, reason != 0)
        np.testing.assert_array_equal(stats, stat)


def test_statistic_sample_spans_chunks_consistently():
    # A vector longer than one chunk must agree with the per-chunk draws.
    design = DesignId("1", 0, 3)
    reps = CHUNK + 17
    stats, _ = statistic_sample("To", design, 11, reps, 3)
    tail_stream = RandomStream(3, (design.table, design.index, design.hypothesis, 11, 1))
    x_tail = sample_design_matrix(design, 17, 11, tail_stream)
    want = np.array([orc.t_test_known_sigma(r, 1.0).statistic for r in x_tail])
    np.testing.assert_allclose(stats[CHUNK:], want, rtol=1e-11)


def test_statistic_sample_snapshot():
    # sha256 of the values, masks and their dtypes of four cells, one per
    # kernel family, over two full chunks and a partial one; recorded while
    # statistic_sample still slotted chunks through the table engine.
    h = hashlib.sha256()
    for test, design in [("To", DesignId("2", 1, 1)), ("W", DesignId("3", 0, 2)),
                         ("TN", DesignId("1", 1, 3)), ("T1", DesignId("3", 1, 4))]:
        for part in statistic_sample(test, design, 40, 2 * CHUNK + 808, 4):
            h.update(str(part.dtype).encode())
            h.update(part.tobytes())
    assert h.hexdigest() == "ed471045d9b1859a6763eb952f1c3e7f468861bef08a4bbc839ddfc3b7249ae6"


def _mixed_rows(n, rows, seed):
    """rows rows of length n, cycling through continuous rows, rows resampled
    from the residual fixture (ties), rounded rows (ties, 0.0 and -0.0),
    sparse rows with -0.0, +-1 lattice rows and constant 0.7, 0.0 and -0.0
    rows, so that every kind of row lands in every tile."""
    gen = np.random.default_rng(seed)
    fixture = make_fixture(100, seed)
    shape = (-(-rows // 8), n)
    kinds = [
        gen.standard_normal(shape) + 0.2,
        fixture[gen.integers(0, fixture.size, size=shape)],
        np.round(gen.standard_normal(shape), 1),
        np.where(gen.random(shape) < 0.3, -0.0, gen.standard_normal(shape)),
        np.resize([-1.0, 1.0], shape),
        np.full(shape, 0.7),
        np.zeros(shape),
        np.full(shape, -0.0),
    ]
    return np.stack(kinds, axis=1).reshape(-1, n)[:rows]


@pytest.mark.parametrize("table, n, rows", [
    ("1", 150, 2 * (ker._TILE_ELEMS // 150) + 5),
    ("2", 75, ker._TILE_ELEMS // 75 + 9),
    ("3", 50, ker._TILE_ELEMS // 50 + 7),
    ("2", ker._TILE_ELEMS, 8),  # one row per tile
    ("3", ker._TILE_ELEMS + 1, 9),
])
def test_statistics_tiles_equal_per_row_kernels(table, n, rows):
    # _statistics scores a chunk in row tiles; every row must come out as
    # the kernels give it on that row alone, as a (1, n) matrix.
    x = _mixed_rows(n, rows, seed=n)
    assert rows > max(1, ker._TILE_ELEMS // n)  # more than one tile
    spec = power_module._TABLES[table]
    tests = [t for t, rec in spec.tests.items() if rec.input != power_module.NULL_CHUNK]
    got = power_module._statistics(table, tests, x, sigma=1.0)
    for t in tests:
        rec = spec.tests[t]
        want = ([], [])
        for row in x[:, None, :]:
            arg = spec.pieces(row, 1.0, "quartic") if rec.input == power_module.PIECES else row
            stat, reason, _ = rec.kernel(arg)
            want[0].append(stat)
            want[1].append(reason)
        for got_part, want_part in zip(got[t], want):
            want_part = np.concatenate(want_part)
            assert got_part.dtype == want_part.dtype and got_part.shape == (rows,)
            assert got_part.tobytes() == want_part.tobytes()
    assert all((got[t][1] == 0).any() for t in tests)
    assert any((got[t][1] != 0).any() for t in tests)
    assert power_module._statistics(table, [], x) == {}


def test_tile_size_does_not_change_reports(monkeypatch):
    def runs():
        eps = make_fixture(100, 3)
        return [
            repr(reproduce_table("3", reps=1000, seed=6)),
            repr(reproduce_table("2", reps=1000, seed=6)),
            repr([resample_power_study(eps, n_b, 5000, seed=6) for n_b in (20, 70)]),
        ]

    default = runs()
    monkeypatch.setattr(ker, "_TILE_ELEMS", 300)  # 2 to 15 rows per tile
    assert runs() == default


def test_quadratic_variant_changes_tn_only():
    p_quart = _plan("TN", D01_T1, D11_T1, [50], 2000, seed=2, moment_variant="quartic")
    p_quad = _plan("TN", D01_T1, D11_T1, [50], 2000, seed=2, moment_variant="quadratic")
    assert estimate_power(p_quart)[50] != estimate_power(p_quad)[50]
    q_quart = _plan("To", D01_T1, D11_T1, [50], 2000, seed=2, moment_variant="quartic")
    q_quad = _plan("To", D01_T1, D11_T1, [50], 2000, seed=2, moment_variant="quadratic")
    assert estimate_power(q_quart)[50] == estimate_power(q_quad)[50]


def test_bootstrap_cell_rate_agrees_with_scalar_loop():
    # Statistical dual route for the bootstrap cell: the engine's batched
    # resampling and a per-sample scalar loop see the same data matrix (the
    # alternative decided on its null's chunk path, so the null rows plus
    # the shift), so their rejection rates differ only by resampling noise.
    design_null = DesignId("1", 0, 3)
    design_alt = DesignId("1", 1, 3)
    n, reps, b = 15, 1000, 200
    plan = _plan("TB", design_null, design_alt, [n], reps, seed=21, bootstrap_b=b)
    est = estimate_power(plan)[n]
    x = sample_design_matrix(
        design_alt, reps, n, RandomStream(21, ("1", 3, 0, n, 0))
    )
    rejects = 0
    for i in range(reps):
        out = bootstrap_t_test(
            x[i], sigma=1.0, n_boot=b, stream=RandomStream(77, ("sb", i))
        )
        rejects += out.reject
    rate = rejects / reps
    se = math.sqrt(2.0 * rate * (1 - rate) / reps) + 0.01
    assert est.powa == pytest.approx(rate, abs=4 * se)
    assert est.pow == est.powa  # decision-based cell, no separate threshold
    assert math.isnan(est.rank_threshold)


def test_table_1_tb_pairs_do_not_depend_on_threads_or_driver():
    # One pass over the null rows' resamples fills both TB rows of a family.
    # The table is the same on any thread count, estimate_power scores the
    # alternative cell, and the null cell of a null-alone plan, as the table
    # does, and the null rows are those of the one-shift kernel on the
    # null's chunk path and child stream 1.
    reps, seed, b, n = 1000, 4, 100, 150
    one = reproduce_table("1", reps=reps, seed=seed, bootstrap_b=b, threads=1)
    assert repr(one) == repr(reproduce_table("1", reps=reps, seed=seed, bootstrap_b=b, threads=3))
    null, alt = DesignId("1", 0, 2), DesignId("1", 1, 2)
    est = estimate_power(_plan("TB", null, alt, [n], reps, seed=seed, bootstrap_b=b))[n]
    assert repr(est) == repr(one.cell(alt.label, "TB", n))
    alone = estimate_power(_plan("TB", null, null, [n], reps, seed=seed, bootstrap_b=b))[n]
    assert repr(alone) == repr(one.cell(null.label, "TB", n))
    stream = RandomStream(seed, ("1", 2, 0, n, 0))
    x = sample_design_matrix(null, reps, n, stream)
    reject, _, _ = ker.bootstrap_mean_reject(x, 1.0, 0.05, b, stream.child(1).generator())
    assert one.cell(null.label, "TB", n).powa == np.count_nonzero(reject) / reps


def test_tb_chunk_first_block_rows_decide_as_bootstrap_t_test():
    # Stream layout 5: the rows of a TB chunk's first row block (512 rows at
    # every n) resample with one index sequence, drawn step by step from the
    # chunk's child stream 1 as bootstrap_t_test draws its resamples.  So
    # each of those rows decides, in the engine's pair pass, as the scalar
    # test decides it on that stream.
    seed, n, b, rows = 6, 150, 200, 600
    null, alt = DesignId("1", 0, 3), DesignId("1", 1, 3)
    out = power_module._chunk_statistics(
        null, n, {"TB": [null, alt]}, rows, 0, seed, "quartic", 0.05, b)
    reject, reason = out[null, "TB"]
    stream = RandomStream(seed, ("1", 3, 0, n, 0))
    x = sample_design_matrix(null, rows, n, stream)
    block = ker._BOOT_ROWS
    assert block == 512 and not reason[:block].any()
    want = [bootstrap_t_test(row, 1.0, 0.05, b, stream.child(1)).reject for row in x[:block]]
    assert np.array_equal(reject[:block], want)
    assert 0 < np.count_nonzero(want) < block
    # The next block draws its own sequence.
    later = [bootstrap_t_test(row, 1.0, 0.05, b, stream.child(1)).reject for row in x[block:]]
    assert not np.array_equal(reject[block:], later)


@pytest.mark.parametrize("test, table, drawn", [
    ("W", "3", ["D_12"]),  # ASYMPTOTIC: the alternative cell alone
    ("To", "3", ["D_02", "D_12"]),  # RANK: the threshold reads the null cell
    ("TB", "1", ["D_02"]),  # the alternative is decided on the null's path
])
def test_estimate_power_simulates_the_null_cell_only_where_read(test, table, drawn, monkeypatch):
    calls = []
    sample = power_module.sample_design_matrix

    def counting(did, rows, n, stream):
        calls.append((did.label, n))
        return sample(did, rows, n, stream)

    monkeypatch.setattr(power_module, "sample_design_matrix", counting)
    plan = _plan(test, DesignId(table, 0, 2), DesignId(table, 1, 2), [50], 1000, seed=3,
                 bootstrap_b=100)
    estimate_power(plan)
    assert sorted(calls) == [(label, 50) for label in drawn]  # one chunk per cell


def _recorded_repr(estimates):
    """repr of estimates as the digests below were recorded, when
    PowerEstimate.rank_threshold was still named null_quantile_used."""
    return repr(estimates).replace("rank_threshold=", "null_quantile_used=")


def test_w_estimate_unchanged_without_its_null_cell():
    # sha256 recorded while estimate_power still simulated the matched null
    # cell of every plan; W's score never read it.
    plan = _plan("W", DesignId("3", 0, 2), DesignId("3", 1, 2), [50, 150], 5000, seed=7)
    digest = hashlib.sha256(_recorded_repr(estimate_power(plan)).encode()).hexdigest()
    assert digest == "91913b729850c1f3c96af9404879e7a83975d491c48a69a1a0a33c4e0efa74f7"


def test_study_plan_validation():
    good = dict(test="To", design_null=D01_T1, design_alt=D11_T1, ns=(50,),
                reps=1000, root_seed=0)
    StudyPlan(**good)
    with pytest.raises(ValueError):
        StudyPlan(**{**good, "test": "W"})  # not a table-1 test
    with pytest.raises(ValueError):
        StudyPlan(**{**good, "design_null": D11_T1})  # alternative as null
    with pytest.raises(ValueError):
        StudyPlan(**{**good, "design_alt": DesignId("1", 1, 2)})  # family mismatch
    with pytest.raises(ValueError):
        StudyPlan(**{**good, "design_alt": DesignId("2", 1, 1)})  # table mismatch
    with pytest.raises(ValueError, match="reps"):
        StudyPlan(**{**good, "reps": 999})
    with pytest.raises(ValueError):
        StudyPlan(**{**good, "ns": (9,)})
    with pytest.raises(ValueError, match="alpha"):
        StudyPlan(**{**good, "alpha": 0.00001})  # floor(alpha reps) < 1
    with pytest.raises(ValueError, match="moment_variant"):
        StudyPlan(**{**good, "moment_variant": "fixed"})
    with pytest.raises(ValueError, match="bootstrap_b"):
        StudyPlan(**{**good, "bootstrap_b": 50})
    with pytest.raises(ValueError, match=r"^root_seed must be >= 0, got -1$"):
        StudyPlan(**{**good, "root_seed": -1})
    # Non-integer sizes, counts and seeds are errors, not truncated; numpy
    # integers are stored as int.
    with pytest.raises(ValueError, match=r"^ns\[1\] must be an integer, got 40\.5$"):
        StudyPlan(**{**good, "ns": (50, 40.5)})
    with pytest.raises(ValueError, match=r"^reps must be an integer, got 1000\.5$"):
        StudyPlan(**{**good, "reps": 1000.5})
    with pytest.raises(ValueError, match=r"^root_seed must be an integer, got 0\.5$"):
        StudyPlan(**{**good, "root_seed": 0.5})
    with pytest.raises(ValueError, match=r"^bootstrap_b must be an integer, got False$"):
        StudyPlan(**{**good, "bootstrap_b": False})
    plan = StudyPlan(**{**good, "ns": (np.int64(50),), "reps": np.int32(1000)})
    assert plan.ns == (50,) and type(plan.ns[0]) is int


def test_table_grid_contract():
    assert table_grid("1") == {
        "tests": ("To", "TN", "TB"),
        "ns": (150, 200, 250, 300, 350),
        "indices": (1, 2, 3, 4),
    }
    assert table_grid("2")["tests"] == ("W", "To", "TN")
    assert table_grid("2")["ns"] == (25, 50, 75)
    assert table_grid("3")["tests"] == ("W", "To", "T1", "TN")
    assert table_grid("3")["ns"] == (50, 150)
    with pytest.raises(ValueError):
        table_grid("9")


def test_reproduce_table_two_shape_and_conventions():
    rep = reproduce_table("2", reps=1000, seed=3, bootstrap_b=100)
    assert len(rep.rows) == 12  # 4 designs x 3 tests
    labels = [(r.design.label, r.test) for r in rep.rows]
    # Stable layout: designs in registry order, null first, tests in order.
    assert labels[:3] == [("D_01", "W"), ("D_01", "To"), ("D_01", "TN")]
    assert len(set(labels)) == 12
    for row in rep.rows:
        for _, est in row.estimates:
            if row.test == "W":
                assert est.pow == est.powa
                assert math.isnan(est.rank_threshold)
            else:
                assert math.isfinite(est.rank_threshold)
        if row.design.hypothesis == 0 and row.test != "W":
            for _, est in row.estimates:
                assert est.pow == 0.05
    cell = rep.cell("D_11", "TN", 50)
    assert 0.0 <= cell.powa <= 1.0
    with pytest.raises(KeyError):
        rep.cell("D_11", "TN", 60)


@pytest.mark.parametrize("table, index", [("2", 1), ("3", 4)])
def test_both_drivers_give_one_score_per_cell(table, index):
    # Both drivers draw a cell from the same stream paths and score it
    # through one function, so their estimates are equal, W included.
    n, reps, seed = 50, 2000, 4
    report = reproduce_table(table, reps=reps, seed=seed)
    null, alt = DesignId(table, 0, index), DesignId(table, 1, index)
    for test in table_grid(table)["tests"]:
        est = estimate_power(_plan(test, null, alt, (n,), reps, seed=seed))[n]
        assert repr(est) == repr(report.cell(alt.label, test, n))


def test_drivers_reject_a_negative_seed_by_name():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        reproduce_table("2", reps=1000, seed=-1)
    # StudyPlan names its own field.
    with pytest.raises(ValueError, match=r"^root_seed must be >= 0, got -1$"):
        estimate_power(_plan("To", D01_T1, D11_T1, [50], 1000, seed=-1))


def test_reproduce_table_render_byte_identical_across_threads():
    a = render_table(reproduce_table("3", reps=1000, seed=5, threads=1))
    b = render_table(reproduce_table("3", reps=1000, seed=5, threads=4))
    assert a == b
    rows = list(csv.reader(io.StringIO(a)))
    assert rows[0] == ["design", "test", "powa_n50", "pow_n50", "powa_n150", "pow_n150"]
    assert len(rows) == 1 + 32  # 8 designs x 4 tests


@pytest.mark.parametrize(
    "case, digest",
    [
        ("table 2", "1df25e27a66a5dbd0fd72334e5a6ef9e29f241b00ae7ff22bb888f3886b5ba02"),
        ("table 3", "94d5ca04b21977247f54c500ac3ce53fa3e856c9d11d2c264ce868dc070f7839"),
        ("TB D_02->D_12", "5f56d961fb5d083fdad513dfb3e0e2ced623de821baacc00eef763be3a715ee6"),
    ],
)
def test_table_output_snapshot(case, digest):
    # sha256 of fixed-seed outputs, recorded before the TN kernels were built
    # from their base kernels (the TB plan re-recorded at stream layout 5).
    # Tables stay byte-identical unless the stream layout changes, and a
    # layout bump updates these digests.
    if case == "TB D_02->D_12":
        null, alt = DesignId("1", 0, 2), DesignId("1", 1, 2)
        plan = StudyPlan("TB", null, alt, (150,), 1000, 1, bootstrap_b=100)
        text = _recorded_repr(estimate_power(plan))
    else:
        text = render_table(reproduce_table(case[-1], reps=5000, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


D_01_TABLE_2 = DesignId("2", 0, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: statistic_sample("To", D_01_TABLE_2, 50, 0, 1), r"^reps must be >= 1, got 0$"),
        (lambda: statistic_sample("To", D_01_TABLE_2, 9, 100, 1), r"^n must be >= 10, got 9$"),
        (lambda: make_fixture(7, 0), r"^n must be >= 10, got 7$"),
        (lambda: median_test_To([1.0, 2.0, np.nan, np.inf]),
         r"median_test_To: sample contains non-finite values, first at index 2 \(nan\)"),
        (lambda: bootstrap_t_test([np.inf, 1.0], 1.0),
         r"bootstrap_t_test: sample contains non-finite values, first at index 0 \(inf\)"),
        (lambda: estimate_power(_plan("To", D01_T1, D11_T1, [50], 1000), threads=0),
         r"^threads must be >= 1, got 0$"),
        (lambda: _plan("To", D01_T1, D11_T1, [50, 9], 1000), r"^ns\[1\] must be >= 10, got 9$"),
        (lambda: _plan("To", D01_T1, D11_T1, [], 1000), r"^ns must name at least one sample size$"),
        (lambda: render_table(TableReport("2", 1000, 0, 0.05, "quartic", 1000, (25,), ()),
                              "json"),
         r"format must be 'csv' or 'markdown', got 'json'"),
        (lambda: resample_power_study(make_fixture(100, 0), 150, 1000),
         r"10 <= n_b < sample size 100, got n_b=150"),
        (lambda: resample_power_study(make_fixture(100, 0), 70, 0), r"^reps must be >= 1, got 0$"),
        (lambda: median_test_To(np.ones((2, 5))),
         r"median_test_To: sample must be one-dimensional, got shape \(2, 5\)"),
        (lambda: resample_power_study(make_fixture(100, 0)[:9], 5, 100),
         r"resample study requires at least 11 observations, got 9"),
        (lambda: t_test_known_sigma(np.ones((2, 5)), 1.0),
         r"^t_test_known_sigma: sample must be one-dimensional"),
        (lambda: modified_mean_test([1.0, 2.0], 1.0),
         r"^modified_mean_test requires at least 3 observations, got 2"),
        (lambda: median_test_TN([1.0, np.inf, 2.0, 3.0]),
         r"^median_test_TN: sample contains non-finite values, first at index 1 \(inf\)"),
        (lambda: symmetry_test(np.ones((2, 5)), "T1"),
         r"^symmetry_test: sample must be one-dimensional"),
        (lambda: wilcoxon_signed_rank(np.ones((2, 5))),
         r"^wilcoxon_signed_rank: sample must be one-dimensional, got shape \(2, 5\)"),
        (lambda: t_test_known_sigma(np.arange(5.0), np.inf),
         r"^sigma must be positive and finite, got inf$"),
        (lambda: modified_mean_test(np.arange(5.0), np.inf),
         r"^sigma must be positive and finite, got inf$"),
        (lambda: bootstrap_t_test(np.arange(5.0), np.inf, stream=RandomStream(1, ("sb",))),
         r"^sigma must be positive and finite, got inf$"),
        (lambda: pow_indicators([5.5, 9.5], np.arange(10.0), 1.0),
         r"^alpha must lie strictly between 0 and 1, got 1\.0$"),
        (lambda: pow_indicators([5.5, 9.5], np.arange(10.0), np.nan),
         r"^alpha must lie strictly between 0 and 1, got nan$"),
        (lambda: pow_indicators([5.5, 9.5], np.arange(10.0).reshape(2, 5), 0.2),
         r"^null_stats must be one-dimensional, got shape \(2, 5\)$"),
        (lambda: pow_indicators([5.5, 9.5], np.arange(10.0), 0.05),
         r"^alpha \* reps must be at least 1, got alpha=0\.05, reps=10$"),
        (lambda: statistic_sample("To", D_01_TABLE_2, 50, 100, 1, moment_variant="cubic"),
         r"^moment_variant must be 'quartic' or 'quadratic', got 'cubic'$"),
        (lambda: statistic_sample("To", D_01_TABLE_2, 40.5, 1000, 1),
         r"^n must be an integer, got 40\.5$"),
        (lambda: statistic_sample("To", D_01_TABLE_2, 50, 1000.7, 1),
         r"^reps must be an integer, got 1000\.7$"),
        (lambda: statistic_sample("To", D_01_TABLE_2, 50, 1000, True),
         r"^root_seed must be an integer, got True$"),
        (lambda: reproduce_table("2", reps=1000.5, seed=0), r"^reps must be an integer, got 1000\.5$"),
        (lambda: reproduce_table("2", reps=1000, seed=1.5), r"^seed must be an integer, got 1\.5$"),
        (lambda: reproduce_table("2", reps=1000, seed=0, bootstrap_b=100.5),
         r"^bootstrap_b must be an integer, got 100\.5$"),
        (lambda: resample_power_study(make_fixture(100, 0), 70.5, 1000),
         r"^n_b must be an integer, got 70\.5$"),
        (lambda: resample_power_study(make_fixture(100, 0), 70, 1000, seed=1.5),
         r"^seed must be an integer, got 1\.5$"),
        (lambda: make_fixture(100, 1.5), r"^seed must be an integer, got 1\.5$"),
        (lambda: modified_mean_test(np.arange(5.0) * 1e160, 1e160, variant="Quartic"),
         r"^variant must be 'quartic' or 'quadratic', got 'Quartic'$"),
        (lambda: ker.moment_pieces(np.arange(5.0)[None], 1.0, "bogus"),
         r"^variant must be 'quartic' or 'quadratic', got 'bogus'$"),
        (lambda: toy_power_curve([0.1], sigma1=np.nan), r"^sigma1 must be positive and finite, got nan$"),
        (lambda: toy_power_curve([0.1], sigma2=np.inf), r"^sigma2 must be positive and finite, got inf$"),
        (lambda: toy_three_obs_powers([1.0], sigma3=np.nan),
         r"^sigma3 must be positive and finite, got nan$"),
        (lambda: ols_fit([1.0, np.nan, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
         r"^ols_fit y: sample contains non-finite values, first at index 1 \(nan\)$"),
        (lambda: ols_fit([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf]),
         r"^ols_fit z: sample contains non-finite values, first at index 2 \(-inf\)$"),
    ],
    ids=["statistic_sample-reps", "statistic_sample-n", "make_fixture-n", "test", "bootstrap",
         "threads", "StudyPlan-ns", "StudyPlan-ns-empty", "render_table-format", "resample-n_b", "resample-reps",
         "test-shape", "resample-size", "t_test_known_sigma", "modified_mean_test",
         "median_test_TN", "symmetry_test", "wilcoxon_signed_rank", "t_test_known_sigma-sigma",
         "modified_mean_test-sigma", "bootstrap_t_test-sigma", "pow_indicators-alpha",
         "pow_indicators-alpha-nan", "pow_indicators-null_stats-shape",
         "pow_indicators-alpha-reps", "statistic_sample-moment_variant",
         "statistic_sample-n-integer", "statistic_sample-reps-integer",
         "statistic_sample-root_seed-bool", "reproduce_table-reps-integer",
         "reproduce_table-seed-integer", "reproduce_table-bootstrap_b-integer",
         "resample-n_b-integer", "resample-seed-integer", "make_fixture-seed-integer",
         "modified_mean_test-variant-before-sigma", "moment_pieces-variant",
         "toy_power_curve-sigma1-nan", "toy_power_curve-sigma2-inf",
         "toy_three_obs_powers-sigma3-nan", "ols_fit-y-nan", "ols_fit-z-inf"],
)
def test_bad_input_errors_name_the_parameter_and_value(call, message):
    with pytest.raises(ValueError, match=message):
        call()


TOY_1 = DesignId("toy", 0, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bootstrap_t_test(np.arange(5.0), 1.0, n_boot=150.5, stream=RandomStream(1)),
         r"^n_boot must be an integer, got 150\.5$"),
        (lambda: sample_design_matrix(D01_T1, 10.5, 25, RandomStream(1)),
         r"^rows must be an integer, got 10\.5$"),
        (lambda: sample_design_matrix(D01_T1, 10, 25.0, RandomStream(1)),
         r"^n must be an integer, got 25\.0$"),
        (lambda: sample_design(D01_T1, 25.5, RandomStream(1)), r"^n must be an integer, got 25\.5$"),
        (lambda: estimate_power(_plan("To", D01_T1, D11_T1, [50], 1000), threads=1.5),
         r"^threads must be an integer, got 1\.5$"),
        (lambda: estimate_power(_plan("To", D01_T1, D11_T1, [50], 1000), threads=True),
         r"^threads must be an integer, got True$"),
        (lambda: reproduce_table("2", 1000, 1, threads=2.0), r"^threads must be an integer, got 2\.0$"),
        (lambda: RandomStream(1.5).generator(), r"^root_seed must be an integer, got 1\.5$"),
        (lambda: RandomStream(True), r"^root_seed must be an integer, got True$"),
        (lambda: _plan("To", D01_T1, D11_T1, [50], 999), r"^reps must be >= 1000, got 999$"),
        (lambda: _plan("To", D01_T1, D11_T1, [50], 1000, bootstrap_b=50),
         r"^bootstrap_b must be >= 100, got 50$"),
        (lambda: _plan("To", D01_T1, D11_T1, [np.int64(8)], 1000), r"^ns\[0\] must be >= 10, got 8$"),
        (lambda: sample_design_matrix(D01_T1, 0, 25, RandomStream(1)), r"^rows must be >= 1, got 0$"),
        (lambda: sample_design_matrix(D01_T1, 10, 1, RandomStream(1)), r"^n must be >= 2, got 1$"),
        (lambda: sample_design(D01_T1, 1, RandomStream(1)), r"^n must be >= 2, got 1$"),
        (lambda: sample_design(TOY_1, 0, RandomStream(1)), r"^n must be >= 1, got 0$"),
        (lambda: sample_design(TOY_1, 2.5, RandomStream(1)), r"^n must be an integer, got 2\.5$"),
        (lambda: bootstrap_t_test(np.arange(5.0), 1.0, n_boot=99, stream=RandomStream(1)),
         r"^n_boot must be >= 100, got 99$"),
        (lambda: thomas_transform(1.0, 2.5), r"^n must be an integer, got 2\.5$"),
        (lambda: thomas_transform(0.5, True), r"^n must be an integer, got True$"),
        (lambda: thomas_transform(0.5, 0), r"^n must be >= 1, got 0$"),
        (lambda: ker.check_integers(at_least=0, seed=np.int64(-2)), r"^seed must be >= 0, got -2$"),
    ],
    ids=["bootstrap_t_test-n_boot", "sample_design_matrix-rows", "sample_design_matrix-n",
         "sample_design-n", "estimate_power-threads", "estimate_power-threads-bool",
         "reproduce_table-threads", "RandomStream-root_seed", "RandomStream-root_seed-bool",
         "StudyPlan-reps-bound", "StudyPlan-bootstrap_b-bound", "StudyPlan-ns-bound-numpy",
         "sample_design_matrix-rows-bound", "sample_design_matrix-n-bound",
         "sample_design-n-bound", "sample_design-toy-n-bound", "sample_design-toy-n",
         "bootstrap_t_test-n_boot-bound", "thomas_transform-n-float", "thomas_transform-n-bool",
         "thomas_transform-n-bound", "check_integers-numpy-bound"],
)
def test_integer_parameters_are_checked_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _patch_record(monkeypatch, table, test, **fields):
    tests = power_module._TABLES[table].tests
    monkeypatch.setitem(tests, test, tests[test]._replace(**fields))


def test_engine_follows_a_patched_kernel(monkeypatch):
    # Every driver takes table 2's To from its record: shifting the record's
    # kernel by 0.5 shifts the statistics and the rank threshold, and moves
    # only To's rejections in the resample study.
    alt, n, seed = DesignId("2", 1, 1), 25, 2
    eps = make_fixture(100, 3)

    def runs():
        return (
            reproduce_table("2", reps=1000, seed=seed).cell(alt.label, "To", n),
            estimate_power(_plan("To", DesignId("2", 0, 1), alt, [n], 1000, seed=seed))[n],
            statistic_sample("To", alt, n, 1000, seed),
            resample_power_study(eps, 20, 2000, seed=seed),
        )

    cell0, est0, (stats0, degen0), study0 = runs()
    kernel = power_module._TABLES["2"].tests["To"].kernel

    def shifted(pieces):
        stat, reason, parts = kernel(pieces)
        return stat + 0.5, reason, parts

    _patch_record(monkeypatch, "2", "To", kernel=shifted)
    cell, est, (stats, degen), study = runs()
    assert repr(cell) == repr(est) and repr(cell0) == repr(est0)
    assert est.rank_threshold == est0.rank_threshold + 0.5
    assert est.powa > est0.powa and est.pow == est0.pow
    assert np.array_equal(stats, stats0 + 0.5) and np.array_equal(degen, degen0)
    assert study["To2"] != study0["To2"]
    assert (study["W"], study["TN2"]) == (study0["W"], study0["TN2"])


def test_engine_follows_a_patched_rule(monkeypatch):
    # Scored by the rank rule, W's cells take Pow from the rank threshold of
    # the matched null's statistics, in both drivers.
    null, alt, n, seed = DesignId("3", 0, 2), DesignId("3", 1, 2), 50, 3
    _patch_record(monkeypatch, "3", "W", rule=power_module.RANK)
    report = reproduce_table("3", reps=1000, seed=seed)
    est = estimate_power(_plan("W", null, alt, [n], 1000, seed=seed))[n]
    assert repr(est) == repr(report.cell(alt.label, "W", n))
    k = power_module._rank_k(0.05, 1000)
    threshold = np.sort(statistic_sample("W", null, n, 1000, seed)[0])[1000 - k - 1]
    stats, _ = statistic_sample("W", alt, n, 1000, seed)
    assert est.rank_threshold == threshold
    assert est.pow == np.count_nonzero(stats > threshold) / 1000
    assert est.powa == np.count_nonzero(stats > ker.normal_upper(0.05)) / 1000
    assert est.pow != est.powa


# Values of a chunked rank reduction: ties, -inf (the degenerate rows), NaN,
# +-0.0 and +inf next to ordinary floats.
RANK_VALUES = st.sampled_from([-np.inf, np.nan, -0.0, 0.0, np.inf, -2.0, -0.5, 0.25, 1.0, 1.5,
                               1.75, 2.5, 3.0])


@settings(deadline=None)
@given(
    st.integers(20, 120).flatmap(lambda reps: st.tuples(
        st.lists(RANK_VALUES, min_size=reps, max_size=reps),
        st.lists(RANK_VALUES, min_size=reps, max_size=reps))),
    st.integers(1, 50),
    st.floats(0.05, 0.6),
)
def test_chunked_rank_reduction_equals_whole_vector_threshold(vectors, size, alpha):
    # _Scores keeps a matched null's k + 1 largest values, merged chunk by
    # chunk, and counts the alternative's chunks against the smallest of
    # them.  Over any chunk split that is the whole null vector's
    # (reps - k)-th order statistic, read here from a sort (NaN last), and
    # the counts of the whole vectors, which pow_indicators gives too.
    null, alt = (np.array(v) for v in vectors)
    reps = null.size
    scores = power_module._Scores(reps, alpha)
    designs = {DesignId("2", 0, 1): null, DesignId("2", 1, 1): alt}
    for d, values in designs.items():  # matched nulls first, as _run_cells runs them
        reason = np.isneginf(values).astype(np.uint8)
        for lo in range(0, reps, size):
            hi = min(lo + size, reps)
            part = scores.chunk(d, 25, "To", values[lo:hi], reason[lo:hi])
            scores.add(d, 25, "To", part)
    null_cell = scores.cells[DesignId("2", 0, 1), 25, "To"]
    k = power_module._rank_k(alpha, reps)
    assert null_cell.top.size == k + 1
    if not np.isfinite(null).any():
        with pytest.raises(RuntimeError, match="all matched-null replications are degenerate"):
            pow_indicators(alt, null, alpha)
        assert not null_cell.finite
        return
    threshold = np.sort(null)[reps - k - 1]
    for d, values in designs.items():
        if np.isneginf(values).all():
            with pytest.raises(RuntimeError, match="all replications are degenerate"):
                scores.estimate(d, 25, "To")
            continue
        est = scores.estimate(d, 25, "To")
        assert est.rank_threshold == threshold or (
            math.isnan(threshold) and math.isnan(est.rank_threshold))
        assert est.pow == np.count_nonzero(values > threshold) / reps
        assert pow_indicators(values, null, alpha).sum() / reps == est.pow
        assert est.powa == np.count_nonzero(values > ker.normal_upper(alpha)) / reps
        assert est.degenerate_count == np.count_nonzero(np.isneginf(values))


def test_engine_memory_does_not_grow_with_reps():
    # Per cell the engine keeps counts and a matched null's k + 1 largest
    # values, not reps-long vectors, so the traced peak of a table at 4x
    # reps stays within 2 MB of its peak at 1x.  Keeping every chunk's
    # (values, reason) made it about 4 MB larger.
    def peak(reps):
        tracemalloc.start()
        try:
            reproduce_table("2", reps=reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    reproduce_table("2", reps=CHUNK, seed=1)  # first-call allocations
    one, four = peak(CHUNK), peak(4 * CHUNK)
    assert four - one < 2 * 2**20, (one, four)


def test_alternatives_wait_for_their_matched_null_under_threads(monkeypatch):
    # Workers count an alternative's chunks against its matched null's
    # threshold, so none may run before the null's last chunk is merged,
    # however late that chunk lands.  With the null's short tail chunk held
    # back, more workers than cores and a thread switch every microsecond,
    # the estimate is still the one-thread estimate.
    plan = _plan("To", DesignId("2", 0, 2), DesignId("2", 1, 2), [25], 4 * CHUNK + 5, seed=2)
    want = repr(estimate_power(plan))
    sample = power_module.sample_design_matrix

    def late_null_tail(did, rows, n, stream):
        if did.hypothesis == 0 and rows < CHUNK:
            time.sleep(0.2)
        return sample(did, rows, n, stream)

    monkeypatch.setattr(power_module, "sample_design_matrix", late_null_tail)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = repr(estimate_power(plan, threads=4))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_a_matched_null_without_a_finite_value_is_degenerate(monkeypatch):
    # A rank-scored kernel that returns -inf with no reason on every row
    # passes each cell's own degeneracy check, but leaves its matched nulls
    # with no threshold, in both drivers.
    kernel = power_module._TABLES["2"].tests["To"].kernel

    def minus_inf(pieces):
        stat, reason, parts = kernel(pieces)
        return np.full_like(stat, -np.inf), np.zeros_like(reason), parts

    _patch_record(monkeypatch, "2", "To", kernel=minus_inf)
    with pytest.raises(RuntimeError, match="all matched-null replications are degenerate"):
        reproduce_table("2", reps=1000, seed=1)
    plan = _plan("To", DesignId("2", 0, 1), DesignId("2", 1, 1), [25], 1000, seed=1)
    with pytest.raises(RuntimeError, match="all matched-null replications are degenerate"):
        estimate_power(plan)


def test_power_compares_no_test_name():
    # The engine reads what it knows of a test from the test's record, so no
    # comparison in power.py has a test name as an operand.
    names = {"W", "To", "T1", "TN", "TB"}
    tree = ast.parse(Path(power_module.__file__).read_text(encoding="utf-8"))
    found = [
        f"power.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in names
    ]
    assert found == []


def test_render_table_formats():
    rep = reproduce_table("2", reps=1000, seed=3, bootstrap_b=100)
    assert rep.stream_layout == STREAM_LAYOUT
    text = render_table(rep, fmt="csv")
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 13
    for row in parsed[1:]:
        for cell in row[2:]:
            assert cell == f"{float(cell):.3f}"
    md = render_table(rep, fmt="markdown")
    lines = md.strip().splitlines()
    assert len(lines) == 2 + 12  # header, rule, rows
    assert lines[0].startswith("|")
    empty = TableReport(
        table="2", reps=1000, root_seed=0, alpha=0.05, moment_variant="quartic",
        bootstrap_b=1000, ns=(25, 50, 75), rows=(),
    )
    assert render_table(empty).strip().splitlines() == [
        "design,test,powa_n25,pow_n25,powa_n50,pow_n50,powa_n75,pow_n75"
    ]
    with pytest.raises(ValueError):
        render_table(rep, fmt="html")


def test_rank_threshold_matches_normal_limit():
    # The known-sigma mean statistic is exactly standard normal under the
    # null, so the rank threshold of a To size plan (the (reps - k)-th
    # order statistic of the null vector) estimates 1.6449.
    def threshold(reps, alpha=0.05):
        plan = _plan("To", D01_T1, D01_T1, [150], reps, seed=8, alpha=alpha)
        return estimate_power(plan)[150].rank_threshold

    q = threshold(50000)
    se = math.sqrt(0.05 * 0.95 / 50000) / sps.norm.pdf(1.6449)
    assert q == pytest.approx(sps.norm.isf(0.05), abs=4.5 * se)
    assert threshold(2000) == threshold(2000)
    assert threshold(2000, alpha=0.01) > threshold(2000, alpha=0.10)
    with pytest.raises(ValueError):
        _plan("To", D11_T1, D11_T1, [150], 2000)
    with pytest.raises(ValueError):
        _plan("To", D01_T1, D01_T1, [150], 500)


def test_pow_indicators_invariant_under_increasing_transform():
    stats, _ = statistic_sample("To", D11_T1, 150, 3000, 6)
    null_stats, _ = statistic_sample("To", D01_T1, 150, 3000, 6)
    t2_alt, t2_null = stats**2, null_stats**2
    base = pow_indicators(t2_alt, t2_null, 0.05)
    squeezed = pow_indicators(
        thomas_transform(t2_alt, 150), thomas_transform(t2_null, 150), 0.05
    )
    assert np.array_equal(base, squeezed)
    monotone = pow_indicators(np.exp(t2_alt / 4.0), np.exp(t2_null / 4.0), 0.05)
    assert np.array_equal(base, monotone)
    assert base.sum() > 0


def test_toy_power_curve_closed_form():
    grid = default_a_grid()
    curve = toy_power_curve(grid)
    assert curve.shape == (92, 3)
    np.testing.assert_allclose(curve[:, 0], grid, atol=0)

    # Hand formula: power(a) = sf(z_alpha - 5 / sd(a)) with
    # sd(a)^2 = (0.5 + a)^2 + 16 (0.5 - a)^2; covariance is linear in a.
    z = sps.norm.isf(0.05)
    for j in (0, 25, 47, 91):
        a = grid[j]
        sd = math.sqrt((0.5 + a) ** 2 + 16.0 * (0.5 - a) ** 2)
        p0 = sps.norm.sf(z - 5.0 / math.sqrt(0.25 * 17.0))
        assert curve[j, 1] == pytest.approx(sps.norm.sf(z - 5.0 / sd) - p0, abs=1e-12)
        assert curve[j, 2] == pytest.approx(0.5 * (1.0 - 16.0) + a * 17.0, rel=1e-12)

    # The zero-covariance weight is 15/34, inside one grid step of the argmax.
    a_star = 15.0 / 34.0
    best = grid[np.argmax(curve[:, 1])]
    step = grid[1] - grid[0]
    assert abs(best - a_star) <= step / 2 + 1e-12
    roots = np.where(np.diff(np.sign(curve[:, 2])))[0]
    assert len(roots) == 1 and abs(grid[roots[0]] - a_star) <= step

    # At the exact optimum the combination matches the precision-weighted
    # estimator: sd(15/34)^2 = 16/17.
    exact = toy_power_curve(np.array([a_star]))
    sd_w = math.sqrt(16.0 / 17.0)
    p_weighted = sps.norm.sf(z - 5.0 / sd_w)
    p0 = sps.norm.sf(z - 5.0 / math.sqrt(0.25 * 17.0))
    assert exact[0, 1] == pytest.approx(p_weighted - p0, abs=1e-13)
    assert exact[0, 2] == pytest.approx(0.0, abs=1e-13)


def test_toy_equal_variances_make_mixing_flat():
    grid = np.linspace(0.0, 0.5, 11)
    curve = toy_power_curve(grid, sigma1=2.0, sigma2=2.0)
    # sd(a) = 2 sqrt((0.5+a)^2 + (0.5-a)^2) is minimized at a = 0... the
    # gain column must then be maximal at a = 0 and the covariance root sits
    # at a = 0 as well.
    assert np.argmax(curve[:, 1]) == 0
    assert curve[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_toy_three_obs_closed_forms():
    grid = default_mu_grid()
    table = toy_three_obs_powers(grid)
    assert table.shape == (101, 4)
    z = sps.norm.isf(0.05)
    # Variances: plain mean 26/9; decorrelated 3689/2601; weighted 144/169.
    sd_plain = math.sqrt(26.0 / 9.0)
    sd_decor = math.sqrt(3689.0 / 2601.0)
    sd_w = 12.0 / 13.0
    for j in (0, 30, 100):
        mu = grid[j]
        assert table[j, 1] == pytest.approx(sps.norm.sf(z - mu / sd_plain), abs=1e-12)
        assert table[j, 2] == pytest.approx(sps.norm.sf(z - mu / sd_decor), abs=1e-12)
        assert table[j, 3] == pytest.approx(sps.norm.sf(z - mu / sd_w), abs=1e-12)
    # Size at mu = 0 and the pointwise ordering.
    assert table[0, 1] == pytest.approx(0.05, abs=1e-13)
    assert np.all(table[:, 3] >= table[:, 2] - 1e-12)
    assert np.all(table[:, 2] >= table[:, 1] - 1e-12)


def test_toy_closed_form_against_monte_carlo():
    # Simulate the two-observation toy model and compare the rejection rate
    # of the a-weighted combination with the closed-form curve.
    from ancitest import list_designs, sample_design

    toy_alt = DesignId("toy", 1, 1)
    x = sample_design(toy_alt, 200_000, RandomStream(17, ("toycheck",)))
    a = 0.3
    z = sps.norm.isf(0.05)
    sd = math.sqrt((0.5 + a) ** 2 + 16.0 * (0.5 - a) ** 2)
    stat = ((0.5 + a) * x[:, 0] + (0.5 - a) * x[:, 1]) / sd
    rate = float(np.mean(stat > z))
    curve = toy_power_curve(np.array([0.0, a]))
    p0 = sps.norm.sf(z - 5.0 / math.sqrt(0.25 * 17.0))
    want = curve[1, 1] + p0
    assert rate == pytest.approx(want, abs=4.0 * math.sqrt(want * (1 - want) / 200_000))
