"""GLM fitting, t maps, normalized residuals and Z equivalents."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from topostat import _parallel
from topostat import (
    DesignMatrix,
    FieldType,
    StatField,
    fit,
    glm,
    normalized_residuals,
    t_map,
    z_equivalent,
)


def ones_design(n):
    return DesignMatrix(np.ones((n, 1)), ("mean",))


def reference_fit(data, design):
    """The out-of-place fit: a full ``x @ betas`` temporary subtracted into
    new residuals, ``data`` left as it is. Returns (betas, residuals)."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    x = design.values
    betas = np.linalg.pinv(x, rcond=glm.RANK_RTOL) @ data
    return betas, data - x @ betas


def reference_normalize(r, design):
    """``r * r`` reduced once for sigma2 and once for the norms. Returns
    (sigma2, norms, flagged)."""
    sigma2 = (r * r).sum(axis=0) / (design.n_obs - design.rank)
    norms = np.sqrt((r * r).sum(axis=0))
    return sigma2, norms, norms == 0.0


def slab_matmul_fit(data, design):
    """The in-place fit as it was before the one-regressor product: slabs cut by
    ``_parallel._runs`` and ``x @ b`` at any regressor count. Returns
    (betas, residuals, ssr) on a copy of ``data``."""
    data = np.array(data, dtype=float)
    betas = design.pinv @ data
    ssr = np.empty(data.shape[1])
    for cols in _parallel._runs(data.shape[1], 8 * data.shape[0]):
        r = data[:, cols]
        r -= design.values @ betas[:, cols]
        (r * r).sum(axis=0, out=ssr[cols])
    return betas, data, ssr


def assert_same_bits(a, b):
    """Equal shape and bytes: unlike ==, this tells +0.0 from -0.0."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(data, design):
    betas, r = reference_fit(data, design)
    out = fit(data, design)
    # a float64 input becomes the residuals; anything else is converted first
    owned = out.residuals is data or out.residuals.base is data
    assert owned == (np.asarray(data).dtype == float)
    assert np.array_equal(out.betas, betas)
    if design.n_reg > 1:
        # A slab of x @ betas may round differently from the full product: allow
        # the dot-product error bound, then hold the rest to the fit's own residuals.
        eps = np.finfo(float).eps
        bound = 2 * design.n_reg * eps * (np.abs(design.values) @ np.abs(betas))
        assert (np.abs(out.residuals - r) <= bound).all()
        r = out.residuals.copy()
    assert np.array_equal(out.residuals, r)
    sigma2, norms, flagged = reference_normalize(r, design)
    assert np.array_equal(out.sigma2, sigma2)
    rs = normalized_residuals(out)
    assert rs.r is out.residuals and np.array_equal(rs.r, r)
    assert np.array_equal(rs.norms, norms)
    assert np.array_equal(rs.flagged, flagged)
    return rs


class TestOneResidualOwner:
    @given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(2, 40),
           n_vert=st.integers(0, 60), n_reg=st.integers(1, 3),
           slab=st.sampled_from([1, 3, 4, 7, 4096]),
           layout=st.sampled_from(["contiguous", "strided", "int"]))
    def test_bit_identical_to_two_call_path(self, seed, n_obs, n_vert, n_reg, slab, layout):
        rng = np.random.default_rng(seed)
        n_reg = min(n_reg, n_obs - 1)
        design = DesignMatrix(rng.standard_normal((n_obs, n_reg)),
                              tuple(f"x{i}" for i in range(n_reg)))
        data = rng.standard_normal((n_obs, 2 * n_vert)) * 10.0 ** rng.uniform(
            -6, 6, (n_obs, 2 * n_vert))
        data = {"contiguous": data[:, :n_vert].copy(), "strided": data[:, ::2],
                "int": np.rint(data[:, :n_vert]).astype(np.int64)}[layout]
        # slabs of about ``slab`` columns; 1 leaves the two-column floor of _runs
        with mock.patch.object(_parallel, "BLOCK_BYTES", 8 * n_obs * slab):
            assert_matches_reference(data, design)

    def test_large_n_slabs_exact_for_one_regressor(self):
        rng = np.random.default_rng(26)
        n_obs, n_vert = 20, 300_007  # 74 near-equal slabs
        design = DesignMatrix(rng.standard_normal((n_obs, 1)), ("x",))
        data = rng.standard_normal((n_obs, n_vert)) + rng.standard_normal((n_obs, 1)) * 4.0
        assert_matches_reference(data, design)

    @given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(2, 20),
           n_vert=st.sampled_from([1, 4095, 4096, 4097, 8193]),
           x=st.lists(st.sampled_from([1.0, -1.0, 2.5, -3e-3, 7e5, 0.0, -0.0]),
                      min_size=20, max_size=20))
    def test_one_regressor_product_matches_matmul_bits(self, seed, n_obs, n_vert, x):
        # x * b + 0.0 against the k = 1 x @ b, signed zeros included: a zero x
        # entry times a negative beta is -0.0, and data holds -0.0 entries
        x = np.array(x[:n_obs])
        x[0] = x[0] or 1.0  # rank 1
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n_obs, n_vert)) * 10.0 ** rng.integers(-3, 4, n_vert)
        data[rng.random(data.shape) < 0.2] = -0.0
        data[:, rng.random(n_vert) < 0.1] = 0.0
        design = DesignMatrix(x[:, None], ("x",))
        betas, residuals, ssr = slab_matmul_fit(data, design)
        out = fit(data, design)
        assert_same_bits(out.betas, betas)
        assert_same_bits(out.residuals, residuals)
        assert_same_bits(out.ssr, ssr)

    @pytest.mark.parametrize("n_reg", [0, 1, 2, 3, 4])
    def test_other_regressor_counts_keep_the_matmul(self, n_reg, workers):
        rng = np.random.default_rng(27)
        design = DesignMatrix(rng.standard_normal((12, n_reg)),
                              tuple(f"x{i}" for i in range(n_reg)))
        data = rng.standard_normal((12, 2 * _parallel.BLOCK_BYTES // (8 * 12) + 1))  # 3 slabs
        with workers(2):  # the slabs on worker threads, whatever the host's cores
            out = fit(data.copy(), design)
        for got, want in zip((out.betas, out.residuals, out.ssr), slab_matmul_fit(data, design)):
            assert_same_bits(got, want)

    def test_two_runs_of_slabs_on_any_core_count(self, workers):
        # one slab's fitted values per thread, two threads: test_no_second_stack's
        # bound holds on a host of many cores too
        data = np.random.default_rng(28).standard_normal((12, 5 * _parallel.BLOCK_BYTES // 96))
        design = DesignMatrix(np.ones((12, 1)), ("mean",))
        with workers(4), mock.patch.object(_parallel, "_each", wraps=_parallel._each) as each:
            fit(data, design)
        assert [len(call.args[1]) for call in each.call_args_list] == [2]

    def test_zero_residual_columns(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((9, 30))
        data[:, [0, 7, 29]] = 0.0
        rs = assert_matches_reference(data, ones_design(9))
        assert rs.flagged.nonzero()[0].tolist() == [0, 7, 29]

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(22)
        x = np.column_stack([np.ones(11), np.ones(11), np.arange(11.0)])
        design = DesignMatrix(x, ("a", "b", "ramp"))
        assert design.rank == 2
        assert_matches_reference(rng.standard_normal((11, 25)), design)

    @pytest.mark.parametrize("n_obs", [3, 8, 20, 40])
    def test_1d_data(self, n_obs):
        data = np.random.default_rng(23).standard_normal(n_obs) * 1e3
        assert_matches_reference(data, ones_design(n_obs))

    def test_no_second_stack(self):
        rng = np.random.default_rng(24)
        n_obs, n_vert = 40, 100_000
        data = rng.standard_normal((n_obs, n_vert))
        design = DesignMatrix(np.column_stack([np.ones(n_obs), np.arange(n_obs)]),
                              ("mean", "ramp"))
        assert design.rank == 2  # computed and cached before tracing
        vector = 8 * n_vert
        tracemalloc.start()
        try:
            out = fit(data, design)
            fit_peak = tracemalloc.get_traced_memory()[1]
            buffer = out.residuals
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rs = normalized_residuals(out)
            norm_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # betas, the SSR and at most two slabs of fitted values, one per half
        # of the slabs running on the workers, each about a block; a third
        # block is headroom for the thread pool's own small allocations
        assert fit_peak <= (design.n_reg + 1) * vector + 3 * _parallel.BLOCK_BYTES
        assert norm_peak <= 2 * vector  # the norms and the flags
        assert buffer is data and rs.r is data and out.residuals is data

    def test_fit_is_normalized_once(self):
        # the residuals are shared, never divided: a second call sees the same
        # buffer and values, and the fit keeps its residuals
        out = fit(np.random.default_rng(25).standard_normal((6, 10)), ones_design(6))
        r = out.residuals.copy()
        rs, again = normalized_residuals(out), normalized_residuals(out)
        assert rs.r is again.r is out.residuals
        np.testing.assert_array_equal(out.residuals, r)
        np.testing.assert_array_equal(again.norms, rs.norms)
        assert np.array_equal(out.sigma2, out.ssr / out.dof)


class TestFit:
    def test_ones_column_hand_values(self):
        out = fit(np.array([[1.0], [2.0], [3.0]]), ones_design(3))
        assert out.betas[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(out.residuals[:, 0], [-1.0, 0.0, 1.0])
        assert out.sigma2[0] == pytest.approx(1.0)
        assert out.dof == 2

    def test_data_in_column_space(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2))
        coef = np.array([[1.5], [-0.5]])
        out = fit(x @ coef, DesignMatrix(x, ("a", "b")))
        np.testing.assert_allclose(out.residuals, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.sigma2, 0.0, atol=1e-24)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        data = rng.standard_normal((10, 40))
        oracle = np.linalg.solve(x.T @ x, x.T @ data)
        out = fit(data, DesignMatrix(x, ("a", "b", "c")))
        np.testing.assert_allclose(out.betas, oracle, atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        data = rng.standard_normal((12, 25))
        out = fit(data, DesignMatrix(x, tuple("abcd")))
        inner = x.T @ out.residuals
        scale = np.linalg.norm(x) * np.linalg.norm(out.residuals)
        assert np.abs(inner).max() < 1e-8 * scale

    def test_zero_dof_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            fit(np.eye(2), DesignMatrix(np.eye(2), ("a", "b")))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            fit(np.ones((4, 1)), ones_design(3))


class TestDesignFactors:
    """A design's rank, pinv(X) and (X'X)^+ are computed once and cannot go stale."""

    def test_values_are_a_read_only_copy(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 4.0]])
        design = DesignMatrix(x, ("mean", "slope"))
        with pytest.raises(ValueError, match="read-only"):
            design.values[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            design.pinv[0, 0] = 5.0
        x[0, 0] = 5.0  # the caller's own array stays writable and apart
        assert design.values[0, 0] == 1.0

    def test_integer_values_become_float64(self):
        design = DesignMatrix(np.ones((5, 1), dtype=int), ("mean",))
        assert design.values.dtype == np.float64

    def test_csv_blank_rows_skipped(self, tmp_path):
        # a trailing newline, or a blank line between rows, loads the same matrix
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("mean,ramp\n1,0\n1,1\n1,2\n")
        blank.write_text("mean,ramp\n\n1,0\n1,1\n\n1,2\n\n\n")
        want, got = DesignMatrix.from_csv(plain), DesignMatrix.from_csv(blank)
        assert got.regressor_names == want.regressor_names == ("mean", "ramp")
        assert_same_bits(got.values, want.values)

    def test_factors_computed_once_per_design(self):
        design = DesignMatrix(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 3.0], [1.0, 4.0]]),
                              ("mean", "slope"))
        rng = np.random.default_rng(4)
        with mock.patch.object(np.linalg, "pinv", wraps=np.linalg.pinv) as pinv:
            for _ in range(5):
                t_map(fit(rng.standard_normal((4, 30)), design), [0.0, 1.0])
        assert pinv.call_count == 2  # pinv(X), and (X'X)^+ for the variance factor


class TestTMap:
    def test_one_sample_hand_value(self):
        out = fit(np.array([[1.0], [2.0], [3.0]]), ones_design(3))
        stat = t_map(out, [1.0])
        assert stat.values[0] == pytest.approx(2.0 / np.sqrt(1.0 / 3.0), abs=1e-4)
        assert stat.field_type == FieldType.student_t(2)

    def test_zero_contrast_gives_zero(self):
        rng = np.random.default_rng(4)
        out = fit(rng.standard_normal((6, 10)),
                  DesignMatrix(rng.standard_normal((6, 2)), ("a", "b")))
        stat = t_map(out, [0.0, 0.0])
        np.testing.assert_array_equal(stat.values, 0.0)

    def test_paired_design_matches_ttest_rel(self):
        rng = np.random.default_rng(5)
        n_sub, n_vert = 9, 30
        cond_a = rng.standard_normal((n_sub, n_vert))
        cond_b = cond_a + 0.4 + rng.standard_normal((n_sub, n_vert))
        data = np.concatenate([cond_a, cond_b], axis=0)
        condition = np.concatenate([np.zeros(n_sub), np.ones(n_sub)])
        subjects = np.tile(np.eye(n_sub), (2, 1))
        x = np.column_stack([condition, subjects])
        design = DesignMatrix(x, ("cond",) + tuple(f"s{i}" for i in range(n_sub)))
        stat = t_map(fit(data, design), [1.0] + [0.0] * n_sub)
        oracle = stats.ttest_rel(cond_b, cond_a, axis=0).statistic
        np.testing.assert_allclose(stat.values, oracle, atol=1e-8)
        assert stat.field_type.dof == n_sub - 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((7, 15))
        design = ones_design(7)
        t2 = t_map(fit(data * 3.7, design), [1.0]).values
        t1 = t_map(fit(data, design), [1.0]).values
        np.testing.assert_allclose(t1, t2, rtol=1e-12)

    def test_shift_by_column_space(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 2))
        design = DesignMatrix(x, ("a", "b"))
        data = rng.standard_normal((9, 12))
        v = np.array([2.0, -1.0])
        f2 = fit(data + (x @ v)[:, None], design)
        f1 = fit(data, design)
        np.testing.assert_allclose(f2.betas, f1.betas + v[:, None], atol=1e-10)
        np.testing.assert_allclose(f2.residuals, f1.residuals, atol=1e-10)
        np.testing.assert_allclose(f2.sigma2, f1.sigma2, atol=1e-12)
        r1, r2 = normalized_residuals(f1), normalized_residuals(f2)
        np.testing.assert_allclose(r1.r, r2.r, atol=1e-10)
        np.testing.assert_allclose(r1.norms, r2.norms, atol=1e-10)

    def test_zero_variance_vertices(self):
        data = np.array([[1.0, -2.0, 0.0]] * 4)  # constant over observations
        stat = t_map(fit(data, ones_design(4)), [1.0])
        assert stat.values[0] == np.inf
        assert stat.values[1] == -np.inf
        assert stat.values[2] == 0.0

    def test_non_estimable_contrast_rejected(self):
        x = np.column_stack([np.ones(6), np.ones(6)])  # rank 1
        out = fit(np.random.default_rng(8).standard_normal((6, 3)),
                  DesignMatrix(x, ("a", "b")))
        with pytest.raises(ValueError, match="estimable"):
            t_map(out, [1.0, -1.0])
        # the summed contrast lies in the row space and is fine
        t_map(out, [0.5, 0.5])

    def test_vertexwise_false_positive_rate(self):
        # white-noise calibration: tail beyond t_crit(0.05) hits 5%
        rng = np.random.default_rng(11)
        n_obs, n_vert = 8, 200_000
        data = rng.standard_normal((n_obs, n_vert))
        stat = t_map(fit(data, ones_design(n_obs)), [1.0])
        t_crit = stats.t.isf(0.05, n_obs - 1)
        rate = (stat.values >= t_crit).mean()
        ci = 3 * np.sqrt(0.05 * 0.95 / n_vert)
        assert abs(rate - 0.05) < ci


class TestNormalizedResiduals:
    def test_three_four_five(self):
        # regressor only explains the first observation, leaving residuals
        # (0, 3, 4) of length 5, whose unit version is (0, 0.6, 0.8)
        out = fit(np.array([[0.0], [3.0], [4.0]]),
                  DesignMatrix(np.array([[1.0], [0.0], [0.0]]), ("x",)))
        rs = normalized_residuals(out)
        np.testing.assert_allclose(rs.r[:, 0], [0.0, 3.0, 4.0])
        assert rs.norms[0] == pytest.approx(5.0)
        assert not rs.flagged[0]
        np.testing.assert_allclose(rs.r[:, 0] / rs.norms[0], [0.0, 0.6, 0.8])

    def test_zero_residuals_flagged(self):
        out = fit(np.array([[2.0], [2.0], [2.0]]), ones_design(3))
        rs = normalized_residuals(out)
        assert rs.flagged[0] and rs.norms[0] == 0.0
        np.testing.assert_array_equal(rs.r[:, 0], 0.0)

    def test_unit_norm_property(self):
        rng = np.random.default_rng(12)
        out = fit(rng.standard_normal((10, 500)), ones_design(10))
        rs = normalized_residuals(out)
        np.testing.assert_allclose(rs.norms, np.sqrt((rs.r ** 2).sum(axis=0)), rtol=1e-14)
        u = rs.r[:, ~rs.flagged] / rs.norms[~rs.flagged]
        np.testing.assert_allclose(np.sqrt((u ** 2).sum(axis=0)), 1.0, atol=1e-10)


class TestZEquivalent:
    def test_paper_table_values(self):
        ft12 = FieldType.student_t(12)
        ft11 = FieldType.student_t(11)
        assert z_equivalent(StatField(np.array([8.71]), ft12))[0] == \
            pytest.approx(4.80, abs=0.02)
        assert z_equivalent(StatField(np.array([6.86]), ft12))[0] == \
            pytest.approx(4.29, abs=0.02)
        assert z_equivalent(StatField(np.array([9.05]), ft11))[0] == \
            pytest.approx(4.75, abs=0.02)

    def test_zero_and_symmetry(self):
        ft = FieldType.student_t(7)
        z = z_equivalent(StatField(np.array([-3.0, 0.0, 3.0]), ft))
        assert z[1] == pytest.approx(0.0, abs=1e-12)
        assert z[0] == pytest.approx(-z[2], abs=1e-12)

    def test_strictly_increasing(self):
        t = np.linspace(-6, 6, 101)
        z = z_equivalent(StatField(t, FieldType.student_t(9)))
        assert np.all(np.diff(z) > 0)

    def test_large_dof_limit(self):
        t = np.linspace(0.0, 5.0, 26)
        z = z_equivalent(StatField(t, FieldType.student_t(1e6)))
        assert np.abs(z - t).max() < 1e-3

    def test_gaussian_passthrough(self):
        t = np.array([-1.0, 0.5, 4.0])
        np.testing.assert_array_equal(
            z_equivalent(StatField(t, FieldType.gaussian())), t)

    def test_far_tail_stability(self):
        # oracle: 80-digit incomplete-beta tail inverted against the
        # Gaussian tail with mpmath gives z = 36.2118033151
        z = z_equivalent(StatField(np.array([80.0]), FieldType.student_t(500)))
        assert z[0] == pytest.approx(36.2118033151, abs=1e-6)
