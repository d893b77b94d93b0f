"""Curvature estimation: hand values, recovery on simulated fields,
coordinate invariance and the resel-convention consistency."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topostat import (
    DesignMatrix,
    ResidualSet,
    build_lattice,
    build_mesh,
    fit,
    fwhm_estimate,
    intrinsic_volumes,
    lkc_top,
    lkc_vector,
    normalized_residuals,
)
from topostat import lkc
from topostat.ecd import restrict
from topostat.lkc import FOUR_LOG2, lattice_smoothness
from topostat.simulate import SimConfig, effective_fwhm, gen_field

WHITE_NOISE_FWHM = math.sqrt(2.0 * math.log(2.0))  # lambda = 2 for iid values


def residual_set_from_raw(r):
    """Build a ResidualSet directly from raw residual-like fields (n, V)."""
    r = np.asarray(r, dtype=float)
    norms = np.sqrt((r * r).sum(axis=0))
    flagged = norms == 0
    u = np.where(flagged, 0.0, r / np.where(flagged, 1.0, norms))
    return ResidualSet(u=u, norms=norms, flagged=flagged)


def reference_gram_sqrt_det(diffs, diag):
    """sqrt|G| per component from whole-volume difference stacks, with the
    diagonal G_kk given."""
    d = len(diffs)
    if d == 1:
        return np.sqrt(diag[0])
    if d == 2:
        g01 = (diffs[0] * diffs[1]).sum(axis=0)
        det = diag[0] * diag[1] - g01 * g01
        return np.sqrt(np.maximum(det, 0.0))
    g = np.empty((3, 3) + diffs[0].shape[1:])
    for i in range(3):
        g[i, i] = diag[i]
        for j in range(i + 1, 3):
            g[i, j] = g[j, i] = (diffs[i] * diffs[j]).sum(axis=0)
    det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2])
           - g[0, 1] * (g[0, 1] * g[2, 2] - g[1, 2] * g[0, 2])
           + g[0, 2] * (g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2]))
    return np.sqrt(np.maximum(det, 0.0))


def reference_edges(res, space, ax):
    """(whole-volume difference stack along ``ax``, its valid edges)."""
    d, dims = space.dimension, space.dims
    u = res.u.reshape((res.u.shape[0],) + dims)
    norms = res.norms.reshape(dims)
    usable = space.mask & ~res.flagged.reshape(dims)
    lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
    hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
    valid = usable[lo] & usable[hi]
    denom = np.where(valid, norms[lo], 1.0)
    delta = (u[(slice(None),) + hi] * (norms[hi] / denom)
             - u[(slice(None),) + lo] * (norms[lo] / denom))
    return delta, valid


def reference_lattice_lkc_top(res, space):
    """Two-pass l_D: one whole-volume difference stack per axis. As in the
    kernel, the Gram diagonal is summed over each axis's whole edge stack
    and cropped to the cubes afterwards."""
    d, dims = space.dimension, space.dims
    base_shape = tuple(n - 1 for n in dims)
    u = res.u.reshape((res.u.shape[0],) + dims)
    norms = res.norms.reshape(dims)
    usable = space.mask & ~res.flagged.reshape(dims)
    base = tuple(slice(0, n) for n in base_shape)
    valid = usable[base].copy()
    shifts = []
    for ax in range(d):
        sl = tuple(slice(1, None) if a == ax else slice(0, base_shape[a])
                   for a in range(d))
        shifts.append(sl)
        valid &= usable[sl]
    u_base, n_base = u[(slice(None),) + base], norms[base]
    diffs, diag = [], []
    for ax in range(d):
        n_nb = norms[shifts[ax]]
        denom = np.where(valid, n_base, 1.0)
        delta = (u[(slice(None),) + shifts[ax]] * (n_nb / denom)
                 - u_base * (n_base / denom))
        diffs.append(delta.reshape(u.shape[0], -1))
        edges, _ = reference_edges(res, space, ax)
        diag.append((edges * edges).sum(axis=0)[base].ravel())
    return float(reference_gram_sqrt_det(diffs, diag)[valid.ravel()].sum())


def reference_fwhm(res, space):
    """Two-pass per-axis FWHM: one whole-volume difference stack per axis."""
    out = np.empty(space.dimension)
    for ax in range(space.dimension):
        delta, valid = reference_edges(res, space, ax)
        lam = float((delta * delta).sum(axis=0)[valid].mean())
        out[ax] = np.inf if lam == 0 else math.sqrt(FOUR_LOG2 / lam)
    return out


def unit_sheet_mesh(nx, ny):
    """Triangulated rectangle with unit grid spacing."""
    vx, vy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    verts = np.column_stack([vx.ravel(), vy.ravel()]).astype(float)
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b = i * ny + j, (i + 1) * ny + j
            c, d = i * ny + j + 1, (i + 1) * ny + j + 1
            tris.append((a, b, c))
            tris.append((b, d, c))
    return verts, np.array(tris)


class TestLkcTop:
    def test_constant_residuals_zero(self):
        space = build_lattice((6, 6), np.ones(36, dtype=bool))
        u = np.tile(np.array([0.6, 0.8])[:, None], (1, 36))
        res = ResidualSet(u=u, norms=np.ones(36), flagged=np.zeros(36, bool))
        assert lkc_top(res, space) == 0.0

    def test_1d_chain_total_variation(self):
        # unit vectors on the circle: edge contribution 2 sin(|dtheta|/2)
        theta = np.array([0.0, 0.3, 0.1, 0.7, 0.65])
        space = build_lattice((5,), np.ones(5, dtype=bool))
        u = np.stack([np.cos(theta), np.sin(theta)])
        res = ResidualSet(u=u, norms=np.ones(5), flagged=np.zeros(5, bool))
        hand = sum(2.0 * math.sin(abs(d) / 2.0) for d in np.diff(theta))
        assert lkc_top(res, space) == pytest.approx(hand, rel=1e-12)

    def test_no_complete_components_raises(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        space = build_lattice((4, 4), mask)
        rng = np.random.default_rng(0)
        res = residual_set_from_raw(rng.standard_normal((5, 16)))
        with pytest.raises(ValueError, match="no complete components"):
            lkc_top(res, space)

    def test_flagged_components_skipped_and_all_flagged_raises(self):
        verts, tris = unit_sheet_mesh(3, 3)
        mesh = build_mesh(verts, tris)
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((6, 9))
        res = residual_set_from_raw(raw)
        full = lkc_top(res, mesh)
        raw_flag = raw.copy()
        raw_flag[:, 4] = 0.0  # centre vertex touches every triangle but four
        res_flag = residual_set_from_raw(raw_flag)
        partial = lkc_top(res_flag, mesh)
        assert 0 < partial < full
        raw_all = np.zeros_like(raw)
        raw_all[:, 0] = rng.standard_normal(6)
        with pytest.raises(ValueError, match="flagged"):
            lkc_top(residual_set_from_raw(raw_all), mesh)

    def test_monotone_in_components(self):
        # adding one more active component strictly increases l_D
        theta = np.array([0.0, 0.4, 0.4, 0.4])
        u = np.stack([np.cos(theta), np.sin(theta)])
        res = ResidualSet(u=u, norms=np.ones(4), flagged=np.zeros(4, bool))
        space = build_lattice((4,), np.ones(4, dtype=bool))
        base = lkc_top(res, space)
        theta2 = np.array([0.0, 0.4, 0.4, 0.9])
        u2 = np.stack([np.cos(theta2), np.sin(theta2)])
        res2 = ResidualSet(u=u2, norms=np.ones(4), flagged=np.zeros(4, bool))
        assert lkc_top(res2, space) > base

    def test_coordinate_invariance_exact(self):
        verts, tris = unit_sheet_mesh(8, 8)
        mesh = build_mesh(verts, tris)
        rng = np.random.default_rng(2)
        res = residual_set_from_raw(rng.standard_normal((10, mesh.n_points)))
        reference = lkc_top(res, mesh)
        # smooth warp within the plane
        warped2d = np.column_stack([
            verts[:, 0] + 0.3 * np.sin(verts[:, 1]),
            1.7 * verts[:, 1] - 0.1 * verts[:, 0] ** 2,
        ])
        # inflate into three dimensions
        warped3d = np.column_stack([
            np.cos(verts[:, 0] / 3.0), np.sin(verts[:, 0] / 3.0), verts[:, 1] ** 1.5,
        ])
        for coords in (warped2d, warped3d):
            assert lkc_top(res, build_mesh(coords, tris)) == reference


class TestLkcVector:
    def test_unit_roughness_reduces_to_mu(self):
        mu = intrinsic_volumes(build_lattice((4, 5, 6), np.ones(120, bool)))
        rv = lkc_vector(mu[3], mu)
        np.testing.assert_allclose(rv.lkc, mu.mu, rtol=1e-14)

    def test_zero_top(self):
        mu = intrinsic_volumes(build_lattice((4, 5, 6), np.ones(120, bool)))
        rv = lkc_vector(0.0, mu)
        assert rv.lkc[0] == mu[0]
        assert rv.lkc[1:] == (0.0, 0.0, 0.0)

    def test_table_box_interpolation(self):
        # oracle: scale = (resels_3/mu_3)^(1/3) applied per dimension,
        # evaluated with inline arithmetic on the 64 x 64 x 442 box
        a = b = 63.0
        c = 441.0
        mu3 = a * b * c
        mu2 = a * b + (a + b) * c
        mu1 = a + b + c
        scale = (230.3 / mu3) ** (1.0 / 3.0)
        want = (1.0, mu1 * scale, mu2 * scale ** 2, 230.3)
        space = build_lattice((64, 64, 442), np.ones(64 * 64 * 442, dtype=bool))
        rv = lkc_vector(230.3 * FOUR_LOG2 ** 1.5, intrinsic_volumes(space))
        np.testing.assert_allclose(rv.resels, want, rtol=1e-12)
        # the reported rounded values
        assert rv.resels[2] == pytest.approx(153, abs=1.5)
        assert rv.resels[1] == pytest.approx(28.6, abs=0.4)
        assert rv.resels[0] == 1.0

    def test_resel_lkc_consistency(self):
        # resels from l_d/(4ln2)^(d/2) and from the mu interpolation agree
        mu = intrinsic_volumes(build_lattice((9, 9, 9), np.ones(729, bool)))
        rv = lkc_vector(37.5, mu)
        top_resels = 37.5 / FOUR_LOG2 ** 1.5
        for d in range(4):
            via_lkc = rv.lkc[d] / FOUR_LOG2 ** (d / 2.0)
            via_mu = mu[d] * (top_resels / mu[3]) ** (d / 3.0)
            assert rv.resels[d] == pytest.approx(via_lkc, rel=1e-12)
            assert rv.resels[d] == pytest.approx(via_mu, rel=1e-12)

    def test_non_finite_top_rejected(self):
        mu = intrinsic_volumes(build_lattice((4, 5), np.ones(20, bool)))
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                lkc_vector(bad, mu)

    def test_nonpositive_mu_rejected(self):
        from topostat.domain import IntrinsicVolumes
        with pytest.raises(ValueError, match="mu_D"):
            lkc_vector(1.0, IntrinsicVolumes((1.0, 2.0, 0.0)))


class TestFwhmEstimate:
    def test_constant_field_infinite(self):
        space = build_lattice((5, 5), np.ones(25, dtype=bool))
        u = np.tile(np.array([1.0, 0.0])[:, None], (1, 25))
        res = ResidualSet(u=u, norms=np.ones(25), flagged=np.zeros(25, bool))
        np.testing.assert_array_equal(fwhm_estimate(res, space), np.inf)

    def test_white_noise_width(self):
        rng = np.random.default_rng(4)
        space = build_lattice((32, 32), np.ones(1024, dtype=bool))
        res = residual_set_from_raw(rng.standard_normal((120, 1024)))
        est = fwhm_estimate(res, space)
        np.testing.assert_allclose(est, WHITE_NOISE_FWHM, rtol=0.10)

    def test_smoothed_field_recovery(self):
        cfg = SimConfig(dims=(48, 48), fwhm=(8.0, 8.0), n_realizations=30, seed=5)
        raw = np.stack([gen_field(cfg, i).ravel() for i in range(30)])
        res = residual_set_from_raw(raw - raw.mean(axis=0))
        space = build_lattice((48, 48), np.ones(48 * 48, dtype=bool))
        est = fwhm_estimate(res, space)
        np.testing.assert_allclose(est, 8.0, rtol=0.15)

    def test_no_edges_along_axis(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[:, 1] = True  # no in-mask edges along axis 1
        space = build_lattice((3, 3), mask)
        rng = np.random.default_rng(6)
        res = residual_set_from_raw(rng.standard_normal((4, 9)))
        with pytest.raises(ValueError, match="axis 1"):
            fwhm_estimate(res, space)


class TestLatticeSmoothness:
    """The block-parallel kernel against the two-pass reference, exactly,
    on 1-3 worker threads."""

    N_RES = 7
    DIMS = (12, 9, 8)
    # two planes' worth of stack per block: rows 0-2 | 3-5 | 6-8 | 9-11 (the
    # last block has the fewest planes a cut piece may have: 3, so 2 rows of
    # cubes), columns 0-3 | 4-8
    ROWS = [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)]
    COLS = [slice(0, 4), slice(4, 9)]

    def _case(self, monkeypatch):
        plane_bytes = 8 * self.N_RES * self.DIMS[1] * self.DIMS[2]
        monkeypatch.setattr(lkc, "BLOCK_BYTES", 2 * plane_bytes)
        assert lkc._blocks(self.DIMS, self.N_RES) == list(
            itertools.product(self.ROWS, self.COLS))
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((self.N_RES,) + self.DIMS)
        for plane in (2, 3, 9):  # zero residuals on both sides of row edges ...
            raw[:, plane, 4, 2] = 0.0
            raw[:, plane, 0, 5] = 0.0
        raw[:, 6, 3, :] = 0.0  # ... and of a column edge
        raw[:, 7, 4, :] = 0.0
        mask = np.ones(self.DIMS, dtype=bool)
        mask[5, 1:4, 3] = False  # holes on the last plane of a block ...
        mask[6, 7, :] = False    # ... on the first plane of the next
        mask[2:9, 3, 6] = False  # ... along a column edge
        mask[11, 0, 0] = False   # ... and in the last block
        res = residual_set_from_raw(raw.reshape(self.N_RES, -1))
        assert res.flagged.sum() == 6 + 2 * 8
        return res, build_lattice(self.DIMS, mask)

    def test_3d_across_slabs(self, monkeypatch, workers):
        res, space = self._case(monkeypatch)
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        for n_workers in (1, 2, 3):
            with workers(n_workers):
                top, fwhm = lattice_smoothness(res, space)
                assert top == want[0]
                np.testing.assert_array_equal(fwhm, want[1])
                assert lkc_top(res, space) == top
                np.testing.assert_array_equal(fwhm_estimate(res, space), fwhm)

    def test_3d_time_window_region(self, monkeypatch, workers):
        res, space = self._case(monkeypatch)
        region = restrict(space, time_window=(2, 5))
        for n_workers in (1, 2, 3):
            with workers(n_workers):
                top, fwhm = lattice_smoothness(res, space, region)
            assert top == reference_lattice_lkc_top(res, region)
            assert top < reference_lattice_lkc_top(res, space)
            np.testing.assert_array_equal(fwhm, reference_fwhm(res, space))

    @pytest.mark.parametrize("dims", [(40,), (17, 13)])
    def test_1d_2d(self, monkeypatch, workers, dims):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((12,) + dims)
        raw[(slice(None),) + tuple(n // 2 for n in dims)] = 0.0
        mask = np.ones(dims, dtype=bool)
        mask[(3,) * len(dims)] = False
        res = residual_set_from_raw(raw.reshape(12, -1))
        space = build_lattice(dims, mask)
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        # one block, then the fewest vertices a block may hold
        for block_bytes in (lkc.BLOCK_BYTES, 8):
            monkeypatch.setattr(lkc, "BLOCK_BYTES", block_bytes)
            for n_workers in (1, 2, 3):
                with workers(n_workers):
                    top, fwhm = lattice_smoothness(res, space)
                assert top == want[0]
                np.testing.assert_array_equal(fwhm, want[1])

    def test_2d_single_block_13_x_64_x_64(self, workers):
        # the Monte Carlo caller's shape: one block, whose axes merge into one
        # flat axis with wrap-around positions at the end of every row
        rng = np.random.default_rng(15)
        dims = (64, 64)
        raw = rng.standard_normal((13,) + dims)
        raw[:, 10, 63] = 0.0  # a flagged vertex at a row end ...
        raw[:, 11, 0] = 0.0   # ... and at the next row's start
        mask = np.ones(dims, dtype=bool)
        mask[40, 5:9] = False  # holes inside a row ...
        mask[20:30, 63] = False  # ... and at row ends
        res = residual_set_from_raw(raw.reshape(13, -1))
        space = build_lattice(dims, mask)
        assert lkc._blocks(dims, 13) == [(slice(0, 64), slice(0, 64))]
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        for n_workers in (1, 2):
            with workers(n_workers):
                top, fwhm = lattice_smoothness(res, space)
            assert top == want[0]
            np.testing.assert_array_equal(fwhm, want[1])

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dims=st.lists(st.integers(2, 9), min_size=1, max_size=3),
           n_res=st.integers(1, 24), n_blocks=st.integers(1, 100),
           holes=st.sampled_from([0.0, 0.1]), n_workers=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_any_blocking_exact(self, monkeypatch, workers, dims, n_res, n_blocks,
                                holes, n_workers, seed):
        # n_res >= 8 is where numpy would sum a lone vertex's column pairwise
        dims = tuple(dims)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n_res,) + dims)
        raw[:, rng.random(dims) < holes] = 0.0
        mask = rng.random(dims) >= holes
        mask.flat[0] = True
        space = build_lattice(dims, mask)
        res = residual_set_from_raw(raw.reshape(n_res, -1))
        stack_bytes = 8 * n_res * math.prod(dims)
        monkeypatch.setattr(lkc, "BLOCK_BYTES", max(1, stack_bytes // n_blocks))
        blocks = lkc._blocks(dims, n_res)
        for axis, cut in enumerate(zip(*blocks)):
            pieces = sorted({(p.start, p.stop) for p in cut})
            assert [a for a, _ in pieces[1:]] == [b for _, b in pieces[:-1]]
            assert pieces[0][0] == 0 and pieces[-1][1] == dims[axis]
            assert len(pieces) == 1 or min(b - a for a, b in pieces) >= 3
        with workers(n_workers):
            try:
                top, fwhm = lattice_smoothness(res, space)
            except ValueError:
                assert reference_lattice_lkc_top(res, space) == 0.0  # no complete cube
                return
        assert top == reference_lattice_lkc_top(res, space)
        np.testing.assert_array_equal(fwhm, reference_fwhm(res, space))

    def test_many_workers_short_switch_interval(self, monkeypatch, workers):
        # more workers than cores and a thread switch every microsecond: a
        # block writing outside its own part of the outputs changes the bits
        rng = np.random.default_rng(14)
        dims = (13, 11, 9)
        res = residual_set_from_raw(rng.standard_normal((12, math.prod(dims))))
        space = build_lattice(dims, rng.random(dims) < 0.95)
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        monkeypatch.setattr(lkc, "BLOCK_BYTES", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with workers(8):
                for _ in range(5):
                    top, fwhm = lattice_smoothness(res, space)
                    assert top == want[0]
                    np.testing.assert_array_equal(fwhm, want[1])
        finally:
            sys.setswitchinterval(interval)

    def test_temporaries_bounded_by_blocks(self, workers):
        # past the per-vertex outputs (four float volumes, their masks and the
        # final reductions' copies), the memory is a few blocks per worker,
        # however large the lattice
        for n_workers, dims in itertools.product((1, 4), [(24, 24, 40), (96, 48, 40)]):
            n_vertices = int(np.prod(dims))
            rng = np.random.default_rng(13)
            res = residual_set_from_raw(rng.standard_normal((20, n_vertices)))
            space = build_lattice(dims, np.ones(dims, dtype=bool))
            with workers(n_workers):
                tracemalloc.start()
                try:
                    lattice_smoothness(res, space)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 5 * 8 * n_vertices + 6 * n_workers * lkc.BLOCK_BYTES


class TestRecovery:
    def test_lattice_recovery_48_cube(self):
        # GLM residuals (n=20) on smooth fields recover the generator
        # resel count; interior-corrected target is (48-1)^3 / fwhm^3
        dims, fwhm, n_res, n_rep = (48, 48, 48), 6.0, 20, 50
        space = build_lattice(dims, np.ones(int(np.prod(dims)), dtype=bool))
        mu = intrinsic_volumes(space)
        design = DesignMatrix(np.ones((n_res, 1)), ("mean",))
        estimates = []
        fwhm_checks = []
        for rep in range(n_rep):
            cfg = SimConfig(dims=dims, fwhm=(fwhm,) * 3,
                            n_realizations=n_res, seed=1000 + rep)
            data = np.stack([gen_field(cfg, i).ravel() for i in range(n_res)])
            res = normalized_residuals(fit(data, design))
            top = lkc_top(res, space)
            rv = lkc_vector(top, mu)
            estimates.append(rv.resels[3])
            fwhm_checks.append(fwhm_estimate(res, space))
        mean_resels = float(np.mean(estimates))
        target = (48 - 1) ** 3 / fwhm ** 3
        assert mean_resels == pytest.approx(target, rel=0.10)
        # internal consistency of the two smoothness estimators:
        # resels_3 ~= mu_3 / prod(per-axis FWHM) within 10%
        mean_fwhm = np.mean(fwhm_checks, axis=0)
        assert mean_resels == pytest.approx(mu[3] / np.prod(mean_fwhm), rel=0.10)

    def test_effective_fwhm_close_to_nominal(self):
        cfg = SimConfig(dims=(32, 32), fwhm=(6.0, 6.0), n_realizations=1, seed=0)
        eff = effective_fwhm(cfg)
        np.testing.assert_allclose(eff, 6.0, rtol=0.02)
        cfg0 = SimConfig(dims=(32,), fwhm=(0.0,), n_realizations=1, seed=0)
        assert effective_fwhm(cfg0)[0] == pytest.approx(WHITE_NOISE_FWHM)
