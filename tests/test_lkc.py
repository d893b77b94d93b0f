"""Curvature estimation: hand values, recovery on simulated fields,
coordinate invariance and the resel-convention consistency."""

import math

import numpy as np
import pytest

from topostat import (
    DesignMatrix,
    ResidualSet,
    ReselVector,
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


def reference_gram_sqrt_det(diffs):
    """sqrt|G| per component from whole-volume difference stacks."""
    d = len(diffs)
    if d == 1:
        return np.sqrt((diffs[0] * diffs[0]).sum(axis=0))
    if d == 2:
        g00 = (diffs[0] * diffs[0]).sum(axis=0)
        g11 = (diffs[1] * diffs[1]).sum(axis=0)
        g01 = (diffs[0] * diffs[1]).sum(axis=0)
        det = g00 * g11 - g01 * g01
        return np.sqrt(np.maximum(det, 0.0))
    g = np.empty((3, 3) + diffs[0].shape[1:])
    for i in range(3):
        for j in range(i, 3):
            g[i, j] = g[j, i] = (diffs[i] * diffs[j]).sum(axis=0)
    det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2])
           - g[0, 1] * (g[0, 1] * g[2, 2] - g[1, 2] * g[0, 2])
           + g[0, 2] * (g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2]))
    return np.sqrt(np.maximum(det, 0.0))


def reference_lattice_lkc_top(res, space):
    """Two-pass l_D: one whole-volume difference stack per axis."""
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
    diffs = []
    for ax in range(d):
        n_nb = norms[shifts[ax]]
        denom = np.where(valid, n_base, 1.0)
        delta = (u[(slice(None),) + shifts[ax]] * (n_nb / denom)
                 - u_base * (n_base / denom))
        diffs.append(delta.reshape(u.shape[0], -1))
    return float(reference_gram_sqrt_det(diffs)[valid.ravel()].sum())


def reference_fwhm(res, space):
    """Two-pass per-axis FWHM: one whole-volume difference stack per axis."""
    d, dims = space.dimension, space.dims
    u = res.u.reshape((res.u.shape[0],) + dims)
    norms = res.norms.reshape(dims)
    usable = space.mask & ~res.flagged.reshape(dims)
    out = np.empty(d)
    for ax in range(d):
        lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
        valid = usable[lo] & usable[hi]
        denom = np.where(valid, norms[lo], 1.0)
        delta = (u[(slice(None),) + hi] * (norms[hi] / denom)
                 - u[(slice(None),) + lo] * (norms[lo] / denom))
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
        rv = ReselVector.from_top_resels(230.3, intrinsic_volumes(space))
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
    """The slab-streamed kernel against the two-pass reference, exactly."""

    N_RES = 7
    DIMS = (11, 9, 8)
    HEIGHT = 3  # planes per slab: boundaries between planes 2|3, 5|6, 8|9

    def _case(self, monkeypatch):
        plane_bytes = 8 * self.N_RES * self.DIMS[1] * self.DIMS[2]
        monkeypatch.setattr(lkc, "SLAB_BYTES", self.HEIGHT * plane_bytes)
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((self.N_RES,) + self.DIMS)
        for plane in (2, 3, 8):  # zero residuals on both sides of boundaries
            raw[:, plane, 4, 2] = 0.0
            raw[:, plane, 0, 5] = 0.0
        raw[:, 6, :, 7] = 0.0
        mask = np.ones(self.DIMS, dtype=bool)
        mask[5, 1:4, 3] = False  # holes on the last plane of a slab ...
        mask[6, 7, :] = False    # ... and on the first plane of the next
        mask[9, 2, 2] = False
        mask[10, 0, 0] = False
        res = residual_set_from_raw(raw.reshape(self.N_RES, -1))
        assert res.flagged.sum() == 6 + 9
        return res, build_lattice(self.DIMS, mask)

    def test_3d_across_slabs(self, monkeypatch):
        res, space = self._case(monkeypatch)
        top, fwhm = lattice_smoothness(res, space)
        assert top == reference_lattice_lkc_top(res, space)
        np.testing.assert_array_equal(fwhm, reference_fwhm(res, space))
        assert lkc_top(res, space) == top
        np.testing.assert_array_equal(fwhm_estimate(res, space), fwhm)

    def test_3d_time_window_region(self, monkeypatch):
        res, space = self._case(monkeypatch)
        region = restrict(space, time_window=(2, 5))
        top, fwhm = lattice_smoothness(res, space, region)
        assert top == reference_lattice_lkc_top(res, region)
        assert top < reference_lattice_lkc_top(res, space)
        np.testing.assert_array_equal(fwhm, reference_fwhm(res, space))

    @pytest.mark.parametrize("dims", [(40,), (17, 13)])
    def test_1d_2d(self, monkeypatch, dims):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((5,) + dims)
        raw[(slice(None),) + tuple(n // 2 for n in dims)] = 0.0
        mask = np.ones(dims, dtype=bool)
        mask[(3,) * len(dims)] = False
        res = residual_set_from_raw(raw.reshape(5, -1))
        space = build_lattice(dims, mask)
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        for slab_bytes in (lkc.SLAB_BYTES, 8 * 5 * int(np.prod(dims[1:]))):
            monkeypatch.setattr(lkc, "SLAB_BYTES", slab_bytes)
            top, fwhm = lattice_smoothness(res, space)
            assert top == want[0]
            np.testing.assert_array_equal(fwhm, want[1])


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
