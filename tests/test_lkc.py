"""Curvature estimation: hand values, recovery on simulated fields,
coordinate invariance and the resel-convention consistency."""

import itertools
import math
import sys
import tracemalloc
from unittest import mock

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
from topostat import _parallel, lkc
from topostat.ecd import restrict
from topostat.lkc import FOUR_LOG2, lattice_smoothness
from topostat.simulate import SimConfig, effective_fwhm, gen_field

WHITE_NOISE_FWHM = math.sqrt(2.0 * math.log(2.0))  # lambda = 2 for iid values


def residual_set_from_raw(r):
    """Build a ResidualSet directly from raw residual-like fields (n, V)."""
    r = np.asarray(r, dtype=float)
    norms = np.sqrt((r * r).sum(axis=0))
    return ResidualSet(r=r, norms=norms, flagged=norms == 0)


def reference_gram_sqrt_det(diffs, diag, norms2):
    """sqrt|G| per component from whole-volume raw difference stacks, each
    entry divided by the base vertex's ||r||^2, with the diagonal G_kk given."""
    d = len(diffs)
    if d == 1:
        return np.sqrt(diag[0])
    if d == 2:
        g01 = (diffs[0] * diffs[1]).sum(axis=0) / norms2
        det = diag[0] * diag[1] - g01 * g01
        return np.sqrt(np.maximum(det, 0.0))
    g = np.empty((3, 3) + diffs[0].shape[1:])
    for i in range(3):
        g[i, i] = diag[i]
        for j in range(i + 1, 3):
            g[i, j] = g[j, i] = (diffs[i] * diffs[j]).sum(axis=0) / norms2
    det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2])
           - g[0, 1] * (g[0, 1] * g[2, 2] - g[1, 2] * g[0, 2])
           + g[0, 2] * (g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2]))
    return np.sqrt(np.maximum(det, 0.0))


def reference_edges(res, space, ax):
    """(whole-volume sum (dr)^2 / ||r_lo||^2 along ``ax``, its valid edges)."""
    d, dims = space.dimension, space.dims
    r = res.r.reshape((res.r.shape[0],) + dims)
    norms = res.norms.reshape(dims)
    usable = space.mask & ~res.flagged.reshape(dims)
    lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
    hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
    valid = usable[lo] & usable[hi]
    denom = np.where(valid, norms[lo], 1.0)
    delta = r[(slice(None),) + hi] - r[(slice(None),) + lo]
    return (delta * delta).sum(axis=0) / (denom * denom), valid


def reference_lattice_lkc_top(res, space):
    """Two-pass l_D: one whole-volume difference stack per axis. As in the
    kernel, the Gram diagonal is summed over each axis's whole edge stack
    and cropped to the cubes afterwards."""
    d, dims = space.dimension, space.dims
    base_shape = tuple(n - 1 for n in dims)
    r = res.r.reshape((res.r.shape[0],) + dims)
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
    r_base = r[(slice(None),) + base]
    denom = np.where(valid, norms[base], 1.0).ravel()
    diffs, diag = [], []
    for ax in range(d):
        delta = r[(slice(None),) + shifts[ax]] - r_base
        diffs.append(delta.reshape(r.shape[0], -1))
        diag.append(reference_edges(res, space, ax)[0][base].ravel())
    return float(reference_gram_sqrt_det(diffs, diag, denom * denom)[valid.ravel()].sum())


def reference_fwhm(res, space):
    """Two-pass per-axis FWHM: one whole-volume difference stack per axis."""
    out = np.empty(space.dimension)
    for ax in range(space.dimension):
        sq, valid = reference_edges(res, space, ax)
        lam = float(sq[valid].mean())
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
        res = ResidualSet(r=u, norms=np.ones(36), flagged=np.zeros(36, bool))
        assert lkc_top(res, space) == 0.0

    def test_1d_chain_total_variation(self):
        # unit vectors on the circle: edge contribution 2 sin(|dtheta|/2)
        theta = np.array([0.0, 0.3, 0.1, 0.7, 0.65])
        space = build_lattice((5,), np.ones(5, dtype=bool))
        u = np.stack([np.cos(theta), np.sin(theta)])
        res = ResidualSet(r=u, norms=np.ones(5), flagged=np.zeros(5, bool))
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
        res = ResidualSet(r=u, norms=np.ones(4), flagged=np.zeros(4, bool))
        space = build_lattice((4,), np.ones(4, dtype=bool))
        base = lkc_top(res, space)
        theta2 = np.array([0.0, 0.4, 0.4, 0.9])
        u2 = np.stack([np.cos(theta2), np.sin(theta2)])
        res2 = ResidualSet(r=u2, norms=np.ones(4), flagged=np.zeros(4, bool))
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
        res = ResidualSet(r=u, norms=np.ones(25), flagged=np.zeros(25, bool))
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


@given(n=st.integers(0, 10_000), unit_bytes=st.integers(1, 1 << 16),
       block_bytes=st.integers(8, 1 << 20))
def test_runs_cover_range_in_pieces_of_bounded_size(n, unit_bytes, block_bytes):
    # the one piece rule of the fit's slabs and the smoothness pass's pieces
    with mock.patch.object(_parallel, "BLOCK_BYTES", block_bytes):
        runs = _parallel._runs(n, unit_bytes)
    assert runs[0].start == 0 and runs[-1].stop == n
    assert all(a.stop == b.start for a, b in itertools.pairwise(runs))
    sizes = [r.stop - r.start for r in runs]
    assert len(runs) == 1 or min(sizes) >= 2  # no lone column, summed pairwise
    assert max(sizes) <= max(3, -(-block_bytes // unit_bytes))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       width=st.integers(1, 9) | st.integers(4095, 4097),
       layout=st.sampled_from(["contiguous", "strided", "offset"]),
       square=st.booleans(), into=st.booleans())
def test_dots_match_product_sums_bit_for_bit(seed, n, width, layout, square, into):
    # the column sums of the fit's SSR and the smoothness pass's Gram entries:
    # einsum on >= 2 columns, the product's sum on a lone column, which numpy
    # sums pairwise
    rng = np.random.default_rng(seed)

    def draw():
        x = rng.standard_normal((n, 2 * width + 1)) * 10.0 ** rng.integers(-6, 7, 2 * width + 1)
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        return {"contiguous": x[:, :width].copy(), "strided": x[:, :2 * width:2],
                "offset": x[:, 1:width + 1]}[layout]

    a = draw()
    b = a if square else draw()
    want = (a * b).sum(axis=0)
    out = np.full(width, np.nan) if into else None
    got = _parallel._dots(a, b, out=out)
    assert got.tobytes() == want.tobytes()
    assert out is None or got is out


class TestLatticeSmoothness:
    """The piece-parallel kernel against the two-pass reference, exactly,
    on 1-3 worker threads."""

    N_RES = 7
    DIMS = (12, 9, 8)
    # two planes' worth of stack per piece: rows 0-1 | 2-3 | ... | 10-11,
    # each 18 lines of 8 vertices
    LINES = [0, 18, 36, 54, 72, 90, 108]

    def _case(self, monkeypatch):
        plane_bytes = 8 * self.N_RES * self.DIMS[1] * self.DIMS[2]
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 2 * plane_bytes)
        assert lkc._pieces(self.DIMS, self.N_RES) == [
            slice(8 * a, 8 * b) for a, b in itertools.pairwise(self.LINES)]
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((self.N_RES,) + self.DIMS)
        for plane in (2, 3, 9):  # zero residuals on both sides of row edges ...
            raw[:, plane, 4, 2] = 0.0
            raw[:, plane, 0, 5] = 0.0
        raw[:, 6, 3, :] = 0.0  # ... and of a column edge
        raw[:, 7, 4, :] = 0.0
        mask = np.ones(self.DIMS, dtype=bool)
        mask[5, 1:4, 3] = False  # holes on the last plane of a piece ...
        mask[6, 7, :] = False    # ... on the first plane of the next
        mask[2:9, 3, 6] = False  # ... along a column edge
        mask[11, 0, 0] = False   # ... and past the last line with a cube
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
        # one piece, then the fewest lines a piece may hold
        for block_bytes in (_parallel.BLOCK_BYTES, 8):
            monkeypatch.setattr(_parallel, "BLOCK_BYTES", block_bytes)
            for n_workers in (1, 2, 3):
                with workers(n_workers):
                    top, fwhm = lattice_smoothness(res, space)
                assert top == want[0]
                np.testing.assert_array_equal(fwhm, want[1])

    def test_2d_single_block_13_x_64_x_64(self, workers):
        # the Monte Carlo caller's shape: one piece, whose flat shifts pair
        # the end of every row with the next row's start
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
        assert lkc._pieces(dims, 13) == [slice(0, 64 * 64)]
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        for n_workers in (1, 2):
            with workers(n_workers):
                top, fwhm = lattice_smoothness(res, space)
            assert top == want[0]
            np.testing.assert_array_equal(fwhm, want[1])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (9, 2), (2, 9, 2)])
    def test_lone_columns_summed_as_in_the_reference(self, monkeypatch, workers, dims):
        # with n >= 8 numpy sums a lone vertex's column pairwise: an all-length-2
        # lattice holds one cube, whose stack is one column in the reference
        # too, while a piece cut at the last cube line of (9, 2) or (2, 9, 2)
        # would hold one column of the reference's many. Such a sum changes
        # the result's last bit in a few draws of ten, so there are many, and
        # every count of pieces, so that some cut falls on that line.
        rng = np.random.default_rng(17)
        space = build_lattice(dims, np.ones(dims, dtype=bool))
        draws = [residual_set_from_raw(rng.standard_normal((13, math.prod(dims))))
                 for _ in range(100)]
        want = [(reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
                for res in draws]
        stack_bytes = 8 * 13 * math.prod(dims)
        for block_bytes in [_parallel.BLOCK_BYTES, 8] + [-(-stack_bytes // k) for k in range(2, 10)]:
            monkeypatch.setattr(_parallel, "BLOCK_BYTES", block_bytes)
            for n_workers in (1, 2, 3):
                with workers(n_workers):
                    got = [lattice_smoothness(res, space) for res in draws]
                for (top, fwhm), (top_want, fwhm_want) in zip(got, want):
                    assert top == top_want
                    np.testing.assert_array_equal(fwhm, fwhm_want)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
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
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", max(1, stack_bytes // n_blocks))
        pieces = lkc._pieces(dims, n_res)
        assert [p.start for p in pieces[1:]] == [p.stop for p in pieces[:-1]]
        assert pieces[0].start == 0 and pieces[-1].stop == math.prod(dims)
        assert all(p.start % dims[-1] == 0 for p in pieces)  # whole lines
        assert len(pieces) == 1 or min(p.stop - p.start for p in pieces) >= 2 * dims[-1]
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
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 8)
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
            assert peak <= 5 * 8 * n_vertices + 6 * n_workers * _parallel.BLOCK_BYTES

    def test_blocks_without_usable_vertices_skipped(self, monkeypatch, workers):
        # a disc mask leaves the first and last rows empty; skipping their pieces
        # changes no bit
        rng = np.random.default_rng(16)
        dims, n_res = (30, 30, 6), 5
        xx, yy = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
        disc = (xx - 14.5) ** 2 + (yy - 14.5) ** 2 <= 12.0 ** 2
        space = build_lattice(dims, np.repeat(disc[..., None], dims[2], axis=2))
        res = residual_set_from_raw(rng.standard_normal((n_res, math.prod(dims))))
        want = (reference_lattice_lkc_top(res, space), reference_fwhm(res, space))
        pieces, real_each = [], lkc._each

        def each(fn, blks):
            pieces.append(blks)
            real_each(fn, blks)

        monkeypatch.setattr(lkc, "_each", each)
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 8 * n_res * 9 * 9 * dims[2])
        cut = lkc._pieces(dims, n_res)
        for n_workers in (1, 2, 3):
            with workers(n_workers):
                top, fwhm = lattice_smoothness(res, space)
            assert top == want[0]
            np.testing.assert_array_equal(fwhm, want[1])
        assert 0 < len(pieces[-1]) < len(cut)
        # one piece holds the whole disc, so nothing is skipped
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", 1 << 40)
        with workers(2):
            assert lattice_smoothness(res, space)[0] == want[0]
        assert len(pieces[-1]) == 1


def u_form_smoothness(res, space):
    """(l_D, per-axis FWHM or None) in the normalized-residual form: u = r / ||r||
    formed first, each difference u_hi ||r_hi|| / ||r_lo|| - u_lo, and the Gram
    of those O(1) differences summed unscaled, over whole volumes."""
    u = res.r / np.where(res.flagged, 1.0, res.norms)
    u[:, res.flagged] = 0.0
    if not hasattr(space, "dims"):  # a mesh: one Gram per usable simplex
        d = space.dimension
        simplices = space.simplices[space.cell_minima(~res.flagged, d)]
        base = simplices[:, 0]
        diffs = [u[:, simplices[:, j]] * (res.norms[simplices[:, j]] / res.norms[base])
                 - u[:, base] for j in range(1, d + 1)]
        contrib = reference_gram_sqrt_det(diffs, [(x * x).sum(axis=0) for x in diffs], 1.0)
        return float(contrib.sum()) / math.factorial(d), None
    d, dims = space.dimension, space.dims
    u, norms = u.reshape((u.shape[0],) + dims), res.norms.reshape(dims)
    usable = space.mask & ~res.flagged.reshape(dims)

    def step(lo, hi, valid):
        ratio = norms[hi] / np.where(valid, norms[lo], 1.0)
        return u[(slice(None),) + hi] * ratio - u[(slice(None),) + lo]

    lam = []
    for ax in range(d):
        lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
        valid = usable[lo] & usable[hi]
        lam.append(float((step(lo, hi, valid) ** 2).sum(axis=0)[valid].mean()))
    base = tuple(slice(0, m - 1) for m in dims)
    shifts = [base[:ax] + (slice(1, None),) + base[ax + 1:] for ax in range(d)]
    valid = usable[base].copy()
    for sl in shifts:
        valid &= usable[sl]
    diffs = [step(base, sl, valid).reshape(u.shape[0], -1) for sl in shifts]
    contrib = reference_gram_sqrt_det(diffs, [(x * x).sum(axis=0) for x in diffs], 1.0)
    fwhm = np.array([np.inf if x == 0 else math.sqrt(FOUR_LOG2 / x) for x in lam])
    return float(contrib[valid.ravel()].sum()), fwhm


@st.composite
def glm_residual_cases(draw, kind, min_dof_over_d=None):
    """(ResidualSet, space): one-sample GLM residuals on a masked lattice of
    ``kind`` (1-3) axes or, for "mesh", a triangle mesh, a tenth of the vertices
    with zero residuals; with ``min_dof_over_d``, dof >= D + that many."""
    mesh = kind == "mesh"
    dims = tuple(draw(st.integers(2, 7 if mesh else 9)) for _ in range(2 if mesh else kind))
    d = len(dims)
    n_obs = draw(st.integers(2 if min_dof_over_d is None else d + 1 + min_dof_over_d, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n_obs, math.prod(dims)))
    data[:, rng.random(math.prod(dims)) < 0.1] = 0.0
    res = normalized_residuals(fit(data, DesignMatrix(np.ones((n_obs, 1)), ("mean",))))
    if mesh:
        return res, build_mesh(*unit_sheet_mesh(*dims))
    mask = rng.random(dims) >= 0.1
    mask.flat[0] = True
    return res, build_lattice(dims, mask)


def smoothness_or_none(res, space):
    """(l_D, per-axis FWHM or None), or None where the space has no usable component."""
    try:
        if hasattr(space, "dims"):
            return lattice_smoothness(res, space)
        return lkc_top(res, space), None
    except ValueError:
        return None


class TestRawResidualKernel:
    """The kernel takes differences of raw residuals over ||r_base||."""

    @pytest.mark.parametrize("kind", [1, 2, 3, "mesh"])
    @given(data=st.data(), k=st.integers(-200, 200))
    def test_power_of_two_scale_exact(self, kind, data, k):
        # r and ||r|| scaled by 2^k leave every Gram entry's bits as they were;
        # a Gram summed unscaled and divided only at the determinant would
        # overflow or underflow at the ends of the range, which every case visits
        res, space = data.draw(glm_residual_cases(kind))
        want = smoothness_or_none(res, space)
        for k in (k, -200, 200):
            scaled = ResidualSet(r=res.r * 2.0 ** k, norms=res.norms * 2.0 ** k,
                                 flagged=res.flagged)
            got = smoothness_or_none(scaled, space)
            assert (want is None) == (got is None)
            if want is not None:
                assert got[0] == want[0]
                np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind", [1, 2, 3, "mesh"])
    @given(data=st.data())
    def test_agrees_with_the_normalized_residual_form(self, kind, data):
        # with dof > D the Gram is regular, and the two forms differ by rounding;
        # at dof = D + 1 a near-singular cube or triangle can carry 2e-14 of it
        res, space = data.draw(glm_residual_cases(kind, min_dof_over_d=2))
        got = smoothness_or_none(res, space)
        if got is None:
            return
        want = u_form_smoothness(res, space)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14)
        if want[1] is not None:
            np.testing.assert_allclose(got[1], want[1], rtol=1e-14)


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
