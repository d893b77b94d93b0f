"""Interpolation, stacking, smoothing and time-frequency decomposition."""

import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from topostat import build_mesh
from topostat.preproc import (
    SensorLayout,
    _gaussian_kernel,
    _kernel_radius,
    band_average,
    gaussian_smooth,
    interpolate_to_grid,
    laplacian_smooth,
    morlet_tf,
    stack_time,
    time_mean_reference,
)


def ring_layout(n=12, radius=1.0):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pos = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    pos = np.vstack([pos, [0.0, 0.0]])
    return SensorLayout(pos, tuple(f"s{i}" for i in range(n + 1)))


class TestInterpolation:
    def test_constant_values_reproduced(self):
        layout = ring_layout()
        grid, mask = interpolate_to_grid(layout, np.full(13, 4.25), (32, 32))
        assert mask.any()
        np.testing.assert_allclose(grid[mask], 4.25, atol=1e-12)

    def test_plane_reproduced(self):
        layout = ring_layout()
        a, b = 1.5, -0.75
        values = a * layout.positions[:, 0] + b * layout.positions[:, 1]
        grid, mask = interpolate_to_grid(layout, values, (64, 64))
        gx = np.linspace(-1, 1, 64)
        want = a * gx[:, None] + b * gx[None, :]
        np.testing.assert_allclose(grid[mask], want[mask], atol=1e-10)

    def test_triangle_centroid_barycentric(self):
        layout = SensorLayout(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
                              ("a", "b", "c"))
        values = np.array([1.0, 0.0, 0.0])
        # 4x4 grid over the bounding box puts node (1,1) at (1,1): inside
        grid, mask = interpolate_to_grid(layout, values, (4, 4))
        assert mask[1, 1]
        assert grid[1, 1] == pytest.approx(1.0 - 1.0 / 3.0 - 1.0 / 3.0, abs=1e-12)

    def test_outside_hull_masked(self):
        layout = ring_layout()
        _, mask = interpolate_to_grid(layout, np.zeros(13), (32, 32))
        assert not mask[0, 0]  # grid corner lies outside the disc

    def test_sensor_positions_recovered(self):
        # a grid node coinciding with a sensor reproduces its value
        layout = SensorLayout(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]),
            ("a", "b", "c", "d"))
        values = np.array([1.0, 2.0, 3.0, 4.0])
        grid, mask = interpolate_to_grid(layout, values, (3, 3))
        assert grid[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert grid[2, 0] == pytest.approx(2.0, abs=1e-12)
        assert grid[0, 2] == pytest.approx(3.0, abs=1e-12)
        assert grid[2, 2] == pytest.approx(4.0, abs=1e-12)

    def test_too_few_or_collinear_sensors(self):
        with pytest.raises(ValueError, match="3 sensors"):
            interpolate_to_grid(
                SensorLayout(np.array([[0.0, 0.0], [1.0, 1.0]]), ("a", "b")),
                [1.0, 2.0])
        collinear = SensorLayout(
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
            ("a", "b", "c", "d"))
        with pytest.raises(ValueError, match="degenerate"):
            interpolate_to_grid(collinear, [0.0, 1.0, 2.0, 3.0])


class TestStack:
    def test_single_slice(self):
        vol, mask = stack_time([np.ones((64, 64))])
        assert vol.shape == (64, 64, 1)
        assert mask.shape == (64, 64, 1)

    def test_constant_along_time(self):
        s = np.arange(16.0).reshape(4, 4)
        vol, _ = stack_time([s, s, s])
        assert np.all(vol[..., 0] == vol[..., 2])

    def test_index_values(self):
        slices = [np.full((3, 3), float(k)) for k in range(5)]
        vol, _ = stack_time(slices)
        for k in range(5):
            np.testing.assert_array_equal(vol[..., k], float(k))

    def test_mask_mismatch_rejected(self):
        m1 = np.ones((3, 3), dtype=bool)
        m2 = m1.copy()
        m2[0, 0] = False
        with pytest.raises(ValueError, match="masks differ"):
            stack_time([np.zeros((3, 3))] * 2, [m1, m2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            stack_time([np.zeros((3, 3)), np.zeros((4, 3))])


def reference_smooth(volume, fwhm, mask=None):
    """The out-of-place smoothing path: a new output stack, and a masked
    copy of each observation convolved into new arrays; ``volume`` is not
    written. It walks the observations instead of reshaping to
    (-1, *dims), which fails on zero-size volumes."""
    volume = np.asarray(volume, dtype=float)
    stack = mask is not None and np.shape(mask) == volume.shape[1:]
    dims = volume.shape[1:] if stack else volume.shape
    kernels = [(ax, _gaussian_kernel(f)) for ax, f in enumerate(fwhm) if f > 0]
    kernels = [(ax, k / k.sum()) for ax, k in kernels]
    mask_arr = np.ones(dims, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    den = mask_arr.astype(float)
    for ax, k in kernels:
        den = ndimage.convolve1d(den, k, axis=ax, mode="constant")
    inside = mask_arr & (den > 0)
    out = np.zeros_like(volume)
    for vol, smoothed in zip(volume if stack else volume[None], out if stack else out[None]):
        num = np.where(mask_arr, vol, 0.0)
        for ax, k in kernels:
            num = ndimage.convolve1d(num, k, axis=ax, mode="constant")
        np.divide(num, den, out=smoothed, where=inside)
    return out


@st.composite
def smoothing_cases(draw):
    """(make_volume, fwhm, mask): make_volume() returns a fresh copy of a
    stack of 0-3 volumes, or of one with an all-True mask, 1-3 axes of 0-7
    points, masks with holes and NaN outside them, and float, strided float
    or int input."""
    n_axes = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(0, 7), min_size=n_axes, max_size=n_axes)))
    fwhm = draw(st.lists(st.sampled_from([0.0, 0.7, 1.5, 3.0]),
                         min_size=n_axes, max_size=n_axes))
    n_obs = draw(st.none() | st.integers(0, 3))
    masked = n_obs is not None or draw(st.booleans())
    layout = draw(st.sampled_from(["contiguous", "strided", "int"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 if n_obs is None else n_obs,) + dims
    wide = rng.standard_normal(shape[:-1] + (2 * shape[-1],)) * 10.0
    mask = rng.random(dims) < 0.7 if masked else np.ones(dims, dtype=bool)

    def make_volume():
        fresh = wide.copy()
        volume = {"contiguous": fresh[..., :shape[-1]].copy(), "strided": fresh[..., ::2],
                  "int": np.rint(fresh[..., :shape[-1]]).astype(np.int64)}[layout]
        if masked and layout != "int":
            np.copyto(volume, np.nan, where=~mask)
        return volume

    return make_volume, fwhm, mask


class TestGaussianSmooth:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=smoothing_cases())
    def test_in_place_matches_out_of_place(self, case, workers):
        make_volume, fwhm, mask = case
        expected = reference_smooth(make_volume(), fwhm, mask)
        for n_workers in (1, 2, 3):
            volume = make_volume()
            with workers(n_workers):
                got = gaussian_smooth(volume, fwhm, mask=mask)
            assert np.array_equal(got, expected)
            # a float64 input is the output; anything else is converted first
            assert (got is volume) == (volume.dtype == float)

    def test_many_workers_short_switch_interval(self, workers):
        # more workers than cores and a thread switch every microsecond: a
        # piece writing outside its own part of a volume changes the bits
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 17, 13, 11))
        mask = rng.random((17, 13, 11)) < 0.9
        want = reference_smooth(stack, (2.0, 0.0, 3.0), mask)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with workers(8):
                for _ in range(5):
                    got = gaussian_smooth(stack.copy(), (2.0, 0.0, 3.0), mask=mask)
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_extra_memory_independent_of_n_obs(self, workers):
        rng = np.random.default_rng(5)
        dims = (24, 24, 24)
        mask = rng.random(dims) < 0.9
        volume_bytes = 8 * mask.size
        for n_workers, n_obs in itertools.product((1, 4), (2, 16)):
            stack = rng.standard_normal((n_obs,) + dims)
            with workers(n_workers):
                tracemalloc.start()
                try:
                    gaussian_smooth(stack, (3.0, 3.0, 4.0), mask=mask)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            # one normalizer volume and the outside mask, shared by the
            # workers, which smooth each observation in place
            assert peak <= 4 * volume_bytes

    def test_constant_volume_unchanged(self):
        vol = np.full((1, 12, 12, 8), 3.5)
        out = gaussian_smooth(vol, (6.0, 6.0, 4.0), np.ones((12, 12, 8), dtype=bool))
        np.testing.assert_allclose(out, 3.5, atol=1e-12)

    def test_constant_with_mask_unchanged(self):
        rng = np.random.default_rng(0)
        mask = rng.random((10, 10)) < 0.8
        mask[0, 0] = True
        vol = np.where(mask, 2.0, 123.0)  # junk outside must not leak in
        out = gaussian_smooth(vol[None], (4.0, 4.0), mask=mask)[0]
        np.testing.assert_allclose(out[mask], 2.0, atol=1e-12)
        np.testing.assert_array_equal(out[~mask], 0.0)

    def test_zero_fwhm_is_identity(self):
        rng = np.random.default_rng(1)
        vol = rng.standard_normal((6, 7))
        everywhere = np.ones(vol.shape, dtype=bool)
        np.testing.assert_array_equal(gaussian_smooth(vol[None].copy(), (0.0, 0.0),
                                                      everywhere)[0], vol)

    def test_delta_impulse_peak_and_width(self):
        n = 41
        vol = np.zeros((n, n, n))
        vol[20, 20, 20] = 1.0
        out = gaussian_smooth(vol[None], (8.0, 8.0, 8.0), np.ones(vol.shape, dtype=bool))[0]
        sigma = 8.0 / math.sqrt(8 * math.log(2))
        radius = int(math.ceil(4 * sigma))
        x = np.arange(-radius, radius + 1)
        k = np.exp(-x * x / (2 * sigma * sigma))
        k /= k.sum()
        assert out[20, 20, 20] == pytest.approx(k[radius] ** 3, rel=1e-10)
        # full width at half maximum along the centre line, measured by
        # linear interpolation of the crossing points
        prof = out[:, 20, 20]
        half = prof.max() / 2.0
        above = np.flatnonzero(prof >= half)
        lo, hi = above[0], above[-1]
        left = lo - 1 + (half - prof[lo - 1]) / (prof[lo] - prof[lo - 1])
        right = hi + (prof[hi] - half) / (prof[hi] - prof[hi + 1])
        assert right - left == pytest.approx(8.0, abs=0.5)

    def test_white_noise_autocorrelation(self):
        # smoothing white noise leaves a Gaussian ACF of width fwhm*sqrt(2):
        # at lag = fwhm the correlation is exactly 1/4. The interior, a
        # kernel radius from every edge, is plain convolution.
        rng = np.random.default_rng(2)
        fwhm = 6.0
        vol = rng.standard_normal((512, 512))
        r = _kernel_radius(fwhm)
        everywhere = np.ones(vol.shape, dtype=bool)
        interior = gaussian_smooth(vol[None], (fwhm, fwhm), everywhere)[0, r:-r, r:-r]
        centered = interior - interior.mean()
        lag = int(fwhm)
        num = (centered[lag:] * centered[:-lag]).mean()
        acf = num / (centered * centered).mean()
        assert acf == pytest.approx(0.25, rel=0.10)

    def test_masked_mean_preserved_for_constants(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 3:8] = True
        vol = np.where(mask, 7.0, 0.0)
        out = gaussian_smooth(vol[None], (5.0, 5.0), mask=mask)[0]
        assert out[mask].mean() == pytest.approx(7.0, abs=1e-10)

    def test_negative_fwhm_rejected(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                gaussian_smooth(np.zeros((1, 4, 4)), (bad, 2.0), np.ones((4, 4), dtype=bool))

    @pytest.mark.parametrize("dims, fwhm", [((9, 7), (3.0, 2.0)), ((30,), 3.0)])
    def test_stack_matches_per_volume(self, dims, fwhm):
        # each observation is smoothed as a stack of it alone would be,
        # also for 1D volumes with a single width
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((5,) + dims)
        mask = rng.random(dims) < 0.8
        out = gaussian_smooth(stack.copy(), fwhm, mask=mask)
        assert out.shape == stack.shape
        for vol, got in zip(stack, out):
            np.testing.assert_array_equal(got, gaussian_smooth(vol[None].copy(), fwhm,
                                                               mask=mask)[0])

    def test_volume_with_a_mask_of_its_own_shape_rejected(self):
        # only an (n_obs, *mask.shape) stack is smoothed, and a mask is required
        with pytest.raises(ValueError, match="n_obs"):
            gaussian_smooth(np.zeros((5, 5)), 2.0, np.ones((5, 5), dtype=bool))
        with pytest.raises(TypeError, match="mask"):
            gaussian_smooth(np.zeros((1, 5, 5)), 2.0)


def _smoothed_sum(volume):
    return float(gaussian_smooth(volume[None], 2.0, np.ones(volume.shape, dtype=bool)).sum())


def test_forked_child_smooths_without_the_parents_pool(workers):
    # a forked child inherits the pool object but none of its threads
    volume = np.random.default_rng(6).standard_normal((8, 8, 8))
    with workers(2):
        want = _smoothed_sum(volume.copy())  # starts the pool
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_smoothed_sum, (volume.copy(),)).get(timeout=60) == want


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("shape", [(23,), (9, 14), (7, 8, 12)])
def test_ndimage_convolve1d_in_place_matches_out_of_place(shape, layout):
    # gaussian_smooth convolves each observation into itself: this holds because
    # a 1-D ndimage filter copies every line into its buffer before writing it
    # back. A SciPy release that breaks that contract fails here by name.
    rng = np.random.default_rng(8)
    wide = rng.standard_normal(tuple(2 * n for n in shape))
    for fwhm, ax in itertools.product((0.7, 3.0, 9.0), range(len(shape))):
        k = _gaussian_kernel(fwhm)
        k /= k.sum()
        x = wide[tuple(slice(None, None, 2) for _ in shape)]
        if layout == "contiguous":
            x = x.copy()
        assert x.flags.c_contiguous == (layout == "contiguous")
        want = ndimage.convolve1d(x, k, axis=ax, mode="constant")
        ndimage.convolve1d(x, k, axis=ax, mode="constant", output=x)
        assert np.array_equal(x, want)


def test_smoothing_memory_is_the_normalizer(workers):
    # whole observations smoothed in place: past the stack, the normalizer and
    # the masks, at any worker count (a first call, untraced, starts the pool)
    rng = np.random.default_rng(9)
    dims = (24, 24, 24)
    mask = rng.random(dims) < 0.9
    for n_workers in (1, 2, 4):
        stack = rng.standard_normal((6,) + dims)
        with workers(n_workers):
            gaussian_smooth(stack.copy(), (3.0, 3.0, 4.0), mask=mask)
            tracemalloc.start()
            try:
                gaussian_smooth(stack, (3.0, 3.0, 4.0), mask=mask)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2 * 8 * mask.size


_NORMALIZER_FAILS = """
import numpy as np
from scipy import ndimage
from topostat import _parallel
from topostat.preproc import gaussian_smooth

real = ndimage.convolve1d

def failing(x, *args, **kwargs):
    if x.base is None:  # the normalizer; observations are views of the stack
        raise ArithmeticError("normalizer failed")
    return real(x, *args, **kwargs)

ndimage.convolve1d = failing
for n in (1, 2, 3):
    _parallel.WORKERS, _parallel._pool = n, None
    try:
        gaussian_smooth(np.ones((5, 6, 7, 8)), 2.0, np.ones((6, 7, 8), dtype=bool))
    except ArithmeticError:
        print("raised", n)
"""


def test_failing_normalizer_raises_without_a_hang():
    # the normalizer is smoothed in the first map, before any division: if that
    # fails, the error reaches the caller and no worker is left running, so the
    # interpreter exits (joining its pool threads) well inside the timeout
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NORMALIZER_FAILS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["raised 1", "raised 2", "raised 3"]


def grid_graph_mesh(n):
    """n x n grid as a 1-dimensional mesh (edges only)."""
    vx, vy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    verts = np.column_stack([vx.ravel(), vy.ravel()]).astype(float)
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return build_mesh(verts, edges)


class TestLaplacianSmooth:
    def test_constant_data_unchanged(self):
        mesh = grid_graph_mesh(8)
        data = np.full(64, 2.5)
        out = laplacian_smooth(mesh, data, steps=10, rate=0.25)
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_zero_steps_identity(self):
        mesh = grid_graph_mesh(5)
        rng = np.random.default_rng(4)
        data = rng.standard_normal(25)
        np.testing.assert_array_equal(
            laplacian_smooth(mesh, data, steps=0, rate=0.2), data)

    def test_rate_stability_bound_enforced(self):
        mesh = grid_graph_mesh(5)  # interior degree 4
        with pytest.raises(ValueError, match="rate"):
            laplacian_smooth(mesh, np.zeros(25), steps=1, rate=0.3)
        with pytest.raises(ValueError, match="rate"):
            laplacian_smooth(mesh, np.zeros(25), steps=1, rate=0.0)

    def test_dirichlet_energy_decreases(self):
        mesh = grid_graph_mesh(10)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        edges = mesh.edges

        def energy(v):
            return float(((v[edges[:, 0]] - v[edges[:, 1]]) ** 2).sum())

        for _ in range(5):
            x_next = laplacian_smooth(mesh, x, steps=1, rate=0.2)
            assert energy(x_next) < energy(x)
            x = x_next

    def test_matches_gaussian_diffusion_limit(self):
        # k steps at rate tau give per-axis variance 2*k*tau on a grid;
        # tau strictly below 1/deg keeps the walk lazy (no parity mode)
        n, tau, steps = 64, 0.2, 40
        mesh = grid_graph_mesh(n)
        impulse = np.zeros(n * n)
        centre = (n // 2) * n + n // 2
        impulse[centre] = 1.0
        diffused = laplacian_smooth(mesh, impulse, steps=steps, rate=tau).reshape(n, n)
        sigma2 = 2 * steps * tau
        fwhm_eq = math.sqrt(8 * math.log(2) * sigma2)
        vol = np.zeros((n, n))
        vol[n // 2, n // 2] = 1.0
        gauss = gaussian_smooth(vol[None], (fwhm_eq, fwhm_eq), np.ones((n, n), dtype=bool))[0]
        assert np.abs(diffused - gauss).max() <= 0.05 * gauss.max()


class TestMorlet:
    def test_pure_tone_ridge(self):
        sr, dur, f0 = 200.0, 6.0, 20.0
        t = np.arange(int(sr * dur)) / sr
        signal = np.sin(2 * np.pi * f0 * t)
        freqs = np.arange(5.0, 41.0)
        tf = morlet_tf(signal, sr, freqs)
        interior = ~tf.edge_mask.any(axis=0)
        assert interior.sum() > 100
        ridge = freqs[np.argmax(tf.power[:, interior], axis=0)]
        assert np.all(np.abs(ridge - f0) <= 1.0)

    def test_zero_signal_zero_power(self):
        tf = morlet_tf(np.zeros(2000), 100.0, np.arange(5.0, 20.0))
        np.testing.assert_array_equal(tf.power, 0.0)

    def test_two_tone_ridges(self):
        sr, dur = 200.0, 8.0
        t = np.arange(int(sr * dur)) / sr
        signal = np.sin(2 * np.pi * 10.0 * t) + np.sin(2 * np.pi * 30.0 * t)
        freqs = np.arange(5.0, 41.0)
        tf = morlet_tf(signal, sr, freqs)
        interior = ~tf.edge_mask.any(axis=0)
        mean_power = tf.power[:, interior].mean(axis=1)
        low = freqs[(freqs >= 5) & (freqs <= 20)]
        high = freqs[(freqs > 20) & (freqs <= 40)]
        low_peak = low[np.argmax(mean_power[(freqs >= 5) & (freqs <= 20)])]
        high_peak = high[np.argmax(mean_power[(freqs > 20) & (freqs <= 40)])]
        assert abs(low_peak - 10.0) <= 1.0
        assert abs(high_peak - 30.0) <= 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(6)
        signal = rng.standard_normal(1200)
        tf1 = morlet_tf(signal, 100.0, np.arange(8.0, 25.0))
        tf2 = morlet_tf(3.0 * signal, 100.0, np.arange(8.0, 25.0))
        np.testing.assert_allclose(tf2.power, 9.0 * tf1.power, rtol=1e-10)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter than"):
            morlet_tf(np.zeros(50), 100.0, [1.0])


class TestBandAverage:
    def _tf(self, power, freqs):
        from topostat.preproc import TimeFrequencyMap
        return TimeFrequencyMap(power=np.asarray(power, dtype=float),
                                freqs=np.asarray(freqs, dtype=float),
                                times=np.arange(np.asarray(power).shape[1]) / 100.0)

    def test_constant_map(self):
        tf = self._tf(np.full((10, 7), 2.0), np.arange(10.0) + 10.0)
        np.testing.assert_allclose(band_average(tf, (12, 16)), 2.0)

    def test_single_bin_band(self):
        power = np.arange(30.0).reshape(6, 5)
        tf = self._tf(power, [10.0, 12.0, 14.0, 16.0, 18.0, 20.0])
        np.testing.assert_array_equal(band_average(tf, (14, 14)), power[2])

    def test_mean_of_indices(self):
        freqs = np.arange(1.0, 9.0)
        power = np.tile(freqs[:, None], (1, 4))
        tf = self._tf(power, freqs)
        np.testing.assert_allclose(band_average(tf, (3, 6)), (3 + 4 + 5 + 6) / 4.0)

    def test_empty_band_rejected(self):
        tf = self._tf(np.ones((4, 4)), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="band"):
            band_average(tf, (10, 20))


def test_time_mean_reference():
    rng = np.random.default_rng(7)
    vol = rng.standard_normal((5, 4, 9))
    ref = time_mean_reference(vol)
    assert ref.shape == vol.shape
    np.testing.assert_allclose(ref[..., 0], vol.mean(axis=-1))
    assert np.all(ref[..., 0] == ref[..., 8])
