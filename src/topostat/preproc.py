"""Data path from raw per-observation recordings to analysis volumes.

Scattered sensor values are interpolated onto a regular 2D grid,
stacked over time into 3D volumes and smoothed; single-channel signals
get a complex Morlet time-frequency decomposition with band averaging.
Mesh-borne data can be smoothed with an unweighted graph-Laplacian
diffusion instead of a grid kernel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import _parallel
from .domain import MeshSpace

SIGMA_PER_FWHM = 1.0 / math.sqrt(8.0 * math.log(2.0))
KERNEL_TRUNCATE_SIGMAS = 4.0
MORLET_CYCLES = 7.0


@dataclass(frozen=True)
class SensorLayout:
    """Flattened scalp-plane sensor positions."""

    positions: np.ndarray  # (n_sensors, 2)
    names: tuple[str, ...]

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must be (n_sensors, 2)")
        if pos.shape[0] != len(self.names):
            raise ValueError("one name per sensor required")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_csv(cls, path) -> "SensorLayout":
        """Load 'name,x,y' rows."""
        names, xs, ys = [], [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: expected name,x,y rows")
                names.append(row[0].strip())
                xs.append(float(row[1]))
                ys.append(float(row[2]))
        return cls(np.column_stack([xs, ys]), tuple(names))


@dataclass
class TimeFrequencyMap:
    """Nonnegative power per (frequency, time) bin."""

    power: np.ndarray  # (n_freqs, n_times)
    freqs: np.ndarray  # Hz
    times: np.ndarray  # seconds
    edge_mask: np.ndarray | None = None  # True where wavelet support ran off the signal


def interpolate_to_grid(layout: SensorLayout, values, grid_shape=(64, 64)):
    """Barycentric-linear interpolation of sensor values onto a grid.

    The grid spans the sensor bounding box; grid points outside the
    convex hull of the sensors are masked out (they are excluded from
    the search space rather than extrapolated).

    Returns
    -------
    (grid, mask) : 2D float array and matching bool validity mask.
    """
    from scipy.spatial import Delaunay, QhullError  # only user; keeps it off the CLI import
    values = np.asarray(values, dtype=float).ravel()
    pos = layout.positions
    if values.shape[0] != pos.shape[0]:
        raise ValueError("one value per sensor required")
    if not np.all(np.isfinite(values)):
        raise ValueError("sensor values must be finite")
    if pos.shape[0] < 3:
        raise ValueError("interpolation needs at least 3 sensors")
    try:
        tri = Delaunay(pos)
    except QhullError as exc:
        raise ValueError(f"degenerate sensor layout: {exc}") from None

    nx, ny = grid_shape
    gx = np.linspace(pos[:, 0].min(), pos[:, 0].max(), nx)
    gy = np.linspace(pos[:, 1].min(), pos[:, 1].max(), ny)
    points = np.column_stack([np.repeat(gx, ny), np.tile(gy, nx)])

    simplex = tri.find_simplex(points)
    inside = simplex >= 0
    grid = np.zeros(points.shape[0])
    if inside.any():
        s = simplex[inside]
        transform = tri.transform[s]
        bary = np.einsum("ijk,ik->ij", transform[:, :2],
                         points[inside] - transform[:, 2])
        weights = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
        verts = tri.simplices[s]
        grid[inside] = (values[verts] * weights).sum(axis=1)
    return grid.reshape(nx, ny), inside.reshape(nx, ny)


def stack_time(slices, masks=None):
    """Stack 2D scalp maps over time into an (x, y, time) volume.

    All slices (and masks, if per-slice) must agree in shape and mask.
    Returns (volume, mask3d) with the shared mask replicated over time.
    """
    slices = [np.asarray(s, dtype=float) for s in slices]
    if not slices:
        raise ValueError("need at least one slice")
    shape = slices[0].shape
    for s in slices[1:]:
        if s.shape != shape:
            raise ValueError(f"slice shape mismatch: {s.shape} vs {shape}")
    if masks is None:
        mask2d = np.ones(shape, dtype=bool)
    else:
        if isinstance(masks, np.ndarray) and masks.shape == shape:
            mask2d = masks.astype(bool)
        else:
            mask_list = [np.asarray(m, dtype=bool) for m in masks]
            mask2d = mask_list[0]
            for m in mask_list[1:]:
                if m.shape != shape or not np.array_equal(m, mask2d):
                    raise ValueError("slice masks differ")
    volume = np.stack(slices, axis=-1)
    mask3d = np.repeat(mask2d[..., None], len(slices), axis=-1)
    return volume, mask3d


def _widths(fwhm, n_axes: int, name: str) -> list[float]:
    """``fwhm`` as one width per axis, from one for every axis or one per axis, each
    finite, >= 0 and no boolean; errors name ``name``, the option or key it came from."""
    try:  # float(None) raises, so a boolean is rejected like any other non-number
        widths = [float(None if isinstance(f, (bool, np.bool_)) else f)
                  for f in np.atleast_1d(np.asarray(fwhm, dtype=object))]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} expects numbers, got {fwhm!r}") from None
    if len(widths) == 1:
        widths *= n_axes
    if len(widths) != n_axes:
        raise ValueError(f"{name} needs one width or one per axis ({n_axes}), got {len(widths)}")
    if not all(0.0 <= f < math.inf for f in widths):
        raise ValueError(f"{name} must be finite and nonnegative, got {widths}")
    return widths


def _kernel_radius(fwhm: float) -> int:
    """Half-width in bins of the Gaussian kernel of ``fwhm`` bins, cut at 4 sigma."""
    return int(math.ceil(KERNEL_TRUNCATE_SIGMAS * fwhm * SIGMA_PER_FWHM))


def _gaussian_kernel(fwhm: float) -> np.ndarray:
    """Sampled Gaussian of ``fwhm`` bins, truncated at 4 sigma. Not normalized."""
    sigma = fwhm * SIGMA_PER_FWHM
    radius = _kernel_radius(fwhm)
    x = np.arange(-radius, radius + 1, dtype=float)
    return np.exp(-x * x / (2.0 * sigma * sigma))


def _pieces(dims, axis: int) -> list[tuple]:
    """Index tuples of near-equal pieces of a ``dims`` volume across ``axis``,
    one per worker."""
    cuts = _parallel._split(dims[axis], _parallel.WORKERS)
    return [(slice(None),) * axis + (s,) for s in cuts]


def gaussian_smooth(stack, fwhm, mask):
    """Separable Gaussian smoothing inside a mask, in place.

    Parameters
    ----------
    stack : ndarray
        An (n_obs, *mask.shape) stack whose observations are smoothed
        independently; the mask normalizer is built once per stack.
        A float64 array is overwritten with its smoothed values and
        returned: the caller's buffer becomes the output. The extra
        memory is a few volumes whatever the number of observations or
        of worker threads, which split each observation's passes and
        share its two scratch volumes.
        Any other input is first converted to a new float64 array.
    fwhm : float or sequence of float
        Finite width in bins, one for every axis or one per axis; 0 skips an axis.
    mask : ndarray of bool
        Data outside the mask neither contribute nor receive and are set
        to 0; in-mask values are divided by the smoothed mask indicator,
        so constants pass through exactly. With every width 0 this is
        the masking step alone, since x / 1.0 is exact.
    """
    stack = np.asarray(stack, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    dims = mask.shape
    if stack.ndim != mask.ndim + 1 or stack.shape[1:] != dims:
        raise ValueError(f"stack shape {stack.shape} is not (n_obs,) + mask shape {dims}")
    kernels = [(ax, _gaussian_kernel(f))
               for ax, f in enumerate(_widths(fwhm, len(dims), "fwhm")) if f > 0]
    kernels = [(ax, k / k.sum()) for ax, k in kernels]
    # every normalized kernel has a positive centre weight, so den > 0 in the mask
    den = mask.astype(float)
    for ax, k in kernels:
        den = ndimage.convolve1d(den, k, axis=ax, mode="constant")
    outside = ~mask
    # Two scratch volumes shared by every observation; each pass reads one, writes the
    # other. The worker threads split each observation: the first pass on pieces across
    # the last axis (axis 0 if the pass runs along the last), then the later passes,
    # never along axis 0, and the division on pieces across axis 0. Every convolved line
    # lies inside one piece, so the pieces write disjoint parts of the same volumes.
    # The head's zeros are the output outside the mask: the division writes only inside.
    scratch = (np.empty(dims), np.empty(dims))
    first, rest = kernels[:1], kernels[1:]
    along = first[0][0] if first else None
    across = 0 if along == len(dims) - 1 else len(dims) - 1
    head_pieces = _pieces(dims, across) if dims and across != along else [...]
    tail_pieces = _pieces(dims, 0) if dims else [...]

    def head(p):
        np.copyto(vol[p], 0.0, where=outside[p])
        for ax, k in first:
            ndimage.convolve1d(vol[p], k, axis=ax, mode="constant", output=scratch[0][p])

    def tail(p):
        num = scratch[0][p] if first else vol[p]
        for i, (ax, k) in enumerate(rest, 1):
            num = ndimage.convolve1d(num, k, axis=ax, mode="constant",
                                     output=scratch[i % 2][p])
        np.divide(num, den[p], out=vol[p], where=mask[p])

    for vol in stack:
        _parallel._each(head, head_pieces)
        _parallel._each(tail, tail_pieces)
    return stack


def laplacian_smooth(space: MeshSpace, data, steps: int, rate: float):
    """Diffuse vertex data with the unweighted graph Laplacian.

    Each step applies x <- x - rate * L x with L = D - A over the mesh
    edge graph. Stable for 0 < rate <= 1/max_degree (enforced); ``steps``
    iterations approximate a Gaussian blur of variance 2*steps*rate per
    axis on a regular grid graph.
    """
    if not isinstance(space, MeshSpace):
        raise TypeError("laplacian_smooth needs a mesh space")
    data = np.asarray(data, dtype=float)
    if data.shape[0] != space.n_points:
        raise ValueError("one value per vertex required")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    edges = space.edges
    degree = np.zeros(space.n_points)
    if edges.size:
        np.add.at(degree, edges[:, 0], 1.0)
        np.add.at(degree, edges[:, 1], 1.0)
    deg_max = degree.max() if degree.size else 0.0
    if deg_max == 0:
        return data.copy()
    if not 0.0 < rate <= 1.0 / deg_max:
        raise ValueError(
            f"rate must be in (0, {1.0 / deg_max:.6g}] for max degree {int(deg_max)}"
        )
    x = data.copy()
    a, b = edges[:, 0], edges[:, 1]
    for _ in range(steps):
        lap = degree * x
        np.add.at(lap, a, -x[b])
        np.add.at(lap, b, -x[a])
        x = x - rate * lap
    return x


def _morlet_kernel(freq: float, sample_rate: float, n_cycles: float) -> np.ndarray:
    """Complex Morlet at one frequency, unit L2 norm, 4 sigma support."""
    sigma_t = n_cycles / (2.0 * math.pi * freq)
    radius = int(math.ceil(KERNEL_TRUNCATE_SIGMAS * sigma_t * sample_rate))
    t = np.arange(-radius, radius + 1) / sample_rate
    kernel = np.exp(2j * math.pi * freq * t) * np.exp(-t * t / (2.0 * sigma_t ** 2))
    return kernel / np.linalg.norm(kernel)


def morlet_tf(signal, sample_rate: float, freqs,
              n_cycles: float = MORLET_CYCLES) -> TimeFrequencyMap:
    """Complex Morlet time-frequency power of a 1D signal.

    Power is the squared magnitude of the convolution with an
    L2-normalized Morlet of ``n_cycles`` cycles per frequency. Time
    bins whose wavelet support runs off either end of the signal are
    flagged in ``edge_mask`` rather than dropped.
    """
    signal = np.asarray(signal, dtype=float).ravel()
    freqs = np.asarray(freqs, dtype=float).ravel()
    if freqs.size == 0 or np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    n = signal.shape[0]
    power = np.empty((freqs.size, n))
    edge = np.zeros((freqs.size, n), dtype=bool)
    for i, f in enumerate(freqs):
        kernel = _morlet_kernel(f, sample_rate, n_cycles)
        half = (len(kernel) - 1) // 2
        if len(kernel) > n:
            raise ValueError(
                f"signal of {n} samples shorter than wavelet support "
                f"({len(kernel)}) at {f} Hz"
            )
        coeff = np.convolve(signal, kernel, mode="same")
        power[i] = np.abs(coeff) ** 2
        edge[i, :half] = True
        edge[i, n - half:] = True
    times = np.arange(n) / sample_rate
    return TimeFrequencyMap(power=power, freqs=freqs, times=times, edge_mask=edge)


def band_average(tf: TimeFrequencyMap, band=(15.0, 30.0)) -> np.ndarray:
    """Unweighted mean power over frequency bins inside [lo, hi]."""
    lo, hi = float(band[0]), float(band[1])
    sel = (tf.freqs >= lo) & (tf.freqs <= hi)
    if not sel.any():
        raise ValueError(f"no frequency bins in band {lo}-{hi} Hz "
                         f"(available {tf.freqs.min()}-{tf.freqs.max()})")
    return tf.power[sel].mean(axis=0)


def time_mean_reference(volume) -> np.ndarray:
    """Reference volume for paired designs: the per-position time mean
    replicated at every time point (time on the last axis)."""
    volume = np.asarray(volume, dtype=float)
    mean = volume.mean(axis=-1, keepdims=True)
    return np.broadcast_to(mean, volume.shape).copy()
