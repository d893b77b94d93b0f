"""Lipschitz-Killing curvature and resel estimation.

The top-dimension curvature l_D is estimated from finite differences of
normalized residual fields along the components that tile the search
space: one term per simplex on meshes (with a 1/D! factor), one term per
unit lattice cube (volume 1, no factorial). Differences of raw residuals
are divided by the residual norm at the component's base vertex, the
approximation du ~= dr / ||r|| that holds when the error variance varies
smoothly. On lattices one pass over these differences gives l_D (from
each unit cube's Gram matrix) and the per-axis FWHM; it runs in blocks of
the first two axes, small enough for a core's cache, on worker threads.
The axes a block spans whole merge into one flat axis, so each array
operation is one long loop instead of many as short as the last axis.
Lower-order curvatures follow the isotropic power-law interpolation
l_d = mu_d (l_D / mu_D)^(d/D).

The l_D estimate depends only on residual values and connectivity, never
on vertex coordinates: warping or embedding the mesh leaves l_D
bit-identical. l_1..l_{D-1} do: :func:`lkc_vector` scales the mu_d of
:func:`domain.intrinsic_volumes`, measured on meshes in vertex coordinates,
so shearing one mesh moved resels_1 23.15 -> 28.28 (ROADMAP.md, item 5).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import BLOCK_BYTES, _each, _split
from .domain import IntrinsicVolumes, LatticeSpace, MeshSpace
from .glm import ResidualSet

FOUR_LOG2 = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class ReselVector:
    """Curvatures l_0..l_D with their resel-unit counterparts.

    resels_d = l_d / (4 ln 2)^(d/2); resels_0 equals the Euler
    characteristic of the search space. ``fwhm`` carries per-axis
    smoothness in voxels for lattice spaces (None for meshes).
    """

    lkc: tuple[float, ...]
    resels: tuple[float, ...]
    fwhm: tuple[float, ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.lkc) - 1

    @classmethod
    def from_lkc(cls, lkc, fwhm=None) -> "ReselVector":
        lkc = tuple(float(v) for v in lkc)
        resels = tuple(v / FOUR_LOG2 ** (d / 2.0) for d, v in enumerate(lkc))
        return cls(lkc=lkc, resels=resels, fwhm=tuple(fwhm) if fwhm is not None else None)

    @classmethod
    def from_resels(cls, resels, fwhm=None) -> "ReselVector":
        resels = tuple(float(v) for v in resels)
        lkc = tuple(v * FOUR_LOG2 ** (d / 2.0) for d, v in enumerate(resels))
        return cls(lkc=lkc, resels=resels, fwhm=tuple(fwhm) if fwhm is not None else None)


def _sqrt_det_gram(diffs: list[np.ndarray], diag: list[np.ndarray]) -> np.ndarray:
    """sqrt|G| per component for D in {1,2,3}, G_ij = sum_n diffs[i] diffs[j];
    diffs[k] has shape (n, ...) and ``diag`` holds the summed squares G_kk."""
    d = len(diffs)
    g = [[diag[i] if i == j else None for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            g[i][j] = g[j][i] = (diffs[i] * diffs[j]).sum(axis=0)
    if d == 1:
        return np.sqrt(g[0][0])
    if d == 2:
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    else:
        det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[1][2])
               - g[0][1] * (g[0][1] * g[2][2] - g[1][2] * g[0][2])
               + g[0][2] * (g[0][1] * g[1][2] - g[1][1] * g[0][2]))
    return np.sqrt(np.maximum(det, 0.0))


def _blocks(dims, n: int) -> list[tuple[slice, ...]]:
    """Index tuples of near-equal blocks over the first two lattice axes, each
    holding about BLOCK_BYTES of an ``n``-deep stack. An axis is cut only into
    pieces of >= 3 planes, so that clipping a block's last plane still leaves
    every difference and cube stack >= 2 vertices wide: numpy sums a lone
    vertex's column pairwise, which can change the last bit."""
    wanted = -(-8 * n * math.prod(dims) // BLOCK_BYTES)
    cuts = []
    for m in dims[:2]:
        cuts.append(_split(m, min(wanted, m // 3)))
        wanted = -(-wanted // len(cuts[-1]))
    return list(itertools.product(*cuts))


def _check_inputs(residuals: ResidualSet, space) -> None:
    if residuals.u.shape[1] != space.n_points:
        raise ValueError(f"residuals cover {residuals.u.shape[1]} vertices, "
                         f"space has {space.n_points}")


def lattice_smoothness(residuals: ResidualSet, space: LatticeSpace,
                       region=None) -> tuple[float, np.ndarray]:
    """(l_D over ``region``, per-axis FWHM over ``space``) in one pass.

    Equals (:func:`lkc_top` on ``region``, :func:`fwhm_estimate` on
    ``space``) bit for bit; ``region`` (default ``space``) is a
    restriction of ``space`` such as a time window. The forward
    differences along every axis are formed once per block of the first
    two axes (reading one plane past it); their squared sums give the
    FWHM and, with the cross products, each unit cube's Gram matrix G,
    whose sqrt|G| sums to l_D. Blocks run on the worker threads; a stack
    that fits in one block runs on the calling thread.
    """
    if not isinstance(space, LatticeSpace):
        raise TypeError("lattice_smoothness needs a lattice space")
    _check_inputs(residuals, space)
    d, dims = space.dimension, space.dims
    blocks = _blocks(dims, residuals.u.shape[0])
    # Blocks span whole planes of the axes past j, so arrays are viewed as frames whose last
    # axis merges them: an axis step is a lead-axis step or a flat shift by its stride. A box
    # spans wrap-around positions on the flat axis too: invalid edges and cubes, never read.
    j = int(d > 1 and blocks[0][1].stop < dims[1])
    strides = [math.prod(dims[ax + 1:]) for ax in range(d)]
    steps = [[int(a == ax) for a in range(j)] + [strides[ax] * (ax >= j)] for ax in range(d)]
    frame = dims[:j] + (math.prod(dims[j:]),)
    u = residuals.u.reshape((-1,) + frame)
    norms = residuals.norms.reshape(frame)
    usable = space.mask & ~residuals.flagged.reshape(dims)
    norms_lo = np.where(usable.reshape(frame), norms, 1.0)

    edges = []
    for ax in range(d):
        lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
        edges.append((lo, usable[lo] & usable[hi]))
        if not edges[-1][1].any():
            raise ValueError(f"no complete components (no valid edges along axis {ax})")
    base = tuple(slice(0, m - 1) for m in dims)
    region_usable = usable if region is None else usable & region.mask
    cubes = region_usable[base].copy()
    for ax in range(d):
        cubes &= region_usable[base[:ax] + (slice(1, None),) + base[ax + 1:]]
    if not cubes.any():
        raise ValueError("no complete components inside the mask")

    # Per-block values land in full-size arrays reduced once at the end,
    # so the sums run in the same order as over whole-volume stacks.
    sq = [np.empty(frame) for _ in range(d)]
    contrib = np.empty(frame)

    def block(blk):
        start = [s.start for s in blk] + [0] * (d - len(blk))
        size = [s.stop - s.start for s in blk] + list(dims[len(blk):])
        # an axis has no edges (and no cubes) past its last plane
        near = [min(n, m - 1 - s) for s, n, m in zip(start, size, dims)]

        def box(ext, step=(0, 0)):  # frame index of ext planes at the corner, moved by step
            shape = ext[:j] + [1 + sum((e - 1) * k for e, k in zip(ext[j:], strides[j:]))]
            corner = start[:j] + [start[j] * strides[j]]
            return (..., *(slice(c + s, c + s + n) for c, s, n in zip(corner, step, shape)))

        diffs = []
        for ax in range(d):
            ext = size[:ax] + near[ax:ax + 1] + size[ax + 1:]
            lo, hi = box(ext), box(ext, steps[ax])
            # (r_hi - r_lo) / |r_lo| (1 if r_lo is unusable); edges off the valid set are unread
            delta = u[hi] * (norms[hi] / norms_lo[lo])
            delta -= u[lo]
            sq[ax][lo] = np.square(delta).sum(axis=0)
            diffs.append(delta)
        cube = box(near)
        crop = (slice(None),) + tuple(slice(0, s.stop - s.start) for s in cube[1:])
        contrib[cube] = _sqrt_det_gram([x[crop] for x in diffs], [s[cube] for s in sq])

    # a block without a usable vertex has no valid edge or cube: its entries are never read
    _each(block, [blk for blk in blocks if usable[blk].any()])
    lam = [float(s.reshape(dims)[lo][valid].mean()) for s, (lo, valid) in zip(sq, edges)]
    fwhm = np.array([np.inf if x == 0 else math.sqrt(FOUR_LOG2 / x) for x in lam])
    return float(contrib.reshape(dims)[base][cubes].sum()), fwhm


def _mesh_lkc_top(res: ResidualSet, space: MeshSpace) -> float:
    simplices = space.simplices
    if len(simplices) == 0:
        raise ValueError("no complete components inside the mask")
    simplices = simplices[space.cell_minima(~res.flagged, space.dimension)]
    if len(simplices) == 0:
        raise ValueError("every component touches a flagged zero-residual vertex")
    d = space.dimension
    base = simplices[:, 0]
    n_base = res.norms[base]
    diffs = []
    for j in range(1, d + 1):
        other = simplices[:, j]
        diffs.append(res.u[:, other] * (res.norms[other] / n_base) - res.u[:, base])
    contrib = _sqrt_det_gram(diffs, [(x * x).sum(axis=0) for x in diffs])
    return float(contrib.sum()) / math.factorial(d)


def lkc_top(residuals: ResidualSet, space) -> float:
    """Estimate l_D from finite differences of normalized residuals.

    Parameters
    ----------
    residuals : ResidualSet
        Defined on every vertex of ``space``; flagged vertices and
        components touching them are skipped.
    space : LatticeSpace or MeshSpace

    Returns
    -------
    float
        l_D >= 0. Lattice components are unit forward-difference cubes;
        mesh components are the simplices, with the 1/D! factor.
    """
    if isinstance(space, LatticeSpace):
        return lattice_smoothness(residuals, space)[0]
    if isinstance(space, MeshSpace):
        _check_inputs(residuals, space)
        return _mesh_lkc_top(residuals, space)
    raise TypeError(f"not a search space: {type(space).__name__}")


def lkc_vector(lkc_top_value: float, mu: IntrinsicVolumes,
               fwhm=None) -> ReselVector:
    """Interpolate l_0..l_D from the top curvature and intrinsic volumes.

    l_d = mu_d (l_D / mu_D)^(d/D); equivalently
    resels_d = mu_d (resels_D / mu_D)^(d/D).
    """
    d_top = mu.dimension
    if mu[d_top] <= 0:
        raise ValueError(f"mu_D must be positive, got {mu[d_top]}")
    if not (math.isfinite(lkc_top_value) and lkc_top_value >= 0):
        raise ValueError(f"l_D must be finite and nonnegative, got {lkc_top_value}")
    ratio = lkc_top_value / mu[d_top]
    lkc = tuple(mu[d] * ratio ** (d / d_top) for d in range(d_top + 1))
    return ReselVector.from_lkc(lkc, fwhm=fwhm)


def fwhm_estimate(residuals: ResidualSet, space: LatticeSpace) -> np.ndarray:
    """Per-axis smoothness of the residual fields, in voxels.

    The mean squared normalized-residual difference over in-mask forward
    edges of axis i gives its roughness lambda_i and FWHM_i =
    sqrt(4 ln 2 / lambda_i), +inf for a perfectly flat axis.
    """
    return lattice_smoothness(residuals, space)[1]
