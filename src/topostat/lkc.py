"""Lipschitz-Killing curvature and resel estimation. :func:`fit_resels` is the
one path from a GLM fit to its resels, for ``analyze`` and the Monte Carlo alike.

The top-dimension curvature l_D is estimated from finite differences of
the normalized residuals u = r / ||r|| along the components that tile the
search space: one term per simplex on meshes (with a 1/D! factor), one term
per unit lattice cube (volume 1, no factorial). A difference is taken as
du ~= dr / ||r_base||, over the residual norm at the component's base vertex,
so u is never formed, and each sum of products of raw differences is divided
by ||r_base||^2; each such sum is one :func:`_parallel._dots`, which forms
no product array. The approximation ignores the change of ||r|| along the step,
which biases l_D upward at finite dof: by +46-50% at dof 4 and +9-10% at dof
12 on stationary boxes (ROADMAP.md, item 13). On lattices one pass over
these differences gives l_D (from each unit cube's Gram matrix) and the
per-axis FWHM; it runs on worker threads in pieces small enough for a
core's cache, each a range of whole last-axis lines in the flat vertex
order. Lower-order curvatures follow the isotropic power-law interpolation
l_d = mu_d (l_D / mu_D)^(d/D).

The l_D estimate depends only on residual values and connectivity, never
on vertex coordinates: warping or embedding the mesh leaves l_D
bit-identical. l_1..l_{D-1} do: :func:`lkc_vector` scales the mu_d of
:func:`domain.intrinsic_volumes`, measured on meshes in vertex coordinates,
so shearing one mesh moved resels_1 23.15 -> 28.28 (ROADMAP.md, item 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from ._parallel import _dots, _each, _runs
from .domain import IntrinsicVolumes, LatticeSpace, MeshSpace, intrinsic_volumes

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


def _sqrt_det_gram(diffs: list[np.ndarray], diag: list[np.ndarray],
                   norms2: np.ndarray) -> np.ndarray:
    """sqrt|G| per component for D in {1,2,3}, G_ij = sum_n diffs[i] diffs[j] / norms2
    for diffs[k] of shape (n, ...); ``diag`` holds the G_kk, already divided. So G is
    O(1) at any scale of the residuals, and its determinant cannot overflow."""
    d = len(diffs)
    g = [[diag[i] if i == j else None for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            g[i][j] = g[j][i] = _dots(diffs[i], diffs[j]) / norms2
    if d == 1:
        return np.sqrt(g[0][0])
    if d == 2:
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    else:
        det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[1][2])
               - g[0][1] * (g[0][1] * g[2][2] - g[1][2] * g[0][2])
               + g[0][2] * (g[0][1] * g[1][2] - g[1][1] * g[0][2]))
    return np.sqrt(np.maximum(det, 0.0))


def _pieces(dims, n: int) -> list[slice]:
    """Flat vertex ranges of whole last-axis lines, cut by :func:`_runs` from
    the lines of an ``n``-deep stack, none but the first starting at the
    last line that holds a cube. A piece's difference and cube stacks are
    then empty or >= 2 vertices wide, unless the lattice's are: numpy sums
    a lone vertex's column pairwise, which can change the last bit."""
    line, n_v = dims[-1], math.prod(dims)
    lines = n_v // line
    # the line of the last cube's base vertex, n_v - 1 - sum(strides)
    last = (n_v - 1 - sum(math.prod(dims[ax + 1:]) for ax in range(len(dims)))) // line
    runs = _runs(lines, 8 * n * line)
    cuts = [0] + [r.start * line for r in runs[1:] if r.start != last] + [n_v]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _check_inputs(residuals: glm.ResidualSet, space) -> None:
    if residuals.r.shape[1] != space.n_points:
        raise ValueError(f"residuals cover {residuals.r.shape[1]} vertices, "
                         f"space has {space.n_points}")


def lattice_smoothness(residuals: glm.ResidualSet, space: LatticeSpace,
                       region=None) -> tuple[float, np.ndarray]:
    """(l_D over ``region``, per-axis FWHM over ``space``) in one pass.

    Equals (:func:`lkc_top` on ``region``, :func:`fwhm_estimate` on
    ``space``) bit for bit; ``region`` (default ``space``) is a
    restriction of ``space`` such as a time window. On the flat vertex
    order a step along an axis is a shift by its stride, so each piece, a
    range of vertices, forms the forward differences along every axis
    once (reading one stride past it); their squared sums give the FWHM
    and, with the cross products, each unit cube's Gram matrix G, whose
    sqrt|G| sums to l_D. Pieces run on the worker threads; a stack that
    fits in one piece runs on the calling thread.
    """
    if not isinstance(space, LatticeSpace):
        raise TypeError("lattice_smoothness needs a lattice space")
    _check_inputs(residuals, space)
    d, dims = space.dimension, space.dims
    r = residuals.r
    usable = space.mask & ~residuals.flagged.reshape(dims)
    # ||r_lo||^2, and where r_lo is unusable the largest, so unread entries stay O(1) too
    norms2 = np.square(np.where(usable.ravel(), residuals.norms, residuals.norms.max()))

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

    # Per-vertex values land in full-size arrays reduced once at the end, so
    # the sums run in the same order as over whole-volume stacks. Flat shifts
    # also pair a line's last vertex with the next line's first: such edges
    # and cubes are off the valid sets, and never read.
    n_v = r.shape[1]
    strides = [math.prod(dims[ax + 1:]) for ax in range(d)]
    sq = [np.empty(n_v) for _ in range(d)]
    contrib = np.empty(n_v)

    def piece(p):
        a, diffs = p.start, []
        for s, out in zip(strides, sq):
            e = min(p.stop, n_v - s)  # the last s vertices have no edge along this axis
            delta = r[:, a + s:e + s] - r[:, a:e]
            _dots(delta, delta, out=out[a:e])
            out[a:e] /= norms2[a:e]
            diffs.append(delta)
        c = max(0, min(p.stop, n_v - sum(strides)) - a)  # the piece's cube base vertices
        contrib[a:a + c] = _sqrt_det_gram([x[:, :c] for x in diffs], [x[a:a + c] for x in sq],
                                          norms2[a:a + c])

    # a piece without a usable vertex has no valid edge or cube: its entries are never read
    _each(piece, [p for p in _pieces(dims, r.shape[0]) if usable.ravel()[p].any()])
    lam = [float(s.reshape(dims)[lo][valid].mean()) for s, (lo, valid) in zip(sq, edges)]
    fwhm = np.array([np.inf if x == 0 else math.sqrt(FOUR_LOG2 / x) for x in lam])
    return float(contrib.reshape(dims)[base][cubes].sum()), fwhm


def _mesh_lkc_top(res: glm.ResidualSet, space: MeshSpace) -> float:
    simplices = space.simplices
    if len(simplices) == 0:
        raise ValueError("no complete components inside the mask")
    simplices = simplices[space.cell_minima(~res.flagged, space.dimension)]
    if len(simplices) == 0:
        raise ValueError("every component touches a flagged zero-residual vertex")
    d = space.dimension
    base = simplices[:, 0]
    norms2 = np.square(res.norms[base])
    diffs = [res.r[:, simplices[:, j]] - res.r[:, base] for j in range(1, d + 1)]
    contrib = _sqrt_det_gram(diffs, [_dots(x, x) / norms2 for x in diffs], norms2)
    return float(contrib.sum()) / math.factorial(d)


def lkc_top(residuals: glm.ResidualSet, space) -> float:
    """Estimate l_D from the differences of the raw residuals over ||r_base||.

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


def fit_resels(fit: glm.GlmFit, space: LatticeSpace, region=None) -> ReselVector:
    """Resels of ``fit`` over ``region`` (default ``space``): its residuals, one
    :func:`lattice_smoothness` pass and :func:`lkc_vector` over the region's mu."""
    top, fwhm = lattice_smoothness(glm.normalized_residuals(fit), space, region)
    return lkc_vector(top, intrinsic_volumes(region or space), fwhm=fwhm)


def fwhm_estimate(residuals: glm.ResidualSet, space: LatticeSpace) -> np.ndarray:
    """Per-axis smoothness of the residual fields, in voxels.

    The mean of dr^2 / ||r_base||^2, dr the raw residuals' forward difference, over axis
    i's in-mask edges is its roughness lambda_i; FWHM_i = sqrt(4 ln 2 / lambda_i), +inf at 0.
    """
    return lattice_smoothness(residuals, space)[1]
