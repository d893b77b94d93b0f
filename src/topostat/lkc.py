"""Lipschitz-Killing curvature and resel estimation.

The top-dimension curvature l_D is estimated from finite differences of
normalized residual fields along the components that tile the search
space: one term per simplex on meshes (with a 1/D! factor), one term per
unit lattice cube (volume 1, no factorial). Differences of raw residuals
are divided by the residual norm at the component's base vertex, the
approximation du ~= dr / ||r|| that holds when the error variance varies
smoothly. On lattices one slab-streamed pass over these differences
gives l_D (from each unit cube's Gram matrix) and the per-axis FWHM.
Lower-order curvatures follow the isotropic power-law interpolation
l_d = mu_d (l_D / mu_D)^(d/D).

Everything here depends only on residual values and connectivity, never
on vertex coordinates: warping or embedding the mesh leaves l_D
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import IntrinsicVolumes, LatticeSpace, MeshSpace
from .glm import ResidualSet

FOUR_LOG2 = 4.0 * math.log(2.0)
#: bytes per difference stack of one slab in :func:`lattice_smoothness` (stays in cache)
SLAB_BYTES = 2 << 20


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

    @classmethod
    def from_top_resels(cls, resels_top: float, mu: IntrinsicVolumes,
                        fwhm=None) -> "ReselVector":
        """Fill sub-dimensional resel counts from a known top count by the
        same power-law interpolation used for curvature estimates."""
        top_lkc = float(resels_top) * FOUR_LOG2 ** (mu.dimension / 2.0)
        return lkc_vector(top_lkc, mu, fwhm=fwhm)


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
    differences along every axis are formed once per slab of planes
    along axis 0 (reading one plane past the slab); their squared sums
    give the FWHM and, with the cross products, each unit cube's Gram
    matrix G, whose sqrt|G| sums to l_D.
    """
    if not isinstance(space, LatticeSpace):
        raise TypeError("lattice_smoothness needs a lattice space")
    _check_inputs(residuals, space)
    d, dims = space.dimension, space.dims
    u = residuals.u.reshape((-1,) + dims)
    norms = residuals.norms.reshape(dims)
    usable = space.mask & ~residuals.flagged.reshape(dims)

    edges = []
    for ax in range(d):
        lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(d))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(d))
        valid = usable[lo] & usable[hi]
        if not valid.any():
            raise ValueError(f"no complete components (no valid edges along axis {ax})")
        edges.append((u[(slice(None),) + lo], u[(slice(None),) + hi],
                      norms[lo], norms[hi], valid))
    base = tuple(slice(0, m - 1) for m in dims)
    region_usable = usable if region is None else usable & region.mask
    cubes = region_usable[base].copy()
    for ax in range(d):
        cubes &= region_usable[base[:ax] + (slice(1, None),) + base[ax + 1:]]
    if not cubes.any():
        raise ValueError("no complete components inside the mask")

    # Per-slab values land in full-size arrays reduced once at the end,
    # so the sums run in the same order as over whole-volume stacks.
    sq = [np.empty(valid.shape) for *_, valid in edges]
    contrib = np.empty(cubes.shape)
    height = max(1, SLAB_BYTES // (8 * u[:, 0].size))
    for start in range(0, dims[0], height):
        rows = slice(start, start + height)
        diffs = []
        for ax, (u_lo, u_hi, n_lo, n_hi, valid) in enumerate(edges):
            n_lo, n_hi = n_lo[rows], n_hi[rows]
            # (r_hi - r_lo) / |r_lo|; edges off the valid set are never read
            delta = u_hi[:, rows] * (n_hi / np.where(valid[rows], n_lo, 1.0)) - u_lo[:, rows]
            sq[ax][rows] = (delta * delta).sum(axis=0)
            diffs.append(delta)
        # axis 0 has no edges (and no cubes) past its last plane
        cube = (slice(0, diffs[0].shape[1]),) + base[1:]
        contrib[rows] = _sqrt_det_gram([x[(slice(None),) + cube] for x in diffs],
                                       [s[rows][cube] for s in sq])

    lam = [float(s[valid].mean()) for s, (*_, valid) in zip(sq, edges)]
    fwhm = np.array([np.inf if x == 0 else math.sqrt(FOUR_LOG2 / x) for x in lam])
    return float(contrib[cubes].sum()), fwhm


def _mesh_lkc_top(res: ResidualSet, space: MeshSpace) -> float:
    simplices = space.simplices
    if len(simplices) == 0:
        raise ValueError("no complete components inside the mask")
    ok = ~res.flagged[simplices].any(axis=1)
    simplices = simplices[ok]
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
