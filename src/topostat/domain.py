"""Search spaces: masked regular lattices and simplicial meshes.

A search space owns the combinatorics that topological inference runs on:
vertex adjacency, the components that tile the region (points, edges,
faces and cubes on a lattice; simplices on a mesh) and the intrinsic
volumes of the region. Statistic and residual values are stored as flat
vertex arrays; lattices use C-order linear indexing over the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

MAX_LATTICE_DIM = 3


@dataclass(frozen=True)
class IntrinsicVolumes:
    """Intrinsic volumes mu_0..mu_D of a search region.

    mu[0] is the Euler characteristic, mu[D] the D-dimensional content
    (voxel-edge units for lattices, coordinate units for meshes).
    """

    mu: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.mu) - 1

    def __getitem__(self, d: int) -> float:
        return self.mu[d]


def _count_subfaces(mask: np.ndarray, axes: tuple[int, ...]) -> int:
    """Count unit faces spanning ``axes`` whose corners are all in-mask."""
    m = mask
    for ax in axes:
        lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(m.ndim))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(m.ndim))
        m = m[lo] & m[hi]
    return int(m.sum())


def _lattice_counts(mask: np.ndarray) -> tuple[int, int, int, int]:
    """In-mask points P, and unit edges E, squares F and cubes C with all
    corners in-mask, each summed over axes (0 above the mask's dimension)."""
    return tuple(
        sum(_count_subfaces(mask, axes)
            for axes in itertools.combinations(range(mask.ndim), k))
        for k in range(4)
    )


class LatticeSpace:
    """A masked regular lattice with unit voxel spacing.

    Parameters
    ----------
    dims : tuple of int
        Grid extent per axis, 1 <= D <= 3 axes.
    mask : ndarray of bool
        In-region indicator, either shaped ``dims`` or flat of length
        prod(dims). Must contain at least one True entry.
    axis_labels, axis_units : sequences of str, optional
        Descriptive metadata; physical units live here only (all
        geometry is computed in voxel units).
    """

    def __init__(self, dims, mask, axis_labels=None, axis_units=None):
        dims = tuple(int(n) for n in dims)
        if len(dims) == 0:
            raise ValueError("lattice needs at least one axis")
        if len(dims) > MAX_LATTICE_DIM:
            raise ValueError(
                f"lattice dimension {len(dims)} not supported (max {MAX_LATTICE_DIM})"
            )
        if any(n < 1 for n in dims):
            raise ValueError(f"all dims must be positive, got {dims}")
        mask = np.asarray(mask, dtype=bool)
        if mask.size != int(np.prod(dims)):
            raise ValueError(
                f"mask has {mask.size} entries, expected {int(np.prod(dims))}"
            )
        mask = mask.reshape(dims)
        if not mask.any():
            raise ValueError("mask is empty")
        self.dims = dims
        self.mask = mask
        self.mask.setflags(write=False)
        self.axis_labels = tuple(axis_labels) if axis_labels else tuple(
            f"axis{i}" for i in range(len(dims))
        )
        self.axis_units = tuple(axis_units) if axis_units else ("bins",) * len(dims)
        if len(self.axis_labels) != len(dims) or len(self.axis_units) != len(dims):
            raise ValueError("axis metadata length must match number of axes")

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def n_points(self) -> int:
        """Total grid size (masked and unmasked vertices)."""
        return self.mask.size

    @cached_property
    def n_inside(self) -> int:
        """Number of in-mask vertices (the search volume in bins)."""
        return int(self.mask.sum())

    @cached_property
    def mask_flat(self) -> np.ndarray:
        return self.mask.ravel()

    def restricted(self, sub_mask) -> "LatticeSpace":
        """New space over ``mask & sub_mask`` with the same grid."""
        sub_mask = np.asarray(sub_mask, dtype=bool).reshape(self.dims)
        new_mask = self.mask & sub_mask
        if not new_mask.any():
            raise ValueError("restriction is empty")
        return LatticeSpace(self.dims, new_mask, self.axis_labels, self.axis_units)

    def coords_of(self, vertex: int) -> tuple[int, ...]:
        """Grid coordinates of a linear vertex index."""
        return tuple(int(c) for c in np.unravel_index(vertex, self.dims))

    def __repr__(self):
        return f"LatticeSpace(dims={self.dims}, inside={self.n_inside})"


class MeshSpace:
    """A simplicial mesh: edges (D=1) or triangles (D=2).

    Vertex coordinates are carried only for volume measurements; all
    adjacency-driven operations depend purely on connectivity. An
    optional ``vertex_mask`` restricts the space to the induced
    subcomplex without renumbering vertices.
    """

    def __init__(self, vertices, simplices, vertex_mask=None):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2:
            raise ValueError("vertices must be a (n_vertices, embed_dim) array")
        simplices = np.asarray(simplices, dtype=np.int64)
        if simplices.ndim != 2 or simplices.shape[1] < 2:
            raise ValueError("simplices must be a (n_simplices, D+1) array with D >= 1")
        dim = simplices.shape[1] - 1
        if dim > 2:
            raise ValueError(f"mesh dimension {dim} not supported (edges or triangles)")
        n_vert = vertices.shape[0]
        if simplices.size and (simplices.min() < 0 or simplices.max() >= n_vert):
            raise ValueError("simplex index out of range")
        for row in simplices:
            if len(set(row.tolist())) != len(row):
                raise ValueError(f"degenerate simplex {tuple(row)}")
        if vertex_mask is None:
            vertex_mask = np.ones(n_vert, dtype=bool)
        else:
            vertex_mask = np.asarray(vertex_mask, dtype=bool)
            if vertex_mask.shape != (n_vert,):
                raise ValueError("vertex_mask length must match vertex count")
            if not vertex_mask.any():
                raise ValueError("restriction is empty")
        self.vertices = vertices
        self.all_simplices = simplices
        self.dimension = dim
        self.mask_flat = vertex_mask
        self.mask_flat.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def n_inside(self) -> int:
        return int(self.mask_flat.sum())

    @cached_property
    def simplices(self) -> np.ndarray:
        """Simplices fully inside the vertex mask (the tiling components)."""
        keep = self.mask_flat[self.all_simplices].all(axis=1)
        return self.all_simplices[keep]

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges of the induced subcomplex, sorted."""
        s = self.all_simplices
        pairs = []
        for i, j in itertools.combinations(range(s.shape[1]), 2):
            pairs.append(np.stack([s[:, i], s[:, j]], axis=1))
        e = np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), np.int64)
        e = np.sort(e, axis=1)
        e = np.unique(e, axis=0)
        both_in = self.mask_flat[e].all(axis=1)
        return e[both_in]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges belonging to exactly one in-mask triangle (D=2 only)."""
        if self.dimension != 2:
            return np.empty((0, 2), np.int64)
        s = self.simplices
        pairs = []
        for i, j in itertools.combinations(range(3), 2):
            pairs.append(np.stack([s[:, i], s[:, j]], axis=1))
        e = np.sort(np.concatenate(pairs, axis=0), axis=1) if pairs else np.empty((0, 2), np.int64)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        return uniq[counts == 1]

    @cached_property
    def neighbor_lists(self) -> list[np.ndarray]:
        """Per-vertex sorted arrays of edge-adjacent in-mask vertices."""
        adj: list[list[int]] = [[] for _ in range(self.n_points)]
        for a, b in self.edges:
            adj[a].append(int(b))
            adj[b].append(int(a))
        return [np.array(sorted(v), dtype=np.int64) for v in adj]

    def restricted(self, sub_mask) -> "MeshSpace":
        sub_mask = np.asarray(sub_mask, dtype=bool)
        return MeshSpace(self.vertices, self.all_simplices,
                         vertex_mask=self.mask_flat & sub_mask)

    def coords_of(self, vertex: int) -> tuple[float, ...]:
        return tuple(float(c) for c in self.vertices[vertex])

    def __repr__(self):
        return (f"MeshSpace(D={self.dimension}, vertices={self.n_points}, "
                f"simplices={len(self.simplices)})")


def build_lattice(dims, mask, axis_labels=None, axis_units=None) -> LatticeSpace:
    """Build a masked lattice search space. See :class:`LatticeSpace`."""
    return LatticeSpace(dims, mask, axis_labels, axis_units)


def build_mesh(vertices, simplices) -> MeshSpace:
    """Build a simplicial mesh search space. See :class:`MeshSpace`."""
    return MeshSpace(vertices, simplices)


def _simplex_content(verts: np.ndarray) -> float:
    """D-volume of one simplex from its (D+1, E) vertex coordinates."""
    edges = verts[1:] - verts[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram)) if gram.shape[0] > 1 else float(gram[0, 0])
    d = edges.shape[0]
    factorial = 1.0
    for k in range(2, d + 1):
        factorial *= k
    return float(np.sqrt(max(det, 0.0))) / factorial


def intrinsic_volumes(space) -> IntrinsicVolumes:
    """Intrinsic volumes mu_0..mu_D of a search space.

    Lattices use the open-box counting formulas over in-mask tiling
    components (3D: mu_0 = P - sum E + sum F - C, mu_1 = sum E - 2 sum F + 3C,
    mu_2 = sum F - 3C, mu_3 = C, with the obvious 1D/2D analogues).
    Meshes use the alternating simplex count for mu_0, the summed simplex
    content for mu_D and, for triangle meshes, half the total boundary
    edge length for mu_1 (zero on closed surfaces; mean-curvature terms
    are deliberately omitted, a documented approximation).
    """
    if isinstance(space, LatticeSpace):
        p, e, f, c = _lattice_counts(space.mask)
        d = space.dimension
        if d == 1:
            mu = (float(p - e), float(e))
        elif d == 2:
            mu = (float(p - e + f), float(e - 2 * f), float(f))
        else:
            mu = (float(p - e + f - c), float(e - 2 * f + 3 * c),
                  float(f - 3 * c), float(c))
        return IntrinsicVolumes(mu)
    if isinstance(space, MeshSpace):
        n_v = space.n_inside
        n_e = len(space.edges)
        if space.dimension == 1:
            length = 0.0
            for a, b in space.simplices:
                length += float(np.linalg.norm(space.vertices[b] - space.vertices[a]))
            return IntrinsicVolumes((float(n_v - n_e), length))
        n_f = len(space.simplices)
        area = sum(_simplex_content(space.vertices[s]) for s in space.simplices)
        boundary = 0.0
        for a, b in space.boundary_edges:
            boundary += float(np.linalg.norm(space.vertices[b] - space.vertices[a]))
        return IntrinsicVolumes((float(n_v - n_e + n_f), 0.5 * boundary, float(area)))
    raise TypeError(f"not a search space: {type(space).__name__}")


def lattice_euler_characteristic(mask: np.ndarray) -> int:
    """Euler characteristic of a boolean lattice mask by direct counting.

    Fast path used for excursion-set topology; equals
    ``intrinsic_volumes(...)[0]`` for the same mask.
    """
    p, e, f, c = _lattice_counts(np.asarray(mask, dtype=bool))
    return p - e + f - c


def _lattice_structure(ndim: int, connectivity: str) -> np.ndarray:
    if connectivity == "face":
        return ndimage.generate_binary_structure(ndim, 1)
    if connectivity == "full":
        return ndimage.generate_binary_structure(ndim, ndim)
    raise ValueError(f"connectivity must be 'face' or 'full', got {connectivity!r}")


def connected_components(space, member_mask=None, connectivity: str = "full"):
    """Partition in-mask vertices into maximal connected sets.

    Parameters
    ----------
    space : LatticeSpace or MeshSpace
        Lattices connect via the chosen neighborhood ('face' = 2D/3D
        von Neumann, 'full' = 8/26 neighbors); meshes always use edge
        adjacency.
    member_mask : ndarray of bool, optional
        Further restriction (e.g. an excursion set) over vertices;
        flat or lattice-shaped.

    Returns
    -------
    list of ndarray
        Ascending vertex-index arrays, ordered by each component's
        smallest linear vertex index. Deterministic.
    """
    if isinstance(space, LatticeSpace):
        member = space.mask
        if member_mask is not None:
            member = member & np.asarray(member_mask, dtype=bool).reshape(space.dims)
        labels, n = ndimage.label(member, structure=_lattice_structure(space.dimension, connectivity))
        flat = labels.ravel()
        idx = np.flatnonzero(flat)
        if idx.size == 0:
            return []
        lab = flat[idx]
        order = np.argsort(lab, kind="stable")
        sizes = np.bincount(lab)[1:]
        groups = np.split(idx[order], np.cumsum(sizes)[:-1])
        groups.sort(key=lambda g: int(g[0]))
        return groups
    if isinstance(space, MeshSpace):
        member = space.mask_flat.copy()
        if member_mask is not None:
            member &= np.asarray(member_mask, dtype=bool).ravel()
        neighbors = space.neighbor_lists
        seen = np.zeros(space.n_points, dtype=bool)
        comps = []
        for start in np.flatnonzero(member):
            if seen[start]:
                continue
            stack = [int(start)]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in neighbors[v]:
                    if member[w] and not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
            comps.append(np.array(sorted(comp), dtype=np.int64))
        return comps
    raise TypeError(f"not a search space: {type(space).__name__}")


def read_mesh(path) -> MeshSpace:
    """Read a mesh from the plain-text format: 'D nV nS' header, then nV
    coordinate lines, then nS simplex lines of D+1 zero-based indices."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated mesh header")
    d, n_v, n_s = int(tokens[0]), int(tokens[1]), int(tokens[2])
    pos = 3
    need = n_v  # embedding dim inferred from the remaining token count
    rest = len(tokens) - pos - n_s * (d + 1)
    if need == 0 or rest % n_v != 0:
        raise ValueError(f"{path}: inconsistent mesh token count")
    embed = rest // n_v
    verts = np.array(tokens[pos:pos + n_v * embed], dtype=float).reshape(n_v, embed)
    pos += n_v * embed
    simp = np.array(tokens[pos:pos + n_s * (d + 1)], dtype=np.int64).reshape(n_s, d + 1)
    return build_mesh(verts, simp)


def write_mesh(space: MeshSpace, path) -> None:
    """Write a mesh in the format accepted by :func:`read_mesh`."""
    with open(path, "w") as fh:
        fh.write(f"{space.dimension} {space.n_points} {len(space.all_simplices)}\n")
        for row in space.vertices:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        for row in space.all_simplices:
            fh.write(" ".join(str(int(i)) for i in row) + "\n")
