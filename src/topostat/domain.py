"""Search spaces: masked regular lattices and simplicial meshes.

A search space owns the combinatorics that topological inference runs on:
vertex adjacency, the components that tile the region (points, edges,
faces and cubes on a lattice; simplices on a mesh) and the intrinsic
volumes of the region. Statistic and residual values are stored as flat
vertex arrays; lattices use C-order linear indexing over the grid. A
mesh's adjacency is its sorted array of unique edges: components,
neighbour maxima and smoothing all work on that one array. Lattice cell
counts, intrinsic volumes and excursion-set Euler characteristics share one
primitive, the minimum over each unit cell's corners (``_cell_minima``).
Components of any vertex set, clusters and plateaus alike, come from one
labelling, ``_labels``: ``ndimage.label`` on a lattice, csgraph on a mesh's
edges (scipy.sparse is imported for meshes only).
"""

from __future__ import annotations

import itertools
import math
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


def _cell_minima(values: np.ndarray, k: int) -> np.ndarray:
    """Minimum over the 2**k corners of every unit k-cell of ``values``, over
    all orientations, flat. On a boolean mask the minimum is a logical AND."""
    parts = []
    for axes in itertools.combinations(range(values.ndim), k):
        m = values
        for ax in axes:
            m = np.minimum(m[(slice(None),) * ax + (slice(0, -1),)],
                           m[(slice(None),) * ax + (slice(1, None),)])
        parts.append(m.ravel())
    return np.concatenate(parts)


def _lattice_counts(mask: np.ndarray) -> list[int]:
    """N_0..N_D: in-mask points, then unit edges, squares and cubes with all
    corners in-mask, each summed over orientations."""
    return [int(np.count_nonzero(_cell_minima(mask, k))) for k in range(mask.ndim + 1)]


class LatticeSpace:
    """A masked regular lattice with unit voxel spacing.

    Parameters
    ----------
    dims : tuple of int
        Grid extent per axis, 1 <= D <= 3 axes.
    mask : ndarray of bool
        In-region indicator, either shaped ``dims`` or flat of length
        prod(dims). Must contain at least one True entry.
    """

    def __init__(self, dims, mask):
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
        return LatticeSpace(self.dims, new_mask)

    def coords_of(self, vertex: int) -> tuple[int, ...]:
        """Grid coordinates of a linear vertex index."""
        return tuple(int(c) for c in np.unravel_index(vertex, self.dims))

    def __repr__(self):
        return f"LatticeSpace(dims={self.dims}, inside={self.n_inside})"


def _unique_edges(simplices: np.ndarray, n: int):
    """Unique (lo, hi) vertex pairs of the simplices' sides, sorted, and
    the number of simplices holding each (one ``np.unique`` on lo * n + hi)."""
    sides = itertools.combinations(range(simplices.shape[1]), 2)
    pairs = np.sort(simplices[:, list(sides)], axis=2)
    keys, counts = np.unique(pairs[..., 0] * n + pairs[..., 1], return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


class MeshSpace:
    """A simplicial mesh: edges (D=1) or triangles (D=2).

    Vertex coordinates are carried only for volume measurements; all
    adjacency-driven operations depend purely on connectivity, and the
    sorted edge array :attr:`edges` is the one adjacency representation.
    An optional ``vertex_mask`` restricts the space to the induced
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
        if vertices.shape[1] < dim:
            raise ValueError(f"a {dim}-D mesh needs >= {dim} coordinates per vertex, "
                             f"got {vertices.shape[1]}")
        n_vert = vertices.shape[0]
        if simplices.size and (simplices.min() < 0 or simplices.max() >= n_vert):
            raise ValueError("simplex index out of range")
        ordered = np.sort(simplices, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeated.any():
            raise ValueError(f"degenerate simplex {tuple(simplices[np.argmax(repeated)])}")
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
        """Unique undirected edges (lo, hi) of the induced subcomplex,
        sorted: the mesh adjacency."""
        e = _unique_edges(self.all_simplices, self.n_points)[0]
        return e[self.mask_flat[e].all(axis=1)]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges belonging to exactly one in-mask triangle (D=2 only)."""
        if self.dimension != 2:
            return np.empty((0, 2), np.int64)
        e, counts = _unique_edges(self.simplices, self.n_points)
        return e[counts == 1]

    def restricted(self, sub_mask) -> "MeshSpace":
        sub_mask = np.asarray(sub_mask, dtype=bool)
        return MeshSpace(self.vertices, self.all_simplices,
                         vertex_mask=self.mask_flat & sub_mask)

    def coords_of(self, vertex: int) -> tuple[float, ...]:
        return tuple(float(c) for c in self.vertices[vertex])

    def __repr__(self):
        return (f"MeshSpace(D={self.dimension}, vertices={self.n_points}, "
                f"simplices={len(self.simplices)})")


def build_lattice(dims, mask) -> LatticeSpace:
    """Build a masked lattice search space. See :class:`LatticeSpace`."""
    return LatticeSpace(dims, mask)


def build_mesh(vertices, simplices) -> MeshSpace:
    """Build a simplicial mesh search space. See :class:`MeshSpace`."""
    return MeshSpace(vertices, simplices)


def _simplex_contents(vertices: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """D-volume of each simplex (rows of D+1 vertex indices): the root of
    its edge vectors' Gram determinant over D!."""
    edges = vertices[simplices[:, 1:]] - vertices[simplices[:, :1]]
    gram = edges @ edges.transpose(0, 2, 1)
    d = simplices.shape[1] - 1
    det = gram[:, 0, 0] if d == 1 else np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(d)


def intrinsic_volumes(space) -> IntrinsicVolumes:
    """Intrinsic volumes mu_0..mu_D of a search space.

    Lattices use the open-box counting formula over the N_k in-mask unit
    k-cells, mu_j = sum_{k >= j} (-1)^(k-j) C(k, j) N_k (3D: mu_0 =
    P - E + F - C, mu_1 = E - 2F + 3C, mu_2 = F - 3C, mu_3 = C).
    Meshes use the alternating simplex count for mu_0, the summed simplex
    content for mu_D and, for triangle meshes, half the total boundary
    edge length for mu_1 (zero on closed surfaces; mean-curvature terms
    are deliberately omitted, a documented approximation).
    """
    if isinstance(space, LatticeSpace):
        n = _lattice_counts(space.mask)
        return IntrinsicVolumes(tuple(
            float(sum((-1) ** (k - j) * math.comb(k, j) * n[k] for k in range(j, len(n))))
            for j in range(len(n))))
    if isinstance(space, MeshSpace):
        n_v, n_e, n_f = space.n_inside, len(space.edges), len(space.simplices)
        # summed in simplex order, one float at a time
        content = sum(_simplex_contents(space.vertices, space.simplices).tolist(), 0.0)
        if space.dimension == 1:
            return IntrinsicVolumes((float(n_v - n_e), content))
        boundary = sum(_simplex_contents(space.vertices, space.boundary_edges).tolist(), 0.0)
        return IntrinsicVolumes((float(n_v - n_e + n_f), 0.5 * boundary, content))
    raise TypeError(f"not a search space: {type(space).__name__}")


def lattice_euler_characteristic(mask: np.ndarray) -> int:
    """Euler characteristic of a boolean lattice mask by direct counting;
    equals ``intrinsic_volumes(...)[0]`` for the same mask."""
    n = _lattice_counts(np.asarray(mask, dtype=bool))
    return sum((-1) ** k * n_k for k, n_k in enumerate(n))


def lattice_ec_curve(values, thresholds) -> np.ndarray:
    """Euler characteristic of ``values >= t`` at every ``t`` in ``thresholds``:
    a k-cell is in that set when its corner minimum is, so each k's minima at or above
    the lowest t are sorted once and counted with ``searchsorted``. A NaN vertex is
    outside at every t, so a masked caller passes ``np.where(mask, values, nan)``."""
    values, t = np.asarray(values, dtype=float), np.asarray(thresholds, dtype=float)
    ec = np.zeros(t.shape, dtype=np.int64)
    lowest = np.fmin.reduce(t, axis=None, initial=np.inf)  # NaN t are skipped
    for k in range(values.ndim + 1):
        mins = _cell_minima(values, k)
        mins = np.sort(mins[mins >= lowest])  # NaN minima drop out here too
        ec += (-1) ** k * (mins.size - np.searchsorted(mins, t))
    return ec


def _labels(space, member: np.ndarray) -> np.ndarray:
    """Flat component label of each vertex: 1, 2, ... over the components of
    the flat boolean ``member``, numbered in order of each component's smallest
    vertex, and 0 off ``member``. Lattice vertices connect to all neighbours
    that share a point (``ndimage.label`` numbers them in scan order); mesh
    vertices along the edges whose two ends are members (csgraph numbers them
    in vertex order, counting non-members as components of their own)."""
    if isinstance(space, LatticeSpace):
        full = ndimage.generate_binary_structure(space.dimension, space.dimension)
        return ndimage.label(member.reshape(space.dims), structure=full)[0].ravel()
    # imported on first use: csgraph loads scipy.sparse.linalg (~75 ms)
    from scipy.sparse import coo_array, csgraph
    a, b = space.edges.T
    both = member[a] & member[b]
    graph = coo_array((np.ones(both.sum()), (a[both], b[both])), shape=(space.n_points,) * 2)
    raw = csgraph.connected_components(graph, directed=False)[1]
    labels = np.zeros(space.n_points, dtype=np.int64)
    labels[member] = np.unique(raw[member], return_inverse=True)[1] + 1
    return labels


def connected_components(space, member_mask=None):
    """Partition in-mask vertices into maximal connected sets.

    Parameters
    ----------
    space : LatticeSpace or MeshSpace
        Lattice vertices connect to all 2/8/26 neighbours that share a
        point (full connectivity); mesh vertices along their edge array.
    member_mask : ndarray of bool, optional
        Further restriction (e.g. an excursion set) over vertices;
        flat or lattice-shaped.

    Returns
    -------
    list of ndarray
        Ascending vertex-index arrays, ordered by each component's
        smallest linear vertex index. Deterministic.
    """
    if not isinstance(space, (LatticeSpace, MeshSpace)):
        raise TypeError(f"not a search space: {type(space).__name__}")
    member = space.mask_flat
    if member_mask is not None:
        member = member & np.asarray(member_mask, dtype=bool).ravel()
    labels = _labels(space, member)
    idx = np.flatnonzero(labels)
    lab = labels[idx]
    # cut after each label's last vertex; the piece past the last label is empty
    return np.split(idx[np.argsort(lab, kind="stable")], np.cumsum(np.bincount(lab)[1:]))[:-1]


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
