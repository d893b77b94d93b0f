"""Search spaces: masked regular lattices and simplicial meshes.

A search space owns the combinatorics that topological inference runs on:
vertex adjacency, the components that tile the region (points, edges,
faces and cubes on a lattice; simplices on a mesh) and the intrinsic
volumes of the region. Statistic and residual values are stored as flat
vertex arrays; lattices use C-order linear indexing over the grid. A
mesh's adjacency is its sorted array of unique edges: components,
neighbour maxima and smoothing all work on that one array. This module
holds all adjacency, as three methods of both spaces: ``cell_minima``, the
minimum over each k-cell's vertices, behind cell counts and intrinsic
volumes; ``labels``, the components of any vertex set, clusters and
plateaus alike (scipy.sparse is imported for meshes only); and
``neighbor_reduce``, over each vertex's neighbours, behind local maxima.
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


class LatticeSpace:
    """A masked regular lattice with unit voxel spacing.

    Parameters
    ----------
    dims : tuple of int
        Grid extent per axis, 1 <= D <= 3 axes.
    mask : ndarray of bool
        In-region indicator, either shaped ``dims`` or flat of length
        prod(dims). Must contain at least one True entry.

    The space keeps a read-only copy of the mask, so what it derives from
    it, such as the intrinsic volumes, is computed once.
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
        mask = np.array(mask, dtype=bool)
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

    @cached_property
    def _intrinsic_volumes(self) -> IntrinsicVolumes:
        return _count_intrinsic_volumes(self)

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

    def cell_minima(self, values, k: int) -> np.ndarray:
        """:func:`_cell_minima` of the vertex ``values`` over the grid."""
        return _cell_minima(np.reshape(values, self.dims), k)

    def labels(self, member: np.ndarray) -> np.ndarray:
        """Flat component labels of ``member``: 1, 2, ... by smallest vertex, 0 off it."""
        full = ndimage.generate_binary_structure(self.dimension, self.dimension)
        return ndimage.label(member.reshape(self.dims), structure=full)[0].ravel()

    def neighbor_reduce(self, vals: np.ndarray, op, fill, at=None) -> np.ndarray:
        """``op`` over each vertex's 2/8/26 neighbours' flat ``vals``, flat, the
        grid padded with ``fill`` (``np.fmax`` skips a NaN, ``np.maximum`` not).
        With flat vertex indices ``at``, only there, each neighbour gathered
        through its flat offset into the padded grid: the whole result ``[at]``."""
        padded = np.pad(vals.reshape(self.dims), 1, constant_values=fill)
        # every shift but the vertex itself, in one order for both paths: of equal
        # values, such as 0.0 and -0.0, a fold keeps one by position, so order sets bits
        shifts = [off for off in itertools.product(range(3), repeat=self.dimension)
                  if off != (1,) * self.dimension]
        if at is not None:
            flat = padded.ravel()  # corner: the padded index of each (-1, ..., -1) neighbour
            corner = np.ravel_multi_index(np.unravel_index(at, self.dims), padded.shape)
            out = np.full(len(corner), fill)
            for off in shifts:
                op(out, flat[corner + np.ravel_multi_index(off, padded.shape)], out=out)
            return out
        out = np.full(self.dims, fill)
        for off in shifts:
            op(out, padded[tuple(slice(o, o + n) for o, n in zip(off, self.dims))], out=out)
        return out.ravel()

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
    subcomplex without renumbering vertices. Like a lattice, the mesh keeps
    read-only copies of its arrays.
    """

    def __init__(self, vertices, simplices, vertex_mask=None):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim != 2:
            raise ValueError("vertices must be a (n_vertices, embed_dim) array")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has a non-finite coordinate: {vertices[bad[0]]}")
        simplices = np.array(simplices, dtype=np.int64)
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
            raise ValueError(f"degenerate simplex {tuple(simplices[np.argmax(repeated)].tolist())}")
        _, first, group = np.unique(ordered, axis=0, return_index=True, return_inverse=True)
        again = np.flatnonzero(first[group] != np.arange(len(ordered)))
        if again.size:
            i = again[0]
            raise ValueError(f"repeated simplex {tuple(simplices[i].tolist())}: "
                             f"row {i} lists the vertices of row {first[group[i]]}")
        if vertex_mask is None:
            vertex_mask = np.ones(n_vert, dtype=bool)
        else:
            vertex_mask = np.array(vertex_mask, dtype=bool)
            if vertex_mask.shape != (n_vert,):
                raise ValueError("vertex_mask length must match vertex count")
            if not vertex_mask.any():
                raise ValueError("restriction is empty")
        self.vertices = vertices
        self.all_simplices = simplices
        self.dimension = dim
        self.mask_flat = vertex_mask
        for a in (vertices, simplices, vertex_mask):
            a.setflags(write=False)

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

    @cached_property
    def _intrinsic_volumes(self) -> IntrinsicVolumes:
        return _count_intrinsic_volumes(self)

    def restricted(self, sub_mask) -> "MeshSpace":
        sub_mask = np.asarray(sub_mask, dtype=bool)
        return MeshSpace(self.vertices, self.all_simplices,
                         vertex_mask=self.mask_flat & sub_mask)

    def coords_of(self, vertex: int) -> tuple[float, ...]:
        return tuple(float(c) for c in self.vertices[vertex])

    def cell_minima(self, values, k: int) -> np.ndarray:
        """Minimum of the flat ``values`` over the in-mask vertices (k = 0), the
        rows of :attr:`simplices` (k = D) or else of :attr:`edges`."""
        cells = self.simplices if k == self.dimension else self.edges
        return values[self.mask_flat] if k == 0 else values[cells].min(axis=1)

    def labels(self, member: np.ndarray) -> np.ndarray:
        """As :meth:`LatticeSpace.labels`, along the edges between members."""
        # imported on first use: csgraph loads scipy.sparse.linalg (~75 ms)
        from scipy.sparse import coo_array, csgraph
        a, b = self.edges[member[self.edges].all(axis=1)].T
        graph = coo_array((np.ones(a.size), (a, b)), shape=(self.n_points,) * 2)
        raw = csgraph.connected_components(graph, directed=False)[1]
        labels = np.zeros(self.n_points, dtype=np.int64)
        labels[member] = np.unique(raw[member], return_inverse=True)[1] + 1
        return labels

    def neighbor_reduce(self, vals: np.ndarray, op, fill, at=None) -> np.ndarray:
        """``op`` over each vertex's neighbours' ``vals`` along :attr:`edges`;
        with vertex indices ``at``, the whole result ``[at]``."""
        out = np.full(self.n_points, fill)
        with np.errstate(invalid="ignore"):  # op.at warns on each NaN it meets
            for a, b in (self.edges.T, self.edges.T[::-1]):
                op.at(out, a, vals[b])
        return out if at is None else out[at]

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

    The counting formula over the N_k in-mask k-cells of ``cell_minima``,
    mu_j = sum_{k >= j} (-1)^(k-j) C(k, j) N_k, gives every mu_j of a
    lattice (3D: mu_0 = P - E + F - C, mu_1 = E - 2F + 3C, mu_2 = F - 3C)
    and mu_0 of a mesh. Meshes use the summed simplex content for mu_D
    and, for triangle meshes, half the total boundary edge length for mu_1
    (zero on closed surfaces; mean-curvature terms are deliberately
    omitted, a documented approximation). A space's cells never change once
    it is built, so they are counted on the first call and kept on the space.
    """
    if not isinstance(space, (LatticeSpace, MeshSpace)):
        raise TypeError(f"not a search space: {type(space).__name__}")
    return space._intrinsic_volumes


def _count_intrinsic_volumes(space) -> IntrinsicVolumes:
    n = [int(np.count_nonzero(space.cell_minima(space.mask_flat, k)))
         for k in range(space.dimension + 1)]
    mu = [float(sum((-1) ** (k - j) * math.comb(k, j) * n[k] for k in range(j, len(n))))
          for j in range(len(n))]
    if isinstance(space, MeshSpace):
        # summed in simplex order, one float at a time; mu_1 is mu_D when D = 1
        mu[1] = 0.5 * sum(_simplex_contents(space.vertices, space.boundary_edges).tolist(), 0.0)
        mu[-1] = sum(_simplex_contents(space.vertices, space.simplices).tolist(), 0.0)
    return IntrinsicVolumes(tuple(mu))


def lattice_euler_characteristic(mask: np.ndarray) -> int:
    """Euler characteristic of a boolean lattice mask by direct counting;
    equals ``intrinsic_volumes(...)[0]`` for the same mask."""
    mask = np.asarray(mask, dtype=bool)
    return sum((-1) ** k * np.count_nonzero(_cell_minima(mask, k)) for k in range(mask.ndim + 1))


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


def connected_components(space, member_mask=None):
    """Partition in-mask vertices into maximal connected sets.

    Parameters
    ----------
    space : LatticeSpace or MeshSpace
        Lattice vertices connect to all 2/8/26 neighbours that share a
        point (full connectivity); mesh vertices along their edge array.
    member_mask : ndarray of bool, optional
        Further restriction (e.g. an excursion set), one entry per vertex
        (``space.n_points``), flat or lattice-shaped.

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
        member_mask = np.asarray(member_mask, dtype=bool)
        if member_mask.size != space.n_points:
            raise ValueError(f"member_mask has {member_mask.size} entries and does not "
                             f"cover the space of {space.n_points} vertices")
        member = member & member_mask.ravel()
    labels = space.labels(member)
    idx = np.flatnonzero(labels)
    lab = labels[idx]
    # cut after each label's last vertex; the piece past the last label is empty
    return np.split(idx[np.argsort(lab, kind="stable")], np.cumsum(np.bincount(lab)[1:]))[:-1]


def read_mesh(path) -> MeshSpace:
    """Read a mesh from the plain-text format: 'D nV nS' header, then nV
    coordinate lines, then nS simplex lines of D+1 zero-based indices."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        if len(tokens) < 3:
            raise ValueError("truncated mesh header")
        d, n_v, n_s = (int(t) for t in tokens[:3])
        if min(d, n_v, n_s) < 0:
            raise ValueError(f"negative count in mesh header {' '.join(tokens[:3])}")
        rest = len(tokens) - 3 - n_s * (d + 1)  # coordinate tokens: n_v per axis
        if n_v == 0 or rest < 0 or rest % n_v != 0:
            raise ValueError("inconsistent mesh token count")
        verts = np.array(tokens[3:3 + rest], dtype=float).reshape(n_v, rest // n_v)
        simp = np.array(tokens[3 + rest:], dtype=np.int64).reshape(n_s, d + 1)
        return build_mesh(verts, simp)
    except (ValueError, OverflowError) as err:  # an index past int64 overflows
        raise ValueError(f"{path}: {err}") from None


def write_mesh(space: MeshSpace, path) -> None:
    """Write a mesh in the format accepted by :func:`read_mesh`."""
    with open(path, "w") as fh:
        fh.write(f"{space.dimension} {space.n_points} {len(space.all_simplices)}\n")
        for row in space.vertices:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        for row in space.all_simplices:
            fh.write(" ".join(str(int(i)) for i in row) + "\n")
