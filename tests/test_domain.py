"""Search-space construction, counting and component tests."""

import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from topostat import (
    build_lattice,
    build_mesh,
    connected_components,
    intrinsic_volumes,
    lattice_ec_curve,
    lattice_euler_characteristic,
    read_mesh,
    write_mesh,
)
from topostat.domain import MeshSpace, _cell_minima, _simplex_contents


def brute_force_cubes(mask):
    """Independent oracle: enumerate every 2x2x2 corner set."""
    nx, ny, nz = mask.shape
    count = 0
    for i in range(nx - 1):
        for j in range(ny - 1):
            for k in range(nz - 1):
                corners = [mask[i + a, j + b, k + c]
                           for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                count += all(corners)
    return count


def brute_force_flood_fill(mask):
    """Independent oracle: python-set BFS over the full-connectivity
    neighbor offsets."""
    dims = mask.shape
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=mask.ndim) if any(off)]
    unvisited = {tuple(c) for c in np.argwhere(mask)}
    comps = []
    while unvisited:
        start = min(unvisited)
        unvisited.remove(start)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for off in offsets:
                w = tuple(a + o for a, o in zip(v, off))
                if w in unvisited:
                    unvisited.remove(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def masked_grid_mesh(mask, lift=None):
    """One-diagonal triangulation of a 2D grid, (i, j)-(i+1, j+1) the
    diagonal, restricted to ``mask``; ``lift`` adds a z coordinate."""
    nx, ny = mask.shape
    vx, vy = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         indexing="ij")
    verts = np.column_stack([vx.ravel(), vy.ravel()]
                            + ([] if lift is None else [np.ravel(lift)]))
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b, c, d = i * ny + j, (i + 1) * ny + j, i * ny + j + 1, (i + 1) * ny + j + 1
            tris += [(a, b, d), (a, d, c)]
    return MeshSpace(verts, np.array(tris, dtype=np.int64).reshape(-1, 3),
                     vertex_mask=mask.ravel())


def reference_edges(mesh):
    """Per-side pairs, row-wise np.unique, then the mask filter (reference)."""
    s = mesh.all_simplices
    pairs = [np.stack([s[:, i], s[:, j]], axis=1)
             for i, j in itertools.combinations(range(s.shape[1]), 2)]
    e = np.unique(np.sort(np.concatenate(pairs, axis=0), axis=1), axis=0)
    return e[mesh.mask_flat[e].all(axis=1)]


def reference_boundary_edges(mesh):
    s = mesh.simplices
    pairs = [np.stack([s[:, i], s[:, j]], axis=1)
             for i, j in itertools.combinations(range(3), 2)]
    uniq, counts = np.unique(np.sort(np.concatenate(pairs, axis=0), axis=1), axis=0,
                             return_counts=True)
    return uniq[counts == 1]


def reference_content(verts):
    """D-volume of one simplex from its (D+1, E) coordinates (reference)."""
    edges = verts[1:] - verts[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram)) if gram.shape[0] > 1 else float(gram[0, 0])
    return float(np.sqrt(max(det, 0.0))) / (1.0 if edges.shape[0] == 1 else 2.0)


def reference_mesh_mu(mesh):
    """The per-simplex loops of intrinsic_volumes (reference)."""
    v, n_v, n_e = mesh.vertices, mesh.n_inside, len(reference_edges(mesh))
    if mesh.dimension == 1:
        length = 0.0
        for a, b in mesh.simplices:
            length += float(np.linalg.norm(v[b] - v[a]))
        return (float(n_v - n_e), length)
    area = sum(reference_content(v[s]) for s in mesh.simplices)
    boundary = 0.0
    for a, b in reference_boundary_edges(mesh):
        boundary += float(np.linalg.norm(v[b] - v[a]))
    return (float(n_v - n_e + len(mesh.simplices)), 0.5 * boundary, float(area))


def reference_mesh_components(mesh, member_mask):
    """Depth-first flood fill over per-vertex neighbour lists (reference)."""
    adj = [[] for _ in range(mesh.n_points)]
    for a, b in reference_edges(mesh):
        adj[a].append(int(b))
        adj[b].append(int(a))
    member = mesh.mask_flat & member_mask
    seen = np.zeros(mesh.n_points, dtype=bool)
    comps = []
    for start in np.flatnonzero(member):
        if seen[start]:
            continue
        stack, comp = [int(start)], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(adj[v]):
                if member[w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def random_masked_meshes(seed, count=12):
    """Masked triangulated grids of assorted sizes, half lifted to 3D."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        shape = tuple(int(n) for n in rng.integers(2, 16, size=2))
        mask = rng.random(shape) < rng.uniform(0.5, 1.0)
        mask.flat[0] = True
        lift = rng.standard_normal(shape) * 3.0 if k % 2 else None
        yield masked_grid_mesh(mask, lift), rng


class TestLattice:
    def test_2x2_full_counts(self):
        # 4 points, 4 edges, 1 square: (P - E + F, E - 2F, F)
        space = build_lattice((2, 2), np.ones(4, dtype=bool))
        assert intrinsic_volumes(space).mu == (1.0, 2.0, 1.0)

    def test_1d_chain_counts(self):
        # 3 points, 2 edges: (P - E, E)
        space = build_lattice((3,), np.ones(3, dtype=bool))
        assert intrinsic_volumes(space).mu == (1.0, 2.0)

    def test_cube_count_matches_enumeration(self):
        mask = np.ones((4, 4, 4), dtype=bool)
        space = build_lattice((4, 4, 4), mask)
        assert intrinsic_volumes(space)[3] == brute_force_cubes(mask) == 27

    def test_cube_count_random_mask(self):
        rng = np.random.default_rng(42)
        mask = rng.random((5, 6, 4)) < 0.7
        mask.flat[0] = True
        space = build_lattice(mask.shape, mask)
        assert intrinsic_volumes(space)[3] == brute_force_cubes(mask)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_lattice((2, 2), np.zeros(4, dtype=bool))

    def test_mask_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            build_lattice((2, 2), np.ones(5, dtype=bool))

    def test_dimension_over_3_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_lattice((2, 2, 2, 2), np.ones(16, dtype=bool))


class TestMesh:
    def test_single_triangle(self):
        mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        assert len(mesh.simplices) == 1
        assert len(mesh.edges) == 3

    def test_two_triangles_shared_edge(self):
        mesh = build_mesh([(0, 0), (1, 0), (0, 1), (1, 1)],
                          [(0, 1, 2), (1, 3, 2)])
        assert len(mesh.simplices) == 2
        assert len(mesh.edges) == 5

    def test_icosahedron_edges_and_euler(self):
        # derive the 20 faces by enumeration: triples of vertices that are
        # pairwise at the minimal (edge) distance
        phi = (1 + np.sqrt(5)) / 2
        verts = []
        for a in (-1, 1):
            for b in (-phi, phi):
                verts += [(0, a, b), (a, b, 0), (b, 0, a)]
        verts = np.array(verts)
        assert len(verts) == 12
        d2 = ((verts[:, None, :] - verts[None, :, :]) ** 2).sum(-1)
        edge2 = np.min(d2[d2 > 1e-9])
        faces = [
            (i, j, k)
            for i, j, k in itertools.combinations(range(12), 3)
            if abs(d2[i, j] - edge2) < 1e-9
            and abs(d2[i, k] - edge2) < 1e-9
            and abs(d2[j, k] - edge2) < 1e-9
        ]
        assert len(faces) == 20
        mesh = build_mesh(verts, faces)
        assert len(mesh.edges) == 30
        mu = intrinsic_volumes(mesh)
        assert mu[0] == 2.0  # closed surface of genus 0
        assert len(mesh.boundary_edges) == 0
        assert mu[1] == 0.0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_mesh([(0, 0), (1, 0)], [(0, 1, 2)])

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])

    @pytest.mark.parametrize("vertices, simplices, named", [
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 1, 2)], "(0, 1, 2): row 1 lists"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 2, 1)], "(0, 2, 1): row 1 lists"),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 2, 3), (0, 1, 2), (2, 1, 0)],
         "(2, 1, 0): row 2 lists the vertices of row 1"),
        ([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2), (1, 0)], "(1, 0): row 2 lists"),
    ], ids=["triangle-same-order", "triangle-other-order", "triangle-later", "edge"])
    def test_repeated_simplex_rejected(self, vertices, simplices, named):
        # counted twice, a repeat doubled mu and l_D: (0, 1, 2), (0, 2, 1) gave
        # mu = (2, 0, 1), a closed surface of twice the triangle's area
        with pytest.raises(ValueError, match=re.escape(f"repeated simplex {named}")):
            build_mesh(vertices, simplices)

    def test_triangle_on_a_line_rejected(self):
        with pytest.raises(ValueError, match="2 coordinates per vertex, got 1"):
            build_mesh([(0.0,), (1.0,), (2.0,)], [(0, 1, 2)])

    def test_mesh_file_without_coordinates_rejected(self, tmp_path):
        # three vertices, one triangle, no coordinate lines
        path = tmp_path / "bare.mesh"
        path.write_text("2 3 1\n0 1 2\n")
        with pytest.raises(ValueError, match="got 0"):
            read_mesh(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
            build_mesh([(0, 0), (1, 0), (0, bad)], [(0, 1, 2)])

    @pytest.mark.parametrize("text, message", [
        ("2 3 -1\n0 0\n1 0\n0 1\n", "negative count in mesh header 2 3 -1"),
        ("2 -3 1\n0 1 2\n", "negative count"),
        ("2 3.0 1\n0 0\n1 0\n0 1\n0 1 2\n", "invalid literal for int.*'3.0'"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2.5\n", "invalid literal for int.*'2.5'"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n", "Python int too large"),
        ("2 3 1\n0 0\n1 0\n0 x\n0 1 2\n", "could not convert string to float: 'x'"),
        ("2 3 3\n0 0\n1 0\n0 1\n", "inconsistent mesh token count"),
        ("2 3 2\n0 0\n1 0\n0 1\n0 1 2\n2 1 0\n", "repeated simplex"),
    ], ids=["negative-simplices", "negative-vertices", "fractional-header",
            "fractional-index", "huge-index", "word-coordinate", "short", "repeated"])
    def test_mesh_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_mesh(path)

    def test_mesh_file_with_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.mesh"
        path.write_text("2 3 1\n0 0\n1 nan\n0 1\n0 1 2\n")
        with pytest.raises(ValueError, match="vertex 1 has a non-finite coordinate"):
            read_mesh(path)


class TestIntrinsicVolumes:
    def test_full_box_closed_form(self):
        # brute-force counting on assorted boxes reproduces
        # (1, a+b+c, ab+ac+bc, abc)
        for dims in [(3, 3, 3), (2, 4, 5), (6, 2, 3)]:
            space = build_lattice(dims, np.ones(dims, dtype=bool))
            a, b, c = (n - 1 for n in dims)
            mu = intrinsic_volumes(space)
            assert mu.mu == (1.0, a + b + c, a * b + a * c + b * c, a * b * c)

    def test_full_box_2d(self):
        space = build_lattice((4, 7), np.ones(28, dtype=bool))
        assert intrinsic_volumes(space).mu == (1.0, 3 + 6, 18.0)

    def test_single_voxel(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = True
        mu = intrinsic_volumes(build_lattice((3, 3, 3), mask))
        assert mu.mu == (1.0, 0.0, 0.0, 0.0)

    def test_disjoint_boxes_euler(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0:3, 0:3] = True
        mask[5:9, 2:6] = True
        mask[0:2, 7:10] = True
        mu = intrinsic_volumes(build_lattice((10, 10), mask))
        assert mu[0] == 3.0

    def test_unit_right_triangle_mesh(self):
        mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        mu = intrinsic_volumes(mesh)
        assert mu[0] == 1.0
        assert mu[2] == pytest.approx(0.5, abs=1e-12)
        assert mu[1] == pytest.approx((2 + np.sqrt(2)) / 2, abs=1e-12)

    def test_mesh_volume_rigid_motion_invariant(self):
        rng = np.random.default_rng(0)
        verts = rng.random((12, 2))
        tris = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (0, 5, 9)]
        mu = intrinsic_volumes(build_mesh(verts, tris))
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = verts @ rot.T + np.array([3.0, -7.0])
        mu2 = intrinsic_volumes(build_mesh(moved, tris))
        assert mu2[2] == pytest.approx(mu[2], rel=1e-10)
        assert mu2[1] == pytest.approx(mu[1], rel=1e-10)

    def test_lattice_euler_matches_intrinsic_mu0(self):
        rng = np.random.default_rng(7)
        mask = rng.random((8, 8, 8)) < 0.55
        mask.flat[0] = True
        assert lattice_euler_characteristic(mask) == \
            intrinsic_volumes(build_lattice(mask.shape, mask))[0]

    def test_1d_mesh_length(self):
        mesh = build_mesh([(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)], [(0, 1), (1, 2)])
        mu = intrinsic_volumes(mesh)
        assert mu[0] == 1.0
        assert mu[1] == pytest.approx(5.0 + 6.0)


class TestConnectedComponents:
    def test_diagonal_voxels_face_vs_full(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        space = build_lattice((4, 4), mask)
        assert len(connected_components(space)) == 1

    def test_random_mask_matches_flood_fill(self):
        rng = np.random.default_rng(123)
        mask = rng.random((16, 16)) < 0.45
        mask[0, 0] = True
        space = build_lattice((16, 16), mask)
        comps = connected_components(space)
        oracle = brute_force_flood_fill(mask)
        assert len(comps) == len(oracle)
        got = {frozenset(int(v) for v in comp) for comp in comps}
        want = {frozenset(np.ravel_multi_index(tuple(zip(*sorted(c))), mask.shape)
                          .tolist()) for c in oracle}
        assert got == want

    def test_component_order_deterministic(self):
        rng = np.random.default_rng(5)
        mask = rng.random((12, 12)) < 0.4
        mask[0, 0] = True
        space = build_lattice((12, 12), mask)
        comps = connected_components(space)
        firsts = [int(c[0]) for c in comps]
        assert firsts == sorted(firsts)
        again = connected_components(space)
        assert all(np.array_equal(a, b) for a, b in zip(comps, again))

    def test_mesh_components_order_independent(self):
        verts = [(float(i), 0.0) for i in range(9)]
        tris = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        mesh = build_mesh(verts, tris)
        comps = connected_components(mesh)
        rng = np.random.default_rng(9)
        shuffled = build_mesh(verts, [tris[i] for i in rng.permutation(3)])
        comps2 = connected_components(shuffled)
        assert [c.tolist() for c in comps] == [c.tolist() for c in comps2]

    def test_member_mask_restriction(self):
        space = build_lattice((5,), np.ones(5, dtype=bool))
        member = np.array([True, True, False, True, True])
        comps = connected_components(space, member_mask=member)
        assert [c.tolist() for c in comps] == [[0, 1], [3, 4]]

    @pytest.mark.parametrize("size", [1, 15, 17])
    def test_member_mask_of_another_size_rejected(self, size):
        # one entry used to broadcast over all 16 vertices
        space = build_lattice((4, 4), np.ones(16, dtype=bool))
        with pytest.raises(ValueError, match="member_mask has .* does not cover the space"):
            connected_components(space, member_mask=np.ones(size, dtype=bool))

    def test_member_mask_in_lattice_shape(self):
        space = build_lattice((4, 4), np.ones(16, dtype=bool))
        member = np.zeros((4, 4), dtype=bool)
        member[0, 0] = member[3, 3] = True
        comps = connected_components(space, member_mask=member)
        assert [c.tolist() for c in comps] == [[0], [15]]

    @pytest.mark.parametrize("func", [intrinsic_volumes, connected_components])
    @pytest.mark.parametrize("not_space", [None, [True, True], np.ones(4, dtype=bool)])
    def test_non_space_argument_raises_type_error(self, func, not_space):
        with pytest.raises(TypeError, match=f"not a search space: {type(not_space).__name__}"):
            func(not_space)


class TestEdgeArrayMatchesReference:
    """The edge-array mesh operations equal the loops they replaced, exactly."""

    def test_edges_and_boundary_edges(self):
        chain = MeshSpace([(float(i), 0.0) for i in range(7)],
                          [(0, 1), (2, 1), (3, 4), (5, 4), (5, 6)],
                          vertex_mask=[True, True, True, False, True, True, True])
        for mesh, _ in [*random_masked_meshes(0), (chain, None)]:
            np.testing.assert_array_equal(mesh.edges, reference_edges(mesh))
            assert mesh.edges.dtype == np.int64
            if mesh.dimension == 2:
                np.testing.assert_array_equal(mesh.boundary_edges,
                                              reference_boundary_edges(mesh))

    @pytest.mark.parametrize("embed", [2, 3])
    def test_simplex_content(self, embed):
        rng = np.random.default_rng(embed)
        verts = rng.standard_normal((400, embed)) * rng.choice([1e-3, 1.0, 1e3], (400, 1))
        for k in (2, 3):
            rows = np.array([rng.choice(400, k, replace=False) for _ in range(500)])
            want = [reference_content(verts[r]) for r in rows]
            assert _simplex_contents(verts, rows).tolist() == want

    def test_intrinsic_volumes(self):
        chain = build_mesh(np.random.default_rng(4).standard_normal((9, 3)),
                           [(i, i + 1) for i in range(8)])
        for mesh, _ in [*random_masked_meshes(1), (chain, None)]:
            assert intrinsic_volumes(mesh).mu == reference_mesh_mu(mesh)

    def test_components_of_quantised_excursion_sets(self):
        for mesh, rng in random_masked_meshes(2):
            values = rng.integers(0, 4, mesh.n_points)
            for level in range(4):
                got = connected_components(mesh, member_mask=values >= level)
                assert [c.tolist() for c in got] == \
                    reference_mesh_components(mesh, values >= level)
                assert all(c.dtype == np.int64 for c in got)

    @pytest.mark.parametrize("row", [(0, 1, 0), (1, 1, 2), (2, 0, 0)])
    def test_degenerate_row_named_wherever_the_repeat_sits(self, row):
        named = re.escape(f"degenerate simplex {row}")
        with pytest.raises(ValueError, match=named):
            build_mesh([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), row, (1, 1, 3)])


def reference_lattice_mu(mask):
    """The per-dimension open-box formulas over in-mask points P, and unit
    edges E, squares F and cubes C with every corner in-mask (reference)."""
    def count(axes):
        m = mask
        for ax in axes:
            lo = tuple(slice(0, -1) if a == ax else slice(None) for a in range(m.ndim))
            hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(m.ndim))
            m = m[lo] & m[hi]
        return int(m.sum())

    p, e, f, c = (sum(count(axes) for axes in itertools.combinations(range(mask.ndim), k))
                  for k in range(4))
    if mask.ndim == 1:
        return (float(p - e), float(e))
    if mask.ndim == 2:
        return (float(p - e + f), float(e - 2 * f), float(f))
    return (float(p - e + f - c), float(e - 2 * f + 3 * c), float(f - 3 * c), float(c))


LATTICE_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7)
# quantised so that vertices tie with each other and with the thresholds
LEVELS = [-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf, np.nan]


@given(LATTICE_SHAPES, st.floats(0.3, 0.9), st.integers(0, 2 ** 32 - 1))
def test_binomial_intrinsic_volumes_match_per_dimension_formulas(shape, density, seed):
    """Random 1-3D masks with holes: the binomial sum over cell counts gives
    exactly the open-box formulas written out per dimension."""
    mask = np.random.default_rng(seed).random(shape) < density
    mask.flat[-1] = True
    assert intrinsic_volumes(build_lattice(mask.shape, mask)).mu == \
        reference_lattice_mu(mask)


@given(hnp.arrays(float, LATTICE_SHAPES, elements=st.sampled_from(LEVELS)),
       st.lists(st.floats(-1.5, 1.5), max_size=3))
def test_ec_curve_matches_per_threshold_count(values, between):
    """One sorted pass gives every threshold's EC, with ties at t, NaN
    vertices (outside at any t), +-inf vertices and NaN or +-inf thresholds."""
    ts = np.concatenate([np.unique(values), [-np.inf, np.inf, np.nan], between])
    want = [lattice_euler_characteristic(values >= t) for t in ts]
    assert lattice_ec_curve(values, ts).tolist() == want


def sort_every_minimum_ec_curve(values, thresholds):
    """The EC curve as it was before the lowest-threshold cut: every non-NaN
    cell minimum sorted, then counted at each t."""
    values, t = np.asarray(values, dtype=float), np.asarray(thresholds, dtype=float)
    ec = np.zeros(t.shape, dtype=np.int64)
    for k in range(values.ndim + 1):
        mins = _cell_minima(values, k)
        mins = np.sort(mins[~np.isnan(mins)])
        ec += (-1) ** k * (mins.size - np.searchsorted(mins, t))
    return ec


@given(hnp.arrays(float, LATTICE_SHAPES,
                  elements=st.sampled_from(LEVELS) | st.floats(-2.0, 2.0)),
       st.lists(st.sampled_from(LEVELS) | st.floats(-2.0, 2.0), max_size=6),
       st.booleans())
def test_ec_curve_sorts_only_what_it_counts(values, thresholds, scalar):
    """Keeping the minima at or above the lowest threshold gives the curve of
    sorting them all: for empty, unsorted, repeated, +-inf and NaN thresholds
    and a scalar one, on 1-3D values with NaN and +-inf vertices."""
    if scalar:
        thresholds = thresholds[0] if thresholds else 0.5
    got = lattice_ec_curve(values, thresholds)
    want = sort_every_minimum_ec_curve(values, thresholds)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


SIX_NEIGHBOURS = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)


@given(hnp.arrays(bool, st.tuples(st.integers(2, 9), st.integers(2, 9))))
def test_triangulated_grid_matches_six_neighbour_lattice(mask):
    """The one-diagonal triangulation of a masked grid has the lattice's
    6-neighbour components, and mu_0 = components - holes."""
    assume(mask.any())
    mesh = masked_grid_mesh(mask)
    labels, n_comp = ndimage.label(mask, structure=SIX_NEIGHBOURS)
    want = [np.flatnonzero(labels.ravel() == k) for k in range(1, n_comp + 1)]
    want.sort(key=lambda c: int(c[0]))
    got = connected_components(mesh)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    holes = ndimage.label(~np.pad(mask, 1), structure=SIX_NEIGHBOURS)[1] - 1
    assert intrinsic_volumes(mesh)[0] == n_comp - holes


def test_mesh_file_round_trip(tmp_path):
    verts = np.array([(0.0, 0.0, 1.5), (1.0, 0.25, 0.0), (0.0, 1.0, -2.0),
                      (1.0, 1.0, 0.125)])
    tris = np.array([(0, 1, 2), (1, 3, 2)])
    mesh = build_mesh(verts, tris)
    path = tmp_path / "sheet.mesh"
    write_mesh(mesh, path)
    loaded = read_mesh(path)
    assert loaded.dimension == 2
    np.testing.assert_array_equal(loaded.vertices, verts)
    np.testing.assert_array_equal(loaded.all_simplices, tris)
    assert intrinsic_volumes(loaded).mu == intrinsic_volumes(mesh).mu


def brute_force_neighbor_reduce(vals, dims, op, fill):
    """Oracle: fold ``op`` over the 3**D - 1 offsets of every vertex, ``fill``
    standing in for each neighbour off the grid."""
    vals = vals.reshape(dims)
    out = np.empty(dims)
    for idx in itertools.product(*(range(n) for n in dims)):
        acc = fill
        for off in itertools.product((-1, 0, 1), repeat=len(dims)):
            if any(off):
                nb = tuple(i + o for i, o in zip(idx, off))
                inside = all(0 <= c < n for c, n in zip(nb, dims))
                acc = op(acc, vals[nb] if inside else fill)
        out[idx] = acc
    return out.ravel()


REDUCE_OPS = st.sampled_from([np.maximum, np.fmax])
REDUCE_FILLS = st.sampled_from([-np.inf, np.nan])


@given(hnp.arrays(float, LATTICE_SHAPES,
                  elements=st.sampled_from(LEVELS) | st.floats(-2.0, 2.0)),
       REDUCE_OPS, REDUCE_FILLS)
def test_lattice_neighbor_reduce_matches_offset_loop(values, op, fill):
    """1-3D lattices with NaN and +-inf values: the padded shifts give each
    vertex the fold over its full neighbourhood."""
    space = build_lattice(values.shape, np.ones(values.size, dtype=bool))
    got = space.neighbor_reduce(values.ravel(), op, fill)
    np.testing.assert_array_equal(got, brute_force_neighbor_reduce(values, values.shape, op, fill))


@given(hnp.arrays(bool, st.tuples(st.integers(2, 9), st.integers(2, 9))),
       st.data(), REDUCE_OPS, REDUCE_FILLS)
def test_mesh_neighbor_reduce_matches_edge_loop(mask, data, op, fill):
    """Random masked meshes: each vertex folds its neighbours along the edges."""
    mask.flat[0] = True
    mesh = masked_grid_mesh(mask)
    vals = data.draw(hnp.arrays(float, mask.size,
                                elements=st.sampled_from(LEVELS) | st.floats(-2.0, 2.0)))
    want = np.full(mesh.n_points, fill)
    for a, b in mesh.edges.tolist():
        want[a], want[b] = op(want[a], vals[b]), op(want[b], vals[a])
    np.testing.assert_array_equal(mesh.neighbor_reduce(vals, op, fill), want)


# candidate shares on both sides of infer.GATHER_SHARE, 1/8
AT_SHARES = st.sampled_from([0.0, 0.02, 0.1, 0.15, 0.5, 1.0])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@given(hnp.arrays(float, LATTICE_SHAPES,
                  elements=st.sampled_from(LEVELS) | st.floats(-2.0, 2.0)),
       st.data(), AT_SHARES, REDUCE_OPS, REDUCE_FILLS)
def test_lattice_neighbor_reduce_at_matches_whole_pass(values, data, share, op, fill):
    """Masked 1-3D lattices with NaN and +-inf values: the gather at some
    vertices gives those vertices' entries of the whole pass, bit for bit."""
    mask = data.draw(hnp.arrays(bool, values.shape))
    mask.flat[0] = True
    space = build_lattice(values.shape, mask)
    vals = np.where(space.mask_flat, values.ravel(), -np.inf)
    at = np.flatnonzero(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                        .random(vals.size) < share)
    assert_same_bits(space.neighbor_reduce(vals, op, fill, at=at),
                     space.neighbor_reduce(vals, op, fill)[at])


@given(hnp.arrays(bool, st.tuples(st.integers(2, 9), st.integers(2, 9))),
       st.data(), AT_SHARES, REDUCE_OPS, REDUCE_FILLS)
def test_mesh_neighbor_reduce_at_matches_whole_pass(mask, data, share, op, fill):
    """Random masked meshes: as on lattices, along the edges from ``at``."""
    mask.flat[0] = True
    mesh = masked_grid_mesh(mask)
    vals = data.draw(hnp.arrays(float, mask.size,
                                elements=st.sampled_from(LEVELS) | st.floats(-2.0, 2.0)))
    at = np.flatnonzero(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                        .random(vals.size) < share)
    assert_same_bits(mesh.neighbor_reduce(vals, op, fill, at=at),
                     mesh.neighbor_reduce(vals, op, fill)[at])


def test_gather_at_a_sparse_set_costs_the_padded_grid():
    """At a 0.5% share the gather holds the padded grid and a few arrays of
    the candidates' size, never a result of the grid's size."""
    dims = (64, 64, 50)
    space = build_lattice(dims, np.ones(dims, dtype=bool))
    vals = np.random.default_rng(8).standard_normal(space.n_points)
    at = np.flatnonzero(np.random.default_rng(9).random(space.n_points) < 0.005)
    space.neighbor_reduce(vals, np.maximum, -np.inf, at=at)  # imports and caches
    tracemalloc.start()
    try:
        space.neighbor_reduce(vals, np.maximum, -np.inf, at=at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 8 * math.prod(n + 2 for n in dims)
    assert peak <= padded + 8 * at.nbytes + 16_384


@pytest.mark.parametrize("space", [
    build_lattice((9, 8, 7), np.random.default_rng(10).random((9, 8, 7)) < 0.8),
    masked_grid_mesh(np.random.default_rng(11).random((9, 8)) < 0.8)])
def test_intrinsic_volumes_counted_once_per_space(space):
    cls = type(space)
    with mock.patch.object(cls, "cell_minima", autospec=True,
                           side_effect=cls.cell_minima) as counted:
        mu = intrinsic_volumes(space)
        first = counted.call_count
        again = intrinsic_volumes(space)
    assert first == space.dimension + 1 and counted.call_count == first
    assert again is mu
    # a new space over the same cells counts them afresh
    assert intrinsic_volumes(space.restricted(np.ones(space.n_points, dtype=bool))) == mu


def test_spaces_keep_read_only_copies_of_their_arrays():
    # a space counts its volumes once, so the caller's later edits must not reach it
    mask, vertex_mask = np.ones((3, 4), bool), np.ones(3, bool)
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    lattice = build_lattice((3, 4), mask)
    mesh = MeshSpace(verts, [[0, 1, 2]], vertex_mask=vertex_mask)
    mu = intrinsic_volumes(lattice), intrinsic_volumes(mesh)
    assert mask.flags.writeable and vertex_mask.flags.writeable and verts.flags.writeable
    mask[0, 0], vertex_mask[0], verts[1, 0] = False, False, 3.0
    assert lattice.mask.all() and mesh.mask_flat.all() and mesh.vertices[1, 0] == 1.0
    assert (intrinsic_volumes(lattice), intrinsic_volumes(mesh)) == mu
    assert not any(a.flags.writeable for a in (lattice.mask, mesh.vertices,
                                                mesh.all_simplices, mesh.mask_flat))


@given(hnp.arrays(bool, st.tuples(st.integers(2, 9), st.integers(2, 9))))
def test_mesh_cell_minima_count_vertices_edges_and_simplices(mask):
    mask.flat[0] = True
    mesh = masked_grid_mesh(mask)
    counts = [np.count_nonzero(mesh.cell_minima(mesh.mask_flat, k)) for k in range(3)]
    assert counts == [mesh.n_inside, len(mesh.edges), len(mesh.simplices)]
