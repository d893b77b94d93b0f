"""Search-space construction, counting and component tests."""

import itertools

import numpy as np
import pytest

from topostat import (
    build_lattice,
    build_mesh,
    connected_components,
    intrinsic_volumes,
    lattice_euler_characteristic,
    read_mesh,
    write_mesh,
)


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


def brute_force_flood_fill(mask, connectivity):
    """Independent oracle: python-set BFS over the neighbor offsets."""
    dims = mask.shape
    if connectivity == "face":
        offsets = [off for off in itertools.product((-1, 0, 1), repeat=mask.ndim)
                   if sum(abs(o) for o in off) == 1]
    else:
        offsets = [off for off in itertools.product((-1, 0, 1), repeat=mask.ndim)
                   if any(off)]
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
        assert len(connected_components(space, connectivity="face")) == 2
        assert len(connected_components(space, connectivity="full")) == 1

    @pytest.mark.parametrize("connectivity", ["face", "full"])
    def test_random_mask_matches_flood_fill(self, connectivity):
        rng = np.random.default_rng(123)
        mask = rng.random((16, 16)) < 0.45
        mask[0, 0] = True
        space = build_lattice((16, 16), mask)
        comps = connected_components(space, connectivity=connectivity)
        oracle = brute_force_flood_fill(mask, connectivity)
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
