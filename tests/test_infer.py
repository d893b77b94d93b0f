"""Excursion sets, local maxima, peak tables, clusters and BH q-values."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

import topostat
from topostat import (
    DesignMatrix,
    FieldType,
    ReselVector,
    StatField,
    build_lattice,
    build_mesh,
    clusters,
    ec_density,
    excursion_set,
    expected_ec,
    fit,
    intrinsic_volumes,
    local_maxima,
    lkc_vector,
    normalized_residuals,
    peak_table,
    t_map,
    topological_fdr,
)
from topostat.domain import IntrinsicVolumes, LatticeSpace, connected_components
from topostat.infer import conditional_peak_p, expected_cluster_stats
from topostat.lkc import lattice_smoothness
from topostat.simulate import SimConfig, gen_field, generator_resels
from tests.test_domain import LATTICE_SHAPES, LEVELS, random_masked_meshes, reference_edges
from tests.test_ecd import GAUSS, T11, T12, TABLE1, TABLE3, box_mu
from tests.test_lkc import unit_sheet_mesh


def full_space(dims):
    return build_lattice(dims, np.ones(int(np.prod(dims)), dtype=bool))


def brute_force_maxima(values, dims):
    """Oracle: scan every vertex against its full neighborhood."""
    values = values.reshape(dims)
    out = []
    for idx in itertools.product(*(range(n) for n in dims)):
        v = values[idx]
        is_max = True
        for off in itertools.product((-1, 0, 1), repeat=len(dims)):
            if not any(off):
                continue
            nb = tuple(i + o for i, o in zip(idx, off))
            if all(0 <= c < n for c, n in zip(nb, dims)):
                if values[nb] >= v:
                    is_max = False
                    break
        if is_max:
            out.append(int(np.ravel_multi_index(idx, dims)))
    return sorted(out)


def reference_local_maxima(values, space, threshold=-np.inf):
    """Per-vertex neighbour max over neighbour lists, plateaus resolved by
    a depth-first search from each tie vertex (reference)."""
    values = np.asarray(values, dtype=float).ravel()
    in_mask = space.mask_flat
    masked = np.where(in_mask, values, -np.inf)
    if isinstance(space, LatticeSpace):
        dims = space.dims
        offsets = [off for off in itertools.product((-1, 0, 1), repeat=len(dims)) if any(off)]
        lists = []
        for c in itertools.product(*(range(n) for n in dims)):
            nbs = (tuple(a + o for a, o in zip(c, off)) for off in offsets)
            lists.append([int(np.ravel_multi_index(nb, dims)) for nb in nbs
                          if all(0 <= x < n for x, n in zip(nb, dims))])
    else:
        lists = [[] for _ in range(space.n_points)]
        for a, b in reference_edges(space):
            lists[a].append(int(b))
            lists[b].append(int(a))
    nb_max = np.array([masked[nb].max() if nb else -np.inf for nb in lists])
    in_exc = in_mask & (values >= threshold)
    strict = np.flatnonzero(in_exc & (masked > nb_max)).tolist()
    ties = np.flatnonzero(in_exc & (masked == nb_max)).tolist()
    visited, kept = set(), []
    for start in ties:
        if start in visited:
            continue
        level, comp, stack, is_max = masked[start], [start], [start], True
        visited.add(start)
        while stack:
            for w in lists[stack.pop()]:
                if not in_mask[w]:
                    continue
                if masked[w] > level:
                    is_max = False
                elif masked[w] == level and w not in visited:
                    visited.add(w)
                    comp.append(w)
                    stack.append(w)
        if is_max:
            kept.append(min(comp))
    return sorted(strict + kept)


def quantised_field(rng, n):
    """Few distinct levels (many plateaus), with some -inf and NaN entries."""
    values = rng.integers(0, 4, n).astype(float)
    values[rng.random(n) < 0.05] = -np.inf
    values[rng.random(n) < 0.02] = np.nan
    return values


class TestExcursion:
    def test_threshold_below_min_is_full_mask(self):
        space = full_space((4, 4))
        stat = StatField(np.arange(16.0), GAUSS)
        assert excursion_set(stat, space, -100.0).sum() == 16

    def test_threshold_above_max_is_empty(self):
        space = full_space((4, 4))
        stat = StatField(np.arange(16.0), GAUSS)
        assert excursion_set(stat, space, 100.0).sum() == 0

    def test_median_split_count(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(31 * 17)
        space = full_space((31, 17))
        t = float(np.median(vals))
        got = excursion_set(StatField(vals, GAUSS), space, t).sum()
        assert got == int((vals >= t).sum())  # direct count oracle

    def test_respects_mask(self):
        mask = np.array([True, False, True, True])
        space = build_lattice((4,), mask)
        stat = StatField(np.array([1.0, 9.0, 1.0, 0.0]), GAUSS)
        np.testing.assert_array_equal(
            excursion_set(stat, space, 0.5), [True, False, True, False])


class TestLocalMaxima:
    def test_single_paraboloid_peak(self):
        dims = (11, 11)
        x, y = np.meshgrid(np.arange(11.0), np.arange(11.0), indexing="ij")
        vals = -((x - 5) ** 2 + (y - 5) ** 2)
        got = local_maxima(StatField(vals.ravel(), GAUSS), full_space(dims))
        assert got.tolist() == [5 * 11 + 5]

    def test_two_separated_bumps(self):
        dims = (16, 16)
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        vals = (np.exp(-((x - 3) ** 2 + (y - 3) ** 2) / 4.0)
                + np.exp(-((x - 12) ** 2 + (y - 12) ** 2) / 4.0))
        got = local_maxima(StatField(vals.ravel(), GAUSS), full_space(dims))
        assert got.tolist() == [3 * 16 + 3, 12 * 16 + 12]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        dims = (32, 32)
        vals = rng.standard_normal(int(np.prod(dims)))
        got = local_maxima(StatField(vals, GAUSS), full_space(dims))
        assert got.tolist() == brute_force_maxima(vals, dims)

    def test_matches_oracle_3d(self):
        rng = np.random.default_rng(2)
        dims = (9, 8, 7)
        vals = rng.standard_normal(int(np.prod(dims)))
        got = local_maxima(StatField(vals, GAUSS), full_space(dims))
        assert got.tolist() == brute_force_maxima(vals, dims)

    def test_plateau_keeps_smallest_vertex(self):
        space = full_space((4,))
        # vertex 3 is a separate strict maximum over its single neighbor
        vals = np.array([5.0, 5.0, 3.0, 4.0])
        got = local_maxima(StatField(vals, GAUSS), space)
        assert got.tolist() == [0, 3]
        got2 = local_maxima(StatField(np.array([5.0, 5.0, 3.0]), GAUSS),
                            full_space((3,)))
        assert got2.tolist() == [0]

    def test_plateau_touching_higher_value_rejected(self):
        space = full_space((4,))
        vals = np.array([5.0, 5.0, 5.0, 9.0])
        got = local_maxima(StatField(vals, GAUSS), space)
        assert got.tolist() == [3]

    def test_threshold_filters(self):
        space = full_space((4,))
        vals = np.array([5.0, 1.0, 2.0, 0.5])
        assert local_maxima(StatField(vals, GAUSS), space, 3.0).tolist() == [0]

    def test_mesh_maxima(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        tris = [(0, 1, 2), (1, 3, 2), (1, 4, 3)]
        mesh = build_mesh(verts, tris)
        vals = np.array([3.0, 1.0, 2.0, 0.5, 7.0])
        got = local_maxima(StatField(vals, GAUSS), mesh)
        assert got.tolist() == [0, 4]

    def test_mesh_nan_neighbour_raises_no_warning(self):
        mesh = build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
        vals = np.array([1.0, np.nan, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = local_maxima(StatField(vals, GAUSS), mesh)
        assert got.tolist() == []  # vertex 0 touches the NaN, so it is not a maximum

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        dims = (20, 20)
        vals = rng.standard_normal(400)
        space = full_space(dims)
        base = local_maxima(StatField(vals, GAUSS), space, 0.2)
        warped = np.arctan(vals * 2.0) + vals ** 3 / 50.0  # strictly increasing
        t_warped = float(np.arctan(0.2 * 2.0) + 0.2 ** 3 / 50.0)
        got = local_maxima(StatField(warped, GAUSS), space, t_warped)
        assert got.tolist() == base.tolist()
        comp_a = connected_components(
            space, member_mask=excursion_set(StatField(vals, GAUSS), space, 0.2))
        comp_b = connected_components(
            space,
            member_mask=excursion_set(StatField(warped, GAUSS), space, t_warped))
        assert [c.tolist() for c in comp_a] == [c.tolist() for c in comp_b]


@st.composite
def masked_lattice_fields(draw):
    """A masked 1-3D lattice and a field of a few levels, +-inf and NaN."""
    shape = draw(LATTICE_SHAPES)
    mask = draw(hnp.arrays(bool, shape))
    mask.flat[0] = True
    values = draw(hnp.arrays(float, mask.size, elements=st.sampled_from(LEVELS)))
    return build_lattice(shape, mask), values


@st.composite
def masked_mesh_fields(draw):
    """A masked triangulated grid, flat or lifted, and a field as above."""
    meshes = [mesh for mesh, _ in random_masked_meshes(draw(st.integers(0, 2 ** 32 - 1)), 2)]
    mesh = draw(st.sampled_from(meshes))
    return mesh, draw(hnp.arrays(float, mesh.n_points, elements=st.sampled_from(LEVELS)))


# -0.5, 0 and 1 are also levels, so some plateaus sit exactly at the threshold
THRESHOLDS = st.sampled_from([-np.inf, -0.5, 0.0, 1.0, np.inf])


class TestLocalMaximaMatchReference:
    """Array neighbour max and graph-labelled plateaus equal the
    neighbour-list loop and the plateau search they replaced, exactly."""

    @pytest.mark.parametrize("dims", [(40,), (13, 11), (7, 6, 5)])
    def test_masked_lattices(self, dims):
        rng = np.random.default_rng(len(dims))
        for _ in range(15):
            mask = rng.random(dims) < rng.uniform(0.6, 1.0)
            mask.flat[0] = True
            space = build_lattice(dims, mask)
            values = quantised_field(rng, space.n_points)
            for threshold in (-np.inf, 1.0, 3.0):
                with np.errstate(invalid="ignore"):
                    got = local_maxima(StatField(values, GAUSS), space, threshold)
                assert got.tolist() == reference_local_maxima(values, space, threshold)
                assert got.dtype == np.int64

    def test_masked_triangulated_grids(self):
        for mesh, rng in random_masked_meshes(3, count=20):
            values = quantised_field(rng, mesh.n_points)
            for threshold in (-np.inf, 2.0):
                with np.errstate(invalid="ignore"):
                    got = local_maxima(StatField(values, GAUSS), mesh, threshold)
                assert got.tolist() == reference_local_maxima(values, mesh, threshold)

    def test_plateau_beaten_behind_a_nan(self):
        # the 5-plateau's second vertex sees a NaN and a 9: its neighbour max
        # is NaN, yet the 9 still beats the plateau (and the NaN hides the 9)
        space = full_space((3, 3))
        values = np.array([5.0, 5.0, np.nan, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0])
        got = local_maxima(StatField(values, GAUSS), space)
        assert got.tolist() == reference_local_maxima(values, space) == []

    @given(masked_lattice_fields(), THRESHOLDS)
    def test_property_masked_lattices(self, case, threshold):
        space, values = case
        with np.errstate(invalid="ignore"):
            got = local_maxima(StatField(values, GAUSS), space, threshold)
        assert got.tolist() == reference_local_maxima(values, space, threshold)

    @given(masked_mesh_fields(), THRESHOLDS)
    def test_property_masked_meshes(self, case, threshold):
        mesh, values = case
        with np.errstate(invalid="ignore"):
            got = local_maxima(StatField(values, GAUSS), mesh, threshold)
        assert got.tolist() == reference_local_maxima(values, mesh, threshold)


class TestLocalMaximaOnTies:
    """Plateaus cost a few field-sized arrays and no sparse graph."""

    def test_tied_field_peak_memory_is_a_few_volumes(self):
        dims = (32, 32, 40)
        values = np.round(2 * np.random.default_rng(0).standard_normal(dims)).ravel()
        space, stat = full_space(dims), StatField(values, GAUSS)
        local_maxima(stat, space)  # fills the space's cached flat mask
        tracemalloc.start()
        try:
            local_maxima(stat, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * values.nbytes

    def test_tied_lattice_leaves_scipy_sparse_unloaded(self):
        # csgraph labels mesh components only; a lattice plateau uses ndimage
        src = str(Path(topostat.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, numpy as np; "
                "from topostat import FieldType, StatField, build_lattice, local_maxima; "
                "space = build_lattice((6, 6), np.ones(36, bool)); "
                "got = local_maxima(StatField(np.zeros(36), FieldType.gaussian()), space); "
                "print(got.tolist(), 'scipy.sparse' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0] False"


class TestTopologicalFdr:
    def test_single_peak_q_equals_p(self):
        np.testing.assert_allclose(topological_fdr([0.0321]), [0.0321])

    def test_hand_executed_step_up(self):
        np.testing.assert_allclose(topological_fdr([0.01, 0.02, 0.03]),
                                   [0.03, 0.03, 0.03])

    def test_all_ones(self):
        np.testing.assert_array_equal(topological_fdr([1.0, 1.0, 1.0]), 1.0)

    def test_empty(self):
        assert topological_fdr([]).size == 0

    def test_grid_of_three_vectors_matches_hand_oracle(self):
        def hand_bh(p):
            m = len(p)
            order = sorted(range(m), key=lambda i: p[i])
            q = [None] * m
            best = 1.0
            for rank in range(m, 0, -1):
                i = order[rank - 1]
                best = min(best, m * p[i] / rank)
                q[i] = best
            return q

        grid = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        for p in itertools.product(grid, repeat=3):
            np.testing.assert_allclose(topological_fdr(list(p)), hand_bh(list(p)),
                                       atol=1e-12)

    def test_rejection_set_matches_classic_step_up(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.integers(1, 12)
            p = rng.random(m)
            alpha = rng.uniform(0.01, 0.3)
            q = topological_fdr(p)
            # classic BH: reject p_(1..k) with k the largest rank where
            # p_(k) <= alpha k / m
            order = np.argsort(p)
            ks = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
            classic = np.zeros(m, dtype=bool)
            if ks.size:
                classic[order[:ks[-1] + 1]] = True
            np.testing.assert_array_equal(q <= alpha, classic)

    def test_q_monotone_in_p(self):
        p = np.array([0.2, 0.01, 0.6, 0.05])
        q = topological_fdr(p)
        assert np.all(np.diff(q[np.argsort(p)]) >= 0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            topological_fdr([0.5, 1.2])

    def test_nan_p_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            topological_fdr([np.nan, 0.1, 0.2])


P_VALUES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


class TestTopologicalFdrProperties:
    @given(P_VALUES)
    @example([0.0, 0.0, 0.0, 0.0, 0.9999999999999999])  # 5 p / 5 rounds an ulp below p
    def test_q_at_least_p(self, p):
        assert np.all(topological_fdr(p) >= np.asarray(p))

    @given(P_VALUES)
    def test_q_monotone_in_p(self, p):
        p = np.asarray(p)
        q = topological_fdr(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(q[order]) >= 0)

    @given(P_VALUES, st.randoms(use_true_random=False))
    def test_permutation_equivariant(self, p, rnd):
        perm = list(range(len(p)))
        rnd.shuffle(perm)
        np.testing.assert_array_equal(topological_fdr(np.asarray(p)[perm]),
                                      topological_fdr(p)[perm])


class TestClusters:
    def test_two_bumps_sizes(self):
        vals = np.zeros((12, 12))
        vals[2:5, 2:5] = 5.0   # 9 vertices
        vals[8:10, 8:12] = 4.0  # 8 vertices
        space = full_space((12, 12))
        recs = clusters(StatField(vals.ravel(), GAUSS), space, 3.0)
        assert len(recs) == 2
        assert [r.size_vertices for r in recs] == [9, 8]
        assert recs[0].peak_t == 5.0
        assert recs[1].peak_t == 4.0
        assert {r.id for r in recs} == {1, 2}

    def test_point_search_expected_size_is_one(self):
        point = ReselVector.from_resels((1.0,))
        out = expected_cluster_stats(point, GAUSS, 2.0, mu_top=1.0)
        assert out["expected_size"] == pytest.approx(1.0, rel=1e-12)

    def test_cluster_count_matches_expected_ec(self):
        # smooth-field Monte Carlo: observed cluster count vs <c> at t=2.5
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0),
                        n_realizations=400, seed=5)
        resels = generator_resels(cfg)
        space = full_space((64, 64))
        counts = []
        for i in range(cfg.n_realizations):
            f = gen_field(cfg, i)
            recs = clusters(StatField(f.ravel(), GAUSS), space, 2.5)
            counts.append(len(recs))
        counts = np.asarray(counts, dtype=float)
        want = expected_ec(resels, GAUSS, 2.5)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - want) < 1.96 * se


class TestPeakTable:
    def _inject_peak(self, height, dims=(7, 7, 7)):
        vals = np.zeros(dims)
        vals[3, 3, 3] = height
        vals[2, 3, 3] = height / 2
        return StatField(vals.ravel(), FieldType.student_t(12))

    def test_full_volume_scenario(self):
        stat = self._inject_peak(8.71)
        table = peak_table(stat, full_space((7, 7, 7)), TABLE1, 3.93)
        assert len(table.peaks) == 1
        row = table.peaks[0]
        assert row.t == 8.71
        assert row.p_fwe == pytest.approx(0.036, abs=0.004)
        assert row.z == pytest.approx(4.80, abs=0.02)
        assert row.p_unc < 1e-5
        assert row.q_fdr == pytest.approx(
            conditional_peak_p(8.71, 3.93, TABLE1, T12), rel=1e-12)
        assert row.cluster_id == 1
        assert table.footnote["expected_clusters"] == pytest.approx(4.96, rel=0.05)

    def test_tf_scenario(self):
        stat = StatField(self._inject_peak(9.05).values, T11)
        table = peak_table(stat, full_space((7, 7, 7)), TABLE3, 4.02)
        row = table.peaks[0]
        assert row.p_fwe == pytest.approx(0.033, abs=0.004)
        assert row.z == pytest.approx(4.75, abs=0.02)

    def test_empty_field_still_reports_context(self):
        stat = StatField(np.zeros(7 ** 3), T12)
        table = peak_table(stat, full_space((7, 7, 7)), TABLE1, 3.93)
        assert table.peaks == []
        assert table.clusters == []
        assert table.footnote["expected_clusters"] == pytest.approx(4.96, rel=0.05)
        assert table.footnote["expected_fdr"] == 0.0
        assert "(no suprathreshold peaks)" in table.to_text()

    def test_p_fwe_ordering_matches_t_ordering(self):
        rng = np.random.default_rng(6)
        cfg = SimConfig(dims=(32, 32), fwhm=(5.0, 5.0), n_realizations=1, seed=9)
        vals = gen_field(cfg, 0) * 3.0
        stat = StatField(vals.ravel(), GAUSS)
        resels = generator_resels(cfg)
        table = peak_table(stat, full_space((32, 32)), resels, 1.0)
        assert len(table.peaks) >= 3
        ts = [r.t for r in table.peaks]
        ps = [r.p_fwe for r in table.peaks]
        assert ts == sorted(ts, reverse=True)
        assert ps == sorted(ps)
        assert all(r.p_fwe >= r.p_unc for r in table.peaks)

    def test_byte_identical_json(self):
        stat = self._inject_peak(8.71)
        space = full_space((7, 7, 7))
        a = json.dumps(peak_table(stat, space, TABLE1, 3.93).to_dict(),
                       sort_keys=True)
        b = json.dumps(peak_table(stat, space, TABLE1, 3.93).to_dict(),
                       sort_keys=True)
        assert a == b

    def test_two_sided_mirrors_negative_peaks(self):
        vals = np.zeros((7, 7, 7))
        vals[1, 1, 1] = 8.71
        vals[5, 5, 5] = -7.5
        stat = StatField(vals.ravel(), T12)
        table = peak_table(stat, full_space((7, 7, 7)), TABLE1, 3.93,
                           two_sided=True)
        assert len(table.peaks) == 2
        assert table.peaks[0].t == 8.71
        assert table.peaks[1].t == -7.5
        one_sided = peak_table(StatField(vals.ravel(), T12),
                               full_space((7, 7, 7)), TABLE1, 3.93)
        assert table.peaks[0].p_fwe == pytest.approx(
            min(1.0, 2 * one_sided.peaks[0].p_fwe))
        assert table.peaks[1].z == pytest.approx(
            -peak_table(StatField(-vals.ravel(), T12), full_space((7, 7, 7)),
                        TABLE1, 3.93).peaks[0].z)
        assert table.footnote["expected_clusters"] == pytest.approx(
            2 * one_sided.footnote["expected_clusters"])
        assert {c.id for c in table.clusters} == {1, 2}


def _per_peak_expected_ec(resels, field, t):
    total = 0.0
    for d, r in enumerate(resels.resels):
        total += r * ec_density(field, d, float(t))
    return total


def _per_peak_z(t, field):
    if field.kind == "gaussian" or not np.isfinite(t):
        return t
    z = float(special.ndtri_exp(stats.t.logsf(abs(t), field.dof)))
    return -z if t >= 0 else z


def per_peak_table(stat, space, resels, t_feature, two_sided):
    """``peak_table(...).to_dict()`` the per-peak way: scalar p-value calls
    for every peak and each excursion set labelled twice (reference)."""
    ft = stat.field_type
    values = np.asarray(stat.values, dtype=float).ravel()
    sides = 2.0 if two_sided else 1.0
    mu_top = intrinsic_volumes(space)[space.dimension]
    c = _per_peak_expected_ec(resels, ft, t_feature)
    expected_size = mu_top * ec_density(ft, 0, t_feature) / c if c > 0 else float("nan")
    rows, cluster_rows = [], []
    for direction in ((1.0, -1.0) if two_sided else (1.0,)):
        signed = StatField(direction * values, ft)
        offset = len(cluster_rows)
        exc = excursion_set(signed, space, t_feature)
        label = {int(v): k for k, comp in enumerate(
            connected_components(space, member_mask=exc), start=offset + 1) for v in comp}
        for v in local_maxima(signed, space, t_feature):
            t = float(values[v])
            h = abs(t)
            p_unc = min(sides * ec_density(ft, 0, h), 1.0)
            e = 0.0 if h == np.inf else _per_peak_expected_ec(resels, ft, h)
            p_fwe = max(min(sides * min(max(e, 0.0), 1.0), 1.0), p_unc)
            ratio = e / c if c > 0 else 1.0
            cond = min(1.0, min(max(ratio, 0.0), 1.0))
            rows.append({"vertex": int(v), "coords": list(space.coords_of(int(v))), "t": t,
                         "z": _per_peak_z(t, ft), "p_unc": p_unc, "p_fwe": p_fwe,
                         "cond": cond, "cluster_id": label[int(v)]})
        for k, comp in enumerate(connected_components(space, member_mask=exc),
                                 start=offset + 1):
            top = int(comp[int(np.argmax(signed.values[comp]))])
            cluster_rows.append({"id": k, "size_vertices": int(comp.size), "peak_vertex": top,
                                 "peak_t": direction * float(signed.values[top]),
                                 "expected_size": expected_size})
    for row, q in zip(rows, topological_fdr([r.pop("cond") for r in rows])):
        row["q_fdr"] = float(q)
    rows.sort(key=lambda r: (-r["t"], tuple(r["coords"])))
    return {"peaks": rows, "clusters": cluster_rows,
            "expected_clusters": sides * c, "expected_bins_per_cluster": expected_size,
            "expected_fdr": max((r["q_fdr"] for r in rows), default=0.0)}


def dense_t_field(dims=(24, 24, 16), n=12, seed=31):
    """A rough t field with hundreds of peaks of both signs, and its resels."""
    cfg = SimConfig(dims=dims, fwhm=(1.5,) * len(dims), n_realizations=n, seed=seed)
    data = np.stack([gen_field(cfg, i).ravel() for i in range(n)])
    glm_fit = fit(data, DesignMatrix(np.ones((n, 1)), ("mean",)))
    space = full_space(dims)
    top, fwhm = lattice_smoothness(normalized_residuals(glm_fit), space)
    resels = lkc_vector(top, intrinsic_volumes(space), fwhm=fwhm)
    return t_map(glm_fit, [1.0]), space, resels


def assert_same_rows(got, want):
    """Row lists equal as JSON text (NaN included); reports the first
    differing pair instead of a diff of the whole table."""
    got = [json.dumps(r, sort_keys=True) for r in got]
    want = [json.dumps(r, sort_keys=True) for r in want]
    assert len(got) == len(want)
    assert next(((a, b) for a, b in zip(got, want) if a != b), None) is None


class TestPeakTableMatchesPerPeakPath:
    def _assert_same(self, stat, space, resels, t_feature, two_sided):
        table = peak_table(stat, space, resels, t_feature, two_sided=two_sided)
        got = table.to_dict()
        want = per_peak_table(stat, space, resels, t_feature, two_sided)
        assert_same_rows(got["peaks"], want["peaks"])
        assert_same_rows(got["clusters"], want["clusters"])
        assert_same_rows([got["footnote"][k] for k in ("expected_clusters",
                          "expected_bins_per_cluster", "expected_fdr")],
                         [want[k] for k in ("expected_clusters",
                          "expected_bins_per_cluster", "expected_fdr")])
        # each cluster's peak is a scored row of the table, in that cluster
        rows = {(p.vertex, p.cluster_id): p for p in table.peaks}
        assert all((c.peak_vertex, c.id) in rows for c in table.clusters)
        assert all(rows[c.peak_vertex, c.id].t == c.peak_t
                   and np.isfinite(rows[c.peak_vertex, c.id].q_fdr) for c in table.clusters)
        return table

    @pytest.mark.parametrize("height_p,two_sided", [(0.16, True), (0.16, False),
                                                    (0.6, True)])
    def test_dense_lattice_field(self, height_p, two_sided):
        stat, space, resels = dense_t_field()
        t_feature = float(stats.t.isf(height_p, stat.field_type.dof))
        table = self._assert_same(stat, space, resels, t_feature, two_sided)
        assert len(table.peaks) > 200 and table.clusters
        assert (min(p.t for p in table.peaks) < 0) == two_sided

    def test_mesh_field_with_infinite_peaks(self):
        verts, tris = unit_sheet_mesh(14, 12)
        mesh = build_mesh(verts, tris)
        values = np.random.default_rng(8).standard_normal(len(verts)) * 2.0
        values[[20, 77]] = [np.inf, -np.inf]
        stat = StatField(values, T11)
        table = self._assert_same(stat, mesh, ReselVector.from_resels((1.0, 4.0, 9.0)), 1.0, True)
        assert {table.peaks[0].t, table.peaks[-1].t} == {np.inf, -np.inf}
        # conditional p of an infinite peak is 0, so its q-value is 0 like its p_fwe
        assert [(p.p_fwe, p.q_fdr) for p in (table.peaks[0], table.peaks[-1])] == \
            [(0.0, 0.0), (0.0, 0.0)]

    def test_empty_table(self):
        stat, space, resels = dense_t_field(dims=(8, 8, 6), n=6)
        self._assert_same(stat, space, resels, 50.0, True)

    def test_cluster_top_next_to_nan_keeps_unscored_peak(self):
        # a NaN neighbour keeps each cluster's top out of the local maxima
        values = np.array([0.0, np.nan, 5.0, 4.0, 0.0, -4.0, -5.0, np.nan, 0.0])
        table = peak_table(StatField(values, T11), full_space((9,)),
                           ReselVector.from_resels((1.0, 3.0)), 1.0, two_sided=True)
        assert table.peaks == []
        assert [(c.peak_vertex, c.peak_t) for c in table.clusters] == [(2, 5.0), (6, -5.0)]
