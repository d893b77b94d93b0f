"""Peak and cluster inference on statistic fields.

Turns a statistic field plus a resel vector into reporting artifacts:
excursion sets, local maxima, peak tables with FWE and topological-FDR
corrected p-values, and cluster records. Cluster expectations use the
isotropic-smoothness model; cluster-size p-values are deliberately not
computed.

Adjacency lives in ``domain``: local maxima use the space's
``neighbor_reduce``, and plateaus and clusters are both labelled by its
``labels``, the labelling behind ``connected_components``, on lattices and
meshes alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ecd
from .domain import connected_components, intrinsic_volumes
from .glm import FieldType, StatField, z_equivalent
from .lkc import ReselVector

#: the share of a space's vertices below which :func:`local_maxima` takes the
#: neighbour maximum at the excursion set only. On 64x64x200 (2-core x86-64 host),
#: where the whole pass took 19.2-19.7 ms, that gather took 1.2-1.4 ms at a 0.5%
#: share, 14 ms at 10%, 16 ms at 1/8, 21 ms at 20% and 92 ms at 100%.
GATHER_SHARE = 1 / 8


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


def local_maxima(stat: StatField, space, threshold: float = -np.inf) -> np.ndarray:
    """Vertices of the excursion set strictly above all their neighbors.

    Full connectivity on lattices (8 in 2D, 26 in 3D); on meshes the
    neighbours are the ends of the edge array. Exact plateau ties keep
    only the smallest vertex of each flat region, and only when the
    whole region dominates its surroundings.

    NaN compares as neither greater nor equal: a NaN vertex is never a
    maximum and beats no neighbour, yet a vertex beside one is not a strict
    maximum, and a plateau counts only when one of its vertices has no NaN
    neighbour.

    Ties are resolved by the weak maxima: the in-mask non-NaN vertices with
    no greater non-NaN neighbour. Neighbouring weak maxima are equal, so
    each of their components lies in one plateau. It is the whole plateau,
    and no vertex beats the plateau, unless an equal vertex outside the weak
    maxima touches it. Without a tie, one neighbour-max pass decides: at the
    excursion set only, when it holds under ``GATHER_SHARE`` of the vertices,
    else over the whole space, which the tie path then reuses.

    Returns ascending vertex indices.
    """
    values = np.asarray(stat.values, dtype=float).ravel()
    if values.shape[0] != space.n_points:
        raise ValueError("statistic field does not cover the space")
    in_exc = excursion_set(stat, space, threshold)
    masked_vals = np.where(space.mask_flat, values, -np.inf)
    cand = np.flatnonzero(in_exc)
    if cand.size < GATHER_SHARE * space.n_points:
        peak = masked_vals[cand]
        at_max = space.neighbor_reduce(masked_vals, np.maximum, -np.inf, at=cand)
        if not np.any(peak == at_max):
            return cand[peak > at_max]
    nb_max = space.neighbor_reduce(masked_vals, np.maximum, -np.inf)
    if not np.any(in_exc & (masked_vals == nb_max)):
        return np.flatnonzero(in_exc & (masked_vals > nb_max))

    weak = space.mask_flat & (masked_vals >= space.neighbor_reduce(masked_vals, np.fmax, -np.inf))
    labels = space.labels(weak)
    others = np.where(space.mask_flat & ~weak, masked_vals, np.nan)
    keep = np.zeros(labels.max() + 1, dtype=bool)
    keep[labels[masked_vals >= nb_max]] = True  # a vertex with no NaN neighbour
    # a component beside an equal vertex outside the weak maxima: a beaten plateau
    keep[labels[space.neighbor_reduce(others, np.fmax, np.nan) == masked_vals]] = False
    idx = np.flatnonzero(labels)
    smallest = idx[np.unique(labels[idx], return_index=True)[1]]
    out = smallest[keep[1:]]
    return out[in_exc[out]]


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
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must lie in [0, 1] and not be NaN")
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
    Every value is 1 when E[EC](t_feature) <= 0. A t_peak of +inf gives
    0, as in :func:`ecd.fwe_p`; a NaN ratio (t_peak at -inf, or a NaN
    E[EC](t_feature)) stays NaN.
    """
    # E[EC](+inf) evaluates inf * 0 in rho_2 and rho_3; its limit is 0
    num = np.where(np.equal(t_peak, np.inf), 0.0, ecd.expected_ec(resels, field, t_peak))
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
    comps = connected_components(space, member_mask=excursion_set(stat, space, t_feature))
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
    # NaN only for a NaN E[EC](t_feature), at t_feature = +inf; it counts as 1
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
