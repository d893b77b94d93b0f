"""Output checks for one benchmark run.

Every run is checked at any seed: invariants of the peak table (p-values
in [0, 1], p_fwe >= p_unc, uncorrected p and Z recomputed independently
from t, peak/cluster cross-references) or of the calibration report, and
for ``scalp_time`` that the planted effect is reported with p_fwe < 0.05.
At the default seed the run's summary is also compared with
``reference.json``, generated from the package at the commit that added
the benchmark: counts and vertex structure exactly, every number within
1e-12 relative.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy import stats

from workloads import blob_center

REL_TOL = 1e-12
P_RECOMPUTE_RTOL = 1e-9
Z_RECOMPUTE_RTOL = 1e-7
COLUMNS = ("t", "z", "p_unc", "p_fwe", "q_fdr")
SAMPLE_ROWS = 24


def _peak_table_problems(results: dict) -> list[str]:
    problems = []
    peaks, clusters, foot = results["peaks"], results["clusters"], results["footnote"]
    if not peaks:
        problems.append("no peaks reported")
    if not all(math.isfinite(r) and r >= 0 for r in foot["resels"]):
        problems.append(f"resels not finite and nonnegative: {foot['resels']}")
    if foot["fwhm"] is not None and not all(f > 0 for f in foot["fwhm"]):
        problems.append(f"bad FWHM {foot['fwhm']}")
    t_feature = foot["height_threshold"]["t"]
    sides = 2.0 if foot["two_sided"] else 1.0
    dof = foot["dof"][1] if foot["dof"] is not None else None

    t = np.array([p["t"] for p in peaks])
    col = {c: np.array([p[c] for p in peaks]) for c in COLUMNS[1:]}
    for name in ("p_unc", "p_fwe", "q_fdr"):
        if np.any((col[name] < 0) | (col[name] > 1)):
            problems.append(f"{name} outside [0, 1]")
    if np.any(col["p_fwe"] < col["p_unc"]):
        problems.append("p_fwe < p_unc")
    if np.any(np.abs(t) < t_feature):
        problems.append("peak below the feature threshold")
    if np.any(np.diff(t) > 0):
        problems.append("peaks not sorted by descending t")
    if np.any(np.sign(col["z"]) != np.sign(t)):
        problems.append("Z and t disagree in sign")
    if dof is not None and t.size:
        tail = stats.t.sf(np.abs(t), dof)
        if not np.allclose(col["p_unc"], np.minimum(sides * tail, 1.0),
                           rtol=P_RECOMPUTE_RTOL, atol=0.0):
            problems.append("p_unc differs from the Student-t tail of t")
        finite = tail > 0
        z_ref = np.sign(t[finite]) * stats.norm.isf(tail[finite])
        if not np.allclose(col["z"][finite], z_ref, rtol=Z_RECOMPUTE_RTOL, atol=0.0):
            problems.append("Z differs from the Gaussian equivalent of t")

    peak_vertices = {p["vertex"] for p in peaks}
    ids = [c["id"] for c in clusters]
    if ids != list(range(1, len(clusters) + 1)):
        problems.append("cluster ids are not 1..n")
    if any(not 1 <= p["cluster_id"] <= len(clusters) for p in peaks):
        problems.append("peak points at a missing cluster")
    if any(c["peak_vertex"] not in peak_vertices for c in clusters):
        problems.append("a cluster's highest vertex is not a reported peak")
    return problems


def _blob_problems(results: dict, size: dict) -> list[str]:
    centre = np.array(blob_center(size["dims"]))
    sigma = np.array(size["blob_sigma"])
    for p in results["peaks"]:
        inside = np.sum(((np.array(p["coords"]) - centre) / sigma) ** 2) <= 4.0
        if inside and p["p_fwe"] < 0.05:
            return []
    return [f"planted effect at {tuple(centre.tolist())} not reported with p_fwe < 0.05"]


def _report_problems(results: dict, size: dict) -> list[str]:
    problems = []
    n_thr = len(results["thresholds"])
    for key in ("mean_ec", "se", "expected_ec"):
        values = results[key]
        if len(values) != n_thr or not all(math.isfinite(v) for v in values):
            problems.append(f"{key} is not {n_thr} finite values")
    if any(s < 0 for s in results["se"]):
        problems.append("negative standard error")
    if np.any(np.diff(results["expected_ec"]) >= 0):
        problems.append("expected EC does not fall with the threshold")
    n = results["config"]["n_realizations"]
    if n != size["n_realizations"]:
        problems.append(f"ran {n} realisations, asked for {size['n_realizations']}")
    rate = results["empirical_fwe"]
    lo, hi = results["ci"]
    if not (0.0 <= rate <= 1.0 and abs(rate * n - round(rate * n)) < 1e-9
            and lo <= rate <= hi):
        problems.append(f"empirical FWE {rate} inconsistent with {n} realisations "
                        f"and CI {results['ci']}")
    return problems


def problems(name: str, results: dict, size: dict) -> list[str]:
    """Invariant violations of one run's outputs (empty when correct)."""
    if name == "mc_calibration":
        return _report_problems(results, size)
    found = _peak_table_problems(results)
    if name == "scalp_time":
        found += _blob_problems(results, size)
    return found


def summary(name: str, results: dict) -> dict:
    """The part of a run's outputs that the reference pins."""
    if name == "mc_calibration":
        keys = ("thresholds", "mean_ec", "se", "expected_ec", "empirical_fwe",
                "ci", "corrected_threshold")
        return {k: results[k] for k in keys}
    peaks, clusters, foot = results["peaks"], results["clusters"], results["footnote"]
    structure = json.dumps([[p["vertex"], p["cluster_id"]] for p in peaks]
                           + [[c["id"], c["size_vertices"], c["peak_vertex"]]
                              for c in clusters])
    rows = sorted(set(np.linspace(0, len(peaks) - 1, SAMPLE_ROWS).astype(int).tolist())
                  if peaks else [])
    return {
        "n_peaks": len(peaks),
        "n_clusters": len(clusters),
        "structure_sha256": hashlib.sha256(structure.encode()).hexdigest(),
        "resels": foot["resels"],
        "lkc": foot["lkc"],
        "fwhm": foot["fwhm"],
        "expected_clusters": foot["expected_clusters"],
        "columns": {c: {"sum": math.fsum(p[c] for p in peaks),
                        "min": min(p[c] for p in peaks),
                        "max": max(p[c] for p in peaks)} for c in COLUMNS} if peaks else {},
        "rows": [{"index": i, **{c: peaks[i][c] for c in ("vertex",) + COLUMNS}}
                 for i in rows],
    }


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between a summary and its reference: exact for
    integers, strings and structure, within REL_TOL for floats."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
