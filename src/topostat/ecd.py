"""Euler characteristic densities and FWE-corrected inference.

Closed-form EC densities rho_d(t) for Gaussian and Student-t fields in
the resel convention (each rho_d absorbs its (4 ln 2)^(d/2) factor), the
expected Euler characteristic E[EC](t) = sum_d resels_d rho_d(t), the
corrected p-value of an observed peak, and the corrected height
threshold for a target family-wise error rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .domain import LatticeSpace, MeshSpace
from .glm import FieldType
from .lkc import FOUR_LOG2, ReselVector

#: lower edge of the strictly-decreasing region used for threshold search
THRESHOLD_FLOOR = 2.0


@dataclass(frozen=True)
class ExpectedEC:
    """E[EC] at one threshold, with the per-dimension breakdown."""

    contributions: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.contributions))


def _gaussian_density(d: int, t: np.ndarray) -> np.ndarray:
    if d == 0:
        return special.ndtr(-t)
    e = np.exp(-t * t / 2.0)
    if d == 1:
        return FOUR_LOG2 ** 0.5 / (2.0 * math.pi) * e
    if d == 2:
        return FOUR_LOG2 / (2.0 * math.pi) ** 1.5 * t * e
    return FOUR_LOG2 ** 1.5 / (2.0 * math.pi) ** 2 * (t * t - 1.0) * e


def _student_t_density(d: int, t: np.ndarray, dof: float) -> np.ndarray:
    if d == 0:
        return special.stdtr(dof, -t)
    # (1 + t^2/v)^(-(v-1)/2) via log1p: stable for large dof
    base = np.exp(-(dof - 1.0) / 2.0 * np.log1p(t * t / dof))
    if d == 1:
        return FOUR_LOG2 ** 0.5 / (2.0 * math.pi) * base
    if d == 2:
        c = math.exp(special.gammaln((dof + 1.0) / 2.0)
                     - special.gammaln(dof / 2.0)) / math.sqrt(dof / 2.0)
        return FOUR_LOG2 / (2.0 * math.pi) ** 1.5 * c * t * base
    return (FOUR_LOG2 ** 1.5 / (2.0 * math.pi) ** 2
            * ((dof - 1.0) / dof * t * t - 1.0) * base)


def ec_density(field: FieldType, d: int, t):
    """EC density rho_d(t) in the resel convention.

    rho_0 is the upper tail probability of the field's marginal
    distribution; rho_1..rho_3 are the standard unified closed forms with
    the (4 ln 2)^(d/2) resel factor absorbed, so that
    E[EC] = sum_d resels_d rho_d(t).
    """
    if d < 0 or d > 3:
        raise ValueError(f"EC densities implemented for 0 <= d <= 3, got {d}")
    t = np.asarray(t, dtype=float)
    if field.kind == "gaussian":
        out = _gaussian_density(d, t)
    else:
        out = _student_t_density(d, t, field.dof)
    return out if out.ndim else float(out)


def expected_ec(resels: ReselVector, field: FieldType, t: float) -> ExpectedEC:
    """Expected Euler characteristic of the excursion set above t."""
    contributions = tuple(
        resels.resels[d] * ec_density(field, d, float(t))
        for d in range(resels.dimension + 1)
    )
    return ExpectedEC(contributions)


def fwe_p(peak_height: float, resels: ReselVector, field: FieldType) -> float:
    """FWE-corrected p-value of a peak: E[EC] clamped to [0, 1]."""
    peak_height = float(peak_height)
    if math.isnan(peak_height):
        raise ValueError("peak height must not be NaN")
    if not all(map(math.isfinite, resels.resels)):
        raise ValueError(f"resels must be finite, got {resels.resels}")
    if peak_height == math.inf:
        return 0.0
    if peak_height == -math.inf:
        return 1.0
    total = expected_ec(resels, field, peak_height).total
    return float(min(max(total, 0.0), 1.0))


def corrected_threshold(alpha: float, resels: ReselVector, field: FieldType,
                        *, t_lo: float = THRESHOLD_FLOOR,
                        tol: float = 1e-6) -> float:
    """Height threshold t* with E[EC](t*) = alpha, by bisection.

    The search runs on t >= t_lo where E[EC] is strictly decreasing for
    the supported fields. A pure point search (all higher resel counts
    zero) is monotone everywhere, so its bracket may extend below the
    floor, recovering the single-test quantile. Otherwise, if
    E[EC](t_lo) < alpha the target cannot be bracketed and t_lo is
    returned with a warning. alpha = 1 is a degenerate request (the
    clamped p-value equals 1 on a whole interval of thresholds) answered
    with the bracketing floor t_lo.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not all(map(math.isfinite, resels.resels)):
        raise ValueError(f"resels must be finite, got {resels.resels}")
    if alpha == 1.0:
        return float(t_lo)

    def total(t: float) -> float:
        return expected_ec(resels, field, t).total

    lo = float(t_lo)
    hi = None
    if total(lo) < alpha:
        point_search = all(r == 0.0 for r in resels.resels[1:])
        if not point_search:
            warnings.warn(
                f"expected EC at t={lo} is below alpha={alpha}; "
                "threshold not bracketed", stacklevel=2,
            )
            return lo
        while total(lo) < alpha and lo > -60.0:
            hi = lo
            lo -= 1.0
        if total(lo) < alpha:
            warnings.warn(
                f"alpha={alpha} exceeds the point-search ceiling; "
                "threshold not bracketed", stacklevel=2,
            )
            return float(t_lo)
    if hi is None:
        hi = lo + 1.0
        while total(hi) > alpha:
            lo = hi
            hi = 2.0 * hi
            if hi > 1e6:
                raise RuntimeError("failed to bracket the corrected threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if total(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def restrict(space, sub_mask=None, time_window=None):
    """Restrict a search space for small-volume correction.

    Parameters
    ----------
    space : LatticeSpace or MeshSpace
    sub_mask : ndarray of bool, optional
        Vertex mask intersected with the existing one.
    time_window : (lo, hi), optional
        Inclusive bin range along the last lattice axis; convenience for
        peristimulus-time windows.

    Returns
    -------
    A new search space over the sub-region. Downstream curvature and
    p-values are then computed over the smaller volume from the same
    residuals.
    """
    if sub_mask is None and time_window is None:
        raise ValueError("need sub_mask or time_window")
    if time_window is not None:
        if not isinstance(space, LatticeSpace):
            raise TypeError("time_window restriction needs a lattice space")
        lo, hi = int(time_window[0]), int(time_window[1])
        n_t = space.dims[-1]
        if lo > hi or hi < 0 or lo >= n_t:
            raise ValueError(f"empty time window {lo}:{hi} on axis of {n_t} bins")
        window = np.zeros(space.dims, dtype=bool)
        window[..., max(lo, 0):hi + 1] = True
        sub_mask = window if sub_mask is None else (
            np.asarray(sub_mask, dtype=bool).reshape(space.dims) & window)
    return space.restricted(sub_mask)
