"""Euler characteristic densities and FWE-corrected inference.

Closed-form EC densities rho_d(t) for Gaussian and Student-t fields in
the resel convention (each rho_d absorbs its (4 ln 2)^(d/2) factor), the
expected Euler characteristic E[EC](t) = sum_d resels_d rho_d(t), the
corrected p-value of an observed peak, and the corrected height
threshold for a target family-wise error rate: for a point search, whose
E[EC] is resels_0 rho_0(t), the tail quantile rho_0^-1; else by bisection.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np
from scipy import special

from .domain import LatticeSpace
from .glm import FieldType
from .lkc import FOUR_LOG2, ReselVector

#: lower edge of the strictly-decreasing region used for threshold search
THRESHOLD_FLOOR = 2.0
#: width of the final bisection bracket around the corrected threshold
THRESHOLD_TOL = 1e-6


@functools.lru_cache(maxsize=16)
def _gamma_ratio(dof: float) -> float:
    """Gamma((v+1)/2) / Gamma(v/2) / sqrt(v/2), the constant of the Student-t rho_2."""
    return math.exp(special.gammaln((dof + 1.0) / 2.0)
                    - special.gammaln(dof / 2.0)) / math.sqrt(dof / 2.0)


def _densities(field: FieldType, t: np.ndarray):
    """Yield rho_0(t), rho_1(t), ... in d order, computing the exponential
    factor they share once; asking for rho_4 raises ValueError."""
    if field.kind == "gaussian":
        yield special.ndtr(-t)
        e = np.exp(-t * t / 2.0)
        yield FOUR_LOG2 ** 0.5 / (2.0 * math.pi) * e
        yield FOUR_LOG2 / (2.0 * math.pi) ** 1.5 * t * e
        yield FOUR_LOG2 ** 1.5 / (2.0 * math.pi) ** 2 * (t * t - 1.0) * e
    else:
        dof = field.dof
        yield special.stdtr(dof, -t)
        # (1 + t^2/v)^(-(v-1)/2) via log1p: stable for large dof
        base = np.exp(-(dof - 1.0) / 2.0 * np.log1p(t * t / dof))
        yield FOUR_LOG2 ** 0.5 / (2.0 * math.pi) * base
        yield FOUR_LOG2 / (2.0 * math.pi) ** 1.5 * _gamma_ratio(dof) * t * base
        yield (FOUR_LOG2 ** 1.5 / (2.0 * math.pi) ** 2
               * ((dof - 1.0) / dof * t * t - 1.0) * base)
    raise ValueError("EC densities implemented for 0 <= d <= 3, got 4")


def _tail_quantile(field: FieldType, p: float) -> float:
    """The height t with rho_0(t) = p, the inverse of the upper tail."""
    if field.kind == "gaussian":
        return float(-special.ndtri(p))
    return float(-special.stdtrit(field.dof, p))


def ec_density(field: FieldType, d: int, t):
    """EC density rho_d(t) in the resel convention.

    rho_0 is the upper tail probability of the field's marginal
    distribution; rho_1..rho_3 are the standard unified closed forms with
    the (4 ln 2)^(d/2) resel factor absorbed, so that
    E[EC] = sum_d resels_d rho_d(t).
    """
    if d < 0 or d > 3:
        raise ValueError(f"EC densities implemented for 0 <= d <= 3, got {d}")
    out = next(itertools.islice(_densities(field, np.asarray(t, dtype=float)), d, None))
    return out if out.ndim else float(out)


def expected_ec(resels: ReselVector, field: FieldType, t):
    """Expected Euler characteristic of the excursion set above t.

    A float for a scalar t, an array of t's shape for an array t. The
    terms resels_d rho_d(t) are added in d order, one elementwise add
    each, so every element equals the scalar value bit for bit, and the
    sum equals the one over :func:`ec_density` bit for bit.
    """
    total = 0.0
    for r, rho in zip(resels.resels, _densities(field, np.asarray(t, dtype=float))):
        total = total + r * (rho if rho.ndim else float(rho))
    return total


def fwe_p(peak_height, resels: ReselVector, field: FieldType):
    """FWE-corrected p-value of a peak: E[EC] clamped to [0, 1].

    A float for a scalar height, an array of its shape for an array of
    heights. A height of +inf gives 0 and -inf gives 1; NaN is rejected.
    """
    height = np.asarray(peak_height, dtype=float)
    if np.isnan(height).any():
        raise ValueError("peak height must not be NaN")
    if not all(map(math.isfinite, resels.resels)):
        raise ValueError(f"resels must be finite, got {resels.resels}")
    finite = np.isfinite(height)
    total = expected_ec(resels, field, np.where(finite, height, 0.0))
    p = np.where(finite, np.clip(total, 0.0, 1.0), height < 0)
    return p if p.ndim else float(p)


def corrected_threshold(alpha: float, resels: ReselVector, field: FieldType) -> float:
    """Height threshold t* with E[EC](t*) = alpha.

    A pure point search (all higher resel counts zero) has E[EC](t) =
    resels_0 rho_0(t), so t* is the tail quantile rho_0^-1(alpha / resels_0),
    exact and at any height; if that ratio is not in (0, 1), alpha is
    beyond the point search's ceiling and the floor is returned with a
    warning. Otherwise t* is bisected on t >= THRESHOLD_FLOOR, where E[EC]
    is strictly decreasing for the supported fields, down to a bracket of
    width THRESHOLD_TOL; if E[EC] at the floor is below alpha the target
    cannot be bracketed and the floor is returned with a warning. alpha = 1
    is a degenerate request (the clamped p-value equals 1 on a whole
    interval of thresholds) answered with the floor.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not all(map(math.isfinite, resels.resels)):
        raise ValueError(f"resels must be finite, got {resels.resels}")
    if alpha == 1.0:
        return THRESHOLD_FLOOR
    if all(r == 0.0 for r in resels.resels[1:]):
        r0 = resels.resels[0]
        if r0 > 0.0 and 0.0 < alpha / r0 < 1.0:
            return _tail_quantile(field, alpha / r0)
        warnings.warn(f"alpha={alpha} exceeds the point-search ceiling; "
                      "threshold not bracketed", stacklevel=2)
        return THRESHOLD_FLOOR

    lo = THRESHOLD_FLOOR
    if expected_ec(resels, field, lo) < alpha:
        warnings.warn(
            f"expected EC at t={lo} is below alpha={alpha}; "
            "threshold not bracketed", stacklevel=2,
        )
        return lo
    hi = lo + 1.0
    while expected_ec(resels, field, hi) > alpha:
        lo = hi
        hi = 2.0 * hi
        if hi > 1e6:
            raise RuntimeError("failed to bracket the corrected threshold")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if expected_ec(resels, field, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def restrict(space, time_window):
    """Restrict a lattice to a peristimulus-time window for small-volume
    correction: ``time_window`` is an inclusive (lo, hi) bin range on the
    last axis, clipped to it. Curvatures and p-values over the returned
    space come from the same residuals; other sub-regions come from
    ``space.restricted(sub_mask)``.
    """
    if not isinstance(space, LatticeSpace):
        raise TypeError("time_window restriction needs a lattice space")
    lo, hi = int(time_window[0]), int(time_window[1])
    n_t = space.dims[-1]
    if lo > hi or hi < 0 or lo >= n_t:
        raise ValueError(f"empty time window {lo}:{hi} on axis of {n_t} bins")
    window = np.zeros(space.dims, dtype=bool)
    window[..., max(lo, 0):hi + 1] = True
    return space.restricted(window)
