"""Mass-univariate general linear model.

Fits an identical design at every vertex of a search space, producing
t-statistic fields, per-vertex residual variance and the residual fields,
with their lengths, that drive smoothness estimation. All fits are
vertex-independent. One buffer carries a stack from data to residuals: :func:`fit`
takes over the caller's float64 data and subtracts the fitted values from it in
place, in the slabs of :func:`_parallel._runs` on two worker threads, so the data
become the residuals, whose sum of squares is reduced once with no squared copy;
:func:`normalized_residuals` pairs that buffer with the norms sqrt(SSR) and
copies nothing. Design factors come from one SVD per design. With one regressor
the fitted values x * b + 0.0 equal x @ b bit for bit, at less cost: the + 0.0
turns a -0.0 into the +0.0 of the product's accumulator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from . import _parallel

RANK_RTOL = 1e-10
ORTHO_RTOL = 1e-8


@dataclass(frozen=True)
class FieldType:
    """Null distribution of a statistic field: 'gaussian' or 'student_t'."""

    kind: str
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "student_t":
            if self.dof is None or not np.isfinite(self.dof) or self.dof < 1:
                raise ValueError(f"student_t needs dof >= 1, got {self.dof}")

    @classmethod
    def gaussian(cls) -> "FieldType":
        return cls("gaussian")

    @classmethod
    def student_t(cls, dof: float) -> "FieldType":
        return cls("student_t", float(dof))


@dataclass(frozen=True)
class DesignMatrix:
    """An n_obs x n_reg design with named regressors.

    One thin SVD X = U S V' per design gives every factor: the rank, the count
    of singular values greater than RANK_RTOL times the largest; pinv(X); and
    each contrast's estimability and variance factor, from the first ``rank``
    of them. ``values`` is a read-only float64 copy of the given matrix, so the
    cached factors cannot go stale.
    """

    values: np.ndarray
    regressor_names: tuple[str, ...]

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("design matrix must be 2D")
        if len(self.regressor_names) != v.shape[1]:
            raise ValueError("one regressor name per column required")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_reg(self) -> int:
        return self.values.shape[1]

    @property
    def dof(self) -> int:
        """Residual degrees of freedom, n_obs - rank; ValueError if there are none."""
        dof = self.n_obs - self.rank
        if dof < 1:
            raise ValueError(f"no residual degrees of freedom (n_obs={self.n_obs}, "
                             f"rank={self.rank})")
        return dof

    def variance_factor(self, contrast) -> float:
        """c' (X'X)^+ c = ||S_r^-1 V_r' c||^2 for a contrast of the regressors;
        ValueError if its length is wrong or it is not estimable: its part
        outside the row space of X, c - V_r V_r' c, exceeds ORTHO_RTOL ||c||."""
        contrast = np.asarray(contrast, dtype=float).ravel()
        if contrast.shape[0] != self.n_reg:
            raise ValueError(
                f"contrast length {contrast.shape[0]} != {self.n_reg} regressors")
        _, s, vt = self._svd
        vt_r = vt[:self.rank]
        coords = vt_r @ contrast
        if np.linalg.norm(contrast - coords @ vt_r) > ORTHO_RTOL * np.linalg.norm(contrast):
            raise ValueError("contrast is not estimable under this design")
        w = coords / s[:self.rank]
        return float(w @ w)

    @cached_property
    def pinv(self) -> np.ndarray:
        """pinv(X) = V_r S_r^-1 U_r', (n_reg, n_obs); read-only. Formed as numpy
        forms it, so its bits are those of ``np.linalg.pinv(X, rcond=RANK_RTOL)``."""
        u, s, vt = self._svd
        inv = np.zeros_like(s)
        inv[:self.rank] = 1 / s[:self.rank]
        pinv = np.matmul(vt.T, inv[:, None] * u.T)
        pinv.flags.writeable = False
        return pinv

    @cached_property
    def rank(self) -> int:
        s = self._svd[1]
        return int((s > RANK_RTOL * s[0]).sum()) if s.size else 0

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.values, full_matrices=False)

    @classmethod
    def from_csv(cls, path) -> "DesignMatrix":
        """Load a design from CSV with a header row of regressor names and
        data rows of one finite number per name; blank rows are skipped."""
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if len(rows) < 2:
            raise ValueError(f"{path}: need a header row and at least one data row")
        names = tuple(name.strip() for name in rows[0])
        try:
            values = [[float(x) for x in row] for row in rows[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric design entry ({exc})") from None
        for i, row in enumerate(values, 1):
            if len(row) != len(names):
                raise ValueError(f"{path}: data row {i} holds {len(row)} entries "
                                 f"for the header's {len(names)} names")
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: data row {i} holds a non-finite entry: {rows[i]}")
        return cls(np.array(values), names)


@dataclass
class GlmFit:
    """Per-vertex least-squares fit produced by :func:`fit`; ``residuals``
    is the buffer the data were fitted in, shared by :func:`normalized_residuals`."""

    design: DesignMatrix
    betas: np.ndarray      # (n_reg, n_vertices)
    residuals: np.ndarray  # (n_obs, n_vertices)
    ssr: np.ndarray        # (n_vertices,)
    dof: int

    @property
    def sigma2(self) -> np.ndarray:  # (n_vertices,)
        return self.ssr / self.dof


@dataclass
class StatField:
    """Per-vertex statistic values with their null field type."""

    values: np.ndarray
    field_type: FieldType


@dataclass
class ResidualSet:
    """Raw residual fields r with their lengths ||r|| per vertex.

    Smoothness is estimated from the unit-normalized residuals u = r / ||r||,
    whose differences the kernels of :mod:`lkc` take as dr / ||r_base||, so
    u itself is never formed. ``flagged`` marks zero-residual vertices,
    which are excluded from smoothness estimation.
    """

    r: np.ndarray        # (n, n_vertices)
    norms: np.ndarray    # (n_vertices,)
    flagged: np.ndarray  # (n_vertices,) bool


def fit(data, design: DesignMatrix) -> GlmFit:
    """Fit the design at every vertex by least squares, in place.

    Parameters
    ----------
    data : ndarray
        Shape (n_obs, n_vertices), or (n_obs,) for one vertex; one column
        per vertex. A float64 array is taken over: it is overwritten with
        the residuals and becomes ``GlmFit.residuals``, so the caller must
        not read it as data afterwards. Any other input is first converted
        to a new float64 array.
    design : DesignMatrix

    Returns
    -------
    GlmFit with betas, the residuals (in ``data``'s buffer), per-vertex
    SSR and dof = n_obs - rank. ``pinv @ data`` is one BLAS call; the
    residuals and SSR are then formed in the column slabs of
    :func:`_parallel._runs`, which bound the temporaries, each slab's SSR
    reduced by :func:`_parallel._dots`. The two halves of the slabs run on
    the worker threads.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] != design.n_obs:
        raise ValueError(f"data has {data.shape[0]} rows, design has {design.n_obs}")
    dof = design.dof
    betas = design.pinv @ data
    x, ssr = design.values, np.empty(data.shape[1])
    runs = _parallel._runs(data.shape[1], 8 * data.shape[0])
    mid = len(runs) // 2

    def slabs(part):
        for cols in part:
            r = data[:, cols]
            r -= x * betas[:, cols] + 0.0 if x.shape[1] == 1 else x @ betas[:, cols]
            _parallel._dots(r, r, out=ssr[cols])

    # two runs of slabs, so that at most two slabs' fitted values are live at once
    # whatever the core count
    _parallel._each(slabs, [part for part in (runs[:mid], runs[mid:]) if part])
    return GlmFit(design=design, betas=betas, residuals=data, ssr=ssr, dof=dof)


def t_map(glm_fit: GlmFit, contrast) -> StatField:
    """t statistic field for a contrast of regression coefficients.

    t = c'beta / sqrt(sigma2 * c'(X'X)^+ c) per vertex. Vertices with
    zero residual variance get +/-inf by the sign of the effect, or 0
    when the effect is also zero.
    """
    contrast = np.asarray(contrast, dtype=float).ravel()
    var_factor = glm_fit.design.variance_factor(contrast)
    effect = contrast @ glm_fit.betas
    denom2 = glm_fit.sigma2 * var_factor
    with np.errstate(divide="ignore", invalid="ignore"):
        t = effect / np.sqrt(denom2)  # +/-inf where only the variance is zero
    t[(denom2 == 0) & (effect == 0)] = 0.0
    return StatField(values=t, field_type=FieldType.student_t(glm_fit.dof))


def normalized_residuals(glm_fit: GlmFit) -> ResidualSet:
    """The fit's residuals with their norms sqrt(SSR); zero-residual vertices
    are flagged, not fatal. ``r`` is the fit's own buffer, not a copy."""
    norms = np.sqrt(glm_fit.ssr)
    return ResidualSet(r=glm_fit.residuals, norms=norms, flagged=norms == 0.0)


def z_equivalent(stat: StatField) -> np.ndarray:
    """Gaussian Z-score equivalents of a Student-t field.

    Z = Phi^-1(1 - P(T_dof >= t)), antisymmetric in t. The tail
    probability of |t| is the survival function itself, not a log-space
    evaluation; its log goes to ``ndtri_exp``, which stays accurate where
    1 - tail would round to 1, and a tail that underflows to 0 gives
    |Z| = inf. Gaussian fields pass through unchanged.
    """
    t = np.asarray(stat.values, dtype=float)
    if stat.field_type.kind == "gaussian":
        return t.copy()
    with np.errstate(divide="ignore"):
        log_tail = np.log(special.stdtr(stat.field_type.dof, -np.abs(t)))
    z = special.ndtri_exp(log_tail)
    return np.where(np.isfinite(t), np.where(t >= 0, -z, z), t)


def read_contrast_csv(path) -> np.ndarray:
    """Read a contrast row vector from CSV: one row of finite numbers, not all
    zero; blank rows are skipped."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 1:
        raise ValueError(f"{path}: expected a single contrast row, got {len(rows)}")
    try:
        contrast = np.array([float(x) for x in rows[0]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric contrast entry ({exc})") from None
    if not np.isfinite(contrast).all():
        raise ValueError(f"{path}: contrast entries must be finite, got {rows[0]}")
    if not contrast.any():
        raise ValueError(f"{path}: an all-zero contrast tests nothing")
    return contrast
