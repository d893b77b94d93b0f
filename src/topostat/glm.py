"""Mass-univariate general linear model.

Fits an identical design at every vertex of a search space, producing
t-statistic fields, per-vertex residual variance and the unit-normalized
residual fields that drive smoothness estimation. All fits are
vertex-independent. One buffer carries a stack from data to u: :func:`fit`
takes over the caller's float64 data and subtracts the fitted values from
it in place, so the data become the residuals, whose sum of squares is
reduced once; :func:`normalized_residuals` then takes the residuals over
and divides them into u in place. Design factors are computed once per design.
With one regressor the fitted values x * b + 0.0 equal x @ b bit for bit, at
less cost: the + 0.0 turns a -0.0 into the +0.0 of the product's accumulator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

RANK_RTOL = 1e-10
ORTHO_RTOL = 1e-8
SSR_SLAB = 4096  # columns per slab of the residual subtraction and its sum of squares


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

    Rank follows the tolerance rule: singular values greater than
    1e-10 times the largest count toward the rank. ``values`` is a read-only
    float64 copy of the given matrix, so the cached factors cannot go stale.
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
        """c' (X'X)^+ c for a contrast of the regressors; ValueError if its
        length is wrong or, for a rank-deficient design, it is not estimable."""
        contrast = np.asarray(contrast, dtype=float).ravel()
        if contrast.shape[0] != self.n_reg:
            raise ValueError(
                f"contrast length {contrast.shape[0]} != {self.n_reg} regressors")
        xtx, xtx_pinv = self._gram
        c_norm = np.linalg.norm(contrast)
        if c_norm > 0:
            reachable = xtx @ (xtx_pinv @ contrast)
            if np.linalg.norm(reachable - contrast) > ORTHO_RTOL * c_norm:
                raise ValueError("contrast is not estimable under this design")
        return float(contrast @ xtx_pinv @ contrast)

    @cached_property
    def pinv(self) -> np.ndarray:
        """pinv(X) at the rank tolerance, (n_reg, n_obs); read-only."""
        pinv = np.linalg.pinv(self.values, rcond=RANK_RTOL)
        pinv.flags.writeable = False
        return pinv

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        xtx = self.values.T @ self.values
        return xtx, np.linalg.pinv(xtx, rcond=RANK_RTOL)

    @cached_property
    def rank(self) -> int:
        s = np.linalg.svd(self.values, compute_uv=False)
        if s.size == 0:
            return 0
        return int((s > RANK_RTOL * s[0]).sum())

    @classmethod
    def from_csv(cls, path) -> "DesignMatrix":
        """Load a design from CSV with a header row of regressor names."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ValueError(f"{path}: need a header row and at least one data row")
        names = tuple(name.strip() for name in rows[0])
        try:
            values = np.array([[float(x) for x in row] for row in rows[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric design entry ({exc})") from None
        return cls(values, names)


@dataclass
class GlmFit:
    """Per-vertex least-squares fit produced by :func:`fit`; ``residuals``
    is None once :func:`normalized_residuals` has taken the buffer over."""

    design: DesignMatrix
    betas: np.ndarray             # (n_reg, n_vertices)
    residuals: np.ndarray | None  # (n_obs, n_vertices)
    ssr: np.ndarray               # (n_vertices,)
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
    """Unit-normalized residual fields u = r / ||r|| per vertex.

    ``norms`` keeps the raw residual lengths so that downstream
    finite differences can use the difference-of-raw-residuals
    approximation; ``flagged`` marks zero-residual vertices (their u is
    the zero vector and they are excluded from smoothness estimation).
    """

    u: np.ndarray        # (n, n_vertices)
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
    SSR and dof = n_obs - rank.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] != design.n_obs:
        raise ValueError(f"data has {data.shape[0]} rows, design has {design.n_obs}")
    dof = design.dof
    betas = design.pinv @ data
    # Residuals and their squares' column sums one slab at a time, to bound the temporaries.
    # numpy sums one column pairwise but wider blocks row by row; np.array_split's near-equal
    # slabs are one column only if r is.
    x, ssr = design.values, np.empty(data.shape[1])
    n_slabs = -(-data.shape[1] // SSR_SLAB) or 1
    size, extra = divmod(data.shape[1], n_slabs)
    for i in range(n_slabs):
        cols = slice(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra))
        r = data[:, cols]
        r -= x * betas[:, cols] + 0.0 if x.shape[1] == 1 else x @ betas[:, cols]
        np.square(r).sum(axis=0, out=ssr[cols])
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
    """Unit-normalize the residual vector at every vertex (zero-residual
    vertices are flagged, not fatal). Consumes the fit: its residual buffer
    becomes u, divided in place by sqrt(SSR); a second call raises."""
    if glm_fit.residuals is None:
        raise RuntimeError("this fit's residuals were already normalized")
    u, glm_fit.residuals = glm_fit.residuals, None
    norms = np.sqrt(glm_fit.ssr)
    flagged = norms == 0.0
    u /= np.where(flagged, 1.0, norms)
    np.copyto(u, 0.0, where=flagged)
    return ResidualSet(u=u, norms=norms, flagged=flagged)


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
    """Read a contrast row vector from CSV (single row of finite numbers)."""
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
    return contrast
