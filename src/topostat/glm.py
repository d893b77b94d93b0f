"""Mass-univariate general linear model.

Fits an identical design at every vertex of a search space, producing
t-statistic fields, per-vertex residual variance and the unit-normalized
residual fields that drive smoothness estimation. All fits are
vertex-independent. Each residual stack has one owner: :func:`fit`
allocates it and reduces its sum of squares once, and
:func:`normalized_residuals` takes it over and divides it into u in place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

RANK_RTOL = 1e-10
ORTHO_RTOL = 1e-8
SSR_SLAB = 4096  # columns per slab of the sum-of-squares reduction


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
    1e-10 times the largest count toward the rank.
    """

    values: np.ndarray
    regressor_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("design matrix must be 2D")
        if len(self.regressor_names) != v.shape[1]:
            raise ValueError("one regressor name per column required")
        object.__setattr__(self, "values", v)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_reg(self) -> int:
        return self.values.shape[1]

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
    """Fit the design at every vertex by least squares.

    Parameters
    ----------
    data : ndarray
        Shape (n_obs, n_vertices); one column per vertex.
    design : DesignMatrix

    Returns
    -------
    GlmFit with betas, residuals in a new buffer (``data`` is not
    written), per-vertex SSR and dof = n_obs - rank.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    x = design.values
    if data.shape[0] != design.n_obs:
        raise ValueError(f"data has {data.shape[0]} rows, design has {design.n_obs}")
    dof = design.n_obs - design.rank
    if dof < 1:
        raise ValueError(f"no residual degrees of freedom (n_obs={design.n_obs}, "
                         f"rank={design.rank})")
    betas = np.linalg.pinv(x, rcond=RANK_RTOL) @ data
    residuals = x @ betas
    np.subtract(data, residuals, out=residuals)
    # (r * r).sum(axis=0) over column slabs, to bound the temporary. numpy sums one column
    # pairwise but wider blocks row by row; near-equal slabs are one column only if r is.
    slabs = np.array_split(residuals, -(-residuals.shape[1] // SSR_SLAB) or 1, axis=1)
    ssr = np.concatenate([(s * s).sum(axis=0) for s in slabs])
    return GlmFit(design=design, betas=betas, residuals=residuals, ssr=ssr, dof=dof)


def _contrast_variance_factor(design: DesignMatrix, contrast: np.ndarray) -> float:
    """c' (X'X)^+ c, with an estimability check for rank-deficient designs."""
    x = design.values
    xtx = x.T @ x
    xtx_pinv = np.linalg.pinv(xtx, rcond=RANK_RTOL)
    c_norm = np.linalg.norm(contrast)
    if c_norm > 0:
        reachable = xtx @ (xtx_pinv @ contrast)
        if np.linalg.norm(reachable - contrast) > ORTHO_RTOL * c_norm:
            raise ValueError("contrast is not estimable under this design")
    return float(contrast @ xtx_pinv @ contrast)


def t_map(glm_fit: GlmFit, contrast) -> StatField:
    """t statistic field for a contrast of regression coefficients.

    t = c'beta / sqrt(sigma2 * c'(X'X)^+ c) per vertex. Vertices with
    zero residual variance get +/-inf by the sign of the effect, or 0
    when the effect is also zero.
    """
    contrast = np.asarray(contrast, dtype=float).ravel()
    if contrast.shape[0] != glm_fit.design.n_reg:
        raise ValueError(
            f"contrast length {contrast.shape[0]} != {glm_fit.design.n_reg} regressors"
        )
    var_factor = _contrast_variance_factor(glm_fit.design, contrast)
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
    u[:, flagged] = 0.0
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
    """Read a contrast row vector from CSV (single numeric row)."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 1:
        raise ValueError(f"{path}: expected a single contrast row, got {len(rows)}")
    try:
        return np.array([float(x) for x in rows[0]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric contrast entry ({exc})") from None
