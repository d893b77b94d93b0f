"""Monte Carlo oracle for the expected-EC theory.

Generates smooth Gaussian random fields with known smoothness (white
noise on an enlarged grid, convolved with a Gaussian kernel, cropped and
scaled to exact unit pointwise variance), measures empirical excursion
topology and maxima, and compares against the closed-form expectations.
A Student-t mode pushes each realization through the full GLM + LKC +
threshold pipeline.

Fields are reproducible by contract: realization ``index`` under seed
``s`` uses a counter-based generator keyed by (s, index), so any subset
of realizations can be regenerated on any platform, in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import ecd, glm, lkc
from .domain import build_lattice, intrinsic_volumes, lattice_euler_characteristic
from .glm import DesignMatrix, FieldType
from .lkc import FOUR_LOG2, ReselVector
from .preproc import _gaussian_kernel, _kernel_radius


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation ensemble.

    ``field`` selects 'gaussian' (raw unit-variance fields) or
    'student_t' (one-sample t maps over ``n_subjects`` synthetic
    fields). ``fwhm`` is the smoothing-kernel width per axis in voxels;
    0 means white noise along that axis.
    """

    dims: tuple[int, ...]
    fwhm: tuple[float, ...]
    n_realizations: int
    seed: int
    field: str = "gaussian"
    n_subjects: int = 13
    max_field_bytes: int = 1 << 30

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        fwhm = np.atleast_1d(np.asarray(self.fwhm, dtype=float))
        if fwhm.size == 1:
            fwhm = np.repeat(fwhm, len(self.dims))
        if fwhm.size != len(self.dims):
            raise ValueError("need one fwhm per axis")
        if np.any(fwhm < 0):
            raise ValueError("fwhm must be nonnegative")
        object.__setattr__(self, "fwhm", tuple(float(f) for f in fwhm))
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.field not in ("gaussian", "student_t"):
            raise ValueError(f"unknown field mode {self.field!r}")
        if self.field == "student_t" and self.n_subjects < 2:
            raise ValueError("student_t mode needs n_subjects >= 2")
        pads = [_kernel_radius(f) for f in self.fwhm]
        padded = np.prod([n + 2 * p for n, p in zip(self.dims, pads)])
        if 8 * padded > self.max_field_bytes:
            raise ValueError(
                f"padded field of {int(padded)} values exceeds the "
                f"{self.max_field_bytes} byte cap"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {"dims", "fwhm", "n_realizations", "seed", "field",
                 "n_subjects", "max_field_bytes"}
        unknown = set(d) - known - {"thresholds", "alpha"}
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        for key in ("dims", "fwhm", "n_realizations", "seed"):
            if key not in d:
                raise ValueError(f"simulation config missing {key!r}")
        return cls(
            dims=tuple(d["dims"]), fwhm=tuple(np.atleast_1d(d["fwhm"])),
            n_realizations=int(d["n_realizations"]), seed=int(d["seed"]),
            field=d.get("field", "gaussian"),
            n_subjects=int(d.get("n_subjects", 13)),
            max_field_bytes=int(d.get("max_field_bytes", 1 << 30)),
        )


def _rng_for(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _smooth_white_noise(rng: np.random.Generator, dims, fwhm) -> np.ndarray:
    pads = [_kernel_radius(f) for f in fwhm]
    big = rng.standard_normal(tuple(n + 2 * p for n, p in zip(dims, pads)))
    norm = 1.0
    for ax, f in enumerate(fwhm):
        if f == 0:
            continue
        k = _gaussian_kernel(f)
        big = ndimage.convolve1d(big, k, axis=ax, mode="constant")
        norm *= math.sqrt(float((k * k).sum()))
    crop = tuple(slice(p, p + n) for p, n in zip(pads, dims))
    # dividing by the analytic kernel norm makes marginals exactly N(0,1)
    return big[crop] / norm


def gen_field(config: SimConfig, index: int) -> np.ndarray:
    """Realization ``index`` of the configured Gaussian field ensemble.

    Deterministic per (seed, index); unit pointwise variance.
    """
    rng = _rng_for(config.seed, index)
    return _smooth_white_noise(rng, config.dims, config.fwhm)


def effective_fwhm(config: SimConfig) -> np.ndarray:
    """Per-axis smoothness of the generated lattice fields, in voxels.

    Computed from the exact lag-1 autocorrelation of the sampled,
    truncated kernel, so it reflects the roughness the fields actually
    carry on the lattice (slightly above the nominal kernel width; equal
    to sqrt(2 ln 2) ~= 1.18 for unsmoothed white noise).
    """
    out = np.empty(len(config.dims))
    for ax, f in enumerate(config.fwhm):
        if f == 0:
            lam = 2.0
        else:
            k = _gaussian_kernel(f)
            acf = np.correlate(k, k, mode="full")
            rho1 = acf[k.size] / acf[k.size - 1]
            lam = 2.0 * (1.0 - rho1)
        out[ax] = math.sqrt(FOUR_LOG2 / lam)
    return out


def generator_resels(config: SimConfig) -> ReselVector:
    """Ground-truth resel vector of the simulated box.

    Anisotropic box counts: resels_d is the elementary symmetric sum of
    degree d over the per-axis ratios (extent - 1) / effective FWHM.
    """
    fwhm_eff = effective_fwhm(config)
    ratios = [(n - 1) / f for n, f in zip(config.dims, fwhm_eff)]
    d_top = len(config.dims)
    esym = np.zeros(d_top + 1)
    esym[0] = 1.0
    for r in ratios:
        esym[1:] = esym[1:] + r * esym[:-1]
    return ReselVector.from_resels(esym, fwhm=fwhm_eff)


def _field_type(config: SimConfig) -> FieldType:
    if config.field == "gaussian":
        return FieldType.gaussian()
    return FieldType.student_t(config.n_subjects - 1)


def _t_fit(config: SimConfig, index: int) -> glm.GlmFit:
    """One-sample GLM fit over ``n_subjects`` fields for the student_t mode."""
    rng = _rng_for(config.seed, index)
    data = np.stack([
        _smooth_white_noise(rng, config.dims, config.fwhm).ravel()
        for _ in range(config.n_subjects)
    ])
    design = DesignMatrix(np.ones((config.n_subjects, 1)), ("mean",))
    return glm.fit(data, design)


def _t_realization(config: SimConfig, index: int):
    """t map and residual set of one student_t realization; the fit is dropped."""
    fit = _t_fit(config, index)
    return glm.t_map(fit, [1.0]), glm.normalized_residuals(fit)


def _realization_values(config: SimConfig, index: int) -> np.ndarray:
    if config.field == "gaussian":
        return gen_field(config, index)
    return glm.t_map(_t_fit(config, index), [1.0]).values.reshape(config.dims)


def mc_ec(config: SimConfig, thresholds) -> dict:
    """Mean empirical Euler characteristic per threshold.

    The EC of each excursion mask comes from the lattice counting
    formula; the returned ``expected_ec`` evaluates the closed form at
    the generator's true resels for comparison.
    """
    thresholds = [float(t) for t in np.atleast_1d(thresholds)]
    resels = generator_resels(config)
    ftype = _field_type(config)
    ecs = np.empty((config.n_realizations, len(thresholds)))
    for i in range(config.n_realizations):
        vals = _realization_values(config, i)
        for j, t in enumerate(thresholds):
            ecs[i, j] = lattice_euler_characteristic(vals >= t)
    mean = ecs.mean(axis=0)
    se = (ecs.std(axis=0, ddof=1) / math.sqrt(config.n_realizations)
          if config.n_realizations > 1 else np.zeros(len(thresholds)))
    expected = [ecd.expected_ec(resels, ftype, t).total for t in thresholds]
    return {
        "thresholds": thresholds,
        "mean_ec": mean.tolist(),
        "se_ec": se.tolist(),
        "expected_ec": expected,
        "n_realizations": config.n_realizations,
    }


def _wilson_ci(successes: int, n: int, z: float = 1.959963984540054):
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def mc_fwe(config: SimConfig, alpha: float = 0.05) -> dict:
    """Empirical family-wise error of the corrected threshold.

    Gaussian mode thresholds once from the generator-true resels;
    student_t mode re-estimates smoothness from each realization's GLM
    residuals and thresholds per realization (the full pipeline).
    """
    ftype = _field_type(config)
    n_exceed = 0
    threshold = None
    if config.field == "gaussian":
        resels = generator_resels(config)
        threshold = ecd.corrected_threshold(alpha, resels, ftype)
        for i in range(config.n_realizations):
            if gen_field(config, i).max() > threshold:
                n_exceed += 1
    else:
        space = build_lattice(config.dims, np.ones(config.dims, dtype=bool))
        mu = intrinsic_volumes(space)
        for i in range(config.n_realizations):
            stat, residuals = _t_realization(config, i)
            top, fwhm = lkc.lattice_smoothness(residuals, space)
            thr = ecd.corrected_threshold(alpha, lkc.lkc_vector(top, mu, fwhm=fwhm), ftype)
            if stat.values.max() > thr:
                n_exceed += 1
    rate = n_exceed / config.n_realizations
    lo, hi = _wilson_ci(n_exceed, config.n_realizations)
    return {
        "alpha": alpha,
        "threshold": threshold,
        "empirical_fwe": rate,
        "ci95": [lo, hi],
        "n_exceed": n_exceed,
        "n_realizations": config.n_realizations,
    }
