"""Monte Carlo oracle for the expected-EC theory.

Generates smooth Gaussian random fields with known smoothness (white
noise on an enlarged grid, convolved with a Gaussian kernel, cropped and
scaled to exact unit pointwise variance), measures empirical excursion
topology and maxima, and compares against the closed-form expectations.
A Student-t mode pushes each realization through the full GLM + LKC +
threshold pipeline.

One pass over the realizations serves both tallies: each realization is
drawn (and, in Student-t mode, fitted) once, its excursion-set Euler
characteristics are counted at every threshold, and its maximum is
compared with the FWE threshold. :func:`mc_calibrate` runs both tallies;
:func:`mc_ec` and :func:`mc_fwe` run the same pass with one of them left
out.

Fields are reproducible by contract: realization ``index`` under seed
``s`` uses a counter-based generator keyed by (s, index), so any subset
of realizations can be regenerated on any platform, in any order.
"""

from __future__ import annotations

import math
import numbers
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
    0 means white noise along that axis. ``seed`` is an integer in
    [0, 2**64); it and every count must be integral, not truncated.
    """

    dims: tuple[int, ...]
    fwhm: tuple[float, ...]
    n_realizations: int
    seed: int
    field: str = "gaussian"
    n_subjects: int = 13
    max_field_bytes: int = 1 << 30

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(_whole("dims", n, 1) for n in self.dims))
        fwhm = np.atleast_1d(np.asarray(self.fwhm, dtype=float))
        if fwhm.size == 1:
            fwhm = np.repeat(fwhm, len(self.dims))
        if fwhm.size != len(self.dims):
            raise ValueError("need one fwhm per axis")
        if np.any(fwhm < 0):
            raise ValueError("fwhm must be nonnegative")
        object.__setattr__(self, "fwhm", tuple(float(f) for f in fwhm))
        if self.field not in ("gaussian", "student_t"):
            raise ValueError(f"unknown field mode {self.field!r}")
        for key, lo, hi in (("n_realizations", 1, None), ("seed", 0, 1 << 64),
                            ("n_subjects", 2 if self.field == "student_t" else 1, None),
                            ("max_field_bytes", 1, None)):
            object.__setattr__(self, key, _whole(key, getattr(self, key), lo, hi))
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
            n_realizations=d["n_realizations"], seed=d["seed"],
            field=d.get("field", "gaussian"),
            n_subjects=d.get("n_subjects", 13),
            max_field_bytes=d.get("max_field_bytes", 1 << 30),
        )


def _whole(key: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi); a fraction, a bool or a non-number is an error."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ValueError(f"{key} must be {bound}, got {value!r}")
    return int(value)


def _rng_for(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _smooth_white_noise(rng: np.random.Generator, dims, fwhm) -> np.ndarray:
    pads = [_kernel_radius(f) for f in fwhm]
    field = rng.standard_normal(tuple(n + 2 * p for n, p in zip(dims, pads)))
    norm = 1.0
    for ax, (f, p, n) in enumerate(zip(fwhm, pads, dims)):
        if f == 0:
            continue
        k = _gaussian_kernel(f)
        # later axes convolve each line on its own, so cropping this axis
        # now leaves every kept value as the whole-box convolution has it
        field = ndimage.convolve1d(field, k, axis=ax, mode="constant")
        field = field[(slice(None),) * ax + (slice(p, p + n),)]
        norm *= math.sqrt(float((k * k).sum()))
    # dividing by the analytic kernel norm makes marginals exactly N(0,1)
    return field / norm


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


def _wilson_ci(successes: int, n: int, z: float = 1.959963984540054):
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def _calibrate(config: SimConfig, thresholds, alpha) -> dict:
    """The one pass over the realizations behind every Monte Carlo report.

    Each realization is drawn, and in student_t mode fitted, once. Its
    Euler characteristic is counted at every threshold unless
    ``thresholds`` is None; its maximum is compared with the FWE
    threshold unless ``alpha`` is None. Inputs are checked before the
    first realization is drawn.
    """
    count_ec, count_fwe = thresholds is not None, alpha is not None
    thresholds = [float(t) for t in np.atleast_1d(thresholds)] if count_ec else []
    if not all(map(math.isfinite, thresholds)):
        raise ValueError(f"thresholds must be finite, got {thresholds}")
    if count_fwe and not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    student_t = config.field == "student_t"
    ftype = _field_type(config)
    threshold = None
    if count_fwe and student_t:
        if min(config.dims) < 2:
            raise ValueError(f"dims {config.dims}: student_t mode estimates smoothness "
                             "along every axis, so each axis needs >= 2 points")
        if config.n_subjects - 1 <= len(config.dims):
            raise ValueError(f"n_subjects {config.n_subjects}: a student_t field on D axes needs "
                             f"dof = n_subjects - 1 > D = {len(config.dims)} to bracket alpha")
        space = build_lattice(config.dims, np.ones(config.dims, dtype=bool))
        mu = intrinsic_volumes(space)
    elif count_fwe:
        threshold = ecd.corrected_threshold(alpha, generator_resels(config), ftype)

    n = config.n_realizations
    ecs = np.empty((n, len(thresholds)))
    n_exceed = 0
    thr = threshold
    for i in range(n):
        if student_t:
            fit = _t_fit(config, i)
            values = glm.t_map(fit, [1.0]).values.reshape(config.dims)
        else:
            values = gen_field(config, i)
        for j, t in enumerate(thresholds):
            ecs[i, j] = lattice_euler_characteristic(values >= t)
        if count_fwe:
            if student_t:
                top, fwhm = lkc.lattice_smoothness(glm.normalized_residuals(fit), space)
                thr = ecd.corrected_threshold(alpha, lkc.lkc_vector(top, mu, fwhm=fwhm), ftype)
            if values.max() > thr:
                n_exceed += 1

    report = {}
    if count_ec:
        se = (ecs.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
              else np.zeros(len(thresholds)))
        report.update({
            "thresholds": thresholds,
            "mean_ec": ecs.mean(axis=0).tolist(),
            "se_ec": se.tolist(),
            "expected_ec": ecd.expected_ec(generator_resels(config), ftype,
                                           np.array(thresholds)).tolist(),
        })
    if count_fwe:
        lo, hi = _wilson_ci(n_exceed, n)
        report.update({
            "alpha": alpha,
            "threshold": threshold,
            "empirical_fwe": n_exceed / n,
            "ci95": [lo, hi],
            "n_exceed": n_exceed,
        })
    report["n_realizations"] = n
    return report


def mc_calibrate(config: SimConfig, thresholds, alpha: float = 0.05) -> dict:
    """Mean empirical EC per threshold and empirical FWE, from one pass.

    Each realization is drawn (in student_t mode: fitted) once and
    serves both tallies; the report holds every key of :func:`mc_ec`
    and of :func:`mc_fwe`, with the same values.
    """
    return _calibrate(config, thresholds, alpha)


def mc_ec(config: SimConfig, thresholds) -> dict:
    """Mean empirical Euler characteristic per threshold.

    The EC of each excursion mask comes from the lattice counting
    formula; the returned ``expected_ec`` evaluates the closed form at
    the generator's true resels for comparison. Runs the pass of
    :func:`mc_calibrate` without the FWE tally.
    """
    return _calibrate(config, thresholds, None)


def mc_fwe(config: SimConfig, alpha: float = 0.05) -> dict:
    """Empirical family-wise error of the corrected threshold.

    Gaussian mode thresholds once from the generator-true resels;
    student_t mode re-estimates smoothness from each realization's GLM
    residuals and thresholds per realization (the full pipeline). Runs
    the pass of :func:`mc_calibrate` without the EC tally.
    """
    return _calibrate(config, None, alpha)
