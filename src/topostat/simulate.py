"""Monte Carlo oracle for the expected-EC theory.

Generates smooth Gaussian random fields with known smoothness (white
noise on an enlarged grid, convolved with a Gaussian kernel, cropped and
scaled to exact unit pointwise variance), measures empirical excursion
topology and maxima, and compares against the closed-form expectations.
A Student-t mode fits each realization and takes its resels from
:func:`lkc.fit_resels`, the chain ``analyze`` runs, then its FWE threshold.

One pass over the realizations serves both tallies: each realization is
drawn (and, in Student-t mode, fitted) once, its excursion-set Euler
characteristics at every threshold are read from one sorted EC curve, and
its maximum is compared with the FWE threshold. :func:`mc_calibrate` runs
both tallies; :func:`mc_ec` and :func:`mc_fwe` run the same pass with one
of them left out.

Each realization's fields are drawn by :func:`_parallel._ahead`: in
forked producers, one per core, while this process fits, thresholds and
tallies the ones before, or inline on one core. One set of buffers serves
every field: the padded noise and two axis-pass outputs. In Student-t mode
:func:`glm.fit` takes over each (n_fields, n_points) block of ``_ahead``
(data -> residuals, whose differences give the smoothness), which is the
caller's until it takes the next.

Fields are reproducible by contract: realization ``index`` under seed
``s`` uses a counter-based generator keyed by (s, index), so any subset
of realizations can be regenerated on any platform, in any order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy import ndimage

from . import ecd, glm, lkc
from ._parallel import _ahead
from .dataset import _whole
from .domain import build_lattice, lattice_ec_curve
from .glm import DesignMatrix, FieldType
from .lkc import FOUR_LOG2, ReselVector
from .preproc import _gaussian_kernel, _kernel_radius, _widths

#: two-sided 95% standard-normal quantile of the Wilson interval
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation ensemble.

    ``field`` selects 'gaussian' (raw unit-variance fields) or
    'student_t' (one-sample t maps over ``n_subjects`` synthetic
    fields). ``fwhm`` is the finite smoothing-kernel width per axis in
    voxels; 0 means white noise along that axis. ``seed`` is an integer in
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
        if not isinstance(self.dims, (list, tuple)) or not self.dims:
            raise ValueError(f"dims must be a nonempty list of lengths, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(_whole("dims", n, 1) for n in self.dims))
        object.__setattr__(self, "fwhm", tuple(_widths(self.fwhm, len(self.dims), "fwhm")))
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
        names = [f.name for f in fields(cls)]
        unknown = set(d) - set(names) - {"thresholds", "alpha"}
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ValueError(f"simulation config missing {f.name!r}")
        return cls(**{key: d[key] for key in names if key in d})


def _rng_for(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _field_drawer(config: SimConfig):
    """``draw(rng, out)`` fills each row of the (n_fields, n_points) ``out`` with
    the next smooth field from ``rng``. The padded noise, the two convolution
    outputs, the kernels and their norm are made here once, for every field:
    ``ndimage`` zero-fills each output it allocates, so fresh arrays per field
    made a 13-field 64x64 draw about 6% slower, and the draw takes about 70%
    of the CPU of ``simulate``."""
    pads = [_kernel_radius(f) for f in config.fwhm]
    noise = np.empty(tuple(n + 2 * p for n, p in zip(config.dims, pads)))
    axes = [(ax, _gaussian_kernel(f), p, n)
            for ax, (f, p, n) in enumerate(zip(config.fwhm, pads, config.dims)) if f != 0]
    passes = [np.empty(noise.size) for _ in axes[:2]]
    # dividing by the analytic kernel norm makes marginals exactly N(0,1)
    norm = math.prod(math.sqrt(float((k * k).sum())) for _, k, _, _ in axes)

    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        for row in out:
            field = rng.standard_normal(out=noise)
            for i, (ax, k, p, n) in enumerate(axes):
                conv = passes[i % 2][:field.size].reshape(field.shape)
                ndimage.convolve1d(field, k, axis=ax, output=conv, mode="constant")
                # later axes convolve each line on its own, so cropping this axis
                # now leaves every kept value as the whole-box convolution has it
                field = conv[(slice(None),) * ax + (slice(p, p + n),)]
            np.divide(field, norm, out=row.reshape(config.dims))

    return draw


def gen_field(config: SimConfig, index: int) -> np.ndarray:
    """Realization ``index`` of the configured Gaussian field ensemble.

    Deterministic per (seed, index); unit pointwise variance.
    """
    out = np.empty((1, math.prod(config.dims)))
    _field_drawer(config)(_rng_for(config.seed, index), out)
    return out.reshape(config.dims)


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


def _wilson_ci(successes: int, n: int):
    z = WILSON_Z
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def mc_calibrate(config: SimConfig, thresholds, alpha: float | None = 0.05) -> dict:
    """Mean empirical EC per threshold and empirical FWE, from the one
    pass over the realizations behind every Monte Carlo report.

    Each realization is drawn, and in student_t mode fitted, once. Its
    Euler characteristics at every threshold are read from one sorted
    :func:`lattice_ec_curve` unless ``thresholds`` is None; its maximum is
    compared with the FWE threshold unless ``alpha`` is None. The report
    holds every key of :func:`mc_ec` and of :func:`mc_fwe`, with the same
    values; ``topostat simulate`` writes it less its two counts, plus the
    config. Inputs are checked before the first realization is drawn.
    """
    count_ec, count_fwe = thresholds is not None, alpha is not None
    thresholds = [float(t) for t in np.atleast_1d(thresholds)] if count_ec else []
    if not all(map(math.isfinite, thresholds)):
        raise ValueError(f"thresholds must be finite, got {thresholds}")
    if count_fwe and not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    student_t = config.field == "student_t"
    ftype = FieldType.student_t(config.n_subjects - 1) if student_t else FieldType.gaussian()
    threshold = None
    if count_fwe and student_t:
        if min(config.dims) < 2:
            raise ValueError(f"dims {config.dims}: student_t mode estimates smoothness "
                             "along every axis, so each axis needs >= 2 points")
        if config.n_subjects - 1 <= len(config.dims):
            raise ValueError(f"n_subjects {config.n_subjects}: a student_t field on D axes needs "
                             f"dof = n_subjects - 1 > D = {len(config.dims)} to bracket alpha")
        space = build_lattice(config.dims, np.ones(config.dims, dtype=bool))
    elif count_fwe:
        threshold = ecd.corrected_threshold(alpha, generator_resels(config), ftype)

    n = config.n_realizations
    ecs = np.empty((n, len(thresholds)))
    n_exceed = 0
    thr = threshold
    draw = _field_drawer(config)
    shape = (config.n_subjects if student_t else 1, math.prod(config.dims))
    design = DesignMatrix(np.ones((config.n_subjects, 1)), ("mean",))
    with _ahead(lambda i, out: draw(_rng_for(config.seed, i), out), n, shape) as blocks:
        for i, data in enumerate(blocks):
            if student_t:
                fit = glm.fit(data, design)  # data -> residuals
                values = glm.t_map(fit, [1.0]).values.reshape(config.dims)
            else:
                values = data.reshape(config.dims)
            if count_ec:
                ecs[i] = lattice_ec_curve(values, thresholds)
            if count_fwe:
                if student_t:
                    thr = ecd.corrected_threshold(alpha, lkc.fit_resels(fit, space), ftype)
                if values.max() > thr:
                    n_exceed += 1

    report = {"n_realizations": n}
    if count_ec:
        se = (ecs.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
              else np.zeros(len(thresholds)))
        report.update({
            "thresholds": thresholds,
            "mean_ec": ecs.mean(axis=0).tolist(),
            "se": se.tolist(),
            "expected_ec": ecd.expected_ec(generator_resels(config), ftype,
                                           np.array(thresholds)).tolist(),
        })
    if count_fwe:
        lo, hi = _wilson_ci(n_exceed, n)
        report.update({
            "alpha": alpha,
            "corrected_threshold": threshold,
            "empirical_fwe": n_exceed / n,
            "ci": [lo, hi],
            "n_exceed": n_exceed,
        })
    return report


def mc_ec(config: SimConfig, thresholds) -> dict:
    """Mean empirical Euler characteristic per threshold.

    The EC of each excursion set comes from the lattice EC curve; the
    returned ``expected_ec`` evaluates the closed form at the generator's
    true resels for comparison. Runs the pass of
    :func:`mc_calibrate` without the FWE tally.
    """
    return mc_calibrate(config, thresholds, None)


def mc_fwe(config: SimConfig, alpha: float = 0.05) -> dict:
    """Empirical family-wise error of the corrected threshold.

    Gaussian mode thresholds once from the generator-true resels;
    student_t mode re-estimates smoothness from each realization's GLM
    residuals and thresholds per realization (the full pipeline). Runs
    the pass of :func:`mc_calibrate` without the EC tally.
    """
    return mc_calibrate(config, None, alpha)
