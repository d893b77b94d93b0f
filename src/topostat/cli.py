"""Command-line front end.

Subcommands: analyze (dataset -> fit -> :func:`lkc.fit_resels` -> peak/cluster
tables), simulate (Monte Carlo calibration report; student_t mode takes the same
resels), tf (Morlet band power), smooth (Gaussian smoothing), info (describe a dataset).
Exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import ecd, glm, lkc, preproc, simulate
from .dataset import read_dataset, write_dataset
from .domain import build_lattice
from .infer import peak_table


def _parse_float(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{option} expects numbers, got {text!r}") from None


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--window expects LO:HI bin indices, got {text!r}") from None


def _beyond_float(value) -> bool:
    """A JSON integer too large for a float, alone or anywhere in a list."""
    if isinstance(value, list):
        return any(map(_beyond_float, value))
    return type(value) is int and abs(value) > sys.float_info.max


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_analyze(args) -> int:
    """Fit the GLM, estimate smoothness and write the peak and cluster tables.

    Every input is checked before the observations are read into one stack that
    :func:`preproc.gaussian_smooth` masks with ``ds.mask`` and smooths in place
    (zero widths only mask it) and :func:`glm.fit` turns into the residuals.
    """
    if not 0.0 < args.height_p < 1.0:
        raise ValueError(f"--height-p must lie in (0, 1), got {args.height_p}")
    if not 0.0 < args.alpha <= 1.0:
        raise ValueError(f"--alpha must lie in (0, 1], got {args.alpha}")
    ds = read_dataset(args.dataset)
    design = glm.DesignMatrix.from_csv(args.design)
    contrast = glm.read_contrast_csv(args.contrast)
    if design.n_obs != ds.n_obs:
        raise ValueError(
            f"design has {design.n_obs} rows but dataset has {ds.n_obs} observations"
        )
    dof = design.dof
    if dof <= len(ds.dims):  # else E[EC] of the t field does not fall to 0 with height
        raise ValueError(f"design dof {dof}: a t field on D = {len(ds.dims)} axes needs dof > D")
    design.variance_factor(contrast)  # a contrast that does not fit exits here
    smooth_fwhm = preproc._widths(args.smooth.split(",") if args.smooth else 0.0,
                                  len(ds.dims), "--smooth")
    space = build_lattice(ds.dims, ds.mask)
    n_t = ds.dims[-1]
    window_bins = [0, n_t - 1]
    analysis_space = space
    if args.window:
        lo, hi = _parse_window(args.window)
        window_bins = [max(lo, 0), min(hi, n_t - 1)]
        if window_bins[0] == window_bins[1]:  # an empty window fails in ecd.restrict
            raise ValueError(f"--window {args.window} holds one time bin, and so no unit "
                             f"cube: a window needs at least 2 bins")
        if window_bins != [0, n_t - 1]:
            analysis_space = ecd.restrict(space, time_window=(lo, hi))

    data = ds.load()
    preproc.gaussian_smooth(data.reshape((ds.n_obs,) + ds.dims), smooth_fwhm, space.mask)

    fit = glm.fit(data, design)
    del data
    stat = glm.t_map(fit, contrast)
    resels = lkc.fit_resels(fit, space, analysis_space)

    t_feature = ecd._tail_quantile(stat.field_type, args.height_p)
    table = peak_table(stat, analysis_space, resels, t_feature,
                       alpha=args.alpha, two_sided=args.two_sided)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    results = table.to_dict()
    results["inputs"] = {
        "dataset": str(args.dataset),
        "design": str(args.design),
        "contrast": [float(c) for c in contrast],
        "height_p": args.height_p,
        "alpha": args.alpha,
        "smooth_fwhm": smooth_fwhm,
        "window_bins": window_bins,
        "two_sided": args.two_sided,
        "dof": dof,
    }
    _json_dump(results, out / "results.json")
    (out / "report.txt").write_text(table.to_text())
    print(f"wrote {out / 'results.json'} and {out / 'report.txt'} "
          f"({len(table.peaks)} peak(s))")
    return 0


def cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    try:
        raw = json.loads(cfg_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{cfg_path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{cfg_path}: a simulation config is a JSON object, got {raw!r}")
    for key, value in raw.items():
        if _beyond_float(value):
            raise ValueError(f"{cfg_path}: {key} holds an integer too large for a float")
    config = simulate.SimConfig.from_dict(raw)
    thresholds = raw.get("thresholds", [2.0, 2.5, 3.0, 3.5])
    alpha = raw.get("alpha", 0.05)
    for key, values, kind in (("thresholds", thresholds, "a list of real numbers"),
                              ("alpha", [alpha], "a real number")):
        if not isinstance(values, list) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
            raise ValueError(f"{key} must be {kind}, got {raw[key]!r}")

    report = simulate.mc_calibrate(config, thresholds, alpha)
    del report["n_exceed"], report["n_realizations"]
    report["config"] = {key: getattr(config, key) for key in (
        "dims", "fwhm", "n_realizations", "seed", "field", "n_subjects")}
    out = Path(args.output)
    _json_dump(report, out)
    print(f"wrote {out}")
    return 0


def cmd_tf(args) -> int:
    if not 0.0 < args.srate < np.inf:
        raise ValueError(f"--srate must be positive and finite, got {args.srate}")
    ds = read_dataset(args.dataset)
    if len(ds.dims) != 1:
        raise ValueError(f"tf needs 1D time-series observations, got dims {ds.dims}")
    lo, _, hi = args.freqs.partition(":")
    freqs = np.arange(_parse_float(lo, "--freqs"), _parse_float(hi, "--freqs") + 1.0)
    if freqs.size == 0 or freqs[0] <= 0:
        raise ValueError(f"--freqs expects positive LO:HI with LO <= HI, got {args.freqs!r}")
    b_lo, _, b_hi = args.band.partition(":")
    band = (_parse_float(b_lo, "--band"), _parse_float(b_hi, "--band"))
    if band[0] < freqs[0] or band[1] > freqs[-1]:
        raise ValueError(f"band {args.band} outside frequency range {args.freqs}")
    data = ds.load()
    out_rows = np.empty_like(data)
    for i in range(ds.n_obs):
        tf = preproc.morlet_tf(data[i], args.srate, freqs)
        out_rows[i] = preproc.band_average(tf, band)
    written = write_dataset(Path(args.output),
                            out_rows.reshape((ds.n_obs,) + ds.dims),
                            axes=ds.axes, units=ds.units,
                            mask=ds.mask if ds.has_mask else None)
    print(f"wrote band-power dataset to {written.path} "
          f"({written.n_obs} observation(s))")
    return 0


def cmd_smooth(args) -> int:
    ds = read_dataset(args.dataset)
    fwhm = preproc._widths(args.fwhm.split(","), len(ds.dims), "--fwhm")
    smoothed = preproc.gaussian_smooth(ds.load().reshape((ds.n_obs,) + ds.dims), fwhm,
                                       ds.mask.reshape(ds.dims))
    written = write_dataset(Path(args.output), smoothed, axes=ds.axes, units=ds.units,
                            mask=ds.mask if ds.has_mask else None)
    print(f"wrote smoothed dataset to {written.path}")
    return 0


def cmd_info(args) -> int:
    ds = read_dataset(args.dataset)
    print(f"dataset: {ds.path}")
    print(f"dims: {ds.dims}  axes: {ds.axes}  units: {ds.units}")
    print(f"observations: {ds.n_obs}")
    print(f"mask: {int(ds.mask.sum())} of {ds.n_points} vertices inside")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topostat",
        description="Topological inference on statistic maps (RFT FWE and peak FDR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="GLM + smoothness estimation + peak table")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("design", help="design matrix CSV with header row")
    p.add_argument("contrast", help="contrast row-vector CSV")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--height-p", type=float, default=0.001,
                   help="uncorrected p defining the feature threshold (default 0.001)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="FWE level for the footnote context (default 0.05)")
    p.add_argument("--smooth", default=None, metavar="F1,F2,...",
                   help="Gaussian FWHM per axis in bins before fitting")
    p.add_argument("--window", default=None, metavar="LO:HI",
                   help="restrict the last axis to an inclusive bin range")
    p.add_argument("--two-sided", action="store_true",
                   help="search both signs of the contrast")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo EC / FWE calibration")
    p.add_argument("config", help="JSON simulation config")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tf", help="Morlet band power of 1D signal datasets")
    p.add_argument("dataset", help="dataset directory of 1D signals")
    p.add_argument("-o", "--output", required=True, help="output dataset directory")
    p.add_argument("--band", default="15:30", metavar="LO:HI",
                   help="frequency band to average, Hz (default 15:30)")
    p.add_argument("--freqs", default="1:45", metavar="LO:HI",
                   help="decomposition range, Hz (default 1:45)")
    p.add_argument("--srate", type=float, default=100.0,
                   help="sampling rate in Hz (default 100)")
    p.set_defaults(func=cmd_tf)

    p = sub.add_parser("smooth", help="Gaussian-smooth every observation")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--fwhm", required=True, metavar="F1,F2,...",
                   help="kernel FWHM per axis in bins")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("info", help="validate and describe a dataset")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_info)
    return parser


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap for reuse instead of trimming it and faulting it
    in again in the next Monte Carlo realization: a 300-realization 64x64 student_t
    ``simulate`` took 57k minor faults, 1.6k with both settings. Either one alone
    turns off glibc's dynamic thresholds; the trim one alone took a 64x64x200
    ``analyze`` from 14k faults to 377k. A no-op where there is no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of free heap top


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
