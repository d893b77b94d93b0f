"""Command-line front end.

Subcommands: analyze (dataset -> peak/cluster tables), simulate
(Monte Carlo calibration report), tf (Morlet band-power datasets),
smooth (Gaussian smoothing of a dataset), info (describe a dataset).
Exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy import special

from . import ecd, glm, lkc, preproc, simulate
from .dataset import read_dataset, write_dataset
from .domain import build_lattice, intrinsic_volumes
from .infer import peak_table


def _parse_fwhm(text: str, n_axes: int) -> list[float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        parts = parts * n_axes
    if len(parts) != n_axes:
        raise ValueError(f"--smooth expects {n_axes} comma-separated widths")
    return parts


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--window expects LO:HI bin indices, got {text!r}") from None


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_analyze(args) -> int:
    if not 0.0 < args.height_p < 1.0:
        raise ValueError(f"--height-p must lie in (0, 1), got {args.height_p}")
    ds = read_dataset(args.dataset)
    design = glm.DesignMatrix.from_csv(args.design)
    contrast = glm.read_contrast_csv(args.contrast)
    data = ds.load()
    mask = ds.load_mask()
    np.copyto(data, 0.0, where=~mask)  # values outside the mask are ignored
    if design.n_obs != ds.n_obs:
        raise ValueError(
            f"design has {design.n_obs} rows but dataset has {ds.n_obs} observations"
        )

    smooth_fwhm = (_parse_fwhm(args.smooth, len(ds.dims)) if args.smooth
                   else [0.0] * len(ds.dims))
    if any(f > 0 for f in smooth_fwhm):
        data = preproc.gaussian_smooth(data.reshape((ds.n_obs,) + ds.dims), smooth_fwhm,
                                       mask=mask.reshape(ds.dims)).reshape(ds.n_obs, -1)

    space = build_lattice(ds.dims, mask, axis_labels=ds.axes, axis_units=ds.units)
    fit = glm.fit(data, design)
    del data
    stat = glm.t_map(fit, contrast)
    residuals = glm.normalized_residuals(fit)

    n_t = ds.dims[-1]
    window_bins = [0, n_t - 1]
    analysis_space = space
    if args.window:
        lo, hi = _parse_window(args.window)
        window_bins = [max(lo, 0), min(hi, n_t - 1)]
        if window_bins != [0, n_t - 1]:
            analysis_space = ecd.restrict(space, time_window=(lo, hi))

    mu = intrinsic_volumes(analysis_space)
    top, fwhm_hat = lkc.lattice_smoothness(residuals, space, analysis_space)
    resels = lkc.lkc_vector(top, mu, fwhm=fwhm_hat)

    t_feature = float(-special.stdtrit(fit.dof, args.height_p))
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
        "dof": fit.dof,
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
    config = simulate.SimConfig.from_dict(raw)
    thresholds = raw.get("thresholds", [2.0, 2.5, 3.0, 3.5])
    alpha = float(raw.get("alpha", 0.05))

    mc = simulate.mc_calibrate(config, thresholds, alpha)
    report = {
        "config": {
            "dims": list(config.dims),
            "fwhm": list(config.fwhm),
            "n_realizations": config.n_realizations,
            "seed": config.seed,
            "field": config.field,
            "n_subjects": config.n_subjects,
        },
        "thresholds": mc["thresholds"],
        "mean_ec": mc["mean_ec"],
        "se": mc["se_ec"],
        "expected_ec": mc["expected_ec"],
        "empirical_fwe": mc["empirical_fwe"],
        "ci": mc["ci95"],
        "alpha": alpha,
        "corrected_threshold": mc["threshold"],
    }
    out = Path(args.output)
    _json_dump(report, out)
    print(f"wrote {out}")
    return 0


def cmd_tf(args) -> int:
    ds = read_dataset(args.dataset)
    if len(ds.dims) != 1:
        raise ValueError(f"tf needs 1D time-series observations, got dims {ds.dims}")
    lo, _, hi = args.freqs.partition(":")
    freqs = np.arange(float(lo), float(hi) + 1.0)
    b_lo, _, b_hi = args.band.partition(":")
    band = (float(b_lo), float(b_hi))
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
                            mask=ds.load_mask() if ds.has_mask else None)
    print(f"wrote band-power dataset to {written.path} "
          f"({written.n_obs} observation(s))")
    return 0


def cmd_smooth(args) -> int:
    ds = read_dataset(args.dataset)
    fwhm = _parse_fwhm(args.fwhm, len(ds.dims))
    data = ds.load()
    mask = ds.load_mask().reshape(ds.dims)
    smoothed = preproc.gaussian_smooth(data.reshape((ds.n_obs,) + ds.dims), fwhm, mask=mask)
    written = write_dataset(Path(args.output), smoothed, axes=ds.axes,
                            units=ds.units,
                            mask=mask if ds.has_mask else None)
    print(f"wrote smoothed dataset to {written.path}")
    return 0


def cmd_info(args) -> int:
    ds = read_dataset(args.dataset)
    mask = ds.load_mask()
    print(f"dataset: {ds.path}")
    print(f"dims: {ds.dims}  axes: {ds.axes}  units: {ds.units}")
    print(f"observations: {ds.n_obs}")
    print(f"mask: {int(mask.sum())} of {ds.n_points} vertices inside")
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


def main(argv=None) -> int:
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
