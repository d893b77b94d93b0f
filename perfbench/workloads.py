"""The benchmark's two workloads: seeded input generation and the
operation spec each child process runs.

Inputs come from ``topostat.simulate.SimConfig`` seeds (the workload
seed is the ``SimConfig`` seed) and are written with the package's own
writers, so the program under test receives only files on disk.

``FULL`` holds the sizes the benchmark measures; ``TINY`` holds sizes
small enough for the harness smoke test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from topostat.dataset import write_dataset
from topostat.simulate import SimConfig, gen_field

FULL = {
    "scalp_time": {"dims": (64, 64, 200), "n_obs": 20, "fwhm": (5.0, 5.0, 8.0),
                   "radius": 31, "blob": 4.0, "blob_sigma": (4.0, 4.0, 8.0)},
    "mc_calibration": {"side": 64, "fwhm": 4.0, "n_subjects": 13,
                       "n_realizations": 300},
}

TINY = {
    "scalp_time": {"dims": (16, 16, 12), "n_obs": 8, "fwhm": (3.0, 3.0, 3.0),
                   "radius": 7, "blob": 4.0, "blob_sigma": (2.0, 2.0, 2.0)},
    "mc_calibration": {"side": 16, "fwhm": 3.0, "n_subjects": 6,
                       "n_realizations": 4},
}


def blob_center(dims) -> tuple[int, ...]:
    """Vertex where ``scalp_time`` plants its effect."""
    return tuple(n // 2 for n in dims)


def _design_files(dest: Path, n_obs: int) -> tuple[str, str]:
    design = dest / "design.csv"
    design.write_text("mean\n" + "1\n" * n_obs)
    contrast = dest / "contrast.csv"
    contrast.write_text("1\n")
    return str(design), str(contrast)


def _scalp_time(dest: Path, seed: int, size: dict) -> dict:
    dims = size["dims"]
    cfg = SimConfig(dims=dims, fwhm=size["fwhm"], n_realizations=size["n_obs"],
                    seed=seed)
    grid = np.meshgrid(*[np.arange(n, dtype=float) for n in dims], indexing="ij")
    r2 = sum((g - c) ** 2 / (2.0 * s * s)
             for g, c, s in zip(grid, blob_center(dims), size["blob_sigma"]))
    blob = size["blob"] * np.exp(-r2)
    centre = (np.asarray(dims[:2]) - 1) / 2.0
    disc = ((grid[0][..., 0] - centre[0]) ** 2 + (grid[1][..., 0] - centre[1]) ** 2
            <= size["radius"] ** 2)
    mask = np.repeat(disc[..., None], dims[2], axis=2)
    vols = np.stack([gen_field(cfg, i) + blob for i in range(size["n_obs"])])
    write_dataset(dest / "dataset", vols, axes=("x", "y", "time"),
                  units=("bins", "bins", "ms"), mask=mask)
    design, contrast = _design_files(dest, size["n_obs"])
    return {"argv": ["analyze", str(dest / "dataset"), design, contrast,
                                    "--smooth", "2,2,2", "-o", "{out}"]}


def _mc_calibration(dest: Path, seed: int, size: dict) -> dict:
    config = {"dims": [size["side"], size["side"]], "fwhm": size["fwhm"],
              "field": "student_t", "n_subjects": size["n_subjects"],
              "n_realizations": size["n_realizations"], "seed": seed}
    path = dest / "config.json"
    path.write_text(json.dumps(config))
    return {"argv": ["simulate", str(path), "-o", "{out}/results.json"]}


_GENERATORS = {"scalp_time": _scalp_time, "mc_calibration": _mc_calibration}
NAMES = tuple(_GENERATORS)


def generate(name: str, dest: Path, seed: int, size: dict) -> dict:
    """Write the inputs of workload ``name`` under ``dest`` and return the
    operation spec for the child. ``{out}`` in a CLI argv stands for the
    per-run output directory."""
    dest.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[name](dest, seed, size)


def input_bytes(dest: Path) -> int:
    """Bytes of generated input files under ``dest``."""
    return sum(p.stat().st_size for p in dest.rglob("*") if p.is_file())
