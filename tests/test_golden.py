"""Golden outputs: small seeded `analyze`, `simulate` and `smooth` runs
against committed results.

Each case rebuilds its inputs from a fixed seed, runs the CLI and
compares the output with ``tests/data/golden/`` the way the benchmark
compares with its reference: keys, lengths, integers and strings
exactly, every float within 1e-12 relative; ``report.txt`` exactly.
The ``smooth`` case writes a dataset, which must match byte for byte:
``tests/data/golden/smooth/SHA256SUMS`` holds the digest of each file.
Refactors that claim identical outputs keep this test passing
unedited. After a declared behaviour change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from topostat.cli import main
from topostat.dataset import write_dataset
from topostat.simulate import SimConfig, gen_field

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
REL_TOL = 1e-12
ANALYZE = {
    "analyze_plain": [],
    "analyze_smooth": ["--smooth", "2,2,2"],
    "analyze_window_two_sided": ["--window", "3:9", "--two-sided"],
}
SIMULATE = {
    "simulate_student_t": {"dims": [16, 16], "fwhm": 3.0, "field": "student_t",
                           "n_subjects": 6, "n_realizations": 4, "seed": 3,
                           "thresholds": [1.5, 2.5, 3.5]},
    "simulate_gaussian": {"dims": [24, 24], "fwhm": 3.0, "n_realizations": 4,
                          "seed": 3, "thresholds": [1.5, 2.5, 3.5]},
}
SMOOTH_FWHM = "2,2,2"


def write_analyze_inputs(dest: Path) -> list[str]:
    """A 16x16x12 disc-masked dataset of n = 8 smooth fields with a
    planted effect, a mean + ramp design and a contrast on the mean."""
    dims, n_obs = (16, 16, 12), 8
    cfg = SimConfig(dims=dims, fwhm=(3.0, 3.0, 3.0), n_realizations=n_obs, seed=3)
    grid = np.meshgrid(*[np.arange(n, dtype=float) for n in dims], indexing="ij")
    blob = 3.0 * np.exp(-sum((g - n // 2) ** 2 / 8.0 for g, n in zip(grid, dims)))
    disc = (grid[0][..., 0] - 7.5) ** 2 + (grid[1][..., 0] - 7.5) ** 2 <= 49.0
    mask = np.repeat(disc[..., None], dims[2], axis=2)
    vols = np.stack([gen_field(cfg, i) + blob for i in range(n_obs)])
    write_dataset(dest / "dataset", vols, axes=("x", "y", "time"),
                  units=("bins", "bins", "ms"), mask=mask)
    ramp = np.linspace(-1.0, 1.0, n_obs)
    (dest / "design.csv").write_text(
        "mean,ramp\n" + "".join(f"1,{float(r)!r}\n" for r in ramp))
    (dest / "contrast.csv").write_text("1,0\n")
    return [str(dest / "dataset"), str(dest / "design.csv"), str(dest / "contrast.csv")]


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case in ``work``; its output files by name, with ``work``
    written as ``WORK`` so that input paths compare equal."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if name in ANALYZE:
        argv = ["analyze", *write_analyze_inputs(work), "-o", str(out), *ANALYZE[name]]
        files = ("results.json", "report.txt")
    else:
        (work / "config.json").write_text(json.dumps(SIMULATE[name]))
        out.mkdir()
        argv = ["simulate", str(work / "config.json"), "-o", str(out / "results.json")]
        files = ("results.json",)
    assert main(argv) == 0
    return {f: (out / f).read_text().replace(str(work), "WORK") for f in files}


def smooth_digests(work: Path) -> str:
    """``topostat smooth`` on the ``analyze`` dataset; the SHA-256 of
    every written file, one ``<hex>  <name>`` line each."""
    work.mkdir(parents=True, exist_ok=True)
    dataset = write_analyze_inputs(work)[0]
    out = work / "smoothed"
    assert main(["smooth", dataset, "-o", str(out), "--fwhm", SMOOTH_FWHM]) == 0
    return "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n"
                   for f in sorted(out.iterdir()))


def mismatches(got, want, path: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", [*ANALYZE, *SIMULATE])
def test_matches_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    want = {f: (GOLDEN / name / f).read_text() for f in got}
    wrong = mismatches(json.loads(got["results.json"]), json.loads(want["results.json"]))
    assert not wrong, "\n".join(wrong[:20])
    if "report.txt" in got:
        assert got["report.txt"] == want["report.txt"]


def test_smooth_matches_golden(tmp_path):
    assert smooth_digests(tmp_path) == (GOLDEN / "smooth" / "SHA256SUMS").read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in [*ANALYZE, *SIMULATE]:
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            for fname, text in run_case(case, Path(tmp) / case).items():
                (GOLDEN / case / fname).write_text(text)
        (GOLDEN / "smooth").mkdir(exist_ok=True)
        (GOLDEN / "smooth" / "SHA256SUMS").write_text(smooth_digests(Path(tmp) / "smooth"))
