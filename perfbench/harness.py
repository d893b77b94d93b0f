"""Closed-loop runner for one workload.

One invocation generates the workload's inputs (untimed), imports the
package once in a throwaway child so byte-code and page caches are warm,
then runs the operation in a fresh child process, one at a time, the
next one spawned after the previous has exited. A new child starts only
while the longest run so far still fits in ``seconds``, so the runs end
within ``seconds`` (there is at least one run). With tracing on, one
more child runs the same operation traced. Every run is one operation:
it fails on a non-zero exit or a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A whole invocation must end within 180 s; the last child gets what is left.
INVOCATION_BUDGET_S = 170.0
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


@dataclass
class Run:
    """Outcome of one child process."""

    timing: dict | None = None
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    summary: dict | None = None
    spans: Path | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def git_sha() -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def environment() -> dict:
    """Machine, versions, BLAS thread setting of the children, and commit."""
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: child_env()[v] for v in BLAS_VARS},
        "git_sha": git_sha(),
    }


def _run_child(argv: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def _one_run(name: str, spec: dict, run_dir: Path, size: dict, trace: bool,
             timeout: float) -> Run:
    run_dir.mkdir(parents=True)
    out = run_dir / "out"
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps({**spec, "out": str(out), "trace": trace,
                                     "src": str(SRC)}))
    t_spawn = time.monotonic()
    try:
        proc = _run_child([str(HERE / "child.py"), str(spec_path)], run_dir, timeout)
    except subprocess.TimeoutExpired:
        return Run(problems=[f"killed after {timeout:.0f} s"])
    run = Run()
    timing_path = out / "timing.json"
    if timing_path.is_file():
        run.timing = json.loads(timing_path.read_text())
        run.timing["setup_s"] = run.timing["t_ready"] - t_spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return run
    raw = (out / "results.json").read_bytes()
    results = json.loads(raw)
    run.digest = hashlib.sha256(raw).hexdigest()
    run.problems += checks.problems(name, results, size)
    run.summary = checks.summary(name, results)
    if trace:
        run.spans = out / "spans.npz"
    return run


def _median(runs: list[Run], key: str) -> float:
    return statistics.median(r.timing[key] for r in runs)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict,
                 reference: dict | None, work: Path) -> dict:
    """Measure workload ``name``; return the result object and details.

    ``reference`` is the pinned summary to compare every run against, or
    None. The result's ``metrics`` map every end-to-end metric (untraced
    runs, medians) or, with ``trace``, every per-layer metric (traced run)
    to its value.
    """
    t_begin = time.monotonic()
    spec = workloads.generate(name, work / "inputs", seed, size)
    n_input_bytes = workloads.input_bytes(work / "inputs")
    _run_child(["-c", "import topostat.cli"], work, INVOCATION_BUDGET_S).check_returncode()

    def remaining() -> float:
        return max(10.0, INVOCATION_BUDGET_S - (time.monotonic() - t_begin))

    runs: list[Run] = []
    longest = 0.0
    t0 = time.monotonic()
    while not runs or time.monotonic() - t0 + longest <= seconds:
        t_run = time.monotonic()
        runs.append(_one_run(name, spec, work / f"run{len(runs)}", size, False,
                             remaining()))
        longest = max(longest, time.monotonic() - t_run)
    measured_s = time.monotonic() - t0
    if trace:
        runs.append(_one_run(name, spec, work / "traced", size, True, remaining()))

    for r in runs:
        if r.digest is not None and r.digest != runs[0].digest:
            r.problems.append("outputs differ from the first run of this invocation")
        if reference is not None and r.summary is not None:
            r.problems += checks.mismatches(r.summary, reference, "reference")
    timed = [r for r in runs[:len(runs) - trace] if r.timing is not None]
    if not timed:
        raise RuntimeError(f"{name}: no run completed; first problem: {runs[0].problems}")
    if trace:
        if runs[-1].spans is None:
            raise RuntimeError(f"{name}: traced run failed: {runs[-1].problems}")
        metrics = tracer.layer_metrics(runs[-1].spans, runs[-1].timing["wall_s"],
                                       _median(timed, "wall_s"))
    else:
        metrics = {key: _median(timed, key) for key in END_TO_END}
    failed = sum(1 for r in runs if r.problems)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "details": {
            "workload": name,
            "seed": seed,
            "input_bytes": n_input_bytes,
            "ops_total": len(runs),
            "ops_failed": failed,
            "measured_s": measured_s,
            "samples": {key: [r.timing[key] for r in timed] for key in END_TO_END},
            "problems": sorted({p for r in runs for p in r.problems}),
            "summary": runs[0].summary,
        },
    }
