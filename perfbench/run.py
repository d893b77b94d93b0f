"""Benchmark of the topostat pipeline, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/topostat`` must exist).
Workloads, metrics and units are listed in ``BENCHMARK.json``; the
reasons behind them are in ``perfbench/README.md``. Earlier lines of
standard output describe the machine and the runs; the last line is the
result object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".bench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "topostat" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'topostat'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    pinned = json.loads(REFERENCE.read_text())
    reference = (pinned["workloads"][args.workload] if args.seed == pinned["seed"]
                 else None)

    work = WORK_DIR / str(os.getpid())
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workloads.FULL[args.workload],
                                      reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    details = result.pop("details")
    details.pop("summary")
    details["reference_checked"] = reference is not None
    print(json.dumps({"environment": harness.environment()}))
    print(json.dumps({"details": details}))
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
