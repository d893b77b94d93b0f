"""Regenerate ``reference.json`` from the package in this checkout.

    python3 perfbench/make_reference.py

Runs each workload once at the reference seed and pins the summary of
its outputs. Regenerate only when the outputs change on purpose, such as
a named correctness fix; otherwise a mismatch is a regression.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 3


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import harness
    import workloads

    pinned = {"seed": SEED, "workloads": {}}
    work = HERE.parent / ".bench_work" / f"reference-{os.getpid()}"
    try:
        for name in workloads.NAMES:
            result = harness.run_workload(name, SEED, 0, False, workloads.FULL[name],
                                          None, work / name)
            if not result["correct"]:
                print(f"error: {name}: {result['details']['problems']}", file=sys.stderr)
                return 1
            pinned["workloads"][name] = result["details"]["summary"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
