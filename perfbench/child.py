"""One benchmark operation in a fresh process.

Usage: ``python3 child.py SPEC.json``. The spec holds the argv of the
operation, ``topostat.cli.main(argv)``, the output directory and
whether to trace.

The child records the monotonic clock once ``import topostat.cli`` has
completed (the parent subtracts its spawn time to get the set-up time),
then wall time, user + sys CPU time and peak RSS of the operation, and
writes them to ``<out>/timing.json``. A traced run also writes its spans.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import topostat.cli
    t_ready = time.monotonic()

    src = Path(spec["src"]).resolve()
    if src not in Path(topostat.cli.__file__).resolve().parents:
        print(f"error: imported {topostat.cli.__file__}, not the package under {src}",
              file=sys.stderr)
        return 4
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    argv = [a.replace("{out}", spec["out"]) for a in spec["argv"]]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    rc = topostat.cli.main(argv)
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    timing = {
        "rc": rc,
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(out / "spans.npz")
    (out / "timing.json").write_text(json.dumps(timing))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
