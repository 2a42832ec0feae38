#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload default-recipe --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run starts a fresh child process
(``bench/worker.py``) with the BLAS thread pools pinned to one thread, so
that ``peak_rss_mb`` is the run's own. Artifacts go to a scratch
directory under ``.bench_work/`` in the current directory, removed when
the run ends. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit code is 0 only when every operation passed its
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "rvae" / "__init__.py").is_file():
        print(f"bench: no rvae package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    work = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]),
               PYTHONDONTWRITEBYTECODE="1", **{k: "1" for k in THREAD_PINS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    try:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"bench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench: worker exited with code {proc.returncode} and no result", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    if not args.trace and result["metrics"]:
        # ru_maxrss is in KiB on Linux; the only child waited for is the worker
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        measured = dict(result["metrics"], peak_rss_mb={"value": peak_mb, "unit": "MB"})
        result["metrics"] = {name: measured[name] for name, *_ in spec.END_TO_END
                             if name in measured}
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
