"""Record the benchmark's end-to-end metrics in BENCH_<label>.json.

    python3 tools/bench_record.py --label 6

Run from the root of a checkout.  It runs `bench/run.py --trace 0` once
for each of the four workloads, one after another, at one fixed seed
and run length so that the files of successive changes compare, and
writes to
`BENCH_<label>.json` at the root each workload's end-to-end metrics and
operation counts, together with the commit measured, whether the
working tree differed from it, the Python and numpy versions and the
number of CPUs the process may use.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("exact-grid", "closed-form", "simulate", "cli-oneshot")
SEED = 1
SECONDS = 22


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def _run(workload: str) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "command": " ".join(["python3", *command[1:]]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not Path("bench/run.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        record["workloads"][workload] = _run(workload)
        print(workload, json.dumps(record["workloads"][workload]["metrics"]), flush=True)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
