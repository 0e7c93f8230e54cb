"""The timed part of one run, in a process of its own.

Reads a pickled job from stdin and times whole rounds of the operation
list until `seconds` have passed, reading the peak resident memory
after the first round.  Writes a pickled result to stdout: the plain
form of the first round's answers, the number of later answers that
differed from them, each operation's cost and, when tracing, the
per-layer totals and the spans of the first round.

The package is found through PYTHONPATH, which the parent sets to the
checkout's `src`, for this process and the CLI processes it starts.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from array import array

import tracing
from workloads import Family

# What the `hypertail` console script runs.
CONSOLE = "import sys\nfrom hypertail.cli import main\nsys.exit(main())"
CHILD_TIMEOUT = 60


def plain(obj):
    """Dataclasses, enums and mappings as plain Python data."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


class Raised:
    """An exception an operation raised, comparable across rounds."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def percentile(ordered, q: float) -> float:
    """Linear interpolation between closest ranks, at position (n - 1) q."""
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_costs(latencies, k: int, statistic) -> list[float]:
    """Each of the k operations' cost over the rounds: its mean time for
    statistic "mean", else the quantile `statistic` of its times."""
    if statistic == "mean":
        return [statistics.fmean(latencies[j::k]) for j in range(k)]
    return [percentile(sorted(latencies[j::k]), statistic) for j in range(k)]


def _resolve(value):
    import hypertail

    if isinstance(value, Family):
        return hypertail.BoundFamily(value.value)
    if isinstance(value, tuple):
        return tuple(_resolve(v) for v in value)
    return value


def run_api(job) -> dict:
    import hypertail

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer(keep_spans=True)
        tracing.install(tracer)
    calls = [
        (getattr(hypertail, call), _resolve(args), kwargs)
        for call, args, kwargs in job["tasks"]
    ]
    first, rss_kb = [], None
    latencies = array("d")
    differed = [0] * len(calls)
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for j, (fn, args, kwargs) in enumerate(calls):
            if tracer:
                tracer.request = (rounds, j)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # an operation's failure is its answer
                result = Raised(exc)
            latencies.append(clock() - t0)
            if rounds == 0:
                first.append(result)
            elif result != first[j]:
                differed[j] += 1
        if rounds == 0:
            # Read before the timing store grows with the run's length.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer:
                tracer.keep_spans = False
        rounds += 1
        if clock() - start >= job["seconds"]:
            break
    return {
        "first": [{"raised": r.text} if isinstance(r, Raised) else plain(r) for r in first],
        "differed": differed,
        "rounds": rounds,
        "wall_s": clock() - start,
        "op_costs_s": op_costs(latencies, len(calls), job["cost_statistic"]),
        "rss_mb": rss_kb / 1024,
        "trace": tracer.summary() | {"spans": tracer.spans} if tracer else None,
    }


def _run_child(argv, job):
    """One CLI process from start to exit: (seconds, result, stderr)."""
    if job["trace"]:
        cmd = [sys.executable, "-X", "importtime", job["launcher"]] + argv
    else:
        cmd = [sys.executable, "-c", CONSOLE] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - t0
    result = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": ""}
    if proc.returncode != 0:
        result["stderr"] = proc.stderr
    return elapsed, result, proc.stderr


def parse_child_trace(stderr: str) -> dict:
    """Import times (ms) and the launcher's layer totals from stderr."""
    imports = tracing.parse_importtime(stderr)
    layers = None
    for line in stderr.splitlines():
        if line.startswith(tracing.TRACE_PREFIX):
            layers = json.loads(line[len(tracing.TRACE_PREFIX):])
    return {
        "import_ms": imports["hypertail"],
        "import_numpy_ms": imports["numpy"],
        "layers": layers,
    }


def run_cli(job) -> dict:
    argvs = [args[0] for _call, args, _kwargs in job["tasks"]]
    first = []
    latencies = array("d")
    differed = [0] * len(argvs)
    processes = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for j, argv in enumerate(argvs):
            elapsed, result, stderr = _run_child(argv, job)
            latencies.append(elapsed)
            if rounds == 0:
                first.append(result)
            elif result != first[j]:
                differed[j] += 1
            if job["trace"]:
                processes.append(parse_child_trace(stderr) | {"wall_s": elapsed})
        rounds += 1
        if time.perf_counter() - start >= job["seconds"]:
            break
    # The largest child: every child is one CLI process.
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "first": first,
        "differed": differed,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "op_costs_s": op_costs(latencies, len(argvs), job["cost_statistic"]),
        "rss_mb": rss_kb / 1024,
        "trace": {"processes": processes} if job["trace"] else None,
    }


def main() -> None:
    job = pickle.load(sys.stdin.buffer)
    out = run_cli(job) if job["workload"] == "cli-oneshot" else run_api(job)
    pickle.dump(out, sys.stdout.buffer)


if __name__ == "__main__":
    main()
