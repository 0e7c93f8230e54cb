"""Benchmark of hypertail: one workload, one seed, one run.

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package measured is `src/hypertail`
there.  The run

1. builds the workload's operation list from the seed (`workloads`);
2. starts fresh interpreters that import what the workload uses and
   answer one tiny query, and takes the median of their times as
   `setup_s` (under `-X importtime` when tracing);
3. times whole rounds of the operation list for `--seconds` in a worker
   process (`worker`), with the layer wrappers of `tracing` installed
   when `--trace 1`;
4. checks every answer against the references (`checks`, `refs`) and
   that every round gave the same answers;
5. prints the failures by name, writes the run's record (and, when
   tracing, its spans) under `bench/out/`, and prints the metrics as
   one JSON line: the end-to-end metrics, or with `--trace 1` the
   per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 15  # fresh interpreters timed for setup_s, after one discarded
PROBE_TIMEOUT = 60
WORKER_GRACE = 100  # seconds a worker may run past --seconds
# The package does no linear algebra, but importing numpy starts a BLAS
# thread pool whose threads compete with the main thread on two CPUs.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_probes(workload, env, trace) -> list[dict]:
    """Time fresh starts; the first one also writes bytecode, so it is dropped."""
    flags = ["-X", "importtime"] if trace else []
    cmd = [sys.executable, *flags, str(HERE / "probe.py"), workload]
    starts = []
    for _ in range(SETUP_STARTS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT, check=True)
        starts.append({"setup_s": float(proc.stdout.split()[-1])}
                      | tracing.parse_importtime(proc.stderr))
    return starts[1:]


def run_worker(job, env) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=pickle.dumps(job),
                          capture_output=True, env=env,
                          timeout=job["seconds"] + WORKER_GRACE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"error: the worker exited with code {proc.returncode}")
    return pickle.loads(proc.stdout)


def account(ops, out, schema) -> dict:
    """Attempted and failed operations over the timed rounds, by name."""
    rounds = out["rounds"]
    failed, kept, new, mended = 0, [], [], []
    for op, first, differed in zip(ops, out["first"], out["differed"]):
        reason = checks.check(op, first, schema)
        if reason is None and differed:
            reason = f"{differed} of {rounds} timed rounds gave another answer"
            failed += differed
        elif reason is not None:
            failed += rounds
        if reason is None and op.fault:
            mended.append(op.name)
        elif reason is not None and op.fault:
            kept.append((op.name, reason))
        elif reason is not None:
            new.append((op.name, reason))
    return {
        "attempted": rounds * len(ops),
        "failed": failed,
        "kept_faults": kept,
        "new_failures": new,
        "mended_faults": mended,
    }


def end_to_end(ops, out, starts) -> dict:
    costs = sorted(out["op_costs_s"])
    one_pass = sum(costs)
    trials = sum(op.trials for op in ops)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in starts), "s"),
        "queries_per_s": (len(ops) / one_pass, "1/s"),
        # Simulated draws per second; a query is one trial elsewhere.
        "trials_per_s": ((trials or len(ops)) / one_pass, "1/s"),
        "latency_p50_ms": (worker.percentile(costs, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (worker.percentile(costs, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (out["rss_mb"], "MB"),
    }


def per_layer(workload, out, starts) -> dict:
    """Layer totals per round; import and process figures as medians."""
    trace = out["trace"]
    if workload == "cli-oneshot":
        procs = trace["processes"]
        layers = {"calls": {}, "self_s": {}}
        for p in procs:
            for part in layers:
                for key, value in (p["layers"] or {}).get(part, {}).items():
                    layers[part][key] = layers[part].get(key, 0) + value
        import_ms = statistics.median(p["import_ms"] for p in procs)
        numpy_ms = statistics.median(p["import_numpy_ms"] for p in procs)
        run_self_ms = statistics.median(p["layers"]["self_s"]["cli.run"] * 1e3 for p in procs)
        interpreter_ms = statistics.median(
            p["wall_s"] * 1e3 - p["import_ms"] - p["layers"]["total_s"]["cli.run"] * 1e3
            for p in procs
        )
    else:
        layers = trace
        import_ms = statistics.median(s["hypertail"] for s in starts)
        numpy_ms = statistics.median(s["numpy"] for s in starts)
        run_self_ms = interpreter_ms = 0.0
    rounds = out["rounds"]

    def calls(*keys):
        return (sum(layers["calls"].get(k, 0) for k in keys) / rounds, "count")

    def ms(*keys):
        return (sum(layers["self_s"].get(k, 0.0) for k in keys) * 1e3 / rounds, "ms")

    return {
        "exact.rational.calls": calls("exact.rational"),
        "exact.rational.self_ms": ms("exact.rational"),
        "exact.log.calls": calls("exact.log"),
        "exact.log.self_ms": ms("exact.log"),
        "bounds.calls": calls("bounds", "bounds.kl"),
        "bounds.self_ms": ms("bounds", "bounds.kl"),
        "bounds.kl.calls": calls("bounds.kl"),
        "bounds.kl.self_ms": ms("bounds.kl"),
        "inference.calls": calls("inference"),
        "inference.self_ms": ms("inference"),
        "montecarlo.calls": calls("montecarlo.draw", "montecarlo.tally"),
        "montecarlo.draw_ms": ms("montecarlo.draw"),
        "montecarlo.tally_ms": ms("montecarlo.tally"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_numpy_ms": (numpy_ms, "ms"),
        "cli.run_self_ms": (run_self_ms, "ms"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
    }


def report(workload, seed, out, tally) -> None:
    print(f"{workload} seed {seed}: {out['rounds']} rounds, "
          f"{tally['attempted']} operations attempted, {tally['failed']} failed")
    for name, reason in tally["kept_faults"]:
        print(f"  kept fault, fails as known: {name}: {reason}")
    for name in tally["mended_faults"]:
        print(f"  kept fault now passes: {name}")
    for name, reason in tally["new_failures"]:
        print(f"  NEW FAILURE: {name}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "hypertail" / "__init__.py").is_file():
        print(f"error: no package source at {src}/hypertail; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), **SINGLE_THREADED)
    ops = workloads.build(args.workload, args.seed)
    starts = run_probes(args.workload, env, args.trace)
    job = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tasks": [op.task() for op in ops],
        "cost_statistic": workloads.COST_STATISTIC[args.workload],
        "launcher": str(HERE / "cli_traced.py"),
    }
    out = run_worker(job, env)
    tally = account(ops, out, checks.load_schema(src))
    report(args.workload, args.seed, out, tally)

    if args.trace:
        metrics = per_layer(args.workload, out, starts)
    else:
        metrics = end_to_end(ops, out, starts)
    result = {
        "correct": not tally["new_failures"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = result | {
        "rounds": out["rounds"],
        "wall_s": out["wall_s"],
        "failures": tally,
        "op_cost_ms": {op.name: t * 1e3 for op, t in zip(ops, out["op_costs_s"])},
    }
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace and out["trace"].get("spans"):
        (outdir / f"{stem}-spans.json").write_text(json.dumps(out["trace"]["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
