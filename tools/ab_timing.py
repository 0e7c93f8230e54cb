"""Time two checkouts of hypertail call by call, in alternating rounds.

    python3 tools/ab_timing.py PARENT_DIR [--aa]

It compares the checkout that holds it (the change) with PARENT_DIR,
the root of another (for example an unpacked `git archive` of the
parent commit).  The cases are every `exact-grid` and `closed-form`
operation of this checkout's `bench/workloads.py` at seed 1, which the
tool only reads, and the small calls of ROADMAP's `_priced`-overhead
finding.  Each round times every case once under each checkout, each
in a fresh Python process with that checkout's `src` on PYTHONPATH, and
the checkout that goes first alternates from round to round.  A case's
time in a round is the best of 3 batches of about 20 ms, per call.

For each case it prints both checkouts' medians over the rounds, their
ratio (change / parent) and the number of rounds in which the change
was faster; the `round` rows are the sums over each workload's cases,
one in-process round of its operations.  `--aa` times PARENT_DIR
against itself, which shows how often a case "wins" by noise alone.
On two cores (Python 3.11) its 9 rounds take about a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
BATCH_S = 0.02
ROUNDS = 9

#: the `_priced`-overhead finding's small calls: (name, call, args, kwargs)
SMALL = (
    ("small/pmf-N30", "pmf", ((30, 12), 15, 6), {}),
    ("small/two-sided-N30", "two_sided_exact", ((30, 12), 15, 2.5), {}),
    ("small/log-pmf-N1e8", "pmf", ((10**8, 3 * 10**7), 10**5, 30000), {}),
)


def _cases():
    """(workload, name, callable, args, kwargs) for every case, resolved
    against the hypertail on this process's path."""
    import hypertail

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    def resolve(value):
        if isinstance(value, workloads.Family):
            return hypertail.BoundFamily(value.value)
        return tuple(resolve(v) for v in value) if isinstance(value, tuple) else value

    for workload in ("exact-grid", "closed-form"):
        for op in workloads.build(workload, SEED):
            yield workload, op.name, getattr(hypertail, op.call), resolve(op.args), op.kwargs
    for name, call, args, kwargs in SMALL:
        yield "small", name, getattr(hypertail, call), args, kwargs


def _batch(call, args, kwargs, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        call(*args, **kwargs)
    return time.perf_counter() - start


def _child() -> None:
    """Print one timing of every case as JSON: the package's file and
    [workload, name, seconds per call] rows."""
    import hypertail

    rows = []
    for workload, name, call, args, kwargs in _cases():
        once = _batch(call, args, kwargs, 1)
        number = max(1, round(BATCH_S / max(once, 1e-7)))
        best = min(_batch(call, args, kwargs, number) for _ in range(3))
        rows.append([workload, name, best / number])
    print(json.dumps({"file": hypertail.__file__, "rows": rows}))


def _time(checkout: Path) -> list:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPERTAIL_")}
    env["PYTHONPATH"] = str(checkout / "src")
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, cwd=checkout,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    if not Path(result["file"]).resolve().is_relative_to((checkout / "src").resolve()):
        raise RuntimeError(f"{checkout} timed the hypertail at {result['file']}")
    return result["rows"]


def _report(parent: list, change: list) -> None:
    """Print the per-case table from each side's rounds of rows, which list
    the cases in the same order."""
    keys = [tuple(row[:2]) for row in parent[0]]

    def series(runs):
        cases = {key: [rows[j][2] for rows in runs] for j, key in enumerate(keys)}
        for workload in ("exact-grid", "closed-form"):
            cases[workload, "round"] = [sum(r[2] for r in rows if r[0] == workload) for rows in runs]
        return cases

    a_all, b_all = series(parent), series(change)
    print(f"{'case':<40} {'parent us':>11} {'change us':>11} {'ratio':>6}  faster")
    for key, a in a_all.items():
        b = b_all[key]
        won = sum(y < x for x, y in zip(a, b))
        ma, mb = statistics.median(a) * 1e6, statistics.median(b) * 1e6
        print(f"{key[0] + ' ' + key[1]:<40.40} {ma:>11.2f} {mb:>11.2f} {mb / ma:>6.3f}  "
              f"{won}/{len(a)}")


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        _child()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--aa", action="store_true", help="time the parent against itself")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.parent.resolve() if args.aa else ROOT}
    runs = {"parent": [], "change": []}
    start = time.perf_counter()
    for r in range(ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            runs[side].append(_time(trees[side]))
    print(f"{ROUNDS} rounds, {trees['change']} against {trees['parent']}, "
          f"{time.perf_counter() - start:.0f} s")
    _report(runs["parent"], runs["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
