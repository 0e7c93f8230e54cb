"""Compare what two checkouts of hypertail print over one fixed sweep.

    python3 tools/compare_outputs.py PARENT_DIR

It compares the checkout that holds it with PARENT_DIR, the root of
another (for example an unpacked `git archive` of the parent commit).
The sweep runs twice, under each checkout's `src`, each in its own
Python process, and every record the two print is compared line by
line.  It covers:

- `pmf`, `lower_tail` and `upper_tail` in "auto" and "log" at every
  N <= 30, M, n and k in -1..n + 1;
- `two_sided_exact` in "auto" and "log" at every N <= 40, M and n, for
  six deviations c;
- 3,000 seeded log-path calls of all four at N from 10^5 to 10^8;
- 1,000 seeded log-path calls of all four at N from 10^150 to 10^1000,
  with i or k at 0, n, M and the mean among the draws and M = 10 (a tiny
  mean) or N - 10 among the populations, at n up to 10^309 (past the
  largest float) for a pmf or where the support has at most 11 outcomes,
  and up to 10^4 elsewhere;
- 5,000 seeded "rational" tails and two-sided calls at N up to 10^4 and
  n up to 2 * 10^3, with thresholds and deviations both near the mean
  (the range inside is shorter than the walks outside it) and near the
  ends of the support (the walks are shorter);
- two calls that cost about a second on the rational path, at the edge of
  an earlier `RATIONAL_BUDGET` (3 * 10^9), far beyond today's;
- all four in "auto" at N = RATIONAL_LIMIT, RATIONAL_LIMIT + 1, 10^8,
  10^30, 10^200 and 10^400, for M in {0, 10, N - 10} and n in
  {5, 5 * 10^5}: the tails at k in {-1, 0, 1, 10, 11, n, n + 1}, the pmf
  at those k in 0..n and `two_sided_exact` at c in {0.5, 3.5, 10^9};
- 600 seeded calls of all four in "auto" at N from 10 to 10^8, with
  thresholds within 5 standard deviations of the mean;
- 4,000 seeded rounds of the closed forms at N from 1 to 10^400 (about
  2^53, the poll and N from 10^154 to 10^308 among them): every
  `BoundFamily` through `tail_bound` and `concentration_bound`, with and
  without M, and `kl_upper_tail_bound`; the four interval functions with
  a float, int and Fraction delta and half-width, n = N (a census) and n
  within 10 of N included, and an integer half-width up to 1,000 at any
  N; and both planners, each record the result's repr or the error raised;
- every `cli_oneshot(seed)` argv of `bench/workloads.py` for seeds 1-10
  and the `EXTRA_ARGV` below, in json, text and csv, at --digits 12 and
  at --digits 1, where a rounded integer or exact string would show
  (stdout, stderr and exit code);
- `coverage_experiment` over `simulate(seed)`'s operations, seeds 1-10;
- `coverage_experiment` and a digest of `draw_without_replacement` (the
  sha256 of the counts and their sum) at 2 * BLOCK + 7 trials, three
  blocks, for seeds 1-3 and three populations up to n = 10^7.

Each record is the call, the value's type, the value and its log, or the
error raised.  The workload lists come from this checkout's `bench/`,
which the sweep only reads.  Prints the number of records per section,
the first differences (the head and tail of a long record), and exits 1
if there are any.  For each section of probabilities that differ it
also prints how many differ, how many changed type (Fraction or float),
how many went from an error to a value or back, and the worst relative
difference |expm1(log_new - log_old)|, read from the records' logs (a
Fraction's from its value).  A probability that underflows to 0.0 is
measured by |log_new - log_old| / max(1, |log|) instead: two ulps of a log
of -186,413 would read as a relative difference of 5.8e-11.  For
`closed-form` it prints how many records differ only in `delta=`, the
worst relative move of that delta, how many intervals' `vacuous=` flag
flipped, and per call how many went from an error to a value or back.
The two processes
run side by side; on two cores (Python 3.11) the sweep takes 35-50 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
FORMATS = ("json", "text", "csv")
DIGITS = ("12", "1")
SHOWN = 20
WIDTH = 400  # characters shown of a differing record; a report at n = 10^7 has 256 KB

#: argvs beside the workload's: a `bound` with an M outside 0..N under a
#: family other than KL, a `deviation` and a `bound` whose deviation
#: underflows to 0.0 as a float, a `samplesize` whose half-width lies
#: just below an N above 2^53, a `tail` that sums nothing at an N
#: above RATIONAL_LIMIT, and a cheap `tail` at N = 10^8.
EXTRA_ARGV = (
    ["bound", "--population", "10", "--positives", "11", "--samples", "5", "--deviation", "1"],
    ["bound", "--population", "10", "--positives", "-3", "--samples", "5", "--deviation", "1",
     "--family", "b2"],
    ["deviation", "--population", "10", "--positives", "7", "--samples", "5",
     "--deviation", "1e-400"],
    ["bound", "--population", "10", "--samples", "5", "--deviation", "1e-400"],
    ["samplesize", "--population", "100000000000000000", "--delta", "0.05",
     "--halfwidth", "99999999999999999"],
    ["tail", "--population", "1000001", "--positives", "10", "--samples", "5",
     "--threshold", "6", "--side", "upper"],
    ["tail", "--population", "100000000", "--positives", "30000000", "--samples", "100",
     "--threshold", "40", "--side", "upper"],
)

#: the sections whose every record is a `_prob` value.
PROB_SECTIONS = ("exact-small", "two-sided-small", "log-path", "log-path-large", "rational",
                 "budget-edge", "auto-large", "auto-mid")

#: populations (N, M, n) for the runs of more than one block.
MULTI_BLOCK_POPULATIONS = ((60, 24, 30), (1000, 400, 500), (4 * 10**7, 2 * 10**7, 10**7))


def _prob(call, *args, **kwargs) -> str:
    try:
        r = call(*args, **kwargs)
    except Exception as exc:  # the error is part of the record
        return f"{type(exc).__name__}: {exc}"
    v = r.value
    # Hex has no digit limit, unlike str() of the budget edge's integers.
    value = f"Fraction {v.numerator:x}/{v.denominator:x}" if isinstance(v, Fraction) else repr(v)
    return f"{value} {r.log_value!r}"


def _exact_small(h):
    for N in range(1, 31):
        for M, n in itertools.product(range(N + 1), repeat=2):
            for k, mode in itertools.product(range(-1, n + 2), ("auto", "log")):
                for name in ("pmf", "lower_tail", "upper_tail"):
                    yield f"{name}({N}, {M}), {n}, {k}, {mode}", _prob(
                        getattr(h, name), (N, M), n, k, mode=mode)


def _two_sided_small(h):
    for N in range(1, 41):
        for M, n in itertools.product(range(N + 1), repeat=2):
            frac = Fraction(n * M, N) % 1 or Fraction(1, 7)
            for c in (0.5, 1, Fraction(1, 3), 2.75, Fraction(n, 3) or 1, frac):
                for mode in ("auto", "log"):
                    yield f"({N}, {M}), {n}, {c!r}, {mode}", _prob(
                        h.two_sided_exact, (N, M), n, c, mode=mode)


def _log_path(h):
    rng = random.Random("compare-outputs/log-path")
    for _ in range(3_000):
        N = rng.choice((10**5, 10**6, 10**7, 17_793_691, 10**8))
        M, n = rng.randint(0, N), rng.randint(0, min(N, 10**5))
        name = rng.choice(("pmf", "lower_tail", "upper_tail", "two_sided_exact"))
        if name == "two_sided_exact":
            x = rng.choice((rng.uniform(0.1, 500.0), Fraction(rng.randint(1, 3_000), 7)))
        else:
            x = rng.randint(0, n)
        yield f"{name}({N}, {M}), {n}, {x!r}", _prob(
            getattr(h, name), (N, M), n, x, mode="log")


def _log_path_large(h):
    rng = random.Random("compare-outputs/log-path-large")
    for _ in range(1_000):
        N = rng.choice((10**150, 10**160, 10**200, 10**400, 10**1000))
        M = rng.choice((10, N - 10, rng.randint(0, N), N // 3))
        name = rng.choice(("pmf", "lower_tail", "upper_tail", "two_sided_exact"))
        n = rng.randint(1, 10 ** rng.randint(1, 4))
        if (name == "pmf" or M in (10, N - 10)) and rng.random() < 0.5:
            # One term, or at most 11 outcomes: every walk is short.
            n = rng.randint(1, min(N, 10 ** rng.randint(5, 309)))
        if name == "two_sided_exact":
            sd = math.sqrt(n * M * (N - M) * (N - n) / (N * N * (N - 1)))
            x = rng.choice((rng.uniform(0.1, 4) * sd or 0.5, Fraction(rng.randint(1, 3_000), 7)))
        else:
            x = rng.choice((0, n, min(M, n), n * M // N, rng.randint(0, n)))
        yield f"{name}({N}, {M}), {n}, {x!r}", _prob(
            getattr(h, name), (N, M), n, x, mode="log")


def _rational(h):
    rng = random.Random("compare-outputs/rational")
    for _ in range(5_000):
        N = int(10 ** rng.uniform(2, 4))
        M, n = rng.randint(0, N), rng.randint(0, min(N, 2_000))
        mean, sd = n * M / N, math.sqrt(n * M * (N - M) * (N - n) / (N * N * max(N - 1, 1)))
        far = max(mean, n - mean)  # the distance to the farther end of the support
        name = rng.choice(("lower_tail", "upper_tail", "two_sided_exact"))
        if name == "two_sided_exact":
            x = rng.choice((rng.uniform(0.1, 4) * sd, rng.uniform(0.5, 1.0) * far)) or 0.5
        else:
            x = round(mean + rng.choice((-1, 1)) * rng.choice((rng.uniform(0, 4) * sd,
                                                               rng.uniform(0.5, 1.0) * far)))
        yield f"{name}({N}, {M}), {n}, {x!r}", _prob(
            getattr(h, name), (N, M), n, x, mode="rational")


def _budget_edge(h):
    yield "pmf", _prob(h.pmf, (2 * 10**5, 10**5), 10**5, 5 * 10**4)
    yield "lower_tail", _prob(h.lower_tail, (10**5, 5 * 10**4), 5 * 10**4, 2 * 10**4)


def _auto_large(h):
    """"auto" from RATIONAL_LIMIT to N = 10^400, including the calls that sum
    nothing.  Every walk has at most 11 terms (M or N - M is at most 10) or
    none, so each call is fast on either path."""
    for N in (h.RATIONAL_LIMIT, h.RATIONAL_LIMIT + 1, 10**8, 10**30, 10**200, 10**400):
        for M, n in itertools.product((0, 10, N - 10), (5, 5 * 10**5)):
            for k, name in itertools.product((-1, 0, 1, 10, 11, n, n + 1),
                                             ("pmf", "lower_tail", "upper_tail")):
                if name != "pmf" or 0 <= k <= n:
                    yield f"{name}({N}, {M}), {n}, {k}", _prob(getattr(h, name), (N, M), n, k)
            for c in (0.5, 3.5, 10**9):
                yield f"two_sided_exact({N}, {M}), {n}, {c!r}", _prob(
                    h.two_sided_exact, (N, M), n, c)


def _auto_mid(h):
    """"auto" at N up to 10^8 and n up to 10^5, with thresholds near the
    mean, where the price decides the path."""
    rng = random.Random("compare-outputs/auto-mid")
    for _ in range(600):
        N = int(10 ** rng.uniform(1, 8))
        M, n = rng.randint(0, N), rng.randint(0, min(N, 10 ** rng.randint(1, 5)))
        mean, sd = n * M / N, math.sqrt(n * M * (N - M) * (N - n) / (N * N * (N - 1)))
        name = rng.choice(("pmf", "lower_tail", "upper_tail", "two_sided_exact"))
        if name == "two_sided_exact":
            x = rng.uniform(0.5, 4) * sd
        else:
            x = min(max(round(mean + rng.uniform(-5, 5) * sd), 0), n)
        yield f"{name}({N}, {M}), {n}, {x!r}", _prob(getattr(h, name), (N, M), n, x)


def _record(call, *args) -> str:
    """The repr of call(*args), or the error it raised."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the error is part of the record
        return f"{type(exc).__name__}: {exc}"


def _closed_form(h):
    """Bounds, intervals and plans at seeded arguments, some of them out of
    their domain, so that both the values and the error texts show."""
    rng = random.Random("compare-outputs/closed-form")
    for _ in range(4_000):
        N = rng.choice((rng.randint(1, 100), rng.randint(101, 10**6), 17_793_691,
                        rng.randint(2**53 - 20, 2**53 + 20), rng.randint(10**12, 10**15),
                        int(10 ** rng.uniform(154, 308)), 10**160, 10**200, 10**400))
        n = rng.choice((1, rng.randint(1, N), rng.randint(1, N), N // 2 or 1, N // 2 + 1, N, N + 1,
                        max(N - rng.randint(1, 10), 1)))
        M = rng.choice((None, 0, rng.randint(0, N), rng.randint(0, N), N, N + 1))
        t = rng.choice((rng.uniform(1e-4, 0.6), rng.uniform(1e-4, 0.6), 2e-3, 1, -0.5,
                        Fraction(rng.randint(1, 60), rng.randint(1, 99))))
        for family, two_sided in itertools.product(h.BoundFamily, (False, True)):
            call = h.concentration_bound if two_sided else h.tail_bound
            for m in (None, M):
                yield f"{call.__name__}({N}, {n}, {t!r}, {family}, {m})", _record(
                    call, N, n, t, family, m)
        yield f"kl_upper_tail_bound(({N}, {M}), {n}, {t!r})", _record(
            h.kl_upper_tail_bound, (N, M), n, t)
        i = rng.randint(0, max(0, min(n, N)))
        deltas = (rng.uniform(1e-9, 0.999), 1, Fraction(1, rng.randint(2, 10**6)))
        widths = (rng.uniform(1e-3, 1.5) * min(N, 2**1000), rng.randint(1, 2 * N),
                  Fraction(rng.randint(1, 3 * N), rng.randint(1, 97)), rng.randint(1, 1000))
        for name, x in itertools.chain(
                itertools.product(("halfwidth_for_confidence", "b1_halfwidth_for_confidence"),
                                  deltas),
                itertools.product(("confidence_for_halfwidth", "b1_confidence_for_halfwidth"),
                                  widths)):
            yield f"{name}({N}, {n}, {i}, {x!r})", _record(getattr(h, name), N, n, i, x)
        for name, c in itertools.product(("required_sample_size", "sample_size_lower_estimate"),
                                         widths):
            yield f"{name}({N}, {deltas[0]!r}, {c!r})", _record(getattr(h, name), N, deltas[0], c)


def _cli(h, workloads):
    import hypertail.cli

    argvs = [op.args[0][:-4] for seed in SEEDS for op in workloads.cli_oneshot(seed)]
    for argv, fmt, digits in itertools.product(argvs + list(EXTRA_ARGV), FORMATS, DIGITS):
        argv = argv + ["--format", fmt, "--digits", digits]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hypertail.cli.run(argv)
        yield " ".join(argv), f"{code} {out.getvalue()!r} {err.getvalue()!r}"


def _simulate(h, workloads):
    for seed in SEEDS:
        for op in workloads.simulate(seed):
            yield f"{seed} {op.name}", repr(h.coverage_experiment(*op.args, **op.kwargs))


def _simulate_blocks(h):
    """Runs of three blocks, the last one short, so that the seeding and
    merging of blocks after the first shows."""
    from hypertail.montecarlo import BLOCK

    trials = 2 * BLOCK + 7
    for seed, (N, M, n) in itertools.product((1, 2, 3), MULTI_BLOCK_POPULATIONS):
        key = f"{seed} ({N}, {M}, {n}) {trials}"
        yield f"coverage {key}", repr(h.coverage_experiment(
            N, M, n, (0.05, Fraction(1, 5)), trials, seed, (Fraction(1, 10**4), 0.01, 0.1)))
        counts = h.draw_without_replacement(h.SimulationConfig(N, M, n, trials, seed))
        yield f"draw {key}", f"{hashlib.sha256(counts.tobytes()).hexdigest()} {counts.sum()}"


SECTIONS = {
    "exact-small": _exact_small,
    "two-sided-small": _two_sided_small,
    "log-path": _log_path,
    "log-path-large": _log_path_large,
    "rational": _rational,
    "budget-edge": _budget_edge,
    "auto-large": _auto_large,
    "auto-mid": _auto_mid,
    "closed-form": _closed_form,
    "cli": _cli,
    "simulate": _simulate,
    "simulate-blocks": _simulate_blocks,
}


def _emit(bench: str) -> None:
    """Print every record of the sweep, one a line, with the package on
    the path of this process."""
    import hypertail

    sys.path.insert(0, bench)
    import workloads

    for section, records in SECTIONS.items():
        args = (hypertail, workloads) if section in ("cli", "simulate") else (hypertail,)
        for key, value in records(*args):
            print(f"{section} | {key} | {value}")


def _start(checkout: Path) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPERTAIL_")}
    env["PYTHONPATH"] = str(checkout / "src")
    command = [sys.executable, __file__, "--emit", str(ROOT / "bench")]
    return subprocess.Popen(command, env=env, cwd=checkout, stdout=subprocess.PIPE, text=True)


def _shown(record: str | None) -> str:
    """A differing record for the report: its head and tail if it is long."""
    record = (record or "nothing").rstrip("\n")
    if len(record) <= WIDTH:
        return record
    return f"{record[:WIDTH // 2]} ... {record[-WIDTH // 2:]}"


def _read_prob(record: str | None) -> tuple[bool, float] | None:
    """A `_prob` record's (value is a Fraction, log), or None for an error.
    A Fraction's log is taken from its value: the one it records is
    log(numerator) - log(denominator) once the value underflows, which
    loses about 1e-12 at P = e^-2018."""
    parts = (record or "").rstrip("\n").split(" | ", 2)[-1].split(" ")
    try:
        if parts[0] != "Fraction":
            float(parts[0])
            return False, float(parts[-1])
        p, q = (int(x, 16) for x in parts[1].split("/"))
    except ValueError:
        return None
    if not p:
        return True, -math.inf
    e = p.bit_length() - q.bit_length()
    return True, math.log((p << -e) / q if e < 0 else p / (q << e)) + e * math.log(2)


def _moved(pairs: list) -> str:
    """How far a section's differing probabilities moved, from their logs:
    relative in the value, or in the log where the value underflows to 0.0
    (module docstring); and how many went from an error to a value or back."""
    changed, worst, flips = 0, {"value": None, "log": None}, [0, 0]
    for old, new in pairs:
        if not (old and new):
            flips[bool(old)] += bool(old) != bool(new)
            continue
        changed += old[0] != new[0]
        lo, hi = sorted((old[1], new[1]))
        if -math.inf < lo and math.exp(lo) == 0.0:
            kind, gap = "log", (hi - lo) / max(1.0, -lo)
        else:
            kind, gap = "value", 0.0 if lo == hi else abs(math.expm1(new[1] - old[1]))
        worst[kind] = gap if worst[kind] is None else max(worst[kind], gap)
    worst = {kind: "none" if gap is None else f"{gap:.2g}" for kind, gap in worst.items()}
    return (f"{len(pairs)} differ, {changed} changed type, error -> value {flips[0]}, "
            f"value -> error {flips[1]}, worst relative difference {worst['value']}, "
            f"in the log below the doubles {worst['log']}")


_DELTA = re.compile(r"delta=([^,)]+)")
_ERROR = re.compile(r"\w+: ")
_VACUOUS = re.compile(r"vacuous=(\w+)")


def _call_and_value(record: str | None) -> tuple[str, str]:
    """A record's call name and value; empty for a missing record."""
    _, key, value = ((record or "").rstrip("\n").split(" | ", 2) + ["", ""])[:3]
    return key.split("(", 1)[0], value


def _closed_moved(pairs: list) -> str:
    """How a `closed-form` section's differing records moved: how many differ
    only in `delta=` and by how much relatively, how many values' `vacuous=`
    flag flipped, and per call how many went from an error to a value or back."""
    only_delta, worst, flips, vacuous = 0, 0.0, {}, 0
    for old, new in pairs:
        call, old = _call_and_value(old)
        new = _call_and_value(new)[1]
        flags = _VACUOUS.findall(old), _VACUOUS.findall(new)
        vacuous += all(flags) and flags[0] != flags[1]
        if _DELTA.search(old) and _DELTA.sub("", old) == _DELTA.sub("", new):
            only_delta += 1
            a, b = (float(_DELTA.search(value).group(1)) for value in (old, new))
            worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
        elif bool(_ERROR.match(old)) != bool(_ERROR.match(new)):
            flip = f"{call} {'error -> value' if _ERROR.match(old) else 'value -> error'}"
            flips[flip] = flips.get(flip, 0) + 1
    shown = ", ".join(f"{flip} {count}" for flip, count in sorted(flips.items())) or "none"
    return (f"{len(pairs)} differ, {only_delta} only in delta= (worst relative move "
            f"{worst:.2g}), {vacuous} with vacuous= flipped; {shown}")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        _emit(argv[1])
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "hypertail").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = _start(Path(argv[0]).resolve()), _start(ROOT)
    counts, differences, moved = {}, 0, {}
    for old, new in itertools.zip_longest(parent.stdout, change.stdout):
        section = (new or old).split(" | ", 1)[0]
        counts[section] = counts.get(section, 0) + 1
        if old != new:
            differences += 1
            if differences <= SHOWN:
                print(f"- {_shown(old)}\n+ {_shown(new)}")
            if section in PROB_SECTIONS:
                moved.setdefault(section, []).append((_read_prob(old), _read_prob(new)))
            elif section == "closed-form":
                moved.setdefault(section, []).append((old, new))
    if parent.wait() or change.wait():
        print("error: a sweep process failed", file=sys.stderr)
        return 2
    for section, count in counts.items():
        print(f"{section}: {count} records")
    for section, pairs in moved.items():
        if section == "closed-form":
            print(f"{section} records: {_closed_moved(pairs)}")
        else:
            print(f"{section} probabilities: {_moved(pairs)}")
    print(f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
