"""The four workloads: fixed operation lists generated from a seed.

A round is one pass over a workload's operation list; every run times
whole rounds, so each operation, and each kept fault, is the same share
of the attempts in every run.  Every list has K = 15, 35 or 45
operations, an odd multiple of 5, so the median of the K operation
costs is one operation's cost, not a mean of two.

The seed moves populations and thresholds within narrow ranges, so an
operation's cost barely depends on it.  The operations that reproduce
the two known faults take fixed inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

POLL_N = 17_793_691
POLL_M = 1_017_800
POLL_n = 100_000
POLL_i = 5_720


@dataclass(frozen=True)
class Family:
    """A bound family by name; the worker turns it into BoundFamily."""

    value: str


@dataclass
class Op:
    name: str
    call: str  # a public name of the hypertail package, or "cli"
    args: tuple
    kwargs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)  # facts the checker needs
    fault: str | None = None  # the known fault this operation reproduces
    trials: int = 0  # simulated draws per call

    def task(self) -> tuple:
        return self.call, self.args, self.kwargs


def _sd(N: int, M: int, n: int) -> float:
    p = M / N
    return math.sqrt(n * p * (1 - p) * (N - n) / (N - 1))


def _mode(N: int, M: int, n: int) -> int:
    return (n + 1) * (M + 1) // (N + 2)


# --- exact-grid --------------------------------------------------------------


def _exact_point(rng, tag, N, M, n, kinds):
    """Operations at one (N, M, n); thresholds in standard deviations."""
    m, s = _mode(N, M, n), _sd(N, M, n)

    def at(lo, hi):
        return m + round(rng.uniform(lo, hi) * s)

    make = {
        "pmf": lambda: ("pmf", at(-0.5, 0.5)),
        "pmf-tail": lambda: ("pmf", at(-3.0, -2.0)),
        "lower-near": lambda: ("lower_tail", at(-0.3, 0.3)),
        "upper-near": lambda: ("upper_tail", at(-0.3, 0.3)),
        "lower-tail": lambda: ("lower_tail", at(-4.0, -2.0)),
        "upper-tail": lambda: ("upper_tail", at(2.0, 4.0)),
        "lower-far": lambda: ("lower_tail", at(5.0, 8.0)),
        "upper-far": lambda: ("upper_tail", at(-8.0, -5.0)),
        "two-sided": lambda: ("two_sided_exact", round(rng.uniform(1.0, 2.0) * s) + 0.5),
        "two-sided-wide": lambda: ("two_sided_exact", round(rng.uniform(2.5, 3.5) * s) + 0.5),
    }
    ops = []
    for kind in kinds:
        call, x = make[kind]()
        ops.append(Op(f"{tag}/{kind}", call, ((N, M), n, x)))
    return ops


_RATIONAL_KINDS = ("pmf", "lower-tail", "upper-tail", "two-sided")


def exact_grid(seed: int) -> list[Op]:
    """35 operations, about 0.75 s a round.  By cost they fall in
    classes: 13 rational ones under 1 ms; 14 of 4-20 ms (rational tails
    at N = 10^4, n = 300 and log ones at n = 10^4); 8 of 30-180 ms at
    n = 10^5.  The median falls on the fifth operation of the 4-20 ms
    class and the 90th percentile between the fourth and fifth of the
    n = 10^5 class.  A round is kept short so that every operation is
    timed 25-45 times in a 22 s run, and its mean time rests on that
    many repeats.  The largest sizes, n = 10^6 at N = 10^8 (0.5-1.7 s a
    call), are left out: with them a round took 3.8 s, and six repeats
    per run left the costs at the mercy of the host's load."""
    rng = random.Random(f"exact-grid/{seed}")
    ops = []
    # Rational path: tiny N up to 10^4.
    for tag, N, n in (
        ("rational/N50", 50, rng.randint(12, 20)),
        ("rational/N1e3", 1_000, 100),
        ("rational/N1e4-n100", 10_000, 100),
        ("rational/N1e4-n300", 10_000, 300),
    ):
        M = round(N * rng.uniform(0.38, 0.42))
        ops += _exact_point(rng, tag, N, M, n, _RATIONAL_KINDS)
    # Log path: N = 10^8 with n = 10^4 and 10^5, and the poll.
    N = 10**8
    M = round(N * rng.uniform(0.29, 0.31))
    ops += _exact_point(rng, "log/N1e8-n1e4", N, M, 10**4, (
        "pmf", "pmf-tail", "lower-near", "upper-near", "lower-tail", "upper-tail",
        "lower-far", "upper-far", "two-sided", "two-sided-wide",
    ))
    ops += _exact_point(rng, "log/N1e8-n1e5", N, M, 10**5, ("pmf", "lower-tail"))
    M = round(POLL_N * rng.uniform(0.056, 0.058))
    ops += _exact_point(rng, "log/poll", POLL_N, M, POLL_n, (
        "pmf", "lower-near", "upper-near", "lower-far", "two-sided",
    ))
    # Fault A: a far-side log tail that walks through the whole support
    # accumulates float error in its running log term.  Both true values
    # are 1 to double precision.
    ops.append(Op("fault-A/poll-lower-k99999", "lower_tail",
                  ((POLL_N, POLL_M), POLL_n, 99_999), fault="A"))
    ops.append(Op("fault-A/N1e8-upper-k1", "upper_tail",
                  ((10**8, 3 * 10**7), 10**4, 1), fault="A"))
    return ops


# --- closed-form -------------------------------------------------------------


def closed_form(seed: int) -> list[Op]:
    rng = random.Random(f"closed-form/{seed}")
    u = rng.uniform
    # A small population, where the exact tails are enumerated to check
    # that every bound dominates them, sampled below and above N/2.
    Ns = rng.randint(60, 120)
    Ms = round(Ns * u(0.35, 0.65))  # t < min(p, 1 - p): KL is never 0
    minor = rng.randint(10, Ns // 2)
    major = rng.randint(Ns // 2 + 1, Ns - 3)
    t1, t2, t3 = u(0.08, 0.3), u(0.08, 0.3), u(0.05, 0.2)
    small = {"M": Ms}
    # The poll, and a large population sampled above N/2.
    Mp = round(POLL_N * u(0.055, 0.059))
    tp = (rng.randint(300, 700) + 0.5) / POLL_n
    NL = rng.randint(500_000, 2_000_000)
    nL = round(NL * u(0.6, 0.9))
    iL = round(nL * u(0.2, 0.8))
    tL = u(0.0005, 0.002)
    ip = rng.randint(5_000, 6_500)
    d1, d2, d3 = u(0.01, 0.2), u(0.01, 0.2), u(0.01, 0.2)
    ic = rng.randint(0, Ns)
    # Planner targets on either side of the S1/S2 switch at c ~ sqrt(yN).
    NP = rng.randint(10**5, 10**7)
    dP = u(0.01, 0.1)
    scale = math.sqrt(-0.5 * math.log(dP / 2) * NP)
    kl, fam = "kl_upper_tail_bound", "concentration_bound"
    F = Family
    ops = [
        Op("kl/small-minor", kl, ((Ns, Ms), minor, t1), expect=small),
        Op("kl/small-major", kl, ((Ns, Ms), major, t2), expect=small),
        Op("kl/poll", kl, ((POLL_N, Mp), POLL_n, tp)),
        Op("b1/small", "b1_tail", (minor, t1), expect=small | {"N": Ns}),
        Op("b1/poll", "b1_tail", (POLL_n, tp)),
        Op("b2/small-minor", "b2_tail", (Ns, minor, t1), expect=small),
        Op("b2/small-major", "b2_tail", (Ns, major, t2), expect=small),
        Op("b2/poll", "b2_tail", (POLL_N, POLL_n, tp)),
        Op("b3/small-minor", "b3_tail", (Ns, minor, t1), expect=small),
        Op("b3/small-major", "b3_tail", (Ns, major, t2), expect=small),
        Op("b4/small-minor", "b4_tail", (Ns, minor, t1), expect=small),
        Op("b4/small-major", "b4_tail", (Ns, major, t2), expect=small),
        Op("b4/large-major", "b4_tail", (NL, nL, tL)),
        Op("best/small-minor", "best_bound", (Ns, minor, t1), expect=small),
        Op("best/small-major", "best_bound", (Ns, major, t2), expect=small),
        Op("best/small-census", "best_bound", (Ns, Ns, t3), expect=small),
        Op("two-sided/kl-small-minor", fam, (Ns, minor, t1, F("kl"), Ms), expect=small),
        Op("two-sided/kl-small-major", fam, (Ns, major, t2, F("kl"), Ms), expect=small),
        Op("two-sided/kl-poll", fam, (POLL_N, POLL_n, tp, F("kl"), Mp)),
        Op("two-sided/b1-small", fam, (Ns, minor, t1, F("b1")), expect=small),
        Op("two-sided/b2-small", fam, (Ns, minor, t1, F("b2")), expect=small),
        Op("two-sided/b3-small-major", fam, (Ns, major, t2, F("b3")), expect=small),
        Op("two-sided/b4-small-major", fam, (Ns, major, t2, F("b4")), expect=small),
        Op("two-sided/auto-small-minor", fam, (Ns, minor, t1, F("auto")), expect=small),
        Op("two-sided/auto-small-major", fam, (Ns, major, t2, F("auto")), expect=small),
        Op("two-sided/auto-small-census", fam, (Ns, Ns, t3, F("auto")), expect=small),
        Op("two-sided/auto-poll-example", fam, (POLL_N, POLL_n, 62_278 / POLL_N, F("auto"))),
        Op("two-sided/auto-large-major", fam, (NL, nL, tL, F("auto"))),
        Op("ci/C1-poll-example", "halfwidth_for_confidence", (POLL_N, POLL_n, POLL_i, 0.05),
           expect={"halfwidth_2dp": 76_203.42}),
        Op("ci/C1-poll", "halfwidth_for_confidence", (POLL_N, POLL_n, ip, d1)),
        Op("ci/C2-large", "halfwidth_for_confidence", (NL, nL, iL, d2)),
        Op("ci/census", "halfwidth_for_confidence", (Ns, Ns, ic, d3)),
        Op("ci/legacy-poll-example", "b1_halfwidth_for_confidence",
           (POLL_N, POLL_n, POLL_i, 0.05)),
        Op("ci/legacy-large", "b1_halfwidth_for_confidence", (NL, nL, iL, d2)),
        Op("confidence/D1-poll-example", "confidence_for_halfwidth",
           (POLL_N, POLL_n, POLL_i, 62_278.0)),
        Op("confidence/D1-poll-inverse", "confidence_for_halfwidth",
           (POLL_N, POLL_n, ip, _halfwidth(POLL_N, POLL_n, d1)), expect={"inverts": d1}),
        Op("confidence/D2-large-inverse", "confidence_for_halfwidth",
           (NL, nL, iL, _halfwidth(NL, nL, d2)), expect={"inverts": d2}),
        Op("confidence/census", "confidence_for_halfwidth", (Ns, Ns, ic, u(0.5, 5.0))),
        Op("confidence/legacy-poll", "b1_confidence_for_halfwidth",
           (POLL_N, POLL_n, ip, u(40_000.0, 90_000.0))),
        Op("confidence/D1-small-vacuous", "confidence_for_halfwidth",
           (Ns, minor, rng.randint(0, minor), u(0.5, 2.0))),
        Op("plan/poll-example", "required_sample_size", (POLL_N, 0.05, POLL_N / 400),
           expect={"n_required": 290_296}),
        Op("plan/S1", "required_sample_size", (NP, dP, scale * u(2.0, 20.0))),
        Op("plan/S2", "required_sample_size", (NP, dP, scale * u(0.1, 0.8))),
        Op("plan/lower-estimate-poll", "sample_size_lower_estimate",
           (POLL_N, d1, u(20_000.0, 100_000.0))),
        Op("plan/lower-estimate-large", "sample_size_lower_estimate",
           (NP, dP, scale * u(0.1, 20.0))),
    ]
    return ops


def _halfwidth(N: int, n: int, delta: float) -> float:
    """C1/C2 in floats, to build the input of the inverse D query."""
    if 2 * n <= N:
        factor = (N - n + 1) / (2 * n * N)
    else:
        factor = ((N - n) * (n + 1)) / (2 * n * n * N)
    return N * math.sqrt(-factor * (math.log(delta) - math.log(2.0)))


# --- simulate ----------------------------------------------------------------


def _off_boundary(N: int, M: int, n: int, c) -> bool:
    """No outcome i lies exactly at |i - nM/N| = c, so a float and a
    decimal reading of the deviation count the same outcomes."""
    c = Fraction(c)
    return all(abs(i * N - n * M) != c * N for i in range(max(0, n - N + M), min(n, M) + 1))


def _deviation(rng, N, M, n, lo, hi):
    """A deviation off every boundary.  The boundaries sit at most at two
    fractional parts (those of nM/N and of -nM/N), so one of the three
    tried here is always free."""
    k = rng.randint(lo, hi)
    for frac in rng.sample((0.25, 0.5, 0.75), 3):
        if _off_boundary(N, M, n, k + frac):
            return k + frac
    raise AssertionError("unreachable: three fractional parts, two boundaries")


def simulate(seed: int) -> list[Op]:
    rng = random.Random(f"simulate/{seed}")
    ops = []
    for j in range(5):
        N = rng.randint(10, 30)
        M = rng.randint(2, N - 2)
        n = rng.randint(3, min(10, N - 1))
        c = _deviation(rng, N, M, n, 0, 2)
        ops.append(Op(f"tiny-{j}", "coverage_experiment",
                      (N, M, n, [0.05, 0.2], 2_000, rng.randrange(2**32)),
                      {"deviations": [c / n]}, expect={"deviation_counts": [c]},
                      trials=2_000))
    for j in range(10):
        M = round(POLL_N * rng.uniform(0.055, 0.059))
        c = _deviation(rng, POLL_N, M, 1_000, 5, 20)
        ops.append(Op(f"poll-n1000-{j}", "coverage_experiment",
                      (POLL_N, M, 1_000, [0.05, 0.1], 100, rng.randrange(2**32)),
                      {"deviations": [c / 1_000]}, expect={"deviation_counts": [c]},
                      trials=100))
    return ops


# --- cli-oneshot -------------------------------------------------------------


def _cli(name, *argv, fault=None):
    argv = [str(a) for a in argv] + ["--format", "json", "--digits", "12"]
    return Op(name, "cli", (argv,), fault=fault)


def cli_oneshot(seed: int) -> list[Op]:
    rng = random.Random(f"cli-oneshot/{seed}")
    N = rng.randint(20, 60)
    M = rng.randint(3, N - 3)
    n = rng.randint(5, min(15, N - 5))
    m = _mode(N, M, n)
    c = _deviation(rng, N, M, n, 0, 2)
    major = rng.randint(N // 2 + 1, N - 1)
    ip = rng.randint(5_000, 6_500)
    pop = ("--population", N, "--positives", M, "--samples", n)
    sim_seed = rng.randrange(2**32)
    return [
        _cli("pmf/rational", "pmf", *pop, "--observed", m),
        _cli("pmf/log", "pmf", *pop, "--observed", max(0, m - 1), "--mode", "log"),
        _cli("tail/lower", "tail", *pop, "--threshold", max(0, m - 1), "--side", "lower"),
        _cli("tail/upper", "tail", *pop, "--threshold", m + 1, "--side", "upper"),
        _cli("deviation/seeded", "deviation", *pop, "--deviation", c),
        _cli("bound/auto-two-sided", "bound", "--population", N, "--samples", n,
             "--deviation", rng.randint(1, 3), "--two-sided"),
        _cli("bound/kl", "bound", *pop, "--deviation", rng.randint(1, 3), "--family", "kl"),
        _cli("bound/b3-major", "bound", "--population", N, "--samples", major,
             "--deviation", rng.randint(2, 6), "--family", "b3"),
        _cli("ci/compare", "ci", "--population", POLL_N, "--samples", POLL_n,
             "--observed", ip, "--delta", 0.05, "--compare"),
        _cli("confidence/halfwidth", "confidence", "--population", POLL_N,
             "--samples", POLL_n, "--observed", ip, "--halfwidth", rng.randint(40_000, 90_000),
             "--compare"),
        _cli("confidence/percent", "confidence", "--population", N, "--samples", major,
             "--observed", rng.randint(0, major), "--halfwidth-percent", rng.randint(5, 40)),
        _cli("samplesize/poll-example", "samplesize", "--population", POLL_N,
             "--delta", 0.05, "--halfwidth-percent", 0.25),
        _cli("simulate/seeded", "simulate", *pop, "--trials", 2_000, "--seed", sim_seed,
             "--delta", 0.05, "--deviation", c),
        # Fault B: a decimal deviation of 0.1 is read as the float just
        # above 1/10, so the outcome i = 0 on the boundary is dropped.
        _cli("fault-B/deviation-0.1", "deviation", "--population", 50, "--positives", 1,
             "--samples", 5, "--deviation", "0.1", fault="B"),
        _cli("fault-B/simulate-0.1", "simulate", "--population", 50, "--positives", 1,
             "--samples", 5, "--trials", 2_000, "--seed", 1, "--deviation", "0.1",
             fault="B"),
    ]


# The statistic of an operation's timings over a run that is taken as
# its cost: the mean, or a quantile.  This machine shares its cores with
# other tenants: while the other hyperthread of a core is busy, Python
# code runs up to 1.7 times slower, and the busy share of the time
# changes from minute to minute.
# - A closed-form call lasts microseconds and runs wholly in one state,
#   so its median follows the busy share; its 2nd percentile falls in
#   the 30-100 ms stretches with the core to itself, which every run has.
# - An exact-grid call of 5-20 ms also runs mostly in one state.  Its
#   median flips between the two speeds when the busy share is near one
#   half, and its low quantiles flip when a run is busy throughout.  Its
#   mean moves in proportion to the busy share and never flips.
# - A simulate call (about 60 ms) and a CLI process (about 220 ms) span
#   both states in every repeat, and their medians are steady.
COST_STATISTIC = {"exact-grid": "mean", "closed-form": 0.02, "simulate": 0.5, "cli-oneshot": 0.5}

BUILDERS = {
    "exact-grid": exact_grid,
    "closed-form": closed_form,
    "simulate": simulate,
    "cli-oneshot": cli_oneshot,
}


def build(workload: str, seed: int) -> list[Op]:
    ops = BUILDERS[workload](seed)
    names = [op.name for op in ops]
    if len(set(names)) != len(names) or len(ops) % 10 != 5:
        raise ValueError(f"{workload}: operation names must be unique and K = 5 mod 10")
    return ops
