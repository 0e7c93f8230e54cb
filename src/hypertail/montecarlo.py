"""Seeded simulation harness for validating tails, bounds, and coverage.

Each trial draws n individuals without replacement from a population of
N with M positives and records the positive count i.  Block b of BLOCK
trials is one call to numpy's hypergeometric sampler on child b of
SeedSequence(seed), built as SeedSequence(seed, spawn_key=(b,)), so it
is a pure function of (seed, b): blocks can run in any order with the
same outcomes, a run of T trials is a prefix of every longer run, and
every report is reproducible from (config, seed) alone.  The tally
counts each block as it is drawn, over the span of outcomes it drew, so
its memory grows with neither the trial count nor n.

numpy is imported by the functions that draw, not with the module, so
`import hypertail` and every command but `simulate` run without it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

from ._validation import check_probability, check_positive, check_range
from .errors import DomainError
from .exact import Population, _outcome_range
from .inference import _halfwidth

BLOCK = 2**16  # trials per spawned child seed

#: Most trials one run may draw: 10^8 poll-scale trials at n = 1,000
#: take about 17 s on one core of a 2-CPU x86 host.
MAX_TRIALS = 10**8


@dataclass(frozen=True)
class SimulationConfig:
    """Population, sample size, trial count, and master seed.  M and
    N - M must each be below 10^9, the limit of numpy's sampler, and
    trials at most MAX_TRIALS."""

    N: int
    M: int
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        pop = Population(self.N, self.M)
        M = pop.require_positives()
        if max(M, pop.N - M) >= 10**9:
            raise DomainError("M and N - M must each be below 10^9, the limit of numpy's "
                              f"hypergeometric sampler, got M = {M}, N - M = {pop.N - M}")
        object.__setattr__(self, "N", pop.N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "n", check_range(self.n, "n", 0, pop.N))
        object.__setattr__(self, "trials", check_range(self.trials, "trials", 1, MAX_TRIALS))
        object.__setattr__(self, "seed", check_range(self.seed, "seed", 0, 2**64 - 1))


@dataclass(frozen=True)
class SimulationReport:
    """Empirical frequencies from one batch of trials.

    empirical_pmf maps each observed i to its frequency (summing to 1);
    empirical_coverage maps each requested delta to the fraction of
    trials whose interval contained M; tail_exceedance maps each
    requested deviation fraction t, keyed by t as read (an int or Fraction
    as given, any other real as its float), to the fraction of trials
    with |i - nM/N| >= t n.
    """

    empirical_pmf: Mapping[int, float]
    empirical_coverage: Mapping[float, float]
    tail_exceedance: Mapping[float, float]


def _blocks(config: SimulationConfig):
    """Block b's positive counts, from child b: SeedSequence(seed, spawn_key=(b,))."""
    import numpy as np

    N, M, n, trials = config.N, config.M, config.n, config.trials
    for b, start in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(b,)))
        yield rng.hypergeometric(M, N - M, n, size=min(BLOCK, trials - start))


def draw_without_replacement(config: SimulationConfig) -> np.ndarray:
    """Observed positive counts, one per trial, deterministic in seed."""
    import numpy as np

    counts = np.empty(config.trials, dtype=np.int64)
    for start, block in zip(range(0, config.trials, BLOCK), _blocks(config)):
        counts[start : start + BLOCK] = block
    return counts


def _span(block):
    """(first, counts): counts[j] trials of the block observed first + j,
    over the span of outcomes it drew, not all of 0..n."""
    import numpy as np

    first = int(block.min())
    return first, np.bincount(block - first)


def _merge(a, b):
    """Two spans' (first, counts) added up over the span holding both."""
    import numpy as np

    first = min(a[0], b[0])
    counts = np.zeros(max(a[0] + a[1].size, b[0] + b[1].size) - first, dtype=np.int64)
    for start, part in (a, b):
        counts[start - first : start - first + part.size] += part
    return first, counts


def _tally(first, counts, N: int, M: int, n: int, deltas, deviations):
    """Coverage per delta and exceedance per t, as fractions of the
    trials, from counts[j] = the number of trials that observed first + j.

    M lies in [iN/n - c, iN/n + c] on the closed range |iN - nM| <= cn,
    where c depends on N, n and delta alone, and a trial exceeds t
    outside the open range |iN - nM| < tnN (`exact._outcome_range`).
    """
    total = int(counts.sum())

    def within(w, scale, closed):
        lo, hi = _outcome_range(N, M, n, w, scale, closed)
        return int(counts[max(lo - first, 0) : max(hi + 1 - first, 0)].sum())

    coverage = {}
    for d in deltas:
        c = _halfwidth(N, n, d)[0]
        coverage[d] = within(c, n, True) / total
    exceedance = {t: (total - within(t, n * N, False)) / total for t in deviations}
    return coverage, exceedance


def _values(arg) -> list:
    """The values of an iterable other than a str or bytes, else [arg]."""
    return list(arg) if isinstance(arg, Iterable) and not isinstance(arg, (str, bytes)) else [arg]


def coverage_experiment(
    N: int,
    M: int,
    n: int,
    delta,
    trials: int,
    seed: int,
    deviations: Iterable[float] | float = (),
) -> SimulationReport:
    """Draw `trials` samples and report frequencies, interval coverage
    for each requested delta, and tail exceedance for each requested
    deviation fraction t.  delta and deviations are each one value or
    an iterable of them (a str is one value, and is rejected).

    Coverage counts a trial when M lies in the interval built from that
    trial's observed i via halfwidth_for_confidence (exact membership,
    no rounding).  Exceedance compares |i N - n M| against t n N in
    exact arithmetic on t as read, so boundary outcomes are counted.
    """
    deltas = [check_probability(d, "delta") for d in _values(delta)]
    deviations = [check_positive(t, "t") for t in _values(deviations)]
    config = SimulationConfig(N, M, n, trials, seed)
    if config.n < 1:
        raise DomainError("n must satisfy n >= 1 to build intervals")
    first, counts = reduce(_merge, map(_span, _blocks(config)))
    empirical_pmf = {first + j: c / config.trials for j, c in enumerate(counts.tolist()) if c}
    coverage, exceedance = _tally(first, counts, config.N, config.M, config.n, deltas, deviations)
    return SimulationReport(empirical_pmf, coverage, exceedance)
