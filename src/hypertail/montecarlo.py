"""Seeded simulation harness for validating tails, bounds, and coverage.

Each trial draws n individuals without replacement from a population of
N with M positives and records the positive count i.  Block b of BLOCK
trials is one call to numpy's hypergeometric sampler on child b of
SeedSequence(seed), so it is a pure function of (seed, b): blocks can
run serially or in parallel, in any order, with the same outcomes, a
run of T trials is a prefix of every longer run, and every report is
reproducible from (config, seed) alone.  The tally adds up each block as
it is drawn, so it holds one block in memory whatever the trial count.

numpy is imported by the functions that draw, not with the module, so
`import hypertail` and every command but `simulate` run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Mapping, Sequence

from ._validation import check_probability, check_positive, check_range
from .errors import DomainError
from .exact import Population
from .inference import halfwidth_for_confidence

BLOCK = 2**16  # trials per spawned child seed


@dataclass(frozen=True)
class SimulationConfig:
    """Population, sample size, trial count, and master seed.  M and
    N - M must each be below 10^9, the limit of numpy's sampler."""

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
        object.__setattr__(self, "trials", check_range(self.trials, "trials", 1))
        object.__setattr__(self, "seed", check_range(self.seed, "seed", 0, 2**64 - 1))


@dataclass(frozen=True)
class SimulationReport:
    """Empirical frequencies from one batch of trials.

    empirical_pmf maps each observed i to its frequency (summing to 1);
    empirical_coverage maps each requested delta to the fraction of
    trials whose interval contained M; tail_exceedance maps each
    requested deviation fraction t, keyed by the t given, to the fraction
    of trials with |i - nM/N| >= t n.
    """

    empirical_pmf: Mapping[int, float]
    empirical_coverage: Mapping[float, float]
    tail_exceedance: Mapping[float, float]


def _blocks(config: SimulationConfig):
    """Block b's positive counts, drawn from child b of SeedSequence(seed)."""
    import numpy as np

    N, M, n, trials = config.N, config.M, config.n, config.trials
    root = np.random.SeedSequence(config.seed)
    for start in range(0, trials, BLOCK):
        child = root.spawn(1)[0]  # children come in turn: b = start / BLOCK
        rng = np.random.default_rng(child)
        yield rng.hypergeometric(M, N - M, n, size=min(BLOCK, trials - start))


def draw_without_replacement(config: SimulationConfig) -> np.ndarray:
    """Observed positive counts, one per trial, deterministic in seed."""
    import numpy as np

    counts = np.empty(config.trials, dtype=np.int64)
    for start, block in zip(range(0, config.trials, BLOCK), _blocks(config)):
        counts[start : start + BLOCK] = block
    return counts


def _tally(counts, N: int, M: int, n: int, deltas, deviations):
    """Coverage per delta and exceedance per t, as fractions of the
    trials, from counts[i] = the number of trials that observed i.

    M lies in [iN/n - c, iN/n + c] exactly when |iN - nM| <= cn, where
    the half-width c depends on N, n and delta alone, and a trial exceeds
    t unless |iN - nM| < tnN.  So each delta and each t counts one range
    of i, whose ends are exact integer floors and ceilings.
    """
    cum = [0, *counts.cumsum().tolist()]  # cum[k]: trials with i < k
    total, nM = cum[-1], n * M

    def within(p, q):
        """Trials with q |iN - nM| <= p: i from ceil to floor of (nM -+ p/q)/N."""
        lo = max(-((p - q * nM) // (q * N)), 0)
        hi = min((q * nM + p) // (q * N), n)
        return cum[hi + 1] - cum[lo] if lo <= hi else 0

    coverage = {}
    for d in deltas:
        p, q = halfwidth_for_confidence(N, n, 0, d).halfwidth.as_integer_ratio()
        coverage[d] = within(p * n, q) / total
    exceedance = {}
    for t in deviations:
        p, q = Fraction(t).as_integer_ratio()
        # In integers, q |iN - nM| < p n N is q |iN - nM| <= p n N - 1.
        exceedance[t] = (total - within(p * n * N - 1, q)) / total
    return coverage, exceedance


def coverage_experiment(
    N: int,
    M: int,
    n: int,
    delta,
    trials: int,
    seed: int,
    deviations: Sequence[float] = (),
) -> SimulationReport:
    """Draw `trials` samples and report frequencies, interval coverage
    for each requested delta, and tail exceedance for each requested
    deviation fraction t.

    Coverage counts a trial when M lies in the interval built from that
    trial's observed i via halfwidth_for_confidence (exact membership,
    no rounding).  Exceedance compares |i N - n M| against t n N in
    exact arithmetic, with t as given, so boundary outcomes are counted.
    """
    deltas = [delta] if isinstance(delta, Real) else list(delta)
    deltas = [check_probability(d, "delta") for d in deltas]
    for t in deviations:
        check_positive(t, "t")
    config = SimulationConfig(N, M, n, trials, seed)
    if config.n < 1:
        raise DomainError("n must satisfy n >= 1 to build intervals")
    import numpy as np

    counts = sum(np.bincount(block, minlength=config.n + 1) for block in _blocks(config))
    observed = np.flatnonzero(counts)
    empirical_pmf = dict(zip(observed.tolist(), (counts[observed] / config.trials).tolist()))
    coverage, exceedance = _tally(counts, config.N, config.M, config.n, deltas, deviations)
    return SimulationReport(empirical_pmf, coverage, exceedance)
