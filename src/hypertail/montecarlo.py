"""Seeded simulation harness for validating tails, bounds, and coverage.

Each trial draws n individuals without replacement from a population of
N with M positives and records the positive count i.  Trials are seeded
independently from the master seed (one spawned child generator per
trial index), so serial and parallel execution produce the same
outcomes and every report is reproducible from (config, seed) alone.

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


@dataclass(frozen=True)
class SimulationConfig:
    """Population, sample size, trial count, and master seed."""

    N: int
    M: int
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        pop = Population(self.N, self.M)
        object.__setattr__(self, "N", pop.N)
        object.__setattr__(self, "M", pop.require_positives())
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


def _draw_one(rng: np.random.Generator, N: int, M: int, n: int) -> int:
    import numpy as np

    # Partial Fisher-Yates on a sparse permutation: swap slot j with a
    # uniform slot in [j, N); only touched slots live in the dict.
    if n == 0:
        return 0
    picks = rng.integers(np.arange(n), N)
    perm: dict[int, int] = {}
    hits = 0
    for j in range(n):
        r = int(picks[j])
        value = perm.get(r, r)
        perm[r] = perm.get(j, j)
        perm[j] = value
        if value < M:
            hits += 1
    return hits


def draw_without_replacement(config: SimulationConfig) -> np.ndarray:
    """Observed positive counts, one per trial, deterministic in seed."""
    import numpy as np

    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    counts = np.empty(config.trials, dtype=np.int64)
    for index, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        counts[index] = _draw_one(rng, config.N, config.M, config.n)
    return counts


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

    counts = np.bincount(draw_without_replacement(config), minlength=config.n + 1)
    observed = [i for i in range(config.n + 1) if counts[i]]

    empirical_pmf = {i: int(counts[i]) / config.trials for i in observed}

    empirical_coverage = {}
    for d in deltas:
        covered = sum(
            int(counts[i])
            for i in observed
            if halfwidth_for_confidence(config.N, config.n, i, d).contains(config.M)
        )
        empirical_coverage[d] = covered / config.trials

    tail_exceedance = {}
    for t in deviations:
        # |i - nM/N| >= t n, scaled by N to compare integers with the
        # exact rational threshold.
        threshold = Fraction(t) * config.n * config.N
        exceeded = sum(
            int(counts[i])
            for i in observed
            if abs(i * config.N - config.n * config.M) >= threshold
        )
        tail_exceedance[t] = exceeded / config.trials

    return SimulationReport(empirical_pmf, empirical_coverage, tail_exceedance)
