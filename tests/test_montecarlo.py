"""Tests for the seeded simulation harness.

Statistical assertions use a three-standard-error band around the exact
probability; with the fixed seeds below every check is deterministic.
Deviation fractions in exceedance tests are dyadic (0.25, 0.5) so the
simulator's exact rational threshold coincides with the two-sided
reference computed from c = t * n.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest

from hypertail import (
    DomainError,
    Population,
    SimulationConfig,
    concentration_bound,
    coverage_experiment,
    draw_without_replacement,
    halfwidth_for_confidence,
    pmf,
    two_sided_exact,
)
from hypertail.montecarlo import BLOCK, MAX_TRIALS, _tally

SEED = 20260814


def binomial_se(p: float, trials: int) -> float:
    return math.sqrt(p * (1 - p) / trials)


class TestDraws:
    def test_deterministic_in_seed(self):
        config = SimulationConfig(10, 7, 5, trials=500, seed=3)
        first = draw_without_replacement(config)
        second = draw_without_replacement(config)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = draw_without_replacement(SimulationConfig(10, 7, 5, 500, 3))
        b = draw_without_replacement(SimulationConfig(10, 7, 5, 500, 4))
        assert not np.array_equal(a, b)

    def test_census_always_finds_every_positive(self):
        counts = draw_without_replacement(SimulationConfig(9, 4, 9, 50, 1))
        assert set(counts.tolist()) == {4}

    def test_degenerate_populations(self):
        none = draw_without_replacement(SimulationConfig(9, 0, 4, 50, 1))
        assert set(none.tolist()) == {0}
        everyone = draw_without_replacement(SimulationConfig(9, 9, 4, 50, 1))
        assert set(everyone.tolist()) == {4}
        empty = draw_without_replacement(SimulationConfig(9, 4, 0, 50, 1))
        assert set(empty.tolist()) == {0}

    def test_counts_stay_in_support(self):
        counts = draw_without_replacement(SimulationConfig(20, 15, 12, 2000, 8))
        assert counts.min() >= 12 - 5  # n - (N - M)
        assert counts.max() <= 12

    def test_blocks_are_seeded_by_index(self):
        config = SimulationConfig(1000, 400, 500, trials=BLOCK + 7, seed=3)
        counts = draw_without_replacement(config)
        assert np.array_equal(counts, draw_without_replacement(config))
        short = draw_without_replacement(SimulationConfig(1000, 400, 500, 100, 3))
        assert np.array_equal(short, counts[:100])
        # The second block has its own child seed, not the first one's:
        # child 1 of SeedSequence(seed).
        assert not np.array_equal(counts[:7], counts[BLOCK:])
        child = np.random.SeedSequence(3).spawn(2)[1]
        expected = np.random.default_rng(child).hypergeometric(400, 600, 500, size=7)
        assert np.array_equal(counts[BLOCK:], expected)

    def test_tally_reads_the_drawn_stream(self):
        config = SimulationConfig(60, 24, 30, trials=2 * BLOCK + 7, seed=SEED)
        counts = np.bincount(draw_without_replacement(config)).tolist()
        report = coverage_experiment(60, 24, 30, 0.05, config.trials, SEED)
        expected = {i: c / config.trials for i, c in enumerate(counts) if c}
        assert report.empirical_pmf == expected

    def test_tally_holds_one_block_in_memory(self):
        coverage_experiment(60, 24, 30, 0.05, trials=10, seed=1)  # load numpy.random
        for N, M, n in [(60, 24, 30), (4 * 10**7, 2 * 10**7, 10**7)]:
            tracemalloc.start()
            try:
                coverage_experiment(N, M, n, 0.05, trials=16 * BLOCK + 1, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The 16 blocks as one int64 array would take 8 MiB, and counts
            # over every outcome 0..n at n = 10^7 would take 80 MiB.
            assert peak < 2 * 2**20, (N, M, n)


class TestEmpiricalPmf:
    def test_matches_exact_distribution_within_three_se(self):
        trials = 20000
        report = coverage_experiment(10, 7, 5, 0.1, trials=trials, seed=SEED)
        assert math.fsum(report.empirical_pmf.values()) == pytest.approx(1.0)
        for i in range(6):
            p = float(pmf((10, 7), 5, i).value)
            frequency = report.empirical_pmf.get(i, 0.0)
            if p == 0.0:
                assert frequency == 0.0
            else:
                assert abs(frequency - p) <= 3 * binomial_se(p, trials)

    def test_lower_tail_frequency(self):
        trials = 20000
        report = coverage_experiment(6, 3, 3, 0.1, trials=trials, seed=SEED)
        frequency = sum(v for i, v in report.empirical_pmf.items() if i <= 1)
        assert abs(frequency - 0.5) <= 3 * binomial_se(0.5, trials)

    def test_repeat_runs_are_identical(self):
        one = coverage_experiment(10, 7, 5, 0.1, trials=2000, seed=SEED)
        two = coverage_experiment(10, 7, 5, 0.1, trials=2000, seed=SEED)
        assert one.empirical_pmf == two.empirical_pmf
        assert one.empirical_coverage == two.empirical_coverage

    def test_values_are_plain_floats(self):
        report = coverage_experiment(10, 7, 5, 0.1, trials=100, seed=1)
        assert all(type(v) is float for v in report.empirical_pmf.values())
        assert all(type(v) is float for v in report.empirical_coverage.values())


class TestCoverage:
    def test_minority_sample_meets_guarantee(self):
        report = coverage_experiment(500, 200, 100, 0.1, trials=4000, seed=7)
        assert report.empirical_coverage[0.1] >= 0.9

    def test_majority_sample_meets_guarantee(self):
        report = coverage_experiment(500, 200, 400, 0.1, trials=4000, seed=7)
        assert report.empirical_coverage[0.1] >= 0.9

    def test_tiny_population_has_full_coverage(self):
        report = coverage_experiment(10, 7, 5, 0.05, trials=2000, seed=SEED)
        assert report.empirical_coverage[0.05] == 1.0

    def test_rational_delta_is_one_delta(self):
        rational = coverage_experiment(10, 7, 5, Fraction(1, 20), 100, 1)
        assert rational == coverage_experiment(10, 7, 5, 0.05, 100, 1)

    def test_census_coverage_is_exact(self):
        report = coverage_experiment(10, 7, 10, 0.5, trials=200, seed=2)
        assert report.empirical_coverage[0.5] == 1.0

    def test_multiple_deltas_from_one_batch(self):
        report = coverage_experiment(
            60, 24, 30, [0.2, 0.05], trials=3000, seed=11
        )
        assert set(report.empirical_coverage) == {0.2, 0.05}
        assert (
            report.empirical_coverage[0.05] >= report.empirical_coverage[0.2]
        )


class TestExceedance:
    def test_tracks_exact_two_sided_probability(self):
        trials = 20000
        report = coverage_experiment(
            60, 24, 30, 0.1, trials=trials, seed=99, deviations=[0.25]
        )
        exact = float(two_sided_exact((60, 24), 30, 0.25 * 30).value)
        frequency = report.tail_exceedance[0.25]
        assert abs(frequency - exact) <= 3 * binomial_se(exact, trials)

    def test_boundary_outcomes_are_counted(self):
        # (10, 5, 4) at t = 0.25: |i - 2| >= 1, hit exactly by i = 1, 3.
        trials = 20000
        report = coverage_experiment(
            10, 5, 4, 0.1, trials=trials, seed=SEED, deviations=[0.25]
        )
        exact = float(two_sided_exact((10, 5), 4, 1).value)
        assert exact == pytest.approx(11 / 21)
        frequency = report.tail_exceedance[0.25]
        assert abs(frequency - exact) <= 3 * binomial_se(exact, trials)

    def test_rational_deviation_keeps_its_boundary(self):
        # (50, 1, 5): nM/N = 1/10 and t = 1/50 gives |i - 1/10| >= 1/10,
        # true for every outcome.  The float 0.02 lies above 1/50.
        t = Fraction(1, 50)
        report = coverage_experiment(50, 1, 5, 0.1, 2000, 1, deviations=[t])
        assert report.tail_exceedance == {t: 1.0}
        assert two_sided_exact((50, 1), 5, t * 5).value == 1

    def test_stays_below_concentration_bound(self):
        trials = 20000
        report = coverage_experiment(
            60, 24, 30, 0.1, trials=trials, seed=99, deviations=[0.25, 0.5]
        )
        for t, frequency in report.tail_exceedance.items():
            bound = concentration_bound(60, 30, t)
            assert frequency <= bound.value + 3 * binomial_se(
                min(bound.value, 0.5), trials
            )


class TestRangeTally:
    """The range tally against the per-outcome definitions it replaces:
    IntervalResult.contains(M) for coverage, |iN - nM| >= tnN for
    exceedance."""

    def test_matches_per_outcome_counts(self):
        deltas = [0.05, 0.2, 0.5]
        for N in range(1, 31):
            for n in range(1, N + 1):
                intervals = {
                    d: [halfwidth_for_confidence(N, n, i, d) for i in range(n + 1)]
                    for d in deltas
                }
                # t = a/n and a/(2n) put outcomes exactly on the boundary,
                # as (10, 5, 4) at t = 1/4 does: |i - 2| >= 1 at i = 1, 3.
                ts = sorted({Fraction(a, k * n) for a in range(1, n + 1) for k in (1, 2)})
                # Twice the threshold tnN is an integer for these t, so the
                # reference compares integers for every outcome at once.
                limits = np.array([int(2 * t * n * N) for t in ts])
                for M in range(N + 1):
                    # Weights 2^i: a tally names exactly the outcomes it counted.
                    support = np.arange(max(0, n - N + M), min(n, M) + 1)
                    counts = np.zeros(n + 1, dtype=np.int64)
                    counts[support] = 2**support
                    total = int(counts.sum())
                    coverage, exceedance = _tally(0, counts, N, M, n, deltas, ts)
                    for d in deltas:
                        covered = sum(
                            int(counts[i]) for i in support if intervals[d][i].contains(M)
                        )
                        assert coverage[d] == covered / total, (N, M, n, d)
                    gaps = 2 * np.abs(support * N - n * M)
                    exceeded = counts[support] @ (gaps[:, None] >= limits[None, :])
                    assert list(exceedance) == ts
                    for t, got, count in zip(ts, exceedance.values(), exceeded.tolist()):
                        assert got == count / total, (N, M, n, t)
                    # Weights C(M, i) C(N - M, n - i), the exact numerators:
                    # the tally and the exact layer count the same outcomes.
                    weights = np.array(oracles.weights(N, M, n), dtype=np.int64)
                    _, exceedance = _tally(0, weights, N, M, n, [], ts)
                    for t, got in exceedance.items():
                        assert got == float(two_sided_exact((N, M), n, t * n).value), (N, M, n, t)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=10, M=7, n=5, trials=0, seed=1),
            dict(N=10, M=7, n=5, trials=-3, seed=1),
            dict(N=10, M=7, n=5, trials=10, seed=-1),
            dict(N=10, M=7, n=5, trials=10, seed=2**64),
            dict(N=10, M=11, n=5, trials=10, seed=1),
            dict(N=10, M=None, n=5, trials=10, seed=1),
            dict(N=10, M=7, n=11, trials=10, seed=1),
            dict(N=10**9, M=10**9, n=5, trials=10, seed=1),
            dict(N=2 * 10**9, M=10**9 - 1, n=5, trials=10, seed=1),
            dict(N=10, M=7, n=5, trials=MAX_TRIALS + 1, seed=1),
        ],
    )
    def test_config_rejects_bad_inputs(self, kwargs):
        with pytest.raises(DomainError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("N, M", [(0, 0), (10, -1), (10, 11), (True, 1), (10, False)])
    def test_config_population_errors_match_population(self, N, M):
        with pytest.raises(DomainError) as expected:
            Population(N, M)
        with pytest.raises(DomainError) as raised:
            SimulationConfig(N, M, 5, 10, 1)
        assert str(raised.value) == str(expected.value)

    def test_config_stays_frozen(self):
        config = SimulationConfig(10, 7, 5, 10, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.trials = 20
        assert hash(config) == hash(SimulationConfig(10, 7, 5, 10, 1))

    def test_experiment_needs_at_least_one_draw(self):
        with pytest.raises(DomainError):
            coverage_experiment(10, 7, 0, 0.1, trials=10, seed=1)

    def test_experiment_rejects_bad_delta_and_deviation(self):
        with pytest.raises(DomainError):
            coverage_experiment(10, 7, 5, 0.0, trials=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(10, 7, 5, [0.1, 1.5], trials=10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment(10, 7, 5, 0.1, trials=10, seed=1, deviations=[0.0])
        with pytest.raises(DomainError, match="delta must be a real number"):
            coverage_experiment(10, 4, 5, "0.05", trials=10, seed=1)
        with pytest.raises(DomainError, match="t must be positive"):
            coverage_experiment(10, 7, 5, 0.1, trials=10, seed=1, deviations=-0.25)

    @pytest.mark.parametrize("t", [0.25, Fraction(1, 4)])
    def test_experiment_reads_a_single_deviation_as_a_list(self, t):
        one = coverage_experiment(10, 7, 5, 0.1, trials=200, seed=3, deviations=t)
        for many in ([t], iter([t])):
            assert one == coverage_experiment(10, 7, 5, 0.1, trials=200, seed=3, deviations=many)
        assert one.tail_exceedance.keys() == {t}
