"""Tests for confidence-interval sizing and sample-size planning."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypertail import (
    FORMULA_B1,
    FORMULA_C1,
    FORMULA_C2,
    FORMULA_D1,
    FORMULA_D2,
    REGIME_S1,
    REGIME_S2,
    DomainError,
    b1_confidence_for_halfwidth,
    b1_halfwidth_for_confidence,
    confidence_for_halfwidth,
    halfwidth_for_confidence,
    required_sample_size,
    sample_size_lower_estimate,
)
from hypertail.inference import _s1_real, _s2_real

DELTA_STRAT = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


@st.composite
def partial_sample(draw, max_N=1000):
    """(N, n, i) with 1 <= n < N so both directions stay invertible."""
    N = draw(st.integers(min_value=2, max_value=max_N))
    n = draw(st.integers(min_value=1, max_value=N - 1))
    i = draw(st.integers(min_value=0, max_value=n))
    return N, n, i


class TestHalfwidthForConfidence:
    def test_voter_poll_scale(self):
        res = halfwidth_for_confidence(17_793_691, 100_000, 5720, 0.05)
        assert res.formula == FORMULA_C1
        assert not res.legacy
        assert res.halfwidth == pytest.approx(76203.42435859634, rel=1e-12)
        assert res.estimate == Fraction(5720 * 17_793_691, 100_000)
        assert res.lower == pytest.approx(941595.7008414037, rel=1e-12)
        assert res.upper == pytest.approx(1094002.5495585965, rel=1e-12)

    def test_majority_sample_uses_complement_formula(self):
        res = halfwidth_for_confidence(100, 80, 40, 0.05)
        assert res.formula == FORMULA_C2
        assert res.halfwidth == pytest.approx(6.832816446468433, rel=1e-12)

    def test_census_gives_zero_width(self):
        res = halfwidth_for_confidence(10, 10, 7, 0.05)
        assert res.formula == FORMULA_C2
        assert res.halfwidth == 0.0
        assert res.lower == res.upper == 7.0
        assert res.contains(7)
        assert not res.contains(6)

    def test_legacy_comparison_value(self):
        res = b1_halfwidth_for_confidence(17_793_691, 100_000, 5720, 0.05)
        assert res.legacy
        assert res.formula == FORMULA_B1
        assert res.halfwidth == pytest.approx(76418.45946074669, rel=1e-12)

    @given(Nni=partial_sample(), delta=DELTA_STRAT)
    def test_formula_switches_at_half_census(self, Nni, delta):
        N, n, i = Nni
        res = halfwidth_for_confidence(N, n, i, delta)
        assert res.formula == (FORMULA_C1 if 2 * n <= N else FORMULA_C2)

    @given(Nni=partial_sample(), delta=DELTA_STRAT)
    def test_never_wider_than_legacy(self, Nni, delta):
        N, n, i = Nni
        primary = halfwidth_for_confidence(N, n, i, delta)
        legacy = b1_halfwidth_for_confidence(N, n, i, delta)
        assert primary.halfwidth <= legacy.halfwidth * (1 + 1e-12)

    @given(Nni=partial_sample(), delta=DELTA_STRAT)
    def test_interval_geometry(self, Nni, delta):
        N, n, i = Nni
        res = halfwidth_for_confidence(N, n, i, delta)
        assert res.estimate == Fraction(i * N, n)
        width = Fraction(res.halfwidth)
        assert res.lower == float(res.estimate - width)
        assert res.upper == float(res.estimate + width)
        assert 0.0 <= res.clamped_lower <= res.clamped_upper <= float(N)
        assert res.delta == delta


class TestConfidenceForHalfwidth:
    def test_voter_poll_scale(self):
        res = confidence_for_halfwidth(17_793_691, 100_000, 5720, 62278)
        assert res.formula == FORMULA_D1
        assert not res.vacuous
        assert res.delta == pytest.approx(0.17021279791623378, rel=1e-12)
        assert res.lower == pytest.approx(955521.1252, rel=1e-12)
        assert res.upper == pytest.approx(1080077.1252, rel=1e-12)

    def test_legacy_comparison_value(self):
        res = b1_confidence_for_halfwidth(17_793_691, 100_000, 5720, 62278)
        assert res.legacy
        assert res.delta == pytest.approx(0.17258606630613932, rel=1e-12)

    def test_census_has_zero_miscoverage(self):
        res = confidence_for_halfwidth(10, 10, 7, 2.5)
        assert res.formula == FORMULA_D2
        assert res.delta == 0.0
        assert not res.vacuous

    def test_vacuous_when_sample_is_too_small(self):
        res = confidence_for_halfwidth(1000, 2, 1, 0.5)
        assert res.vacuous
        assert res.delta == 1.0
        legacy = b1_confidence_for_halfwidth(1000, 2, 1, 0.5)
        assert legacy.vacuous and legacy.delta == 1.0

    @given(Nni=partial_sample(), c=st.floats(min_value=0.01, max_value=50.0))
    def test_formula_switches_at_half_census(self, Nni, c):
        N, n, i = Nni
        res = confidence_for_halfwidth(N, n, i, c)
        assert res.formula == (FORMULA_D1 if 2 * n <= N else FORMULA_D2)

    @given(Nni=partial_sample(), c=st.floats(min_value=0.01, max_value=50.0))
    def test_never_more_confident_than_legacy(self, Nni, c):
        N, n, i = Nni
        primary = confidence_for_halfwidth(N, n, i, c)
        legacy = b1_confidence_for_halfwidth(N, n, i, c)
        assert primary.delta <= legacy.delta * (1 + 1e-12)

    @given(Nni=partial_sample(), delta=DELTA_STRAT)
    def test_round_trip_recovers_delta(self, Nni, delta):
        N, n, i = Nni
        sized = halfwidth_for_confidence(N, n, i, delta)
        back = confidence_for_halfwidth(N, n, i, sized.halfwidth)
        assert back.delta == pytest.approx(delta, rel=1e-9)
        assert back.formula == {FORMULA_C1: FORMULA_D1, FORMULA_C2: FORMULA_D2}[
            sized.formula
        ]


    def test_endpoints_are_the_rational_ends_rounded_once(self):
        # Seeded, with an int, Fraction and float c, at N from 1 to beyond
        # 2^53, and the census n = N among the samples.
        rng = random.Random("interval-endpoints")
        for _ in range(1_500):
            N = rng.choice((rng.randint(1, 100), rng.randint(10**5, 10**8),
                            rng.randint(2**53 - 100, 2**60)))
            n = rng.choice((rng.randint(1, N), N))
            i = rng.randint(0, n)
            for c in (rng.uniform(1e-3, 2.0) * N, rng.randint(1, 2 * N),
                      Fraction(rng.randint(1, 2 * N), rng.randint(1, 99))):
                for call in (confidence_for_halfwidth, b1_confidence_for_halfwidth):
                    res = call(N, n, i, c)
                    assert res.exact_halfwidth == c
                    assert res.lower == float(res.estimate - res.exact_halfwidth)
                    assert res.upper == float(res.estimate + res.exact_halfwidth)


class TestMembership:
    def test_contains_is_exact_at_the_boundary(self):
        res = halfwidth_for_confidence(10, 5, 3, 0.1)
        width = Fraction(res.halfwidth)
        inside = res.estimate + width
        assert res.contains(inside)
        assert not res.contains(inside + Fraction(1, 10**30))

    @pytest.mark.parametrize("interval", [confidence_for_halfwidth, b1_confidence_for_halfwidth])
    def test_contains_reads_the_typed_halfwidth(self, interval):
        # 13/10 - 3/10 is 1 exactly; the float 0.3 lies below 3/10.
        res = interval(13, 10, 1, Fraction(3, 10))
        assert res.halfwidth == 0.3
        assert res.lower == 1.0
        assert res.contains(1)

    def test_contains_integer_counts(self):
        res = confidence_for_halfwidth(100, 20, 5, 10)
        for M in range(101):
            expected = abs(M - res.estimate) <= Fraction(res.halfwidth)
            assert res.contains(M) == expected


class TestSampleSizePlanning:
    def test_large_population_plan(self):
        N = 17_793_691
        res = required_sample_size(N, 0.05, N / 400)
        assert res.regime == REGIME_S1
        assert res.x == 160000.0
        assert res.y == pytest.approx(1.8444397270569681, rel=1e-12)
        assert res.n_real == pytest.approx(290295.78483890014, rel=1e-12)
        assert res.n_required == 290296

    def test_integer_halfwidth_variant(self):
        res = required_sample_size(17_793_691, 0.05, 44484)
        assert res.regime == REGIME_S1
        assert res.n_real == pytest.approx(290298.7056642377, rel=1e-12)
        assert res.n_required == 290299

    def test_small_population_plan(self):
        res = required_sample_size(100, 0.05, 5)
        assert res.regime == REGIME_S2
        assert res.regime_boundary == pytest.approx(11.55425153409084, rel=1e-12)
        assert res.n_real == pytest.approx(88.18165882397176, rel=1e-12)
        assert res.n_required == 89

    def test_lower_estimate_values(self):
        est = sample_size_lower_estimate(17_793_691, 0.05, 44484)
        assert est == pytest.approx(290298.68934954004, rel=1e-12)
        assert est <= 290298.7056642377
        small = sample_size_lower_estimate(100, 0.05, 5)
        assert small == pytest.approx(88.06363359277513, rel=1e-12)

    def test_tiny_halfwidth_demands_census(self):
        res = required_sample_size(1000, 0.05, 1e-150)
        assert res.n_required == 1000

    def test_overflowing_scale_demands_census(self):
        # (N/c)^2 overflows a double; the plan must still be a census.
        res = required_sample_size(10, 0.05, 1e-300)
        assert res.x == math.inf
        assert res.n_required == 10
        assert sample_size_lower_estimate(10, 0.05, 1e-300) == 10

    def test_regimes_agree_on_their_shared_boundary(self):
        # c = sqrt(y (N + 2)) makes N sit exactly on the regime
        # boundary, where both closed forms solve to n = N/2.
        for N in (10, 100, 1000, 10**6):
            for delta in (0.2, 0.05):
                y = -0.5 * (math.log(delta) - math.log(2.0))
                c = math.sqrt(y * (N + 2))
                xy = (N / c) ** 2 * y
                s1 = _s1_real(N, xy)
                s2 = _s2_real(N, xy)
                assert s1 == pytest.approx(N / 2, rel=1e-9)
                assert s2 == pytest.approx(N / 2, rel=1e-9)

    @pytest.mark.parametrize("N", [50, 200, 1000])
    @pytest.mark.parametrize("delta", [0.2, 0.05])
    @pytest.mark.parametrize("c_fraction", [0.02, 0.05, 0.2, 0.5])
    def test_result_is_sufficient_and_minimal(self, N, delta, c_fraction):
        c = c_fraction * N
        res = required_sample_size(N, delta, c)
        n = res.n_required
        assert 1 <= n <= N
        achieved = halfwidth_for_confidence(N, n, 0, delta).halfwidth
        assert achieved <= c * (1 + 1e-9)
        if n > 1:
            shorter = halfwidth_for_confidence(N, n - 1, 0, delta).halfwidth
            assert shorter > c * (1 - 1e-9)

    @given(
        N=st.integers(min_value=2, max_value=10**6),
        delta=DELTA_STRAT,
        c_fraction=st.floats(min_value=1e-4, max_value=0.999),
    )
    def test_lower_estimate_never_exceeds_solution(self, N, delta, c_fraction):
        c = c_fraction * N
        res = required_sample_size(N, delta, c)
        est = sample_size_lower_estimate(N, delta, c)
        assert est <= res.n_real * (1 + 1e-12)
        assert res.regime == (REGIME_S1 if N <= res.regime_boundary else REGIME_S2)


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: halfwidth_for_confidence(0, 1, 0, 0.1),
            lambda: halfwidth_for_confidence(10, 0, 0, 0.1),
            lambda: halfwidth_for_confidence(10, 11, 0, 0.1),
            lambda: halfwidth_for_confidence(10, 5, 6, 0.1),
            lambda: halfwidth_for_confidence(10, 5, -1, 0.1),
            lambda: halfwidth_for_confidence(10, 5, 3, 0.0),
            lambda: halfwidth_for_confidence(10, 5, 3, 1.0),
            lambda: halfwidth_for_confidence(10, 5, 3, float("nan")),
            lambda: confidence_for_halfwidth(10, 5, 3, 0.0),
            lambda: confidence_for_halfwidth(10, 5, 3, -2.0),
            lambda: confidence_for_halfwidth(1000, 100, 30, Fraction(10**400)),
            lambda: b1_halfwidth_for_confidence(10, 5, 3, 1.5),
            lambda: b1_confidence_for_halfwidth(10, 5, 3, -1.0),
            lambda: required_sample_size(10, 0.0, 1.0),
            lambda: required_sample_size(10, 0.1, 0.0),
            lambda: required_sample_size(0, 0.1, 1.0),
            lambda: halfwidth_for_confidence(10, 5, 3, "0.05"),
            lambda: confidence_for_halfwidth(10, 5, 3, True),
            lambda: required_sample_size(10, "0.1", 1.0),
        ],
    )
    def test_domain_errors(self, call):
        with pytest.raises(DomainError):
            call()

    def test_population_beyond_float_squares(self):
        # Above about 1.3e154, N * N overflows a float; the answer at
        # N = 10^200 still fits, and with c = 5 it is the vacuous delta 1.
        for call, c in ((confidence_for_halfwidth, 5.0), (b1_confidence_for_halfwidth, 5)):
            res = call(10**200, 10, 1, c)
            assert res.vacuous and res.delta == 1.0
            assert res.lower == res.upper == 1e199
        # c/N = 1/2: delta = 2 exp(-2 (1/2)^2 10 g), g = N/(N - 9) rounds to 1.
        res = confidence_for_halfwidth(10**200, 10, 1, 5 * 10**199)
        assert res.delta == pytest.approx(2 * math.exp(-5.0), rel=1e-15)
        # Either side of the first N whose square overflows a float.
        below = math.isqrt(2**1024 - 2**970 - 1)
        for N in (below, below + 1):
            res = confidence_for_halfwidth(N, 10, 5, Fraction(N, 5))
            assert res.delta == pytest.approx(2 * math.exp(-0.8), rel=1e-14)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: halfwidth_for_confidence(10**400, 10, 1, 0.05),
            lambda: confidence_for_halfwidth(10**400, 10, 1, 5.0),
            lambda: b1_halfwidth_for_confidence(10**400, 10, 1, 0.05),
            lambda: required_sample_size(10**400, 0.05, 10**300),
            lambda: sample_size_lower_estimate(10**400, 0.05, 10**300),
        ],
    )
    def test_population_beyond_the_float_range(self, call):
        with pytest.raises(DomainError, match="floats and take N up to about 1.8e308"):
            call()

    def test_oversized_halfwidth_needs_no_samples(self):
        with pytest.raises(DomainError, match="n = 0 samples"):
            required_sample_size(10, 0.1, 10)

    def test_halfwidth_just_below_a_huge_population_is_compared_exactly(self):
        # Above 2^53 both c's round to float(N); the test c < N must not.
        N = 10**17
        for c in (N - 1, Fraction(2 * N - 1, 2)):
            assert required_sample_size(N, 0.05, c).n_required == 2
            assert 0 < sample_size_lower_estimate(N, 0.05, c) <= 2
        for plan in (required_sample_size, sample_size_lower_estimate):
            with pytest.raises(DomainError, match="n = 0 samples"):
                plan(N, 0.05, N)


class TestFloatRangeEdges:
    @pytest.mark.parametrize("exponent", range(150, 155))
    def test_miscoverage_where_the_product_overflows(self, exponent):
        # c = N/5, n = 100: c * c * n * g passes the largest float from
        # about N = 10^154 on, before the division by N * N.
        N, n = 10**exponent, 100
        g = N / (N - n + 1)
        res = confidence_for_halfwidth(N, n, 50, 2 * 10 ** (exponent - 1))
        assert res.delta == pytest.approx(2 * math.exp(-2 * 0.2**2 * n * g), rel=1e-12)
        legacy = b1_confidence_for_halfwidth(N, n, 50, 2 * 10 ** (exponent - 1))
        assert legacy.delta == pytest.approx(2 * math.exp(-2 * 0.2**2 * n), rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            # The half-width N sqrt(...) passes the largest float.
            lambda: halfwidth_for_confidence(10**308, 1, 0, 1e-300),
            lambda: b1_halfwidth_for_confidence(10**308, 1, 0, 1e-300),
            # The upper end (i N / n + c) does.
            lambda: confidence_for_halfwidth(10**308, 2, 2, 1.7e308),
        ],
    )
    def test_interval_past_the_largest_float(self, call):
        with pytest.raises(DomainError, match="passes the largest float"):
            call()


def _reference_exponent(N, n, c, legacy):
    """-2 (c/N)^2 n g as an exact rational, or None at a census."""
    if legacy:
        g = Fraction(1)
    elif 2 * n <= N:
        g = Fraction(N, N - n + 1)
    elif n == N:
        return None
    else:
        g = Fraction(n * N, (N - n) * (n + 1))
    return -2 * Fraction(c) ** 2 * n * g / (N * N)


class TestMiscoverageFromTheRatio:
    """delta = 2 exp(-2 (u n)(u g)) with u = c/N, which stays in the float
    range wherever the exponent does, however large N is."""

    def test_a_tiny_ratio_is_not_vacuous(self):
        # u = 10^-200 squared underflows; u n and u g are each 10^100.
        res = confidence_for_halfwidth(10**300, 10**300 - 1, 0, 10**100)
        assert res.delta == 0.0 and not res.vacuous
        # u n and u g are each about 1, so the exponent is -2.
        N = 2 * 10**306
        res = confidence_for_halfwidth(N, N - 1, 0, 1)
        assert res.delta == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert not res.vacuous

    def test_seeded_sweep_against_mpmath(self):
        rng = random.Random(20261021)
        kinds = set()
        for _ in range(2_000):
            N = int(10 ** rng.uniform(0, 307))
            n = rng.choice((1, rng.randint(1, N), N // 2 or 1, min(N // 2 + 1, N),
                            max(1, N - rng.randint(1, 5)), N))
            legacy = rng.random() < 0.2
            # About sqrt(g), in factors that stay in the float range.
            root_g = 1 if legacy else math.sqrt(N / (N - n + 1)) * (
                1 if 2 * n <= N else math.sqrt(n / (n + 1)))
            # A target exponent from 10^-4 (vacuous) to about 10^4 (delta 0).
            u = math.sqrt(10 ** rng.uniform(-4, 4) / 2) / math.sqrt(n) / root_g
            c = min(u * N, 1e308)
            c = rng.choice((c, max(1, round(c)), Fraction(max(1, round(c)) * 7 + 1, 7)))
            call = b1_confidence_for_halfwidth if legacy else confidence_for_halfwidth
            res = call(N, n, 0, c)
            exponent = _reference_exponent(N, n, c, legacy)
            if exponent is None:
                assert res.delta == 0.0 and not res.vacuous
                continue
            with mpmath.workdps(30):
                raw = 2 * mpmath.exp(mpmath.mpf(exponent.numerator) / exponent.denominator)
                ref = min(raw, 1)
                slack = 1e-12 * max(1, -float(exponent)) * ref + 1e-322
                assert abs(res.delta - ref) <= slack, (N, n, c, legacy, res.delta, ref)
            assert res.vacuous == (raw >= 1), (N, n, c, legacy)
            kinds.add((res.vacuous, res.delta == 0.0))
        assert kinds == {(True, False), (False, False), (False, True)}
