"""Tests for the closed-form tail bounds.

Frozen reference values are independently derivable closed forms:
the KL bound at p + t = 1 degenerates to p^n, dyadic inputs make the
expected exponents exact, and the two-sided KL value decomposes into a
sum of two one-sided bounds with known rational values.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from hypertail import (
    BoundFamily,
    BoundValue,
    DomainError,
    Population,
    UnsupportedBoundError,
    b1_tail,
    b2_tail,
    b3_tail,
    b4_tail,
    best_bound,
    concentration_bound,
    kl_upper_tail_bound,
    tail_bound,
    two_sided_exact,
)
from hypertail.exact import _log_add

T_STRAT = st.floats(min_value=1e-6, max_value=0.999999, allow_nan=False)


@st.composite
def population_and_sample(draw, min_n=1, max_N=400, n_below_N=False):
    N = draw(st.integers(min_value=2, max_value=max_N))
    n = draw(st.integers(min_value=min_n, max_value=N - 1 if n_below_N else N))
    return N, n


class TestKlBound:
    def test_degenerate_limit_is_p_to_the_n(self):
        # p + t = 1 exactly (dyadic t), where the bound collapses to p^n.
        res = kl_upper_tail_bound((4, 3), 3, 0.25)
        assert res.family_used is BoundFamily.KL
        assert res.value == pytest.approx((3 / 4) ** 3, rel=1e-12)
        half = kl_upper_tail_bound((2, 1), 2, 0.5)
        assert half.value == pytest.approx(0.25, rel=1e-12)

    def test_known_value_sixteen_twentysevenths(self):
        # p = 1/2, t = 1/4, n = 4: exp(-4 D(3/4 || 1/2)) = 2^4 / 3^3.
        res = kl_upper_tail_bound((4, 2), 4, 0.25)
        assert res.value == pytest.approx(16 / 27, rel=1e-12)

    def test_impossible_event_gives_zero(self):
        res = kl_upper_tail_bound((4, 3), 2, 0.5)
        assert res.value == 0.0
        assert res.exponent == float("-inf")

    def test_no_positives_gives_zero(self):
        assert kl_upper_tail_bound((5, 0), 3, 0.1).value == 0.0

    def test_near_limit_matches_continuous_extension(self):
        # t = float 0.3 is slightly below 3/10, so p + t falls just
        # short of 1; the generic branch must land on the same value as
        # the p + t = 1 limit, 0.7^5.
        res = kl_upper_tail_bound((10, 7), 5, 0.3)
        assert res.value == pytest.approx(0.7**5, rel=1e-12)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_boundary_is_decided_exactly_beyond_double_precision(self, shift):
        # N > 2^53, so M/N rounds alike for the three M below; only exact
        # arithmetic sees p + t fall short of, hit, or pass 1.
        N = 2**60
        M = 3 * N // 4 + shift
        res = kl_upper_tail_bound((N, M), 4, 0.25)
        if shift > 0:
            assert res.value == 0.0
        else:
            assert res.value == pytest.approx(0.75**4, rel=1e-12)

    def test_requires_known_positive_count(self):
        with pytest.raises(UnsupportedBoundError):
            kl_upper_tail_bound((10,), 5, 0.1)

    @given(
        Nn=population_and_sample(),
        M=st.integers(min_value=1, max_value=400),
        t=T_STRAT,
    )
    def test_never_looser_than_b1(self, Nn, M, t):
        N, n = Nn
        M = min(M, N)
        kl = kl_upper_tail_bound((N, M), n, t)
        b1 = b1_tail(n, t)
        assert kl.value <= b1.value * (1 + 1e-12)
        assert kl.exponent <= b1.exponent + 1e-12 * abs(b1.exponent)


class TestSampleSizeBounds:
    def test_b1_known_value(self):
        res = b1_tail(5, 0.3)
        assert res.family_used is BoundFamily.B1
        assert res.value == pytest.approx(math.exp(-0.9), rel=1e-12)

    def test_b2_known_value(self):
        # N = 10, n = 5: factor 10/6 turns the exponent -0.9 into -1.5.
        res = b2_tail(10, 5, 0.3)
        assert res.value == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_b3_b4_known_value(self):
        # N = 10, n = 9: both factors equal 9, exponent -1.62.
        three = b3_tail(10, 9, 0.1)
        four = b4_tail(10, 9, 0.1)
        assert three.value == pytest.approx(math.exp(-1.62), rel=1e-12)
        assert three.value == four.value

    def test_clamped_to_one_for_tiny_deviation(self):
        res = b1_tail(3, 1e-9)
        assert res.value == 1.0
        assert res.exponent < 0.0

    def test_b2_at_full_census(self):
        res = b2_tail(10, 10, 0.2)
        assert res.value == pytest.approx(math.exp(-2 * 0.04 * 10 * 10), rel=1e-12)

    def test_poll_scale_halfwidths_recover_target_confidence(self):
        # Halfwidths calibrated for 95% confidence must map back to a
        # 2.5% single-tail bound.
        N, n = 17_793_691, 100_000
        b2 = b2_tail(N, n, 76203.42435859634 / N)
        assert b2.value == pytest.approx(0.025, abs=1e-6)
        b1 = b1_tail(n, 76418.45946074669 / N)
        assert b1.value == pytest.approx(0.025, abs=1e-6)

    @given(Nn=population_and_sample(), t=T_STRAT)
    def test_b2_tightens_b1(self, Nn, t):
        N, n = Nn
        b1 = b1_tail(n, t)
        b2 = b2_tail(N, n, t)
        assert b2.exponent <= b1.exponent
        assert b2.value <= b1.value

    @given(Nn=population_and_sample(n_below_N=True), t=T_STRAT)
    def test_b4_tightens_b3(self, Nn, t):
        N, n = Nn
        b3 = b3_tail(N, n, t)
        b4 = b4_tail(N, n, t)
        assert b4.exponent <= b3.exponent
        assert b4.value <= b3.value

    @given(Nn=population_and_sample(n_below_N=True), t=T_STRAT)
    def test_complement_bounds_win_exactly_when_sampling_majority(self, Nn, t):
        N, n = Nn
        b1, b2 = b1_tail(n, t), b2_tail(N, n, t)
        b3, b4 = b3_tail(N, n, t), b4_tail(N, n, t)
        if 2 * n > N:
            assert b3.exponent < b1.exponent
            assert b4.exponent < b2.exponent
        elif 2 * n < N:
            assert b3.exponent > b1.exponent
            assert b4.exponent > b2.exponent
        else:
            assert b3.exponent == b1.exponent
            assert b4.exponent == b2.exponent

    def test_pairs_coincide_exactly_at_half_census(self):
        for N in (2, 10, 64, 1000, 123456):
            n = N // 2
            if 2 * n != N:
                continue
            t = 0.17
            assert b3_tail(N, n, t).exponent == b1_tail(n, t).exponent
            assert b4_tail(N, n, t).exponent == b2_tail(N, n, t).exponent

    def test_reduction_to_single_draw(self):
        # With n = 1 the finite-population factor is exactly 1.
        assert b2_tail(50, 1, 0.2).exponent == b1_tail(1, 0.2).exponent

    def test_complement_reduction_at_double_population(self):
        # b3 over N = 2n has factor n/(N - n) = 1, matching b1.
        assert b3_tail(20, 10, 0.2).exponent == b1_tail(10, 0.2).exponent


class TestBestBound:
    def test_picks_b2_for_minority_samples(self):
        res = best_bound(10, 3, 0.2)
        assert res.family_used is BoundFamily.B2
        assert res.value == b2_tail(10, 3, 0.2).value

    def test_picks_b4_for_majority_samples(self):
        res = best_bound(10, 8, 0.2)
        assert res.family_used is BoundFamily.B4
        assert res.value == b4_tail(10, 8, 0.2).value

    def test_census_falls_back_to_b2(self):
        res = best_bound(10, 10, 0.2)
        assert res.family_used is BoundFamily.B2

    @given(Nn=population_and_sample(n_below_N=True), t=T_STRAT)
    def test_is_exact_minimum_of_b2_and_b4(self, Nn, t):
        N, n = Nn
        best = best_bound(N, n, t)
        two, four = b2_tail(N, n, t), b4_tail(N, n, t)
        assert best.value == min(two.value, four.value)
        assert best.exponent == min(two.exponent, four.exponent)
        assert best.family_used is (
            BoundFamily.B2 if 2 * n <= N else BoundFamily.B4
        )


class TestConcentrationBound:
    def test_doubles_the_single_tail(self):
        res = concentration_bound(10, 5, 0.3, BoundFamily.B2)
        assert res.two_sided
        assert res.value == pytest.approx(2 * math.exp(-1.5), rel=1e-12)

    def test_clamps_to_one(self):
        res = concentration_bound(100, 10, 0.001)
        assert res.value == 1.0

    def test_auto_uses_best_bound(self):
        res = concentration_bound(10, 8, 0.2)
        assert res.family_used is BoundFamily.B4
        assert res.exponent == best_bound(10, 8, 0.2).exponent

    def test_poll_scale_confidence(self):
        N, n = 17_793_691, 100_000
        res = concentration_bound(N, n, 62278 / N)
        assert res.family_used is BoundFamily.B2
        assert res.value == pytest.approx(0.17021279791623387, rel=1e-9)
        assert abs(res.value - 0.1702) < 5e-4

    def test_kl_two_sided_sums_both_tails(self):
        res = concentration_bound(10, 5, 0.3, BoundFamily.KL, M=7)
        up = kl_upper_tail_bound((10, 7), 5, 0.3)
        down = kl_upper_tail_bound((10, 3), 5, 0.3)
        assert res.two_sided
        assert res.value == pytest.approx(up.value + down.value, rel=1e-10)
        # 0.7^5 + 49/128 with exact rational deviation 3/10.
        assert res.value == pytest.approx(0.5508825, rel=1e-9)

    def test_kl_two_sided_dominates_exact_probability(self):
        res = concentration_bound(10, 5, 0.3, BoundFamily.KL, M=7)
        exact = two_sided_exact((10, 7), 5, 1.5)
        assert res.value >= float(exact.value)

    def test_kl_two_sided_zero_when_both_tails_impossible(self):
        res = concentration_bound(4, 2, 0.75, BoundFamily.KL, M=2)
        assert res.value == 0.0
        assert res.exponent == float("-inf")

    def test_kl_needs_m(self):
        with pytest.raises(UnsupportedBoundError):
            concentration_bound(10, 5, 0.3, BoundFamily.KL)

    def test_complement_families_need_partial_sample(self):
        with pytest.raises(UnsupportedBoundError):
            concentration_bound(10, 10, 0.3, BoundFamily.B3)
        with pytest.raises(UnsupportedBoundError):
            concentration_bound(10, 10, 0.3, BoundFamily.B4)

    def test_rejects_non_family(self):
        with pytest.raises(DomainError):
            concentration_bound(10, 5, 0.3, "b2")

    def test_rejects_out_of_range_m(self):
        # A given M must fit the population whatever the family.
        for family in (BoundFamily.KL, BoundFamily.B2, BoundFamily.AUTO):
            for M in (11, -1):
                with pytest.raises(DomainError, match="M must satisfy"):
                    concentration_bound(10, 5, 0.3, family, M=M)
                with pytest.raises(DomainError, match="M must satisfy"):
                    tail_bound(10, 5, 0.3, family, M=M)

    def test_two_sided_exponent_is_built_from_the_one_sided(self):
        # B1-B4 and AUTO keep the one-sided exponent; KL log-adds the upper
        # tails at M and N - M, each clamped to 0, and halves the sum.
        rng = random.Random("two-sided-exponent")
        cases = []
        for _ in range(400):
            N = rng.choice((rng.randint(1, 60), rng.randint(10**3, 10**8),
                            rng.randint(2**53 - 100, 2**60)))
            n, M = rng.choice((rng.randint(1, N), N)), rng.randint(0, N)
            t = rng.choice((rng.uniform(1e-4, 0.7),
                            Fraction(rng.randint(1, 40), rng.randint(1, 60))))
            cases.append((N, n, M, t))
        # p + t = 1 with p = 1 - 2^-60 and n = 2^50: the upper tail's p^n
        # exponent is raised above 0, so its clamp shows in the sum.
        cases.append((2**60, 2**50, 2**60 - 1, Fraction(1, 2**60)))
        assert kl_upper_tail_bound((2**60, 2**60 - 1), 2**50, Fraction(1, 2**60)).exponent == 0.0
        for N, n, M, t in cases:
            for family in BoundFamily:
                for m in (None, M):
                    if family is BoundFamily.KL:
                        if m is None:
                            continue
                        up = kl_upper_tail_bound((N, m), n, t)
                        down = kl_upper_tail_bound((N, N - m), n, t)
                        expected = min(0.0, _log_add(up.exponent, down.exponent) - math.log(2.0))
                    elif n == N and family in (BoundFamily.B3, BoundFamily.B4):
                        continue
                    else:
                        expected = tail_bound(N, n, t, family, m).exponent
                    assert concentration_bound(N, n, t, family, m).exponent == expected

    @given(
        Nn=population_and_sample(n_below_N=True),
        t=T_STRAT,
        family=st.sampled_from(
            [BoundFamily.B1, BoundFamily.B2, BoundFamily.B3, BoundFamily.B4]
        ),
    )
    def test_value_exponent_contract(self, Nn, t, family):
        N, n = Nn
        res = concentration_bound(N, n, t, family)
        assert res.two_sided
        assert res.exponent <= 0.0
        assert res.value == min(1.0, 2.0 * math.exp(res.exponent))


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: b1_tail(0, 0.1),
            lambda: b1_tail(5, 0.0),
            lambda: b1_tail(5, -0.2),
            lambda: b1_tail(5, float("nan")),
            lambda: b1_tail(5, "abc"),
            lambda: b2_tail(10, 11, 0.1),
            lambda: b3_tail(10, 10, 0.1),
            lambda: b4_tail(10, 10, 0.1),
            lambda: kl_upper_tail_bound((10, 7), 11, 0.1),
            lambda: kl_upper_tail_bound((10, 7), 5, 0.0),
            lambda: best_bound(10, 0, 0.1),
            lambda: concentration_bound(10, 5, -1.0),
            lambda: b2_tail(10, 5, True),
            lambda: b2_tail(10, 5, "0.5"),
            lambda: kl_upper_tail_bound((10, 7), 5, "0.1"),
            lambda: tail_bound(10, 5, Fraction(1, 10**400)),
            lambda: b2_tail(10, 5, None),
        ],
    )
    def test_domain_errors(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("N, M", [(0, 0), (10, -1), (10, 11), (True, 1), (10, False)])
    def test_population_errors_match_population(self, N, M):
        # Every route reads (N, M) through one reader, with Population's messages.
        with pytest.raises(DomainError) as expected:
            Population(N, M)
        for call in (
            lambda: tail_bound(N, 5, 0.1, M=M),
            lambda: concentration_bound(N, 5, 0.1, BoundFamily.KL, M=M),
            lambda: kl_upper_tail_bound((N, M), 5, 0.1),
            lambda: kl_upper_tail_bound(Population(N, M), 5, 0.1),
        ):
            with pytest.raises(DomainError) as raised:
                call()
            assert str(raised.value) == str(expected.value)

    @given(Nn=population_and_sample(n_below_N=True), t=T_STRAT)
    def test_single_tail_contract(self, Nn, t):
        N, n = Nn
        for res in (
            b1_tail(n, t),
            b2_tail(N, n, t),
            b3_tail(N, n, t),
            b4_tail(N, n, t),
        ):
            assert isinstance(res, BoundValue)
            assert not res.two_sided
            assert res.exponent <= 0.0
            assert res.value == min(1.0, math.exp(res.exponent))


class TestRationalDeviation:
    def test_kl_at_the_typed_ratio(self):
        # p + t = 4/5 + 1/5 = 1: the event i >= 10 has probability
        # 15149909/159277783, about 0.0951, and the bound is 0.8^10.
        res = kl_upper_tail_bound((100, 80), 10, Fraction(1, 5))
        assert res.value == pytest.approx(0.8**10, rel=1e-12)
        assert res.value >= Fraction(15149909, 159277783)

    def test_every_bound_dominates_the_tail_at_its_own_ratio(self):
        # Every N <= 40, M and n, with t = a/n and t = (N - M)/N kept as
        # Fractions: the event i >= (p + t) n starts at k = ceil(nM/N) + a,
        # or at n, and every bound must lie above its probability, compared
        # as rationals.  The closed forms do not depend on M, so their
        # smallest value is taken once per t.
        violations = []
        for N in range(1, 41):
            for n in range(1, N + 1):
                denom = math.comb(N, n)
                ratios = [Fraction(a, n) for a in range(1, n + 1)]
                closed = [min((v, name) for name, v in _closed_forms(N, n, t)) for t in ratios]
                for M in range(N + 1):
                    tails = [0] * (n + 2)  # numerators of P[i >= k]
                    for k, w in reversed(list(enumerate(oracles.weights(N, M, n)))):
                        tails[k] = tails[k + 1] + w
                    start = -(-M * n // N)
                    cases = [(t, start + a, c) for a, t, c in zip(range(1, n + 1), ratios, closed)]
                    if M < N:
                        t = Fraction(N - M, N)
                        cases.append((t, n, min((v, name) for name, v in _closed_forms(N, n, t))))
                    for t, k, least in cases:
                        kl = (kl_upper_tail_bound((N, M), n, t).value, "kl")
                        for value, name in (least, kl):
                            vn, vd = value.as_integer_ratio()
                            if tails[min(k, n + 1)] * vd > vn * denom:
                                violations.append((N, M, n, t, name))
        assert not violations, f"{len(violations)} violations, first: {violations[:5]}"


def _closed_forms(N, n, t):
    yield "b1", b1_tail(n, t).value
    yield "b2", b2_tail(N, n, t).value
    yield "auto", tail_bound(N, n, t).value
    if n < N:
        yield "b3", b3_tail(N, n, t).value
        yield "b4", b4_tail(N, n, t).value


class TestSamplesPastTheFloatRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: tail_bound(10**400, 10**399, 0.1),
            lambda: concentration_bound(10**400, 10**399, 0.1),
            lambda: b1_tail(10**399, Fraction(1, 10)),
            lambda: tail_bound(10**400, 10**399, 0.1, BoundFamily.B3),
            lambda: tail_bound(10**400, 10**399, 0.1, BoundFamily.KL, 10**399),
            lambda: concentration_bound(10**400, 10**399, 0.1, BoundFamily.KL, 10**399),
            lambda: kl_upper_tail_bound((10**400, 3 * 10**399), 10**399, 0.25),
        ],
    )
    def test_an_exponent_that_overflows_gives_zero(self, call):
        # n = 10^399 is past the largest float, and so is t^2 n g.
        res = call()
        assert res.value == 0.0 and res.exponent == float("-inf")

    def test_an_exponent_that_may_not_overflow_is_refused(self):
        # 2 t^2 n g is about 0.2 here, but no float holds n = 10^399.
        with pytest.raises(DomainError, match="n passes the largest float"):
            tail_bound(10**400, 10**399, 1e-200)


class TestCoefficientPastTheFloatRange:
    @pytest.mark.parametrize(
        "call",
        [
            # g = N / (N - n + 1) and the B4 g pass the largest float.
            lambda: tail_bound(10**400, 10**400, 0.1),
            lambda: concentration_bound(10**400, 10**400 - 5, 0.1),
            # The KL bound's p^n branch, at p + t = 1.
            lambda: kl_upper_tail_bound((10**400, 10**399), 10**399, Fraction(9, 10)),
        ],
    )
    def test_an_exponent_that_overflows_gives_zero(self, call):
        res = call()
        assert res.value == 0.0 and res.exponent == float("-inf")

    def test_p_to_the_n_that_overflows_in_floats_gives_zero(self):
        # n log p = 10^308 log(0.1) is -inf as a float, with n a float.
        res = kl_upper_tail_bound((10**308, 10**307), 10**308, Fraction(9, 10))
        assert res.value == 0.0 and res.exponent == float("-inf")
