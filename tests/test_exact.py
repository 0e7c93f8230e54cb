import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypertail import exact
from hypertail._validation import check_positive
from hypertail import (
    DomainError,
    ExactProb,
    Population,
    RATIONAL_LIMIT,
    as_population,
    flip_symmetry,
    lower_tail,
    pmf,
    swap_symmetry,
    two_sided_exact,
    upper_tail,
)


@st.composite
def pop_sample(draw, max_N=60, min_n=0):
    N = draw(st.integers(1, max_N))
    M = draw(st.integers(0, N))
    n = draw(st.integers(min_n, N))
    return N, M, n


class TestPmf:
    def test_known_values(self):
        assert pmf((10, 7), 5, 3).value == Fraction(105, 252)
        assert pmf((10, 7), 5, 1).value == 0
        assert pmf((10, 7), 5, 0).value == 0
        assert pmf((6, 3), 3, 1).value == Fraction(9, 20)

    def test_zero_outside_support(self):
        # i > M and n - i > N - M both give probability zero, not errors.
        assert pmf((10, 2), 5, 3).value == 0
        assert pmf((10, 9), 5, 0).value == 0
        # A walk of no terms costs nothing, so auto stays exact at any N.
        zero = pmf((10**6, 10), 5 * 10**5, 11)
        assert zero.is_exact and zero.value == 0

    def test_degenerate_sample(self):
        assert pmf((7, 3), 0, 0).value == 1

    def test_population_forms(self):
        assert pmf(Population(10, 7), 5, 3).value == pmf((10, 7), 5, 3).value
        assert as_population([10, 7]) == Population(10, 7)
        assert as_population(10) == Population(10)

    @given(pop_sample())
    def test_matches_oracle(self, pms):
        N, M, n = pms
        for i in range(n + 1):
            assert pmf((N, M), n, i).value == oracles.pmf(N, M, n, i)

    @given(pop_sample())
    def test_normalization(self, pms):
        N, M, n = pms
        total = sum((pmf((N, M), n, i).value for i in range(n + 1)), Fraction(0))
        assert total == 1

    @given(pop_sample(min_n=0))
    def test_pointwise_symmetries(self, pms):
        N, M, n = pms
        for i in range(n + 1):
            value = pmf((N, M), n, i).value
            assert value == pmf((N, N - M), n, n - i).value
            if 0 <= M - i <= N - n:
                assert value == pmf((N, M), N - n, M - i).value


class TestTails:
    def test_known_values(self):
        assert lower_tail((10, 7), 5, 2).value == Fraction(21, 252)
        assert lower_tail((10, 7), 5, 5).value == 1
        assert lower_tail((6, 3), 3, 1).value == Fraction(1, 2)
        assert upper_tail((10, 7), 5, 5).value == Fraction(21, 252)
        assert upper_tail((10, 7), 5, 0).value == 1
        assert upper_tail((6, 3), 3, 2).value == Fraction(1, 2)

    def test_thresholds_outside_range(self):
        # Degenerate sums: below the support for lower, above for upper.
        assert lower_tail((10, 7), 5, -1).value == 0
        assert lower_tail((10, 7), 5, 7).value == 1
        assert upper_tail((10, 7), 5, -2).value == 1
        assert upper_tail((10, 7), 5, 6).value == 0

    @given(pop_sample())
    def test_matches_oracle(self, pms):
        N, M, n = pms
        for k in range(-1, n + 2):
            assert lower_tail((N, M), n, k).value == oracles.lower_tail(N, M, n, k)
            assert upper_tail((N, M), n, k).value == oracles.upper_tail(N, M, n, k)

    @given(pop_sample())
    def test_monotone_in_threshold(self, pms):
        N, M, n = pms
        lows = [lower_tail((N, M), n, k).value for k in range(n + 1)]
        ups = [upper_tail((N, M), n, k).value for k in range(n + 1)]
        assert all(a <= b for a, b in zip(lows, lows[1:]))
        assert all(a >= b for a, b in zip(ups, ups[1:]))

    @given(pop_sample())
    def test_tails_overlap_by_one_term(self, pms):
        N, M, n = pms
        for k in range(n + 1):
            total = lower_tail((N, M), n, k).value + upper_tail((N, M), n, k).value
            assert total == 1 + pmf((N, M), n, k).value

    def test_rational_tail_beyond_the_binomial_sums(self):
        # A sum of 20,001 comb products of ~10^5-bit integers did not
        # finish in minutes.  P is about e^-2018, below the doubles, so
        # the Fraction itself is compared with mpmath.  Under "auto" the
        # walk is priced past the budget and the float underflows to
        # 0.0, so only its log is compared.
        N, M, n, k = 10**5, 5 * 10**4, 5 * 10**4, 2 * 10**4
        res = lower_tail((N, M), n, k, mode="rational")
        assert res.is_exact
        auto = lower_tail((N, M), n, k)
        with mpmath.workdps(40):
            ref = _mp_lower(N, M, n, k)
            value = mpmath.mpf(res.value.numerator) / res.value.denominator
            assert abs(value - ref) <= 1e-12 * ref
            assert abs(res.log_value - mpmath.log(ref)) <= 1e-12 * -res.log_value
            assert abs(auto.log_value - mpmath.log(ref)) <= 1e-12 * -auto.log_value


class TestTwoSided:
    def test_known_values(self):
        assert two_sided_exact((10, 7), 5, 1.5).value == Fraction(42, 252)
        assert two_sided_exact((10, 7), 5, 10).value == 0
        assert two_sided_exact((6, 3), 3, 1.5).value == Fraction(1, 10)

    def test_boundary_is_inclusive(self):
        # mean = 3.5; c = 0.5 puts i = 3 and i = 4 exactly on the
        # boundary, and both are included.
        assert two_sided_exact((10, 7), 5, Fraction(1, 2)).value == 1

    @given(
        pop_sample(max_N=30),
        st.one_of(
            st.floats(min_value=0.01, max_value=31, allow_nan=False),
            st.fractions(min_value=Fraction(1, 100), max_value=30),
        ),
    )
    def test_matches_oracle(self, pms, c):
        N, M, n = pms
        assert two_sided_exact((N, M), n, c).value == oracles.two_sided(N, M, n, c)

    def test_equals_the_sum_of_its_tails(self):
        # lo..hi is the open range |iN - nM| < cN, found by enumeration;
        # an empty range splits the outcomes at floor(nM/N).
        for N in range(1, 21):
            for M, n, mode in itertools.product(range(N + 1), range(N + 1), ("rational", "log")):
                for c in (Fraction(1, 2), 1, Fraction(7, 3), Fraction(n, 3) + Fraction(1, 10)):
                    inside = [i for i in range(n + 1) if abs(i * N - n * M) < c * N]
                    lo, hi = (inside[0], inside[-1]) if inside else (n * M // N + 1, n * M // N)
                    both = two_sided_exact((N, M), n, c, mode=mode)
                    low = lower_tail((N, M), n, lo - 1, mode=mode)
                    high = upper_tail((N, M), n, hi + 1, mode=mode)
                    if mode == "rational":
                        assert both.is_exact and both.value == low.value + high.value
                    elif low.value == 0 or high.value == 0:
                        rest = high if low.value == 0 else low
                        assert (both.value, both.log_value) == (rest.value, rest.log_value)
                    else:
                        assert abs(both.value - low.value - high.value) <= 1e-14 * both.value

    def test_rejects_nonpositive_deviation(self):
        with pytest.raises(DomainError):
            two_sided_exact((10, 7), 5, 0)
        with pytest.raises(DomainError):
            two_sided_exact((10, 7), 5, -1.5)
        with pytest.raises(DomainError):
            two_sided_exact((10, 7), 5, float("nan"))


class TestSymmetryTransforms:
    def test_flip_examples(self):
        assert flip_symmetry((10, 7), 5, 2) == (Population(10, 3), 3)
        assert flip_symmetry((10, 5), 4, 2) == (Population(10, 5), 2)
        flipped, threshold = flip_symmetry((6, 2), 3, 0)
        assert (flipped, threshold) == (Population(6, 4), 3)
        assert lower_tail((6, 2), 3, 0).value == Fraction(4, 20)
        assert upper_tail(flipped, 3, threshold).value == Fraction(4, 20)

    def test_swap_examples(self):
        assert swap_symmetry((10, 7), 5, 2) == (5, 5)
        assert swap_symmetry((10, 7), 5, 7) == (5, 0)
        assert lower_tail((10, 7), 5, 7).value == 1
        assert upper_tail((10, 7), 5, 0).value == 1
        assert swap_symmetry((6, 3), 2, 1) == (4, 2)
        assert lower_tail((6, 3), 2, 1).value == upper_tail((6, 3), 4, 2).value

    def test_swap_rejects_census(self):
        with pytest.raises(DomainError):
            swap_symmetry((10, 7), 10, 2)

    @given(pop_sample(max_N=40))
    def test_identities_hold_exactly(self, pms):
        N, M, n = pms
        for k in range(-1, n + 2):
            flipped, kf = flip_symmetry((N, M), n, k)
            assert lower_tail((N, M), n, k).value == upper_tail(flipped, n, kf).value
            if n < N:
                ns, ks = swap_symmetry((N, M), n, k)
                assert (
                    lower_tail((N, M), n, k).value
                    == upper_tail((N, M), ns, ks).value
                )


class TestLogSpace:
    @given(pop_sample(max_N=120))
    @settings(max_examples=30)
    def test_log_path_agrees_with_rational(self, pms):
        N, M, n = pms
        for i in range(n + 1):
            exact = oracles.pmf(N, M, n, i)
            approx = pmf((N, M), n, i, mode="log")
            if exact == 0:
                assert approx.value == 0
                assert approx.log_value == float("-inf")
            else:
                assert abs(approx.value - exact) <= 1e-10 * exact

    def test_log_path_at_scale(self):
        # The log path at N = 10^8; verified against a directly
        # computed rational value.
        N, M, n, i = 10**8, 3 * 10**7, 1000, 300
        exact = oracles.pmf(N, M, n, i)
        approx = pmf((N, M), n, i, mode="log")
        assert not approx.is_exact
        assert math.exp(approx.log_value) == approx.value
        assert abs(approx.value - exact) <= 1e-10 * exact
        tail = upper_tail((N, M), n, 320, mode="log")
        tail_exact = oracles.upper_tail(N, M, n, 320)
        assert abs(tail.value - tail_exact) <= 1e-10 * tail_exact
        # The log path agrees with the rational one at N = 10^150 too
        # (TestLogPathPastTheFloatRange goes to N = 10^1000).
        log = upper_tail((10**150, 10**149), 1000, 130, mode="log")
        exact = upper_tail((10**150, 10**149), 1000, 130, mode="rational")
        assert abs(log.value - exact.value) <= 1e-12 * exact.value
        assert lower_tail((10**400, 10), 5, 0, mode="rational").is_exact

    def test_auto_mode_switches_on_price(self):
        # A cheap walk stays exact at any N; a dear one takes the log
        # path.  At N = 10^30 the price's bit count must not cancel: a
        # price that did sent the last tail to a 9.6 s rational walk.
        assert pmf((RATIONAL_LIMIT, 10), 5, 1).is_exact
        assert pmf((RATIONAL_LIMIT + 1, 10), 5, 1).is_exact
        assert upper_tail((10**8, 3 * 10**7), 100, 30).is_exact
        assert upper_tail((10**30, 10**29), 20, 5).is_exact
        assert not pmf((2 * 10**5, 10**5), 10**5, 5 * 10**4).is_exact
        assert not upper_tail((10**30, 10**29), 10**4, 1300).is_exact

    def test_mode_override(self):
        assert not pmf((10, 7), 5, 3, mode="log").is_exact
        assert pmf((10, 7), 5, 3, mode="rational").is_exact

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            pmf((10, 7), 5, 3, mode="fast")

    def test_certain_and_impossible_tails(self):
        certain = upper_tail((10, 7), 5, 0, mode="log")
        assert not certain.is_exact
        assert certain.value == 1.0 and type(certain.value) is float
        impossible = upper_tail((10, 7), 5, 6, mode="log")
        assert impossible.value == 0.0
        assert impossible.log_value == float("-inf")


def _mp_log_pmf(N, M, n, i):
    def log_comb(x, y):
        return mpmath.loggamma(x + 1) - mpmath.loggamma(y + 1) - mpmath.loggamma(x - y + 1)

    return log_comb(M, i) + log_comb(N - M, n - i) - log_comb(N, n)


def _mp_walk(N, M, n, k, step):
    """Sum of the pmf from k in direction `step` (+1 or -1) until the
    terms fall below 10^-45 of the sum or leave the support."""
    lo, hi = max(0, n - (N - M)), min(n, M)
    if not lo <= k <= hi:
        return mpmath.mpf(0)
    term = total = mpmath.exp(_mp_log_pmf(N, M, n, k))
    i = k
    while lo <= i + step <= hi and term >= total * mpmath.mpf(10) ** -45:
        if step > 0:
            term *= mpmath.mpf((M - i) * (n - i)) / ((i + 1) * (N - M - n + i + 1))
        else:
            term *= mpmath.mpf(i * (N - M - n + i)) / ((M - i + 1) * (n - i + 1))
        i += step
        total += term
    return total


def _mp_lower(N, M, n, k):
    """P[i <= k], summed away from the mean n M / N."""
    if k * N >= n * M:
        return 1 - _mp_walk(N, M, n, k + 1, 1)
    return _mp_walk(N, M, n, k, -1)


def _mp_upper(N, M, n, k):
    """P[i >= k], summed away from the mean n M / N."""
    if k * N <= n * M:
        return 1 - _mp_walk(N, M, n, k - 1, -1)
    return _mp_walk(N, M, n, k, 1)


def _mp_two_sided(N, M, n, c):
    mean, c = Fraction(n * M, N), Fraction(c)
    return _mp_lower(N, M, n, math.floor(mean - c)) + _mp_upper(
        N, M, n, math.ceil(mean + c)
    )


_SCALES = {
    "N1e8": (10**8, 3 * 10**7, 10**4),  # mean 3,000, sd about 46
    "poll": (17_793_691, 1_017_800, 10**5),  # mean about 5,720, sd about 73
    "N1e8-n1e6": (10**8, 3 * 10**7, 10**6),  # mean 300,000, sd about 456
    "small-far": (31_350, 4_729, 29_078),  # far outcomes: _bd0's |v| >= 1/2 branch
}


class TestLogPathAgainstMpmath:
    """The log path within 1e-12 relative of mpmath at 40 digits."""

    @pytest.mark.parametrize(
        "scale, call, arg",
        [
            ("N1e8", "pmf", 3000),
            ("N1e8", "pmf", 2800),
            ("N1e8", "lower", 2990),  # near the mean
            ("N1e8", "upper", 3010),
            ("N1e8", "lower", 2800),  # tails
            ("N1e8", "upper", 3200),
            ("N1e8", "lower", 3300),  # far side, P close to 1
            ("N1e8", "upper", 2700),
            ("N1e8", "upper", 1),  # P = 1 - 0.7^10^4
            ("N1e8", "two", 1),
            ("N1e8", "two", 150),
            ("poll", "pmf", 5720),
            ("poll", "lower", 5700),
            ("poll", "upper", 5750),
            ("poll", "lower", 5400),
            ("poll", "upper", 6000),
            ("poll", "upper", 5500),
            ("poll", "lower", 99_999),  # P = 1 - pmf(n)
            ("poll", "two", 0.5),
            ("poll", "two", 200),
            ("N1e8-n1e6", "pmf", 300_000),
            ("N1e8-n1e6", "pmf", 298_000),
            ("N1e8-n1e6", "lower", 299_900),  # near the mean
            ("N1e8-n1e6", "upper", 300_100),
            ("N1e8-n1e6", "lower", 298_500),  # tails
            ("N1e8-n1e6", "upper", 301_600),
            ("N1e8-n1e6", "lower", 302_800),  # far side, P close to 1
            ("N1e8-n1e6", "upper", 297_300),
            ("N1e8-n1e6", "two", 0.5),
            ("N1e8-n1e6", "two", 1_400),
            ("small-far", "pmf", 3_693),  # about 1.7e-290
        ],
    )
    def test_within_1e12_of_mpmath(self, scale, call, arg):
        N, M, n = _SCALES[scale]
        lib, ref = {
            "pmf": (pmf, _mp_log_pmf),
            "lower": (lower_tail, _mp_lower),
            "upper": (upper_tail, _mp_upper),
            "two": (two_sided_exact, _mp_two_sided),
        }[call]
        res = lib((N, M), n, arg, mode="log")
        assert not res.is_exact
        with mpmath.workdps(40):
            expected = ref(N, M, n, arg)
            if call == "pmf":
                expected = mpmath.exp(expected)
            assert abs(res.value - expected) <= 1e-12 * expected


class TestLogPmfSweep:
    def test_seeded_sweep_against_mpmath(self):
        # Random N up to 10^8 with M and n at the ends of their ranges or
        # anywhere inside, and i at the support ends, near the mode or
        # where the log pmf crosses a target down to -700.  A log pmf
        # below the doubles, -745, is checked relative to itself.
        rng = random.Random(20240506)
        worst = 0.0
        for _ in range(2000):
            N = int(10 ** rng.uniform(0, 8))
            M, n = (
                rng.choice([0, N, rng.randint(0, min(N, 3)), N - rng.randint(0, min(N, 3)),
                            rng.randint(0, N)])
                for _ in range(2)
            )
            lo, hi = max(0, n - (N - M)), min(n, M)
            mode = min(max((n + 1) * (M + 1) // (N + 2), lo), hi)
            with mpmath.workdps(40):
                ref = functools.partial(_mp_log_pmf, N, M, n)
                i = rng.choice([
                    lo, hi, mode, lo - 1, hi + 1,
                    _crossing(ref, mode, rng.choice([lo, hi]), -rng.uniform(0, 700)),
                ])
                res = pmf((N, M), n, i, mode="log") if 0 <= i <= n else None
                if res is None:
                    continue
                if not lo <= i <= hi:
                    assert res.value == 0 and res.log_value == float("-inf")
                    continue
                expected = ref(i)
                err = float(abs(res.log_value - expected))
            if expected >= -745:
                # Relative error of a pmf that the doubles can hold.
                worst = max(worst, err)
                assert err <= 1e-12, (N, M, n, i, err)
            else:
                assert err <= 1e-14 * -float(expected), (N, M, n, i, err)
        assert worst > 0  # the sweep reached cases that round


class TestLogPathPastTheFloatRange:
    """The log path at N past the largest float, within 1e-12 of mpmath at
    more digits than N has: relative in the value where it is a normal
    double, else in the log, relative to max(1, |log|); a log below the
    float range reads -inf."""

    @pytest.mark.parametrize("N", [10**150, 10**160, 10**200, 10**400, 10**1000],
                             ids=["1e150", "1e160", "1e200", "1e400", "1e1000"])
    def test_within_1e12_of_mpmath(self, N):
        calls = [
            ("pmf", (N, N // 3), 1000, 0),  # i = 0: q^m of the positives
            ("pmf", (N, N // 3), 1000, 1000),  # i = n: q^m of the negatives, below the doubles
            ("pmf", (N, N // 3), 1000, 333),  # the mode
            ("upper", (N, N // 3), 1000, 380),  # about 3 sd above the mean
            ("lower", (N, N // 3), 1000, 290),
            ("pmf", (N, N - 10), 1000, 1000),  # i = n, close to 1
            ("pmf", (N, 10), 10**5, 10),  # i = M: p^m at a tiny mean
            ("pmf", (N, 10), 10**5, 3),
            ("lower", (N, 10), 10**5, 0),  # i = 0, close to 1
            ("upper", (N, 10), 10**5, 1),
        ]
        if N == 10**200:
            calls += [("upper", (N, N // 10), 1000, 200), ("pmf", (N, 10), 5, 1)]
        if N == 10**400:
            # x / m = 10^301 passes the float range in bd0, and the values
            # are normal doubles.
            calls += [("pmf", (N, 10), 10**98, 1), ("upper", (N, 10), 10**98, 1),
                      ("lower", (N, N // 10), 1000, 50)]
        if N >= 10**400:
            # n near the largest float: 2 pi s passes it at s > 2.9e307, and
            # x log(x / m) in bd0 at the last pmf, whose log is -1.6e308.
            big = 17 * 10**307
            calls += [("pmf", (N, N // 2), 4 * 10**307, 2 * 10**307),  # the mode
                      ("upper", (N, N // 2), 4 * 10**307, 3 * 10**307),
                      ("pmf", (N, N // 2), big, big // 2),
                      ("lower", (N, N // 2), big, 6 * 10**307),
                      ("upper", (N, N // 2), big, 11 * 10**307),
                      ("pmf", (N, N // 1000), 95 * 10**306, 95 * 10**306 // 3),
                      ("pmf", (N, N // 10**20), big, big)]  # a log h below -1.8e308
        lib = {"pmf": pmf, "lower": lower_tail, "upper": upper_tail}
        ref = {"pmf": _mp_log_pmf, "lower": _mp_lower, "upper": _mp_upper}
        with mpmath.workdps(len(str(N)) + 30):
            for call, pop, n, k in calls:
                res = lib[call](pop, n, k, mode="log")
                assert not res.is_exact
                expected = ref[call](*pop, n, k)
                expected = expected if call == "pmf" else mpmath.log(expected)
                if expected < -1.7976931348623157e308:
                    assert res.value == 0 and res.log_value == float("-inf")
                    continue
                if expected >= math.log(2.0**-1022):
                    err = abs(res.value - mpmath.exp(expected)) / mpmath.exp(expected)
                else:
                    err = abs(res.log_value - expected) / max(1, -expected)
                assert err <= 1e-12, (call, pop, n, k, float(err))


def _crossing(log_pmf, start, end, target):
    """The last i from start toward end with log_pmf(i) >= target: the
    pmf falls monotonically away from the mode."""
    if log_pmf(end) >= target:
        return end
    good, bad = start, end
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if log_pmf(mid) >= target else (good, mid)
    return good


class TestLogWalk:
    def test_stop_tested_every_term_changes_nothing(self, monkeypatch):
        # The walk tests its stop once every _CHECK terms.  A term added
        # after the earliest stop is below half an ulp of the total, so
        # testing after every term returns the same floats.
        rng = random.Random(20261020)
        calls = []
        for _ in range(200):
            N = int(10 ** rng.uniform(2, 8))
            M, n = rng.randint(1, N - 1), rng.randint(1, min(N - 1, 10**5))
            peak = (n + 1) * (M + 1) // (N + 2)
            sd = math.sqrt(n * M * (N - M) * (N - n) / (N * N * (N - 1)))
            x = rng.uniform(0, 8) * sd
            calls += [
                (lower_tail, (N, M), n, math.floor(peak - x)),
                (upper_tail, (N, M), n, math.ceil(peak + x)),
                (two_sided_exact, (N, M), n, x + 0.5),
            ]
        batched = [call(*args, mode="log") for call, *args in calls]
        monkeypatch.setattr(exact, "_CHECK", 1)
        assert [call(*args, mode="log") for call, *args in calls] == batched

    @pytest.mark.parametrize("n", [8190, 8191])
    def test_float_and_integer_counters(self, n):
        # The log walk steps its counters as floats below (N + 1)(n + 1)
        # = 2^53, where each is an exact integer, and as ints above.
        N, M = 2**40, 2**36
        assert ((N + 1) * (n + 1) < 2**53) == (n == 8190)
        for call, k in [(lower_tail, 430), (upper_tail, 500)]:
            exact_value = call((N, M), n, k, mode="rational").value
            assert abs(call((N, M), n, k, mode="log").value - exact_value) <= 1e-12 * exact_value


class TestAutoPrice:
    @pytest.mark.parametrize(
        "call, args",
        [
            # About 20 s on the rational path: 5*10^4 terms of a
            # 469,000-bit walk.
            ("lower", ((10**6, 5 * 10**5), 10**5, 5 * 10**4)),
            # Minutes on the rational path: 2.5*10^5 terms of 10^6 bits.
            ("lower", ((10**6, 5 * 10**5), 5 * 10**5, 25 * 10**4)),
            # A pmf at the mode with three 10^6-bit binomials, about 20 s.
            ("pmf", ((10**6, 5 * 10**5), 5 * 10**5, 25 * 10**4)),
        ],
    )
    def test_slow_rational_cases_take_the_log_path(self, call, args):
        lib, ref = {"pmf": (pmf, _mp_log_pmf), "lower": (lower_tail, _mp_lower)}[call]
        res = lib(*args)
        assert not res.is_exact
        (N, M), n, k = args
        with mpmath.workdps(40):
            expected = ref(N, M, n, k)
            if call == "pmf":
                expected = mpmath.exp(expected)
            assert abs(res.value - expected) <= 1e-12 * expected

    def test_certain_and_impossible_tails_stay_exact(self):
        # No walk to price: these cost nothing on the rational path.
        pop, n = (10**6, 5 * 10**5), 5 * 10**5
        for res, value in [
            (upper_tail(pop, n, 0), 1),
            (lower_tail(pop, n, n), 1),
            (upper_tail(pop, n, n + 1), 0),
            (lower_tail(pop, n, -1), 0),
            (two_sided_exact(pop, n, 10**6), 0),
        ]:
            assert res.is_exact and res.value == value
        # The same above RATIONAL_LIMIT, where a walk with terms takes the
        # log path; M = 10 leaves outcomes 11..n outside the support.
        for N in (RATIONAL_LIMIT + 1, 10**8):
            pop, n = (N, 10), 5 * 10**5
            for res, value in [
                (upper_tail(pop, n, 0), 1),
                (upper_tail(pop, n, 11), 0),
                (lower_tail(pop, n, -1), 0),
                (lower_tail(pop, n, n), 1),
                (pmf(pop, n, 11), 0),
                (two_sided_exact(pop, n, 10**9), 0),
            ]:
                assert res.is_exact and res.value == value

    def test_two_sided_prices_both_walks_at_once(self):
        # Each walk is about 590 terms of C(12000, 6000), priced at about
        # 2.2*10^7 alone but 4.4*10^7 together: one tail stays rational,
        # and the two-sided probability takes the log path for both.
        pop, n, c = (12000, 1200), 6000, 10
        assert upper_tail(pop, n, 600 + c).is_exact
        res = two_sided_exact(pop, n, c)
        assert not res.is_exact
        with mpmath.workdps(40):
            expected = _mp_two_sided(*pop, n, c)
            assert abs(res.value - expected) <= 1e-12 * expected

    def test_benchmark_grid_sizes_stay_rational(self):
        # pmf and tails at N = 10^4, n = 300, the largest rational
        # points of the benchmark grid.
        for k in range(0, 301, 10):
            assert pmf((10**4, 4000), 300, k).is_exact
            assert lower_tail((10**4, 4000), 300, k).is_exact
            assert upper_tail((10**4, 4000), 300, k).is_exact
        assert two_sided_exact((10**4, 4000), 300, 30.5).is_exact


class TestExactProb:
    @given(pop_sample())
    def test_log_value_consistency(self, pms):
        N, M, n = pms
        for k in range(n + 1):
            res = lower_tail((N, M), n, k)
            if res.value == 0:
                assert res.log_value == float("-inf")
            else:
                # exp(log_value) reproduces the value to high relative
                # accuracy even immediately below 1.
                assert math.isclose(
                    math.exp(res.log_value), float(res.value), rel_tol=1e-12
                )

    def test_log_below_the_normal_floats(self):
        # Exact values below 2^-1022, subnormal or 0.0 as floats, keep a
        # log as accurate as a normal one.
        cases = [pmf((N, N // 2), N // 2, 0) for N in range(1056, 1079)]
        cases.append(lower_tail((10**5, 5 * 10**4), 5 * 10**4, 2 * 10**4, mode="rational"))
        with mpmath.workdps(40):
            for res in cases:
                assert res.is_exact and res.value < Fraction(1, 2**1022)
                expected = mpmath.log(mpmath.mpf(res.value.numerator) / res.value.denominator)
                assert abs(res.log_value - expected) <= 1e-15 * -expected

    def test_float_conversion(self):
        assert float(pmf((10, 7), 5, 3)) == 105 / 252

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ExactProb(Fraction(3, 2), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call, k", [(pmf, 3000), (upper_tail, 3100), (upper_tail, 2990)])
    def test_log_path_rejects_a_nan_or_inf_log(self, monkeypatch, bad, call, k):
        # A float that overflowed on the way must not read as probability 1.
        # upper_tail at 2990, on the rising side, walks the flipped tail.
        monkeypatch.setattr(exact, "_log_pmf", lambda *args: bad)
        with pytest.raises(DomainError, match="below \\+inf"):
            call((10**8, 3 * 10**7), 10**4, k, mode="log")

    def test_from_log_clamps_a_rounding_above_zero(self):
        assert ExactProb.from_log(1e-16) == ExactProb(1.0, 0.0)


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: pmf((10, 7), 11, 3),
            lambda: pmf((10, 7), -1, 0),
            lambda: pmf((10, 7), 5, 6),
            lambda: pmf((10, 7), 5, -1),
            lambda: pmf((10, 11), 5, 3),
            lambda: pmf((10, -1), 5, 3),
            lambda: pmf((0, 0), 0, 0),
            lambda: pmf((10,), 5, 3),
            lambda: pmf((10, 7), 5.0, 3),
            lambda: pmf((10, 7), 5, True),
            lambda: lower_tail((10, 7), 5, 2.5),
            lambda: two_sided_exact((10, 7), 5, "abc"),
            lambda: as_population((10, 7, 5)),
            lambda: two_sided_exact((10, 7), 5, True),
            lambda: two_sided_exact((10, 7), 5, "1/2"),
            lambda: two_sided_exact((10, 7), 5, Fraction(1, 10**400)),
            # No terms to walk: the mode is checked before the exact 0 or 1.
            lambda: upper_tail((10, 7), 5, 0, mode="fast"),
            lambda: pmf((10, 7), 5, 1, mode="fast"),
            # Walks with terms at an n past each path's range: the largest
            # float on the log path, math.comb's 2^63 on the rational one.
            lambda: pmf((10**400, 10), 10**399, 1, mode="log"),
            lambda: pmf((10**30, 10), 10**20, 1, mode="rational"),
            lambda: upper_tail((10**30, 10**29), 10**30 - 10**20, 10**29, mode="rational"),
        ],
    )
    def test_domain_errors(self, call):
        with pytest.raises(DomainError):
            call()

    def test_population_invariants(self):
        with pytest.raises(DomainError):
            Population(0)
        with pytest.raises(DomainError):
            Population(5, 6)
        assert Population(5).M is None
        assert Population(5, 0).positive_fraction == 0

    def test_unknown_positives_rejected(self):
        with pytest.raises(DomainError):
            pmf(Population(10), 5, 3)

    @pytest.mark.parametrize("obj", [Population(10, 3), ExactProb(Fraction(1, 3), -1.0)])
    def test_validated_types_stay_frozen(self, obj):
        # Only the types whose __post_init__ validates are frozen and hashable.
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 1)
        assert hash(obj) == hash(dataclasses.replace(obj))


def _outside_terms(N, M, n, lo, hi):
    """The terms of the two walks that P[i < lo] + P[i > hi] prices, and
    the outcomes of the support in lo..hi: the two sides of the range."""
    start, end = max(0, n - (N - M)), min(n, M)
    walks = exact._walk(N, N - M, n, n - lo + 1), exact._walk(N, M, n, hi + 1)
    return sum(walk[3] for walk in walks), max(0, min(hi, end) - max(lo, start) + 1)


class TestPricePastTheFloatRange:
    @pytest.mark.parametrize(
        "call",
        [
            # k = min(n, N - n) = 10^399 is past the largest float; "auto"
            # prices it past the budget, and the log path refuses that n.
            lambda: upper_tail((10**400, 10), 10**399, 5),
            lambda: pmf((10**400, 10), 10**399, 1),
        ],
    )
    def test_auto_refuses_by_name(self, call):
        with pytest.raises(DomainError, match="log path"):
            call()

    def test_a_short_walk_stays_exact(self):
        # k = N - n = 2 prices within the budget; N - 5 is the support's low end.
        N = 10**400
        res = lower_tail((N, N - 3), N - 2, N - 5)
        assert res.is_exact and res.value == Fraction((N - 3) * (N - 4), N * (N - 1))


class TestRationalShorterSide:
    """The rational path sums the outcomes outside a range or the ones
    inside it, whichever are fewer; the result is the same Fraction."""

    def test_every_small_population(self):
        sides = set()
        for N in range(1, 31):
            for M, n in itertools.product(range(N + 1), repeat=2):
                mean = Fraction(n * M, N)
                for k in (n // 3, (2 * n) // 3):
                    assert lower_tail((N, M), n, k, mode="rational").value == (
                        oracles.lower_tail(N, M, n, k))
                    assert upper_tail((N, M), n, k, mode="rational").value == (
                        oracles.upper_tail(N, M, n, k))
                for c in (Fraction(1, 3), mean - math.floor(mean) or 1,
                          Fraction(n, 3) + Fraction(1, 4)):
                    # The oracle's tails outside |iN - nM| < cN, found by enumeration.
                    a, b = c.as_integer_ratio()
                    kept = [i for i in range(n + 1) if abs(i * N - n * M) * b < a * N]
                    lo, hi = (kept[0], kept[-1]) if kept else (1, 0)
                    expected = oracles.lower_tail(N, M, n, lo - 1) + oracles.upper_tail(
                        N, M, n, hi + 1) if kept else 1
                    res = two_sided_exact((N, M), n, c, mode="rational")
                    assert res.is_exact and res.value == expected
                    outside, inside = _outside_terms(
                        N, M, n, *exact._outcome_range(N, M, n, c, N, False))
                    sides.add((outside > inside, inside == 0, outside == 0))
        # The range was shorter, longer, empty, and the whole support.
        assert {(True, False, False), (False, False, False), (True, True, False),
                (False, False, True)} <= sides

    def test_seeded_populations_to_ten_thousand(self):
        rng = random.Random(20261021)
        shorter = longer = 0
        for _ in range(120):
            N = rng.randint(31, 10**4)
            M, n = rng.randint(0, N), rng.randint(0, min(N, 300))
            mean = n * M / N
            sd = math.sqrt(n * M * (N - M) * (N - n) / (N * N * max(N - 1, 1)))
            # Near the mean the range is shorter; near the farther end of
            # the support the walks outside it are.
            c = rng.choice((rng.uniform(0.1, 4) * max(sd, 0.5),
                            rng.uniform(0.6, 1.0) * max(mean, n - mean, 0.5)))
            res = two_sided_exact((N, M), n, c, mode="rational")
            assert res.is_exact and res.value == oracles.two_sided(N, M, n, c)
            lo, hi = exact._outcome_range(N, M, n, check_positive(c, "c"), N, False)
            outside, inside = _outside_terms(N, M, n, lo, hi)
            shorter += inside < outside
            longer += inside > outside
            k = min(max(round(mean + rng.uniform(-3, 3) * sd), -1), n + 1)
            assert lower_tail((N, M), n, k, mode="rational").value == (
                oracles.lower_tail(N, M, n, k))
            assert upper_tail((N, M), n, k, mode="rational").value == (
                oracles.upper_tail(N, M, n, k))
        assert shorter >= 20 and longer >= 20


def _sum_to_the_end(N, n, walk, rational):
    """exact._sum_walk's log walk with the same float operations, summing
    every term to the end of the support, with no stop."""
    if rational:
        return _SUM_WALK(N, n, walk, rational)
    flip, M, k, terms = walk
    p, q = (M - k) * (n - k), (k + 1) * (N - M - n + k + 1)
    dp, dq, step = 2 * k + 1 - M - n, N - M - n + 2 * k + 3, 2
    if (N + 1) * (n + 1) < 2**53:
        p, q, dp, dq, step = float(p), float(q), float(dp), float(dq), 2.0
    term = total = 1.0
    for _ in range(terms - 1):
        r = p / q
        term *= r
        total += term
        p, q = p + dp, q + dq
        dp, dq = dp + step, dq + step
    log_value = exact._log_pmf(N, M, n, k) + math.log(total)
    return math.log(-math.expm1(log_value)) if flip else log_value


_SUM_WALK = exact._sum_walk


class TestLogWalkStop:
    def test_stopped_walk_equals_the_walk_to_the_end(self, monkeypatch):
        # The walk stops once no later term can change the float sum, so
        # its results equal those of a walk over every term.
        rng = random.Random(20261022)
        calls, kinds = [], set()
        for _ in range(400):
            N = int(10 ** rng.uniform(2, 18))
            M = rng.choice((rng.randint(0, N), rng.randint(0, min(N, 40)), N - rng.randint(0, 40)))
            M = min(max(M, 0), N)
            n = rng.randint(1, min(N, rng.choice((100, 3000, 20000))))
            lo, hi = max(0, n - (N - M)), min(n, M)
            mean = n * M / N
            sd = math.sqrt(n * M * (N - M) * (N - n) / (N * N * (N - 1)))
            k = min(max(round(mean + rng.uniform(-6, 6) * sd), lo), hi)
            kinds.add(((N + 1) * (n + 1) < 2**53, k * (N + 2) < (n + 1) * (M + 1),
                       hi - k < 30))
            calls += [
                (lower_tail, (N, M), n, k),
                (upper_tail, (N, M), n, k),
                (two_sided_exact, (N, M), n, rng.uniform(0.1, 6) * sd + 0.5),
            ]
        # Float and int counters, both sides of the mode, and walks that
        # meet the end of the support within a few terms.
        assert {kind[:2] for kind in kinds} == set(itertools.product((True, False), repeat=2))
        assert any(kind[2] for kind in kinds)
        stopped = [call(*args, mode="log") for call, *args in calls]
        monkeypatch.setattr(exact, "_sum_walk", _sum_to_the_end)
        assert [call(*args, mode="log") for call, *args in calls] == stopped


class TestAutoPathAtTheBudget:
    def test_two_sided_path_follows_the_outside_price(self):
        # "auto" prices the two outside walks, whichever side the rational
        # path then sums, so its choice of path is the price's.
        rng = random.Random(20261023)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 12:
            N = int(10 ** rng.uniform(3, 7))
            M, n = rng.randint(1, N - 1), rng.randint(1, min(N - 1, 4000))
            sd = math.sqrt(n * M * (N - M) * (N - n) / (N * N * (N - 1)))
            c = rng.uniform(0.2, 5) * sd + 0.5
            lo, hi = exact._outcome_range(N, M, n, check_positive(c, "c"), N, False)
            walks = exact._walk(N, N - M, n, n - lo + 1), exact._walk(N, M, n, hi + 1)
            terms, summed = sum(w[3] for w in walks), sum(1 for w in walks if w[3])
            k = min(n, N - n)
            bits = k * (math.log2(N) - math.log2(k) + math.log2(math.e))
            price = bits * (terms + summed * bits / 16)
            if not exact.RATIONAL_BUDGET / 4 < price < 4 * exact.RATIONAL_BUDGET:
                continue
            rational = price <= exact.RATIONAL_BUDGET
            if seen[rational] >= 12:
                continue
            seen[rational] += 1
            assert two_sided_exact((N, M), n, c).is_exact == rational
