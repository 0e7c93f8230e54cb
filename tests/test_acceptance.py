"""Acceptance suite: twelve end-to-end checks, one test per criterion.

Each test is independent and prints one pass/fail line under
``pytest -v``.  Exhaustive sweeps use the brute-force rational oracle in
``oracles.py``; everything else pins published reference numbers or
closed-form targets.
"""

import math
import time
from fractions import Fraction

import oracles
from hypertail import (
    BoundFamily,
    b1_confidence_for_halfwidth,
    b1_halfwidth_for_confidence,
    b1_tail,
    b2_tail,
    b3_tail,
    b4_tail,
    concentration_bound,
    confidence_for_halfwidth,
    coverage_experiment,
    flip_symmetry,
    halfwidth_for_confidence,
    kl_upper_tail_bound,
    lower_tail,
    pmf,
    required_sample_size,
    swap_symmetry,
    two_sided_exact,
    upper_tail,
)

SEED = 20260814

POLL_N = 17_793_691
POLL_n = 100_000
POLL_i = 5720
# The exact point estimate iN/n = 1,017,799.1252; the CLI prints it
# rounded to 1.0178e+06 at its default --digits 6.
POLL_ESTIMATE = Fraction(POLL_i * POLL_N, POLL_n)

T_GRID = [j / 20 for j in range(1, 10)]  # 0.05, 0.10, ..., 0.45


def test_01_pmf_matches_known_exact_values():
    expected = {
        0: Fraction(0),
        1: Fraction(0),
        2: Fraction(21, 252),
        3: Fraction(105, 252),
        4: Fraction(105, 252),
        5: Fraction(21, 252),
    }
    for i, target in expected.items():
        res = pmf((10, 7), 5, i)
        assert res.is_exact
        assert res.value == target


def test_02_two_sided_exact_value():
    res = two_sided_exact((10, 7), 5, 1.5)
    assert res.is_exact
    assert res.value == Fraction(42, 252)


def test_03_interval_halfwidth_at_poll_scale():
    res = halfwidth_for_confidence(POLL_N, POLL_n, POLL_i, 0.05)
    legacy = b1_halfwidth_for_confidence(POLL_N, POLL_n, POLL_i, 0.05)
    assert abs(res.halfwidth - 76_203.42) <= 0.5
    assert abs(legacy.halfwidth - 76_418.5) <= 1.0

    # Endpoints sit on the exact iN/n; a center rounded to 1,017,800 is
    # 0.87 off and fails the 0.5 tolerance.
    assert res.estimate == POLL_ESTIMATE
    assert legacy.estimate == res.estimate
    lower_target = float(POLL_ESTIMATE - Fraction("76203.42"))
    upper_target = float(POLL_ESTIMATE + Fraction("76203.42"))
    msg = f"interval must be centered on iN/n = {float(POLL_ESTIMATE)}"
    assert abs(res.lower - lower_target) <= 0.5, msg
    assert abs(res.upper - upper_target) <= 0.5, msg


def test_04_confidence_at_poll_scale():
    res = confidence_for_halfwidth(POLL_N, POLL_n, POLL_i, 62_278)
    legacy = b1_confidence_for_halfwidth(POLL_N, POLL_n, POLL_i, 62_278)
    assert abs(res.delta - 0.1702) <= 0.0005
    assert abs(res.lower - float(POLL_ESTIMATE - 62_278)) <= 0.5
    assert abs(res.upper - float(POLL_ESTIMATE + 62_278)) <= 0.5
    assert abs(legacy.delta - 0.1725) <= 0.0005


def test_05_sample_size_at_poll_scale():
    # The criterion pins x = (N/c)^2 = 160,000 exactly, which requires
    # the unrounded half-width c = N/400 = 44,484.2275; the integer
    # 44,484 is that value rounded for display (and would give
    # x = 160,001.64, n_required = 290,299 instead).
    res = required_sample_size(POLL_N, 0.05, POLL_N / 400)
    assert res.x == 160_000.0
    assert abs(res.y - 1.8444) <= 0.0001
    assert res.regime == "S1"
    assert abs(res.n_required - 290_296) <= 1


def _exceeds(num, denom, value) -> bool:
    """num / denom > value, compared in integers."""
    vn, vd = value.as_integer_ratio()
    return num * vd > vn * denom


def test_06_every_bound_dominates_the_exact_tail():
    start = time.monotonic()
    violations = []
    for N in range(2, 41):
        for n in range(1, N + 1):
            denom = math.comb(N, n)
            partial = n < N
            for t in T_GRID:
                p, q = t.as_integer_ratio()
                singles = {
                    "b1": b1_tail(n, t).value,
                    "b2": b2_tail(N, n, t).value,
                }
                doubles = {
                    "b1": concentration_bound(N, n, t, BoundFamily.B1).value,
                    "b2": concentration_bound(N, n, t, BoundFamily.B2).value,
                    "auto": concentration_bound(N, n, t).value,
                }
                if partial:
                    singles["b3"] = b3_tail(N, n, t).value
                    singles["b4"] = b4_tail(N, n, t).value
                    doubles["b3"] = concentration_bound(
                        N, n, t, BoundFamily.B3
                    ).value
                    doubles["b4"] = concentration_bound(
                        N, n, t, BoundFamily.B4
                    ).value
                single_floor = min(singles.values())
                double_floor = min(doubles.values())
                for M in range(N + 1):
                    pre = oracles.prefix_weights(N, M, n)
                    # ceil((M/N + t) n) and floor((M/N - t) n) with t = p/q.
                    k_up = -(-(q * M + p * N) * n // (q * N))
                    k_lo = (q * M - p * N) * n // (q * N)
                    up_num = (
                        0
                        if k_up > n
                        else pre[n] - (pre[k_up - 1] if k_up >= 1 else 0)
                    )
                    lo_num = 0 if k_lo < 0 else pre[min(k_lo, n)]
                    two_num = up_num + lo_num

                    if _exceeds(max(up_num, lo_num), denom, single_floor):
                        for name, value in singles.items():
                            if _exceeds(up_num, denom, value) or _exceeds(lo_num, denom, value):
                                violations.append((N, M, n, t, name, "single"))
                    if _exceeds(two_num, denom, double_floor):
                        for name, value in doubles.items():
                            if _exceeds(two_num, denom, value):
                                violations.append((N, M, n, t, name, "double"))

                    kl_up = kl_upper_tail_bound((N, M), n, t).value
                    kl_lo = kl_upper_tail_bound((N, N - M), n, t).value
                    kl_two = concentration_bound(
                        N, n, t, BoundFamily.KL, M=M
                    ).value
                    if _exceeds(up_num, denom, kl_up):
                        violations.append((N, M, n, t, "kl", "upper"))
                    if _exceeds(lo_num, denom, kl_lo):
                        violations.append((N, M, n, t, "kl", "lower"))
                    if _exceeds(two_num, denom, kl_two):
                        violations.append((N, M, n, t, "kl", "double"))
    elapsed = time.monotonic() - start
    assert not violations, f"{len(violations)} violations, first: {violations[:5]}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is one minute"


def test_07_bound_ordering_and_crossover():
    for N in range(2, 41):
        for n in range(2, N):
            for t in T_GRID:
                v1 = b1_tail(n, t).value
                v2 = b2_tail(N, n, t).value
                v3 = b3_tail(N, n, t).value
                v4 = b4_tail(N, n, t).value
                assert v2 <= v1
                assert v4 <= v3
                if 2 * n > N:
                    assert v3 < v1
                    assert v4 < v2
                elif 2 * n < N:
                    assert v3 > v1
                    assert v4 > v2
                else:
                    assert abs(v3 - v1) <= 1e-12 * v1
                    assert abs(v4 - v2) <= 1e-12 * v2


def test_08_symmetry_identities_hold_exactly():
    for N in range(2, 41):
        # Exact cumulative distributions for every (M, n), built from
        # the library pmf in rational mode.
        prefix = {}
        for M in range(N + 1):
            for n in range(N + 1):
                acc = Fraction(0)
                row = []
                for i in range(n + 1):
                    acc += pmf((N, M), n, i).value
                    row.append(acc)
                assert row[n] == 1
                prefix[(M, n)] = row

        def lower(M, n, k):
            if k < 0:
                return Fraction(0)
            return prefix[(M, n)][min(k, n)]

        def upper(M, n, k):
            return 1 - lower(M, n, k - 1)

        for M in range(N + 1):
            for n in range(N + 1):
                for k in range(-1, n + 2):
                    low = lower(M, n, k)
                    assert low == upper(N - M, n, n - k), (N, M, n, k, "flip")
                    if n < N:
                        assert low == upper(M, N - n, M - k), (N, M, n, k, "swap")

    # The same identities through the public transforms and tail calls.
    fpop, fk = flip_symmetry((10, 7), 5, 2)
    assert (fpop.N, fpop.M, fk) == (10, 3, 3)
    assert swap_symmetry((10, 7), 5, 7) == (5, 0)
    for N in (11, 24, 40):
        for M in range(0, N + 1, 5):
            for n in range(0, N + 1, 7):
                for k in (0, n // 2, n):
                    low = lower_tail((N, M), n, k).value
                    fpop, fk = flip_symmetry((N, M), n, k)
                    assert upper_tail(fpop, n, fk).value == low
                    if n < N:
                        m_swap, k_swap = swap_symmetry((N, M), n, k)
                        assert upper_tail((N, M), m_swap, k_swap).value == low


def test_09_round_trip_recovers_delta():
    for N in (10, 100, 10**4, 10**7):
        sizes = sorted(
            {1, max(1, N // 10), N // 2, N // 2 + 1, (3 * N) // 4, N - 1} - {0, N}
        )
        for n in sizes:
            for delta in (0.2, 0.1, 0.05, 0.01):
                sized = halfwidth_for_confidence(N, n, 0, delta)
                back = confidence_for_halfwidth(N, n, 0, sized.halfwidth)
                assert abs(back.delta - delta) <= 1e-9 * delta, (N, n, delta)


def test_10_enumerated_coverage_meets_the_guarantee():
    for N in range(2, 41):
        for n in range(1, N + 1):
            denom = math.comb(N, n)
            for delta in (0.2, 0.1, 0.05):
                c = Fraction(halfwidth_for_confidence(N, n, 0, delta).halfwidth)
                floor_delta = 1 - Fraction(delta)
                for M in range(N + 1):
                    pre = oracles.prefix_weights(N, M, n)
                    # M is inside interval(i) iff |M - iN/n| <= c, a
                    # contiguous range of observations i.
                    i_lo = math.ceil(Fraction(M * n) / N - c * n / N)
                    i_hi = math.floor(Fraction(M * n) / N + c * n / N)
                    i_lo = max(i_lo, 0)
                    i_hi = min(i_hi, n)
                    if i_lo > i_hi:
                        covered = 0
                    else:
                        covered = pre[i_hi] - (pre[i_lo - 1] if i_lo >= 1 else 0)
                    assert Fraction(covered, denom) >= floor_delta, (N, M, n, delta)

    # Range arithmetic must agree with the public membership test.
    for n in (3, 7, 11):
        for delta in (0.2, 0.05):
            interval_by_i = [
                halfwidth_for_confidence(12, n, i, delta) for i in range(n + 1)
            ]
            c = Fraction(interval_by_i[0].halfwidth)
            for M in range(13):
                i_lo = max(math.ceil(Fraction(M * n, 12) - c * n / 12), 0)
                i_hi = min(math.floor(Fraction(M * n, 12) + c * n / 12), n)
                for i in range(n + 1):
                    assert interval_by_i[i].contains(M) == (i_lo <= i <= i_hi)


def test_11_monte_carlo_agreement():
    trials = 100_000
    report = coverage_experiment(10, 7, 5, [0.2, 0.05], trials=trials, seed=SEED)
    for i in range(6):
        p = float(oracles.pmf(10, 7, 5, i))
        frequency = report.empirical_pmf.get(i, 0.0)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(frequency - p) <= 3 * se, (i, frequency, p)
    for delta in (0.2, 0.05):
        assert report.empirical_coverage[delta] >= 1 - delta

    for N, M, n, delta in [
        (40, 22, 20, 0.1),
        (37, 11, 30, 0.05),
        (25, 10, 5, 0.2),
    ]:
        rep = coverage_experiment(N, M, n, delta, trials=20_000, seed=SEED)
        assert rep.empirical_coverage[delta] >= 1 - delta, (N, M, n, delta)


def test_12_sample_size_sufficiency_and_minimality():
    for N in (100, 10**4, 10**7):
        for delta in (0.1, 0.05):
            for percent in (0.0025, 0.01, 0.05):
                c = percent * N
                n_required = required_sample_size(N, delta, c).n_required
                assert 1 <= n_required <= N
                achieved = halfwidth_for_confidence(N, n_required, 0, delta)
                assert achieved.halfwidth <= c, (N, delta, percent)
                if n_required > 1:
                    shorter = halfwidth_for_confidence(N, n_required - 1, 0, delta)
                    assert shorter.halfwidth > c, (N, delta, percent)
