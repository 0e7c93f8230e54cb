"""Reference values computed apart from the package.

Nothing here imports `hypertail`.  Small populations are evaluated by
brute force in exact rational arithmetic: one binomial product per
outcome, summed as integers over the common denominator C(N, n).
Large populations use mpmath at 40 significant digits: the pmf at one
anchor from log-gamma values, extended along the support by the exact
term ratio, summing outward until the terms stop mattering.  The
closed forms (bounds, intervals, planner) are the paper's formulas,
re-evaluated in mpmath from the exact rational inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

DPS = 40
_NEGLIGIBLE = mpf(10) ** -(DPS + 4)


def support(N: int, M: int, n: int) -> tuple[int, int]:
    return max(0, n - (N - M)), min(n, M)


def mode(N: int, M: int, n: int) -> int:
    return (n + 1) * (M + 1) // (N + 2)


# --- exact rationals, small populations -----------------------------------


def _comb0(x: int, y: int) -> int:
    return math.comb(x, y) if 0 <= y <= x else 0


@lru_cache(maxsize=None)
def _prefix(N: int, M: int, n: int) -> tuple:
    acc, out = 0, []
    for i in range(n + 1):
        acc += _comb0(M, i) * _comb0(N - M, n - i)
        out.append(acc)
    return tuple(out)


def exact_pmf(N: int, M: int, n: int, i: int) -> Fraction:
    if not 0 <= i <= n:
        return Fraction(0)
    return Fraction(_comb0(M, i) * _comb0(N - M, n - i), math.comb(N, n))


def exact_lower(N: int, M: int, n: int, k: int) -> Fraction:
    if k < 0:
        return Fraction(0)
    return Fraction(_prefix(N, M, n)[min(k, n)], math.comb(N, n))


def exact_upper(N: int, M: int, n: int, k: int) -> Fraction:
    if k <= 0:
        return Fraction(1)
    return 1 - exact_lower(N, M, n, k - 1)


def exact_deviation(N: int, M: int, n: int, c: Fraction) -> Fraction:
    """P[|i - nM/N| >= c], boundary outcomes included."""
    lo, hi = deviation_thresholds(N, M, n, c)
    return exact_lower(N, M, n, lo) + exact_upper(N, M, n, hi)


def deviation_thresholds(N: int, M: int, n: int, c: Fraction) -> tuple[int, int]:
    mean = Fraction(n * M, N)
    return math.floor(mean - c), math.ceil(mean + c)


# --- mpmath, any population -----------------------------------------------


def mp_log_pmf(N: int, M: int, n: int, i: int):
    lg = mp.loggamma
    with mp.workdps(DPS):
        return (
            lg(M + 1) - lg(i + 1) - lg(M - i + 1)
            + lg(N - M + 1) - lg(n - i + 1) - lg(N - M - n + i + 1)
            - lg(N + 1) + lg(n + 1) + lg(N - n + 1)
        )


def _ratio_up(N, M, n, i):
    """pmf(i + 1) / pmf(i), as an exact-input mpf."""
    return mpf((M - i) * (n - i)) / ((i + 1) * (N - M - n + i + 1))


def _sum_away(N: int, M: int, n: int, k: int, step: int):
    """Sum of pmf from k to the end of the support in direction `step`.

    Requires the terms to be non-increasing in that direction from k
    (k at or beyond the mode on that side), so stopping once a term is
    negligible against the running total bounds the remainder.
    """
    lo, hi = support(N, M, n)
    with mp.workdps(DPS):
        term = mp.exp(mp_log_pmf(N, M, n, k))
        total = term
        i = k
        while lo <= i + step <= hi:
            if step > 0:
                term *= _ratio_up(N, M, n, i)
            else:
                term /= _ratio_up(N, M, n, i - 1)
            i += step
            total += term
            if term < total * _NEGLIGIBLE:
                break
        return total


def mp_pmf(N: int, M: int, n: int, i: int):
    lo, hi = support(N, M, n)
    if not lo <= i <= hi:
        return mpf(0)
    with mp.workdps(DPS):
        return mp.exp(mp_log_pmf(N, M, n, i))


def mp_lower(N: int, M: int, n: int, k: int):
    lo, hi = support(N, M, n)
    if k < lo:
        return mpf(0)
    if k >= hi:
        return mpf(1)
    if k <= mode(N, M, n):
        return _sum_away(N, M, n, k, -1)
    with mp.workdps(DPS):
        return 1 - _sum_away(N, M, n, k + 1, 1)


def mp_upper(N: int, M: int, n: int, k: int):
    lo, hi = support(N, M, n)
    if k > hi:
        return mpf(0)
    if k <= lo:
        return mpf(1)
    if k >= mode(N, M, n):
        return _sum_away(N, M, n, k, 1)
    with mp.workdps(DPS):
        return 1 - _sum_away(N, M, n, k - 1, -1)


def mp_deviation(N: int, M: int, n: int, c: Fraction):
    lo, hi = deviation_thresholds(N, M, n, c)
    with mp.workdps(DPS):
        return mp_lower(N, M, n, lo) + mp_upper(N, M, n, hi)


def mp_pmf_table(N: int, M: int, n: int) -> dict:
    """pmf(i) for every i of the support, by the term ratio from the mode."""
    lo, hi = support(N, M, n)
    m = min(max(mode(N, M, n), lo), hi)
    with mp.workdps(DPS):
        table = {m: mp.exp(mp_log_pmf(N, M, n, m))}
        for i in range(m, hi):
            table[i + 1] = table[i] * _ratio_up(N, M, n, i)
        for i in range(m, lo, -1):
            table[i - 1] = table[i] / _ratio_up(N, M, n, i - 1)
    return table


# --- the paper's closed forms ----------------------------------------------


def as_mpf(x):
    """An exact mpf of an int, Fraction or float input."""
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


def bound_exponent(family: str, N: int, n: int, t, M: int | None = None):
    """log of the single-tail bound on P[i >= (p + t) n]; -inf if impossible."""
    with mp.workdps(DPS):
        t = as_mpf(t)
        if family == "kl":
            p = as_mpf(Fraction(M, N))
            s = p + t
            if p == 0 or s > 1:
                return mp.ninf
            if s == 1:
                return n * s * mp.log(p / s)
            return n * (s * mp.log(p / s) + (1 - s) * mp.log((1 - p) / (1 - s)))
        if family == "b1":
            g = mpf(1)
        elif family == "b2":
            g = mpf(N) / (N - n + 1)
        elif family == "b3":
            g = mpf(n) / (N - n)
        else:
            g = mpf(n) * N / ((N - n) * (n + 1))
        return -2 * t * t * n * g


def best_family(N: int, n: int) -> str:
    return "b2" if 2 * n <= N else "b4"


def clamp_value(exponent, two_sided: bool):
    with mp.workdps(DPS):
        if exponent == mp.ninf:
            return mpf(0)
        return min(mpf(1), (2 if two_sided else 1) * mp.exp(min(0, exponent)))


def kl_two_sided_exponent(N: int, n: int, t, M: int):
    """log of (KL(p) + KL(1 - p)) / 2, so the value is min(1, 2 e^x)."""
    up = bound_exponent("kl", N, n, t, M)
    down = bound_exponent("kl", N, n, t, N - M)
    with mp.workdps(DPS):
        if up == mp.ninf and down == mp.ninf:
            return mp.ninf
        return mp.log(mp.exp(up) + mp.exp(down)) - mp.log(2)


def interval_halfwidth(N: int, n: int, delta, legacy: bool = False):
    """C1 (n <= N/2) or C2 half-width, or the legacy B1 form."""
    with mp.workdps(DPS):
        log_half = mp.log(as_mpf(delta) / 2)
        if legacy:
            factor = mpf(1) / (2 * n)
        elif 2 * n <= N:
            factor = mpf(N - n + 1) / (2 * n * N)
        else:
            factor = mpf((N - n) * (n + 1)) / (2 * n * n * N)
        return N * mp.sqrt(-factor * log_half)


def interval_formula(N: int, n: int, kind: str) -> str:
    """C1/C2 for kind 'c', D1/D2 for kind 'd'."""
    return kind.upper() + ("1" if 2 * n <= N else "2")


def interval_delta(N: int, n: int, c, legacy: bool = False):
    """Raw 2 exp(...) of D1/D2 or the legacy form; 0 at a census."""
    with mp.workdps(DPS):
        c = as_mpf(c)
        if legacy:
            exponent = -2 * c * c * n / (mpf(N) * N)
        elif 2 * n <= N:
            exponent = -2 * c * c * n / (mpf(N) * (N - n + 1))
        elif n == N:
            return mpf(0)
        else:
            exponent = -2 * c * c * n * n / (mpf(N) * (N - n) * (n + 1))
        return 2 * mp.exp(exponent)


def plan(N: int, delta, c) -> dict:
    """The S1/S2 planner: real and integer sample size, regime, x, y."""
    with mp.workdps(DPS):
        c = as_mpf(c)
        x = (N / c) ** 2
        y = -mp.log(as_mpf(delta) / 2) / 2
        xy = x * y
        boundary = c * c / y - 2
        ratio = xy / (N + xy)
        if N <= boundary:
            regime, n_real = "S1", (N + 1) * ratio
        else:
            half = (N - 1) * ratio / 2
            regime, n_real = "S2", half + mp.sqrt(half * half + N * ratio)
        return {
            "n_required": min(N, int(mp.ceil(n_real))),
            "n_real": n_real,
            "regime": regime,
            "regime_boundary": boundary,
            "x": x,
            "y": y,
            "lower_estimate": N * ratio,
        }
