"""Closed-form upper bounds on hypergeometric tail probabilities.

For a sample of n draws from a population of size N with positive
fraction p = M/N, these bounds control P[i >= (p + t) n] (and by
symmetry P[i <= (p - t) n]) for a deviation fraction t > 0.  The KL
form is

    KL  exp(-n * D(p + t || p))   D = Kullback-Leibler divergence
                                  between Bernoulli distributions

and the four Hoeffding-style bounds are one formula, exp(-2 t^2 n g),
with the coefficient g(N, n) taken from one table:

    B1  g = 1
    B2  g = N / (N - n + 1)
    B3  g = n / (N - n)                  (n < N)
    B4  g = n N / ((N - n)(n + 1))       (n < N)

B2 tightens B1 and B4 tightens B3 for every sample size; B3 and B4 beat
B1 and B2 exactly when n > N/2, and the pairs coincide at n = N/2.  AUTO
is B2 for 2n <= N or n = N and B4 otherwise; correctly rounded quotients
keep their order, so its one exponent is always the smaller of the two.
Each bound is clamped to 1 on return; the unclamped log survives in
``BoundValue.exponent``.  Every exponent is a rate times n; at an n past
the largest float it is -inf where it overflows, else DomainError, and a
g past the largest float (only there) is inf.  One- and two-sided bounds
share one dispatch, which checks the arguments once and builds one
``BoundValue``.  The confidence intervals and miscoverages of
`hypertail.inference` (C1/C2, D1/D2 and the legacy B1 forms) invert this
exponent for the g of B2, B4 and B1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._validation import as_int, check_positive, check_range
from .errors import DomainError, UnsupportedBoundError
from .exact import Population, _log_add, as_population

_LN2 = math.log(2.0)


class BoundFamily(Enum):
    KL = "kl"
    B1 = "b1"
    B2 = "b2"
    B3 = "b3"
    B4 = "b4"
    AUTO = "auto"


@dataclass(frozen=True)
class BoundValue:
    """A tail bound together with the formula that produced it.

    ``exponent`` is the log of the unclamped single-tail bound, so
    ``value == min(1, exp(exponent))`` for one-sided results and
    ``value == min(1, 2 * exp(exponent))`` when ``two_sided`` is set.
    """

    value: float
    family_used: BoundFamily
    exponent: float
    two_sided: bool = False


def _clamped(exponent: float, family: BoundFamily, two_sided=False) -> BoundValue:
    """The clamped bound for a single-tail exponent, doubled if two-sided;
    an exponent of -inf gives 0."""
    exponent = min(0.0, exponent)
    scale = 2.0 if two_sided else 1.0
    return BoundValue(min(1.0, scale * math.exp(exponent)), family, exponent, two_sided)


def _check_nt(N, n, t):
    """Checked N, n and t; an int or Fraction t stays exact, so that the
    KL boundary p + t = 1 is decided on the ratio the caller gave."""
    if N is not None:
        N = as_int(N, "N")
    return N, check_range(n, "n", 1, N), check_positive(t, "t")


def _coefficient(family: BoundFamily, N, n: int) -> float:
    """The coefficient g(N, n) of the exponent -2 t^2 n g (module table), or inf."""
    if family is BoundFamily.B1:
        return 1.0
    try:
        if family is BoundFamily.B2:
            return N / (N - n + 1)
        if n >= N:
            raise UnsupportedBoundError(f"n must satisfy n < N = {N}, got {n}")
        if family is BoundFamily.B3:
            return n / (N - n)
        return (n * N) / ((N - n) * (n + 1))
    except OverflowError:  # g <= N; this needs N and n past the largest float
        return math.inf


def _times_n(rate: float, n: int, g: float = 1.0) -> float:
    """The exponent rate * n * g, in that order, under the module's overflow rule."""
    try:
        return rate * n * g
    except OverflowError:  # n past the largest float
        if rate * g < 0 and math.log(-rate * g) + math.log(n) > 709.782712893384:  # log(1.8e308)
            return -math.inf
        raise DomainError("the bounds compute in floats; n passes the largest float, 1.8e308")


def _closed_form(family: BoundFamily, N, n, t, two_sided=False) -> BoundValue:
    N, n, t = _check_nt(N, n, t)
    if family is BoundFamily.AUTO:
        family = BoundFamily.B2 if 2 * n <= N or n == N else BoundFamily.B4
    return _clamped(_times_n(-2.0 * t * t, n, _coefficient(family, N, n)), family, two_sided)


def _kl_exponent(N: int, M: int, n: int, t) -> float:
    """The unclamped log of kl_upper_tail_bound at checked arguments."""
    # Branch on integers so the boundary cases do not depend on
    # floating-point cancellation in 1 - p - t: with t = a/b,
    # (1 - p - t) N b = (N - M) b - a N exactly.
    a, b = t.as_integer_ratio()
    rest = (N - M) * b - a * N
    if M == 0 or rest < 0:
        return float("-inf")
    # Each quotient of integers below is rounded once.
    p = M / N
    shifted = (M * b + a * N) / (N * b)
    if shifted == 1.0:
        # p^n, which the tail equals at n = 1: raised past the rounding
        # error of p, the log and exp, so the float never undercuts it.
        exponent = _times_n(math.log(p), n)
        return exponent + 2.0**-51 * (n + 1 - exponent) if exponent > -math.inf else exponent
    remainder = rest / (N * b)
    rate = shifted * math.log(p / shifted) + remainder * math.log(((N - M) / N) / remainder)
    return _times_n(rate, n)


def kl_upper_tail_bound(pop, n: int, t: float) -> BoundValue:
    """exp(-n * D(p+t || p)), the Chernoff-style bound on P[i >= (p+t)n].

    Returns 0 when p + t > 1 (the event is impossible) or when p = 0
    (no positives to draw).  Where p + t is 1, or rounds to 1, the
    divergence term (1-p-t) ln((1-p)/(1-p-t)) is taken at its limit 0,
    so the bound degenerates to p^n, and a float t agrees with the
    exact ratio it was read from.  Tighter than b1_tail wherever both
    apply.
    """
    return _kl(as_population(pop), n, t, False)


def b1_tail(n: int, t: float) -> BoundValue:
    """min(1, exp(-2 t^2 n)): the sample-size-only bound, valid for
    either tail."""
    return _closed_form(BoundFamily.B1, None, n, t)


def b2_tail(N: int, n: int, t: float) -> BoundValue:
    """min(1, exp(-2 t^2 n N / (N - n + 1))): tightens b1 by the
    without-replacement factor N/(N - n + 1), valid for either tail."""
    return _closed_form(BoundFamily.B2, N, n, t)


def b3_tail(N: int, n: int, t: float) -> BoundValue:
    """min(1, exp(-2 t^2 n^2 / (N - n))): the complement-sample bound,
    defined for n < N and tighter than b1 once n > N/2."""
    return _closed_form(BoundFamily.B3, N, n, t)


def b4_tail(N: int, n: int, t: float) -> BoundValue:
    """min(1, exp(-2 t^2 n^2 N / ((N - n)(n + 1)))): the complement
    form of b2, defined for n < N and tighter than b2 once n > N/2."""
    return _closed_form(BoundFamily.B4, N, n, t)


def best_bound(N: int, n: int, t: float) -> BoundValue:
    """The tighter of b2 and b4: b2 for n <= N/2, b4 for n > N/2.

    The two coincide at n = N/2; at n = N only b2 is defined.  The KL
    form is excluded because it needs M, which the planning use cases
    do not have.
    """
    return _closed_form(BoundFamily.AUTO, N, n, t)


def _kl(pop: Population, n, t, two_sided: bool) -> BoundValue:
    """The KL bound on pop's upper tail, or on both (the lower is the flipped
    pop's upper) if two_sided, each exponent clamped to 0 before the sum."""
    if pop.M is None:
        raise UnsupportedBoundError("the KL bound requires a known positive count M")
    _, n, t = _check_nt(pop.N, n, t)
    exponent = _kl_exponent(pop.N, pop.M, n, t)
    if two_sided:
        down = _kl_exponent(pop.N, pop.N - pop.M, n, t)
        exponent = _log_add(min(0.0, exponent), min(0.0, down)) - _LN2
    return _clamped(exponent, BoundFamily.KL, two_sided)


def _bound(N, n, t, family, M, two_sided: bool) -> BoundValue:
    """tail_bound, or concentration_bound if two_sided."""
    if not isinstance(family, BoundFamily):
        raise DomainError(f"family must be a BoundFamily, got {family!r}")
    if M is not None or family is BoundFamily.KL:
        pop = Population(N, M)
        if family is BoundFamily.KL:
            return _kl(pop, n, t, two_sided)
    return _closed_form(family, N, n, t, two_sided)


def tail_bound(
    N: int, n: int, t: float, family: BoundFamily = BoundFamily.AUTO, M: int | None = None
) -> BoundValue:
    """One-sided bound on P[i >= (p + t) n] for the chosen family.

    B1 through B4 bound either tail alike.  KL requires M and bounds the
    upper tail of the population (N, M); B3 and B4 require n < N; AUTO
    picks best_bound.  Every family checks a given M against 0..N.
    """
    return _bound(N, n, t, family, M, False)


def concentration_bound(
    N: int, n: int, t: float, family: BoundFamily = BoundFamily.AUTO, M: int | None = None
) -> BoundValue:
    """Two-sided bound on P[|i - n M/N| >= t n] for the chosen family.

    For B1 through B4 the same exponent controls both tails, so the
    result is min(1, 2 exp(exponent)).  The KL exponent is tail
    dependent, so that family sums the upper-tail bound at p and at
    1 - p (the flipped population covers the lower tail); the stored
    exponent absorbs the sum so that value = min(1, 2 exp(exponent))
    still holds.  KL requires M; B3 and B4 require n < N; AUTO picks
    best_bound.
    """
    return _bound(N, n, t, family, M, True)
