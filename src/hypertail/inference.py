"""Confidence intervals for the positive count M and sample-size planning.

All intervals are centered at the point estimate iN/n and have the form
[iN/n - c, iN/n + c] in population individuals.  The half-width c and
the miscoverage delta are linked through a two-sided bound of
`hypertail.bounds`, delta = 2 exp(-2 (c/N)^2 n g), with the coefficient
g(N, n) of the tightest applicable family from that module's table: B2
for n <= N/2 and B4 above.  Solving for either side gives

    C1/C2:  c = N sqrt(-ln(delta/2) / (2 n g))
    D1/D2:  delta = 2 exp(-2 (c/N)^2 n g)

with g = N / (N - n + 1) for C1/D1 (n <= N/2) and
g = n N / ((N - n)(n + 1)) for C2/D2 (n > N/2).  C1/D1 and C2/D2 are
algebraic inverses of each other, and the pairs produce equal values at
n = N/2.  A census (n = N) has a zero-width interval and miscoverage 0.
The estimate and the half-width as typed stay exact rationals; with
c = a/b, each endpoint is the one integer quotient (i N b -/+ a n) / (n b),
correctly rounded, so it equals float() of the rational endpoint, and
delta is 2 exp(-2 (u n)(u g)) with u = c/N = a/(b N) one such quotient:
no N * N is formed.  The closed forms take N up to the largest float.

The sample-size planner inverts the c(n) relation: with x = (N/c)^2 and
y = -(1/2) ln(delta/2), the smallest real n with half-width at most c is

    S1 (N <= c^2/y - 2):  n = (N + 1) x y / (N + x y)
    S2 (otherwise):       n = A + sqrt(A^2 + N x y / (N + x y)),
                          A = (N - 1) x y / (2 (N + x y))

The regime test N <= c^2/y - 2 is exactly the condition that the S1
solution lands at or below N/2, so each formula is applied inside the
regime that derived it.

The B1-based legacy forms c' = N sqrt(-ln(delta/2) / (2n)) and
delta' = 2 exp(-2 c^2 n / N^2) are the same relations with g = 1: they
ignore the finite-population correction, are provided for side-by-side
comparison only and are never selected automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._validation import check_positive, check_probability, check_range
from .bounds import _LN2, BoundFamily, _coefficient
from .errors import DomainError

FORMULA_C1 = "C1"
FORMULA_C2 = "C2"
FORMULA_D1 = "D1"
FORMULA_D2 = "D2"
FORMULA_B1 = "B1"

REGIME_S1 = "S1"
REGIME_S2 = "S2"


@dataclass
class IntervalResult:
    """A confidence interval [estimate - halfwidth, estimate + halfwidth]
    for M, in population individuals.

    The estimate iN/n and the half-width as typed (`exact_halfwidth`)
    are kept as exact rationals; lower and upper are the rational
    endpoints rounded once to float.  The clamped bounds
    intersect the interval with [0, N].  `formula` names the relation
    that linked halfwidth and delta (C1/C2 for delta -> c, D1/D2 for
    c -> delta, B1 for the legacy forms).  `vacuous` marks a reported
    delta that had to be clamped down to 1.
    """

    estimate: Fraction
    halfwidth: float
    delta: float
    lower: float
    upper: float
    formula: str
    clamped_lower: float
    clamped_upper: float
    vacuous: bool = False
    legacy: bool = False
    exact_halfwidth: Fraction = field(default=None, compare=False)

    def contains(self, count) -> bool:
        """Exact membership test: |count - estimate| <= exact_halfwidth."""
        return abs(Fraction(count) - self.estimate) <= self.exact_halfwidth


def _check_query(N, n, i) -> tuple[int, int, int]:
    N = check_range(N, "N", 1)
    n = check_range(n, "n", 1, N)
    i = check_range(i, "i", 0, n)
    return N, n, i


def _interval(N, n, i, halfwidth, delta, formula, vacuous=False, legacy=False):
    """halfwidth as typed; the result reports it as a float."""
    estimate = Fraction(i * N, n)
    try:
        width = Fraction(halfwidth)
        a, b = width.as_integer_ratio()
        centre, shift, scale = i * N * b, a * n, n * b
        lower, upper = (centre - shift) / scale, (centre + shift) / scale
    except OverflowError:  # a half-width or end past the largest float
        raise DomainError("this interval passes the largest float, about 1.8e308") from None
    # Positional, in field order: 11 keywords more than double the record's cost.
    return IntervalResult(estimate, float(halfwidth), delta, lower, upper, formula,
                          min(max(lower, 0.0), float(N)), min(max(upper, 0.0), float(N)),
                          vacuous, legacy, width)


def _check_float_range(N) -> None:
    """N at most the largest float: the closed forms compute in floats of N."""
    if N > 1.7976931348623157e308:
        raise DomainError("the closed forms compute in floats and take N up to about 1.8e308")


def _link(N, n, legacy):
    """The coefficient g of the bound that links c and delta (B1 for the
    legacy forms, else B2 for n <= N/2 and B4 above) and the labels
    (c from delta, delta from c).  g is None for a census (n = N outside
    the legacy forms), where c = 0 and delta = 0.
    """
    _check_float_range(N)
    if legacy:
        return _coefficient(BoundFamily.B1, N, n), (FORMULA_B1, FORMULA_B1)
    if 2 * n <= N:
        return _coefficient(BoundFamily.B2, N, n), (FORMULA_C1, FORMULA_D1)
    g = None if n == N else _coefficient(BoundFamily.B4, N, n)
    return g, (FORMULA_C2, FORMULA_D2)


def _halfwidth(N, n, delta, legacy=False) -> tuple[float, str]:
    """C1/C2, or B1 if legacy, at checked arguments, and the formula's name."""
    g, (formula, _) = _link(N, n, legacy)
    halfwidth = 0.0 if g is None else N * math.sqrt(-(math.log(delta) - _LN2) / (2 * n * g))
    return halfwidth, formula


def _from_delta(N, n, i, delta, legacy=False) -> IntervalResult:
    N, n, i = _check_query(N, n, i)
    delta = check_probability(delta, "delta")
    halfwidth, formula = _halfwidth(N, n, delta, legacy)
    return _interval(N, n, i, halfwidth, delta, formula, legacy=legacy)


def _from_halfwidth(N, n, i, c, legacy=False) -> IntervalResult:
    N, n, i = _check_query(N, n, i)
    c = check_positive(c, "c")  # an int or Fraction is kept as typed
    g, (_, formula) = _link(N, n, legacy)
    a, b = c.as_integer_ratio()
    u = a / (b * N)  # c / N, rounded once; with n and g in 1..N, u n and u g lie in u..c
    raw = 0.0 if g is None else 2.0 * math.exp(-2.0 * (u * n) * (u * g))
    vacuous = raw >= 1.0
    return _interval(N, n, i, c, min(1.0, raw), formula, vacuous=vacuous, legacy=legacy)


def halfwidth_for_confidence(N, n, i, delta) -> IntervalResult:
    """Smallest guaranteed half-width c for miscoverage delta.

    Uses C1 for n <= N/2 and C2 above; P[M in interval] >= 1 - delta.
    A census (n = N) yields c = 0: the estimate is M itself.
    """
    return _from_delta(N, n, i, delta)


def confidence_for_halfwidth(N, n, i, c) -> IntervalResult:
    """Guaranteed miscoverage delta for a target half-width c > 0.

    Uses D1 for n <= N/2 and D2 above.  When the raw value 2 e^{...}
    reaches 1 the result is clamped and flagged vacuous.  A census
    (n = N) has miscoverage 0 for any positive c.
    """
    return _from_halfwidth(N, n, i, c)


def b1_halfwidth_for_confidence(N, n, i, delta) -> IntervalResult:
    """Legacy half-width c' = N sqrt(-ln(delta/2) / (2n)), which ignores
    the finite-population factor.  For comparison output only."""
    return _from_delta(N, n, i, delta, legacy=True)


def b1_confidence_for_halfwidth(N, n, i, c) -> IntervalResult:
    """Legacy miscoverage delta' = 2 exp(-2 c^2 n / N^2).  For
    comparison output only."""
    return _from_halfwidth(N, n, i, c, legacy=True)


@dataclass
class SampleSizeResult:
    """Planner output: the smallest integer sample size whose half-width
    at miscoverage delta is at most the requested c.

    n_real is the real-valued solution before ceiling; regime records
    which formula solved it, and regime_boundary the threshold
    c^2/y - 2 that N was compared against.  x = (N/c)^2 and
    y = -(1/2) ln(delta/2) are echoed for audit.
    """

    n_required: int
    n_real: float
    regime: str
    regime_boundary: float
    x: float
    y: float


def _plan_inputs(N, delta, c):
    N = check_range(N, "N", 1)
    delta = check_probability(delta, "delta")
    c = check_positive(c, "c")  # compared exactly, then rounded
    if c >= N:
        raise DomainError(
            f"c must satisfy c < N = {N}, got {float(c)}; the interval already "
            "covers every possible M, so n = 0 samples suffice"
        )
    _check_float_range(N)
    c = float(c)
    # A product, not a power: x may overflow to inf, which _size_ratio
    # takes as a census.
    x = (N / c) * (N / c)
    y = -0.5 * (math.log(delta) - _LN2)
    return N, c, x, y


def _size_ratio(N, xy):
    # xy / (N + xy), written to survive xy overflowing to inf (c -> 0).
    if math.isinf(xy):
        return 1.0
    return xy / (N + xy)


def _s1_real(N, xy):
    return (N + 1) * _size_ratio(N, xy)


def _s2_real(N, xy):
    ratio = _size_ratio(N, xy)
    half = 0.5 * (N - 1) * ratio
    return half + math.sqrt(half * half + N * ratio)


def required_sample_size(N, delta, c) -> SampleSizeResult:
    """Smallest n with halfwidth_for_confidence(N, n, ., delta) <= c.

    Solves c(n) = c in the regime the solution falls in: S1 when
    N <= c^2/y - 2 (solution at or below N/2, inverting C1), S2
    otherwise (inverting C2).  The real solution is rounded up and
    capped at N.  Requires 0 < c < N; at c >= N no sampling is needed.
    """
    N, c, x, y = _plan_inputs(N, delta, c)
    xy = x * y
    boundary = c * c / y - 2.0
    if N <= boundary:
        regime, n_real = REGIME_S1, _s1_real(N, xy)
    else:
        regime, n_real = REGIME_S2, _s2_real(N, xy)
    n_required = min(N, math.ceil(n_real))
    return SampleSizeResult(n_required, n_real, regime, boundary, x, y)


def sample_size_lower_estimate(N, delta, c) -> float:
    """The simpler underestimate N x y / (N + x y); never exceeds the
    real solution of either regime."""
    N, c, x, y = _plan_inputs(N, delta, c)
    return N * _size_ratio(N, x * y)
