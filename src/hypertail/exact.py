"""Exact hypergeometric probabilities in rational and log-space arithmetic.

A population holds N individuals, M of which are positive.  Drawing n
individuals uniformly at random without replacement, the number of
positives i in the sample follows the hypergeometric law

    h(N, M, n, i) = C(M, i) * C(N - M, n - i) / C(N, n)

with the convention C(x, y) = 0 for y > x or y < 0.

Every probability is produced in two forms at once: an arbitrary
precision rational (`fractions.Fraction`) and its natural logarithm.
`mode="rational"` and `mode="log"` force one path; `mode="auto"` (the
default) takes the rational one, at any N, when the price is within
RATIONAL_BUDGET: bits = k log2(e N / k) >= log2 C(N, n), k = min(n, N - n),
times (the terms of the walks below + bits / 16 for the binomials): a
bound on the rational cost, which sums the shorter side of a range.

Every result is one priced sum of walks.  The pmf h(i) is the walk of one
term from i, and a tail or deviation is P[i < lo] + P[i > hi], the
probability outside a range of outcomes; a walk of no terms is set aside
as an exact 0 or 1.  P[i >= k] (P[i < lo] is one of the flipped
population) is one walk of h(i + 1) = h(i) r(i) from k away from the
mode, or the complement of the other tail when k is on the rising side,
k (N + 2) < (n + 1)(M + 1).  The ratio is r(i) = p / q, p = (M - i)(n - i)
and q = (i + 1)(N - M - n + i + 1), with p and q stepped by their exact
differences.  The rational walk sums the integers C(N, n) h(i), and the
walks of one result are added over one C(N, n); each C(N, n) h(i) is an
integer on either side of the mode, so C(N, n) minus the sum over lo..hi,
upward through the support, is the same integer, summed where shorter.
The log walk sums floats relative to h(k), with float counters when
(N + 1)(n + 1) < 2^53, each an integer that a float holds exactly, so r is
the same correctly rounded quotient on either type.  It stops once
term * r < 2**-55 sum, tested every 32 terms: r falls along the walk, so
each later term is at most term * r with one rounding, below half an ulp
of a sum that only grows, and leaves the float as it is.

Both deviation questions come down to one range of outcomes.  The
two-sided tail P[|i - nM/N| >= c] lies outside the open range
|iN - nM| < cN, and the interval [iN/n - c, iN/n + c] holds M exactly
on the closed range |iN - nM| <= cn.  `_outcome_range` finds either in
integer floor division on the bound's exact ratio.

The log pmf is Loader's saddle-point form in O(1) (C. Loader, "Fast and
Accurate Computation of Binomial Probabilities", 2000; R's dhyper):
log h = log b(i; M, p) + log b(n - i; N - M, p) - log b(n; N, p) at
p = n / N, each a sum of stirlerr and bd0 terms, whose floats are integer
quotients rounded once, as x - m p = +-(i N - M n) / N, or logs of
integers, each finite where log h is.  So the log path takes any N and n
up to the largest float, 1.8e308, and a log h below -1.8e308 reads -inf;
the rational path takes min(n, N - n) < 2^63, math.comb's range
(DomainError past either).  Against mpmath the pmf is within 3e-13
relative where it is a normal double, at N to 10^1000 and n to 1.7e308.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._validation import as_int, check_positive, check_range
from .errors import DomainError

#: Kept importable for callers; mode="auto" prices its walks at any N and no longer reads it.
RATIONAL_LIMIT = 1_000_000

#: Largest price (module docstring) that mode="auto" evaluates in
#: rational arithmetic: 0.2-0.6 ns a unit, about 10 ms on one core.
RATIONAL_BUDGET = 25_000_000

_MODES = ("auto", "rational", "log")

#: _bd0's series stops once its next term is below this fraction of its total.
_TRUNCATION = 2.0**-60

#: The log walk tests that stop once every _CHECK terms (module docstring).
_CHECK = 32


@dataclass(frozen=True)
class Population:
    """A finite population of size N containing M positive individuals.

    M may be omitted when the positive count is unknown; operations that
    need it raise DomainError.
    """

    N: int
    M: int | None = None

    def __post_init__(self):
        N, M = _counts((self.N, self.M))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)

    def require_positives(self) -> int:
        return _check_sample(self, 0)[1]

    @property
    def positive_fraction(self) -> Fraction:
        """p = M/N as an exact rational."""
        return Fraction(self.require_positives(), self.N)


@dataclass(frozen=True)
class ExactProb:
    """A probability as an exact rational or float, plus its natural log.

    `value` is a Fraction from the rational path and a float from the log
    path.  `log_value` is -inf when the probability is 0 or, on the log
    path, below exp(-1.8e308) (module docstring).
    """

    value: Fraction | float
    log_value: float

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise DomainError(f"probability must lie in [0, 1], got {self.value}")

    @classmethod
    def from_rational(cls, value: Fraction) -> "ExactProb":
        if value == 0:
            return cls(value, float("-inf"))
        f = float(value)
        if f < 2.0**-1022:
            # Below the normal floats: log a quotient scaled to 54-55 bits.
            s = value.denominator.bit_length() - value.numerator.bit_length() + 54
            log_value = math.log((value.numerator << s) / value.denominator) - s * math.log(2)
        elif f > 0.1:
            # log1p on the exact difference keeps the log accurate near 1.
            log_value = math.log1p((value.numerator - value.denominator) / value.denominator)
        else:
            log_value = math.log(f)
        return cls(value, min(0.0, log_value))

    @classmethod
    def from_log(cls, log_value: float) -> "ExactProb":
        if not log_value < math.inf:  # NaN or +inf: a float overflowed on the way
            raise DomainError(f"log probability must be a number below +inf, got {log_value}")
        log_value = min(0.0, log_value)
        return cls(math.exp(log_value), log_value)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def __float__(self) -> float:
        return float(self.value)


def _counts(pop) -> tuple[int, int | None]:
    """N and M, None if unknown, of a Population, an (N,) or (N, M) tuple or
    list, or a bare N, checked as Population checks them: the package's one
    reader of a population argument, which builds no Population."""
    if not isinstance(pop, (tuple, list)):
        if isinstance(pop, Population):
            return pop.N, pop.M
        pop = (pop,)
    elif not 1 <= len(pop) <= 2:
        raise DomainError(f"population must be (N,) or (N, M), got {pop!r}")
    N = check_range(pop[0], "N", 1)
    return N, None if len(pop) == 1 or pop[1] is None else check_range(pop[1], "M", 0, N)


def as_population(pop) -> Population:
    """Coerce a Population, an (N, M) pair, or a bare N into a Population."""
    return pop if isinstance(pop, Population) else Population(*_counts(pop))


def _support(N: int, M: int, n: int) -> tuple[int, int]:
    return max(0, n - (N - M)), min(n, M)


#: stirlerr(k) = log k! - log(sqrt(2 pi k) (k / e)^k) for k < 16, from
#: mpmath at 50 digits (k = 0 is never used).
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_LOG_2PI = math.log(2 * math.pi)


def _stirlerr(k: int) -> float:
    """The table, else the Stirling series to 1/k^9 (next term < 2e-16) in r = 1/k."""
    if k < len(_STIRLERR):
        return _STIRLERR[k]
    r = 1 / k
    u = r * r
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - u / 1188) * u) * u) * u) * r


def _bd0(x: int, a: int, N: int) -> float:
    """x log(x / m) + m - x at m = a / N > 0, by the odd series in
    v = (xN - a) / (xN + a) from 2xv = d (1 + v), d = (xN - a) / N, while
    |v| < 1/2, else as x (log(x / m) - d / x), finite wherever the result
    is; x / m is the quotient xN / a wherever it fits a float."""
    xN = x * N
    v, d = (xN - a) / (xN + a), (xN - a) / N
    if abs(v) >= 0.5:
        ratio = math.log(xN / a) if xN >> 1000 < a else math.log(xN) - math.log(a)
        return x * (ratio - (xN - a) / xN)
    total, term, j = d * v, d * (1 + v), 1
    while abs(term) > _TRUNCATION * total:
        term *= v * v
        j += 2
        total += term / j
    return total


def _log_pmf(N: int, M: int, n: int, i: int) -> float:
    """Natural log of the pmf (module docstring) at i in the support, with
    log(x y / m) = log s + log1p(-s / m) at s = min(x, y)."""
    lo, hi = _support(N, M, n)
    if lo == hi:
        return 0.0  # n or M is 0 or N: a single, certain outcome
    total = 0.0
    for x, m, sign in ((i, M, 1), (n - i, N - M, 1), (n, N, -1)):
        y, s = m - x, min(x, m - x)
        if s == 0:  # b(x; m, p) is q^m = -(bd0(m, m q) + m p), or p^m its mirror
            a = m * (N - n) if x == 0 else m * n
            total -= sign * (_bd0(m, a, N) + (m * N - a) / N)
            continue
        total += sign * (
            _stirlerr(m) - _stirlerr(x) - _stirlerr(y) - _bd0(x, m * n, N)
            - _bd0(y, m * (N - n), N) - 0.5 * (_LOG_2PI + math.log(s) + math.log1p(-s / m))
        )
    return total


def _walk(N: int, M: int, n: int, k: int) -> tuple[bool, int, int, int]:
    """P[i >= k] as (flip, M, k, terms): the sum of h over the `terms`
    outcomes from k on, with M positives, or 1 minus it when flip.  The
    walk starts on the falling side; an empty one leaves 0 or 1."""
    lo, hi = _support(N, M, n)
    if not lo < k <= hi:
        return k <= lo, M, k, 0
    if k * (N + 2) < (n + 1) * (M + 1):
        # 1 - P[i <= k - 1]; the flipped threshold is on the falling side.
        return True, N - M, n - k + 1, min(n, N - M) - (n - k)
    return False, M, k, hi - k + 1


def _sum_walk(N: int, n: int, walk, rational: bool) -> int | float:
    """A tail (or the pmf) from its walk of one or more terms of r(i) = p / q
    (module docstring): the integer sum C(N, n) P[i >= k], unflipped, or a log."""
    flip, M, k, terms = walk
    p, q = (M - k) * (n - k), (k + 1) * (N - M - n + k + 1)
    dp, dq, step = 2 * k + 1 - M - n, N - M - n + 2 * k + 3, 2
    if rational:
        term = total = math.comb(M, k) * math.comb(N - M, n - k)
        for _ in range(terms - 1):
            term = term * p // q
            total += term
            p, q = p + dp, q + dq
            dp, dq = dp + step, dq + step
        return total
    if (N + 1) * (n + 1) < 2**53:  # every counter is an integer below 2^53, exact as a float
        p, q, dp, dq, step = float(p), float(q), float(dp), float(dq), 2.0
    term = total = 1.0
    for done in range(0, terms - 1, _CHECK):
        for _ in range(min(_CHECK, terms - 1 - done)):
            r = p / q
            term *= r
            total += term
            p, q = p + dp, q + dq
            dp, dq = dp + step, dq + step
        if term * r < 2.0**-55 * total:
            break
    log_value = _log_pmf(N, M, n, k) + math.log(total)
    # A +inf log (a float that overflowed) goes up as it is, for ExactProb.from_log to reject.
    return math.log(-math.expm1(log_value)) if flip and log_value < math.inf else log_value


def _outcome_range(N: int, M: int, n: int, w, scale: int, closed: bool) -> tuple[int, int]:
    """The outcomes lo..hi, clipped to 0..n, with |iN - nM| <= w scale
    (closed) or < w scale (open), for an exact rational w = p/q read
    through as_integer_ratio and an integer scale; lo > hi when there
    are none.  Both sides of q |iN - nM| <= p scale are integers, so the
    open range is q |iN - nM| <= p scale - 1."""
    p, q = w.as_integer_ratio()
    p = p * scale - (not closed)
    return max(-((p - q * n * M) // (q * N)), 0), min((q * n * M + p) // (q * N), n)


def _log_add(a: float, b: float) -> float:
    hi, lo = max(a, b), min(a, b)
    return hi if lo == float("-inf") else hi + math.log1p(math.exp(lo - hi))


def _priced(N: int, n: int, walks, mode: str, inside=()) -> ExactProb:
    """The sum of the walks' tails as one ExactProb, all on the path that "auto"
    prices (module docstring); a walk of no terms is an exact 0, or 1 if flipped.
    The rational path sums the equal flipped walk `inside` when it is shorter."""
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    summed, aside, terms = [], 0, 0
    for walk in walks:
        if walk[3]:
            summed.append(walk)
            terms += walk[3]
        else:
            aside += walk[0]
    rational = mode == "rational"
    if mode == "auto":
        k = min(n, N - n, RATIONAL_BUDGET)  # a larger k prices past the budget too
        bits = k and k * (math.log2(N) - math.log2(k) + math.log2(math.e))
        rational = bits * (terms + len(summed) * bits / 16) <= RATIONAL_BUDGET
    if summed and not rational and n > 1.7976931348623157e308:
        raise DomainError("the log path computes in floats and takes n up to about 1.8e308")
    if rational:
        if inside and inside[3] < terms:
            summed, aside = ([inside], 0) if inside[3] else ([], 1)
        # Every binomial's smaller argument is at most min(n, N - n).
        if summed and n >= 2**63 and N - n >= 2**63:
            raise DomainError("the rational path takes min(n, N - n) < 2^63, math.comb's range")
        whole = math.comb(N, n) if summed else 1
        total = aside * whole
        for walk in summed:
            t = _sum_walk(N, n, walk, True)
            total += whole - t if walk[0] else t
        return ExactProb.from_rational(Fraction(total, whole))
    parts = [_sum_walk(N, n, walk, False) for walk in summed]
    if aside or not parts:
        parts.append(0.0 if aside else float("-inf"))
    return ExactProb.from_log(functools.reduce(_log_add, parts))


def _check_sample(pop, n) -> tuple[int, int, int]:
    """N, the required positive count M, and 0 <= n <= N."""
    N, M = _counts(pop)
    if M is None:
        raise DomainError("positive count M is required but unknown")
    return N, M, check_range(n, "n", 0, N)


def _outside(N: int, M: int, n: int, lo: int, hi: int, mode: str) -> ExactProb:
    """P[i < lo] + P[i > hi], both walks priced at once so that "auto" takes one path;
    no outcome of the support lies in hi < i < lo, so it is also 1 - P[lo <= i <= hi]."""
    start, end = _support(N, M, n)
    inside = (True, M, max(lo, start), max(0, min(hi, end) - max(lo, start) + 1))
    return _priced(N, n, (_walk(N, N - M, n, n - lo + 1), _walk(N, M, n, hi + 1)), mode, inside)


def pmf(pop, n: int, i: int, *, mode: str = "auto") -> ExactProb:
    """P[exactly i positives among n draws] = C(M,i) C(N-M,n-i) / C(N,n).

    Requires 0 <= n <= N and 0 <= i <= n; outcomes outside the support
    (for example i > M) are inside that range and simply have
    probability zero.
    """
    N, M, n = _check_sample(pop, n)
    i = check_range(i, "i", 0, n)
    lo, hi = _support(N, M, n)
    return _priced(N, n, [(False, M, i, int(lo <= i <= hi))], mode)


def lower_tail(pop, n: int, k: int, *, mode: str = "auto") -> ExactProb:
    """P[i <= k] = sum of pmf over i = 0..k.

    k may be any integer: the sum is empty (probability 0) for k < 0 and
    covers the whole support (probability 1) for k >= n.  The symmetry
    transforms rely on those degenerate cases.
    """
    N, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    return _outside(N, M, n, k + 1, n, mode)


def upper_tail(pop, n: int, k: int, *, mode: str = "auto") -> ExactProb:
    """P[i >= k] = sum of pmf over i = k..n.

    As with lower_tail, k may be any integer; k <= 0 gives probability 1
    and k > n gives probability 0.
    """
    N, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    return _outside(N, M, n, 0, k - 1, mode)


def two_sided_exact(pop, n: int, c, *, mode: str = "auto") -> ExactProb:
    """P[|i - nM/N| >= c] for an absolute count deviation c > 0.

    The event is every outcome outside the open range |iN - nM| < cN
    (module docstring), so boundary outcomes where the deviation equals
    c exactly are included.
    """
    N, M, n = _check_sample(pop, n)
    lo, hi = _outcome_range(N, M, n, check_positive(c, "c"), N, False)
    return _outside(N, M, n, lo, hi, mode)


def flip_symmetry(pop, n: int, k: int) -> tuple[Population, int]:
    """Relabel positives as negatives: P[i <= k] = P[i' >= n - k] where
    i' counts positives in the flipped population (N, N - M).

    Returns the flipped population and the transformed threshold, so
    lower_tail(pop, n, k) == upper_tail(*flip_symmetry(pop, n, k) ...)
    holds exactly.
    """
    N, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    return Population(N, N - M), n - k


def swap_symmetry(pop, n: int, k: int) -> tuple[int, int]:
    """Swap the roles of the sampled and left-over individuals:
    P[i <= k among n draws] = P[i' >= M - k among N - n draws].

    Returns the complementary sample count and threshold.  Requires
    n < N so the complement sample is nonempty.
    """
    N, M, n = _check_sample(pop, n)
    if n == N:
        raise DomainError("n must satisfy n < N; the complement sample is empty")
    k = as_int(k, "k")
    return N - n, M - k
