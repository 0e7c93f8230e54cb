"""Exact hypergeometric probabilities in rational and log-space arithmetic.

A population holds N individuals, M of which are positive.  Drawing n
individuals uniformly at random without replacement, the number of
positives i in the sample follows the hypergeometric law

    h(N, M, n, i) = C(M, i) * C(N - M, n - i) / C(N, n)

with the convention C(x, y) = 0 for y > x or y < 0.

Every probability is produced in two forms at once: an arbitrary
precision rational (`fractions.Fraction`) and its natural logarithm.
`mode="auto"` (the default) picks rationals for N <= RATIONAL_LIMIT and
log-space above that; `mode="rational"` and `mode="log"` force one path.

A tail P[i >= k] (a lower tail is an upper tail of the flipped
population) is one walk of h(i + 1) = h(i) r(i) from k away from the
mode, or the complement of the other tail when k is on the rising side,
k (N + 2) < (n + 1)(M + 1).  The rational walk sums exact integers; the
log walk sums floats relative to h(k) and stops once the rest, at most
term * r / (1 - r) as r falls past the mode, is below 2**-60 of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._validation import as_int, check_range
from .errors import DomainError

#: Largest N for which mode="auto" evaluates in rational arithmetic.
RATIONAL_LIMIT = 1_000_000

_MODES = ("auto", "rational", "log")

#: The log-path tail walk stops once the terms left are provably below
#: this fraction of the running total.
_TRUNCATION = 2.0**-60


@dataclass(frozen=True)
class Population:
    """A finite population of size N containing M positive individuals.

    M may be omitted when the positive count is unknown; operations that
    need it raise DomainError.
    """

    N: int
    M: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "N", check_range(self.N, "N", 1))
        if self.M is not None:
            object.__setattr__(self, "M", check_range(self.M, "M", 0, self.N))

    def require_positives(self) -> int:
        if self.M is None:
            raise DomainError("positive count M is required but unknown")
        return self.M

    @property
    def positive_fraction(self) -> Fraction:
        """p = M/N as an exact rational."""
        return Fraction(self.require_positives(), self.N)

    def flipped(self) -> "Population":
        """The same population with positive and negative labels swapped."""
        return Population(self.N, self.N - self.require_positives())


@dataclass(frozen=True)
class ExactProb:
    """A probability as an exact rational or float, plus its natural log.

    `value` is a Fraction when produced by the rational path and a float
    when produced by the log path.  `log_value` is -inf exactly when the
    probability is zero.
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
        if f == 0.0:
            # Underflowed to subnormal zero; log the integer parts instead.
            log_value = math.log(value.numerator) - math.log(value.denominator)
        elif f > 0.1:
            # log1p on the exact difference keeps the log accurate near 1.
            log_value = math.log1p(float(value - 1))
        else:
            log_value = math.log(f)
        return cls(value, min(0.0, log_value))

    @classmethod
    def from_log(cls, log_value: float) -> "ExactProb":
        log_value = min(0.0, log_value)
        return cls(math.exp(log_value), log_value)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def __float__(self) -> float:
        return float(self.value)


def as_population(pop) -> Population:
    """Coerce a Population, an (N, M) pair, or a bare N into a Population."""
    if isinstance(pop, Population):
        return pop
    if isinstance(pop, (tuple, list)):
        if not 1 <= len(pop) <= 2:
            raise DomainError(f"population must be (N,) or (N, M), got {pop!r}")
        return Population(*pop)
    return Population(pop)


def _resolve_rational(pop: Population, mode: str) -> bool:
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "auto":
        return pop.N <= RATIONAL_LIMIT
    return mode == "rational"


def _support(N: int, M: int, n: int) -> tuple[int, int]:
    return max(0, n - (N - M)), min(n, M)


def _log_pmf(N: int, M: int, n: int, i: int) -> float:
    """Natural log of the pmf, accurate to ~1e-12 relative even for
    huge N.

    Uses h = C(n,i) * prod_{j<i} (M-j)/(N-j)
                    * prod_{j<n-i} (N-M-j)/(N-i-j)
    so every log term is O(1) in magnitude; summing with fsum keeps the
    error near one ulp per term instead of inheriting the huge absolute
    ulp of log-gamma values like lgamma(N+1).
    """
    lo, hi = _support(N, M, n)
    if not lo <= i <= hi:
        return float("-inf")
    y = min(i, n - i)

    def terms():
        for j in range(y):
            yield math.log((n - j) / (j + 1))
        for j in range(i):
            yield math.log((M - j) / (N - j))
        for j in range(n - i):
            yield math.log((N - M - j) / (N - i - j))

    return math.fsum(terms())


def _tail(N: int, M: int, n: int, k: int, rational: bool) -> Fraction | float:
    """P[i >= k] as a Fraction if `rational`, else its natural log, with
    r(i) = h(i + 1) / h(i) = (M - i)(n - i) / ((i + 1)(N - M - n + i + 1))."""
    lo, hi = _support(N, M, n)
    if k <= lo:
        return Fraction(1) if rational else 0.0
    if k > hi:
        return Fraction(0) if rational else float("-inf")
    if k * (N + 2) < (n + 1) * (M + 1):
        # 1 - P[i <= k - 1]; the flipped threshold is on the falling side.
        rest = _tail(N, N - M, n, n - k + 1, rational)
        return 1 - rest if rational else math.log(-math.expm1(rest))
    if rational:
        term = total = math.comb(M, k) * math.comb(N - M, n - k)
        for i in range(k, hi):
            term = term * (M - i) * (n - i) // ((i + 1) * (N - M - n + i + 1))
            total += term
        return Fraction(total, math.comb(N, n))
    term = total = 1.0
    for i in range(k, hi):
        r = (M - i) * (n - i) / ((i + 1) * (N - M - n + i + 1))
        term *= r
        total += term
        if term * r < _TRUNCATION * total * (1 - r):
            break
    return _log_pmf(N, M, n, k) + math.log(total)


def _log_add(a: float, b: float) -> float:
    if a == float("-inf"):
        return b
    if b == float("-inf"):
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _check_sample(pop, n) -> tuple[Population, int, int]:
    """The population, its required positive count M, and 0 <= n <= N."""
    pop = as_population(pop)
    return pop, pop.require_positives(), check_range(n, "n", 0, pop.N)


def pmf(pop, n: int, i: int, *, mode: str = "auto") -> ExactProb:
    """P[exactly i positives among n draws] = C(M,i) C(N-M,n-i) / C(N,n).

    Requires 0 <= n <= N and 0 <= i <= n; outcomes outside the support
    (for example i > M) are inside that range and simply have
    probability zero.
    """
    pop, M, n = _check_sample(pop, n)
    i = check_range(i, "i", 0, n)
    if _resolve_rational(pop, mode):
        numerator = math.comb(M, i) * math.comb(pop.N - M, n - i)
        return ExactProb.from_rational(Fraction(numerator, math.comb(pop.N, n)))
    return ExactProb.from_log(_log_pmf(pop.N, M, n, i))


def lower_tail(pop, n: int, k: int, *, mode: str = "auto") -> ExactProb:
    """P[i <= k] = sum of pmf over i = 0..k.

    k may be any integer: the sum is empty (probability 0) for k < 0 and
    covers the whole support (probability 1) for k >= n.  The symmetry
    transforms rely on those degenerate cases.
    """
    pop, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    if _resolve_rational(pop, mode):
        return ExactProb.from_rational(_tail(pop.N, pop.N - M, n, n - min(k, n), True))
    return ExactProb.from_log(_tail(pop.N, pop.N - M, n, n - min(k, n), False))


def upper_tail(pop, n: int, k: int, *, mode: str = "auto") -> ExactProb:
    """P[i >= k] = sum of pmf over i = k..n.

    As with lower_tail, k may be any integer; k <= 0 gives probability 1
    and k > n gives probability 0.
    """
    pop, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    if _resolve_rational(pop, mode):
        return ExactProb.from_rational(_tail(pop.N, M, n, max(k, 0), True))
    return ExactProb.from_log(_tail(pop.N, M, n, max(k, 0), False))


def two_sided_exact(pop, n: int, c, *, mode: str = "auto") -> ExactProb:
    """P[|i - nM/N| >= c] for an absolute count deviation c > 0.

    The event splits into i <= nM/N - c and i >= nM/N + c.  Thresholds
    are resolved exactly: the lower part sums up to floor(nM/N - c), the
    upper part from ceil(nM/N + c), so boundary outcomes where the
    deviation equals c exactly are included.  c > 0 keeps the two parts
    disjoint.
    """
    pop, M, n = _check_sample(pop, n)
    if isinstance(c, float) and not math.isfinite(c):
        raise DomainError(f"c must be finite, got {c}")
    try:
        c_exact = Fraction(c)
    except (TypeError, ValueError):
        raise DomainError(f"c must be a real number, got {c!r}") from None
    if c_exact <= 0:
        raise DomainError(f"c must be positive, got {c}")
    mean = Fraction(n * M, pop.N)
    k_lo = math.floor(mean - c_exact)
    k_hi = math.ceil(mean + c_exact)
    low = lower_tail(pop, n, k_lo, mode=mode)
    high = upper_tail(pop, n, k_hi, mode=mode)
    if low.is_exact and high.is_exact:
        return ExactProb.from_rational(low.value + high.value)
    return ExactProb.from_log(_log_add(low.log_value, high.log_value))


def flip_symmetry(pop, n: int, k: int) -> tuple[Population, int]:
    """Relabel positives as negatives: P[i <= k] = P[i' >= n - k] where
    i' counts positives in the flipped population (N, N - M).

    Returns the flipped population and the transformed threshold, so
    lower_tail(pop, n, k) == upper_tail(*flip_symmetry(pop, n, k) ...)
    holds exactly.
    """
    pop, _, n = _check_sample(pop, n)
    k = as_int(k, "k")
    return pop.flipped(), n - k


def swap_symmetry(pop, n: int, k: int) -> tuple[int, int]:
    """Swap the roles of the sampled and left-over individuals:
    P[i <= k among n draws] = P[i' >= M - k among N - n draws].

    Returns the complementary sample count and threshold.  Requires
    n < N so the complement sample is nonempty.
    """
    pop, M, n = _check_sample(pop, n)
    if n == pop.N:
        raise DomainError("n must satisfy n < N; the complement sample is empty")
    k = as_int(k, "k")
    return pop.N - n, M - k
