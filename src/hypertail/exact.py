"""Exact hypergeometric probabilities in rational and log-space arithmetic.

A population holds N individuals, M of which are positive.  Drawing n
individuals uniformly at random without replacement, the number of
positives i in the sample follows the hypergeometric law

    h(N, M, n, i) = C(M, i) * C(N - M, n - i) / C(N, n)

with the convention C(x, y) = 0 for y > x or y < 0.

Every probability is produced in two forms at once: an arbitrary
precision rational (`fractions.Fraction`) and its natural logarithm.
The rational form is exact but the binomial coefficients grow too large
to be practical past N of about a million, so each operation also has a
log-gamma evaluation path that works at any scale.  `mode="auto"`
(the default) picks rationals for N <= RATIONAL_LIMIT and log-space
above that; `mode="rational"` and `mode="log"` force one path.
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


def _comb(x: int, y: int) -> int:
    if y < 0 or y > x:
        return 0
    return math.comb(x, y)


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


def _log_tail_sum(N, M, n, anchor, last, step, ratio) -> float:
    """log of sum_{i} pmf from `anchor` to `last` inclusive, stepping by
    `step`, where ratio(i) = pmf(i + step)/pmf(i) exactly in reals.

    The anchored term is computed once; the rest follow from the
    recurrence, accumulated with running rescaling so intermediate
    sums can neither overflow nor underflow.
    """
    base = _log_pmf(N, M, n, anchor)
    total = 1.0
    shift = 0.0
    log_term = 0.0
    i = anchor
    while i != last:
        log_term += math.log(ratio(i))
        i += step
        if log_term - shift > 300.0:
            total = total * math.exp(shift - log_term) + 1.0
            shift = log_term
        else:
            total += math.exp(log_term - shift)
    return base + shift + math.log(total)


def _log_lower_tail(N: int, M: int, n: int, k: int) -> float:
    lo, hi = _support(N, M, n)
    if k < lo:
        return float("-inf")
    if k >= hi:
        return 0.0

    def ratio(i):  # pmf(i - 1) / pmf(i)
        return (i * (N - M - n + i)) / ((M - i + 1) * (n - i + 1))

    return min(0.0, _log_tail_sum(N, M, n, k, lo, -1, ratio))


def _log_upper_tail(N: int, M: int, n: int, k: int) -> float:
    lo, hi = _support(N, M, n)
    if k > hi:
        return float("-inf")
    if k <= lo:
        return 0.0

    def ratio(i):  # pmf(i + 1) / pmf(i)
        return ((M - i) * (n - i)) / ((i + 1) * (N - M - n + i + 1))

    return min(0.0, _log_tail_sum(N, M, n, k, hi, 1, ratio))


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
        numerator = _comb(M, i) * _comb(pop.N - M, n - i)
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
    hi = min(k, n)
    if _resolve_rational(pop, mode):
        numerator = sum(_comb(M, i) * _comb(pop.N - M, n - i) for i in range(hi + 1))
        return ExactProb.from_rational(Fraction(numerator, math.comb(pop.N, n)))
    return ExactProb.from_log(_log_lower_tail(pop.N, M, n, hi))


def upper_tail(pop, n: int, k: int, *, mode: str = "auto") -> ExactProb:
    """P[i >= k] = sum of pmf over i = k..n.

    As with lower_tail, k may be any integer; k <= 0 gives probability 1
    and k > n gives probability 0.
    """
    pop, M, n = _check_sample(pop, n)
    k = as_int(k, "k")
    lo = max(k, 0)
    if _resolve_rational(pop, mode):
        numerator = sum(
            _comb(M, i) * _comb(pop.N - M, n - i) for i in range(lo, n + 1)
        )
        return ExactProb.from_rational(Fraction(numerator, math.comb(pop.N, n)))
    return ExactProb.from_log(_log_upper_tail(pop.N, M, n, lo))


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
