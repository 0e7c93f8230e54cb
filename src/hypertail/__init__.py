"""Hypergeometric tail probabilities, finite-population concentration
bounds, and confidence intervals for sampling without replacement.

The package answers four kinds of question about a population of N
individuals, M of them positive, sampled n at a time without
replacement:

- exact: what is the probability of observing i positives, of a tail
  event, or of deviating from the expected count (`exact`);
- bounded: how large can a tail probability be, in closed form, without
  enumerating anything (`bounds`);
- inferred: given an observed count, what interval around iN/n contains
  M with confidence 1 - delta, and how many samples does a target
  half-width require (`inference`);
- simulated: do empirical draws agree with all of the above
  (`montecarlo`).

The `hypertail` command line exposes everything; see `hypertail --help`.
"""

from .bounds import (
    BoundFamily,
    BoundValue,
    b1_tail,
    b2_tail,
    b3_tail,
    b4_tail,
    best_bound,
    concentration_bound,
    kl_upper_tail_bound,
    tail_bound,
)
from .errors import DomainError, UnsupportedBoundError
from .exact import (
    RATIONAL_LIMIT,
    ExactProb,
    Population,
    as_population,
    flip_symmetry,
    lower_tail,
    pmf,
    swap_symmetry,
    two_sided_exact,
    upper_tail,
)
from .inference import (
    FORMULA_B1,
    FORMULA_C1,
    FORMULA_C2,
    FORMULA_D1,
    FORMULA_D2,
    REGIME_S1,
    REGIME_S2,
    IntervalResult,
    SampleSizeResult,
    b1_confidence_for_halfwidth,
    b1_halfwidth_for_confidence,
    confidence_for_halfwidth,
    halfwidth_for_confidence,
    required_sample_size,
    sample_size_lower_estimate,
)
from .montecarlo import (
    SimulationConfig,
    SimulationReport,
    coverage_experiment,
    draw_without_replacement,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFamily",
    "BoundValue",
    "DomainError",
    "ExactProb",
    "FORMULA_B1",
    "FORMULA_C1",
    "FORMULA_C2",
    "FORMULA_D1",
    "FORMULA_D2",
    "IntervalResult",
    "REGIME_S1",
    "REGIME_S2",
    "Population",
    "RATIONAL_LIMIT",
    "SampleSizeResult",
    "SimulationConfig",
    "SimulationReport",
    "UnsupportedBoundError",
    "as_population",
    "b1_confidence_for_halfwidth",
    "b1_halfwidth_for_confidence",
    "b1_tail",
    "b2_tail",
    "b3_tail",
    "b4_tail",
    "best_bound",
    "concentration_bound",
    "confidence_for_halfwidth",
    "coverage_experiment",
    "draw_without_replacement",
    "flip_symmetry",
    "halfwidth_for_confidence",
    "kl_upper_tail_bound",
    "lower_tail",
    "pmf",
    "required_sample_size",
    "sample_size_lower_estimate",
    "swap_symmetry",
    "tail_bound",
    "two_sided_exact",
    "upper_tail",
]
