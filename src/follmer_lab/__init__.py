"""Measures associated to nonnegative supermartingales, exactly and by Monte Carlo.

Exact side: finite filtered trees with rational arithmetic, additive and
multiplicative decompositions, the quantile-killing construction of the
Föllmer pair, the Kunita-Yoeurp verification identity, and uniqueness
diagnostics.  Monte-Carlo side: Brownian drivers with reproducible per-path
streams, the explicit approximating-martingale families (exponential bridges,
suicide strategies, Fatou schedules) and the mass-redirection non-uniqueness
demos.
"""

from .trees import (
    AdaptedProcess,
    ExtendedOutcome,
    FilteredTree,
    PredictableProcess,
    StoppingTime,
    conditional_expectation,
    count_stopping_times,
    enumerate_stopping_times,
    frac,
    frac_str,
    is_supermartingale,
    one_step_expectation,
)

__all__ = [
    "AdaptedProcess",
    "ExtendedOutcome",
    "FilteredTree",
    "PredictableProcess",
    "StoppingTime",
    "conditional_expectation",
    "count_stopping_times",
    "enumerate_stopping_times",
    "frac",
    "frac_str",
    "is_supermartingale",
    "one_step_expectation",
]

__version__ = "0.1.0"
