"""Measures associated to nonnegative supermartingales, exactly and by Monte Carlo.

Exact side: finite filtered trees with rational arithmetic, additive and
multiplicative decompositions, the Föllmer pair read off the one-step means
as Föllmer's exit measure, the Kunita-Yoeurp verification identity, and
uniqueness diagnostics.  Monte-Carlo side: Brownian drivers with
reproducible per-path streams, the explicit approximating-martingale
families (exponential bridges, suicide strategies, Fatou schedules) and the
mass-redirection non-uniqueness demos.
"""

__version__ = "0.1.0"
