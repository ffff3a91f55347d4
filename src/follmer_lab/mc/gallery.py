"""The named experiments' manifest contract, run bundles and deterministic writers.

Each experiment is a pure function of (seed, n_paths, params) returning an
:class:`ExperimentResult` with tabular rows, plot series and a report dict.
A manifest (JSON) pins everything needed to replay a run bit-exactly;
re-running a manifest must reproduce byte-identical outputs.

The experiments themselves live in :mod:`.experiments`, which imports numpy
and the Monte-Carlo families.  This module imports neither: the exact
subcommands load it without them, and :func:`run_experiment` imports
:mod:`.experiments` once a manifest has passed the checks below.  The
public names of :mod:`.experiments` (:data:`EXPERIMENTS`, the ``run_*``
functions and their helpers) are still readable as ``gallery`` attributes,
imported on first use.

The manifest contract is decided here, by :func:`run_experiment`, before any
path is drawn:

- ``experiment`` names a key of :data:`PARAMS`;
- ``seed`` and ``n_paths`` are JSON integers (not booleans), n_paths >= 2;
- ``params`` is null or an object whose keys are among the experiment's
  entries in :data:`PARAMS`; an unknown key is refused with the list of
  accepted keys, and an omitted key takes its default;
- a parameter's type is its default's: an int parameter takes a JSON
  integer, a float parameter a finite number (an integer is read as a
  float), a list parameter (tuple default) a nonempty list of those; the
  probe times ``ts`` must also be positive;
- the burn-in indices ``m`` and ``m_list`` entries, the split level ``n``,
  ``fp_steps``, ``scan_depth`` and ``refine_points`` are at least 1, and
  the resolution ``k`` at least 0 (:data:`MINIMUM`);
- ``m``, the ``m_list`` entries, ``k`` and ``scan_depth`` are bounded above
  where the code stops computing what it claims (:data:`MAXIMUM`):

  - ``m`` <= 51: a burn-in window is 2^-m long, and from m = 52 the
    windows ending at ``suicide``'s jump times 1 and 2 are as short as the
    spacing of doubles there, so its plateau identity reads false.  Shorter
    windows that a grid cannot resolve are refused by the library below
    (``single_jump`` from m = 36, where its mid-window time lies within the
    1e-12 grid tolerance of several grid times);
  - ``m_list`` entries <= 16: fatou phases are 2^-3m wide, so at m = 18 a
    phase at t = 1/2 is narrower than the spacing of doubles there and
    vanishes (the probe error at 0.5 reads 0.25 where m = 17 reads 0); at
    m = 16 phases stay wider than that spacing up to t = 16.  The
    schedule holds its min(t_max, m) 2^m phases in arrays of about 40
    bytes a phase: at m = 16 and t_max = 1, 2.5 MiB and about 3 ms (a
    2-vCPU Xeon, numpy 2.4);
  - ``k`` <= 16: ``simple_approx`` reads the path at t_max 2^k dyadic
    times in arrays of about 32 bytes a time: at k = 16 and t_max = 1,
    2 MiB and about 3 ms on the same host, but 32 GiB per unit of t_max
    at k = 30; and 2^-k underflows to 0 from k = 1075;
  - ``scan_depth`` <= 1074: every double is a multiple of 2^-1074, so at
    every level from 1074 on a probe is a point of the level's dyadic grid
    and lies in none of its phase intervals.  A deeper scan cannot change
    ``in_S``, and its exact work grows with the square of the depth.

The other range rules are the library's own, and each of them too refuses a
manifest before any path is drawn: the grid spans and window sizes, ``n``
<= 372, ``single_jump``'s 0 <= ``a`` < 1, ``mass_redirect``'s 0 <= ``c``
< 1, a ``level`` above the start and windows that do not overlap,
``suicide``'s ``levels`` (one more than ``jumps``, nonincreasing,
nonnegative) and positive increasing ``jumps``, ``extended``'s ``h``:
its cut must fall after time 0 and finish its 2^-m burn-in by ``t_max``,
else the member would not start at Z_0 or end at its terminal value, and
``fatou``'s ``probes``, each given once, as the report files a probe's
errors under its time, and ``mass_redirect``'s levels ``ls``, each given
once, as the report sums the levels' disjoint masses.  The written
``manifest.json`` echoes ``params`` exactly as given, without the
defaults, so a manifest replays itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FollmerLabError
from ..trees import read_json, write_json


@dataclass
class ExperimentResult:
    rows: List[dict] = field(default_factory=list)  # t, estimate, ci_low, ci_high, n_eff
    series: List[Tuple[str, List[float], List[float]]] = field(default_factory=list)
    report: dict = field(default_factory=dict)


# Every settable parameter of each experiment and its default; the default's
# type is the parameter's type (a tuple default makes a list parameter).
PARAMS: Dict[str, Dict[str, object]] = {
    "exp_decay": {"ts": (0.5, 1.0, 2.0)},
    "reciprocal_bessel": {"ts": (0.5, 1.0, 2.0), "fp_steps": 64},
    "uniform_rho": {"m": 8},
    "single_jump": {
        "a": 0.5, "m": 6, "anchor": 1.0, "t_max": 2.0, "base_step": 1 / 16, "refine_points": 24,
    },
    "suicide": {
        "m": 6, "jumps": (1.0, 2.0), "levels": (1.0, 0.5, 0.25), "t_max": 3.0, "base_step": 1 / 8,
    },
    "fatou": {
        "m_list": tuple(range(1, 9)), "probes": (0.5, 0.375), "scan_depth": 20,
        "t_max": 1.0, "base_step": 1 / 64,
    },
    "mass_redirect": {"c": 0.5, "ls": (1, 2), "k": 3, "m": 6, "level": 4.0},
    "split_limit": {"n": 4},
    "extended": {"h": 1.0, "k": 3, "m": 6, "t_max": 1.5},
    "bm_check": {"t_max": 1.0, "base_step": 1 / 32},
}
POSITIVE = {"ts"}  # float parameters whose values must also be > 0
# bounds of int parameters (for a list, of each entry), checked before
# 2.0**-m and the like can overflow or underflow; the module docstring says
# where each upper bound comes from
MINIMUM = {"m": 1, "n": 1, "fp_steps": 1, "m_list": 1, "k": 0, "scan_depth": 1, "refine_points": 1}
MAXIMUM = {"m": 51, "m_list": 16, "k": 16, "scan_depth": 1074}


def _checked(key: str, x, kind: type, entry: bool = False):
    """``x`` as a ``kind`` value of the parameter ``key`` (or an entry of it), else an error naming it."""
    ok = isinstance(x, int if kind is int else (int, float)) and not isinstance(x, bool)
    if ok and kind is float:
        ok = abs(x) <= sys.float_info.max and (x > 0 or key not in POSITIVE)  # False for nan
    low, high = MINIMUM.get(key), MAXIMUM.get(key)
    if ok and low is not None and x < low:
        raise FollmerLabError(f"{key} must be at least {low}, got {x!r}")
    if ok and high is not None and x > high:
        raise FollmerLabError(f"{key} must be at most {high}, got {x!r}")
    if ok:
        return kind(x)
    what = "an integer" if kind is int else "a positive number" if key in POSITIVE else "a finite number"
    raise FollmerLabError(f"{key} entry {x!r} is not {what}" if entry else f"{key} must be {what}, got {x!r}")


def _resolve(name: str, params) -> dict:
    """``params`` checked against ``PARAMS[name]``, with the defaults filled in."""
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise FollmerLabError(f"params must be an object or null, got {params!r}")
    table = PARAMS[name]
    resolved = dict(table)
    for key, x in params.items():
        if key not in table:
            raise FollmerLabError(f"{name} has no parameter {key!r}; it accepts {sorted(table)}")
        default = table[key]
        if not isinstance(default, tuple):
            resolved[key] = _checked(key, x, type(default))
        elif isinstance(x, list) and x:
            resolved[key] = tuple(_checked(key, v, type(default[0]), entry=True) for v in x)
        else:
            raise FollmerLabError(f"{key} must be a nonempty list, got {x!r}")
    return resolved


def run_experiment(name: str, seed: int, n_paths: int, params: Optional[dict]) -> ExperimentResult:
    """Validate a manifest's fields as the module docstring says, then run its experiment.

    Every estimate needs a standard error, so n_paths >= 2.
    """
    if not isinstance(name, str) or name not in PARAMS:
        raise FollmerLabError(
            f"unknown experiment {name!r}; choose from {sorted(PARAMS)}"
        )
    _checked("seed", seed, int)
    _checked("n_paths", n_paths, int)
    if n_paths < 2:
        raise FollmerLabError(f"need n_paths >= 2, got {n_paths}")
    resolved = _resolve(name, params)
    from .experiments import EXPERIMENTS  # numpy and the families: slow to import, so only here

    return EXPERIMENTS[name](seed, n_paths, resolved)


def __getattr__(name: str):
    """``gallery.<name>`` for the public names of :mod:`.experiments`, imported on first use.

    A private name is not forwarded, so probing one imports nothing.
    """
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import experiments

    return getattr(experiments, name)


# -- manifests and deterministic writers ----------------------------------------


def write_manifest(
    path: str, experiment: str, seed: int, n_paths: int, params: Optional[dict]
) -> None:
    write_json(path, {"experiment": experiment, "seed": seed, "n_paths": n_paths, "params": params})


def read_manifest(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise FollmerLabError(f"manifest must be a JSON object, got {data!r}")
    for key in ("experiment", "seed", "n_paths"):
        if key not in data:
            raise FollmerLabError(f"manifest missing {key!r}")
    data.setdefault("params", {})
    return data


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_results_csv(result: ExperimentResult, path: str) -> None:
    keys = ["t", "estimate", "ci_low", "ci_high", "n_eff"]
    extra = sorted({k for row in result.rows for k in row} - set(keys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys + extra) + "\n")
        for row in result.rows:
            fh.write(",".join(_fmt(row.get(k, "")) for k in keys + extra) + "\n")


def write_plot_data(result: ExperimentResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("series,x,y\n")
        for name, xs, ys in result.series:
            for x, y in zip(xs, ys):
                fh.write(f"{name},{_fmt(float(x))},{_fmt(float(y))}\n")


def write_report_json(result: ExperimentResult, path: str, experiment: str) -> None:
    """The report under the manifest's ``experiment`` name (``bench/tracer.py`` reads ``path`` second)."""
    write_json(path, {"experiment": experiment, "report": result.report})
