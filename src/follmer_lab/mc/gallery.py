"""Named experiments, their closed-form laws, and reproducible run bundles.

Each experiment is a pure function of (seed, n_paths, params) returning an
:class:`ExperimentResult` with tabular rows, plot series and a report dict.
A manifest (JSON) pins everything needed to replay a run bit-exactly;
re-running a manifest must reproduce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import FollmerLabError
from .bridges import SIGMA_MAX, SimpleNonincreasing, simple_approx, single_jump_approx, suicide_martingale
from .fatou import fatou_approx, fatou_probe_error, in_S
from .families import (
    extended_approx,
    localized_suicide_family,
    mass_redirect,
    split_limit_demo,
)
from .grids import GridSpec
from .paths import PathBatch, simulate_bm
from .streams import fill_paths, mean_and_se, median_of_means, mom_standard_error


@dataclass
class ExperimentResult:
    name: str
    rows: List[dict] = field(default_factory=list)  # t, estimate, ci_low, ci_high, n_eff
    series: List[Tuple[str, List[float], List[float]]] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def _row(t: float, est: float, se: float, n: int, **extra) -> dict:
    out = {
        "t": t,
        "estimate": est,
        "ci_low": est - 1.96 * se,
        "ci_high": est + 1.96 * se,
        "n_eff": n,
    }
    out.update(extra)
    return out


# -- gallery: exponential decay -------------------------------------------------


def run_exp_decay(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    """Quantile-killed law of the deterministic exponential-decay supermartingale.

    The killing factor equals the value itself, so the integrated-out kill
    time is exactly standard exponential; the survival law Q[tau > t] matches
    exp(-t) at every time.
    """
    params = params or {}
    ts = params.get("ts", [0.5, 1.0, 2.0])

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        return np.array([-math.log1p(-rng.random())])

    taus = fill_paths(n_paths, fill_one, 1, seed)[:, 0]
    res = ExperimentResult("exp_decay")
    xs, ys = [], []
    for t in ts:
        ind = (taus > t).astype(float)
        est, se = mean_and_se(ind)
        res.rows.append(_row(float(t), est, se, n_paths, analytic=math.exp(-t)))
        xs.append(float(t))
        ys.append(est)
    res.series.append(("survival_estimate", xs, ys))
    res.series.append(("survival_analytic", xs, [math.exp(-t) for t in xs]))
    res.report = {
        "law": "Q[tau > t] = exp(-t)",
        "max_abs_dev_sigmas": max(
            abs(r["estimate"] - r["analytic"])
            / max((r["ci_high"] - r["estimate"]) / 1.96, 1e-300)
            for r in res.rows
        ),
    }
    return res


# -- gallery: reciprocal Bessel --------------------------------------------------


def _first_passage_survival(rng: np.random.Generator, t: float, steps: int) -> float:
    """Survival probability of unit-start Brownian motion above 0 up to t.

    One path of the endpoint skeleton; between grid points the crossing
    probability of the bridge is the reflection closed form
    exp(-2 (a-x)(a-y)/dt) for barrier a, accumulated multiplicatively.
    """
    dt = t / steps
    x = 1.0
    survival = 1.0
    for _ in range(steps):
        y = x + rng.standard_normal() * math.sqrt(dt)
        if y <= 0.0:
            return 0.0
        survival *= 1.0 - math.exp(-2.0 * x * y / dt)
        x = y
    return survival


def run_reciprocal_bessel(
    seed: int, n_paths: int, params: Optional[dict] = None
) -> ExperimentResult:
    """Reciprocal three-dimensional Bessel process from 1: E[Z_t] vs the hitting law.

    E[1/R_t] equals the probability that a unit-start Brownian motion has not
    yet hit zero by t (closed form 2 Phi(1/sqrt(t)) - 1); the independent
    oracle estimates that first-passage probability by bridge-corrected
    Monte Carlo.
    """
    params = params or {}
    ts = params.get("ts", [0.5, 1.0, 2.0])
    steps = int(params.get("fp_steps", 64))
    res = ExperimentResult("reciprocal_bessel")
    probe = sorted(float(t) for t in ts)

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(len(probe) + len(probe))
        pos = np.array([1.0, 0.0, 0.0])
        prev = 0.0
        for j, t in enumerate(probe):
            pos = pos + rng.standard_normal(3) * math.sqrt(t - prev)
            out[j] = 1.0 / float(np.linalg.norm(pos))
            prev = t
        for j, t in enumerate(probe):
            out[len(probe) + j] = _first_passage_survival(rng, t, steps)
        return out

    vals = fill_paths(n_paths, fill_one, 2 * len(probe), seed)
    xs, ys = [], []
    for j, t in enumerate(probe):
        est, se = mean_and_se(vals[:, j])
        surv_est, surv_se = mean_and_se(vals[:, len(probe) + j])
        analytic = 2.0 * ndtr(1.0 / math.sqrt(t)) - 1.0
        res.rows.append(
            _row(
                t,
                est,
                se,
                n_paths,
                analytic=float(analytic),
                survival_oracle=surv_est,
                survival_oracle_se=surv_se,
            )
        )
        xs.append(t)
        ys.append(est)
    res.series.append(("reciprocal_mean", xs, ys))
    res.report = {"identity": "E[1/R_t] = P[unit-start BM stays positive to t]"}
    return res


# -- gallery: uniform independent passage time -----------------------------------


def run_uniform_rho(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    """Before/after burn-in families evaluated at an independent uniform time.

    rho is uniform on [1, 2] and known at time 0.  The family burning just
    before rho is exactly 0 at rho (its window anchors there); the family
    burning just after is exactly 1 at rho (its window starts there).  Both
    families converge to the same indicator supermartingale at deterministic
    times, yet their values at rho separate fully.
    """
    params = params or {}
    m = int(params.get("m", 8))

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        rho = 1.0 + rng.random()
        # window [rho - 1/m, rho): value at the anchor is exactly 0;
        # window [rho, rho + 1/m): value at the window start is exactly 1
        return np.array([rho, 0.0, 1.0])

    vals = fill_paths(n_paths, fill_one, 3, seed)
    before_mean, before_se = mean_and_se(vals[:, 1])
    after_mean, after_se = mean_and_se(vals[:, 2])
    res = ExperimentResult("uniform_rho")
    res.rows.append(_row(0.0, before_mean, before_se, n_paths, family="pre_burn_at_rho"))
    res.rows.append(_row(0.0, after_mean, after_se, n_paths, family="post_burn_at_rho"))
    res.report = {
        "m": m,
        "separation": after_mean - before_mean,
        "note": "values at the random time are exact window endpoints",
    }
    return res


# -- parametrized experiments -----------------------------------------------------


def run_single_jump(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    a = float(params.get("a", 0.5))
    m = int(params.get("m", 6))
    anchor = float(params.get("anchor", 1.0))
    t_max = float(params.get("t_max", 2.0))
    window = 2.0**-m
    mid = anchor - window / 2.0
    grid = GridSpec(
        t_max=t_max,
        base_step=float(params.get("base_step", 1 / 16)),
        refinements=((anchor, window, int(params.get("refine_points", 24))),),
        extra_points=(mid,),
    )
    batch = single_jump_approx(a, m, anchor, grid, n_paths, seed)
    before = batch.times < anchor - window
    exact_before = bool(np.all(batch.values[:, before] == 1.0))
    exact_after = bool(np.all(batch.at_time(t_max) == a))
    mid_vals = batch.at_time(mid)
    mean, se = mean_and_se(mid_vals)
    mom = median_of_means(mid_vals)
    mom_se = mom_standard_error(mid_vals)
    res = ExperimentResult("single_jump")
    res.rows.append(_row(mid, mean, se, n_paths, median_of_means=mom, mom_se=mom_se))
    res.series.append(
        ("mean_path", [float(t) for t in batch.times], [float(v) for v in batch.values.mean(axis=0)])
    )
    res.report = {
        "a": a,
        "m": m,
        "anchor": anchor,
        "exact_one_before_window": exact_before,
        "exact_a_from_anchor": exact_after,
        "mid_window_mean": mean,
        "mid_window_mom": mom,
        "clock_cap": SIGMA_MAX,
        "cap_tail_bound": math.exp(-SIGMA_MAX / 8.0),
    }
    return res


def run_suicide(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    m = int(params.get("m", 6))
    jumps = tuple(float(x) for x in params.get("jumps", (1.0, 2.0)))
    levels = tuple(float(x) for x in params.get("levels", (1.0, 0.5, 0.25)))
    t_max = float(params.get("t_max", 3.0))
    g = SimpleNonincreasing(jumps, levels)
    window = 2.0**-m
    grid = GridSpec(
        t_max=t_max,
        base_step=float(params.get("base_step", 1 / 8)),
        refinements=tuple((rho + window, window, 16) for rho in jumps),
    )
    batch = suicide_martingale(g, m, grid, n_paths, seed)
    gvals = g.values(batch.times)
    plateau = np.ones(batch.times.size, dtype=bool)
    for rho in jumps:
        plateau &= ~((batch.times > rho) & (batch.times < rho + window))
    match = batch.values[:, plateau] == gvals[plateau]
    res = ExperimentResult("suicide")
    res.report = {
        "m": m,
        "plateau_points": int(plateau.sum()),
        "paths_with_exact_plateaus": int(np.all(match, axis=1).sum()),
        "n_paths": n_paths,
        "plateau_identity_exact": bool(np.all(match)),
        "start_value_exact": bool(np.all(batch.values[:, 0] == levels[0])),
    }
    res.series.append(
        ("mean_path", [float(t) for t in batch.times], [float(v) for v in batch.values.mean(axis=0)])
    )
    return res


def run_fatou(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    m_list = [int(m) for m in params.get("m_list", range(1, 9))]
    probes = [float(p) for p in params.get("probes", (0.5, 0.375))]
    scan_depth = int(params.get("scan_depth", 20))
    grid = GridSpec(
        t_max=float(params.get("t_max", 1.0)),
        base_step=float(params.get("base_step", 1 / 64)),
        extra_points=tuple(probes),
    )
    times = grid.points()
    # piecewise-constant drift with dyadic drop times
    d = np.where(times < 0.25, 0.0, np.where(times < 0.5, -0.25, -0.5))
    mvals = np.ones_like(times)
    res = ExperimentResult("fatou")
    probe_err: Dict[float, List[float]] = {p: [] for p in probes}
    for m in m_list:
        batch = fatou_approx(grid, mvals, d, m, n_paths, seed)
        for p in probes:
            err = float(fatou_probe_error(batch, mvals, d, p).max())
            probe_err[p].append(err)
            res.rows.append(_row(p, err, 0.0, n_paths, m=m))
    for p in probes:
        res.series.append((f"probe_{p}", [float(m) for m in m_list], probe_err[p]))
    res.report = {
        "probes": {
            str(p): {
                "in_S": in_S(p, scan_depth),
                "errors_by_m": probe_err[p],
                "exactly_zero_from": next(
                    (m for m, e in zip(m_list, probe_err[p]) if e == 0.0), None
                ),
            }
            for p in probes
        },
        "in_S_checks": {
            "0.5": in_S(0.5, scan_depth),
            "2^-3+2^-9/2": in_S(0.125 + 1.0 / 1024.0, scan_depth),
        },
    }
    return res


def exp_decay_family(
    seed: int,
    n_paths: int,
    k: int = 3,
    m: int = 6,
    level: float = 4.0,
    t_max: float = 2.5,
    base_step: float = 1 / 16,
) -> Tuple[PathBatch, float]:
    """Level-stopped suicide family for the exponential-decay supermartingale.

    Returns the batch and the first-passage time of the decay below 1/2.
    """
    rho = math.log(2.0)
    draft = GridSpec(t_max=t_max, base_step=base_step).points()
    g = simple_approx(draft, np.exp(-draft), k=k)
    window = 2.0**-m
    grid = GridSpec(
        t_max=t_max,
        base_step=base_step,
        refinements=tuple((rj + window, window, 12) for rj in g.jump_times),
        extra_points=(rho, rho + 1.0),
    )
    fam = localized_suicide_family(g, m=m, level=level, grid=grid, n_paths=n_paths, seed=seed)
    return fam, rho


def run_mass_redirect(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    c = float(params.get("c", 0.5))
    ls = [int(l) for l in params.get("ls", (1, 2))]
    fam, rho = exp_decay_family(
        seed,
        n_paths,
        k=int(params.get("k", 3)),
        m=int(params.get("m", 6)),
        level=float(params.get("level", 4.0)),
    )
    l_rho = fam.at_time(rho)
    l_term = fam.at_time(fam.times[-1])
    wgrid = GridSpec(t_max=float(fam.times[-1]), base_step=1 / 4, extra_points=(rho, rho + 1.0))
    w = simulate_bm(wgrid, n_paths, seed + 1)
    w_rho = w.at_time(rho)
    w_after = w.at_time(rho + 1.0)
    res = ExperimentResult("mass_redirect")
    estimates = {}
    for l in ls:
        r = mass_redirect(l_rho, l_term, w_rho, w_after, c, l)
        estimates[l] = (r.estimate, r.se)
        res.rows.append(
            _row(rho, r.estimate, r.se, n_paths, l=l, bound=r.bound, fired=r.fired_fraction)
        )
    total = sum(e for e, _ in estimates.values())
    total_se = math.sqrt(sum(s * s for _, s in estimates.values()))
    res.report = {
        "c": c,
        "bound": (1.0 - c) / 2.0,
        "estimates": {str(l): e for l, (e, _) in estimates.items()},
        "disjoint_sum": total,
        "disjoint_sum_se": total_se,
        "family_mean_at_rho": mean_and_se(l_rho)[0],
    }
    return res


def run_split_limit(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    n = int(params.get("n", 4))
    res = ExperimentResult("split_limit")
    for sign in ("+", "-"):
        r = split_limit_demo(sign, n, n_paths, seed)
        res.rows.append(
            _row(
                float(n),
                r.own_mass,
                r.own_se,
                n_paths,
                sign=sign,
                cross_mass=r.cross_mass,
                raw_own_mass=r.raw_own_mass,
                crossing_frequency=r.crossing_frequency,
                crossing_bound=r.crossing_bound,
            )
        )
        res.report[sign] = {
            "own_mass": r.own_mass,
            "own_se": r.own_se,
            "cross_mass": r.cross_mass,
            "raw_own_mass": r.raw_own_mass,
            "crossing_frequency": r.crossing_frequency,
            "crossing_bound": r.crossing_bound,
        }
    return res


def run_extended(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    """Terminal-extension demo on the shifted exponential decay.

    Z_t = (1 + exp(-t))/2 has limit 1/2; extending by the constant terminal
    value 1/2 gives oracle 1/2, normalizer 1/2 and core exp(-t) cut at h.
    """
    params = params or {}
    h = float(params.get("h", 1.0))
    k = int(params.get("k", 3))
    m = int(params.get("m", 6))
    t_max = float(params.get("t_max", 1.5))
    base = GridSpec(t_max=t_max, base_step=1 / 32)
    draft = base.points()
    core_draft = np.where(draft < h, np.exp(-draft), 0.0)
    g = simple_approx(draft, core_draft, k=k)
    window = 2.0**-m
    grid = GridSpec(
        t_max=t_max,
        base_step=1 / 32,
        refinements=tuple((rj + window, window, 10) for rj in g.jump_times),
    )
    times = grid.points()
    z_vals = (1.0 + np.exp(-times)) / 2.0
    rep = extended_approx(
        grid,
        z_vals,
        oracle=lambda t: np.full_like(t, 0.5),
        terminal_mean=0.5,
        h=h,
        k=k,
        m=m,
        n_paths=n_paths,
        seed=seed,
    )
    res = ExperimentResult("extended")
    res.rows.append(_row(0.0, rep.mean_initial, rep.se_initial, n_paths, which="initial"))
    res.rows.append(
        _row(t_max, rep.mean_terminal, rep.se_terminal, n_paths, which="terminal")
    )
    res.report = {
        "normalizer": rep.normalizer,
        "expected_terminal": rep.expected_terminal,
        "mean_initial": rep.mean_initial,
        "mean_terminal": rep.mean_terminal,
        "core_constant_branch": rep.core_constant,
    }
    return res


def run_bm_check(seed: int, n_paths: int, params: Optional[dict] = None) -> ExperimentResult:
    params = params or {}
    t_max = float(params.get("t_max", 1.0))
    grid = GridSpec(t_max=t_max, base_step=float(params.get("base_step", 1 / 32)))
    batch = simulate_bm(grid, n_paths, seed)
    w = batch.at_time(t_max)
    mean, se = mean_and_se(w)
    var = float(np.var(w, ddof=1))
    var_se = var * math.sqrt(2.0 / (n_paths - 1))
    res = ExperimentResult("bm_check")
    res.rows.append(_row(t_max, mean, se, n_paths, which="mean"))
    res.rows.append(_row(t_max, var, var_se / 1.96, n_paths, which="variance"))
    res.report = {"mean": mean, "variance": var, "t": t_max}
    return res


EXPERIMENTS: Dict[str, Callable[[int, int, Optional[dict]], ExperimentResult]] = {
    "exp_decay": run_exp_decay,
    "reciprocal_bessel": run_reciprocal_bessel,
    "uniform_rho": run_uniform_rho,
    "single_jump": run_single_jump,
    "suicide": run_suicide,
    "fatou": run_fatou,
    "mass_redirect": run_mass_redirect,
    "split_limit": run_split_limit,
    "extended": run_extended,
    "bm_check": run_bm_check,
}

GALLERY = {"reciprocal_bessel", "exp_decay", "uniform_rho"}


def run_experiment(name: str, seed: int, n_paths: int, params: Optional[dict]) -> ExperimentResult:
    """Run a named experiment; every estimate needs a standard error, so n_paths >= 2."""
    if name not in EXPERIMENTS:
        raise FollmerLabError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    if n_paths < 2:
        raise FollmerLabError(f"need n_paths >= 2, got {n_paths}")
    return EXPERIMENTS[name](seed, n_paths, params)


# -- manifests and deterministic writers ----------------------------------------


def write_manifest(path: str, experiment: str, seed: int, n_paths: int, params: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "experiment": experiment,
                "seed": seed,
                "n_paths": n_paths,
                "params": params,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
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


def write_report_json(result: ExperimentResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"experiment": result.name, "report": result.report}, fh, indent=1, sort_keys=True)
        fh.write("\n")
