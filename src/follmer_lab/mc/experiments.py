"""The named Monte-Carlo experiments and their helpers; ``gallery`` checks and writes their runs.

The families and builders return paths or per-path values; each runner here
computes every mean and standard error it reports from them, so a runner
holds each claim's estimate and its own standard error.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

# Modules, not their names: a function replaced in its own module is seen
# here too, even when that happens before this module is first imported
# (``bench/tracer.py`` wraps functions that way and puts them back).
from . import bridges, families, fatou, grids, normal, paths, streams
from .gallery import ExperimentResult


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


def exp_decay_kill_times(n_paths: int, seed: int) -> np.ndarray:
    """Standard exponential kill times -log(1 - U), one uniform U per path."""

    def fill_block(u: np.ndarray) -> np.ndarray:
        # math.log1p, not np.log1p: the two differ in the last bit on some inputs
        return -np.fromiter(map(math.log1p, (-u[:, 0]).tolist()), float, u.shape[0])[:, None]

    return streams.fill_paths(n_paths, 1, fill_block, 1, seed, uniform=True)[:, 0]


def run_exp_decay(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    """Quantile-killed law of the deterministic exponential-decay supermartingale.

    The killing factor equals the value itself, so the integrated-out kill
    time is exactly standard exponential; the survival law Q[tau > t] matches
    exp(-t) at every time.
    """
    taus = exp_decay_kill_times(n_paths, seed)
    res = ExperimentResult()
    xs, ys = [], []
    for t in params["ts"]:
        ind = (taus > t).astype(float)
        est, se = streams.mean_and_se(ind)
        res.rows.append(_row(t, est, se, n_paths, analytic=math.exp(-t)))
        xs.append(t)
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


def _first_passage_survival(z: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Survival probability of unit-start Brownian motion above 0 up to t, per row.

    Each row of ``z`` holds the normals of one path's endpoint skeleton on
    ``z.shape[1]`` equal steps; between grid points the crossing probability
    of the bridge is the reflection closed form exp(-2 (a-x)(a-y)/dt) for
    barrier a, accumulated multiplicatively.  A path that reaches 0 has
    survival 0 and stops drawing there, so the second result is the number
    of normals each row used.
    """
    steps = z.shape[1]
    dt = t / steps
    increments = np.empty((z.shape[0], steps + 1))
    increments[:, 0] = 1.0
    increments[:, 1:] = z * math.sqrt(dt)
    walk = np.cumsum(increments, axis=1)
    x, y = walk[:, :-1], walk[:, 1:]
    dead = y <= 0.0
    killed = dead.any(axis=1)
    n_factors = np.where(killed, dead.argmax(axis=1), steps)  # steps before the hit
    live = np.arange(steps) < n_factors[:, None]
    arg = np.where(live, -2.0 * x * y / dt, -np.inf)
    # math.exp, not np.exp: the two differ in the last bit on some inputs.
    # Below -40, exp < 2^-57 and 1 - exp rounds to exactly 1.0 either way.
    near = arg > -40.0
    factor = np.ones((z.shape[0], steps))
    args = arg[near]
    factor[near] = 1.0 - np.fromiter(map(math.exp, args.tolist()), float, args.size)
    # a left-to-right product per row, as a loop over the columns would take it
    survival = np.multiply.reduce(factor, axis=1)
    return np.where(killed, 0.0, survival), n_factors + killed


def reciprocal_bessel_samples(
    probe: Sequence[float], steps: int, n_paths: int, seed: int
) -> np.ndarray:
    """Per path: 1/R_t at each probe time, then the first-passage survival to each probe.

    R is the three-dimensional Bessel process from 1, the norm of a 3-D
    Brownian motion started at (1, 0, 0).  A path draws 3 normals per probe,
    then up to ``steps`` normals per probe for the survival skeletons; a
    skeleton that hits 0 leaves its remaining normals to the next probe.
    """
    n_probes = len(probe)

    def fill_block(z: np.ndarray) -> np.ndarray:
        out = np.empty((z.shape[0], 2 * n_probes))
        pos = np.zeros((z.shape[0], 3))
        pos[:, 0] = 1.0
        prev = 0.0
        for j, t in enumerate(probe):
            pos = pos + z[:, 3 * j : 3 * j + 3] * math.sqrt(t - prev)
            # per-row dot, as np.linalg.norm computes a vector's norm: the
            # axis=1 reduction np.linalg.norm(pos, axis=1) differs in the last bit
            out[:, j] = [1.0 / math.sqrt(p.dot(p)) for p in pos]
            prev = t
        off = np.full(z.shape[0], 3 * n_probes)
        for j, t in enumerate(probe):
            skeleton = np.take_along_axis(z, off[:, None] + np.arange(steps), axis=1)
            out[:, n_probes + j], used = _first_passage_survival(skeleton, t)
            off += used
        return out

    n_draws = n_probes * (3 + steps)
    return streams.fill_paths(n_paths, n_draws, fill_block, 2 * n_probes, seed)


def run_reciprocal_bessel(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    """Reciprocal three-dimensional Bessel process from 1: E[Z_t] vs the hitting law.

    E[1/R_t] equals the probability that a unit-start Brownian motion has not
    yet hit zero by t (closed form 2 Phi(1/sqrt(t)) - 1); the independent
    oracle estimates that first-passage probability by bridge-corrected
    Monte Carlo.
    """
    probe = sorted(params["ts"])
    steps = params["fp_steps"]
    res = ExperimentResult()
    vals = reciprocal_bessel_samples(probe, steps, n_paths, seed)
    analytic = 2.0 * normal.ndtr(1.0 / np.sqrt(probe)) - 1.0
    xs, ys = [], []
    for j, t in enumerate(probe):
        est, se = streams.mean_and_se(vals[:, j])
        surv_est, surv_se = streams.mean_and_se(vals[:, len(probe) + j])
        res.rows.append(
            _row(
                t,
                est,
                se,
                n_paths,
                analytic=float(analytic[j]),
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


def run_uniform_rho(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    """Before/after burn-in families evaluated at an independent uniform time.

    rho is uniform on [1, 2] and known at time 0.  The family burning just
    before rho is exactly 0 at rho (its window anchors there); the family
    burning just after is exactly 1 at rho (its window starts there).  Both
    families converge to the same indicator supermartingale at deterministic
    times, yet their values at rho separate fully.

    This is a closed form, not a simulation: in exact arithmetic both
    families sit at exact window endpoints for every rho and every burn-in
    index m, so every path reads the constant 0 or 1 and none is drawn.  The
    rows carry those exact values with standard error 0.  The library's
    floating-point clock does not always land there.  With rho = 1 + U from
    stream v1 (seed 0, 40,000 paths) and the post window built as
    ``bridges.BridgeWindow.on`` builds it (anchor rho + 2^-m, start
    anchor - 2^-m), at m = 8 the clock at rho is positive on 24 paths, up to
    5.7e-14, so their value is not exactly 1, and negative on 23, whose rho
    falls before the computed start.
    """
    res = ExperimentResult()
    res.rows.append(_row(0.0, 0.0, 0.0, n_paths, family="pre_burn_at_rho"))
    res.rows.append(_row(0.0, 1.0, 0.0, n_paths, family="post_burn_at_rho"))
    res.report = {
        "m": params["m"],
        "separation": 1.0,
        "note": "values at the random time are exact window endpoints",
    }
    return res


# -- parametrized experiments -----------------------------------------------------


def run_single_jump(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    a, m, anchor, t_max = params["a"], params["m"], params["anchor"], params["t_max"]
    window = 2.0**-m
    mid = anchor - window / 2.0
    grid = grids.GridSpec(
        t_max=t_max,
        base_step=params["base_step"],
        refinements=((anchor, window, params["refine_points"]),),
        extra_points=(mid,),
    )
    family = bridges.single_jump_approx(a, m, anchor, grid)
    times = family.times
    # The grid comes from np.unique, so it is sorted and the times before the
    # window are each chunk's first k columns: a slice view, not a copy.
    k = np.searchsorted(times, anchor - window)
    j_mid = grids.grid_index(times, mid)
    exact_before = exact_after = True
    mid_vals = np.empty(n_paths)
    for first, values, sums in family.chunks(n_paths, seed):
        exact_before &= bool(np.all(values[:, :k] == 1.0))
        exact_after &= bool(np.all(values[:, -1] == a))  # t_max is the last grid time
        mid_vals[first : first + len(values)] = values[:, j_mid]
    mean_path = (sums / n_paths).tolist()
    del values, sums  # free the chunk buffer before the statistics' temporaries
    mean, se = streams.mean_and_se(mid_vals)
    mom = streams.median_of_means(mid_vals)
    res = ExperimentResult()
    # the median of means' scale is sqrt(pi/2) times the mean's standard error
    res.rows.append(_row(mid, mean, se, n_paths, median_of_means=mom, mom_se=math.sqrt(math.pi / 2.0) * se))
    res.series.append(("mean_path", times.tolist(), mean_path))
    res.report = {
        "a": a,
        "m": m,
        "anchor": anchor,
        "exact_one_before_window": exact_before,
        "exact_a_from_anchor": exact_after,
        "mid_window_mean": mean,
        "mid_window_mom": mom,
        "clock_cap": bridges.SIGMA_MAX,
        "cap_tail_bound": math.exp(-bridges.SIGMA_MAX / 8.0),
    }
    return res


def run_suicide(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    m, jumps, levels = params["m"], params["jumps"], params["levels"]
    g = bridges.SimpleNonincreasing(jumps, levels)
    window = 2.0**-m
    grid = grids.GridSpec(
        t_max=params["t_max"],
        base_step=params["base_step"],
        refinements=tuple((rho + window, window, 16) for rho in jumps),
    )
    family = bridges.suicide_martingale(g, m, grid)
    times = family.times
    gvals = g.values(times)
    plateau = np.ones(times.size, dtype=bool)
    for rho in jumps:
        plateau &= ~((times > rho) & (times < rho + window))
    exact_paths, start_exact = 0, True
    for _, values, sums in family.chunks(n_paths, seed):
        exact_paths += int(np.all((values == gvals)[:, plateau], axis=1).sum())
        start_exact &= bool(np.all(values[:, 0] == levels[0]))
    res = ExperimentResult()
    res.report = {
        "m": m,
        "plateau_points": int(plateau.sum()),
        "paths_with_exact_plateaus": exact_paths,
        "n_paths": n_paths,
        "plateau_identity_exact": exact_paths == n_paths,
        "start_value_exact": start_exact,
    }
    res.series.append(("mean_path", times.tolist(), (sums / n_paths).tolist()))
    return res


def run_fatou(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    m_list, probes, scan_depth = params["m_list"], params["probes"], params["scan_depth"]
    grid = grids.GridSpec(t_max=params["t_max"], base_step=params["base_step"], extra_points=probes)
    times = grid.points()
    # each probe must be exactly one grid time
    probe_cols = [grids.grid_index(times, p) for p in probes]
    # piecewise-constant drift with dyadic drop times
    d = np.where(times < 0.25, 0.0, np.where(times < 0.5, -0.25, -0.5))
    mvals = np.ones_like(times)
    res = ExperimentResult()
    probe_err: Dict[float, List[float]] = {p: [] for p in probes}
    for m in m_list:
        cols = fatou.fatou_approx(grid, mvals, d, m).columns(n_paths, seed, probe_cols)
        for p, col in zip(probes, cols):
            err = float(fatou.fatou_probe_error(times, col, mvals, d, p).max())
            probe_err[p].append(err)
            res.rows.append(_row(p, err, 0.0, n_paths, m=m))
    for p in probes:
        res.series.append((f"probe_{p}", [float(m) for m in m_list], probe_err[p]))
    res.report = {
        "probes": {
            str(p): {
                "in_S": fatou.in_S(p, scan_depth),
                "errors_by_m": probe_err[p],
                "exactly_zero_from": next(
                    (m for m, e in zip(m_list, probe_err[p]) if e == 0.0), None
                ),
            }
            for p in probes
        },
        "in_S_checks": {
            "0.5": fatou.in_S(0.5, scan_depth),
            "2^-3+2^-9/2": fatou.in_S(0.125 + 1.0 / 1024.0, scan_depth),
        },
    }
    return res


def exp_decay_family(k: int, m: int, level: float) -> Tuple[paths.PathFamily, float]:
    """Level-stopped suicide family for the exponential-decay supermartingale.

    Returns the family, on a grid of step 1/16 up to 2.5 refined in each
    burn-in window, and the first-passage time of the decay below 1/2,
    which is a time of that grid.
    """
    rho = math.log(2.0)
    t_max, base_step = 2.5, 1 / 16
    draft = grids.GridSpec(t_max=t_max, base_step=base_step).points()
    g = bridges.simple_approx(draft, np.exp(-draft), k=k)
    window = 2.0**-m
    grid = grids.GridSpec(
        t_max=t_max,
        base_step=base_step,
        refinements=tuple((rj + window, window, 12) for rj in g.jump_times),
        extra_points=(rho, rho + 1.0),
    )
    return families.localized_suicide_family(g, m=m, level=level, grid=grid), rho


def run_mass_redirect(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    c, ls = params["c"], params["ls"]
    bound = families.redirect_bound(c)  # refuses c before any path is drawn
    fam, rho = exp_decay_family(k=params["k"], m=params["m"], level=params["level"])
    l_rho, l_term = fam.columns(n_paths, seed, [grids.grid_index(fam.times, rho), -1])
    wgrid = grids.GridSpec(t_max=float(fam.times[-1]), base_step=1 / 4, extra_points=(rho, rho + 1.0))
    w = paths.simulate_bm(wgrid)
    w_rho, w_after = w.columns(n_paths, seed + 1, [grids.grid_index(w.times, t) for t in (rho, rho + 1.0)])
    res = ExperimentResult()
    fired, redirected = families.mass_redirect(l_rho, l_term, w_rho, w_after, c, ls)
    fired_share = float(np.mean(fired))
    estimates = {l: streams.mean_and_se(redirected[l]) for l in ls}
    for l, (est, se) in estimates.items():
        res.rows.append(_row(rho, est, se, n_paths, l=l, bound=bound, fired=fired_share))
    total = sum(e for e, _ in estimates.values())
    total_se = math.sqrt(sum(s * s for _, s in estimates.values()))
    res.report = {
        "c": c,
        "bound": bound,
        "estimates": {str(l): e for l, (e, _) in estimates.items()},
        "disjoint_sum": total,
        "disjoint_sum_se": total_se,
        "family_mean_at_rho": streams.mean_and_se(l_rho)[0],
    }
    return res


def run_split_limit(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    n = params["n"]
    crossing_bound = 2.0**-n  # the maximal inequality's bound on the crossing frequency
    stopped, crossed, terminal = families.split_limit_demo(n, n_paths, seed)
    # the stopped carrier is either sign's terminal value given the time-n
    # data: one own-mass estimate of finite variance serves both signs
    own_mass, own_se = streams.mean_and_se(stopped)
    crossing_frequency = float(np.mean(crossed))
    res = ExperimentResult()
    # the rows and the report repeat the shared values under each sign
    for sign, t in terminal.items():
        fields = {
            # the plain average of L 1_{A_sign}: it misses the heavy boundary layer
            "raw_own_mass": streams.mean_and_se(t)[0],
            "crossing_frequency": crossing_frequency,
            "crossing_bound": crossing_bound,
        }
        res.rows.append(_row(float(n), own_mass, own_se, n_paths, sign=sign, **fields))
        res.report[sign] = {"own_mass": own_mass, "own_se": own_se, **fields}
    return res


def run_extended(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    """Terminal-extension demo on the shifted exponential decay.

    Z_t = (1 + exp(-t))/2 has limit 1/2; extending by the constant terminal
    value 1/2 gives oracle 1/2, normalizer 1/2 and core exp(-t) cut at h.
    The member is read at the first and last grid times only.
    """
    h, k, m, t_max = params["h"], params["k"], params["m"], params["t_max"]
    terminal = 0.5
    draft = grids.GridSpec(t_max=t_max, base_step=1 / 32).points()
    core_draft = np.where(draft < h, np.exp(-draft), 0.0)
    g = bridges.simple_approx(draft, core_draft, k=k)
    window = 2.0**-m
    grid = grids.GridSpec(
        t_max=t_max,
        base_step=1 / 32,
        refinements=tuple((rj + window, window, 10) for rj in g.jump_times),
    )
    times = grid.points()
    z_vals = (1.0 + np.exp(-times)) / 2.0
    member, normalizer = families.extended_approx(grid, z_vals, terminal=terminal, h=h, k=k, m=m)
    start, end = member.columns(n_paths, seed, [0, -1])
    mean_initial, se_initial = streams.mean_and_se(start)
    mean_terminal, se_terminal = streams.mean_and_se(end)
    res = ExperimentResult()
    res.rows.append(_row(0.0, mean_initial, se_initial, n_paths, which="initial"))
    res.rows.append(_row(t_max, mean_terminal, se_terminal, n_paths, which="terminal"))
    res.report = {
        "normalizer": normalizer,
        "expected_terminal": terminal,
        "mean_initial": mean_initial,
        "mean_terminal": mean_terminal,
        # the 0/0 = 1 convention: the member is the constant terminal value
        "core_constant_branch": normalizer == 0.0,
    }
    return res


def run_bm_check(seed: int, n_paths: int, params: dict) -> ExperimentResult:
    t_max = params["t_max"]
    family = paths.simulate_bm(grids.GridSpec(t_max=t_max, base_step=params["base_step"]))
    (w,) = family.columns(n_paths, seed, [-1])  # t_max is the last grid time
    mean, se = streams.mean_and_se(w)
    var = float(np.var(w, ddof=1))
    var_se = var * math.sqrt(2.0 / (n_paths - 1))
    res = ExperimentResult()
    res.rows.append(_row(t_max, mean, se, n_paths, which="mean"))
    res.rows.append(_row(t_max, var, var_se / 1.96, n_paths, which="variance"))
    res.report = {"mean": mean, "variance": var, "t": t_max}
    return res


EXPERIMENTS: Dict[str, Callable[[int, int, dict], ExperimentResult]] = {
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
