"""Exact additive and multiplicative supermartingale decompositions on trees.

The additive split Z = M + D has a martingale part M and a predictable
nonincreasing drift D starting at 0; the multiplicative split Z = M * D has a
martingale-up-to-the-first-zero part and a predictable nonincreasing factor
starting at 1.  Both are computed by one-step recursions in exact rational
arithmetic, together with the classification of the first zero of Z into its
announced and surprise parts.

``left_limit_smoothing`` builds, for a jump threshold 1/i, the smoothed
pair that replaces each big predictable drop of D by a
conditional-expectation ramp starting at its announcing time, one step
before the drop unless the previous drop is there, and checks the exact
value it reaches at every finite stopping time.  The drops are
predictable, so the announcing times are stopping times and the
construction is adapted.  The reached value depends only on the stop node
and the leaf below it, so each (node, leaf) pair is checked once and
counted as often as finite stopping times stop there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Dict, List, Tuple

from .trees import (
    AdaptedProcess,
    FilteredTree,
    PredictableProcess,
    StoppingTime,
    one_step_expectation,
    require_supermartingale,
)


@dataclass(frozen=True)
class AdditiveDecomposition:
    """Z = M + D with M a martingale and D predictable, nonincreasing, D_0 = 0."""

    martingale: AdaptedProcess
    drift: PredictableProcess

    def to_dict(self) -> dict:
        return {"M": self.martingale.to_dict(), "D_add": self.drift.to_dict()}


@dataclass(frozen=True)
class MultiplicativeDecomposition:
    """Z = M * D with D predictable nonincreasing from 1, M frozen after the first zero.

    ``rho0`` stops at the first zero of Z; ``rho0_announced`` is its restriction
    to zeros whose one-step parent mean already vanished (D hits 0 there and M
    crosses without a jump), ``rho0_surprise`` the rest (M jumps to 0, D does
    not).
    """

    martingale: AdaptedProcess
    factor: PredictableProcess
    rho0: StoppingTime
    rho0_announced: StoppingTime
    rho0_surprise: StoppingTime

    def to_dict(self) -> dict:
        return {
            "M": self.martingale.to_dict(),
            "D_mult": self.factor.to_dict(),
            "rho0": sorted(self.rho0.nodes),
            "rho0_announced": sorted(self.rho0_announced.nodes),
            "rho0_surprise": sorted(self.rho0_surprise.nodes),
        }


def doob_meyer(tree: FilteredTree, z: AdaptedProcess) -> AdditiveDecomposition:
    """Additive decomposition: D gains E[Z_{t+1}|F_t] - Z_t at each step, M = Z - D.

    At and below a zero of Z nothing moves (the mean and the children are 0
    too), and a martingale step's mean is Z[n]'s own value (see
    :func:`require_supermartingale`), so D keeps its value there without
    arithmetic.
    """
    means = require_supermartingale(tree, z)
    zv = z.values
    steps: Dict[str, Fraction] = {}
    m_vals: Dict[str, Fraction] = {tree.root: zv[tree.root]}
    d_on: Dict[str, Fraction] = {tree.root: Fraction(0)}
    for n, e in means.items():  # internal nodes, parents first
        d, zn = d_on[n], zv[n]
        if not zn:
            steps[n] = d
            for c in tree.children[n]:
                d_on[c] = d
                m_vals[c] = m_vals[n]
            continue
        d_next = steps[n] = d if e is zn else d + e - zn
        for c in tree.children[n]:
            d_on[c] = d_next
            m_vals[c] = zv[c] - d_next if d_next else zv[c]
    return AdditiveDecomposition(
        AdaptedProcess(m_vals), PredictableProcess(Fraction(0), steps)
    )


def multiplicative(tree: FilteredTree, z: AdaptedProcess) -> MultiplicativeDecomposition:
    """Multiplicative decomposition with the zero-hit split of the first zero of Z.

    Per internal node with current values (M_t, D_t):
    with e = E[Z_{t+1}|F_t] — if Z_t > 0 and e > 0, the factor contracts by
    e/Z_t and M carries the innovation Z_{t+1}/e; if Z_t > 0 and e = 0 the
    zero hit is announced: the factor drops to 0 and M crosses unchanged; at
    or below a zero of Z both parts are frozen.
    """
    means = require_supermartingale(tree, z)
    zv = z.values
    steps: Dict[str, Fraction] = {}
    m_vals: Dict[str, Fraction] = {tree.root: zv[tree.root]}
    d_on: Dict[str, Fraction] = {tree.root: Fraction(1)}
    announced: List[str] = []
    surprise: List[str] = []
    for n, e in means.items():  # internal nodes, parents first
        zn, d, m = zv[n], d_on[n], m_vals[n]
        if not zn:
            steps[n] = d
            for c in tree.children[n]:
                d_on[c] = d
                m_vals[c] = m
            continue
        # a martingale step's mean is Z[n]'s own value: the factor keeps
        # its value, and M stays Z's own value while the factor is 1
        d_next = steps[n] = d if e is zn else d * e / zn  # 0 exactly when the hit is announced
        for c in tree.children[n]:
            d_on[c] = d_next
            zc = zv[c]
            if not e:
                m_vals[c] = m
            elif not zc or (e is zn and m is zn):
                m_vals[c] = zc
            else:
                m_vals[c] = m * zc / e
            if not zc:  # a first zero: Z_0 = 1, and Z > 0 above c
                (announced if not e else surprise).append(c)
    return MultiplicativeDecomposition(
        AdaptedProcess(m_vals),
        PredictableProcess(Fraction(1), steps),
        StoppingTime(frozenset(announced + surprise)),
        StoppingTime(frozenset(announced)),
        StoppingTime(frozenset(surprise)),
    )


# -- uniqueness of the multiplicative pair -----------------------------------


def multiplicative_property_violations(
    tree: FilteredTree,
    z: AdaptedProcess,
    m_vals: Dict[str, Fraction],
    d_vals: Dict[str, Fraction],
) -> List[str]:
    """Which of the determining properties a candidate pair (M, D) breaks.

    ``d_vals`` is the factor as plain per-node values (time-t value at the
    depth-t node) so candidates may violate predictability.  The checked
    properties: nonnegativity, D_0 = 1 nonincreasing and sibling-constant
    (predictable), product Z = M*D, martingale steps of M strictly before the
    first zero, both parts frozen from the first zero on, the factor
    vanishing at announced zero hits, and M crossing announced hits without a
    jump.  The computed decomposition passes all of them; the list is empty
    exactly for pairs indistinguishable from it.
    """
    problems: List[str] = []
    dec = multiplicative(tree, z)
    zero_on_path: Dict[str, bool] = {}
    for n in tree.iter_nodes():
        par = tree.parent[n]
        above = zero_on_path.get(par, False) if par is not None else False
        zero_on_path[n] = above or z[n] == 0

    if d_vals[tree.root] != 1:
        problems.append("factor does not start at 1")
    for n in tree.iter_nodes():
        if m_vals[n] < 0 or d_vals[n] < 0:
            problems.append(f"negative part at {n!r}")
        if m_vals[n] * d_vals[n] != z[n]:
            problems.append(f"product differs from Z at {n!r}")
        par = tree.parent[n]
        if par is not None:
            if d_vals[n] > d_vals[par]:
                problems.append(f"factor increases into {n!r}")
            siblings = tree.children[par]
            if any(d_vals[c] != d_vals[siblings[0]] for c in siblings):
                problems.append(f"factor not sibling-constant under {par!r}")
            if zero_on_path[par]:
                # frozen after the first zero
                if m_vals[n] != m_vals[par] or d_vals[n] != d_vals[par]:
                    problems.append(f"parts not frozen below the first zero at {n!r}")
    for n in tree.iter_nodes():
        if tree.is_leaf(n) or zero_on_path[n]:
            continue
        e = sum((tree.prob[c] * m_vals[c] for c in tree.children[n]), Fraction(0))
        if e != m_vals[n]:
            problems.append(f"martingale step fails at {n!r}")
    for n in dec.rho0_announced.nodes:
        if d_vals[n] != 0:
            problems.append(f"factor nonzero at announced zero hit {n!r}")
        par = tree.parent[n]
        if par is not None and m_vals[n] != m_vals[par]:
            problems.append(f"martingale part jumps at announced zero hit {n!r}")
    return problems


# -- announced-jump smoothing -------------------------------------------------


@dataclass
class SmoothingLimitReport:
    """Per-position comparison of the smoothed pair with its target value.

    A position is one (finite stopping time, leaf) pair, located at the stop
    node on the leaf's path; the counts weight each (stop node, leaf) pair by
    the number of finite stopping times that contain the node.
    ``stuck`` counts positions at a jump that consecutive qualifying jumps
    leave no room to announce, and ``guaranteed`` all the others, where the
    target is reached exactly.
    ``mismatches`` lists each failing (stop node, leaf, time, reached,
    target) once.
    """

    ok: bool
    positions: int = 0
    equal: int = 0
    guaranteed: int = 0
    guaranteed_equal: int = 0
    stuck: int = 0
    mismatches: List[tuple] = field(default_factory=list)


@dataclass
class SmoothedDecomposition:
    """Smoothed pair indexed per leaf and time, plus its folded node-valued forms.

    ``martingale_path[leaf][t]`` / ``drift_path[leaf][t]`` hold the exact
    values along each path, and ``martingale`` / ``drift_adapted`` carry the
    folded node-valued processes: the construction is adapted, so paths
    through a node agree there (:func:`_fold` checks it).
    """

    threshold_index: int
    martingale_path: Dict[str, List[Fraction]]
    drift_path: Dict[str, List[Fraction]]
    jump_times: Dict[str, List[int]]
    martingale: AdaptedProcess
    drift_adapted: AdaptedProcess
    limit_report: SmoothingLimitReport


def _fold(paths: Dict[str, List[str]], per_leaf: Dict[str, List[Fraction]]) -> AdaptedProcess:
    """The node-valued process of per-leaf path values.

    Self-check: the smoothing is adapted, so every path through a node
    carries one value there; two that differ are a fault in the
    construction, and the ``RuntimeError`` names the node.
    """
    vals: Dict[str, Fraction] = {}
    for leaf, path in paths.items():
        for n, v in zip(path, per_leaf[leaf]):
            if vals.setdefault(n, v) != v:
                raise RuntimeError(f"smoothed paths disagree at node {n!r}: {vals[n]} != {v}")
    return AdaptedProcess(vals)


def left_limit_smoothing(
    tree: FilteredTree,
    z: AdaptedProcess,
    i: int,
) -> SmoothedDecomposition:
    """Ramp each drop of the additive drift of size <= -1/i from its announcing time.

    It illustrates, on a finite tree, that the big predictable jumps of a
    supermartingale's drift can be carried by martingales started at their
    announcing times without changing the value the pair reaches at a finite
    stopping time.

    The n-th qualifying drop time sigma_n on a path is announced at
    a_n = max(sigma_n - 1, sigma_{n-1} + 1); from there the martingale part
    tracks E[Z_{sigma_n} 1{sigma_n exists} | F_t] and the drift absorbs the
    offset, so the pair reaches, at every finite stopping time rho,
    exactly M_rho plus (D_rho when a qualifying drop lands at rho, else the
    pre-rho drift value).  The report records that comparison at every
    finite stopping time, with positions weighted as in
    :class:`SmoothingLimitReport`.
    """
    if i <= 0:
        raise ValueError(f"jump threshold index must be positive, got {i}")
    add = doob_meyer(tree, z)
    threshold = -Fraction(1, i)
    bottom_up = list(tree.iter_nodes())[::-1]

    # once per leaf: its path, M and D along it, the qualifying jump times
    # and their announcing times
    paths = {leaf: tree.path_to(leaf) for leaf in tree.leaves}
    along: Dict[str, Tuple[List[Fraction], List[Fraction], List[int], List[int]]] = {}
    for leaf, path in paths.items():
        m = [add.martingale[n] for n in path]
        d = [add.drift.value_on(tree, n) for n in path]
        sig = [t for t in range(1, len(path)) if d[t] - d[t - 1] <= threshold]
        a = [max(s - 1, prev + 1) for prev, s in zip([0] + sig, sig)]
        along[leaf] = (m, d, sig, a)
    sigmas = {leaf: sig for leaf, (_, _, sig, _) in along.items()}

    # cond[k][n] = E[Z_{sigma_k} 1{sigma_k exists} | F_t] at node n, by one
    # bottom-up pass of one-step means per jump index k
    cond: List[Dict[str, Fraction]] = []
    for k in range(max(map(len, sigmas.values()))):
        x = {
            leaf: z[paths[leaf][sig[k]]] if k < len(sig) else Fraction(0)
            for leaf, sig in sigmas.items()
        }
        for n in bottom_up:
            if tree.children[n]:
                x[n] = one_step_expectation(tree, x, n)
        cond.append(x)

    # Finite stopping times containing each node: with F(n) the count of
    # finite stopping times of n's subtree (F(leaf) = 1, F(n) = 1 + prod of
    # F over the children), a time stops at c exactly when it stops at no
    # ancestor and picks any finite time below each sibling, so
    # mult(c) = mult(parent) * (F(parent) - 1) / F(c).
    finite: Dict[str, int] = {}
    for n in bottom_up:
        kids = tree.children[n]
        finite[n] = 1 + prod(finite[c] for c in kids) if kids else 1
    mult: Dict[str, int] = {tree.root: 1}
    for n in tree.iter_nodes():
        for c in tree.children[n]:
            mult[c] = mult[n] * ((finite[n] - 1) // finite[c])

    # the smoothed values along each path, then the reached value checked
    # once per (stop node, leaf) pair
    m_path: Dict[str, List[Fraction]] = {}
    d_path: Dict[str, List[Fraction]] = {}
    report = SmoothingLimitReport(ok=True)
    for leaf, (m, d, sig, a) in along.items():
        path = paths[leaf]
        m_path[leaf] = list(m)
        d_path[leaf] = list(d)
        for k, (s, a_k) in enumerate(zip(sig, a)):
            e_a = cond[k][path[a_k]]
            for t in range(a_k, len(path)):
                u = min(s, t)
                m_path[leaf][t] += cond[k][path[t]] - e_a - m[u] + m[a_k]
                d_path[leaf][t] += e_a - m[a_k] - d[u]
        for t, stop in enumerate(path):
            w = mult[stop]
            prev = max(t - 1, 0)
            # target: M_rho + (D_rho on a qualifying drop at rho, else D_{rho-})
            jump_at_t = t in sig
            target = m[t] + (d[t] if jump_at_t else d[prev])
            reached = m_path[leaf][t] + d_path[leaf][prev]
            # every position but a stuck one is guaranteed to reach the target
            stuck = jump_at_t and a[sig.index(t)] >= t
            report.positions += w
            if stuck:
                report.stuck += w
            else:
                report.guaranteed += w
            if reached == target:
                report.equal += w
                if not stuck:
                    report.guaranteed_equal += w
            elif not stuck:
                report.ok = False
                report.mismatches.append((stop, leaf, t, reached, target))
    return SmoothedDecomposition(
        threshold_index=i,
        martingale_path=m_path,
        drift_path=d_path,
        jump_times=sigmas,
        martingale=_fold(paths, m_path),
        drift_adapted=_fold(paths, d_path),
        limit_report=report,
    )
