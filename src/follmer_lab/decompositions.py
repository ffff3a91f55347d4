"""Exact additive and multiplicative supermartingale decompositions on trees.

The additive split Z = M + D has a martingale part M and a predictable
nonincreasing drift D starting at 0; the multiplicative split Z = M * D has a
martingale-up-to-the-first-zero part and a predictable nonincreasing factor
starting at 1.  Both are computed by one-step recursions in exact rational
arithmetic, together with the classification of the first zero of Z into its
announced and surprise parts.

Z is refused unless it is a nonnegative supermartingale, and the edge
probabilities are positive, so Z is absorbed at 0: the children of a zero
are nonnegative with mean at most 0, so each is 0 too.  So a node is at or
below the first zero of Z exactly when Z is 0 there, and
``multiplicative_property_violations``, which checks a candidate pair
against the properties that determine the multiplicative split, reads the
first zero off Z's own value, in one pass over the internal nodes.

``left_limit_smoothing`` builds, for a jump threshold 1/i, the smoothed
pair that carries each big predictable drop of D on a martingale started at
its announcing time, one step before the drop unless the previous drop is
there.  D is predictable, so that martingale is constant and the smoothing
has a closed form: the martingale part stays M, and the smoothed drift
takes each announced drop at its announcing node.  The value the pair
reaches at a finite stopping time depends only on the stop node, so it is
checked once per node and counted as often as (finite stopping time, leaf)
positions stop there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Dict, List

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
    rho0_announced: StoppingTime
    rho0_surprise: StoppingTime

    @property
    def rho0(self) -> StoppingTime:
        return StoppingTime(self.rho0_announced.nodes | self.rho0_surprise.nodes)

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

    After the pointwise checks, one pass over the internal nodes checks the
    rest: sibling-constancy once per parent; monotonicity, freezing and
    announced hits per child; the martingale step at the parent.  Z's own
    value tells whether a node is at or below the first zero (module
    docstring).
    """
    means = require_supermartingale(tree, z)
    zv = z.values
    problems: List[str] = []
    if d_vals[tree.root] != 1:
        problems.append("factor does not start at 1")
    for n in tree.iter_nodes():
        if m_vals[n] < 0 or d_vals[n] < 0:
            problems.append(f"negative part at {n!r}")
        if m_vals[n] * d_vals[n] != zv[n]:
            problems.append(f"product differs from Z at {n!r}")
    for p, e in means.items():  # internal nodes, parents first
        kids = tree.children[p]
        if any(d_vals[c] != d_vals[kids[0]] for c in kids):
            problems.append(f"factor not sibling-constant under {p!r}")
        for c in kids:
            if d_vals[c] > d_vals[p]:
                problems.append(f"factor increases into {c!r}")
            if not zv[p]:  # at or below the first zero
                if m_vals[c] != m_vals[p] or d_vals[c] != d_vals[p]:
                    problems.append(f"parts not frozen below the first zero at {c!r}")
            elif not zv[c] and not e:  # a first zero whose hit the mean announced
                if d_vals[c] != 0:
                    problems.append(f"factor nonzero at announced zero hit {c!r}")
                if m_vals[c] != m_vals[p]:
                    problems.append(f"martingale part jumps at announced zero hit {c!r}")
        if zv[p] and one_step_expectation(tree, m_vals, p) != m_vals[p]:
            problems.append(f"martingale step fails at {p!r}")
    return problems


# -- announced-jump smoothing -------------------------------------------------


@dataclass
class SmoothingLimitReport:
    """Per-position comparison of the smoothed pair with its target value.

    A position is one (finite stopping time, leaf) pair, located at the stop
    node on the leaf's path.  The reached and target values depend on the
    stop node alone, so each stop node s is checked once and counted
    mult(s) x (leaves below s) times, mult(s) being the number of finite
    stopping times that contain s.
    ``stuck`` counts positions at a drop whose parent node does not announce
    it (the drop lands at time 1, or right after the previous drop), and
    ``guaranteed`` all the others, where the target is reached exactly.
    ``mismatches`` lists each failing (stop node, time, reached, target)
    once.
    """

    equal: int = 0
    guaranteed: int = 0
    guaranteed_equal: int = 0
    stuck: int = 0
    mismatches: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every guaranteed position reaches its target."""
        return not self.mismatches

    @property
    def positions(self) -> int:
        return self.guaranteed + self.stuck


@dataclass
class SmoothedDecomposition:
    """Smoothed pair as values along each path, plus the smoothed drift as a node map.

    The smoothed martingale part is the additive decomposition's M itself;
    ``martingale_path[leaf][t]`` / ``drift_path[leaf][t]`` read M and the
    smoothed drift D^s along each leaf's path, and ``drift_adapted`` is D^s.
    """

    martingale_path: Dict[str, List[Fraction]]
    drift_path: Dict[str, List[Fraction]]
    drift_adapted: AdaptedProcess
    limit_report: SmoothingLimitReport


def left_limit_smoothing(
    tree: FilteredTree,
    z: AdaptedProcess,
    i: int,
) -> SmoothedDecomposition:
    """Take each drop of the additive drift of size <= -1/i one step early.

    It illustrates, on a finite tree, that the big predictable jumps of a
    supermartingale's drift can be carried by martingales started at their
    announcing times without changing the value the pair reaches at a finite
    stopping time.

    A drop from node n to its children is announced at n unless n is the
    root or a qualifying drop lands on n itself.  D is predictable, so the
    drop lands on every child of n at once, and the conditional expectation
    of Z at the drop, given F_n, is the one-step mean M(n) + D(child).  So
    the martingale that carries the drop is constant: the smoothed
    martingale part is M, and the smoothed drift D^s is D except at an
    announcing node n, where it already takes the value D(child).

    At every finite stopping time rho the pair reaches M_rho + D^s_{rho-1},
    and the target is M_rho plus (D_rho when a qualifying drop lands at rho,
    else D_{rho-1}).  The report makes that comparison once per stop node,
    weighted as in :class:`SmoothingLimitReport`.
    """
    if i <= 0:
        raise ValueError(f"jump threshold index must be positive, got {i}")
    add = doob_meyer(tree, z)
    m, steps = add.martingale.values, add.drift.steps
    threshold = -Fraction(1, i)
    order = list(tree.iter_nodes())
    parent, children = tree.parent, tree.children
    d = {n: add.drift.value_on(tree, n) for n in order}
    # a qualifying drop lands on n; it is announced at n's parent unless a
    # drop lands there too or the parent is the root
    lands = {n: parent[n] is not None and d[n] - d[parent[n]] <= threshold for n in order}
    announcing = {
        n for n in order
        if children[n] and lands[children[n][0]] and not lands[n] and parent[n] is not None
    }
    d_s = {n: steps[n] if n in announcing else d[n] for n in order}

    # Finite stopping times containing each node: with F(n) the count of
    # finite stopping times of n's subtree (F(leaf) = 1, F(n) = 1 + prod of
    # F over the children), a time stops at c exactly when it stops at no
    # ancestor and picks any finite time below each sibling, so
    # mult(c) = mult(parent) * (F(parent) - 1) / F(c).
    finite: Dict[str, int] = {}
    below: Dict[str, int] = {}  # leaves below each node
    for n in reversed(order):
        kids = children[n]
        finite[n] = 1 + prod(finite[c] for c in kids) if kids else 1
        below[n] = sum(below[c] for c in kids) if kids else 1
    mult: Dict[str, int] = {tree.root: 1}
    for n in order:
        for c in children[n]:
            mult[c] = mult[n] * ((finite[n] - 1) // finite[c])

    # once per stop node s: reached M_s + D^s_{s-1} against the target
    # M_s + (D_s on a qualifying drop at s, else D_{s-1}); every position
    # but a stuck one is guaranteed to reach the target
    report = SmoothingLimitReport()
    for s in order:
        before = s if parent[s] is None else parent[s]
        w = mult[s] * below[s]
        reached = m[s] + d_s[before]
        target = m[s] + d[s if lands[s] else before]
        stuck = lands[s] and before not in announcing
        if stuck:
            report.stuck += w
        else:
            report.guaranteed += w
        if reached == target:
            report.equal += w
            if not stuck:
                report.guaranteed_equal += w
        elif not stuck:
            report.mismatches.append((s, tree.depth[s], reached, target))
    paths = {leaf: tree.path_to(leaf) for leaf in tree.leaves}
    return SmoothedDecomposition(
        martingale_path={leaf: [m[n] for n in path] for leaf, path in paths.items()},
        drift_path={leaf: [d_s[n] for n in path] for leaf, path in paths.items()},
        drift_adapted=AdaptedProcess(d_s),
        limit_report=report,
    )
