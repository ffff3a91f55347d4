"""Exact Föllmer pairs on the cemetery-extended tree, and their diagnostics.

The construction integrates out the uniform quantile randomization of the
killing time in closed form: with the multiplicative split Z = M * D, the
outcome "history ends at node n, killed at time depth(n)+1" gets mass
P[n] * M[n] * (D at n - D after n), and each surviving leaf keeps mass
P[leaf] * Z[leaf].  Kill targets are either the cemetery state or a freeze
state x*; the two choices produce the non-uniqueness witness.

Verification checks the Kunita-Yoeurp identity Q[A and {rho < tau}] =
E_P[Z_rho 1_A] atom by atom, by exact rational comparison.  An atom is a stop
node s of rho, and its comparison (the Q-mass surviving past s against
P[s] * Z[s]) does not involve rho; every node is a stop node of the constant
time at its depth.  So the identity holds for every stopping time exactly
when it holds at every node, and :func:`verify_ky_all` certifies it in one
pass over the nodes instead of enumerating stopping times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .decompositions import multiplicative
from .errors import (
    FreezeTargetError,
    MartingaleWitnessError,
    PairValidationError,
)
from .trees import (
    AdaptedProcess,
    ExtendedOutcome,
    FilteredTree,
    StoppingTime,
    count_stopping_times,
    frac,
    frac_str,
    is_supermartingale,
)

CEMETERY = "cemetery"


@dataclass(frozen=True)
class FollmerPair:
    """An outcome measure on the extended tree together with its kill time.

    ``outcomes`` maps :class:`ExtendedOutcome` to exact mass.  The kill-time
    coordinate of each outcome is the stopping time of the pair; no original
    (surviving) path carries a kill time, so the reference measure sees the
    kill time as infinite.

    The survivor masses the KY check aggregates are memoised per tree on the
    instance, so ``outcomes`` must not be mutated after construction: build
    a new pair instead.
    """

    outcomes: Dict[ExtendedOutcome, Fraction]
    target: str  # CEMETERY or the freeze-state label
    _survivors: Dict[FilteredTree, Dict[str, Fraction]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def total_mass(self) -> Fraction:
        return sum(self.outcomes.values(), Fraction(0))

    def killed_mass(self) -> Fraction:
        return sum(
            (m for o, m in self.outcomes.items() if not o.alive), Fraction(0)
        )

    def kill_time_distribution(self) -> Dict[Optional[int], Fraction]:
        dist: Dict[Optional[int], Fraction] = {}
        for o, m in self.outcomes.items():
            dist[o.kill_time] = dist.get(o.kill_time, Fraction(0)) + m
        return dist

    def to_dict(self) -> dict:
        rows = []
        for o in sorted(
            self.outcomes, key=lambda o: (o.kill_time is None, o.kill_time or 0, o.base_node)
        ):
            rows.append(
                {
                    "history_node": o.base_node,
                    "kill_time": "never" if o.alive else o.kill_time,
                    "target": o.target,
                    "mass": frac_str(self.outcomes[o]),
                }
            )
        return {"target": self.target, "outcomes": rows}

    @classmethod
    def from_dict(cls, data: dict) -> "FollmerPair":
        if not isinstance(data, dict) or not isinstance(data.get("outcomes"), list):
            raise PairValidationError("a pair needs an 'outcomes' list")
        if not isinstance(data.get("target"), str):
            raise PairValidationError("a pair needs a 'target' label")
        outcomes: Dict[ExtendedOutcome, Fraction] = {}
        for row in data["outcomes"]:
            try:
                kt = row["kill_time"]
                kt = None if kt in (None, "never") else int(kt)
                o = ExtendedOutcome(str(row["history_node"]), kt, row.get("target"))
                mass = frac(row["mass"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise PairValidationError(f"malformed outcome {row!r}: {exc!r}") from exc
            if o in outcomes:
                raise PairValidationError(f"{_describe(o)} is listed twice")
            outcomes[o] = mass
        return cls(outcomes, data["target"])

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FollmerPair":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _check_freeze_admissible(tree: FilteredTree, x_star: str) -> None:
    """No charged path may sit at x* for a positive duration through the horizon.

    The discrete surrogate of "the path is constant at x* on some interval":
    states equal to x* at every time in {t, ..., T} for some t <= T-1.  A
    single visit at the final instant does not witness freezing, so fresh
    symbols and states visited only momentarily are admissible.
    """
    for leaf in tree.leaves:
        if tree.state[leaf] != x_star:
            continue
        path_nodes = tree.path_to(leaf)
        run = 0
        for n in reversed(path_nodes):
            if tree.state[n] == x_star:
                run += 1
            else:
                break
        if run >= 2:
            path = "/".join(path_nodes)
            raise FreezeTargetError(
                f"freeze state {x_star!r} collides with charged path {path}: "
                f"it sits at {x_star!r} for {run} consecutive times through "
                f"the horizon",
                path=path,
            )


def construct_follmer(
    tree: FilteredTree,
    z: AdaptedProcess,
    target: str = CEMETERY,
) -> FollmerPair:
    """Quantile-killing construction of a Föllmer pair for Z.

    ``target`` is :data:`CEMETERY` or a freeze-state label x* (then no charged
    path may end in x*).  The uniform randomization is integrated out exactly:
    the killing factor D is a step function along each path, so kill-time
    masses are its successive decrements weighted by the martingale part.
    """
    # multiplicative checks Z first, so a non-supermartingale is reported
    # before an inadmissible freeze state
    dec = multiplicative(tree, z)
    if target != CEMETERY:
        _check_freeze_admissible(tree, target)
    m, d = dec.martingale, dec.factor
    outcomes: Dict[ExtendedOutcome, Fraction] = {}
    for n in tree.iter_nodes():
        if not tree.is_leaf(n):
            drop = d.value_on(tree, n) - d.value_after(n)
            if drop != 0:
                mass = tree.path_prob[n] * m[n] * drop
                if mass != 0:
                    o = ExtendedOutcome(n, tree.depth[n] + 1, target)
                    outcomes[o] = outcomes.get(o, Fraction(0)) + mass
        else:
            alive = tree.path_prob[n] * z[n]
            if alive != 0:
                outcomes[ExtendedOutcome(n, None, None)] = alive
    return FollmerPair(outcomes, target)


# -- Kunita-Yoeurp verification ----------------------------------------------


@dataclass
class KYAtomRow:
    rho_id: str
    atom_node: str
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class KYReport:
    """Verdict of a KY check; ``ok`` needs every atom equal and no ``pair_problem``."""

    ok: bool
    rows: List[KYAtomRow] = field(default_factory=list)
    n_stopping_times: int = 1
    first_failure: Optional[KYAtomRow] = None
    pair_problem: Optional[str] = None


def _describe(o: ExtendedOutcome) -> str:
    kill = "never" if o.alive else o.kill_time
    return f"outcome (history {o.base_node}, kill time {kill}, target {o.target})"


def pair_problem(tree: FilteredTree, pair: FollmerPair) -> Optional[str]:
    """The first outcome that breaks the extended outcome space, or None.

    The KY atoms aggregate masses by history node only, so they cannot see
    these invariants: a killed outcome dies one step after its history node
    (kill time depth(base)+1, within the horizon) at the pair's target, a
    surviving outcome sits on a leaf, and the masses are nonnegative with
    total 1.  The history nodes must already be known to the tree.
    """
    for o, mass in pair.outcomes.items():
        if mass < 0:
            return f"{_describe(o)} has negative mass {frac_str(mass)}"
        if o.alive:
            if not tree.is_leaf(o.base_node):
                return f"{_describe(o)} survives at a node that is not a leaf"
        else:
            expected = tree.depth[o.base_node] + 1
            if o.kill_time != expected or expected > tree.horizon:
                return (
                    f"{_describe(o)} must be killed at time depth+1 = {expected} "
                    f"within the horizon {tree.horizon}"
                )
            if o.target != pair.target:
                return f"{_describe(o)} is not killed at the pair's target {pair.target}"
    total = pair.total_mass()
    if total != 1:
        return f"outcome masses sum to {frac_str(total)}, not 1"
    return None


def _survivor_mass_by_node(
    tree: FilteredTree, pair: FollmerPair
) -> Dict[str, Fraction]:
    """For each node s: Q-mass of outcomes alive strictly past depth(s) within cyl(s).

    An outcome killed at time u with history n lies in the cylinder of s and
    survives past depth(s) exactly when s is an ancestor-or-equal of n; alive
    outcomes contribute through their leaf.  Aggregated bottom-up in O(nodes)
    once per tree and memoised on the pair.  Raises
    :class:`PairValidationError` for a history node the tree lacks.
    """
    agg = pair._survivors.get(tree)
    if agg is not None:
        return agg
    agg = {n: Fraction(0) for n in tree.iter_nodes()}
    for o, mass in pair.outcomes.items():
        if o.base_node not in agg:
            raise PairValidationError(
                f"{_describe(o)} names node {o.base_node!r}, which the tree lacks"
            )
        agg[o.base_node] += mass
    for n in reversed(list(tree.iter_nodes())):
        for c in tree.children[n]:
            agg[n] += agg[c]
    pair._survivors[tree] = agg
    return agg


def verify_ky(
    pair: FollmerPair,
    tree: FilteredTree,
    z: AdaptedProcess,
    rho: StoppingTime,
    rho_id: str = "rho",
    collect_rows: bool = True,
) -> KYReport:
    """Exact per-atom comparison of Q[A and {rho < tau}] with E_P[Z_rho 1_A].

    One atom per stop node; paths the stopping time never reaches contribute
    atoms with both sides zero (the indicator vanishes there).
    """
    survivor_mass = _survivor_mass_by_node(tree, pair)
    rep = _check_atoms(
        tree, z, survivor_mass, ((rho_id, s) for s in sorted(rho.nodes)), collect_rows
    )
    if collect_rows and rho.allows_never(tree):
        for leaf in tree.leaves:
            if rho.stop_node_on_path(tree, leaf) is None:
                rep.rows.append(KYAtomRow(rho_id, leaf, Fraction(0), Fraction(0)))
    return rep


def _check_atoms(
    tree: FilteredTree,
    z: AdaptedProcess,
    survivor_mass: Dict[str, Fraction],
    atoms: Iterable[Tuple[str, str]],
    collect_rows: bool,
) -> KYReport:
    """Compare survivor mass with P[s] * Z[s] at each (rho_id, stop node s)."""
    rep = KYReport(True)
    for rho_id, s in atoms:
        row = KYAtomRow(rho_id, s, survivor_mass[s], tree.path_prob[s] * z[s])
        if not row.equal:
            rep.ok = False
            if rep.first_failure is None:
                rep.first_failure = row
        if collect_rows:
            rep.rows.append(row)
    return rep


def verify_ky_all(
    pair: FollmerPair,
    tree: FilteredTree,
    z: AdaptedProcess,
    collect_rows: bool = False,
) -> KYReport:
    """Certify the KY identity for every stopping time, one atom per node.

    Every node s is checked once, in breadth-first order, as a stop node of
    the constant time at its depth (``rho_id`` ``t<depth>``); since an atom's
    comparison does not depend on the stopping time, this covers all
    ``count_stopping_times(tree)`` of them in O(nodes).  The pair's outcome
    space is validated too: ``pair_problem`` names its first broken invariant.
    """
    survivor_mass = _survivor_mass_by_node(tree, pair)
    atoms = ((f"t{tree.depth[s]}", s) for s in tree.iter_nodes())
    rep = _check_atoms(tree, z, survivor_mass, atoms, collect_rows)
    rep.n_stopping_times = count_stopping_times(tree)
    rep.pair_problem = pair_problem(tree, pair)
    rep.ok = rep.ok and rep.pair_problem is None
    return rep


def write_ky_ledger(report: KYReport, path: str) -> None:
    """Per-atom CSV ledger: rho_id, atom_node, lhs, rhs, equal."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rho_id,atom_node,lhs,rhs,equal\n")
        for row in report.rows:
            fh.write(
                f"{row.rho_id},{row.atom_node},{frac_str(row.lhs)},"
                f"{frac_str(row.rhs)},{str(row.equal).lower()}\n"
            )


# -- level-crossing localization times ----------------------------------------


def tau_hat(tree: FilteredTree, z: AdaptedProcess, n: int) -> StoppingTime:
    """Stop at the first node with Z >= n, no later than time min(n, horizon).

    Once n exceeds both the maximum of Z and the horizon, the threshold is
    unreachable and the cap is the horizon, so the time is the constant T.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    cap_time = min(n, tree.horizon)
    stops: List[str] = []

    def walk(node: str) -> None:
        if z[node] >= n or tree.depth[node] == cap_time:
            stops.append(node)
            return
        for c in tree.children[node]:
            walk(c)

    walk(tree.root)
    return StoppingTime(frozenset(stops))


# -- uniqueness diagnostics ----------------------------------------------------


@dataclass(frozen=True)
class UniquenessReport:
    is_martingale: bool
    mass_lost: Fraction
    tau_lt_zeta_negligible: bool
    unique_measure_for_tau: bool
    unique_pair: Optional[bool]
    witness_available: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "is_martingale": self.is_martingale,
            "mass_lost": frac_str(self.mass_lost),
            "tau_lt_zeta_negligible": self.tau_lt_zeta_negligible,
            "unique_measure_for_tau": self.unique_measure_for_tau,
            "unique_pair": self.unique_pair,
            "witness_available": self.witness_available,
            "reason": self.reason,
        }


def uniqueness_report(
    tree: FilteredTree, z: AdaptedProcess, pair: FollmerPair
) -> UniquenessReport:
    """Uniqueness verdicts for the measure given tau, and for the pair.

    The measure for the given kill time is unique exactly when {tau < zeta}
    is negligible under the pair: immediate for cemetery targets (killed
    outcomes hit the cemetery at their kill time), false for freeze targets
    whenever mass is lost (frozen outcomes never reach the cemetery).  At the
    pair level, martingales pin the pair down; a strict supermartingale on a
    tree with at least two effective states admits the freeze-state witness,
    while an unlabeled single-path tree does not.
    """
    rep = is_supermartingale(tree, z)
    mass_lost = pair.killed_mass()
    if pair.target == CEMETERY:
        negligible = True  # every killed outcome satisfies tau = zeta
    else:
        negligible = mass_lost == 0  # frozen outcomes have zeta = never > tau
    if rep.is_martingale:
        return UniquenessReport(
            True,
            mass_lost,
            negligible,
            negligible,
            True,
            False,
            "martingale: no mass lost, the capped crossing times never fire "
            "and the pair is pinned down",
        )
    if tree.effective_state_count() >= 2:
        return UniquenessReport(
            False,
            mass_lost,
            negligible,
            negligible,
            False,
            True,
            "strict supermartingale with >= 2 states: cemetery and "
            "freeze-state pairs disagree on the killed outcomes",
        )
    return UniquenessReport(
        False,
        mass_lost,
        negligible,
        negligible,
        True,
        False,
        "single-state chain: the outcome space {original path, killed "
        "truncations} pins the measure down",
    )


def total_variation(p1: FollmerPair, p2: FollmerPair) -> Fraction:
    """Half the L1 distance between two outcome measures, exactly."""
    keys = set(p1.outcomes) | set(p2.outcomes)
    l1 = sum(
        (
            abs(p1.outcomes.get(k, Fraction(0)) - p2.outcomes.get(k, Fraction(0)))
            for k in keys
        ),
        Fraction(0),
    )
    return l1 / 2


def nonuniqueness_witness(
    tree: FilteredTree, z: AdaptedProcess, x_star: str
) -> Tuple[FollmerPair, FollmerPair, Fraction]:
    """Two distinct Föllmer pairs for a strict supermartingale: cemetery vs freeze.

    Both pairs satisfy the Kunita-Yoeurp identity for every stopping time;
    they disagree exactly on where the killed outcomes sit, so their total
    variation distance equals the lost mass.
    """
    pair_cemetery = construct_follmer(tree, z, CEMETERY)
    if pair_cemetery.killed_mass() == 0:
        raise MartingaleWitnessError(
            "witness requires a non-martingale: no mass is lost"
        )
    pair_freeze = construct_follmer(tree, z, x_star)
    return pair_cemetery, pair_freeze, total_variation(pair_cemetery, pair_freeze)


def chain_measure_from_constant_times(
    tree: FilteredTree, z: AdaptedProcess
) -> Dict[Optional[int], Fraction]:
    """Unique kill-time law on a single-path tree, solved from constant times.

    On a chain the outcome space is {kill at 1..T} plus the surviving path,
    and the identities at the constant times t = 0..T form a triangular
    system: mass surviving past t must be E[Z_t], so the kill mass at t is
    the decrement E[Z_{t-1}] - E[Z_t] and the surviving mass is E[Z_T].
    Solving it is the independent uniqueness oracle for chains.
    """
    if not tree.is_chain():
        raise ValueError("constant-time solve applies to single-path trees only")
    path = tree.path_to(tree.leaves[0])
    law: Dict[Optional[int], Fraction] = {}
    for t in range(1, tree.horizon + 1):
        law[t] = z[path[t - 1]] - z[path[t]]
    law[None] = z[path[tree.horizon]]
    return {k: v for k, v in law.items() if v != 0}
