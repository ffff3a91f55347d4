"""Exact Föllmer pairs on the cemetery-extended tree, and their diagnostics.

The pair is fixed by one per-node fact, the Kunita-Yoeurp identity: the
mass that survives past node n is P[n] * Z[n].  So the outcome "history
ends at n, killed at time depth(n)+1" has mass

    P[n] * (Z[n] - E[Z_{t+1} | F_t](n)),

the mass that reaches n but not its children, and each surviving leaf keeps
P[leaf] * Z[leaf].  This is Föllmer's (1972) exit measure, read off the
one-step means.  It is the quantile-killing construction with the uniform
randomization integrated out: with the multiplicative split Z = M * D, that
construction gives the killed outcome at n the mass P[n] * M[n] * (D_n -
D_{n+1}).  Since M * D = Z, and M[n] * D_{n+1} is the one-step mean at n
(both vanish at and below a zero of Z, and where the zero hit just after n
is announced), the two masses are equal.

The identity fixes the mass killed at every node and leaves only its target
free: the cemetery, or a freeze state x* that no charged path sits at.  A
freeze state need not label any node, so a fresh symbol is always
admissible, on single-state trees too.  Under this reading the pair is
unique exactly when no mass is lost; otherwise the cemetery pair and the
pair frozen at a fresh symbol are two distinct pairs at total variation
equal to the lost mass (the non-uniqueness witness).  The measure given
the kill time tau is unique exactly when {tau < zeta} is negligible: it is
for the cemetery pair, whose killed outcomes reach the cemetery at their
kill time, and it is not for a freeze pair that loses mass, whose frozen
outcomes never reach the cemetery.

With no mass lost the identity fixes every outcome, which is why the pair
is then unique.  ``uniqueness`` writes ``uniqueness.json``: ``mass_lost``
(:func:`uniqueness_report`, a rational string) and ``unique_pair``, true
exactly when that mass is 0.  ``witness T x`` writes the two pairs as
``pair_cemetery.json`` and ``pair_freeze.json`` and, beside them,
``witness.json`` with ``total_variation``, the distance between the two
pairs, which is the lost mass.  ``witness`` and ``follmer --target x``
build the freeze pair with :func:`nonuniqueness_witness` and refuse it in
the order that function gives.

Verification checks the Kunita-Yoeurp identity Q[A and {rho < tau}] =
E_P[Z_rho 1_A] atom by atom, by exact rational comparison.  An atom is a stop
node s of rho, and its comparison (the Q-mass surviving past s against
P[s] * Z[s]) does not involve rho; every node is a stop node of the constant
time at its depth.  So the identity holds for every stopping time exactly
when it holds at every node, and :func:`verify_ky_all` certifies it in one
pass over the nodes instead of enumerating stopping times.

On a finite tree the pair is two node-keyed laws (:class:`FollmerPair`): the
mass killed just after each internal node, and the mass surviving at each
leaf.  A pair file (:meth:`FollmerPair.to_json`) is an object with the
pair's ``target`` (``"cemetery"`` or the freeze label) and an ``outcomes``
list of rows, one per node with nonzero mass:

- ``history_node``: the node's id, a JSON string;
- ``kill_time``: depth(node)+1 for a killed mass, or ``"never"`` for a
  survivor;
- ``target``: the pair's target for a killed mass, null for a survivor;
- ``mass``: a rational string as :func:`~follmer_lab.trees.frac` reads it.

Killed rows come first, sorted by kill time and then node id, and the
survivor rows follow, sorted by node id.  ``verify`` reads a pair file
against its tree (:meth:`FollmerPair.from_json`) and reports the first
fault in this order.  Exit code 2:

- the file cannot be read as JSON;
- the top level has no ``outcomes`` list, or no string ``target``;
- a malformed row (a missing field, a ``kill_time`` that is neither an
  integer nor ``"never"``, a ``target`` that is neither a string nor null,
  a ``history_node`` that is not a string, a ``mass`` that is not a
  rational), or a row whose (node, kill time, target) is listed twice,
  whichever comes first in the file;
- the first row whose node the tree lacks.

Exit code 1, with the KY ledger still written:

- the freeze target breaks the freeze-state rule;
- the first row that has negative mass or breaks the layout above: a
  ``"never"`` row off a leaf or with a target, or a killed row whose kill
  time is not depth+1 within the horizon or whose target is not the
  pair's;
- the masses do not total 1.

A failing KY atom also exits 1, and is reported after any of these.  Each
row's mass counts at its node, whatever its kill time and target, so
the ledger of a broken pair accounts for every row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import FreezeTargetError, PairValidationError
from .trees import (
    AdaptedProcess,
    FilteredTree,
    StoppingTime,
    count_stopping_times,
    frac,
    frac_str,
    read_json,
    require_supermartingale,
    write_json,
)

CEMETERY = "cemetery"


@dataclass(frozen=True)
class FollmerPair:
    """A Föllmer pair on ``tree``: two node-keyed laws and the target of its kill time.

    ``killed[n]`` is the mass killed just after the internal node n, at time
    depth(n)+1, and sent to ``target``; ``survivors[leaf]`` is the mass never
    killed, which the reference measure sees with an infinite kill time.
    :func:`construct_follmer` leaves out nodes with no mass.  ``defect`` is
    set only by :meth:`from_dict`: the first row of the file that breaks
    this layout or has negative mass, as ``verify`` reports it.

    The survivor masses the KY check aggregates are memoised per tree on the
    instance, so the maps must not be mutated after construction: build a new
    pair instead.
    """

    tree: FilteredTree
    target: str  # CEMETERY or the freeze-state label
    killed: Dict[str, Fraction]
    survivors: Dict[str, Fraction]
    defect: Optional[str] = None
    _mass_past: Dict[FilteredTree, Dict[str, Fraction]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def total_mass(self) -> Fraction:
        return sum(self.survivors.values(), self.killed_mass())

    def killed_mass(self) -> Fraction:
        return sum(self.killed.values(), Fraction(0))

    def to_dict(self) -> dict:
        depth, target = self.tree.depth, self.target
        rows = [
            {"history_node": n, "kill_time": depth[n] + 1, "target": target, "mass": frac_str(m)}
            for n, m in sorted(self.killed.items(), key=lambda item: (depth[item[0]], item[0]))
        ]
        rows += [
            {"history_node": n, "kill_time": "never", "target": None, "mass": frac_str(m)}
            for n, m in sorted(self.survivors.items())
        ]
        return {"target": target, "outcomes": rows}

    @classmethod
    def from_dict(cls, data: dict, tree: FilteredTree) -> "FollmerPair":
        """The pair a pair file holds, read against ``tree``; faults as in the module docstring.

        Raises :class:`PairValidationError` for the faults of exit code 2.
        Each row's mass is added to its node's entry, in ``killed`` at an
        internal node and in ``survivors`` at a leaf, whatever the row's kill
        time and target, so the KY ledger of a broken pair counts every row.
        """
        if not isinstance(data, dict) or not isinstance(data.get("outcomes"), list):
            raise PairValidationError("a pair needs an 'outcomes' list")
        if not isinstance(data.get("target"), str):
            raise PairValidationError("a pair needs a 'target' label")
        target = data["target"]
        depth, children, horizon = tree.depth, tree.children, tree.horizon
        killed: Dict[str, Fraction] = {}
        survivors: Dict[str, Fraction] = {}
        seen = {}  # every row's (node, kill time, target), in file order
        defect = None
        for row in data["outcomes"]:
            try:
                kt = row["kill_time"]
                if kt == "never":
                    kt = None
                elif not isinstance(kt, int) or isinstance(kt, bool):
                    raise TypeError(f"kill_time {kt!r} is neither an integer nor 'never'")
                to = row.get("target")
                if to is not None and not isinstance(to, str):
                    raise TypeError(f"target {to!r} is not a string")
                node = row["history_node"]
                if not isinstance(node, str):
                    raise TypeError(f"history_node {node!r} is not a string")
                mass = frac(row["mass"])
            except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
                raise PairValidationError(f"malformed outcome {row!r}: {exc!r}") from exc
            if (node, kt, to) in seen:
                raise PairValidationError(f"{_describe(node, kt, to)} is listed twice")
            seen[node, kt, to] = None
            if node not in depth:  # reported once every row has been parsed
                continue
            if defect is None:
                if mass < 0:
                    defect = f"{_describe(node, kt, to)} has negative mass {frac_str(mass)}"
                elif kt is None:
                    if children[node]:
                        defect = f"{_describe(node, kt, to)} survives at a node that is not a leaf"
                    elif to is not None:
                        defect = f"{_describe(node, kt, to)} survives, so it can have no target"
                elif kt != depth[node] + 1 or kt > horizon:
                    defect = (
                        f"{_describe(node, kt, to)} must be killed at time depth+1 = "
                        f"{depth[node] + 1} within the horizon {horizon}"
                    )
                elif to != target:
                    defect = f"{_describe(node, kt, to)} is not killed at the pair's target {target}"
            masses = killed if children[node] else survivors
            masses[node] = masses[node] + mass if node in masses else mass
        for node, kt, to in seen:
            if node not in depth:
                raise PairValidationError(f"{_describe(node, kt, to)} names node {node!r}, which the tree lacks")
        return cls(tree, target, killed, survivors, defect)

    def to_json(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: str, tree: FilteredTree) -> "FollmerPair":
        return cls.from_dict(read_json(path), tree)


def _check_freeze_admissible(tree: FilteredTree, x_star: str) -> None:
    """The freeze-state rule: no charged path sits at x*.

    A charged path sits at x* when its states equal x* at every time in
    {t, ..., T} for some t <= T-1, the discrete surrogate of "the path is
    constant at x* on some interval".  A single visit at the final instant
    does not witness freezing, so fresh symbols and states visited only
    momentarily are admissible.
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
            raise FreezeTargetError(
                f"freeze state {x_star!r} collides with charged path {'/'.join(path_nodes)}: "
                f"it sits at {x_star!r} for {run} consecutive times through "
                f"the horizon"
            )


def construct_follmer(
    tree: FilteredTree,
    z: AdaptedProcess,
    target: str = CEMETERY,
) -> FollmerPair:
    """The cemetery pair of Z, from its one-step means (see the module docstring).

    ``target`` may only name :data:`CEMETERY`, as ``bench/inputs.py`` does;
    :func:`nonuniqueness_witness` builds every freeze pair.
    """
    if target != CEMETERY:
        raise ValueError(
            f"construct_follmer builds the cemetery pair only; build the freeze pair "
            f"at {target!r} with nonuniqueness_witness"
        )
    means = require_supermartingale(tree, z)
    killed: Dict[str, Fraction] = {}
    survivors: Dict[str, Fraction] = {}
    zv, path_prob = z.values, tree.path_prob
    for n in tree.iter_nodes():
        zn = zv[n]
        e = means.get(n)
        # nothing is killed where the mean is Z[n]'s own value (a martingale
        # step) and nothing survives at a zero of Z
        if e is not None:
            if e is not zn:
                killed[n] = path_prob[n] * (zn - e)
        elif zn:
            survivors[n] = path_prob[n] * zn
    return FollmerPair(tree, CEMETERY, killed, survivors)


# -- Kunita-Yoeurp verification ----------------------------------------------


@dataclass(slots=True)
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


def _describe(node: str, kill_time: Optional[int], target: Optional[str]) -> str:
    kill = "never" if kill_time is None else kill_time
    return f"outcome (history {node}, kill time {kill}, target {target})"


def pair_problem(tree: FilteredTree, pair: FollmerPair) -> Optional[str]:
    """The pair's first broken invariant, or None.

    The KY atoms aggregate masses by node only, so they cannot see these
    invariants, checked in this order: a freeze target obeys the same rules
    as in :func:`construct_follmer`, the rows of a pair file keep the layout
    (``pair.defect``), the masses are nonnegative, and they total 1.
    """
    if pair.target != CEMETERY:
        try:
            _check_freeze_admissible(tree, pair.target)
        except FreezeTargetError as exc:
            return str(exc)
    if pair.defect is not None:
        return pair.defect
    for masses in (pair.killed, pair.survivors):
        for n, mass in masses.items():
            if mass < 0:
                kill, to = (tree.depth[n] + 1, pair.target) if masses is pair.killed else (None, None)
                return f"{_describe(n, kill, to)} has negative mass {frac_str(mass)}"
    total = pair.total_mass()
    if total != 1:
        return f"outcome masses sum to {frac_str(total)}, not 1"
    return None


def _survivor_mass_by_node(
    tree: FilteredTree, pair: FollmerPair
) -> Dict[str, Fraction]:
    """For each node s: Q-mass of outcomes alive strictly past depth(s) within cyl(s).

    The mass killed after n lies in the cylinder of s and survives past
    depth(s) exactly when s is an ancestor-or-equal of n; survivors
    contribute through their leaf.  Aggregated bottom-up in O(nodes) once
    per tree and memoised on the pair.
    """
    agg = pair._mass_past.get(tree)
    if agg is not None:
        return agg
    # killed masses sit at internal nodes and survivors at leaves, so the
    # seeds do not overlap; zero masses, most of a tree below its zero hits,
    # add nothing
    agg = dict.fromkeys(tree.iter_nodes(), Fraction(0))
    agg.update(pair.killed)
    agg.update(pair.survivors)
    for n in reversed(list(tree.iter_nodes())):
        for c in tree.children[n]:
            b = agg[c]
            if b:
                agg[n] = agg[n] + b if agg[n] else b
    pair._mass_past[tree] = agg
    return agg


def verify_ky(
    pair: FollmerPair,
    tree: FilteredTree,
    z: AdaptedProcess,
    rho: StoppingTime,
) -> KYReport:
    """Exact per-atom comparison of Q[A and {rho < tau}] with E_P[Z_rho 1_A].

    One atom per stop node, in rows with ``rho_id`` ``rho``; paths the
    stopping time never reaches contribute atoms with both sides zero (the
    indicator vanishes there), one per leaf in ``tree.leaves`` order after
    the stop nodes' rows.
    """
    survivor_mass = _survivor_mass_by_node(tree, pair)
    stops, children = rho.nodes, tree.children
    rep = _check_atoms(tree, z, survivor_mass, (("rho", s) for s in sorted(stops)))
    # one walk from the root that halts at each stop node reaches exactly the
    # leaves whose path meets none; it also holds for sets that are not antichains
    never = set()
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if n not in stops:
            kids = children[n]
            if kids:
                stack += kids
            else:
                never.add(n)
    if never:
        zero = Fraction(0)
        rep.rows += [KYAtomRow("rho", s, zero, zero) for s in tree.leaves if s in never]
    return rep


def _check_atoms(
    tree: FilteredTree,
    z: AdaptedProcess,
    survivor_mass: Dict[str, Fraction],
    atoms: Iterable[Tuple[str, str]],
) -> KYReport:
    """Compare survivor mass with P[s] * Z[s] at each (rho_id, stop node s)."""
    rep = KYReport(True)
    zv, path_prob = z.values, tree.path_prob
    for rho_id, s in atoms:
        zs = zv[s]
        row = KYAtomRow(rho_id, s, survivor_mass[s], path_prob[s] * zs if zs else zs)
        if not row.equal:
            rep.ok = False
            if rep.first_failure is None:
                rep.first_failure = row
        rep.rows.append(row)
    return rep


def verify_ky_all(
    pair: FollmerPair,
    tree: FilteredTree,
    z: AdaptedProcess,
) -> KYReport:
    """Certify the KY identity for every stopping time, one atom per node.

    Every node s is checked once, in breadth-first order, as a stop node of
    the constant time at its depth (``rho_id`` ``t<depth>``); since an atom's
    comparison does not depend on the stopping time, this covers all
    ``count_stopping_times(tree)`` of them in O(nodes).  The pair's outcome
    space is validated too: ``pair_problem`` names its first broken invariant.
    """
    survivor_mass = _survivor_mass_by_node(tree, pair)
    rho_ids, depth = [f"t{t}" for t in range(tree.horizon + 1)], tree.depth
    atoms = ((rho_ids[depth[s]], s) for s in tree.iter_nodes())
    rep = _check_atoms(tree, z, survivor_mass, atoms)
    rep.n_stopping_times = count_stopping_times(tree)
    rep.pair_problem = pair_problem(tree, pair)
    rep.ok = rep.ok and rep.pair_problem is None
    return rep


def write_ky_ledger(report: KYReport, path: str) -> None:
    """Per-atom CSV ledger: rho_id, atom_node, lhs, rhs, equal.

    A field is quoted only where CSV needs it, so plain node ids are written
    bare.  That minimal quoting leaves a carriage return bare when lines end
    in a line feed, so a row whose node id holds one is quoted whole.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        minimal.writerow(("rho_id", "atom_node", "lhs", "rhs", "equal"))
        for row in report.rows:
            (quoted if "\r" in row.atom_node else minimal).writerow(
                (row.rho_id, row.atom_node, frac_str(row.lhs), frac_str(row.rhs),
                 "true" if row.equal else "false")
            )


# -- level-crossing localization times ----------------------------------------


def tau_hat(tree: FilteredTree, z: AdaptedProcess, n: int) -> StoppingTime:
    """Stop at the first node with Z >= n, no later than time min(n, horizon).

    It illustrates the localizing times of the existence statement: they
    increase with n, and before each of them the density Z stays below n,
    so the measure with density Z can be built on the history up to each of
    them in turn.

    Once n exceeds both the maximum of Z and the horizon, the threshold is
    unreachable and the cap is the horizon, so the time is the constant T.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    cap_time = min(n, tree.horizon)
    stops: List[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if z[node] >= n or tree.depth[node] == cap_time:
            stops.append(node)
        else:
            stack.extend(tree.children[node])
    return StoppingTime(frozenset(stops))


# -- uniqueness diagnostics ----------------------------------------------------


def uniqueness_report(tree: FilteredTree, z: AdaptedProcess) -> Fraction:
    """The mass the cemetery pair of Z loses; the pair is unique exactly when it is 0.

    The lost mass is Z_0 - E_P[Z_T], a sum of nonnegative one-step drifts,
    so it is 0 exactly when Z is a martingale.  The module docstring says
    why it decides uniqueness; :func:`nonuniqueness_witness` builds the two
    pairs whenever it is positive.
    """
    return construct_follmer(tree, z).killed_mass()


def nonuniqueness_witness(
    tree: FilteredTree, z: AdaptedProcess, x_star: str
) -> Tuple[FollmerPair, FollmerPair, Fraction]:
    """Two distinct Föllmer pairs for a strict supermartingale: cemetery vs freeze.

    Both pairs satisfy the Kunita-Yoeurp identity for every stopping time;
    they disagree exactly on where the killed outcomes sit, so their total
    variation distance is the lost mass, returned third.  Refusals come in
    this order: Z is not a supermartingale, no mass is lost, x* is the
    cemetery, and a charged path sits at x*
    (:func:`_check_freeze_admissible`).  The freeze pair is the cemetery
    pair's two maps under the target x*: the target does not change where
    mass is killed, only where it goes.
    """
    pair_cemetery = construct_follmer(tree, z)
    lost = pair_cemetery.killed_mass()
    if lost == 0:
        raise FreezeTargetError(
            f"freeze target {x_star!r} needs lost mass: Z is a martingale, so the "
            "freeze pair would be the cemetery pair"
        )
    if x_star == CEMETERY:
        raise FreezeTargetError(
            f"freeze state {x_star!r} is the cemetery: the freeze pair would be "
            f"the cemetery pair"
        )
    _check_freeze_admissible(tree, x_star)
    return pair_cemetery, replace(pair_cemetery, target=x_star), lost


def chain_measure_from_constant_times(
    tree: FilteredTree, z: AdaptedProcess
) -> Dict[Optional[int], Fraction]:
    """Unique kill-time law on a single-path tree, solved from constant times.

    It illustrates the uniqueness statement for a single path: when the
    outcome space is the original path and its killed truncations, the
    identities at the constant times alone determine the measure.

    On a chain the outcome space is {kill at 1..T} plus the surviving path,
    and the identities at the constant times t = 0..T form a triangular
    system: mass surviving past t must be E[Z_t], so the kill mass at t is
    the decrement E[Z_{t-1}] - E[Z_t] and the surviving mass is E[Z_T].
    Solving it is the independent uniqueness oracle for chains.
    """
    if len(tree.leaves) != 1:  # every leaf sits at the horizon
        raise ValueError("constant-time solve applies to single-path trees only")
    path = tree.path_to(tree.leaves[0])
    law: Dict[Optional[int], Fraction] = {}
    for t in range(1, tree.horizon + 1):
        law[t] = z[path[t - 1]] - z[path[t]]
    law[None] = z[path[tree.horizon]]
    return {k: v for k, v in law.items() if v != 0}
