"""The per-node KY certificate and the weighted smoothing report against exhaustive oracles.

Both library checks rest on one argument: a stopping time's atoms are its
stop nodes, and what is compared at an atom does not depend on the stopping
time.  These tests enumerate every stopping time of small corpus trees and
recompute the verdicts and reports the slow way.
"""

import random
from dataclasses import replace
from fractions import Fraction

from follmer_lab.corpus import random_case
from follmer_lab.decompositions import doob_meyer, left_limit_smoothing
from follmer_lab.follmer import (
    construct_follmer,
    verify_ky,
    verify_ky_all,
    write_ky_ledger,
)
from follmer_lab.trees import count_stopping_times, enumerate_stopping_times


def _exhaustive(pair, tree, z):
    """(verdict, failing atom nodes) over every enumerated stopping time."""
    failing = set()
    for rho in enumerate_stopping_times(tree):
        rep = verify_ky(pair, tree, z, rho)
        failing |= {r.atom_node for r in rep.rows if not r.equal}
    return not failing, failing


def _with_mass_added(pair, added):
    """A copy of the pair with ``added[n]`` added to the mass at each node n."""
    killed, survivors = dict(pair.killed), dict(pair.survivors)
    for n, d in added.items():
        masses = killed if n in killed else survivors
        masses[n] += d
    return replace(pair, killed=killed, survivors=survivors)


def _variants(rng, pair):
    """The pair, the pair with mass moved between two outcomes, and one outcome's mass shifted."""
    yield "valid", pair
    # an outcome is its node, since killed and surviving masses sit at
    # different nodes; breadth-first, as the pair was built
    mass = {**pair.killed, **pair.survivors}
    keys = [n for n in pair.tree.iter_nodes() if n in mass]
    src = rng.choice(keys)
    yield "shifted", _with_mass_added(pair, {src: Fraction(1, 97)})
    if len(keys) > 1:
        dst = rng.choice([k for k in keys if k != src])
        eps = mass[src] / 3
        yield "moved", _with_mass_added(pair, {src: -eps, dst: eps})


def test_per_node_verdict_equals_exhaustive_verdict():
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        tree, z = random_case(rng)
        for kind, pair in _variants(rng, construct_follmer(tree, z)):
            ok, failing = _exhaustive(pair, tree, z)
            rep = verify_ky_all(pair, tree, z)
            assert {r.atom_node for r in rep.rows if not r.equal} == failing
            assert (rep.first_failure is None) == ok
            if kind != "shifted":  # moved mass keeps the outcome space valid
                assert rep.pair_problem is None
                assert rep.ok == ok
            else:
                assert rep.pair_problem is not None and not rep.ok
            seen.add((kind, ok))
    assert {("valid", True), ("moved", False), ("shifted", False)} <= seen


def test_stopping_time_count_is_exact():
    rng = random.Random(42)
    for _ in range(20):
        tree, z = random_case(rng)
        rep = verify_ky_all(construct_follmer(tree, z), tree, z)
        assert rep.n_stopping_times == count_stopping_times(tree)
        assert rep.n_stopping_times == len(enumerate_stopping_times(tree))


def test_ledger_has_one_row_per_node(tmp_path):
    rng = random.Random(43)
    for k in range(10):
        tree, z = random_case(rng)
        rep = verify_ky_all(construct_follmer(tree, z), tree, z)
        assert [r.atom_node for r in rep.rows] == list(tree.iter_nodes())
        assert all(r.rho_id == f"t{tree.depth[r.atom_node]}" for r in rep.rows)
        path = tmp_path / f"ledger{k}.csv"
        write_ky_ledger(rep, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "rho_id,atom_node,lhs,rhs,equal"
        assert len(lines) == 1 + len(tree.parent)


def leaves_under(tree, n):
    """The leaves whose path passes through ``n``."""
    return [leaf for leaf in tree.leaves if tree.ancestor_at(leaf, tree.depth[n]) == n]


def _smoothing_oracle(tree, z, i, sm):
    """The limit report recomputed position by position over every finite stopping time.

    The landing times of the qualifying drops come from ``doob_meyer``'s
    drift, not from the smoothing itself.
    """
    add = doob_meyer(tree, z)
    sigmas = {}
    for leaf in tree.leaves:
        d = [add.drift.value_on(tree, n) for n in tree.path_to(leaf)]
        sigmas[leaf] = [t for t in range(1, len(d)) if d[t] - d[t - 1] <= -Fraction(1, i)]

    def announce(leaf, k):
        prev = sigmas[leaf][k - 1] if k > 0 else 0
        return max(sigmas[leaf][k] - 1, prev + 1)

    counts = dict(positions=0, equal=0, guaranteed=0, guaranteed_equal=0, stuck=0)
    mismatches = set()
    for rho in enumerate_stopping_times(tree):
        if any(rho.nodes.isdisjoint(tree.path_to(leaf)) for leaf in tree.leaves):
            continue  # some leaf is never stopped
        for stop in rho.nodes:
            t = tree.depth[stop]
            for leaf in leaves_under(tree, stop):
                path = tree.path_to(leaf)
                prev = path[max(t - 1, 0)]
                jump = t in sigmas[leaf]
                target = add.martingale[stop] + add.drift.value_on(tree, stop if jump else prev)
                reached = sm.martingale_path[leaf][t] + sm.drift_path[leaf][max(t - 1, 0)]
                stuck = jump and announce(leaf, sigmas[leaf].index(t)) >= t
                guaranteed = not stuck
                counts["positions"] += 1
                counts["stuck"] += stuck
                counts["guaranteed"] += guaranteed
                counts["equal"] += reached == target
                counts["guaranteed_equal"] += guaranteed and reached == target
                if guaranteed and reached != target:
                    mismatches.add((stop, t, reached, target))
    return counts, mismatches


def test_smoothing_report_equals_enumeration_oracle():
    rng = random.Random(44)
    for _ in range(25):
        tree, z = random_case(rng, max_depth=3, max_branching=3)
        for i in (1, 2, 4):
            sm = left_limit_smoothing(tree, z, i=i)
            rep = sm.limit_report
            counts, mismatches = _smoothing_oracle(tree, z, i, sm)
            assert {k: getattr(rep, k) for k in counts} == counts
            assert set(rep.mismatches) == mismatches
            assert len(rep.mismatches) == len(mismatches)
            assert rep.ok == (not mismatches)
