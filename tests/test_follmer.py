"""Föllmer pair construction, Kunita-Yoeurp verification, uniqueness diagnostics.

Point expectations come from enumerating (leaf, quantile-interval) outcomes
by hand on the tiny trees involved.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from follmer_lab.corpus import binary_example, random_case, unary_chain
from follmer_lab.errors import FreezeTargetError
from follmer_lab.follmer import (
    CEMETERY,
    FollmerPair,
    _check_freeze_admissible,
    chain_measure_from_constant_times,
    construct_follmer,
    nonuniqueness_witness,
    tau_hat,
    uniqueness_report,
    verify_ky,
    verify_ky_all,
)
from follmer_lab.trees import AdaptedProcess, FilteredTree, StoppingTime


def kill_time_distribution(pair):
    """The pair's mass per kill time (None for the surviving outcomes)."""
    dist = {}
    for n, m in pair.killed.items():
        t = pair.tree.depth[n] + 1
        dist[t] = dist.get(t, Fraction(0)) + m
    if pair.survivors:
        dist[None] = sum(pair.survivors.values(), Fraction(0))
    return dist


def test_binary_masses_by_hand_enumeration():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    # kill at 1 with history root: 1 * 1 * (1 - 7/8) = 1/8
    assert pair.killed == {"r": Fraction(1, 8)}
    # alive leaves: P * Z_T = (3/4, 1/8)
    assert pair.survivors == {"u": Fraction(3, 4), "d": Fraction(1, 8)}
    assert pair.to_dict()["outcomes"] == [
        {"history_node": "r", "kill_time": 1, "target": CEMETERY, "mass": "1/8"},
        {"history_node": "d", "kill_time": "never", "target": None, "mass": "1/8"},
        {"history_node": "u", "kill_time": "never", "target": None, "mass": "3/4"},
    ]
    assert pair.total_mass() == 1
    assert pair.killed_mass() == Fraction(1, 8)


def test_martingale_loses_no_mass():
    rng = random.Random(6)
    tree, z = random_case(rng, martingale=True)
    pair = construct_follmer(tree, z)
    assert pair.killed_mass() == 0
    for leaf in tree.leaves:
        expected = tree.path_prob[leaf] * z[leaf]
        got = pair.survivors.get(leaf, Fraction(0))
        assert got == expected


def test_halving_chain_masses():
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 2)])
    pair = construct_follmer(chain, z)
    assert pair.killed == {"n0": Fraction(1, 2)}  # killed at 1; no mass lost at t=2
    assert pair.survivors == {"n2": Fraction(1, 2)}


def test_verify_ky_binary_atoms():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    rep1 = verify_ky(pair, tree, z, StoppingTime.constant(tree, 1))
    assert rep1.ok
    by_atom = {r.atom_node: r for r in rep1.rows}
    assert by_atom["u"].lhs == Fraction(3, 4) and by_atom["u"].rhs == Fraction(3, 4)
    rep0 = verify_ky(pair, tree, z, StoppingTime.constant(tree, 0))
    assert rep0.ok and rep0.rows[0].lhs == 1  # E[Z_0] = 1 against full mass
    never = verify_ky(pair, tree, z, StoppingTime(frozenset()))
    assert never.ok
    assert all(r.lhs == 0 and r.rhs == 0 for r in never.rows)


def test_verify_ky_all_binary_passes_all_five():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    rep = verify_ky_all(pair, tree, z)
    assert rep.ok
    assert rep.n_stopping_times == 5


def test_corrupted_pair_detected_at_terminal_time():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    eps = Fraction(1, 100)
    survivors = dict(pair.survivors)
    survivors["u"] += eps
    survivors["d"] -= eps
    bad = replace(pair, survivors=survivors)
    rep = verify_ky(bad, tree, z, StoppingTime.constant(tree, tree.horizon))
    assert not rep.ok
    assert rep.first_failure.atom_node in {"u", "d"}
    assert not verify_ky_all(bad, tree, z).ok


def test_negative_mass_of_an_in_memory_pair_is_named():
    # a pair file's negative rows are the reader's to report; a pair built in
    # memory is checked on its maps, killed masses first
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    negative = replace(pair, survivors={"u": Fraction(9, 8), "d": Fraction(-1, 4)})
    rep = verify_ky_all(negative, tree, z)
    assert not rep.ok
    assert rep.pair_problem == "outcome (history d, kill time never, target None) has negative mass -1/4"
    both = replace(negative, killed={"r": Fraction(-1, 8)})
    assert verify_ky_all(both, tree, z).pair_problem == (
        "outcome (history r, kill time 1, target cemetery) has negative mass -1/8"
    )


def test_tau_hat_unreachable_threshold_caps_at_horizon():
    chain, z = unary_chain([1, 2, 2])  # bounded by 2, not a supermartingale but
    # tau_hat only reads values
    rho = tau_hat(chain, z, 3)
    assert rho.nodes == frozenset({"n2"})  # constant min(3, T) = 2
    # deeper than Python's default recursion limit
    chain, z = unary_chain([1] * 1200)
    assert tau_hat(chain, z, 5000).nodes == frozenset({"n1199"})


def test_tau_hat_stops_at_root_at_level_one():
    tree, z = binary_example()
    rho = tau_hat(tree, z, 1)
    assert rho.nodes == frozenset({"r"})  # Z_0 = 1 >= 1


def test_tau_hat_mixed_crossing_and_cap():
    tree = FilteredTree(
        2,
        [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2"},
            {"id": "b", "parent": "r", "prob": "1/2"},
            {"id": "aa", "parent": "a", "prob": "1/1"},
            {"id": "ba", "parent": "b", "prob": "1/1"},
        ],
    )
    z = AdaptedProcess(
        {
            "r": Fraction(1),
            "a": Fraction(5, 2),
            "b": Fraction(1, 4),
            "aa": Fraction(5, 2),
            "ba": Fraction(1, 4),
        }
    )
    rho = tau_hat(tree, z, 2)
    # crosses 2 at the up node at t=1; capped at t = min(2, T) = 2 below
    assert rho.nodes == frozenset({"a", "ba"})


def test_uniqueness_martingale_verdict():
    rng = random.Random(10)
    tree, z = random_case(rng, martingale=True)
    assert uniqueness_report(tree, z) == 0


def test_uniqueness_binary_cemetery_vs_freeze():
    tree, z = binary_example()
    lost = uniqueness_report(tree, z)
    assert lost == Fraction(1, 8)
    # the lost mass is the same whichever target the killed outcomes go to
    cem, frz, _ = nonuniqueness_witness(tree, z, "u")
    assert cem.target == CEMETERY and cem.killed_mass() == lost
    assert frz.target == "u" and frz.killed_mass() == lost


def test_witness_binary_total_variation():
    tree, z = binary_example()
    cem, frz, tv = nonuniqueness_witness(tree, z, "u")
    assert tv == Fraction(1, 8)  # the killed mass relocates wholesale
    assert verify_ky_all(cem, tree, z).ok
    assert verify_ky_all(frz, tree, z).ok
    # the kill-time laws coincide; only the target differs
    assert kill_time_distribution(cem) == kill_time_distribution(frz)


def test_witness_chain_with_fresh_symbol():
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 2)])
    cem, frz, tv = nonuniqueness_witness(chain, z, "x")
    assert tv == Fraction(1, 2)
    assert verify_ky_all(cem, chain, z).ok and verify_ky_all(frz, chain, z).ok


def test_witness_freeze_pair_is_the_constructed_freeze_pair():
    # the witness puts the cemetery pair's maps under x* instead of
    # constructing the freeze pair again: node by node, in order, the result
    # is construct_follmer's with the target x*, and an x* that
    # _check_freeze_admissible refuses is refused with its message
    rng = random.Random(18)
    cases = [binary_example()] + [random_case(rng) for _ in range(30)]
    compared = refused = 0
    for tree, z in cases:
        if construct_follmer(tree, z).killed_mass() == 0:
            continue
        for x_star in ("u", "x"):
            try:
                _check_freeze_admissible(tree, x_star)
            except FreezeTargetError as exc:
                with pytest.raises(FreezeTargetError) as got:
                    nonuniqueness_witness(tree, z, x_star)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            expected = replace(construct_follmer(tree, z), target=x_star)
            _, frz, _ = nonuniqueness_witness(tree, z, x_star)
            assert frz.target == expected.target == x_star
            assert list(frz.killed.items()) == list(expected.killed.items())
            assert list(frz.survivors.items()) == list(expected.survivors.items())
            assert frz == expected
            compared += 1
    assert compared >= 30 and refused >= 1


def test_witness_refuses_the_cemetery_as_freeze_state():
    tree, z = binary_example()
    with pytest.raises(FreezeTargetError, match="is the cemetery"):
        nonuniqueness_witness(tree, z, CEMETERY)


def test_witness_refuses_martingale():
    rng = random.Random(12)
    tree, z = random_case(rng, martingale=True)
    with pytest.raises(FreezeTargetError, match="martingale"):
        nonuniqueness_witness(tree, z, "x")


def test_freeze_refusal_cites_positive_duration_path():
    tree = FilteredTree(
        2,
        [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2", "state": "u"},
            {"id": "b", "parent": "r", "prob": "1/2", "state": "d"},
            {"id": "aa", "parent": "a", "prob": "1/1", "state": "u"},
            {"id": "ba", "parent": "b", "prob": "1/1", "state": "d"},
        ],
    )
    z = AdaptedProcess(
        {
            "r": Fraction(1),
            "a": Fraction(1),
            "b": Fraction(1),
            "aa": Fraction(1, 2),
            "ba": Fraction(1, 2),
        }
    )
    # the (r, a, aa) path sits at state u from time 1 through the horizon
    with pytest.raises(FreezeTargetError) as exc:
        nonuniqueness_witness(tree, z, "u")
    assert "aa" in str(exc.value)
    # a single final-instant visit is fine: d appears momentarily only on b-paths
    nonuniqueness_witness(tree, z, "w")  # fresh symbol always admissible


def test_chain_restricted_uniqueness_matches_triangular_solve():
    # on single-path trees the constant-time identities pin the measure down;
    # the constructed pair must be that unique solution (checked on chains up
    # to length 3 with several supermartingales)
    cases = [
        [1, Fraction(1, 2), Fraction(1, 2)],
        [1, Fraction(3, 4), Fraction(1, 4), Fraction(1, 8)],
        [1, 1, 0],
        [1, Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)],
    ]
    for values in cases:
        chain, z = unary_chain(values)
        pair = construct_follmer(chain, z)
        law = kill_time_distribution(pair)
        assert law == chain_measure_from_constant_times(chain, z)


def test_constant_times_imply_all_stopping_times_on_corpus():
    # passing at the constant times 0..T forces passing at every stopping
    # time: checked as an implication over a random corpus
    rng = random.Random(77)
    for _ in range(40):
        tree, z = random_case(rng)
        pair = construct_follmer(tree, z)
        consts_ok = all(
            verify_ky(pair, tree, z, StoppingTime.constant(tree, t)).ok
            for t in range(tree.horizon + 1)
        )
        assert consts_ok
        assert verify_ky_all(pair, tree, z).ok


def test_mass_conservation_on_corpus():
    rng = random.Random(55)
    for _ in range(60):
        tree, z = random_case(rng)
        pair = construct_follmer(tree, z)
        assert pair.total_mass() == 1
        ez_T = sum(
            (tree.path_prob[l] * z[l] for l in tree.leaves), Fraction(0)
        )
        assert pair.killed_mass() == 1 - ez_T


def freeze_pair(tree, z, target):
    """The pair of Z under any admissible target, a martingale's too."""
    pair = construct_follmer(tree, z)
    if target == CEMETERY:
        return pair
    _check_freeze_admissible(tree, target)
    return replace(pair, target=target)


def test_pair_json_round_trip(tmp_path):
    # the binary example and corpus trees, martingales among them, with the
    # cemetery, a fresh freeze symbol and a state of the tree as targets
    rng = random.Random(19)
    cases = [binary_example()] + [random_case(rng, martingale=k % 4 == 0) for k in range(24)]
    written = 0
    for k, (tree, z) in enumerate(cases):
        for target in (CEMETERY, "x", tree.state[tree.leaves[-1]]):
            try:
                pair = freeze_pair(tree, z, target)
            except FreezeTargetError:
                continue
            p, q = tmp_path / f"pair{k}.json", tmp_path / f"again{k}.json"
            pair.to_json(str(p))
            again = FollmerPair.from_json(str(p), tree)
            # equal trees, targets and maps, and no defect
            assert again == pair and again.defect is None
            again.to_json(str(q))
            assert q.read_bytes() == p.read_bytes()
            written += 1
    assert written >= 60
