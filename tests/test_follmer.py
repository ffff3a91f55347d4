"""Föllmer pair construction, Kunita-Yoeurp verification, uniqueness diagnostics.

Point expectations come from enumerating (leaf, quantile-interval) outcomes
by hand on the tiny trees involved.
"""

import random
from fractions import Fraction

import pytest

from follmer_lab.corpus import binary_example, random_case, unary_chain
from follmer_lab.errors import FreezeTargetError, MartingaleWitnessError
from follmer_lab.follmer import (
    CEMETERY,
    ExtendedOutcome,
    FollmerPair,
    chain_measure_from_constant_times,
    construct_follmer,
    nonuniqueness_witness,
    tau_hat,
    total_variation,
    uniqueness_report,
    verify_ky,
    verify_ky_all,
)
from follmer_lab.trees import AdaptedProcess, FilteredTree, StoppingTime


def test_binary_masses_by_hand_enumeration():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    # kill at 1 with history root: 1 * 1 * (1 - 7/8) = 1/8
    assert pair.outcomes[ExtendedOutcome("r", 1, CEMETERY)] == Fraction(1, 8)
    # alive leaves: P * Z_T = (3/4, 1/8)
    assert pair.outcomes[ExtendedOutcome("u", None, None)] == Fraction(3, 4)
    assert pair.outcomes[ExtendedOutcome("d", None, None)] == Fraction(1, 8)
    assert pair.total_mass() == 1
    assert pair.killed_mass() == Fraction(1, 8)


def test_martingale_loses_no_mass():
    rng = random.Random(6)
    tree, z = random_case(rng, martingale=True)
    pair = construct_follmer(tree, z)
    assert pair.killed_mass() == 0
    for leaf in tree.leaves:
        expected = tree.path_prob[leaf] * z[leaf]
        got = pair.outcomes.get(ExtendedOutcome(leaf, None, None), Fraction(0))
        assert got == expected


def test_halving_chain_masses():
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 2)])
    pair = construct_follmer(chain, z)
    assert pair.outcomes[ExtendedOutcome("n0", 1, CEMETERY)] == Fraction(1, 2)
    assert pair.outcomes[ExtendedOutcome("n2", None, None)] == Fraction(1, 2)
    assert len(pair.outcomes) == 2  # no mass lost at t=2


def test_verify_ky_binary_atoms():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    rep1 = verify_ky(pair, tree, z, StoppingTime.constant(tree, 1))
    assert rep1.ok
    by_atom = {r.atom_node: r for r in rep1.rows}
    assert by_atom["u"].lhs == Fraction(3, 4) and by_atom["u"].rhs == Fraction(3, 4)
    rep0 = verify_ky(pair, tree, z, StoppingTime.constant(tree, 0))
    assert rep0.ok and rep0.rows[0].lhs == 1  # E[Z_0] = 1 against full mass
    never = verify_ky(pair, tree, z, StoppingTime.never())
    assert never.ok
    assert all(r.lhs == 0 and r.rhs == 0 for r in never.rows)


def test_verify_ky_all_binary_passes_all_five():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    rep = verify_ky_all(pair, tree, z, collect_rows=True)
    assert rep.ok
    assert rep.n_stopping_times == 5


def test_corrupted_pair_detected_at_terminal_time():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    eps = Fraction(1, 100)
    outcomes = dict(pair.outcomes)
    outcomes[ExtendedOutcome("u", None, None)] += eps
    outcomes[ExtendedOutcome("d", None, None)] -= eps
    bad = FollmerPair(outcomes, CEMETERY)
    rep = verify_ky(bad, tree, z, StoppingTime.constant(tree, tree.horizon))
    assert not rep.ok
    assert rep.first_failure.atom_node in {"u", "d"}
    assert not verify_ky_all(bad, tree, z).ok


def test_tau_hat_unreachable_threshold_caps_at_horizon():
    chain, z = unary_chain([1, 2, 2])  # bounded by 2, not a supermartingale but
    # tau_hat only reads values
    rho = tau_hat(chain, z, 3)
    assert rho.nodes == frozenset({"n2"})  # constant min(3, T) = 2


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
    pair = construct_follmer(tree, z)
    rep = uniqueness_report(tree, z, pair)
    assert rep.is_martingale
    assert rep.mass_lost == 0
    assert rep.tau_lt_zeta_negligible
    assert rep.unique_measure_for_tau
    assert rep.unique_pair is True
    assert not rep.witness_available


def test_uniqueness_binary_cemetery_vs_freeze():
    tree, z = binary_example()
    cem = construct_follmer(tree, z, CEMETERY)
    rep = uniqueness_report(tree, z, cem)
    assert not rep.is_martingale
    assert rep.mass_lost == Fraction(1, 8)
    assert rep.tau_lt_zeta_negligible  # killed outcomes hit the cemetery
    assert rep.unique_measure_for_tau
    assert rep.unique_pair is False and rep.witness_available

    frozen = construct_follmer(tree, z, "u")
    rep2 = uniqueness_report(tree, z, frozen)
    assert not rep2.tau_lt_zeta_negligible  # frozen outcomes never die
    assert not rep2.unique_measure_for_tau


def test_witness_binary_total_variation():
    tree, z = binary_example()
    cem, frz, tv = nonuniqueness_witness(tree, z, "u")
    assert tv == Fraction(1, 8)  # the killed mass relocates wholesale
    assert verify_ky_all(cem, tree, z).ok
    assert verify_ky_all(frz, tree, z).ok
    # the kill-time laws coincide; only the target differs
    assert cem.kill_time_distribution() == frz.kill_time_distribution()


def test_witness_chain_with_fresh_symbol():
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 2)])
    cem, frz, tv = nonuniqueness_witness(chain, z, "x")
    assert tv == Fraction(1, 2)
    assert verify_ky_all(cem, chain, z).ok and verify_ky_all(frz, chain, z).ok


def test_witness_refuses_martingale():
    rng = random.Random(12)
    tree, z = random_case(rng, martingale=True)
    with pytest.raises(MartingaleWitnessError):
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
        construct_follmer(tree, z, "u")
    assert "aa" in str(exc.value)
    # a single final-instant visit is fine: d appears momentarily only on b-paths
    construct_follmer(tree, z, "w")  # fresh symbol always admissible


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
        law = pair.kill_time_distribution()
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


def test_pair_json_round_trip(tmp_path):
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    p = tmp_path / "pair.json"
    pair.to_json(str(p))
    again = FollmerPair.from_json(str(p))
    assert again.outcomes == pair.outcomes
    assert again.target == pair.target


def test_total_variation_is_half_l1():
    tree, z = binary_example()
    cem = construct_follmer(tree, z, CEMETERY)
    assert total_variation(cem, cem) == 0
