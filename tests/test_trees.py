"""Tree engine: cylinder probabilities, supermartingale checks, stopping times.

Expected values in the point tests were computed by hand enumeration of the
leaves of the tiny trees involved.
"""

import json
import random
from fractions import Fraction

import pytest

from follmer_lab.corpus import binary_example, random_case, unary_chain
from follmer_lab.errors import EnumerationCapError, TreeValidationError
from follmer_lab.trees import (
    AdaptedProcess,
    FilteredTree,
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_times,
    frac_str,
    is_supermartingale,
    one_step_expectation,
)


def check_antichain(tree, st):
    """ValueError when one stop node of ``st`` lies below another."""
    for n in st.nodes:
        anc = tree.parent[n]
        while anc is not None:
            if anc in st.nodes:
                raise ValueError(f"stop nodes {anc!r} and {n!r} violate the antichain property")
            anc = tree.parent[anc]


def test_cylinder_probabilities_sum_to_one():
    rng = random.Random(13)
    for _ in range(50):
        tree, _ = random_case(rng)
        for t in range(tree.horizon + 1):
            total = sum(tree.path_prob[n] for n in tree.nodes_at_depth(t))
            assert total == 1


def test_supermartingale_constant_one_is_martingale():
    tree, _ = binary_example()
    rep = is_supermartingale(tree, AdaptedProcess(dict.fromkeys(tree.iter_nodes(), Fraction(1))))
    assert rep.ok and rep.is_martingale


def test_supermartingale_binary_example():
    tree, z = binary_example()
    rep = is_supermartingale(tree, z)
    assert rep.ok and not rep.is_martingale  # one-step mean 7/8 < 1


def test_supermartingale_violation_detected_at_root():
    tree, _ = binary_example()
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(3, 4)})
    rep = is_supermartingale(tree, z)  # mean 9/8 > 1
    assert not rep.ok
    assert rep.first_violation_node == "r"


def test_supermartingale_requires_unit_start():
    tree, _ = binary_example()
    z = AdaptedProcess({"r": Fraction(2), "u": Fraction(1), "d": Fraction(1)})
    rep = is_supermartingale(tree, z)
    assert not rep.ok and rep.first_violation_node == "r"


def test_negative_value_rejected():
    tree, _ = binary_example()
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(-1, 4), "d": Fraction(1)})
    assert not is_supermartingale(tree, z).ok


def test_enumeration_binary_depth_one():
    tree, _ = binary_example()
    sts = enumerate_stopping_times(tree)
    # hand enumeration: never, {root}, {u}, {d}, {u, d}
    assert len(sts) == 5
    seen = {st.nodes for st in sts}
    assert frozenset() in seen
    assert frozenset({"r"}) in seen
    assert frozenset({"u", "d"}) in seen
    assert frozenset({"u"}) in seen and frozenset({"d"}) in seen


def test_enumeration_degenerate_and_chain():
    tree0 = FilteredTree(0, [{"id": "r", "parent": None}])
    assert len(enumerate_stopping_times(tree0)) == 2
    # the 1200-node chain is deeper than Python's default recursion limit
    for length, count in ((3, 4), (1200, 1201)):
        chain, _ = unary_chain([1] * length)
        assert len(enumerate_stopping_times(chain)) == count


def test_enumeration_matches_count_formula():
    rng = random.Random(3)
    for _ in range(40):
        tree, _ = random_case(rng)
        sts = enumerate_stopping_times(tree)
        assert len(sts) == count_stopping_times(tree)
        assert len({st.nodes for st in sts}) == len(sts)  # duplicate-free
        for st in sts:
            check_antichain(tree, st)


def test_enumeration_cap_refusal_names_the_count():
    rng = random.Random(5)
    tree, _ = random_case(rng)
    count = count_stopping_times(tree)
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_stopping_times(tree, cap=count - 1)
    assert str(count) in str(exc.value)


def test_enumeration_cap_refusal_prints_huge_counts():
    # past Python's default 4300-digit limit str(count) raises; the message must not
    msg = str(EnumerationCapError(3**10000, 10**6))
    assert "2^15849+ stopping times" in msg


def test_antichain_validation():
    tree, _ = binary_example()
    bad = StoppingTime(frozenset({"r", "u"}))
    with pytest.raises(ValueError):
        check_antichain(tree, bad)


def test_tree_validation_errors():
    with pytest.raises(TreeValidationError):
        FilteredTree(
            1,
            [
                {"id": "r", "parent": None},
                {"id": "a", "parent": "r", "prob": "1/2"},
                {"id": "b", "parent": "r", "prob": "1/3"},
            ],
        )
    with pytest.raises(TreeValidationError):
        FilteredTree(
            1,
            [
                {"id": "r", "parent": None},
                {"id": "a", "parent": "r", "prob": "0/1"},
                {"id": "b", "parent": "r", "prob": "1/1"},
            ],
        )
    with pytest.raises(TreeValidationError):  # leaf short of the horizon
        FilteredTree(2, [{"id": "r", "parent": None}, {"id": "a", "parent": "r", "prob": "1/1"}])


def test_json_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(23)
    tree, z = random_case(rng)
    path = tmp_path / "tree.json"
    tree.to_json(str(path), z)
    tree2, z2 = FilteredTree.from_json(str(path))
    assert tree2.horizon == tree.horizon
    assert set(tree2.iter_nodes()) == set(tree.iter_nodes())
    for n in tree.iter_nodes():
        assert tree2.prob[n] == tree.prob[n]
        assert z2[n] == z[n]
    # serializing again reproduces the same bytes
    path2 = tmp_path / "tree2.json"
    tree2.to_json(str(path2), z2)
    assert path.read_bytes() == path2.read_bytes()


def test_rational_strings_are_decimal_free():
    assert frac_str(Fraction(7, 8)) == "7/8"
    assert Fraction("7/8") == Fraction(7, 8)


def test_one_step_expectation_matches_definition():
    tree, z = binary_example()
    assert one_step_expectation(tree, z, "r") == Fraction(7, 8)
