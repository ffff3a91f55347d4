"""`uniqueness` and `witness` agree on every tree.

`witness <tree> x` (x a fresh symbol) exits 0 exactly when `uniqueness`
writes `witness_available: true`.  Where it does, both stored pairs satisfy
the Kunita-Yoeurp identity at every enumerated stopping time, not only at
the per-node certificate, and their total variation, recomputed below as
half the L1 distance over both pairs' outcomes, is the reported lost mass.
"""

import importlib.util
import json
import os
import random
from fractions import Fraction

import pytest

from follmer_lab.cli import main
from follmer_lab.corpus import binary_example, random_case, unary_chain
from follmer_lab.follmer import FollmerPair, verify_ky
from follmer_lab.trees import AdaptedProcess, FilteredTree, enumerate_stopping_times


def total_variation(p1, p2):
    """Half the L1 distance between two outcome measures, exactly."""
    zero = Fraction(0)
    keys = set(p1.outcomes) | set(p2.outcomes)
    return sum((abs(p1.outcomes.get(k, zero) - p2.outcomes.get(k, zero)) for k in keys), zero) / 2


def _bench_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs_agreement", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus(seed, martingale):
    return random_case(random.Random(seed), martingale=martingale)


def _bench_chain():
    inputs = _bench_inputs()
    tree = inputs.chain_tree(6)
    return tree, inputs.strict_supermartingale(random.Random(1), tree)


def _single_state_tree():
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None, "state": "s"},
            {"id": "u", "parent": "r", "prob": "1/2", "state": "s"},
            {"id": "d", "parent": "r", "prob": "1/2", "state": "s"},
        ],
    )
    return tree, AdaptedProcess({"r": Fraction(1), "u": Fraction(1), "d": Fraction(1, 2)})


CASES = {
    "corpus_martingale_1": lambda: _corpus(1, True),
    "corpus_martingale_2": lambda: _corpus(2, True),
    "corpus_strict_3": lambda: _corpus(3, False),
    "corpus_strict_4": lambda: _corpus(4, False),
    "corpus_strict_5": lambda: _corpus(5, False),
    "binary_example": binary_example,
    "bench_chain6": _bench_chain,
    "chain_1_half_quarter": lambda: unary_chain([1, Fraction(1, 2), Fraction(1, 4)]),
    "single_state_depth1": _single_state_tree,
}
# more seeded corpus trees; the strict generator loses no mass at seeds 19 and 29
for _seed in (7, 13):
    CASES[f"corpus_martingale_{_seed}"] = lambda s=_seed: _corpus(s, True)
for _seed in (7, 13, 19, 23, 29):
    CASES[f"corpus_strict_{_seed}"] = lambda s=_seed: _corpus(s, False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_uniqueness_and_witness_agree(tmp_path, name):
    tree, z = CASES[name]()
    tree_file = str(tmp_path / "tree.json")
    tree.to_json(tree_file, z)
    assert main(["uniqueness", tree_file, "--out", str(tmp_path / "u")]) == 0
    rep = json.loads((tmp_path / "u" / "uniqueness.json").read_text())
    assert rep["witness_available"] is (not rep["unique_pair"])

    wdir = tmp_path / "w"
    code = main(["witness", tree_file, "x", "--out", str(wdir)])
    assert code in (0, 2)
    assert (code == 0) is rep["witness_available"]
    if code != 0:
        assert Fraction(rep["mass_lost"]) == 0
        return

    cem = FollmerPair.from_json(str(wdir / "pair_cemetery.json"))
    frz = FollmerPair.from_json(str(wdir / "pair_freeze.json"))
    for rho in enumerate_stopping_times(tree):
        assert verify_ky(cem, tree, z, rho).ok
        assert verify_ky(frz, tree, z, rho).ok
    mass_lost = Fraction(rep["mass_lost"])
    assert mass_lost > 0
    assert total_variation(cem, frz) == mass_lost
    witness = json.loads((wdir / "witness.json").read_text())
    assert Fraction(witness["total_variation"]) == mass_lost
    assert (witness["pair_cemetery"], witness["pair_freeze"]) == ("pair_cemetery.json", "pair_freeze.json")
