"""Inner/outer content, one-set extension, dyadic representative measures."""

import itertools
import random
from fractions import Fraction

import pytest

from follmer_lab.measure_ext import (
    FiniteMeasurableSpace,
    bierlein_extend,
    default_dense_sequence,
    dyadic_demo,
    DyadicFamily,
    inner_content,
    outer_content,
)


def two_block_space():
    return FiniteMeasurableSpace.build(
        [["1", "2"], ["3", "4"]], [Fraction(1, 2), Fraction(1, 2)]
    )


def test_content_of_a_full_block():
    sp = two_block_space()
    assert outer_content(sp, ["1", "2"]) == Fraction(1, 2)
    assert inner_content(sp, ["1", "2"]) == Fraction(1, 2)


def test_content_of_diagonal_set():
    sp = two_block_space()
    # {1,3} meets both blocks but contains neither: enumerate the 4 unions
    assert outer_content(sp, ["1", "3"]) == 1
    assert inner_content(sp, ["1", "3"]) == 0


def test_content_of_empty_set():
    sp = two_block_space()
    assert outer_content(sp, []) == 0
    assert inner_content(sp, []) == 0


def test_extension_diagonal_example():
    sp = two_block_space()
    ext = bierlein_extend(sp, ["1", "3"])
    assert ext.measure(["1", "3"]) == 1
    # per-atom masses (1/2, 0, 1/2, 0): cover is the whole space
    assert ext.measure(["1"]) == Fraction(1, 2)
    assert ext.measure(["2"]) == 0
    assert ext.measure(["3"]) == Fraction(1, 2)
    assert ext.measure(["4"]) == 0


def test_extension_of_a_block_changes_nothing():
    sp = two_block_space()
    ext = bierlein_extend(sp, ["1", "2"])
    assert ext.measure(["1", "2"]) == Fraction(1, 2)
    assert ext.measure(["3", "4"]) == Fraction(1, 2)


def test_extension_with_collapsed_sandwich_is_forced():
    sp = FiniteMeasurableSpace.build(
        [["a"], ["b"], ["c"]], [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    )
    # A is already a block union: inner = outer, unique value
    assert inner_content(sp, ["a", "b"]) == outer_content(sp, ["a", "b"])
    ext = bierlein_extend(sp, ["a", "b"])
    assert ext.measure(["a", "b"]) == Fraction(2, 3)


def _random_space(rng):
    n_blocks = rng.randint(1, 4)
    atoms = [f"x{i}" for i in range(rng.randint(n_blocks, 10))]
    rng.shuffle(atoms)
    cuts = sorted(rng.sample(range(1, len(atoms)), n_blocks - 1)) if n_blocks > 1 else []
    blocks = []
    prev = 0
    for c in cuts + [len(atoms)]:
        blocks.append(atoms[prev:c])
        prev = c
    weights = [rng.randint(1, 9) for _ in blocks]
    total = sum(weights)
    return FiniteMeasurableSpace.build(blocks, [Fraction(w, total) for w in weights])


def test_sandwich_and_restriction_on_random_spaces():
    rng = random.Random(100)
    for _ in range(300):
        sp = _random_space(rng)
        a = [x for x in sp.atoms if rng.random() < 0.5]
        ext = bierlein_extend(sp, a)
        got = ext.measure(a)
        assert got == outer_content(sp, a)
        assert inner_content(sp, a) <= got
        for b, m in zip(sp.blocks, sp.mass):  # extension restricts to the base
            assert ext.measure(b) == m


def test_extension_additivity_exhaustive_small():
    rng = random.Random(101)
    for _ in range(40):
        sp = _random_space(rng)
        if len(sp.atoms) > 8:
            continue
        a = [x for x in sp.atoms if rng.random() < 0.5]
        ext = bierlein_extend(sp, a)
        pieces = ext.generated_atoms()
        # additivity over every union of generated atoms
        for r in range(len(pieces) + 1):
            for combo in itertools.combinations(pieces, r):
                union = frozenset().union(*combo) if combo else frozenset()
                total = sum((ext.piece_mass[p] for p in combo), Fraction(0))
                assert ext.measure(union) == total


def test_dense_sequence_enumerates_lowest_terms():
    seq = default_dense_sequence(8)
    assert seq[:6] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 4),
    ]


def test_dyadic_level_one_uniform():
    rep = dyadic_demo(1, [Fraction(1, 2), Fraction(1, 2)])
    lv = rep.levels[0]
    # two representatives, one per half, each carrying mass 1/2
    assert lv.agrees_on_level_algebra
    assert lv.representative_set_mass == 1
    fam = DyadicFamily(1, [Fraction(1, 2), Fraction(1, 2)])
    assert fam.level_measure_of_points(1, [fam.reps[1][0]]) == Fraction(1, 2)


def test_dyadic_first_half_is_level_measurable():
    fam = DyadicFamily(3, [Fraction(1, 8)] * 8)
    for n in range(1, 4):
        assert fam.level_measure_of_dyadic(n, 1, 0) == Fraction(1, 2)


def test_dyadic_representative_set_has_full_mass_all_levels():
    rng = random.Random(9)
    weights = [Fraction(rng.randint(1, 5), 1) for _ in range(2**4)]
    total = sum(weights)
    weights = [w / total for w in weights]
    rep = dyadic_demo(4, weights)
    assert rep.ok
    for lv in rep.levels:
        assert lv.representative_set_mass == 1


def test_dyadic_rejects_representative_outside_interval():
    with pytest.raises(ValueError):
        # picks outside (0, 1/2] for the first interval: no first hit exists
        DyadicFamily(1, [Fraction(1, 2), Fraction(1, 2)], dense_picks=[Fraction(3, 4)])


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasurableSpace.build([["a"], ["a", "b"]], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        FiniteMeasurableSpace.build([["a"], ["b"]], [Fraction(1, 2), Fraction(1, 3)])
