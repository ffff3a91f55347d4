"""Inner/outer content, one-set extension, dyadic representative measures."""

import itertools
import random
from fractions import Fraction

import pytest

from follmer_lab.measure_ext import (
    FiniteMeasurableSpace,
    bierlein_extend,
    _representative,
    dyadic_demo,
    outer_content,
)


def inner_content(space, a):
    """Maximal mass of a block-union inside ``a``: blocks contained in ``a``."""
    a = set(a)
    return sum((m for b, m in zip(space.blocks, space.mass) if b <= a), Fraction(0))


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
    assert ext == sp
    with pytest.raises(ValueError, match="not a union of blocks"):
        ext.measure(["1"])


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
        piece_mass = dict(zip(ext.blocks, ext.mass))
        # additivity over every union of generated atoms
        for r in range(len(piece_mass) + 1):
            for combo in itertools.combinations(piece_mass, r):
                union = frozenset().union(*combo) if combo else frozenset()
                total = sum((piece_mass[p] for p in combo), Fraction(0))
                assert ext.measure(union) == total


def test_dyadic_representatives_have_the_smallest_denominator():
    # brute force: scan denominators upward, numerators upward within each
    for n in range(1, 7):
        for k in range(2**n):
            lo, hi = Fraction(k, 2**n), Fraction(k + 1, 2**n)
            expected = next(
                Fraction(p, q)
                for q in itertools.count(1)
                for p in range(1, q + 1)
                if lo < Fraction(p, q) <= hi
            )
            assert _representative(n, k) == expected


def reps(n):
    """The level-n representatives, one per level-n interval."""
    return [_representative(n, k) for k in range(2**n)]


def interval_weight(weights, n, k):
    """Reference mass of the level-n interval k: the sum of its slice of the finest weights."""
    span = len(weights) // 2**n
    return sum(weights[k * span : (k + 1) * span], Fraction(0))


def level_measure_of_points(weights, n, points):
    """Brute force: the level-n mass of a set of points, one scan of the representatives."""
    pts = {Fraction(p) for p in points}
    return sum(
        (interval_weight(weights, n, k) for k, rep in enumerate(reps(n)) if rep in pts),
        Fraction(0),
    )


def level_measure_of_dyadic(weights, n, level, k):
    """Brute force: the level-n mass of the dyadic interval (k 2^-level, (k+1) 2^-level]."""
    assert level <= n
    lo, hi = Fraction(k, 2**level), Fraction(k + 1, 2**level)
    return sum(
        (interval_weight(weights, n, j) for j, rep in enumerate(reps(n)) if lo < rep <= hi),
        Fraction(0),
    )


def test_dyadic_level_one_uniform():
    weights = [Fraction(1, 2), Fraction(1, 2)]
    rep = dyadic_demo(1, weights)
    lv = rep.levels[0]
    # two representatives, one per half, each carrying mass 1/2
    assert lv.agrees_on_level_algebra
    assert lv.representative_set_mass == 1
    assert level_measure_of_points(weights, 1, [reps(1)[0]]) == Fraction(1, 2)


def test_dyadic_first_half_is_level_measurable():
    weights = [Fraction(1, 8)] * 8
    for n in range(1, 4):
        assert level_measure_of_dyadic(weights, n, 1, 0) == Fraction(1, 2)


def _weights_with_zeros(rng, n_max):
    w = [rng.choice([0, 0, 1, 2, 5]) for _ in range(2**n_max)]
    w[rng.randrange(len(w))] += 1  # at least one positive weight
    return [Fraction(x, sum(w)) for x in w]


def test_dyadic_demo_agrees_with_the_interval_scan():
    # the scan the demo replaces: every dyadic interval of every level <= n
    # against every level-n representative
    rng = random.Random(34)
    for n_max in range(1, 7):
        for weights in ([Fraction(1, 2**n_max)] * 2**n_max, *(_weights_with_zeros(rng, n_max) for _ in range(4))):
            all_reps = {r for n in range(1, n_max + 1) for r in reps(n)}
            rep = dyadic_demo(n_max, weights)
            assert len(rep.levels) == n_max
            for n, lv in enumerate(rep.levels, 1):
                agrees = all(
                    level_measure_of_dyadic(weights, n, level, k) == interval_weight(weights, level, k)
                    for level in range(1, n + 1)
                    for k in range(2**level)
                )
                assert agrees and lv.agrees_on_level_algebra
                assert lv.representative_set_mass == level_measure_of_points(weights, n, all_reps) == 1
            assert rep.ok


def test_dyadic_representative_set_has_full_mass_all_levels():
    rng = random.Random(9)
    weights = [Fraction(rng.randint(1, 5), 1) for _ in range(2**4)]
    total = sum(weights)
    weights = [w / total for w in weights]
    rep = dyadic_demo(4, weights)
    assert rep.ok
    for lv in rep.levels:
        assert lv.representative_set_mass == 1


@pytest.mark.parametrize(
    "n_max, weights, named",
    [
        (0, [1], "need n_max >= 1"),
        (2, [Fraction(1, 2)] * 2, "need 4 interval weights at level 2, got 2"),
        (1, [Fraction(3, 2), Fraction(-1, 2)], "weights must be a probability vector"),
        (1, [Fraction(1, 2), Fraction(1, 3)], "weights must be a probability vector"),
    ],
)
def test_dyadic_demo_refuses_bad_weights(n_max, weights, named):
    with pytest.raises(ValueError, match=named):
        dyadic_demo(n_max, weights)


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasurableSpace.build([["a"], ["a", "b"]], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        FiniteMeasurableSpace.build([["a"], ["b"]], [Fraction(1, 2), Fraction(1, 3)])
