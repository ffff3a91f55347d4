"""Additive/multiplicative decompositions: point oracles and exact invariants."""

import random
from fractions import Fraction

import pytest

from follmer_lab import trees
from follmer_lab.corpus import binary_example, random_case, unary_chain
from follmer_lab.decompositions import (
    doob_meyer,
    multiplicative,
    multiplicative_property_violations,
)
from follmer_lab.errors import NotSupermartingaleError
from follmer_lab.trees import AdaptedProcess, one_step_expectation, require_supermartingale


def test_doob_meyer_binary_example():
    tree, z = binary_example()
    dec = doob_meyer(tree, z)
    # hand recursion: D(1) = 0 + 7/8 - 1 = -1/8; M_1 = Z_1 + 1/8
    assert dec.drift.initial == 0
    assert dec.drift.steps["r"] == Fraction(-1, 8)
    assert dec.martingale["u"] == Fraction(13, 8)
    assert dec.martingale["d"] == Fraction(3, 8)


def test_doob_meyer_martingale_has_zero_drift():
    rng = random.Random(2)
    tree, z = random_case(rng, martingale=True)
    dec = doob_meyer(tree, z)
    assert dec.drift.initial == 0
    assert all(v == 0 for v in dec.drift.steps.values())
    assert dec.martingale.values == z.values


def test_doob_meyer_deterministic_halving_telescopes():
    # Z_t = (1/2)^t on a chain: D(t) = sum of the telescoping decrements
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    dec = doob_meyer(chain, z)
    d = [dec.drift.initial] + [dec.drift.steps[f"n{t}"] for t in range(3)]
    for t in range(1, 4):
        assert d[t] == Fraction(1, 2) ** t - 1
        assert dec.martingale[f"n{t}"] == z[f"n{t}"] - d[t]
        assert dec.martingale[f"n{t}"] == 1  # deterministic case: M stays at 1


def test_doob_meyer_rejects_non_supermartingale():
    tree, _ = binary_example()
    bad = AdaptedProcess({"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(3, 4)})
    with pytest.raises(NotSupermartingaleError):
        doob_meyer(tree, bad)


def test_multiplicative_binary_example():
    tree, z = binary_example()
    dec = multiplicative(tree, z)
    # D(1) = 7/8, M_1 = Z_1 * 8/7 = (12/7, 2/7), hand recursion
    assert dec.factor.initial == 1
    assert dec.factor.steps["r"] == Fraction(7, 8)
    assert dec.martingale["u"] == Fraction(12, 7)
    assert dec.martingale["d"] == Fraction(2, 7)
    assert not dec.rho0.nodes


def test_multiplicative_martingale_has_unit_factor():
    rng = random.Random(4)
    tree, z = random_case(rng, martingale=True)
    dec = multiplicative(tree, z)
    assert dec.factor.initial == 1
    assert all(v == 1 for v in dec.factor.steps.values())
    assert dec.martingale.values == z.values


def test_multiplicative_announced_zero_hit():
    chain, z = unary_chain([1, 1, 0])
    dec = multiplicative(chain, z)
    # one-step mean vanishes at t=1: factor drops to 0, martingale crosses at 1
    assert dec.rho0.nodes == frozenset({"n2"})
    assert dec.rho0_announced.nodes == frozenset({"n2"})
    assert not dec.rho0_surprise.nodes
    assert dec.factor.steps["n1"] == 0
    assert dec.martingale["n2"] == 1


def test_multiplicative_surprise_zero_hit():
    tree, _ = binary_example()
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(2), "d": Fraction(0)})
    dec = multiplicative(tree, z)
    assert dec.rho0.nodes == frozenset({"d"})
    assert dec.rho0_surprise.nodes == frozenset({"d"})
    assert not dec.rho0_announced.nodes
    assert dec.factor.steps["r"] == 1  # mean 1: martingale step
    assert dec.martingale["d"] == 0  # the martingale part jumps by surprise


def test_reconstruction_identities_on_random_corpus():
    rng = random.Random(99)
    for _ in range(200):
        tree, z = random_case(rng, max_depth=4, max_branching=3)
        add = doob_meyer(tree, z)
        mul = multiplicative(tree, z)
        for n in tree.iter_nodes():
            assert add.martingale[n] + add.drift.value_on(tree, n) == z[n]
            assert mul.martingale[n] * mul.factor.value_on(tree, n) == z[n]
        # additive drift nonincreasing along every path, martingale steps exact
        for n in tree.iter_nodes():
            if tree.is_leaf(n):
                continue
            assert add.drift.steps[n] <= add.drift.value_on(tree, n)
            assert one_step_expectation(tree, add.martingale, n) == add.martingale[n]


def test_multiplicative_martingale_before_first_zero():
    rng = random.Random(41)
    for _ in range(200):
        tree, z = random_case(rng)
        mul = multiplicative(tree, z)
        for n in tree.iter_nodes():
            if tree.is_leaf(n) or z[n] == 0:
                continue
            e = one_step_expectation(tree, mul.martingale, n)
            assert e == mul.martingale[n]
            # factor nonincreasing and sibling-constant by construction
            assert mul.factor.steps[n] <= mul.factor.value_on(tree, n)


def test_multiplicative_computed_pair_passes_all_properties():
    rng = random.Random(17)
    for _ in range(50):
        tree, z = random_case(rng)
        mul = multiplicative(tree, z)
        m_vals = dict(mul.martingale.values)
        d_vals = {n: mul.factor.value_on(tree, n) for n in tree.iter_nodes()}
        assert multiplicative_property_violations(tree, z, m_vals, d_vals) == []


def _perturb(rng, tree, z, m_vals, d_vals):
    """Random perturbation keeping everything else; returns modified copies."""
    m2, d2 = dict(m_vals), dict(d_vals)
    nodes = [n for n in tree.iter_nodes() if tree.parent[n] is not None]
    n = rng.choice(nodes)
    style = rng.randrange(3)
    c = Fraction(rng.randint(2, 5), rng.randint(6, 9))
    if style == 0:
        # rescale M and compensate D below n: keeps the product, breaks
        # martingale steps / predictability / monotonicity somewhere
        scale = 1 + c
        stack = [n]
        while stack:
            v = stack.pop()
            if d2[v] == 0 or z[v] == 0:
                m2[v] = m2[v] + 1  # degenerate branch: just break the product
            else:
                m2[v] = m2[v] * scale
                d2[v] = d2[v] / scale
            stack.extend(tree.children[v])
    elif style == 1:
        m2[n] = m2[n] + c  # breaks the product identity at n
    else:
        d2[n] = d2[n] + c  # breaks product or monotonicity or sibling-constancy
    return m2, d2


def test_perturbed_pairs_always_violate_some_property():
    rng = random.Random(2024)
    rejected = 0
    trials = 100
    for _ in range(trials):
        tree, z = random_case(rng)
        mul = multiplicative(tree, z)
        m_vals = dict(mul.martingale.values)
        d_vals = {n: mul.factor.value_on(tree, n) for n in tree.iter_nodes()}
        m2, d2 = _perturb(rng, tree, z, m_vals, d_vals)
        if (m2, d2) == (m_vals, d_vals):  # safety: perturbation must change something
            continue
        if multiplicative_property_violations(tree, z, m2, d2):
            rejected += 1
    assert rejected == trials


def test_a_broken_sibling_block_is_named_once():
    # D is not predictable under r: child a's factor differs from its two
    # siblings', though the product still equals Z everywhere
    tree = trees.FilteredTree(
        1,
        [{"id": "r", "parent": None}]
        + [{"id": c, "parent": "r", "prob": "1/3"} for c in "abc"],
    )
    z = AdaptedProcess({"r": Fraction(1), "a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1, 2)})
    mul = multiplicative(tree, z)
    m_vals = dict(mul.martingale.values)
    d_vals = {n: mul.factor.value_on(tree, n) for n in tree.iter_nodes()}
    d_vals["a"] /= 2
    m_vals["a"] *= 2
    problems = multiplicative_property_violations(tree, z, m_vals, d_vals)
    assert problems.count("factor not sibling-constant under 'r'") == 1
    assert "martingale step fails at 'r'" in problems
    assert not any("product" in p for p in problems)


def test_one_step_means_binary():
    tree, z = binary_example()
    assert require_supermartingale(tree, z) == {"r": Fraction(7, 8)}


def test_one_step_means_of_a_constant_are_its_value():
    rng = random.Random(8)
    tree, _ = random_case(rng)
    c = AdaptedProcess(dict.fromkeys(tree.iter_nodes(), Fraction(2, 7)))
    means = trees._one_step(tree, c)[0]
    assert list(means) == [n for n in tree.iter_nodes() if tree.children[n]]
    assert all(v is c.values[n] for n, v in means.items())
