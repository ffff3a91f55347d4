"""Announced-jump smoothing of the additive drift: hand oracles + limit checks.

Threshold note: a drop qualifies when it is <= -1/i, so the chain with a
single -1/2 drop needs i >= 2 to trigger the smoothing.

The golden digests pin every output field, value types included, on a
seeded corpus; they were recorded from the implementation that also took
an announce lag, restricted to lag 1 (an announcement one step before the
jump), which is the announcement every smoothing now makes.  Three
independent oracles check the outputs: the pair's sum along each path
against a brute-force conditional expectation, the node-valued martingale
part against its own one-step means, and the node-valued drift against
the closed form (D moved one step early at each announcing node).
"""

import random
from dataclasses import astuple
from fractions import Fraction
from hashlib import sha256

import pytest

from follmer_lab.corpus import random_case, unary_chain
from follmer_lab.decompositions import doob_meyer, left_limit_smoothing
from follmer_lab.trees import FilteredTree, AdaptedProcess, one_step_expectation


def test_no_qualifying_jumps_is_identity():
    chain, z = unary_chain([1, 1, Fraction(1, 2)])
    add = doob_meyer(chain, z)
    sm = left_limit_smoothing(chain, z, i=1)  # threshold -1: no jumps
    assert sm.jump_times == {"n2": []}
    for n in chain.iter_nodes():
        assert sm.martingale[n] == add.martingale[n]
        t = chain.depth[n]
        assert sm.drift_path["n2"][t] == add.drift.value_on(chain, n)
    assert sm.limit_report.ok


def test_halving_chain_hand_values():
    # Z = (1, 1, 1/2): drift (0, 0, -1/2); the -1/2 drop at t=2 qualifies at i=2
    chain, z = unary_chain([1, 1, Fraction(1, 2)])
    sm = left_limit_smoothing(chain, z, i=2)
    assert sm.jump_times == {"n2": [2]}
    # hand evaluation of the two displayed sums with announce time 1:
    # smoothed martingale stays at 1; smoothed drift is -1/2 from time 1 on
    assert sm.martingale_path["n2"] == [1, 1, 1]
    assert sm.drift_path["n2"] == [0, Fraction(-1, 2), Fraction(-1, 2)]
    # at rho = 2 the reached value is M_2 + D^{s}_{1} = 1 - 1/2 = 1/2 = Z_2
    assert sm.martingale_path["n2"][2] + sm.drift_path["n2"][1] == Fraction(1, 2)
    # at rho = 1 the reached value is M_1 + D^{s}_{0} = 1 + 0 = 1
    assert sm.martingale_path["n2"][1] + sm.drift_path["n2"][0] == 1
    assert sm.limit_report.ok
    assert sm.limit_report.stuck == 0
    assert sm.limit_report.equal == sm.limit_report.positions


def test_smoothing_reaches_target_on_random_trees():
    rng = random.Random(31)
    for _ in range(60):
        tree, z = random_case(rng, max_depth=3, max_branching=2)
        for i in (1, 2, 3):
            sm = left_limit_smoothing(tree, z, i=i)
            assert sm.limit_report.ok, sm.limit_report.mismatches
            # every non-stuck position is exact
            assert (
                sm.limit_report.equal
                >= sm.limit_report.positions - sm.limit_report.stuck
            )


def test_smoothed_pair_sums_to_conditional_patch():
    # M^s + D^s equals Z outside announce windows and, inside a window,
    # the conditional expectation of Z at the announced jump time.
    chain, z = unary_chain([1, Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)])
    sm = left_limit_smoothing(chain, z, i=2)  # jump at t=2, announced at 1
    sums = [
        sm.martingale_path["n3"][t] + sm.drift_path["n3"][t] for t in range(4)
    ]
    assert sums[0] == z["n0"]  # before the announce: Z itself
    assert sums[1] == Fraction(1, 4)  # inside the window: E[Z at the jump | F_1]
    assert sums[2] == z["n2"]  # from the jump on: Z again
    assert sums[3] == z["n3"]


def test_consecutive_jumps_are_reported_stuck():
    # drops of -1/2 at t=1 and t=2: the second announce clamps onto the jump
    chain, z = unary_chain([1, Fraction(1, 2), Fraction(1, 8)])
    sm = left_limit_smoothing(chain, z, i=4)
    assert sm.jump_times == {"n2": [1, 2]}
    assert sm.limit_report.stuck > 0
    assert sm.limit_report.ok  # stuck positions are excluded from the guarantee


def test_branching_tree_with_random_jump_paths():
    # jumps qualifying on one branch only; exactness across the tree
    tree = FilteredTree(
        2,
        [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2"},
            {"id": "b", "parent": "r", "prob": "1/2"},
            {"id": "aa", "parent": "a", "prob": "1/1"},
            {"id": "ba", "parent": "b", "prob": "1/2"},
            {"id": "bb", "parent": "b", "prob": "1/2"},
        ],
    )
    z = AdaptedProcess(
        {
            "r": Fraction(1),
            "a": Fraction(3, 2),
            "b": Fraction(1, 2),
            "aa": Fraction(3, 4),  # halving drop on the a-branch
            "ba": Fraction(3, 4),
            "bb": Fraction(1, 4),
        }
    )
    sm = left_limit_smoothing(tree, z, i=2)
    assert sm.limit_report.ok, sm.limit_report.mismatches


def test_invalid_threshold_rejected():
    chain, z = unary_chain([1, 1])
    with pytest.raises(ValueError):
        left_limit_smoothing(chain, z, i=0)


def corpus_smoothings(n_trees=100, seed=909):
    """(tree, z, i, smoothing) over seeded corpus trees x i in 1..4."""
    rng = random.Random(seed)
    for _ in range(n_trees):
        tree, z = random_case(rng, max_depth=4, max_branching=3)
        for i in (1, 2, 3, 4):
            yield tree, z, i, left_limit_smoothing(tree, z, i=i)


def _folded(proc):
    return sorted(proc.values.items())


def smoothing_digests():
    """One sha256 per output group; reprs keep Fraction, int and bool apart."""
    groups = {"paths": [], "folds": [], "report": []}
    for _, _, i, sm in corpus_smoothings():
        groups["paths"].append(
            (
                i,
                sorted(sm.martingale_path.items()),
                sorted(sm.drift_path.items()),
                sorted(sm.jump_times.items()),
            )
        )
        groups["folds"].append((_folded(sm.martingale), _folded(sm.drift_adapted)))
        groups["report"].append(astuple(sm.limit_report))
    return {k: sha256(repr(v).encode()).hexdigest() for k, v in groups.items()}


GOLDEN = {
    "paths": "a87bd59d174b0c543b5f03ebfca45698944154b24158ef96c6b12fecb8773570",
    "folds": "3e0b6c2510a05ef9e8fb988b55f015108e5e1668b5040bcf0ffb7ba2c2ea69ad",
    "report": "0469e2fed2d012d1668126ecd77ad20d6e99efc479723254d6ff706656ee185d",
}


def test_smoothing_outputs_match_golden_digests():
    assert smoothing_digests() == GOLDEN


def leaves_under(tree, n):
    """The leaves whose path passes through ``n``."""
    return [leaf for leaf in tree.leaves if tree.ancestor_at(leaf, tree.depth[n]) == n]


def test_smoothed_sum_is_the_windowed_conditional_expectation():
    # inside the k-th window [a_k, sigma_k) of a path, M^s_t + D^s_t is
    # E[Z_{sigma_k} 1{sigma_k exists} | F_t], averaged by brute force over
    # the leaves below the time-t node; outside every window it is Z_t
    for tree, z, i, sm in corpus_smoothings(n_trees=60):
        add = doob_meyer(tree, z)
        sigmas = {}
        for leaf in tree.leaves:
            d = [add.drift.value_on(tree, n) for n in tree.path_to(leaf)]
            sigmas[leaf] = [
                t for t in range(1, tree.horizon + 1)
                if d[t] - d[t - 1] <= -Fraction(1, i)
            ]
        assert sm.jump_times == sigmas

        def at_kth_jump(leaf, k):
            return z[tree.ancestor_at(leaf, sigmas[leaf][k])] if k < len(sigmas[leaf]) else 0

        for leaf in tree.leaves:
            starts = [
                max(s - 1, (sigmas[leaf][k - 1] if k else 0) + 1)
                for k, s in enumerate(sigmas[leaf])
            ]
            for t, n in enumerate(tree.path_to(leaf)):
                window = [
                    k for k, s in enumerate(sigmas[leaf]) if starts[k] <= t < s
                ]
                assert len(window) <= 1  # the windows are disjoint
                if window:
                    below = leaves_under(tree, n)
                    expected = sum(
                        (tree.path_prob[m] * at_kth_jump(m, window[0]) for m in below),
                        Fraction(0),
                    ) / tree.path_prob[n]
                else:
                    expected = z[n]
                assert sm.martingale_path[leaf][t] + sm.drift_path[leaf][t] == expected


def test_fold_is_a_martingale():
    for tree, _, _, sm in corpus_smoothings(n_trees=60):
        for n in tree.iter_nodes():
            if tree.children[n]:
                assert one_step_expectation(tree, sm.martingale, n) == sm.martingale[n]


def test_closed_form_moves_only_announced_drops():
    # M^s is M; D^s is D except at an announcing node (internal, not the
    # root, no qualifying drop landing on it, the drop to its children
    # <= -1/i), where it takes the children's value one step early
    announced = 0
    for tree, z, i, sm in corpus_smoothings(n_trees=60):
        add = doob_meyer(tree, z)
        assert sm.martingale == add.martingale
        threshold = -Fraction(1, i)
        announcing = set()
        for n in tree.iter_nodes():
            par = tree.parent[n]
            if tree.is_leaf(n) or par is None:
                continue
            d_n = add.drift.value_on(tree, n)
            landed = d_n - add.drift.value_on(tree, par) <= threshold
            if not landed and add.drift.steps[n] - d_n <= threshold:
                announcing.add(n)
        for n in tree.iter_nodes():
            expected = add.drift.steps[n] if n in announcing else add.drift.value_on(tree, n)
            assert sm.drift_adapted[n] == expected
        moved = {n for n in tree.iter_nodes() if sm.drift_adapted[n] != add.drift.value_on(tree, n)}
        assert moved == announcing
        announced += len(announcing)
    assert announced > 0
