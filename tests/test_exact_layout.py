"""Cached tree layout, memoised means, verdicts and survivor masses, exact sums.

Each cached or memoised quantity is compared with a from-scratch
computation: a breadth-first walk of the children lists, a one-step mean
summed term by term in ``Fraction`` arithmetic, the supermartingale check
written out directly and the Föllmer pair by the quantile-killing formula
of the multiplicative decomposition.  The golden digests pin the CLI
outputs on three seeded corpus trees byte for byte; they were recorded from
the implementation that recomputed every walk, check and survivor mass on
each call.
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256

import pytest

from follmer_lab import trees
from follmer_lab.cli import main
from follmer_lab.corpus import binary_example, random_case, random_supermartingale
from follmer_lab.decompositions import doob_meyer, multiplicative
from follmer_lab.errors import FreezeTargetError, NotSupermartingaleError
from follmer_lab.follmer import (
    CEMETERY,
    construct_follmer,
    nonuniqueness_witness,
    uniqueness_report,
    verify_ky,
    verify_ky_all,
)
from follmer_lab.trees import (
    AdaptedProcess,
    FilteredTree,
    StoppingTime,
    is_supermartingale,
    one_step_expectation,
    require_supermartingale,
)


def corpus(n, seed):
    rng = random.Random(seed)
    return [random_case(rng, martingale=k % 4 == 0) for k in range(n)]


def fresh_bfs(tree):
    """Node order and depths by a breadth-first walk of the children lists."""
    order, depth, frontier = [], {tree.root: 0}, [tree.root]
    while frontier:
        order += frontier
        nxt = []
        for n in frontier:
            for c in tree.children[n]:
                depth[c] = depth[n] + 1
                nxt.append(c)
        frontier = nxt
    return order, depth


def fraction_mean(tree, x, n):
    return sum((tree.prob[c] * x[c] for c in tree.children[n]), Fraction(0))


def reference_verdict(tree, z):
    """(ok, is_martingale, first_violation_node, reason), checked directly."""
    order, _ = fresh_bfs(tree)
    for n in order:
        if z[n] < 0:
            return (False, False, n, "negative value")
    if z[tree.root] != 1:
        return (False, False, tree.root, f"initial value {z[tree.root]} != 1")
    martingale = True
    for n in order:
        if not tree.children[n]:
            continue
        e = fraction_mean(tree, z, n)
        if e > z[n]:
            return (False, False, n, f"one-step mean {e} exceeds {z[n]}")
        martingale = martingale and e == z[n]
    return (True, martingale, None, None)


def verdict_fields(rep):
    return (rep.ok, rep.is_martingale, rep.first_violation_node, rep.reason)


# -- cached layout --------------------------------------------------------------


def test_layout_matches_fresh_bfs():
    for tree, _ in corpus(50, 1):
        order, depth = fresh_bfs(tree)
        assert list(tree.iter_nodes()) == order
        assert list(tree.iter_nodes()) == order  # every walk sees the same order
        for t in range(-2, tree.horizon + 3):
            assert tree.nodes_at_depth(t) == [n for n in order if depth[n] == t]
        assert tree.leaves == [n for n in order if not tree.children[n]]
        assert tree.depth == depth


def test_nodes_at_depth_returns_a_copy():
    tree, _ = binary_example()
    tree.nodes_at_depth(1).append("x")
    assert tree.nodes_at_depth(1) == ["u", "d"]
    assert list(tree.iter_nodes()) == ["r", "u", "d"]


def never_rows(tree, rho):
    """(atom_node, lhs, rhs) of the leaves whose path meets no stop node, leaf by leaf."""
    return [
        (leaf, 0, 0)
        for leaf in tree.leaves
        if not any(n in rho.nodes for n in tree.path_to(leaf))
    ]


def test_constant_time_and_never_rows_on_non_antichains():
    for tree, z in corpus(20, 5):
        pair = construct_follmer(tree, z)
        times = [StoppingTime.constant(tree, t) for t in range(tree.horizon + 1)]
        for t, rho in enumerate(times):
            assert rho.nodes == frozenset(tree.nodes_at_depth(t))
        leaf = tree.leaves[0]
        path = tree.path_to(leaf)
        cases = times + [
            StoppingTime(frozenset()),
            # a node set that is not an antichain: the root plus a leaf below it
            StoppingTime(frozenset([tree.root, leaf])),
            # one leaf with its own ancestors, on a tree with other leaves
            StoppingTime(frozenset(path[1:])),
        ]
        for rho in cases:
            rep = verify_ky(pair, tree, z, rho)
            assert rep.ok
            k = len(rho.nodes)
            assert [r.atom_node for r in rep.rows[:k]] == sorted(rho.nodes)
            expect = never_rows(tree, rho)
            assert [(r.atom_node, r.lhs, r.rhs) for r in rep.rows[k:]] == expect
            assert all(r.rho_id == "rho" for r in rep.rows)
        # every path meets a constant time, and the empty set stops none
        assert all(never_rows(tree, rho) == [] for rho in times)
        everything = verify_ky(pair, tree, z, StoppingTime(frozenset()))
        assert [r.atom_node for r in everything.rows] == tree.leaves


# -- exact arithmetic -----------------------------------------------------------


def test_one_step_expectation_is_the_fraction_sum():
    for tree, z in corpus(50, 2):
        for n in tree.iter_nodes():
            got = one_step_expectation(tree, z, n)
            assert type(got) is Fraction
            assert got == fraction_mean(tree, z, n)
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/3"},
            {"id": "b", "parent": "r", "prob": "1/6"},
            {"id": "c", "parent": "r", "prob": "1/2"},
        ],
    )
    x = AdaptedProcess({"r": 0, "a": 2, "b": Fraction(-5, 4), "c": 3})
    assert one_step_expectation(tree, x, "r") == fraction_mean(tree, x, "r")
    assert one_step_expectation(tree, x, "a") == 0


# -- one verdict per (tree, process) ---------------------------------------------


def test_is_supermartingale_matches_reference():
    for k, (tree, z) in enumerate(corpus(40, 4)):
        order, _ = fresh_bfs(tree)
        negative = dict(z.values, **{order[-1 - k % len(order)]: Fraction(-1, 7)})
        root_off = dict(z.values, **{tree.root: Fraction(2)})
        internal = [n for n in order if tree.children[n]]
        n = internal[k % len(internal)]
        c = tree.children[n][0]
        # raise the mean at n past z[n] + 1
        step_up = dict(z.values, **{c: z[c] + (z[n] + 1) / tree.prob[c]})
        for vals in (z.values, negative, root_off, step_up):
            proc = AdaptedProcess(dict(vals))
            want = reference_verdict(tree, proc)
            assert verdict_fields(is_supermartingale(tree, proc)) == want
            assert verdict_fields(is_supermartingale(tree, proc)) == want
        assert reference_verdict(tree, AdaptedProcess(step_up))[2] == n


def coin(p_up, p_down):
    return FilteredTree(
        1,
        [
            {"id": "r", "parent": None},
            {"id": "u", "parent": "r", "prob": p_up, "state": "u"},
            {"id": "d", "parent": "r", "prob": p_down, "state": "d"},
        ],
    )


def test_verdicts_are_separate_per_tree_and_per_process():
    low, high = coin("1/4", "3/4"), coin("3/4", "1/4")
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(1, 2)})
    assert is_supermartingale(low, z).ok
    rep = is_supermartingale(high, z)
    assert not rep.ok and rep.first_violation_node == "r"
    assert is_supermartingale(low, z).ok
    with pytest.raises(NotSupermartingaleError):
        multiplicative(high, z)
    assert multiplicative(low, z).factor.steps["r"] == Fraction(3, 4)

    # two processes on one tree
    bad = AdaptedProcess({"r": Fraction(1), "u": Fraction(4), "d": Fraction(1, 2)})
    assert not is_supermartingale(low, bad).ok
    with pytest.raises(NotSupermartingaleError, match="one-step mean 11/8 exceeds 1"):
        doob_meyer(low, bad)
    assert doob_meyer(low, z).drift.steps["r"] == Fraction(-1, 4)
    assert is_supermartingale(low, z).ok


def test_construct_follmer_checks_supermartingale_before_freeze_state():
    tree = FilteredTree(
        2,
        [
            {"id": "r", "parent": None, "state": "u"},
            {"id": "a", "parent": "r", "prob": "1/1", "state": "x"},
            {"id": "b", "parent": "a", "prob": "1/1", "state": "x"},
        ],
    )
    # the freeze state is checked by nonuniqueness_witness, after
    # construct_follmer has checked Z
    bad = AdaptedProcess({"r": Fraction(1), "a": Fraction(2), "b": Fraction(2)})
    for build in (construct_follmer, lambda t, z: nonuniqueness_witness(t, z, "x")):
        with pytest.raises(NotSupermartingaleError) as err:
            build(tree, bad)
        assert str(err.value) == "not a supermartingale: one-step mean 2 exceeds 1 at node 'r'"
        assert err.value.node == "r"
    good = AdaptedProcess({"r": Fraction(1), "a": Fraction(1), "b": Fraction(1, 2)})
    with pytest.raises(FreezeTargetError):
        nonuniqueness_witness(tree, good, "x")
    with pytest.raises(ValueError, match="build the freeze pair at 'x' with nonuniqueness_witness"):
        construct_follmer(tree, good, "x")


# -- one pass of one-step means ----------------------------------------------------


def test_one_step_means_are_computed_once_per_tree_and_process(monkeypatch):
    calls = []
    real = trees._one_step_sum

    def counted(tree, x, node):
        calls.append(node)
        return real(tree, x, node)

    # counted where the sum is done, which one_step_expectation calls too;
    # wherever the package binds the function, so an imported copy is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("follmer_lab") and getattr(module, "_one_step_sum", None) is real:
            monkeypatch.setattr(module, "_one_step_sum", counted)
    for tree, z in corpus(30, 6):
        calls.clear()
        is_supermartingale(tree, z)
        doob_meyer(tree, z)
        multiplicative(tree, z)
        construct_follmer(tree, z)
        if uniqueness_report(tree, z):
            nonuniqueness_witness(tree, z, "x")
        require_supermartingale(tree, z)
        assert sorted(calls) == sorted(n for n in tree.iter_nodes() if tree.children[n])


def quantile_killing_outcomes(tree, z):
    """The pair's killed and surviving masses by the quantile-killing formula.

    P[n] M[n] (D_n - D_{n+1}) is killed after the internal node n, and
    P[leaf] Z[leaf] survives at each leaf; zero masses are left out.
    """
    dec = multiplicative(tree, z)
    m, d = dec.martingale, dec.factor
    killed, survivors = {}, {}
    for n in tree.iter_nodes():
        if tree.children[n]:
            mass = tree.path_prob[n] * m[n] * (d.value_on(tree, n) - d.steps[n])
            if mass != 0:
                killed[n] = mass
        elif z[n] != 0:
            survivors[n] = tree.path_prob[n] * z[n]
    return killed, survivors


def test_follmer_pair_equals_the_quantile_killing_construction():
    seen = {"martingale": 0, "announced": 0, "surprise": 0, "freeze": 0}
    for tree, z in corpus(240, 7):
        # the first zeros of Z and their split, from the definitions
        dec = multiplicative(tree, z)
        first = {n for n in tree.iter_nodes() if z[n] == 0 and z[tree.parent[n]] != 0}
        announced = {n for n in first if fraction_mean(tree, z, tree.parent[n]) == 0}
        assert dec.rho0.nodes == first
        assert dec.rho0_announced.nodes == announced
        assert dec.rho0_surprise.nodes == first - announced
        seen["martingale"] += is_supermartingale(tree, z).is_martingale
        seen["announced"] += bool(announced)
        seen["surprise"] += bool(first - announced)
        for target in (CEMETERY, "x", tree.state[tree.leaves[0]]):
            try:
                pair = (
                    construct_follmer(tree, z)
                    if target == CEMETERY
                    else nonuniqueness_witness(tree, z, target)[1]
                )
            except FreezeTargetError:
                continue
            seen["freeze"] += target != CEMETERY
            assert (pair.killed, pair.survivors) == quantile_killing_outcomes(tree, z)
            assert pair.target == target
    assert min(seen.values()) >= 20, seen


# -- survivor masses once per (pair, tree) ------------------------------------------


def test_mass_moved_copy_gets_its_own_verdict():
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    assert verify_ky_all(pair, tree, z).ok
    alive = list(pair.survivors)
    moved = dict(pair.survivors)
    moved[alive[0]] -= Fraction(1, 100)
    moved[alive[1]] += Fraction(1, 100)
    copy = replace(pair, survivors=moved)
    rep = verify_ky_all(copy, tree, z)
    assert not rep.ok and rep.pair_problem is None
    assert rep.first_failure.atom_node == alive[0]
    assert not verify_ky(copy, tree, z, StoppingTime.constant(tree, 1)).ok
    assert verify_ky_all(pair, tree, z).ok
    assert verify_ky(pair, tree, z, StoppingTime.constant(tree, 1)).ok


def test_one_pair_against_two_trees():
    def tree(grandchildren):
        nodes = [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2"},
            {"id": "b", "parent": "r", "prob": "1/2"},
        ]
        nodes += [{"id": c, "parent": p, "prob": "1/1"} for p, c in grandchildren]
        return FilteredTree(2, nodes)

    straight = tree([("a", "c"), ("b", "d")])
    crossed = tree([("a", "d"), ("b", "c")])
    z = AdaptedProcess({n: Fraction(v) for n, v in zip("rabcd", (1, 1, 1, "1/2", 1))})
    pair = construct_follmer(straight, z)
    assert verify_ky_all(pair, straight, z).ok
    rep = verify_ky_all(pair, crossed, z)
    assert not rep.ok
    # on the crossed tree the surviving mass past a is 1/4 killed + 1/2 at d
    assert (rep.first_failure.atom_node, rep.first_failure.lhs) == ("a", Fraction(3, 4))
    assert verify_ky_all(pair, straight, z).ok
    assert verify_ky_all(construct_follmer(crossed, z), crossed, z).ok


# -- golden outputs ---------------------------------------------------------------

# per corpus seed (random_case, default sizes); the freeze state is "x".
# Each uniqueness.json digest was recorded from the six-field report that
# also wrote is_martingale, witness_available, tau_lt_zeta_negligible and
# reason, and each witness.json digest from the record that also named the
# two pair files as pair_cemetery and pair_freeze, with those keys deleted
# and the rest rewritten by write_json
GOLDEN = {
    12: {
        "tree.json": "435cf4be43f83d5f6926920a98649d6d852b86cc8c3bfb8cc39695dfc35be58c",
        "decomposition.json": "59964e92802bd155fa0166878add36c01703b724e9b1b384a3e4e6d131d3c8b2",
        "pair.json": "e91c5e3a93908ee98b9ddacea5859c53c9ab7bb82c9942ad98bea8ade7ac3738",
        "ky_ledger.csv": "800d36a4d02d1b1519a462e7de384045adae42781245d3846338c37d5452f68e",
        "uniqueness.json": "20063785c6d657533bc187908059515978a58944d1cb5a17afd35badf891d11b",
        "pair_cemetery.json": "e91c5e3a93908ee98b9ddacea5859c53c9ab7bb82c9942ad98bea8ade7ac3738",
        "pair_freeze.json": "3ffad43935c86795b2a79281319dd06634126180dd4f1a412fc055129bc2fbf3",
        "total_variation": "1/1",
        "witness.json": "c5a9d11cf02ef8e08a8d57d021843b0d77975afadc187fd901a410eba15237b8",
    },
    17: {
        "tree.json": "c16a1aaed6b82df8199e91db4caf39fb027f69b8cd09fea74dbd4924cf1a89c6",
        "decomposition.json": "3c585ccc894ae06fa0f50ffda648d302c358bbc7535843168e09d99cacd4c77f",
        "pair.json": "b541e30e248b373ef468a6a70c500b1d52128a2f03033974b253b80e29602ea6",
        "ky_ledger.csv": "1c38757e755d7c64c6db345c5425a2e7229a98919ec4641ba40b4a701d7021d6",
        "uniqueness.json": "eae63eb7eb865e072ed870a37fb0a203dfad79ec0dd0d0102e511f107b5c0e6c",
        "pair_cemetery.json": "b541e30e248b373ef468a6a70c500b1d52128a2f03033974b253b80e29602ea6",
        "pair_freeze.json": "f65da5c6de8c10c33d4549850ed6f7f192181f0fa31e21eac5e546fe092b99c6",
        "total_variation": "1253/1280",
        "witness.json": "68736f8422f1aa0cf006aa097b318046b21347002a651446bdeb2823a031b84a",
    },
    34: {
        "tree.json": "808ce603d305a2c08cf4a566b7f2a6f0c045ac73a930e657566f5d9f50fd7397",
        "decomposition.json": "71decdbf82a7a56e3c1a1a794badcd9c69937c737bdf2c4276b7351786ab9e8a",
        "pair.json": "d61cb7c4bdaa83b278dd1ed85de1022253030996b4cbdd601d8bb5ab54347d5f",
        "ky_ledger.csv": "012b98eba49b33585b5a175fa828f5a1d9db7e3f0b07ad8575a9a30bcc3ca0a3",
        "uniqueness.json": "d6b2cff2eabd68e81b3c1c88de9d6ac61488694a339de573f814dbd09a0a69a3",
        "pair_cemetery.json": "d61cb7c4bdaa83b278dd1ed85de1022253030996b4cbdd601d8bb5ab54347d5f",
        "pair_freeze.json": "1ff2048ba599d328126d8d62ddc22c414e692680b3a0bc384bceb9ecfa28146e",
        "total_variation": "31913/49152",
        "witness.json": "aa49f3ccf7779dcaafd86c163acdc538483d070a76a6fa91c027d533379cbaee",
    },
}


def cli_digests(tmp_path, seed):
    """SHA-256 of every exact output of the CLI on the seeded corpus tree."""
    return tree_digests(tmp_path, f"tree{seed}", *random_case(random.Random(seed)))


def tree_digests(tmp_path, name, tree, z):
    """SHA-256 of the tree file and every exact CLI output on it."""
    tree_file = tmp_path / f"{name}.json"
    tree.to_json(str(tree_file), z)
    out = tmp_path / f"out-{name}"
    runs = {
        "decompose": ["decomposition.json"],
        "follmer": ["pair.json", "ky_ledger.csv"],
        "uniqueness": ["uniqueness.json"],
        "witness": ["pair_cemetery.json", "pair_freeze.json", "witness.json"],
    }
    digests = {"tree.json": sha256(tree_file.read_bytes()).hexdigest()}
    for sub, files in runs.items():
        argv = [sub, str(tree_file)] + (["x"] if sub == "witness" else [])
        assert main(argv + ["--out", str(out / sub)]) == 0
        for name in files:
            digests[name] = sha256((out / sub / name).read_bytes()).hexdigest()
    witness = json.loads((out / "witness" / "witness.json").read_text())
    digests["total_variation"] = witness["total_variation"]
    return digests


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_cli_outputs_match_golden_digests(tmp_path, seed):
    assert cli_digests(tmp_path, seed) == GOLDEN[seed]


# -- golden outputs on larger trees ---------------------------------------------


def _tree_below(rng, depth, branching, weights):
    """Full tree of ``branching`` children per node; ``weights(rng)`` gives each sibling block's."""
    nodes, level = [{"id": "n", "parent": None}], ["n"]
    for _ in range(depth):
        nxt = []
        for par in level:
            w = weights(rng)
            for j, wj in enumerate(w):
                nid = f"{par}.{j}"
                nodes.append(
                    {"id": nid, "parent": par, "prob": Fraction(wj, sum(w)), "state": "udmw"[j % 4]}
                )
                nxt.append(nid)
        level = nxt
    return FilteredTree(depth, nodes)


def _strict(rng, tree, zero_hit_prob):
    while True:
        z = random_supermartingale(rng, tree, zero_hit_prob=zero_hit_prob)
        if not is_supermartingale(tree, z).is_martingale:
            return z


def large_case(name):
    rng = random.Random(f"large:{name}")
    if name == "binary9":  # zero hits, the same few rational strings everywhere
        tree = _tree_below(rng, 9, 2, lambda r: [1, 1])
        return tree, _strict(rng, tree, 0.04)
    if name == "chain120":  # no zero hits; denominators past 300 bits
        tree = _tree_below(rng, 120, 1, lambda r: [1])
        return tree, _strict(rng, tree, 0.0)
    # branching 5, depth 3: each sibling block a shuffle of the weights 1..5
    tree = _tree_below(rng, 3, 5, lambda r: r.sample(range(1, 6), 5))
    return tree, _strict(rng, tree, 0.15)


# recorded on the implementation that parsed every value with Fraction and
# compared every one-step mean as a Fraction; uniqueness.json and witness.json
# as in GOLDEN
LARGE_GOLDEN = {
    "binary9": {
        "tree.json": "70c23e2e9b52018a18c2dceeb4121d28d21f0efe10d21afd01dcce2b4a5a7105",
        "decomposition.json": "2bd63fb49b8223dd8f6ce7245ef7bfa783a6fa85493bc2906205751a078ddac3",
        "pair.json": "1bc74fb6ff8040cfb06bf208e437f5b739ee20c1f1e409d295b052c0babe4202",
        "ky_ledger.csv": "aac8515d25545ccbb3a041329c9534776a96cad75bd7e5a697e0e9e762c28e53",
        "uniqueness.json": "a116491fcba181d8bd2d08e3321a38322ea12a156f487e8d6e606d7d5cd8e36a",
        "pair_cemetery.json": "1bc74fb6ff8040cfb06bf208e437f5b739ee20c1f1e409d295b052c0babe4202",
        "pair_freeze.json": "999c4686312e3d4548c685fc7442c3e329f5aec1b3d69732af7faaae123dc77e",
        "total_variation": "44001810262860777854848837799/48764219233644071780509286400",
        "witness.json": "40c8c0b9b1ed2610fc0201180b6c64647636266bd19fb4e86abbba9eba44ae49",
    },
    "branch5": {
        "tree.json": "52160b5884fb30a1de62087c27f0f499ff34a9acf5d12add7e50b5d99a87b2fe",
        "decomposition.json": "8bbfc0c9e07ee68347b82087f6e7af24eb94cf904bb2e23829d2566a4bba7b21",
        "pair.json": "632f3176fc1aa27e1a71d471c72343fc8f29f79c1550003b8659578490c90383",
        "ky_ledger.csv": "6a8ad48e2f4836ca5ca8c2ddf2e054d58ec55b4b2ced5ec480566610f4bed14e",
        "uniqueness.json": "b3f50f9961df4de2b6880a4b9a33996672b831a8eb707f1b7a408e37e9d3e4d2",
        "pair_cemetery.json": "632f3176fc1aa27e1a71d471c72343fc8f29f79c1550003b8659578490c90383",
        "pair_freeze.json": "41e245af33c9214266bff08b829e66409080842b3ba6cf7fe3026681553a5af5",
        "total_variation": "21556549751/34138341376",
        "witness.json": "ffaece1787165938d7620ce9f8f21c9fbd0e65c23eb864dbed0260bc496e5fc5",
    },
    "chain120": {
        "tree.json": "ee07506373dc63e332b926224c3c4f4845fbc85f6136e5409f9acdb49983a4ad",
        "decomposition.json": "9a8b61e95e81d8c3e75572e077c905a6901c461be9f825af1fd4475502980b83",
        "pair.json": "98ee416e3daa146860bd5e923299b1b686f1f4da1ee208a65083867e67157091",
        "ky_ledger.csv": "98f580a0da7efcff6403a9125199719bbc75cdc90ebe43ea91508da21e0dd374",
        "uniqueness.json": "1ca2168dde410cfc423643f39384f26e69d42fbaedc7f4a41d02e62a4809138c",
        "pair_cemetery.json": "98ee416e3daa146860bd5e923299b1b686f1f4da1ee208a65083867e67157091",
        "pair_freeze.json": "b4c1d4192c71bf44f53a0464b953933baa6ceaace2eea9718ceaa89ed9ecc7d1",
        "total_variation": "17498005798264090669048240444251939996407839917666178653838338789402979344892913985726974892502789967/17498005798264095394980017816940970922825355447145699491406164851279623993595007385788105416184430592",
        "witness.json": "cd813fe55c3e6d3063d8d53b0b39c1d4468031cf3200d06ebc50a27923d8132d",
    },
}


def test_large_cases_have_the_properties_they_pin():
    cases = {name: large_case(name) for name in ("binary9", "chain120", "branch5")}
    for tree, z in cases.values():
        assert 0 < construct_follmer(tree, z).killed_mass() < 1
    tree, z = cases["binary9"]
    assert len(tree.parent) == 1023
    assert sum(v == 0 for v in z.values.values()) > 100
    tree, z = cases["chain120"]
    assert min(z.values.values()) > 0
    assert max(v.denominator.bit_length() for v in z.values.values()) > 300
    tree, z = cases["branch5"]
    assert len(tree.parent) == 156
    for n in tree.iter_nodes():
        probs = [tree.prob[c] for c in tree.children[n]]
        assert not probs or len(set(probs)) == 5


@pytest.mark.parametrize("name", sorted(LARGE_GOLDEN))
def test_cli_outputs_on_larger_trees_match_golden_digests(tmp_path, name):
    assert tree_digests(tmp_path, name, *large_case(name)) == LARGE_GOLDEN[name]
