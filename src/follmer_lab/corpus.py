"""Random finite trees with exact rational supermartingales.

Used by the verification suites and demos: supermartingales are generated
top-down by drawing a one-step mean shrink factor at every internal node and
a mean-preserving spread across its children, all in exact arithmetic.  The
generator can emit true martingales, surprise and announced zero hits, and
state labels for freeze-state constructions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .trees import AdaptedProcess, FilteredTree, count_stopping_times

_STATES = ["u", "d", "m", "w"]


def unary_chain(values) -> Tuple[FilteredTree, AdaptedProcess]:
    """A single-path tree carrying the given process values (time 0..T)."""
    vals = [Fraction(v) for v in values]
    T = len(vals) - 1
    nodes = [{"id": "n0", "parent": None}]
    for t in range(1, T + 1):
        nodes.append({"id": f"n{t}", "parent": f"n{t-1}", "prob": "1/1"})
    tree = FilteredTree(T, nodes)
    return tree, AdaptedProcess({f"n{t}": vals[t] for t in range(T + 1)})


def binary_example() -> Tuple[FilteredTree, AdaptedProcess]:
    """Depth-1 fair binary tree with terminal values (3/2, 1/4)."""
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None},
            {"id": "u", "parent": "r", "prob": "1/2", "state": "u"},
            {"id": "d", "parent": "r", "prob": "1/2", "state": "d"},
        ],
    )
    z = AdaptedProcess(
        {"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(1, 4)}
    )
    return tree, z


def random_tree(
    rng: random.Random,
    max_depth: int = 4,
    max_branching: int = 3,
) -> FilteredTree:
    """A random tree with depth <= max_depth and branching <= max_branching.

    Sibling j carries the state label ``"udmw"[j % 4]``.  Rejection-samples
    until the exact stopping-time count is at most 4000, so exhaustive suites
    stay fast.
    """
    while True:
        depth = rng.randint(1, max_depth)
        nodes = [{"id": "n", "parent": None}]
        level = ["n"]
        for t in range(depth):
            nxt: List[str] = []
            for par in level:
                k = rng.randint(1, max_branching)
                weights = [rng.randint(1, 5) for _ in range(k)]
                total = sum(weights)
                for j, w in enumerate(weights):
                    nid = f"{par}.{j}"
                    nodes.append(
                        {
                            "id": nid,
                            "parent": par,
                            "prob": Fraction(w, total),
                            "state": _STATES[j % len(_STATES)],
                        }
                    )
                    nxt.append(nid)
            level = nxt
        tree = FilteredTree(depth, nodes)
        if count_stopping_times(tree) <= 4000:
            return tree


def random_supermartingale(
    rng: random.Random,
    tree: FilteredTree,
    martingale: bool = False,
    zero_hit_prob: float = 0.15,
) -> AdaptedProcess:
    """Exact nonnegative supermartingale on ``tree`` with Z_0 = 1.

    Each internal step scales the one-step mean by a rational factor in [0, 1]
    (1 for martingales) and spreads it across children with exact weights; a
    zero weight at a child is a surprise zero hit, a zero factor an announced
    one.
    """
    vals = {tree.root: Fraction(1)}
    for n in tree.iter_nodes():
        if tree.is_leaf(n):
            continue
        zn = vals[n]
        kids = tree.children[n]
        if zn == 0:
            for c in kids:
                vals[c] = Fraction(0)
            continue
        if martingale:
            e = zn
        elif rng.random() < zero_hit_prob / 2:
            e = Fraction(0)
        else:
            e = zn * Fraction(rng.randint(0, 8) + 8, 16)  # shrink in [1/2, 1]
        if e == 0:
            for c in kids:
                vals[c] = Fraction(0)
            continue
        while True:
            raw = []
            for _ in kids:
                if not martingale and len(kids) > 1 and rng.random() < zero_hit_prob:
                    raw.append(Fraction(0))
                else:
                    raw.append(Fraction(rng.randint(1, 12), 6))
            mean = sum(
                (tree.prob[c] * r for c, r in zip(kids, raw)), Fraction(0)
            )
            if mean > 0:
                break
        for c, r in zip(kids, raw):
            vals[c] = e * r / mean
    return AdaptedProcess(vals)


def random_case(
    rng: random.Random,
    max_depth: int = 4,
    max_branching: int = 3,
    martingale: bool = False,
) -> Tuple[FilteredTree, AdaptedProcess]:
    tree = random_tree(rng, max_depth=max_depth, max_branching=max_branching)
    return tree, random_supermartingale(rng, tree, martingale=martingale)
