"""Reading a tree file holds each node once.

The file is a uniform binary tree of depth 11 (4,095 nodes, about 0.5 MB of
JSON) with state labels and a random supermartingale's values.  Sizes below
are tracemalloc's on CPython 3.11.

- ``read_json`` alone peaks at the file's text plus the parsed document,
  2.3 MB.  ``FilteredTree.from_json`` consumes its own document's node
  list, freeing each entry as the build takes it, and peaks at that same
  2.3 MB.  A build that keeps the whole document beside the whole tree
  peaks at 1.30 times it.  So the bound is ``PEAK_RATIO``, 1.05.
- The tree and its process keep 270 to 300 bytes a node: the id string
  (about 72), one entry in each of seven node-keyed maps (about 25 each),
  a place in the node order and the leaf list (12), half an internal
  node's children tuple (28) and a share of the distinct values (9).  A
  second string per parent link (68), an empty list per leaf and a list
  per internal node instead of tuples take it to 428.  On CPython 3.10 a
  map entry takes 8 bytes more, which adds about 75 to either figure.  So
  the bound is ``BYTES_PER_NODE``, 400: above the one-copy size on 3.10,
  below the size with the copies on 3.11.
"""

import random
import tracemalloc

import pytest

from follmer_lab.corpus import random_supermartingale
from follmer_lab.trees import FilteredTree, read_json

DEPTH = 11
PEAK_RATIO = 1.05
BYTES_PER_NODE = 400


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    nodes, level = [{"id": "n", "parent": None}], ["n"]
    for _ in range(DEPTH):
        level = [f"{par}.{j}" for par in level for j in range(2)]
        nodes += [
            {"id": n, "parent": n[:-2], "prob": "1/2", "state": "ud"[int(n[-1])]} for n in level
        ]
    tree = FilteredTree(DEPTH, nodes)
    path = str(tmp_path_factory.mktemp("tree") / "binary.json")
    tree.to_json(path, random_supermartingale(random.Random(27), tree))
    return path


def traced(fn):
    """``fn()``'s result, with the bytes it left allocated and its peak, both traced."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_the_read_peaks_at_the_parsed_document(tree_file):
    FilteredTree.from_json(tree_file)  # first-call caches stay out of the peaks
    _, _, document = traced(lambda: read_json(tree_file))
    _, _, build = traced(lambda: FilteredTree.from_json(tree_file))
    assert build < PEAK_RATIO * document, f"from_json peaks at {build / document:.2f}x read_json"


def test_the_tree_and_process_keep_each_node_once(tree_file):
    FilteredTree.from_json(tree_file)
    (tree, z), kept, _ = traced(lambda: FilteredTree.from_json(tree_file))
    assert len(tree.parent) == len(z.values) == 2 ** (DEPTH + 1) - 1
    per_node = kept / len(tree.parent)
    assert per_node < BYTES_PER_NODE, f"the tree and process keep {per_node:.0f} B a node"
