"""Seeded input generator for the benchmark workloads.

Every input the program receives is made here from the workload seed: tree
JSON files (with exact process values), stored pair files and Monte-Carlo
manifests.  The same (workload, seed) always writes byte-identical files.
Each input gets a size record (node count, horizon, exact stopping-time
count, largest numerator/denominator bit length, or paths for a manifest) so
that input size is reported beside every number measured on it.

Run standalone to inspect a workload's inputs::

    PYTHONPATH=src python3 bench/inputs.py --workload exact_linear --seed 1 --out /tmp/in
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from typing import List, Tuple

from follmer_lab import corpus
from follmer_lab.follmer import CEMETERY, construct_follmer
from follmer_lab.mc.gallery import write_manifest
from follmer_lab.trees import AdaptedProcess, FilteredTree, count_stopping_times, is_supermartingale

WORKLOADS = ("exact_enum", "exact_linear", "mc_pathwise", "mc_streambound")

# Paths per manifest.  Sized so one pass of each MC workload takes a few
# seconds on one core, with no experiment below about half a second.
PATHWISE_PATHS = {
    "mass_redirect": 1000,
    "fatou": 150,
    "extended": 2000,
    "reciprocal_bessel": 3000,
    "split_limit": 5000,
}
STREAMBOUND_MC_PATHS = {"bm_check": 30000, "single_jump": 20000, "suicide": 10000}
STREAMBOUND_GALLERY_PATHS = {"exp_decay": 40000, "uniform_rho": 40000}


def _full_tree_nodes(parent: str, branching: int, levels: int) -> List[dict]:
    """Uniform full tree below ``parent`` with state labels u, d, m, w."""
    nodes: List[dict] = []
    level = [parent]
    for _ in range(levels):
        nxt = []
        for par in level:
            for j in range(branching):
                nid = f"{par}.{j}"
                nodes.append(
                    {
                        "id": nid,
                        "parent": par,
                        "prob": f"1/{branching}",
                        "state": "udmw"[j % 4],
                    }
                )
                nxt.append(nid)
        level = nxt
    return nodes


def full_tree(branching: int, depth: int) -> FilteredTree:
    return FilteredTree(depth, [{"id": "n", "parent": None}] + _full_tree_nodes("n", branching, depth))


def chain_tree(length: int) -> FilteredTree:
    nodes = [{"id": "n0", "parent": None}]
    nodes += [{"id": f"n{t}", "parent": f"n{t - 1}", "prob": "1/1"} for t in range(1, length + 1)]
    return FilteredTree(length, nodes)


def thinned_tree(rng: random.Random) -> FilteredTree:
    """Depth-4 binary tree whose second depth-1 subtree has one branch thinned to a path.

    27 nodes and 71,086 stopping times: large enough that enumeration
    dominates every exact command, small enough that it stays under the
    enumeration cap.  Edge probabilities are drawn from the seed.
    """
    w = rng.randint(1, 5)
    nodes = [
        {"id": "n", "parent": None},
        {"id": "n.0", "parent": "n", "prob": Fraction(w, 6), "state": "u"},
        {"id": "n.1", "parent": "n", "prob": Fraction(6 - w, 6), "state": "d"},
    ]
    nodes += _full_tree_nodes("n.0", 2, 3)
    w = rng.randint(1, 3)
    nodes.append({"id": "n.1.0", "parent": "n.1", "prob": Fraction(w, 4), "state": "u"})
    nodes.append({"id": "n.1.1", "parent": "n.1", "prob": Fraction(4 - w, 4), "state": "d"})
    nodes += _full_tree_nodes("n.1.0", 2, 2)
    nodes.append({"id": "n.1.1.0", "parent": "n.1.1", "prob": "1/1", "state": "d"})
    nodes.append({"id": "n.1.1.0.0", "parent": "n.1.1.0", "prob": "1/1", "state": "m"})
    return FilteredTree(4, nodes)


def strict_supermartingale(
    rng: random.Random, tree: FilteredTree, zero_hit_prob: float = 0.15
) -> AdaptedProcess:
    """A random supermartingale that loses mass, so `witness` has something to show."""
    while True:
        z = corpus.random_supermartingale(rng, tree, zero_hit_prob=zero_hit_prob)
        if not is_supermartingale(tree, z).is_martingale:
            return z


def _max_bits(tree: FilteredTree, z: AdaptedProcess) -> int:
    bits = 0
    for v in list(z.values.values()) + list(tree.prob.values()):
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def tree_record(name: str, path: str, tree: FilteredTree, z: AdaptedProcess) -> dict:
    count = count_stopping_times(tree)
    return {
        "name": name,
        "kind": "tree",
        "path": path,
        "nodes": len(tree.parent),
        "horizon": tree.horizon,
        # exact count; on the large trees it has thousands of digits, so
        # it falls back to hex past Python's 4300-digit str() limit
        "stopping_times": str(count) if count.bit_length() <= 10000 else hex(count),
        "stopping_times_bits": count.bit_length(),
        "max_bits": _max_bits(tree, z),
    }


def _write_tree(out_dir: str, name: str, tree: FilteredTree, z: AdaptedProcess) -> dict:
    path = os.path.join(out_dir, f"{name}.json")
    tree.to_json(path, z)
    return tree_record(name, path, tree, z)


def _write_manifest(out_dir: str, experiment: str, seed: int, n_paths: int) -> dict:
    path = os.path.join(out_dir, f"{experiment}.manifest.json")
    write_manifest(path, experiment, seed, n_paths, {})
    return {"name": experiment, "kind": "manifest", "path": path, "seed": seed, "paths": n_paths}


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def generate(workload: str, seed: int, out_dir: str) -> List[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``; return their records."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    records: List[dict] = []
    if workload == "exact_enum":
        chain = chain_tree(6)
        thin = thinned_tree(rng)
        cases: List[Tuple[str, FilteredTree, AdaptedProcess]] = [
            ("binary", *corpus.binary_example()),
            ("chain6", chain, strict_supermartingale(rng, chain, zero_hit_prob=0.0)),
            ("thinned27", thin, strict_supermartingale(rng, thin)),
        ]
        for name, tree, z in cases:
            rec = _write_tree(out_dir, name, tree, z)
            pair_path = os.path.join(out_dir, f"{name}.pair.json")
            construct_follmer(tree, z, CEMETERY).to_json(pair_path)
            rec["pair"] = pair_path
            records.append(rec)
    elif workload == "exact_linear":
        for name, tree, zero_hit_prob in (
            ("binary13", full_tree(2, 13), 0.15),
            ("octal4", full_tree(8, 4), 0.15),
            # no zero hits on the chain: one would end all mass within a
            # dozen steps and leave 280 nodes of zeros
            ("chain300", chain_tree(300), 0.0),
        ):
            z = strict_supermartingale(rng, tree, zero_hit_prob=zero_hit_prob)
            records.append(_write_tree(out_dir, name, tree, z))
    elif workload == "mc_pathwise":
        for experiment, n_paths in PATHWISE_PATHS.items():
            records.append(_write_manifest(out_dir, experiment, _mc_seed(rng), n_paths))
    else:
        for experiment, n_paths in STREAMBOUND_MC_PATHS.items():
            records.append(_write_manifest(out_dir, experiment, _mc_seed(rng), n_paths))
        for experiment, n_paths in STREAMBOUND_GALLERY_PATHS.items():
            records.append(
                {"name": experiment, "kind": "gallery", "seed": _mc_seed(rng), "paths": n_paths}
            )
        records.append({"name": "selftest", "kind": "selftest", "seed": _mc_seed(rng)})
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "inputs": records}, fh, indent=1)
        fh.write("\n")
    return records


def main() -> None:
    p = argparse.ArgumentParser(description="write one workload's benchmark inputs")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    for rec in generate(args.workload, args.seed, args.out):
        print(json.dumps(rec))


if __name__ == "__main__":
    main()
