"""Command-line front end: reproducible runs with machine-readable reports.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
validation errors and for requests larger than the memory the host grants.
Every Monte-Carlo run writes a manifest sufficient to replay it bit-exactly.

``main(argv)`` may be called repeatedly in one process.  The calls share
one parser, built on the first call; each call looks its ``cmd_*`` handler
up by the subcommand's name, so the parser holds nothing a call can change.

``follmer --target x`` and ``witness T x`` build and refuse a freeze pair
through one function, :func:`~follmer_lab.follmer.nonuniqueness_witness`,
so they refuse the same inputs with the same message.

``decompose``, ``follmer``, ``verify``, ``uniqueness`` and ``witness`` run
on the exact engine alone and never import numpy or any ``mc`` module but
``mc.gallery``, which holds the manifest contract and the writers.  ``mc``
and ``gallery`` import numpy and the Monte-Carlo modules when
``run_experiment`` has accepted the manifest, so a refused manifest loads
neither; ``selftest`` imports them when it starts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .decompositions import doob_meyer, multiplicative, multiplicative_property_violations
from .errors import FollmerLabError, TreeValidationError, count_str
from .follmer import (
    CEMETERY,
    FollmerPair,
    construct_follmer,
    nonuniqueness_witness,
    uniqueness_report,
    verify_ky_all,
    write_ky_ledger,
)
from .mc.gallery import (
    read_manifest,
    run_experiment,
    write_manifest,
    write_plot_data,
    write_report_json,
    write_results_csv,
)
from .trees import FilteredTree, frac_str, is_supermartingale, write_json

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_decompose(args) -> int:
    tree, z = FilteredTree.from_json(args.tree_file)
    add = doob_meyer(tree, z)
    mul = multiplicative(tree, z)
    report = {
        "is_martingale": is_supermartingale(tree, z).is_martingale,
        "additive": add.to_dict(),
        "multiplicative": mul.to_dict(),
    }
    out = os.path.join(_out_dir(args), "decomposition.json")
    write_json(out, report)
    print(out)
    return EXIT_OK


def _verdict(ledger) -> int:
    """Print the outcome of a KY certificate and return its exit code."""
    if ledger.ok:
        print(f"all {count_str(ledger.n_stopping_times)} stopping times verified")
        return EXIT_OK
    if ledger.pair_problem is not None:
        print(f"verification failed: {ledger.pair_problem}", file=sys.stderr)
    if ledger.first_failure is not None:
        row = ledger.first_failure
        print(
            f"verification failed at stopping time {row.rho_id}, atom "
            f"{row.atom_node}: {frac_str(row.lhs)} != {frac_str(row.rhs)}",
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAIL


def cmd_follmer(args) -> int:
    tree, z = FilteredTree.from_json(args.tree_file)
    if args.target == CEMETERY:
        pair = construct_follmer(tree, z)
    else:
        _, pair, _ = nonuniqueness_witness(tree, z, args.target)
    out_dir = _out_dir(args)
    pair_path = os.path.join(out_dir, "pair.json")
    pair.to_json(pair_path)
    ledger = verify_ky_all(pair, tree, z)
    ledger_path = os.path.join(out_dir, "ky_ledger.csv")
    write_ky_ledger(ledger, ledger_path)
    print(pair_path)
    print(ledger_path)
    return _verdict(ledger)


def cmd_verify(args) -> int:
    tree, z = FilteredTree.from_json(args.tree_file)
    pair = FollmerPair.from_json(args.pair_file, tree)
    ledger = verify_ky_all(pair, tree, z)
    ledger_path = os.path.join(_out_dir(args), "ky_ledger.csv")
    write_ky_ledger(ledger, ledger_path)
    print(ledger_path)
    return _verdict(ledger)


def cmd_uniqueness(args) -> int:
    tree, z = FilteredTree.from_json(args.tree_file)
    lost = uniqueness_report(tree, z)
    out = os.path.join(_out_dir(args), "uniqueness.json")
    write_json(out, {"mass_lost": frac_str(lost), "unique_pair": lost == 0})
    print(out)
    return EXIT_OK


def cmd_witness(args) -> int:
    tree, z = FilteredTree.from_json(args.tree_file)
    cem, frz, tv = nonuniqueness_witness(tree, z, args.freeze_state)
    out_dir = _out_dir(args)
    cem.to_json(os.path.join(out_dir, "pair_cemetery.json"))
    frz.to_json(os.path.join(out_dir, "pair_freeze.json"))
    witness_path = os.path.join(out_dir, "witness.json")
    write_json(witness_path, {"total_variation": frac_str(tv)})
    print(witness_path)
    print(f"total variation {frac_str(tv)}")
    return EXIT_OK


def _run_mc(manifest: dict, out_dir: str) -> int:
    """Run a manifest (``run_experiment`` validates it) and write its four files."""
    fields = [manifest[key] for key in ("experiment", "seed", "n_paths", "params")]
    result = run_experiment(*fields)
    write_manifest(os.path.join(out_dir, "manifest.json"), *fields)
    write_results_csv(result, os.path.join(out_dir, "results.csv"))
    write_plot_data(result, os.path.join(out_dir, "plot.csv"))
    write_report_json(result, os.path.join(out_dir, "report.json"))
    for name in ("manifest.json", "results.csv", "plot.csv", "report.json"):
        print(os.path.join(out_dir, name))
    return EXIT_OK


def cmd_mc(args) -> int:
    return _run_mc(read_manifest(args.manifest_file), _out_dir(args))


def cmd_gallery(args) -> int:
    manifest = {
        "experiment": args.name,
        "seed": args.seed,
        "n_paths": args.paths,
        "params": {},
    }
    return _run_mc(manifest, _out_dir(args))


def cmd_selftest(args) -> int:
    """Quick end-to-end checks of the exact engine and the MC plumbing."""
    import random as _random

    import numpy as np

    from .corpus import random_case
    from .mc.streams import uniform_words
    from .measure_ext import FiniteMeasurableSpace, bierlein_extend, dyadic_demo, outer_content

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    rng = _random.Random(args.seed)
    for idx in range(5):
        tree, z = random_case(rng)
        pair = construct_follmer(tree, z)
        check(f"kill-and-survive identity on random tree {idx}", verify_ky_all(pair, tree, z).ok)
        add = doob_meyer(tree, z)
        mul = multiplicative(tree, z)
        m_vals, leaf = mul.martingale.values, tree.leaves[-1]
        d_vals = {n: mul.factor.value_on(tree, n) for n in tree.iter_nodes()}
        raised = {**m_vals, leaf: m_vals[leaf] + Fraction(1, 7)}
        ok = (
            all(add.martingale[n] + add.drift.value_on(tree, n) == z[n] for n in tree.iter_nodes())
            and multiplicative_property_violations(tree, z, m_vals, d_vals) == []
            and multiplicative_property_violations(tree, z, raised, d_vals) != []
        )
        check(f"additive identity and multiplicative uniqueness on random tree {idx}", ok)
    sp = FiniteMeasurableSpace.build(
        [["1", "2"], ["3", "4"]], [Fraction(1, 2), Fraction(1, 2)]
    )
    ext = bierlein_extend(sp, ["1", "3"])
    check("one-set extension hits outer content", ext.measure(["1", "3"]) == outer_content(sp, ["1", "3"]))
    check("dyadic level measures agree up to their level, on representatives only", dyadic_demo(4, [Fraction(1, 16)] * 16).ok)
    res = run_experiment("exp_decay", 0, 20000, {})
    dev = res.report["max_abs_dev_sigmas"]
    check(f"exponential law within 3 sigma (worst {dev:.2f})", dev <= 3.0)
    res2 = run_experiment("single_jump", 0, 5000, {})
    check("one-drop family exact endpoints", res2.report["exact_one_before_window"] and res2.report["exact_a_from_anchor"])
    # stream v1's uniform words are computed without numpy's Philox: check
    # them against it, so that a numpy upgrade cannot move the stream unseen
    ok = True
    for seed, index in ((2**64 - 1, 2**63), (0, 2**64 - 1)):
        key = np.array([seed, index], dtype=np.uint64)
        ours = uniform_words(seed, key[1:], 9)[0]
        ok = ok and np.array_equal(ours, np.random.Philox(key=key).random_raw(9))
    check("v1 uniform words match numpy's Philox on edge keys", ok)
    if failures:
        print(f"{len(failures)} selftest check(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print("selftest ok")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process shares, built on the first."""
    p = argparse.ArgumentParser(
        prog="follmer-lab",
        description=(
            "Construct and verify the measures associated to nonnegative "
            "supermartingales: exactly on finite filtered trees, approximately "
            "by Monte Carlo"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (default: current)")

    sp = sub.add_parser("decompose", help="additive and multiplicative decompositions of a tree supermartingale")
    sp.add_argument("tree_file")
    common(sp)

    sp = sub.add_parser(
        "follmer",
        help="construct the Föllmer pair and certify the Kunita-Yoeurp identity at every "
        "node, which covers every stopping time",
    )
    sp.add_argument("tree_file")
    sp.add_argument("--target", default=CEMETERY, help="cemetery (default) or a freeze-state label")
    common(sp)

    sp = sub.add_parser("verify", help="verify a stored pair file against a tree")
    sp.add_argument("tree_file")
    sp.add_argument("pair_file")
    common(sp)

    sp = sub.add_parser(
        "uniqueness",
        help="write the lost mass and whether the Föllmer pair is unique, which it is "
        "exactly when no mass is lost; otherwise 'witness' builds two distinct pairs",
    )
    sp.add_argument("tree_file")
    common(sp)

    sp = sub.add_parser("witness", help="two distinct pairs for a strict supermartingale")
    sp.add_argument("tree_file")
    sp.add_argument("freeze_state")
    common(sp)

    sp = sub.add_parser("mc", help="run a Monte-Carlo experiment from a manifest")
    sp.add_argument("manifest_file")
    common(sp)

    sp = sub.add_parser("gallery", help="run a named experiment with its default parameters")
    sp.add_argument("name")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--paths", type=int, default=10000, help="number of Monte-Carlo paths")

    sp = sub.add_parser("selftest", help="quick end-to-end checks")
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except TreeValidationError as exc:
        suffix = f" (node {exc.node})" if exc.node else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return EXIT_USAGE
    except (FollmerLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a request larger than the host can hold
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
