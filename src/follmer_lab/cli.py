"""Command-line front end: reproducible runs with machine-readable reports.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
validation errors.  Every Monte-Carlo run writes a manifest sufficient to
replay it bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .corpus import random_case
from .decompositions import doob_meyer, multiplicative
from .errors import FollmerLabError, FreezeTargetError, TreeValidationError, count_str
from .follmer import (
    CEMETERY,
    FollmerPair,
    construct_follmer,
    nonuniqueness_witness,
    total_variation,
    uniqueness_report,
    verify_ky_all,
    write_ky_ledger,
)
from .measure_ext import FiniteMeasurableSpace, bierlein_extend, outer_content
from .mc.gallery import (
    GALLERY,
    read_manifest,
    run_experiment,
    write_manifest,
    write_plot_data,
    write_report_json,
    write_results_csv,
)
from .trees import FilteredTree, frac_str, is_supermartingale

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _load_tree(path: str):
    tree, z = FilteredTree.from_json(path)
    if z is None:
        raise TreeValidationError(f"tree file {path} carries no process values")
    return tree, z


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_decompose(args) -> int:
    tree, z = _load_tree(args.tree_file)
    rep = is_supermartingale(tree, z)
    if not rep.ok:
        print(
            f"not a supermartingale: {rep.reason} at node {rep.first_violation_node}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    add = doob_meyer(tree, z)
    mul = multiplicative(tree, z)
    report = {
        "is_martingale": rep.is_martingale,
        "additive": add.to_dict(),
        "multiplicative": mul.to_dict(),
    }
    out = os.path.join(_out_dir(args), "decomposition.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
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
    tree, z = _load_tree(args.tree_file)
    target = args.target or CEMETERY
    pair = construct_follmer(tree, z, target)
    if target != CEMETERY and pair.killed_mass() == 0:
        print(
            "refusing a freeze target for a martingale: no mass is lost, "
            "the freeze pair would not differ from the cemetery pair",
            file=sys.stderr,
        )
        return EXIT_USAGE
    out_dir = _out_dir(args)
    pair_path = os.path.join(out_dir, "pair.json")
    pair.to_json(pair_path)
    ledger = verify_ky_all(pair, tree, z, collect_rows=True)
    ledger_path = os.path.join(out_dir, "ky_ledger.csv")
    write_ky_ledger(ledger, ledger_path)
    print(pair_path)
    print(ledger_path)
    return _verdict(ledger)


def cmd_verify(args) -> int:
    tree, z = _load_tree(args.tree_file)
    pair = FollmerPair.from_json(args.pair_file)
    ledger = verify_ky_all(pair, tree, z, collect_rows=True)
    ledger_path = os.path.join(_out_dir(args), "ky_ledger.csv")
    write_ky_ledger(ledger, ledger_path)
    print(ledger_path)
    return _verdict(ledger)


def cmd_uniqueness(args) -> int:
    tree, z = _load_tree(args.tree_file)
    pair = construct_follmer(tree, z, CEMETERY)
    rep = uniqueness_report(tree, z, pair)
    out = os.path.join(_out_dir(args), "uniqueness.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(rep.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return EXIT_OK


def cmd_witness(args) -> int:
    tree, z = _load_tree(args.tree_file)
    cem, frz, tv = nonuniqueness_witness(tree, z, args.freeze_state)
    out_dir = _out_dir(args)
    cem_path = os.path.join(out_dir, "pair_cemetery.json")
    frz_path = os.path.join(out_dir, "pair_freeze.json")
    cem.to_json(cem_path)
    frz.to_json(frz_path)
    with open(os.path.join(out_dir, "witness.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "total_variation": frac_str(tv),
                "pair_cemetery": cem_path,
                "pair_freeze": frz_path,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    print(os.path.join(out_dir, "witness.json"))
    print(f"total variation {frac_str(tv)}")
    return EXIT_OK


def _run_mc(manifest: dict, out_dir: str) -> int:
    result = run_experiment(
        manifest["experiment"],
        int(manifest["seed"]),
        int(manifest["n_paths"]),
        manifest.get("params") or {},
    )
    write_manifest(
        os.path.join(out_dir, "manifest.json"),
        manifest["experiment"],
        int(manifest["seed"]),
        int(manifest["n_paths"]),
        manifest.get("params") or {},
    )
    write_results_csv(result, os.path.join(out_dir, "results.csv"))
    write_plot_data(result, os.path.join(out_dir, "plot.csv"))
    write_report_json(result, os.path.join(out_dir, "report.json"))
    for name in ("manifest.json", "results.csv", "plot.csv", "report.json"):
        print(os.path.join(out_dir, name))
    return EXIT_OK


def cmd_mc(args) -> int:
    manifest = read_manifest(args.manifest_file)
    if args.seed is not None:
        manifest["seed"] = args.seed
    if args.paths is not None:
        manifest["n_paths"] = args.paths
    return _run_mc(manifest, _out_dir(args))


def cmd_gallery(args) -> int:
    if args.name not in GALLERY:
        print(
            f"unknown gallery example {args.name!r}; choose from {sorted(GALLERY)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    manifest = {
        "experiment": args.name,
        "seed": args.seed if args.seed is not None else 0,
        "n_paths": args.paths if args.paths is not None else 10000,
        "params": {},
    }
    return _run_mc(manifest, _out_dir(args))


def cmd_selftest(args) -> int:
    """Quick end-to-end checks of the exact engine and the MC plumbing."""
    import random as _random

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    rng = _random.Random(args.seed if args.seed is not None else 0)
    for idx in range(5):
        tree, z = random_case(rng)
        pair = construct_follmer(tree, z)
        check(f"kill-and-survive identity on random tree {idx}", verify_ky_all(pair, tree, z).ok)
        add = doob_meyer(tree, z)
        mul = multiplicative(tree, z)
        ok = all(
            add.martingale[n] + add.drift.value_on(tree, n) == z[n]
            and mul.martingale[n] * mul.factor.value_on(tree, n) == z[n]
            for n in tree.iter_nodes()
        )
        check(f"decomposition identities on random tree {idx}", ok)
    sp = FiniteMeasurableSpace.build(
        [["1", "2"], ["3", "4"]], [Fraction(1, 2), Fraction(1, 2)]
    )
    ext = bierlein_extend(sp, ["1", "3"])
    check("one-set extension hits outer content", ext.measure(["1", "3"]) == outer_content(sp, ["1", "3"]))
    res = run_experiment("exp_decay", 0, 20000, {})
    dev = res.report["max_abs_dev_sigmas"]
    check(f"exponential law within 3 sigma (worst {dev:.2f})", dev <= 3.0)
    res2 = run_experiment("single_jump", 0, 5000, {})
    check("one-drop family exact endpoints", res2.report["exact_one_before_window"] and res2.report["exact_a_from_anchor"])
    if failures:
        print(f"{len(failures)} selftest check(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print("selftest ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="follmer-lab",
        description=(
            "Construct and verify the measures associated to nonnegative "
            "supermartingales: exactly on finite filtered trees, approximately "
            "by Monte Carlo"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, paths=False):
        sp.add_argument("--out", help="output directory (default: current)")
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if paths:
            sp.add_argument("--paths", type=int, default=None, help="number of Monte-Carlo paths")

    sp = sub.add_parser("decompose", help="additive and multiplicative decompositions of a tree supermartingale")
    sp.add_argument("tree_file")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser(
        "follmer",
        help="construct the Föllmer pair and certify the Kunita-Yoeurp identity at every "
        "node, which covers every stopping time",
    )
    sp.add_argument("tree_file")
    sp.add_argument("--target", default=None, help="cemetery (default) or a freeze-state label")
    common(sp)
    sp.set_defaults(func=cmd_follmer)

    sp = sub.add_parser("verify", help="verify a stored pair file against a tree")
    sp.add_argument("tree_file")
    sp.add_argument("pair_file")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("uniqueness", help="uniqueness diagnostics for the constructed pair")
    sp.add_argument("tree_file")
    common(sp)
    sp.set_defaults(func=cmd_uniqueness)

    sp = sub.add_parser("witness", help="two distinct pairs for a strict supermartingale")
    sp.add_argument("tree_file")
    sp.add_argument("freeze_state")
    common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("mc", help="run a Monte-Carlo experiment from a manifest")
    sp.add_argument("manifest_file")
    common(sp, seed=True, paths=True)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("gallery", help="run a named gallery example")
    sp.add_argument("name")
    common(sp, seed=True, paths=True)
    sp.set_defaults(func=cmd_gallery)

    sp = sub.add_parser("selftest", help="quick end-to-end checks")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeValidationError, FreezeTargetError) as exc:
        node = getattr(exc, "node", None)
        suffix = f" (node {node})" if node else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return EXIT_USAGE
    except FollmerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
