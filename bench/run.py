"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 bench/run.py --workload exact_linear --seed 1 --seconds 20 --trace 0

Each run is isolated: the workload runs in a fresh child process (one at a
time, no threads) whose environment drops ``FOLLMER_LAB_THREADS`` and puts
only this checkout's ``src`` on ``PYTHONPATH``.  Set-up (importing the
package and generating the inputs) is timed in that child and in four more
fresh set-up-only children, and ``setup_s`` is their median.  Times in the
result line are CPU seconds rescaled by a calibration kernel (see
``workload.py``), because raw times on a shared host drift too far between
runs to resolve anything.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json, ``--trace 1`` the per-layer
ones.  The line before it (``detail: {...}``) and the file under
``bench/_out/`` carry everything else: the per-subcommand breakdown, the
inputs' sizes, the environment and, for traced runs, every wrapped
function's calls, self time and failures, plus the path of the spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # fresh set-ups per run, the workload's own included
CHILD_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FOLLMER_LAB_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    # numpy's BLAS would otherwise start a worker per core at import; the
    # program makes no BLAS calls big enough to use them, and idle workers
    # would share the cores with the one thread being measured
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(root: str, argv: list) -> dict:
    result = argv[argv.index("--result") + 1]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py")] + argv,
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer(res: dict) -> dict:
    """Per-layer metrics of a traced run, per traced pass."""
    n = res["traced_passes"]
    wall = res["traced_wall_s"]
    out = {}
    for name, entry in res["layers"].items():
        out[f"{name}.calls"] = entry["calls"] / n
        if "self_s" in entry:
            out[f"{name}.self_share"] = entry["self_s"] / wall
            out[f"{name}.total_share"] = entry["total_s"] / wall
            out[f"{name}.failed"] = entry["failed"] / n
    c = res["counters"]
    for key in ("trees.stopping_times", "follmer.ky_atoms", "follmer.write_ky_ledger.bytes",
                "mc.streams.variates", "mc.gallery.writer_bytes", "cli.main.nonzero_exits"):
        out[key] = c[key] / n
    # useful work per KY atom comparison: nodes certified / atoms compared
    out["follmer.ky_atom_yield"] = c["follmer.ky_nodes"] / c["follmer.ky_atoms"] if c["follmer.ky_atoms"] else 0.0
    generators = res["layers"]["mc.streams.path_generator"]["calls"]
    out["mc.streams.generators_per_path"] = generators / c["mc.gallery.paths"] if c["mc.gallery.paths"] else 0.0
    out["trace.failed"] = sum(e.get("failed", 0) for e in res["layers"].values()) / n
    out["trace.overhead_frac"] = res["overhead_frac"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload and print its metrics")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "follmer_lab", "__init__.py")):
        return fail("no src/follmer_lab here: run from the root of a checkout of the repository")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for k in range(SETUP_REPEATS - 1):
            wk = os.path.join(work, f"setup{k}")
            os.makedirs(wk)
            setups.append(run_child(root, base + ["--work", wk, "--result", os.path.join(wk, "r.json"), "--setup-only"]))
        wk = os.path.join(work, "run")
        os.makedirs(wk)
        res = run_child(root, base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                      "--work", wk, "--result", os.path.join(out_dir, f"{tag}.json")])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)
    for key in ("setup_s", "setup_cpu_s", "setup_wall_s"):
        res[f"{key}_runs"] = [r[key] for r in setups]

    e2e = dict(res["untraced"], setup_s=statistics.median(res["setup_s_runs"]), peak_rss_mb=res["peak_rss_mb"])
    layers = per_layer(res) if args.trace else {}
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    res.update(end_to_end=e2e, fail_frac=res["failed"] / res["attempted"])
    if args.trace:
        res["per_layer"] = layers
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    # the full record is in the file; the line leaves out the bulky parts
    detail = {k: v for k, v in res.items() if k not in ("layers", "untraced_rows", "digests", "per_layer")}
    detail["inputs"] = [
        {k: v for k, v in r.items() if k != "stopping_times" or len(v) <= 20} for r in res["inputs"]
    ]
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
