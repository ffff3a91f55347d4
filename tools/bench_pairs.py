"""Run the benchmark on two commits in alternating pairs and summarise the runs.

Each commit is unpacked with ``git archive`` into its own directory under
``--work``, and every run is ``python3 bench/run.py --workload <w> --seed <s>
--seconds <t> --trace 0`` from the root of that checkout, one run at a time,
with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH`` in its environment.
A pair is one seed run on both sides; within a workload the side that runs
first alternates from pair to pair, starting with the parent.  Example, from
the repository root:

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --runs mc_pathwise=3211-3220 --runs exact_enum=3221-3223 \\
        --seconds 24 --claim mc_pathwise:peak_rss_mb --out BENCH_prN.json

The output file holds, per workload, each metric's medians and quartiles
(``statistics.quantiles(n=4, method="inclusive")``) on both sides, the ratio
of the medians, the pairs the change wins (strictly better), and
``within_bound``: the change's median against the parent's, moved by the
metric's bound in ``BENCHMARK.json`` toward worse.  Each pair lists both
runs' metrics, ``attempted``, ``failed``, ``correct``, ``kernel_s`` (the
calibration kernel's median from the run's result file) and ``cpu_s`` (the
run's median raw CPU of an untraced pass, before the kernel rescales it), ``digests_differ``, the
ops whose output digests differ between the sides, and
``speed_states_differ``: whether the two kernels differ by more than
``SPEED_RATIO``, so the host ran the sides in different speed states and
the pair's rescaled CPU is off by several percent.  Each workload counts
those pairs.
``op_ratios`` are the change/parent ratios of each op's untraced median per
pair: their median, min and max over the pairs.  With ``--claim``, the
claimed metric's wins, median difference and parent IQR are checked as a
gain must show: better in at least nine of ten pairs, over at least ten
pairs, and by more than the parent's IQR.  The file is rewritten after every
pair, so an interrupted session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
DIGITS = 4
SPEED_RATIO = 1.25  # the host's two speed states differ by about 1.57x in the kernel
METHOD = (
    "Each side ran from a git archive of its commit, one run at a time, with PYTHONDONTWRITEBYTECODE=1 "
    "and no PYTHONPATH in the environment. Each pair is one seed run on both sides; within each workload "
    "the side that ran first alternates from pair to pair, starting with the parent. Values are the metrics "
    "of each run's result line, rounded to 4 decimals; kernel_s is the run's calibration-kernel median from "
    "its result file, and cpu_s its median raw CPU of an untraced pass (the result file's untraced cpu_s). A pair whose two "
    "kernel_s differ by more than 1.25x is marked speed_states_differ, and each workload counts them. Quartiles are statistics.quantiles(n=4, method='inclusive') over one side's runs; "
    "change_wins counts pairs with the change strictly better; within_bound compares the change's median "
    "with the parent's moved by the metric's BENCHMARK.json bound toward worse. digests_differ lists the ops "
    "whose 'digests' record in bench/_out/<workload>-seed<s>-trace0.json differs between the two sides. "
    "op_ratios are the change/parent ratios of each op's untraced median per pair: median, min and max over "
    "the pairs. Every run made is listed."
)


def quartiles(values: list) -> dict:
    """Median and inclusive quartiles of one side's values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), DIGITS), "q1": round(q1, DIGITS), "q3": round(q3, DIGITS)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b`` for a metric whose ``direction`` is better."""
    return a < b if direction == "lower" else a > b


def summarize_workload(pairs: list, end_to_end: list) -> dict:
    """Per-metric medians, quartiles, wins and bounds over one workload's pairs.

    ``pairs`` holds ``{"parent": run, "change": run}`` entries, where a run
    has ``metrics`` (name -> value), ``attempted``, ``failed`` and
    ``correct``; ``end_to_end`` is ``BENCHMARK.json``'s metric list.
    """
    metrics = {}
    for m in end_to_end:
        name, direction = m["name"], m["better"]
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: quartiles(side[s]) for s in SIDES}
        pm, cm = stats["parent"]["median"], stats["change"]["median"]
        limit = pm * (1 + m["bound"]) if direction == "lower" else pm * (1 - m["bound"])
        metrics[name] = {
            "unit": m["unit"],
            **stats,
            "ratio_of_medians": round(cm / pm, DIGITS) if pm else None,
            "within_bound": cm <= limit if direction == "lower" else cm >= limit,
            "pairs": len(pairs),
            "change_wins": sum(better(c, p, direction) for p, c in zip(side["parent"], side["change"])),
        }
    return {
        "metrics": metrics,
        "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed": sum(p[s]["failed"] for p in pairs for s in SIDES),
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
    }


def op_ratios(pairs: list) -> dict:
    """Median, min and max over the pairs of each op's change/parent untraced median."""
    ratios = {}
    for p in pairs:
        parent, change = p["parent"]["ops"], p["change"]["ops"]
        for op in sorted(set(parent) & set(change)):
            if parent[op] > 0:
                ratios.setdefault(op, []).append(change[op] / parent[op])
    return {
        op: {"median": round(statistics.median(r), 3), "min": round(min(r), 3), "max": round(max(r), 3)}
        for op, r in ratios.items()
    }


def check_claim(summary: dict, workload: str, metric: str, direction: str) -> dict:
    """Whether ``metric`` on ``workload`` shows a gain: 9 of 10 pairs and more than the parent's IQR."""
    m = summary[workload]["metrics"][metric]
    diff = m["parent"]["median"] - m["change"]["median"]
    if direction != "lower":
        diff = -diff
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    return {
        "workload": workload,
        "metric": metric,
        "pairs": m["pairs"],
        "change_wins": m["change_wins"],
        "median_gain": round(diff, DIGITS),
        "parent_iqr": round(iqr, DIGITS),
        "met": m["pairs"] >= 10 and 10 * m["change_wins"] >= 9 * m["pairs"] and diff > iqr,
    }


def summarize(runs: dict, end_to_end: list) -> dict:
    """The workloads' summaries and op ratios from ``runs``: workload -> list of pairs.

    A pair is ``{"seed", "first", "parent": run, "change": run,
    "digests_differ"}``, where a run also carries ``ops`` (op -> untraced
    median), ``kernel_s`` and ``cpu_s``.
    """
    workloads, ratios = {}, {}
    for name, pairs in runs.items():
        workloads[name] = {"seeds": [p["seed"] for p in pairs], **summarize_workload(pairs, end_to_end)}
        workloads[name]["pairs"] = [
            {
                "seed": p["seed"],
                "first": p["first"],
                **{s: {**p[s]["metrics"], **{k: p[s][k] for k in ("attempted", "failed", "correct", "kernel_s", "cpu_s")}}
                   for s in SIDES},
                "digests_differ": p["digests_differ"],
                "speed_states_differ": speed_states_differ(p["parent"]["kernel_s"], p["change"]["kernel_s"]),
            }
            for p in pairs
        ]
        workloads[name]["speed_states_differ"] = sum(p["speed_states_differ"] for p in workloads[name]["pairs"])
        ratios[name] = op_ratios(pairs)
    return {"workloads": workloads, "op_ratios": ratios}


def speed_states_differ(a: float, b: float) -> bool:
    """Whether two runs' calibration kernels differ by more than ``SPEED_RATIO``."""
    return max(a, b) > SPEED_RATIO * min(a, b)


def digests_differ(a: dict, b: dict) -> list:
    """The ops whose digest records differ between two result files' ``digests``."""
    return sorted(op for op in set(a) | set(b) if a.get(op) != b.get(op))


def checkout(rev: str, dest: str) -> str:
    """Unpack commit ``rev`` into the new directory ``dest`` with ``git archive``; return its full hash."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True, capture_output=True, text=True)
    os.makedirs(dest)  # a directory left from another run could hold another commit's files
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")
    return commit.stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in checkout ``root``: its result line and its result file's extras."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(root, "bench", "_out", f"{workload}-seed{seed}-trace0.json"), encoding="utf-8") as fh:
        res = json.load(fh)
    return {
        "metrics": {k: round(v["value"], DIGITS) for k, v in line["metrics"].items()},
        "attempted": line["attempted"],
        "failed": line["failed"],
        "correct": line["correct"],
        "kernel_s": res["kernel_s"],
        "cpu_s": res["untraced"]["cpu_s"],
        "ops": {k: v for k, v in res["untraced"].items() if k.startswith("op:")},
        "digests": res["digests"],
        "environment": res["environment"],
    }


def seed_range(text: str) -> tuple:
    """``workload=first-last`` or ``workload=s1,s2,...`` -> (workload, seeds)."""
    name, _, seeds = text.partition("=")
    if "-" in seeds:
        lo, hi = (int(s) for s in seeds.split("-"))
        return name, list(range(lo, hi + 1))
    return name, [int(s) for s in seeds.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating benchmark pairs of two commits")
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--change", required=True, help="the commit under test")
    p.add_argument("--runs", action="append", type=seed_range, required=True,
                   help="workload=first-last or workload=s1,s2,...: one pair per seed")
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--claim", help="workload:metric that must show a gain")
    p.add_argument("--tag", default="")
    p.add_argument("--work", default=os.path.join(ROOT, "build", "bench_pairs"),
                   help="directory for the two checkouts; must not hold them already")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    commits = {s: checkout(rev, os.path.join(args.work, s)) for s, rev in zip(SIDES, (args.parent, args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs, environment = {}, None
    for workload, seeds in args.runs:
        runs[workload] = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(os.path.join(args.work, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr, flush=True)
            pair["digests_differ"] = digests_differ(pair["parent"]["digests"], pair["change"]["digests"])
            environment = environment or pair["parent"]["environment"]
            runs[workload].append(pair)
            report = {
                "tag": args.tag,
                "parent_commit": commits["parent"],
                "change_commit": commits["change"],
                "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0",
                "method": METHOD,
                "environment": environment,
                **summarize(runs, end_to_end),
            }
            if args.claim:
                name, metric = args.claim.split(":")
                direction = next(m["better"] for m in end_to_end if m["name"] == metric)
                if name in report["workloads"]:
                    report["claim"] = check_claim(report["workloads"], name, metric, direction)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
