"""One benchmark workload in its own process: set up, run passes, check every output.

A workload is a fixed list of operations, each an in-process
``follmer_lab.cli.main(argv)`` call or a library call, run one after another
(one closed-loop caller, no threads).  One pass runs the whole list; passes
repeat until ``--seconds`` have elapsed, and at least one always runs.
Every operation's outputs are checked after it returns, outside its timing;
a mismatch counts that operation as failed instead of stopping the run.

With ``--trace 1`` untraced and traced passes alternate, so the run gives
both the per-layer numbers and the tracing overhead, and the traced passes
must reproduce the untraced passes' output digests byte for byte.

Normally started by ``bench/run.py``; by hand, from the repository root::

    PYTHONPATH=src python3 bench/workload.py --workload exact_linear --seed 1 \\
        --seconds 10 --trace 0 --work /tmp/w --result /tmp/w/result.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from typing import Callable, Dict, List, Optional

# Subcommand time metrics, keyed by the CLI subcommand that feeds them.
SUBCOMMAND_METRICS = ("decompose", "follmer", "verify", "uniqueness", "witness", "selftest")
# Freeze state for `witness`: a symbol no generated tree uses, so it is
# admissible on every tree (no charged path can sit at it).
FREEZE_STATE = "x"


@dataclass
class Op:
    """One timed call.  ``run`` does the work; ``check`` inspects its result afterwards.

    ``check`` returns a list of problems (empty when correct) and a dict of
    output digests, which must be identical on every pass.
    """

    name: str
    metric: Optional[str]  # subcommand metric it feeds, if any
    run: Callable[[], object]
    check: Callable[[object], tuple]
    nodes: int = 0  # tree nodes processed by a library pipeline call
    paths: int = 0  # Monte-Carlo paths produced by an `mc` or `gallery` call


def file_digest(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def ledger_verdict(path: str) -> tuple:
    """(rows, rows whose `equal` column is not `true`) of a KY ledger CSV."""
    rows = bad = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[-1] != "equal":
            return 0, 1
        for line in fh:
            rows += 1
            if not line.endswith(",true\n"):
                bad += 1
    return rows, bad


class CLI:
    """Calls ``follmer_lab.cli.main`` in-process, capturing what it prints.

    The function is looked up on the module at every call, so a traced pass
    goes through the patched binding.
    """

    def __init__(self, cli_module):
        self.cli = cli_module

    def __call__(self, argv: List[str]) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()


def _cli_problems(res: tuple) -> List[str]:
    rc, out, err = res
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-300:]}"]
    return []


def _file_check(out_dir: str, names: List[str], extra: Optional[Callable] = None) -> Callable:
    def check(res):
        problems = _cli_problems(res)
        digests = {}
        if not problems:
            for n in names:
                path = os.path.join(out_dir, n)
                if not os.path.isfile(path):
                    problems.append(f"missing output {n}")
                else:
                    digests[n] = file_digest(path)
            if extra is not None and not problems:
                problems += extra(res)
        return problems, digests

    return check


# -- workloads ------------------------------------------------------------------


def exact_enum_ops(records: List[dict], work: str, fl) -> List[Op]:
    """Small trees on which stopping-time enumeration does almost all the work."""
    call = CLI(fl.cli)
    ops: List[Op] = []
    for rec in records:
        tree_file, name = rec["path"], rec["name"]
        out = os.path.join(work, "out", name)
        count = rec["stopping_times"]

        def verified(res, ledger, count=count) -> List[str]:
            problems = _cli_problems(res)
            if problems:
                return problems
            if res[1].splitlines()[-1:] != [f"all {count} stopping times verified"]:
                problems.append(f"verification message does not report {count} stopping times")
            rows, bad = ledger_verdict(ledger)
            if rows == 0 or bad:
                problems.append(f"ledger has {rows} rows, {bad} not equal")
            return problems

        def check_follmer(res, out=out, stored=rec["pair"], verified=verified):
            problems = verified(res, os.path.join(out, "follmer", "ky_ledger.csv"))
            pair = os.path.join(out, "follmer", "pair.json")
            if not problems and file_digest(pair) != file_digest(stored):
                problems.append("CLI pair differs from the library-built stored pair")
            return problems, ({} if problems else {"pair.json": file_digest(pair)})

        def check_verify(res, out=out, verified=verified):
            return verified(res, os.path.join(out, "verify", "ky_ledger.csv")), {}

        ops.append(Op(f"follmer:{name}", "follmer",
                      lambda a=["follmer", tree_file, "--out", os.path.join(out, "follmer")]: call(a),
                      check_follmer))
        ops.append(Op(f"verify:{name}", "verify",
                      lambda a=["verify", tree_file, rec["pair"], "--out", os.path.join(out, "verify")]: call(a),
                      check_verify))
        for sub, produced in (("uniqueness", "uniqueness.json"), ("decompose", "decomposition.json")):
            ops.append(Op(f"{sub}:{name}", sub,
                          lambda a=[sub, tree_file, "--out", os.path.join(out, sub)]: call(a),
                          _file_check(os.path.join(out, sub), [produced])))

        def smoothing(path=tree_file):
            tree, z = fl.trees.FilteredTree.from_json(path)
            return tree, fl.decompositions.left_limit_smoothing(tree, z, 2)

        def check_smoothing(result):
            tree, sm = result
            rep = sm.limit_report
            problems = []
            if not rep.ok or rep.guaranteed != rep.guaranteed_equal or rep.positions == 0:
                problems.append(
                    f"smoothing limit report: ok={rep.ok} guaranteed={rep.guaranteed} "
                    f"guaranteed_equal={rep.guaranteed_equal} positions={rep.positions}"
                )
            h = sha256()
            for leaf in sorted(sm.martingale_path):
                for v in sm.martingale_path[leaf] + sm.drift_path[leaf]:
                    h.update(fl.trees.frac_str(v).encode() + b";")
            h.update(repr((rep.positions, rep.equal, rep.guaranteed, rep.stuck)).encode())
            return problems, {"smoothing": h.hexdigest()}

        ops.append(Op(f"smoothing:{name}", None, smoothing, check_smoothing))
    return ops


def exact_linear_ops(records: List[dict], work: str, fl) -> List[Op]:
    """Large trees that enumeration cannot touch: Fraction arithmetic and tree walks."""
    call = CLI(fl.cli)
    ops: List[Op] = []
    for rec in records:
        tree_file, name = rec["path"], rec["name"]
        out = os.path.join(work, "out", name)
        library_pair: Dict[str, bytes] = {}

        def pipeline(path=tree_file):
            tree, z = fl.trees.FilteredTree.from_json(path)
            rep = fl.trees.is_supermartingale(tree, z)
            add = fl.decompositions.doob_meyer(tree, z)
            mul = fl.decompositions.multiplicative(tree, z)
            pair = fl.follmer.construct_follmer(tree, z)
            ky = [
                fl.follmer.verify_ky(pair, tree, z, fl.trees.StoppingTime.constant(tree, t))
                for t in range(tree.horizon + 1)
            ]
            return tree, z, rep, add, mul, pair, ky

        def check_pipeline(result, out=out, library_pair=library_pair):
            tree, z, rep, add, mul, pair, ky = result
            problems = []
            if not rep.ok:
                problems.append(f"input is not a supermartingale: {rep.reason}")
            if pair.total_mass() != 1:
                problems.append(f"pair mass {pair.total_mass()} != 1")
            bad_ky = [t for t, r in enumerate(ky) if not r.ok]
            if bad_ky:
                problems.append(f"KY fails at constant times {bad_ky[:5]}")
            covered = sum(len(r.rows) for r in ky)
            if covered < len(tree.parent):
                problems.append(f"constant times cover {covered} of {len(tree.parent)} nodes")
            for n in tree.iter_nodes():
                if add.martingale[n] + add.drift.value_on(tree, n) != z[n]:
                    problems.append(f"Z != M + D at {n}")
                    break
                if mul.martingale[n] * mul.factor.value_on(tree, n) != z[n]:
                    problems.append(f"Z != M * D at {n}")
                    break
            os.makedirs(out, exist_ok=True)
            pair_path = os.path.join(out, "library_pair.json")
            pair.to_json(pair_path)
            with open(pair_path, "rb") as fh:
                library_pair["bytes"] = fh.read()
            library_pair["killed"] = fl.trees.frac_str(pair.killed_mass())
            return problems, {"pair": sha256(library_pair["bytes"]).hexdigest()}

        ops.append(Op(f"pipeline:{name}", None, pipeline, check_pipeline, nodes=rec["nodes"]))
        for sub, produced in (("decompose", "decomposition.json"), ("uniqueness", "uniqueness.json")):
            ops.append(Op(f"{sub}:{name}", sub,
                          lambda a=[sub, tree_file, "--out", os.path.join(out, sub)]: call(a),
                          _file_check(os.path.join(out, sub), [produced])))

        def witness_identities(res, out=out, library_pair=library_pair) -> List[str]:
            problems = []
            wdir = os.path.join(out, "witness")
            with open(os.path.join(wdir, "pair_cemetery.json"), "rb") as fh:
                if fh.read() != library_pair.get("bytes"):
                    problems.append("witness cemetery pair differs from the library pair")
            with open(os.path.join(wdir, "witness.json"), "r", encoding="utf-8") as fh:
                tv = json.load(fh)["total_variation"]
            # the two pairs differ exactly on the killed outcomes
            if tv != library_pair.get("killed"):
                problems.append(f"total variation {tv} != lost mass {library_pair.get('killed')}")
            if Fraction(tv) <= 0:
                problems.append("witness pairs do not differ")
            return problems

        wdir = os.path.join(out, "witness")
        ops.append(Op(f"witness:{name}", "witness",
                      lambda a=["witness", tree_file, FREEZE_STATE, "--out", wdir]: call(a),
                      _file_check(wdir, ["pair_cemetery.json", "pair_freeze.json", "witness.json"],
                                  witness_identities)))
    return ops


# Report flags that hold exactly, for every seed, in each experiment.
EXACT_FLAGS = {
    "single_jump": ("exact_one_before_window", "exact_a_from_anchor"),
    "suicide": ("plateau_identity_exact", "start_value_exact"),
}
MC_OUTPUTS = ["manifest.json", "results.csv", "plot.csv", "report.json"]


def _mc_check(out_dir: str, experiment: str, manifest: dict) -> Callable:
    def identities(res) -> List[str]:
        problems = []
        with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            if json.load(fh) != manifest:
                problems.append("written manifest differs from the run's manifest")
        with open(os.path.join(out_dir, "results.csv"), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # `suicide` reports through report.json and plot.csv only, so an
        # empty table is valid; a NaN estimate never is
        if not lines or not lines[0].startswith("t,estimate") or any("nan" in line for line in lines[1:]):
            problems.append("results.csv lacks its header or holds NaN")
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        for flag in EXACT_FLAGS.get(experiment, ()):
            if report.get(flag) is not True:
                problems.append(f"report flag {flag} is {report.get(flag)!r}")
        return problems

    return _file_check(out_dir, MC_OUTPUTS, identities)


def mc_ops(records: List[dict], work: str, fl) -> List[Op]:
    """`mc` on manifests, `gallery` by name, and `selftest`, as the records list them."""
    call = CLI(fl.cli)
    ops: List[Op] = []
    for rec in records:
        name = rec["name"]
        out = os.path.join(work, "out", name)
        if rec["kind"] == "manifest":
            with open(rec["path"], "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            ops.append(Op(f"mc:{name}", None,
                          lambda a=["mc", rec["path"], "--out", out]: call(a),
                          _mc_check(out, name, manifest), paths=rec["paths"]))
        elif rec["kind"] == "gallery":
            manifest = {"experiment": name, "seed": rec["seed"], "n_paths": rec["paths"], "params": {}}
            argv = ["gallery", name, "--seed", str(rec["seed"]), "--paths", str(rec["paths"]), "--out", out]
            ops.append(Op(f"gallery:{name}", None, lambda a=argv: call(a),
                          _mc_check(out, name, manifest), paths=rec["paths"]))
        else:

            def check_selftest(res):
                problems = _cli_problems(res)
                if not problems and res[1].splitlines()[-1:] != ["selftest ok"]:
                    problems.append("selftest did not report ok")
                return problems, {"stdout": sha256(res[1].encode()).hexdigest()}

            ops.append(Op("selftest", "selftest",
                          lambda a=["selftest", "--seed", str(rec["seed"])]: call(a), check_selftest))
    return ops


BUILDERS = {
    "exact_enum": exact_enum_ops,
    "exact_linear": exact_linear_ops,
    "mc_pathwise": mc_ops,
    "mc_streambound": mc_ops,
}


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    traced: bool
    times: Dict[str, float] = field(default_factory=dict)
    cpu: Dict[str, tuple] = field(default_factory=dict)  # thread CPU time at start and end
    cpu_ref: Dict[str, float] = field(default_factory=dict)  # CPU time at reference speed
    problems: Dict[str, List[str]] = field(default_factory=dict)


def run_pass(ops: List[Op], traced: bool, tracer, digests: Dict[str, dict], first_op: int) -> PassResult:
    res = PassResult(traced)
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.invocation = first_op + k
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            value = op.run()
            error = None
        except Exception as exc:  # a crash is one failed operation, not a failed run
            value, error = None, f"{type(exc).__name__}: {exc}"
        res.times[op.name] = time.perf_counter() - start
        res.cpu[op.name] = (cpu_start, time.thread_time())
        if error is not None:
            res.problems[op.name] = [error]
            continue
        try:
            problems, got = op.check(value)
        except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
            problems, got = [f"output check failed: {type(exc).__name__}: {exc}"], {}
        ref = digests.setdefault(op.name, got)
        if got != ref:
            changed = sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
            problems = problems + [f"output digest changed between passes: {changed}"]
        if problems:
            res.problems[op.name] = problems
    return res


def pass_metrics(ops: List[Op], p: PassResult) -> dict:
    t = p.cpu_ref
    m = {
        "wall_s": sum(p.times.values()),
        "cpu_s": sum(end - start for start, end in p.cpu.values()),
        "cpu_ref_s": sum(t.values()),
    }
    m.update({f"op:{name}": v for name, v in t.items()})
    for sub in SUBCOMMAND_METRICS:
        if any(op.metric == sub for op in ops):
            m[f"{sub}_s"] = sum(t[op.name] for op in ops if op.metric == sub)
    nodes = sum(op.nodes for op in ops)
    if nodes:
        m["nodes_per_s"] = nodes / sum(t[op.name] for op in ops if op.nodes)
    paths = sum(op.paths for op in ops)
    if paths:
        m["paths_per_s"] = paths / sum(t[op.name] for op in ops if op.paths)
    return m


def medians(rows: List[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def environment(np, scipy) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import platform

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload in this process")
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = p.parse_args()

    # set-up: importing the package and generating the inputs
    start, cpu_start = time.perf_counter(), time.thread_time()
    import follmer_lab.cli
    import follmer_lab.decompositions
    import follmer_lab.follmer
    import follmer_lab.trees
    import inputs

    records = inputs.generate(args.workload, args.seed, os.path.join(args.work, "inputs"))
    setup_cpu_s = time.thread_time() - cpu_start
    setup_wall_s = time.perf_counter() - start
    import calibrate
    import numpy

    speed = statistics.median(calibrate.timed_kernel(numpy) for _ in range(9))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_cpu_s * calibrate.KERNEL_REF_S / speed,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    import scipy
    import tracer as tracing

    ops = BUILDERS[args.workload](records, args.work, follmer_lab)
    tracer = tracing.Tracer() if args.trace else None
    digests: Dict[str, dict] = {}
    passes: List[PassResult] = []
    sampler = calibrate.SpeedSampler(numpy)
    sampler.start()
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        patch = tracing.install(tracer) if traced else None
        try:
            passes.append(run_pass(ops, traced, tracer, digests, len(passes) * len(ops)))
        finally:
            if patch is not None:
                patch.restore()
        # start another pass only if it should end within --seconds, so a
        # run's length does not jump by a whole pass when a pass takes a
        # little more or less than the budget's remainder
        walls = [sum(q.times.values()) for q in passes]
        done = time.perf_counter() - t_begin + statistics.median(walls) > args.seconds
        if done and (not args.trace or len(passes) >= 2):
            break
    sampler.stop()
    for q in passes:
        q.cpu_ref = {name: sampler.rescale(*span) for name, span in q.cpu.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [pass_metrics(ops, q) for q in passes if not q.traced]
    traced_rows = [pass_metrics(ops, q) for q in passes if q.traced]
    attempted = len(ops) * len(passes)
    failures = {f"pass{i}:{name}": probs for i, q in enumerate(passes) for name, probs in q.problems.items()}
    result.update(
        passes=len(passes),
        untraced=medians(untraced),
        untraced_rows=untraced,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=len(failures),
        failures=dict(list(failures.items())[:20]),
        digests=digests,
        inputs=[{k: v for k, v in r.items() if k not in ("path", "pair")} for r in records],
        environment=environment(numpy, scipy),
        kernel_s=statistics.median(d for _, d in sampler.probes),
        probes=len(sampler.probes),
    )
    if tracer is not None:
        n_traced = len(traced_rows)
        traced_wall = sum(r["wall_s"] for r in traced_rows)
        result.update(
            traced=medians(traced_rows),
            traced_passes=n_traced,
            traced_wall_s=traced_wall,
            overhead_frac=medians(traced_rows)["cpu_ref_s"] / medians(untraced)["cpu_ref_s"] - 1.0,
            layers=tracer.summary(),
            counters=dict(tracer.counters),
            uncounted_draws=sorted(tracer.uncounted_draws),
        )
        # one spans file per workload, replaced by its next traced run
        spans_path = os.path.join(os.path.dirname(args.result), f"{args.workload}.spans.tsv.gz")
        result["spans_file"] = spans_path
        result["spans"] = tracer.write_spans(spans_path)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
