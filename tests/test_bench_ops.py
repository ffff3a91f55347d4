"""The benchmark's own operations run and pass their own checks.

``bench/workload.py`` drives the package through the CLI and by library
names from outside, so deleting or renaming a name it calls makes every
benchmark operation fail while the rest of the suite stays green.  Each
workload builder's operations run once here on small or benchmark-sized
inputs from ``bench/inputs.py``, and none of their checks may report a
problem.
"""

import importlib.util
import os
import sys

import pytest

import follmer_lab.cli
import follmer_lab.decompositions
import follmer_lab.follmer
import follmer_lab.trees

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _bench_module(name):
    """``bench/<name>.py``, registered in ``sys.modules`` first, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _bench_module("inputs"), _bench_module("workload")


def _problems(ops):
    found = {}
    for op in ops:
        problems, _ = op.check(op.run())
        if problems:
            found[op.name] = problems
    return found


@pytest.mark.parametrize(
    "builder, workload",
    [
        ("exact_enum_ops", "exact_enum"),
        ("exact_linear_ops", "exact_enum"),  # the small trees: the large ones take seconds
        ("mc_ops", "mc_pathwise"),
        ("mc_ops", "mc_streambound"),
    ],
)
def test_benchmark_operations_pass_their_checks(bench, tmp_path, builder, workload):
    inputs, work = bench
    records = inputs.generate(workload, 1, str(tmp_path / "inputs"))
    ops = getattr(work, builder)(records, str(tmp_path), follmer_lab)
    assert ops
    assert _problems(ops) == {}
