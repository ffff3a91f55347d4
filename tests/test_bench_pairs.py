"""``tools/bench_pairs.py``: the summary of alternating benchmark pairs, on synthetic runs."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "cpu_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "yield", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def run(cpu, yld, ops=None, failed=0, kernel=0.004):
    return {
        "metrics": {"cpu_ref_s": cpu, "yield": yld},
        "attempted": 10,
        "failed": failed,
        "correct": failed == 0,
        "kernel_s": kernel,
        "cpu_s": cpu * kernel / 0.004,
        "ops": ops or {},
    }


def pair(seed, parent, change):
    first = "parent" if seed % 2 else "change"
    return {"seed": seed, "first": first, "parent": parent, "change": change, "digests_differ": []}


def test_medians_quartiles_wins_and_bounds():
    parent_cpu = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_cpu = [1.0, 1.5, 3.5, 6.0, 6.5]  # wins once (strictly), ties once
    pairs = [pair(i, run(p, 1.0), run(c, 0.7)) for i, (p, c) in enumerate(zip(parent_cpu, change_cpu))]
    w = bench_pairs.summarize({"w": pairs}, END_TO_END)["workloads"]["w"]
    cpu = w["metrics"]["cpu_ref_s"]
    assert cpu["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert cpu["change"] == {"median": 3.5, "q1": 1.5, "q3": 6.0}
    assert cpu["change_wins"] == 1 and cpu["pairs"] == 5
    assert cpu["ratio_of_medians"] == pytest.approx(3.5 / 3.0, abs=1e-4)
    assert cpu["within_bound"]  # 3.5 <= 3.0 * 1.25
    yld = w["metrics"]["yield"]  # higher is better: 0.7 < 1.0 * 0.75
    assert yld["change_wins"] == 0 and not yld["within_bound"]
    assert w["seeds"] == [0, 1, 2, 3, 4]
    assert w["correct"] and w["failed"] == 0 and w["attempted"] == {"parent": 50, "change": 50}
    assert w["pairs"][1] == {
        "seed": 1,
        "first": "parent",
        "parent": {
            "cpu_ref_s": 2.0, "yield": 1.0, "attempted": 10, "failed": 0, "correct": True, "kernel_s": 0.004, "cpu_s": 2.0,
        },
        "change": {
            "cpu_ref_s": 1.5, "yield": 0.7, "attempted": 10, "failed": 0, "correct": True, "kernel_s": 0.004, "cpu_s": 1.5,
        },
        "digests_differ": [],
        "speed_states_differ": False,
    }
    assert w["speed_states_differ"] == 0


def test_one_pair_and_a_failed_run():
    w = bench_pairs.summarize({"w": [pair(0, run(2.0, 1.0), run(3.0, 1.0, failed=2))]}, END_TO_END)["workloads"]["w"]
    assert w["metrics"]["cpu_ref_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert not w["metrics"]["cpu_ref_s"]["within_bound"]  # 3.0 > 2.0 * 1.25
    assert not w["correct"] and w["failed"] == 2


def test_op_ratios_over_pairs():
    pairs = [
        pair(0, run(1, 1, {"op:a": 2.0, "op:b": 1.0}), run(1, 1, {"op:a": 1.0, "op:b": 1.0})),
        pair(1, run(1, 1, {"op:a": 2.0, "op:b": 1.0}), run(1, 1, {"op:a": 3.0, "op:b": 1.1})),
        pair(2, run(1, 1, {"op:a": 4.0}), run(1, 1, {"op:a": 4.0, "op:c": 1.0})),
    ]
    ratios = bench_pairs.summarize({"w": pairs}, END_TO_END)["op_ratios"]["w"]
    assert ratios == {
        "op:a": {"median": 1.0, "min": 0.5, "max": 1.5},
        "op:b": {"median": 1.05, "min": 1.0, "max": 1.1},
    }


@pytest.mark.parametrize(
    "change, met",
    [
        ([9.0] * 9 + [10.5], True),  # 9 of 10 lower, by more than the parent's IQR
        ([9.0] * 8 + [10.5] * 2, False),  # 8 of 10
        ([9.75] * 10, False),  # 10 of 10, but by less than the parent's IQR
        ([9.0] * 9, False),  # fewer than 10 pairs
    ],
)
def test_claim_needs_nine_of_ten_and_more_than_the_iqr(change, met):
    parent = [9.8, 10.0, 10.2, 10.0, 9.8, 10.2, 10.0, 10.0, 9.8, 10.2][: len(change)]
    pairs = [pair(i, run(p, 1.0), run(c, 1.0)) for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize({"w": pairs}, END_TO_END)["workloads"]
    claim = bench_pairs.check_claim(summary, "w", "cpu_ref_s", "lower")
    assert claim["met"] is met
    assert claim["change_wins"] == sum(c < p for p, c in zip(parent, change))


def test_pairs_run_in_different_speed_states_are_flagged_and_counted():
    # kernels 1.225x apart are one speed state; 1.26x and 1.68x (either side
    # slower) are two
    kernels = [(0.004, 0.0049), (0.004, 0.00504), (0.00672, 0.004), (0.004, 0.004)]
    pairs = [pair(i, run(1.0, 1.0, kernel=k), run(1.0, 1.0, kernel=c)) for i, (k, c) in enumerate(kernels)]
    w = bench_pairs.summarize({"w": pairs}, END_TO_END)["workloads"]["w"]
    assert [p["speed_states_differ"] for p in w["pairs"]] == [False, True, True, False]
    assert w["speed_states_differ"] == 2
    assert [p["parent"]["cpu_s"] for p in w["pairs"]] == pytest.approx([1.0, 1.0, 1.68, 1.0])


def test_digests_differ_and_seed_ranges():
    a = {"op:x": {"f": "1"}, "op:y": {"f": "2"}}
    b = {"op:x": {"f": "1"}, "op:y": {"f": "3"}, "op:z": {"f": "4"}}
    assert bench_pairs.digests_differ(a, b) == ["op:y", "op:z"]
    assert bench_pairs.digests_differ(a, dict(a)) == []
    assert bench_pairs.seed_range("mc_pathwise=3211-3214") == ("mc_pathwise", [3211, 3212, 3213, 3214])
    assert bench_pairs.seed_range("exact_enum=5,9") == ("exact_enum", [5, 9])
