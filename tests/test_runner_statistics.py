"""Only the runners compute statistics: families return paths, runners estimate.

A family or builder under ``src/`` returns paths or per-path values, and the
runners in ``mc/experiments.py`` compute every mean and standard error they
report from them, so each runner holds each claim's estimate and its own
standard error.  No other module names ``mean_and_se`` or
``median_of_means``, or reaches ``np.mean``, ``np.var`` or ``np.std``.
``ALLOWED`` lists the two exceptions: the runners, and ``mc/streams.py``,
which defines the estimators.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ESTIMATORS = {"mean_and_se", "median_of_means"}
NUMPY_STATISTICS = {"mean", "var", "std"}
NUMPY = {"np", "numpy"}
# module -> why it may compute statistics
ALLOWED = {
    "follmer_lab/mc/experiments.py": "the runners estimate what they report",
    "follmer_lab/mc/streams.py": "defines mean_and_se and median_of_means",
}
CHECKED = sorted(p for p in SRC.rglob("*.py") if p.relative_to(SRC).as_posix() not in ALLOWED)


def statistics_used(source: str):
    """(line, name) of each estimator or numpy statistic that ``source`` names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ESTIMATORS:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            if node.attr in ESTIMATORS:
                found.add((node.lineno, node.attr))
            elif node.attr in NUMPY_STATISTICS and isinstance(node.value, ast.Name) and node.value.id in NUMPY:
                found.add((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.lineno, alias.name) for alias in node.names if alias.name in ESTIMATORS)
    return sorted(found)


def test_the_check_sees_a_statistic():
    source = (
        "import numpy as np\n"
        "from .streams import fill_paths, mean_and_se\n"
        "def estimate(x, streams):\n"
        "    m, se = mean_and_se(x)\n"
        "    return m, streams.median_of_means(x), np.var(x), np.std(x)\n"
        "def share(mask):\n"
        "    return float(np.mean(mask))\n"
        "def clean(x, rows):\n"
        "    return np.cumsum(x), rows.mean, np.median(x), x.var\n"
    )
    assert statistics_used(source) == [
        (2, "mean_and_se"),
        (4, "mean_and_se"),
        (5, "median_of_means"),
        (5, "np.std"),
        (5, "np.var"),
        (7, "np.mean"),
    ]


@pytest.mark.parametrize("path", CHECKED, ids=[str(p.relative_to(SRC)) for p in CHECKED])
def test_only_runners_compute_statistics(path):
    assert statistics_used(path.read_text(encoding="utf-8")) == []


def test_every_exception_is_still_used():
    for module in ALLOWED:
        assert statistics_used((SRC / module).read_text(encoding="utf-8")), module
