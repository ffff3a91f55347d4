"""The exact subcommands load neither numpy nor the Monte-Carlo modules, and no subcommand loads scipy.

Each case runs in a fresh interpreter, because this test process imported
them all long ago.  Of the ``mc`` package only ``mc.gallery`` may load: it
holds the manifest contract and the writers, and ``cli`` imports it.  The
Monte-Carlo subcommands import the rest when they run, and still work from
a fresh interpreter.  The experiments that need the normal CDF take it from
``mc.normal``, so they load no scipy module either.
"""

import json
import os
import subprocess
import sys

import pytest

import follmer_lab
from follmer_lab.cli import main

# r -> u, d with probability 1/2 each: a strict supermartingale (mean 3/4 < 1)
TREE = {
    "horizon": 1,
    "nodes": [
        {"id": "r", "parent": None, "z": "1/1"},
        {"id": "u", "parent": "r", "prob": "1/2", "state": "u", "z": "1/1"},
        {"id": "d", "parent": "r", "prob": "1/2", "state": "d", "z": "1/2"},
    ],
}

# the statements run, then the heavy modules they left loaded, as one JSON line
LOADED = """
print(json.dumps(sorted(
    m for m in sys.modules
    if m == "numpy" or m.partition(".")[0] == "scipy" or m.startswith("follmer_lab.mc.")
)))
"""


def _fresh(statements, cwd):
    """The heavy modules loaded after ``statements`` run in a new interpreter in ``cwd``."""
    src = os.path.dirname(os.path.dirname(follmer_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + statements + LOADED],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(argv, code=0):
    return (
        "from follmer_lab.cli import main\n"
        f"assert main({argv!r}) == {code}\n"
    )


@pytest.fixture
def tree_dir(tmp_path):
    (tmp_path / "tree.json").write_text(json.dumps(TREE))
    assert main(["follmer", str(tmp_path / "tree.json"), "--out", str(tmp_path / "stored")]) == 0
    return tmp_path


@pytest.mark.parametrize(
    "statements",
    [
        _cli(["decompose", "tree.json", "--out", "out"]),
        _cli(["follmer", "tree.json", "--out", "out"]),
        _cli(["verify", "tree.json", "stored/pair.json", "--out", "out"]),
        _cli(["uniqueness", "tree.json", "--out", "out"]),
        _cli(["witness", "tree.json", "u", "--out", "out"]),
        # a manifest refused before any path is drawn
        _cli(["gallery", "nope", "--out", "out"], code=2),
        "from follmer_lab.mc import gallery\n"
        "gallery.write_manifest('m.json', 'bm_check', 3, 10, {'t_max': 2})\n"
        "assert gallery.read_manifest('m.json') == "
        "{'experiment': 'bm_check', 'seed': 3, 'n_paths': 10, 'params': {'t_max': 2}}\n",
        "from follmer_lab.mc import gallery\n"
        "assert getattr(gallery, '_anything', None) is None\n",
    ],
    ids=["decompose", "follmer", "verify", "uniqueness", "witness", "refused-gallery",
         "manifest-round-trip", "private-getattr"],
)
def test_exact_paths_load_only_gallery(tree_dir, statements):
    assert _fresh(statements, tree_dir) == ["follmer_lab.mc.gallery"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "manifest.json", "--out", "out"],
        ["gallery", "bm_check", "--paths", "10", "--out", "out"],
        ["selftest"],
        ["gallery", "mass_redirect", "--paths", "10", "--out", "out"],
        ["gallery", "split_limit", "--paths", "10", "--out", "out"],
        ["gallery", "reciprocal_bessel", "--paths", "10", "--out", "out"],
    ],
    ids=["mc", "gallery", "selftest", "mass_redirect", "split_limit", "reciprocal_bessel"],
)
def test_monte_carlo_subcommands_run_from_a_fresh_interpreter(tmp_path, argv):
    manifest = {"experiment": "bm_check", "seed": 3, "n_paths": 10, "params": None}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    loaded = _fresh(_cli(argv), tmp_path)
    assert "numpy" in loaded and "follmer_lab.mc.experiments" in loaded
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []
    if argv[0] != "selftest":
        assert (tmp_path / "out" / "report.json").exists()
