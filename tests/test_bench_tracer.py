"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` patches the package's public functions by name from
outside, so deleting or renaming one of them breaks every traced benchmark
run.  Installing the tracer and undoing it checks that each name resolves,
and that the undo puts every original back: once in this process, where
every module is loaded, and once in a fresh interpreter that has loaded
only the exact modules and ``gallery``, as a traced ``exact_enum`` run has.
"""

import importlib.util
import json
import os
import subprocess
import sys

import follmer_lab
from follmer_lab.mc import gallery

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _tracer_module()
    before = dict(gallery.EXPERIMENTS), gallery.run_experiment
    patch = tracer.install(tracer.Tracer())
    try:
        for name, fn in gallery.EXPERIMENTS.items():
            assert fn is not before[0][name] and fn.__name__ == before[0][name].__name__
        assert gallery.run_experiment is not before[1]
    finally:
        patch.restore()
    assert (gallery.EXPERIMENTS, gallery.run_experiment) == before


# In the fresh interpreter the experiments are imported by the tracer's own
# reads of gallery.EXPERIMENTS and gallery.run_*, after the layers below them
# are already wrapped.  The script prints what it saw as one JSON line.
FRESH = """
import importlib.util, json, sys
import follmer_lab.cli, follmer_lab.decompositions, follmer_lab.follmer, follmer_lab.trees
from follmer_lab.mc import gallery

loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("follmer_lab.mc."))
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def is_wrapper(value):
    return getattr(getattr(value, "__code__", None), "co_filename", None) == tracer.__file__


def wrapped_sites():
    # every tracer wrapper bound in a package module, one of its dicts or one of its classes
    sites = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("follmer_lab"):
            continue
        for key, val in vars(mod).items():
            pairs = [(key, val)]
            if type(val) is dict:
                pairs += [(f"{key}[{k!r}]", v) for k, v in val.items()]
            elif isinstance(val, type) and val.__module__ == modname:
                pairs += [(f"{key}.{a}", v) for a, v in vars(val).items()]
            sites += [f"{modname}.{k}" for k, v in pairs if is_wrapper(v)]
    return sorted(sites)


patch = tracer.install(tracer.Tracer())
try:
    originals = {name: fn.__wrapped__ for name, fn in gallery.EXPERIMENTS.items() if is_wrapper(fn)}
    during = wrapped_sites()
    own = sorted(k for k in ("EXPERIMENTS", *(f.__name__ for f in originals.values())) if k in vars(gallery))
finally:
    patch.restore()
print(json.dumps({
    "loaded": loaded,
    "n_wrapped": len(originals),
    "during": during,
    "own": own,
    "left": wrapped_sites(),
    "restored": sorted(
        name for name, fn in originals.items()
        if gallery.EXPERIMENTS[name] is fn and getattr(gallery, fn.__name__) is fn
    ),
}))
"""


def test_tracer_installs_and_restores_in_a_fresh_interpreter():
    src = os.path.dirname(os.path.dirname(follmer_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, TRACER],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["loaded"] == ["follmer_lab.mc.gallery"]
    # every experiment was wrapped through the forwarder, which copied
    # nothing into gallery's own namespace
    assert seen["n_wrapped"] == len(gallery.PARAMS)
    assert seen["own"] == []
    assert "follmer_lab.mc.experiments.EXPERIMENTS['bm_check']" in seen["during"]
    assert "follmer_lab.mc.streams.fill_paths" in seen["during"]
    # and every original is back, in the modules imported during install too
    assert seen["left"] == []
    assert seen["restored"] == sorted(gallery.PARAMS)
