"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` patches the package's public functions by name from
outside, so deleting or renaming one of them breaks every traced benchmark
run.  Installing the tracer and undoing it checks that each name resolves,
and that the undo puts every original back.
"""

import importlib.util
import os

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
