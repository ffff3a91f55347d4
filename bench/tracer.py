"""Span tracing of the program's public functions, installed from outside.

The benchmark never edits the package: :func:`install` replaces each traced
function at every binding site inside the loaded ``follmer_lab`` modules
(``from x import f`` copies a reference into the importing module, and the
gallery keeps its experiments in a dict), and the returned :class:`Patch`
puts the originals back.  Spans (name, start, end, parent, invocation) are
kept in memory in flat arrays and written out once, when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  The run is single-threaded, so children never overlap and that
difference is exactly the time not covered by children.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


def _n_variates(size) -> int:
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    n = 1
    for k in size:
        n *= int(k)
    return n


class CountingGenerator:
    """Delegates to a numpy Generator and counts the variates drawn from it.

    Only the two draw methods the MC stack uses are counted; any other
    attribute is delegated unchanged and its name is recorded, so a later
    change that draws some other way shows up instead of being undercounted.
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        self._tracer.counters["mc.streams.variates"] += _n_variates(size)
        return self._gen.standard_normal(size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._tracer.counters["mc.streams.variates"] += _n_variates(size)
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        self._tracer.uncounted_draws.add(name)
        return getattr(self._gen, name)


class Tracer:
    """Per-name call counts, self/total time and failures, plus every span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.failed: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        self.has_spans: List[bool] = []
        self.counters: Dict[str, int] = {
            "trees.stopping_times": 0,
            "follmer.ky_atoms": 0,
            "follmer.ky_nodes": 0,
            "follmer.write_ky_ledger.bytes": 0,
            "mc.streams.variates": 0,
            "mc.gallery.paths": 0,
            "mc.gallery.writer_bytes": 0,
            "cli.main.nonzero_exits": 0,
        }
        self.uncounted_draws: set = set()
        self.invocation = -1
        self.epoch = _now()
        self._stack: List[list] = []  # [span id, name id, child ns]
        self._next_id = 0
        self.sp_id = array("q")
        self.sp_parent = array("q")
        self.sp_inv = array("q")
        self.sp_name = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")

    def name_id(self, name: str, has_spans: bool = True) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.failed, self.self_ns, self.total_ns):
                col.append(0)
            self.has_spans.append(has_spans)
        return self._ids[name]

    def parent_name(self) -> Optional[str]:
        return self.names[self._stack[-1][1]] if self._stack else None

    def span(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``hook(result, args, kwargs)`` may count or replace the result."""
        nid = self.name_id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tr._next_id
            tr._next_id += 1
            parent = tr._stack[-1][0] if tr._stack else -1
            frame = [sid, nid, 0]
            tr._stack.append(frame)
            start = _now()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _now()
                tr._stack.pop()
                dur = end - start
                tr.sp_id.append(sid)
                tr.sp_parent.append(parent)
                tr.sp_inv.append(tr.invocation)
                tr.sp_name.append(nid)
                tr.sp_start.append(start - tr.epoch)
                tr.sp_end.append(end - tr.epoch)
                tr.calls[nid] += 1
                tr.total_ns[nid] += dur
                tr.self_ns[nid] += dur - frame[2]
                if tr._stack:
                    tr._stack[-1][2] += dur
                if not ok:
                    tr.failed[nid] += 1
            if hook is not None:
                result = hook(result, args, kwargs)
            return result

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """Count calls only: for hot helpers (and generators, whose time is spent lazily)."""
        nid = self.name_id(name, has_spans=False)
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> Dict[str, dict]:
        out = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": self.calls[nid]}
            if self.has_spans[nid]:
                entry.update(
                    self_s=self.self_ns[nid] / 1e9,
                    total_s=self.total_ns[nid] / 1e9,
                    failed=self.failed[nid],
                )
            out[name] = entry
        return out

    def write_spans(self, path: str) -> int:
        """Gzipped tab-separated spans, one per line, times in ns since the tracer started."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\tinvocation\tname\tstart_ns\tend_ns\n")
            names = self.names
            for k in range(len(self.sp_id)):
                fh.write(
                    f"{self.sp_id[k]}\t{self.sp_parent[k]}\t{self.sp_inv[k]}\t"
                    f"{names[self.sp_name[k]]}\t{self.sp_start[k]}\t{self.sp_end[k]}\n"
                )
        return len(self.sp_id)


class Patch:
    """Replacements made at every binding site, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Callable, tuple]] = []

    def everywhere(self, orig: Callable, new: Callable) -> int:
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "follmer_lab" or modname.startswith("follmer_lab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((setattr, (mod, key, orig)))
                    sites += 1
                elif type(val) is dict:
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            val[dkey] = new
                            self._undo.append((val.__setitem__, (dkey, orig)))
                            sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site found for {orig!r}")
        return sites

    def method(self, cls: type, attr: str, new: Callable) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, new)
        self._undo.append((setattr, (cls, attr, orig)))

    def restore(self) -> None:
        while self._undo:
            fn, args = self._undo.pop()
            fn(*args)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install(tracer: Tracer) -> Patch:
    """Wrap the public functions of every layer; returns the patch that undoes it."""
    from follmer_lab import cli, decompositions, follmer, trees
    from follmer_lab.mc import bridges, families, fatou, gallery, grids, paths, streams

    patch = Patch()
    c = tracer.counters

    def spans(module, prefix: str, names, hooks: Optional[dict] = None) -> None:
        for fname in names:
            orig = getattr(module, fname)
            hook = (hooks or {}).get(fname)
            patch.everywhere(orig, tracer.span(orig, f"{prefix}.{fname}", hook))

    # trees: build/validate, the supermartingale check, enumeration, and
    # call counts of the structural walks a cached layout would replace
    FT = trees.FilteredTree
    patch.method(FT, "__init__", tracer.span(FT.__init__, "trees.FilteredTree"))
    for meth in ("iter_nodes", "nodes_at_depth", "ancestor_at"):
        patch.method(FT, meth, tracer.counted(FT.__dict__[meth], f"trees.{meth}"))

    def stopping_times(result, args, kwargs):
        c["trees.stopping_times"] += len(result)
        return result

    spans(trees, "trees", ("is_supermartingale", "enumerate_stopping_times"),
          {"enumerate_stopping_times": stopping_times})

    spans(decompositions, "decompositions", ("doob_meyer", "multiplicative", "left_limit_smoothing"))

    def ky_all(result, args, kwargs):
        c["follmer.ky_nodes"] += len(_arg(args, kwargs, 1, "tree").parent)
        return result

    def ky_one(result, args, kwargs):
        atoms = len(_arg(args, kwargs, 3, "rho").nodes)
        c["follmer.ky_atoms"] += atoms
        if tracer.parent_name() != "follmer.verify_ky_all":
            c["follmer.ky_nodes"] += atoms
        return result

    def ledger_bytes(result, args, kwargs):
        c["follmer.write_ky_ledger.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        return result

    spans(
        follmer,
        "follmer",
        ("verify_ky_all", "verify_ky", "write_ky_ledger", "construct_follmer",
         "uniqueness_report", "nonuniqueness_witness"),
        {"verify_ky_all": ky_all, "verify_ky": ky_one, "write_ky_ledger": ledger_bytes},
    )

    def counting_generator(result, args, kwargs):
        return CountingGenerator(result, tracer)

    spans(streams, "mc.streams", ("path_generator", "fill_paths", "mean_and_se", "median_of_means"),
          {"path_generator": counting_generator})
    spans(families, "mc.families",
          ("localized_suicide_family", "mass_redirect", "split_limit_demo", "extended_approx"))
    spans(fatou, "mc.fatou", ("fatou_approx", "fatou_path", "fatou_probe_error"))
    spans(bridges, "mc.bridges", ("bridge_exponential", "suicide_martingale", "bridge_increment_values"))
    spans(paths, "mc.paths", ("simulate_bm",))
    GS = grids.GridSpec
    patch.method(GS, "points", tracer.span(GS.points, "mc.grids.GridSpec.points"))

    spans(gallery, "mc.gallery", sorted(f.__name__ for f in gallery.EXPERIMENTS.values()))

    def experiment_paths(result, args, kwargs):
        c["mc.gallery.paths"] += int(_arg(args, kwargs, 2, "n_paths"))
        return result

    spans(gallery, "mc.gallery", ("run_experiment",), {"run_experiment": experiment_paths})

    def writer_bytes(pos: int, name: str):
        def hook(result, args, kwargs):
            c["mc.gallery.writer_bytes"] += os.path.getsize(_arg(args, kwargs, pos, name))
            return result

        return hook

    spans(
        gallery,
        "mc.gallery",
        ("write_manifest", "write_results_csv", "write_plot_data", "write_report_json"),
        {
            "write_manifest": writer_bytes(0, "path"),
            "write_results_csv": writer_bytes(1, "path"),
            "write_plot_data": writer_bytes(1, "path"),
            "write_report_json": writer_bytes(1, "path"),
        },
    )

    def exit_code(result, args, kwargs):
        if result != 0:
            c["cli.main.nonzero_exits"] += 1
        return result

    spans(cli, "cli", ("main",), {"main": exit_code})
    return patch
