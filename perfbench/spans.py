"""Span tracer for the traced benchmark run.

Wraps public loopsoup functions, from outside the package, so that each
call records a span: name, start, end and the span that caused it. Spans
live in flat arrays in memory and are written out once, when the run ends.
A layer's self time is a span's duration minus the time of its direct
children; the per-layer metrics are sums of self times and counters.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Every loopsoup namespace holding the same
# object gets the wrapper, e.g. both cli.enumerate_measure and
# soup.enumerate_measure.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("graphs", "parse_graph", "graphs.parse_graph"),
    ("graphs", "spanning_tree_frame", "graphs.spanning_tree_frame"),
    ("freegroup", "enumerate_geodesic_classes", "freegroup.enumerate_geodesic_classes"),
    ("freegroup", "loop_to_word", "freegroup.loop_to_word"),
    ("freegroup", "canonical_class", "freegroup.canonical_class"),
    ("signature", "homology1", "signature.homology1"),
    ("signature", "homology2", "signature.homology2"),
    ("signature", "homology3", "signature.homology3"),
    ("signature", "log_signature", "signature.log_signature"),
    ("signature", "degree_and_lead", "signature.degree_and_lead"),
    ("signature", "lyndon_coordinates", "signature.lyndon_coordinates"),
    ("soup", "enumerate_measure", "soup.enumerate_measure"),
    ("soup", "tail_bound", "soup.tail_bound"),
    ("soup", "spectral_radius", "soup.spectral_radius"),
    ("soup", "occupation", "soup.occupation"),
    ("spectra", "solve_rho", "spectra.solve_rho"),
    ("spectra", "class_intensity", "spectra.class_intensity"),
    ("spectra", "contractible_intensity", "spectra.contractible_intensity"),
    ("spectra", "ihara_check", "spectra.ihara_check"),
    ("fourier", "twisted_log_det", "fourier.twisted_log_det"),
    ("fourier", "homology1_grid", "fourier.homology1_grid"),
    ("fourier", "homology1_intensity", "fourier.homology1_intensity"),
    ("fourier", "homology1_field_law", "fourier.homology1_field_law"),
    ("fourier", "nilpotent_rep", "fourier.nilpotent_rep"),
    ("fourier", "homology2_intensity", "fourier.homology2_intensity"),
    ("fourier", "homology2_field_law", "fourier.homology2_field_law"),
    ("fourier", "holonomy_class_intensities", "fourier.holonomy_class_intensities"),
]

# (module, class, method, span name)
METHODS = [
    ("soup", "LoopSoupSampler", "__init__", "soup.sampler_setup"),
    ("soup", "LoopSoupSampler", "sample", "soup.sample"),
]

LAYERS = ("cli", "graphs", "freegroup", "signature", "soup", "spectra", "fourier")

# The root span of every query; its self time is the client's own work.
QUERY = "client.query"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def maximum(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0.0):
            self.counts[key] = value

    def wrap(self, fn, name: str, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.finish(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.finish(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "loopsoup" or modname.startswith("loopsoup.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced loopsoup function, method and, inside fourier
        spans only, numpy.linalg.eigvalsh."""
        import importlib

        hooks = _hooks(self)
        for mod, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(f"loopsoup.{mod}"), attr)
            after, on_error = hooks.get(name, (None, None))
            self._replace_everywhere(original, self.wrap(original, name, after, on_error))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"loopsoup.{mod}"), cls_name)
            original = cls.__dict__[meth]
            after, on_error = hooks.get(name, (None, None))
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name, after, on_error))

        eigvalsh = np.linalg.eigvalsh
        tracer = self

        @functools.wraps(eigvalsh)
        def traced_eigvalsh(a, *args, **kwargs):
            caller = tracer.current()
            if caller is None or not caller.startswith("fourier."):
                return eigvalsh(a, *args, **kwargs)
            tracer.maximum("fourier.eig_dim_max", np.shape(a)[-1])
            idx = tracer.begin("fourier.eigvalsh")
            try:
                return eigvalsh(a, *args, **kwargs)
            finally:
                tracer.finish(idx)

        self._undo.append((np.linalg, "eigvalsh", eigvalsh))
        np.linalg.eigvalsh = traced_eigvalsh

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        if not self.start:
            return {}, {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return ({n: float(self_s[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def write(self, path) -> None:
        """One span a line: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded where the work happens: span name ->
    (after(args, result), on_error(exc))."""
    counts = tracer.counts

    def grid(args, result):
        m = args[2]
        counts["fourier.homology1_grid.points"] += m ** args[1].rank
        tracer.maximum("fourier.grid_M_max", m)

    def enumerated(args, result):
        counts["soup.enumerate_measure.classes"] += len(result.masses)

    def sampled(args, result):
        counts["soup.loops_drawn"] += len(result.loops)
        counts["soup.loop_steps"] += sum(loop.length for loop in result.loops)

    from loopsoup import spectra
    cache_info = spectra.solve_rho.cache_info
    misses = [cache_info().misses]

    def rho_solved(args, result):
        now = cache_info().misses
        if now != misses[0]:
            counts["spectra.solve_rho.iterations"] += result.iterations
            misses[0] = now
        if tracer.current() == "spectra.contractible_intensity":
            counts["spectra.contractible_intensity.nodes"] += 1

    def rho_failed(exc):
        misses[0] = cache_info().misses
        counts["spectra.solve_rho.failed"] += 1

    return {
        "fourier.homology1_grid": (grid, None),
        "soup.enumerate_measure": (enumerated, None),
        "soup.sample": (sampled, None),
        "spectra.solve_rho": (rho_solved, rho_failed),
    }


# Counters recorded by the hooks above, reported as they are.
COUNTERS = ("fourier.homology1_grid.points", "fourier.grid_M_max",
            "fourier.eig_dim_max", "soup.enumerate_measure.classes",
            "soup.loops_drawn", "soup.loop_steps", "spectra.solve_rho.iterations",
            "spectra.solve_rho.failed", "spectra.contractible_intensity.nodes")


def layer_metrics(tracer: Tracer, cache_hits: int, out_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name: self time and
    calls of every span, the counters, and the self time of each layer."""
    self_s, calls = tracer.self_times()
    m: dict[str, float] = {}
    for name in [entry[-1] for entry in FUNCTIONS + METHODS] + ["fourier.eigvalsh"]:
        m[f"{name}.self_s" if name == "cli.main" else f"{name}.s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    for key in COUNTERS:
        m[key] = tracer.counts.get(key, 0.0)
    m["spectra.solve_rho.cache_hits"] = cache_hits
    m["cli.out_bytes"] = out_bytes
    layer = {name: 0.0 for name in LAYERS}
    for name, value in self_s.items():
        prefix = name.split(".", 1)[0]
        if prefix in layer:
            layer[prefix] += value
    m["fourier.assembly_s"] = layer["fourier"] - self_s.get("fourier.eigvalsh", 0.0)
    for name in LAYERS:
        m[f"layer.{name}.self_s"] = layer[name]
    m["layer.client.self_s"] = self_s.get(QUERY, 0.0)
    return m

