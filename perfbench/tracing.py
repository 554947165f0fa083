"""Spans around graphspectra's public functions, recorded from outside the package.

`install` replaces every public function of the five layer modules at every
module attribute it is reachable through (``from .x import y`` binds a copy,
so ``spectrum`` lives in ``graphspectra.spectra``, ``graphspectra.bounds``,
``graphspectra.cli`` and ``graphspectra`` itself). Spans are kept in memory
as plain lists and written out when the run ends; `layer_metrics` derives
busy time, self time and call counts from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "graphspectra"
LAYERS = ("cli", "graphs", "spectra", "bounds", "clustering")

# Span fields, in list order.
NAME, START, END, PARENT, OP, ERROR, KEY = range(7)


class Tracer:
    """Nested spans of one process; `op` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def open(self, name: str, key=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, key])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already finished span with no children."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, None, None])


def _key_function(name: str, fn):
    """What a span of `name` records besides its times, or None."""
    if name == "spectra.eig_sym":
        # Identifies the decomposed matrix, so repeats within an op can be counted.
        return lambda args, kwargs: hash(np.asarray(args[0] if args else kwargs["m"]).tobytes())
    if name == "clustering.kmeans":
        sig = inspect.signature(fn)

        def restarts(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["restarts"]

        return restarts
    return None


def _wrap(tracer: Tracer, name: str, fn):
    key_of = _key_function(name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name, key_of(args, kwargs) if key_of else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, type(exc).__name__)
            raise
        tracer.close(idx)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the loaded layer modules, wherever they are bound."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:  # `import graphspectra` does not load the cli module
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _totals(spans):
    """Summed duration and self time (duration minus direct children) per span name."""
    duration = defaultdict(float)
    self_time = defaultdict(float)
    children = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        duration[s[NAME]] += d
        self_time[s[NAME]] += d - children[i]
    return duration, self_time


def _layer_self(self_time) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += t
    return out


def op_counts(spans) -> dict:
    """Call counts per op id; they repeat exactly from run to run."""
    counts: dict = defaultdict(lambda: defaultdict(int))
    matrices: dict = defaultdict(set)
    for s in spans:
        c = counts[s[OP]]
        name = s[NAME].split(".", 1)[-1]
        if name in ("load_edge_list", "load_pajek"):
            c["load_calls"] += 1
        elif name in ("degree_summary", "build_matrix", "eig_sym", "kmeans"):
            c[name + "_calls"] += 1
        if name == "eig_sym":
            matrices[s[OP]].add(s[KEY])
            c["eig_sym_failures"] += bool(s[ERROR])
        elif name == "kmeans":
            c["kmeans_restarts"] += s[KEY]
    for op, distinct in matrices.items():
        counts[op]["eig_sym_distinct"] = len(distinct)
    return {op: dict(c) for op, c in counts.items()}


def layer_metrics(spans, ops: int, interpreter_s: float) -> dict[str, float]:
    """Per-layer metrics over all spans of a run of `ops` ops.

    ``_s`` values are busy seconds summed over the run. A layer's ``self_s``
    is the summed duration of its spans minus the time of their direct child
    spans, so the layers' self times and the time in no layer partition the
    traced time without overlap. Counts are per op, so they repeat exactly
    from run to run. Distinct matrices are counted within each op, so
    ``spectra.eig_reuse_ratio`` (distinct / calls) shows what one cache per
    op could save.
    """
    duration, self_time = _totals(spans)
    layer_self = _layer_self(self_time)
    total = defaultdict(int)
    for c in op_counts(spans).values():
        for k, v in c.items():
            total[k] += v
    per_op = defaultdict(float, {k: v / ops for k, v in total.items()})
    reuse = total["eig_sym_distinct"] / total["eig_sym_calls"] if total["eig_sym_calls"] else 0.0
    return {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": duration["import"],
        "cli.main_s": duration["cli.main"],
        "cli.self_s": layer_self["cli"],
        "graphs.load_s": duration["graphs.load_edge_list"] + duration["graphs.load_pajek"],
        "graphs.load_calls": per_op["load_calls"],
        "graphs.components_s": duration["graphs.connected_components"],
        "graphs.degree_summary_s": duration["graphs.degree_summary"],
        "graphs.degree_summary_calls": per_op["degree_summary_calls"],
        "graphs.self_s": layer_self["graphs"],
        "spectra.build_matrix_s": duration["spectra.build_matrix"],
        "spectra.build_matrix_calls": per_op["build_matrix_calls"],
        "spectra.eig_sym_s": duration["spectra.eig_sym"],
        "spectra.eig_sym_calls": per_op["eig_sym_calls"],
        "spectra.eig_sym_distinct": per_op["eig_sym_distinct"],
        "spectra.eig_reuse_ratio": reuse,
        "spectra.eigensystem_self_s": self_time["spectra.eigensystem"],
        "spectra.eig_failures": per_op["eig_sym_failures"],
        "spectra.self_s": layer_self["spectra"],
        "bounds.pair_differences_s": duration["bounds.pair_differences"],
        "bounds.gap_differences_s": duration["bounds.gap_differences"],
        "bounds.weyl_check_s": duration["bounds.weyl_check"],
        "bounds.crossover_s": duration["bounds.detect_maximal_crossover"],
        "bounds.polymap_s": duration["bounds.polynomial_spectrum_map"],
        "bounds.self_s": layer_self["bounds"],
        "clustering.spectral_embed_s": duration["clustering.spectral_embed"],
        "clustering.kmeans_s": duration["clustering.kmeans"],
        "clustering.kmeans_calls": per_op["kmeans_calls"],
        "clustering.kmeans_restarts": per_op["kmeans_restarts"],
        "clustering.compare_s": duration["clustering.compare_clusterings"],
        "clustering.self_s": layer_self["clustering"],
    }


def layer_shares(spans, op_time_s: float) -> dict[str, float]:
    """Each layer's self time within ops as a share of the summed op latency.

    ``import`` and ``startup`` (interpreter start and exit, the rest of a CLI
    op outside ``import`` and ``cli.main``) exist for CLI ops; ``other`` is
    time in no layer, such as the benchmark's own calls around the library.
    """
    duration, self_time = _totals(spans)
    shares = _layer_self(self_time)
    shares["import"] = sum(s[END] - s[START] for s in spans if s[NAME] == "import" and s[OP] is not None)
    shares["startup"] = op_time_s - duration["cli.main"] - shares["import"] if duration["cli.main"] else 0.0
    shares["other"] = op_time_s - sum(shares.values())
    return {k: v / op_time_s for k, v in shares.items()}
