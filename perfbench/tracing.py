"""Per-layer spans and counters, recorded from the benchmark's side.

``Tracer.install`` replaces each layer's public function, at the module
attribute its caller looks it up through, with a wrapper that records a span
(name, start, end, parent) and the layer's work counters; ``uninstall`` puts
the originals back.  Spans stay in memory until ``write``.  Only the traced
run imports this module.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import wplzx.cli
import wplzx.diagram
import wplzx.rewrite
import wplzx.semantics
from wplzx.masd import decode, matching, surface


def _count_edges(t: Tracer, args, _result) -> None:
    t.counts["graph.edges"] += len(args[0].edges)


def _count_matching(t: Tracer, args, result) -> None:
    t.defects[len(args[0].real_vertices)] += 1
    t.counts["matching.exact" if result.exact else "matching.approx"] += 1


def _count_kernel(t: Tracer, args, _result) -> None:
    t.counts["kernel.calls"] += 1
    t.counts["kernel.masks"] += 1 << len(args[1])


def _count_normalize(t: Tracer, _args, result) -> None:
    _, labels, trace = result
    t.counts["rewrite.fusions"] += sum(e.rule == "fuse" for e in trace.entries)
    t.counts["phase.max_grid"] = max([t.counts["phase.max_grid"]] + [lab.L for lab in labels])


def _count_build(t: Tracer, _args, result) -> None:
    t.counts["diagram.build_calls"] += 1
    t.counts["diagram.build_nodes"] += len(result.nodes)


def _count_evaluate(t: Tracer, _args, _result) -> None:
    t.counts["semantics.evaluate_calls"] += 1


# (module, attribute, span name, counter).  ``build`` is looked up through
# two modules: rewrites call ``wplzx.rewrite.build``, parsing calls
# ``wplzx.diagram.build``.
LAYERS = (
    (wplzx.cli, "sample_surface_code", "surface.sample", None),
    (wplzx.cli, "lambda_sweep", "surface.lambda_sweep", None),
    (surface, "masd_decode", "decode.masd_decode", None),
    (surface, "logical_failure", "surface.logical_failure", None),
    (decode, "edge_weights", "graph.edge_weights", _count_edges),
    (decode, "min_weight_perfect_matching", "matching.mwpm", _count_matching),
    (decode, "drg_toy", "decode.drg_toy", None),
    (decode, "drg_pm", "decode.drg_pm", None),
    (matching._kernel, "solve_dense", "kernel.solve_dense", _count_kernel),
    (wplzx.rewrite, "wzcc_normalize", "rewrite.wzcc_normalize", _count_normalize),
    (wplzx.rewrite, "apply_trace", "rewrite.apply_trace", None),
    (wplzx.rewrite, "build", "diagram.build", _count_build),
    (wplzx.diagram, "build", "diagram.build", _count_build),
    (wplzx.semantics, "evaluate", "semantics.evaluate", _count_evaluate),
)
COUNTERS = (
    "graph.edges", "matching.exact", "matching.approx", "kernel.calls",
    "kernel.masks", "rewrite.fusions", "phase.max_grid", "diagram.build_calls",
    "diagram.build_nodes", "semantics.evaluate_calls",
)
CLI_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self.defects: Counter = Counter()  # real defects per matching call
        self._saved: list = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in LAYERS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def times(self) -> dict[str, float]:
        """``<span>_s`` (summed duration) and ``<span>_self_s`` (duration
        minus that of its direct children) for every layer, zero if unused."""
        names = {name for _, _, name, _ in LAYERS} | {CLI_SPAN}
        out = {f"{n}{suffix}": 0.0 for n in names for suffix in ("_s", "_self_s")}
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _parent), child in zip(self.spans, children):
            out[f"{name}_s"] += end - start
            out[f"{name}_self_s"] += end - start - child
        return out

    def metrics(self) -> dict[str, float]:
        out = self.times()
        out.update(self.counts)
        calls = sum(self.defects.values())
        out["matching.defects_mean"] = (
            sum(n * c for n, c in self.defects.items()) / calls if calls else 0.0
        )
        out["matching.defects_max"] = max(self.defects, default=0)
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
