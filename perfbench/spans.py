"""Spans around cmtkit's layer boundaries, recorded from outside the package.

`install` replaces each traced function with a wrapper at every place it is
looked up: the defining module, every cmtkit module that imported it by name,
the package namespace, the class for methods and the suite registry.  A
lookup site left unwrapped would let internal calls bypass their spans, so
`install` fails if any reference to an original survives.

A span is (request, name, start, end, parent, cells).  A layer's self time is
its spans' duration minus the time covered by their direct children; a call
that returns with no child span was answered from a memo.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _rank_layer(args, kwargs) -> str:
    field = kwargs.get("field", args[1] if len(args) > 1 else None)
    if field.is_rationals:
        return "linalg.rank.q"
    return "linalg.rank.gf2" if field.p == 2 else "linalg.rank.gfp"


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, cells=None):
        """Wrap fn in a span called name (or name(args, kwargs) if callable);
        cells(args, result) gives the span's matrix cell count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.request, name(args, kwargs) if callable(name) else name,
                    0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if cells is not None:
                span[5] = cells(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict[int, dict[str, dict]]:
        """Per request and layer: calls, self_s, wall_s, hits, cells, max_cells."""
        spans = self.spans
        covered = [0.0] * len(spans)
        children = [0] * len(spans)
        for req, name, start, end, parent, cells in spans:
            if parent >= 0:
                covered[parent] += end - start
                children[parent] += 1
        out: dict[int, dict[str, dict]] = {}
        for i, (req, name, start, end, parent, cells) in enumerate(spans):
            agg = out.setdefault(req, {}).setdefault(
                name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "hits": 0,
                       "cells": 0, "max_cells": 0})
            agg["calls"] += 1
            agg["wall_s"] += end - start
            agg["self_s"] += end - start - covered[i]
            agg["hits"] += children[i] == 0
            agg["cells"] += cells
            agg["max_cells"] = max(agg["max_cells"], cells)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\trequest\tname\tstart\tend\tparent\tcells\n")
            for i, (req, name, start, end, parent, cells) in enumerate(self.spans):
                fh.write(f"{i}\t{req}\t{name}\t{start!r}\t{end!r}\t{parent}\t{cells}\n")


def install(tracer: Tracer) -> None:
    """Wrap cmtkit's layer entry points at every lookup site."""
    import importlib

    core = importlib.import_module("cmtkit.core")
    files = importlib.import_module("cmtkit.files")
    homology = importlib.import_module("cmtkit.homology")
    linalg = importlib.import_module("cmtkit.linalg")
    classify = importlib.import_module("cmtkit.classify")
    suites = importlib.import_module("cmtkit.suites")

    cx_class = core.SimplicialComplex
    for method, name in (("__init__", "core.init"), ("faces", "core.faces"),
                         ("link", "core.link"), ("restrict", "core.restrict")):
        setattr(cx_class, method, tracer.wrap(name, cx_class.__dict__[method]))

    targets = [
        (files.load, "files.load", None),
        (homology.boundary_matrices, "homology.boundary_matrices",
         lambda args, mats: sum(m.matrix.size for m in mats)),
        (homology.reduced_betti, "homology.reduced_betti", None),
        (linalg.rank, _rank_layer, lambda args, r: args[0].size),
        (classify.cm_witness, "classify.cm_witness", None),
        (classify.cm_t_witness, "classify.cm_t_witness", None),
        (classify.k_cm_t_witness, "classify.k_cm_t_witness", None),
    ]
    modules = [m for key, m in sys.modules.items()
               if key == "cmtkit" or key.startswith("cmtkit.")]
    originals = {}
    for fn, name, cells in targets:
        originals[id(fn)] = fn
        wrapped = tracer.wrap(name, fn, cells)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = tracer.wrap(f"suites.{key}", fn)

    leftover = [f"{mod.__name__}.{attr}" for mod in modules
                for attr, value in vars(mod).items() if id(value) in originals]
    if leftover:
        raise RuntimeError(f"untraced lookup sites: {leftover}")
