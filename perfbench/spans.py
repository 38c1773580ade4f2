"""Spans around the public functions of each pipeline module.

The tracer wraps functions from outside: every module attribute of the
``invindel`` package that holds a traced function is replaced by a wrapper
for the duration of a ``with tracer.installed():`` block, so calls made
through any import of that function are seen.  The package must be
imported before a tracer is made.  Nothing in the package
knows it is being traced.

Each span holds its name, start, end, parent span and pair id, plus, for
the few counters that need one, a return value.  Spans stay in memory and
are written as JSON once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

PAIR = "bench.pair"

# span name -> (module, attribute path).  The span name's prefix is the
# layer the function belongs to.
TARGETS = {
    "genome.read_pair_text": ("invindel.genome", "read_pair_text"),
    "genome.cap_linear_pair": ("invindel.genome", "cap_linear_pair"),
    "diagram.build_relational_diagram": ("invindel.diagram", "build_relational_diagram"),
    "components.diagram_with_components": ("invindel.components", "diagram_with_components"),
    "components.find_components": ("invindel.components", "find_components"),
    "components.build_chained_tree": ("invindel.components", "build_chained_tree"),
    "components.mark_costless_merges": ("invindel.components", "mark_costless_merges"),
    "components.flower_contract": ("invindel.components", "flower_contract"),
    "components.contract": ("invindel.components", "contract"),
    "components.path": ("invindel.components", "TaggedTree.path"),
    "treecover.validate": ("invindel.treecover", "Cover.validate"),
    "treecover.tau_shared_tag": ("invindel.treecover", "tau_shared_tag"),
    "treecover.tau_all_clean": ("invindel.treecover", "tau_all_clean"),
    "reduction.compute_residual": ("invindel.reduction", "compute_residual"),
    "reduction.reduce_by_paths": ("invindel.components", "reduce_by_paths"),
    "reduction.solo_candidates": ("invindel.reduction", "solo_candidates"),
    "residual.optimal_cover_of_residual": ("invindel.residual", "optimal_cover_of_residual"),
    "cli.distance_report": ("invindel.cli", "distance_report"),
    "cli.compute_distance": ("invindel.cli", "compute_distance"),
    "cli.tau_star": ("invindel.cli", "tau_star"),
}

# How a counter reads a span's return value, kept in Tracer.extra.
EXTRA = {
    "components.diagram_with_components": lambda result: result[2],  # rotated
    "components.flower_contract": lambda tree: tree,
    "reduction.solo_candidates": len,
}

# Patched only in the module named, not everywhere the function is held:
# the topology predicates call solo_candidates too, but only the reduction's
# calls open a clean phase.
CALL_SITE_ONLY = {"reduction.solo_candidates"}

# Never patched: the oracle is used only for checks.
SKIP_MODULES = ("invindel.oracle",)


class Tracer:
    """Spans in columns: span ``i`` is ``name[i]`` (an index into ``names``),
    ``start[i]``, ``end[i]`` (perf_counter nanoseconds), ``parent[i]`` (-1
    for none) and ``pair_of[i]``.  ``extra`` maps a span to the return value
    its counter reads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pair_of = array("i")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self.pair = -1
        self.missing: list[str] = []
        self.patches = self._patches()

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pair_of.append(self.pair)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        code, read_extra = self._code(name), EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if read_extra is not None:
                self.extra[i] = read_extra(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, pair: int):
        """A span opened by the benchmark itself, such as one whole pair."""
        self.pair = pair
        i = self._open(self._code(name))
        try:
            yield
        finally:
            self._close(i)

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` for every reference to a
        traced function inside the package."""
        out = []
        for name, (mod_name, attr) in TARGETS.items():
            owner = importlib.import_module(mod_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, last, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if outer:  # a method: patch the class
                out.append((owner, last, fn, wrapper))
                continue
            for mod_key, mod in list(sys.modules.items()):
                if not mod_key.startswith("invindel") or mod_key in SKIP_MODULES:
                    continue
                if name in CALL_SITE_ONLY and mod_key != mod_name:
                    continue
                out += [(mod, key, fn, wrapper) for key, value in vars(mod).items() if value is fn]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block: the wrappers replace the originals, which
        are put back on exit."""
        for owner, key, _, wrapper in self.patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, fn, _ in self.patches:
                setattr(owner, key, fn)

    def write(self, path: Path) -> None:
        t0 = self.start[0] if self.start else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_ns": [t - t0 for t in self.start],
                    "end_ns": [t - t0 for t in self.end],
                    "parent": self.parent.tolist(),
                    "pair": self.pair_of.tolist(),
                },
                fh,
            )


class Profile:
    """Per-name totals over the spans of a tracer, each span's time
    multiplied by the factor of its pair."""

    def __init__(self, tr: Tracer, factors: list[float]) -> None:
        n = len(tr.start)
        dur = [(tr.end[i] - tr.start[i]) * factors[tr.pair_of[i]] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(tr.parent):
            if p >= 0:
                child[p] += dur[i]
        self.self_ns: dict[str, float] = defaultdict(float)
        self.total_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extras: dict[str, list] = defaultdict(list)
        for i in range(n):
            name = tr.names[tr.name[i]]
            self.self_ns[name] += dur[i] - child[i]
            self.total_ns[name] += dur[i]
            self.calls[name] += 1
        for i, value in tr.extra.items():
            self.extras[tr.names[tr.name[i]]].append(value)

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def layer_ns(self) -> dict[str, float]:
        """Self time by layer, the prefix of a span's name."""
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns
        return out
