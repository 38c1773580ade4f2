"""A fixed piece of pure-Python work that gauges the machine's speed.

On a shared machine the same pair can take twice as long in one minute as
in the next.  The benchmark times ``calibrate()`` between its rounds of
pairs and scales each round's times by ``factor()``: ``REFERENCE_S`` over
the time ``calibrate()`` took around it, to the power ``EXPONENT``.  The
figures it reports then read as on a machine where ``calibrate()`` takes
``REFERENCE_S``.  The work is a toy
version of the program's own kind (frozen dataclasses, dict walks, cached
properties, sorting, recursion) and shares no code with it, so a change to
the program never changes the gauge.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from functools import cached_property

# calibrate()'s usual time on the reference machine, a shared 2-vCPU
# x86-64 VM running CPython 3.11.
REFERENCE_S = 0.02

# The pipeline's time moves less than the gauge's when the machine's speed
# drifts: interleaving both for five minutes on the reference machine gave
# log-log slopes of 0.70-0.76 for random and structured pairs, and the
# slopes across whole benchmark runs were 0.4-0.7.
EXPONENT = 0.7


@dataclass(frozen=True)
class Gene:
    name: str
    forward: bool


@dataclass(frozen=True)
class End:
    gene: str
    head: bool


@dataclass
class Walk:
    ident: int
    ends: tuple[End, ...]

    @cached_property
    def size(self) -> int:
        return len(self.ends)

    @cached_property
    def span(self) -> tuple[str, ...]:
        return tuple(sorted(e.gene for e in self.ends))


def _text(n: int, seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    names = [f"g{k}" for k in range(n)]
    a = list(names)
    rng.shuffle(a)
    return " ".join(("-" if rng.random() < 0.5 else "") + m for m in a), " ".join(names)


TEXT = _text(1500, 7)


def _parse(line: str) -> tuple[Gene, ...]:
    return tuple(Gene(t.lstrip("-"), not t.startswith("-")) for t in line.split())


def _ends(g: Gene) -> tuple[End, End]:
    t, h = End(g.name, False), End(g.name, True)
    return (t, h) if g.forward else (h, t)


def _adjacency(genes: tuple[Gene, ...]) -> dict[End, End]:
    out = {}
    n = len(genes)
    for i, g in enumerate(genes):
        right = _ends(g)[1]
        left = _ends(genes[(i + 1) % n])[0]
        out[right] = left
        out[left] = right
    return out


def _depth(children: dict, node) -> int:
    return 1 + max((_depth(children, k) for k in children.get(node, ())), default=0)


def calibrate() -> int:
    a, b = (_parse(line) for line in TEXT)
    adj_a, adj_b = _adjacency(a), _adjacency(b)
    seen: set[End] = set()
    walks = []
    for start in adj_a:
        if start in seen:
            continue
        ends = []
        e, upper = start, True
        while e not in seen:
            seen.add(e)
            ends.append(e)
            e = adj_a[e] if upper else adj_b[e]
            upper = not upper
        walks.append(Walk(len(walks), tuple(ends)))
    sizes = sorted((w.size for w in walks), reverse=True)
    children: dict = {}
    for w in walks:
        children.setdefault(min(w.span) if w.size > 2 else None, []).append(w.span[-1])
    return sum(sizes[:10]) + len({w.span[0] for w in walks}) + _depth(children, None)


def gauge() -> float:
    """Seconds one ``calibrate()`` takes now, with the collector off so that
    the benchmark's own heap does not enter the figure."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibrate()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def factor(before: float, after: float) -> float:
    """What takes a time measured between two gauge readings to the
    reference machine."""
    return (2 * REFERENCE_S / (before + after)) ** EXPONENT
