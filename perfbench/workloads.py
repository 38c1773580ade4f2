"""Seeded workload generators.

Every pair is produced as the two-line input text that `invindel dist`
reads, so the program under test receives nothing but text.  Pair ``i`` of
workload ``w`` under seed ``s`` is drawn from its own generator seeded with
``"w:scale:s:i"``, so the same seed always yields the same pairs.

A run cycles through a pool of POOL_PAIRS[w] pairs, about as many as one run
gets through on the reference machine, taken from seed ``s % POOLS``.  The
distances of every pool pair are stored with the benchmark (see
``make_reference.py``), so every answer of a run is checked against them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from invindel.oracle import random_genome_pair

# The shape of acceptance criterion 7: g = 4000 with 40 exclusive markers
# per side.
RANDOM_G = 4000
RANDOM_EXCLUSIVE = 40
STRUCTURED_BLOCKS = 60

# Nesting and swap rates of the structured generator: a 60-block pair then
# holds g ~ 1.4-1.8k common markers and a tagged tree of ~200 nodes.
NEST_DEPTH = 3
P_NEST = 0.58
P_SWAP = 0.5
EXCLUSIVE_DENSITY = 0.15

POOLS = 16
POOL_PAIRS = {"random": 160, "structured": 96, "small": 4096}


@dataclass(frozen=True)
class Pair:
    text: str
    common: int
    exclusive: int
    linear: bool
    bound: int | None  # a distance upper bound known from the generator


def _random_pair(rng: random.Random, g: int, na: int, nb: int, linear: bool) -> Pair:
    pair = random_genome_pair(rng, g, na, nb)
    header = ">linear\n" if linear else ""
    return Pair(f"{header}{pair.a.text()}\n{pair.b.text()}\n", g, na + nb, linear, None)


def structured_pair(rng: random.Random, blocks: int, linear: bool = False) -> Pair:
    """Nested block rearrangement.

    Genome B concatenates ``blocks`` blocks ``w x y z``; each sub-block is
    a single marker or, with probability P_NEST while the depth allows, a
    block of its own.  Genome A reads each block, at every depth, as
    ``w y x z`` with probability P_SWAP.  Each common marker is then
    followed, in each genome, by an exclusive marker with probability
    EXCLUSIVE_DENSITY.  A swap of two adjacent segments costs at most three
    inversions and an exclusive marker at most one indel, so the distance
    is at most 3 * swaps + exclusive markers.
    """
    counter = itertools.count()
    swaps = 0

    def block(depth: int) -> tuple[list[str], list[str]]:
        nonlocal swaps
        parts = []
        for _ in range(4):
            if depth > 1 and rng.random() < P_NEST:
                parts.append(block(depth - 1))
            else:
                name = f"g{next(counter)}"
                parts.append(([name], [name]))
        order = (0, 1, 2, 3)
        if rng.random() < P_SWAP:
            swaps += 1
            order = (0, 2, 1, 3)
        return [m for i in order for m in parts[i][0]], [m for p in parts for m in p[1]]

    a: list[str] = []
    b: list[str] = []
    for _ in range(blocks):
        ba, bb = block(NEST_DEPTH)
        a += ba
        b += bb
    g = len(a)

    def scatter(seq: list[str], prefix: str) -> list[str]:
        out = []
        k = 0
        for m in seq:
            out.append(m)
            if rng.random() < EXCLUSIVE_DENSITY:
                out.append(f"{prefix}{k}")
                k += 1
        return out

    a = scatter(a, "x")
    b = scatter(b, "y")
    exclusive = len(a) + len(b) - 2 * g
    header = ">linear\n" if linear else ""
    text = f"{header}{' '.join(a)}\n{' '.join(b)}\n"
    return Pair(text, g, exclusive, linear, 3 * swaps + exclusive)


def _random(rng: random.Random, scale: int) -> Pair:
    n = RANDOM_EXCLUSIVE * scale
    return _random_pair(rng, RANDOM_G * scale, n, n, False)


def _structured(rng: random.Random, scale: int) -> Pair:
    return structured_pair(rng, STRUCTURED_BLOCKS * scale)


def _small(rng: random.Random, scale: int) -> Pair:
    linear = rng.random() < 0.5
    if rng.random() < 0.5:
        g = rng.randint(2, 60 * scale)
        top = max(1, g // 10)
        return _random_pair(rng, g, rng.randint(0, top), rng.randint(0, top), linear)
    return structured_pair(rng, rng.randint(1, 4 * scale), linear)


WORKLOADS = {"random": _random, "structured": _structured, "small": _small}


def make_pair(workload: str, seed: int, index: int, scale: int = 1) -> Pair:
    """Pair ``index`` of a workload; ``scale`` multiplies its size knob
    (random: g; structured: blocks; small: the largest g and block count)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{scale}:{seed}:{index}"), scale)


def pool_pair(workload: str, seed: int, index: int, scale: int = 1) -> tuple[int, Pair]:
    """Pair ``index`` of a run under ``seed``: its place in the pool, and
    the pair."""
    k = index % POOL_PAIRS[workload]
    return k, make_pair(workload, seed % POOLS, k, scale)
