"""Reference cycle walk over named extremities, for checking the diagram.

This is the straightforward construction of the relational diagram:
extremities are ``(marker, end)`` records, each line is a list of edges
between adjacent extremities, and the cycles are walked through two
extremity -> edge dictionaries.  ``invindel.diagram`` computes the same
cycles over integer-encoded extremities; ``census`` lists what both must
agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from invindel.genome import Chromosome, GenomePair, Marker

TAIL = "t"
HEAD = "h"
UPPER = "A"
LOWER = "B"


class Extremity(NamedTuple):
    marker: str
    end: str


def _ends(m: Marker) -> tuple[Extremity, Extremity]:
    """Extremities of a marker occurrence in reading order."""
    t, h = Extremity(m.name, TAIL), Extremity(m.name, HEAD)
    return (t, h) if m.forward else (h, t)


@dataclass
class LineEdge:
    index: int
    left: Extremity
    right: Extremity
    labeled: bool


def _orient_to_anchor(ch: Chromosome, anchor: str) -> tuple[Marker, ...]:
    """Rotate (and flip if needed) so the anchor comes first, forward."""
    markers = ch.markers
    idx = next(i for i, m in enumerate(markers) if m.name == anchor)
    if not markers[idx].forward:
        markers = ch.reversed_flipped().markers
        idx = next(i for i, m in enumerate(markers) if m.name == anchor)
    return markers[idx:] + markers[:idx]


def _build_line(ch: Chromosome, anchor: str, common: frozenset[str]) -> list[LineEdge]:
    commons: list[Marker] = []
    labels: list[bool] = []
    pending = False
    for m in _orient_to_anchor(ch, anchor):
        if m.name in common:
            if commons:
                labels.append(pending)
                pending = False
            commons.append(m)
        else:
            pending = True
    labels.append(pending)
    ends = [_ends(m) for m in commons]
    k = len(ends)
    return [LineEdge(i, ends[i][1], ends[(i + 1) % k][0], labels[i]) for i in range(k)]


def cycle_steps(pair: GenomePair, anchor: str) -> list[list[tuple[str, int, bool, bool]]]:
    """Each cycle as its steps ``(side, edge index, left_to_right, labeled)``,
    cycles in the order of their leftmost upper extremity."""
    upper = _build_line(pair.a, anchor, pair.common)
    lower = _build_line(pair.b, anchor, pair.common)

    def edge_map(edges: list[LineEdge]) -> dict[Extremity, tuple[int, bool]]:
        out: dict[Extremity, tuple[int, bool]] = {}
        for e in edges:
            out[e.left] = (e.index, True)
            out[e.right] = (e.index, False)
        return out

    upper_at, lower_at = edge_map(upper), edge_map(lower)
    visited: set[Extremity] = set()
    cycles = []
    for start in [x for e in upper for x in (e.left, e.right)]:
        if start in visited:
            continue
        steps = []
        cur = start
        while True:
            idx, at_left = upper_at[cur]
            edge = upper[idx]
            steps.append((UPPER, idx, at_left, edge.labeled))
            visited.add(cur)
            cur = edge.right if at_left else edge.left
            visited.add(cur)
            idx, at_left = lower_at[cur]
            edge = lower[idx]
            steps.append((LOWER, idx, at_left, edge.labeled))
            cur = edge.right if at_left else edge.left
            if cur == start:
                break
        cycles.append(steps)
    return cycles


def census(cycles: list[list[tuple[str, int, bool, bool]]]) -> list[tuple]:
    """Per cycle of ``cycle_steps``, in order: id, upper-edge positions,
    good, run count, has an upper run, has a lower run, is a two-cycle."""
    out = []
    for cid, steps in enumerate(cycles):
        upper = [s for s in steps if s[0] == UPPER]
        sides = [s[0] for s in steps if s[3]]
        n = len(sides)
        switches = sum(1 for i in range(n) if sides[i] != sides[(i + 1) % n])
        runs = switches or (1 if sides else 0)
        out.append(
            (
                cid,
                tuple(sorted(s[1] for s in upper)),
                len({s[2] for s in upper}) == 2,
                runs,
                any(s[3] for s in upper),
                any(s[3] for s in steps if s[0] == LOWER),
                len(steps) == 2,
            )
        )
    return out
