"""Relational diagram of two circular chromosomes.

Both chromosomes are drawn as horizontal lines of common-marker
extremities, read from the head of a chosen anchor marker to its tail.
Consecutive extremities on a line are joined by an edge labeled with the
exclusive markers lying between them; equal extremities across the lines
are joined by dotted edges.  The diagram decomposes into cycles that
alternate upper and lower edges.

The walk runs over integers.  The common marker at place ``k`` of the upper
line, read from the anchor, has index ``k``; its extremities are ``2*k``,
the one the upper line reads first, and ``2*k + 1``.  Upper edge ``k`` then
joins ``2*k + 1`` to ``2*k + 2`` (modulo ``2*g``), so only the lower line
needs arrays: the extremity at each place of the line and the place of each
extremity.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import not_, xor
from typing import NamedTuple

from .errors import AnchorNotCommon, OddRunCountAboveOne
from .genome import Chromosome, GenomePair, strict_record


class Cycle(NamedTuple):
    """One cycle of the diagram as a read-only row, built from the
    diagram's columns on demand (see ``RelationalDiagram.cycles``)."""

    id: int
    a_positions: tuple[int, ...]  # its upper edges, sorted
    good: bool  # some two upper edges are walked in opposite directions
    runs: int  # maximal single-genome runs of labeled edges along the cycle
    has_a_run: bool
    has_b_run: bool

    @property
    def is_two_cycle(self) -> bool:
        return len(self.a_positions) == 1

    @property
    def labeled(self) -> bool:
        return self.has_a_run or self.has_b_run

    @property
    def has_both_runs(self) -> bool:
        return self.has_a_run and self.has_b_run


def indel_potential(runs: int) -> int:
    """Minimum indels chargeable to a cycle with the given run count."""
    if runs in (0, 1, 2):
        return runs
    if runs % 2:
        raise OddRunCountAboveOne(f"run count {runs} is odd and above one")
    return runs // 2 + 1


def classify_cycle(cycle: Cycle) -> tuple[str, str, str]:
    """(good|bad, sorted_2cycle|unsorted, tag profile)."""
    kind = "good" if cycle.good else "bad"
    sortedness = "sorted_2cycle" if cycle.is_two_cycle else "unsorted"
    runs = cycle.runs
    if runs == 0:
        profile = "clean"
    elif cycle.has_both_runs:
        profile = f"AB{runs // 2}"
    elif cycle.has_a_run:
        profile = "A"
    else:
        profile = "B"
    return kind, sortedness, profile


def _line(ch: Chromosome, common: frozenset[str], anchor: str):
    """Common-marker names and orientations of a chromosome read from the
    anchor, the anchor's own orientation, and a flag per gap between
    consecutive common markers: 1 when exclusive markers lie in it.

    Read from the anchor forward means rotating the stored order; when the
    anchor is stored reversed, the line reads the stored order backwards
    with every orientation flipped, and the flip is left to the caller.
    """
    keep = list(map(common.__contains__, ch.order))
    names = list(compress(ch.order, keep))
    forward = list(compress(ch.forward, keep))
    # Gap k follows kept place k.  The j-th exclusive place q follows q - j
    # kept places, so it lies in gap q - j - 1 (gap -1: the last gap).
    gaps = bytearray(len(names))
    q = -1
    for j in range(len(keep) - len(names)):
        q = keep.index(False, q + 1)
        gaps[q - j - 1] = 1
    i = names.index(anchor)
    if forward[i]:
        return names[i:] + names[:i], forward[i:] + forward[:i], gaps[i:] + gaps[:i], True
    # Backwards, marker i - k comes k-th and gap i - k - 1 follows it.
    return (
        names[i::-1] + names[:i:-1],
        forward[i::-1] + forward[:i:-1],
        gaps[i - 1 :: -1] + gaps[: i - 1 : -1],
        False,
    )


# Tag bits of a cycle or a component: which genomes' runs of labeled edges
# it holds.
TAG_A_BIT = 1
TAG_B_BIT = 2


@strict_record
class RelationalDiagram:
    """The diagram's cycles as columns, indexed by cycle id; ids follow
    the cycles' first upper edges.  All lists are read only; two diagrams
    are equal when their anchors, common-marker counts and columns are."""

    __match_args__ = ("anchor", "g_count", "owner", "first", "last", "good", "runs", "tags")

    def __init__(
        self,
        anchor: str,
        g_count: int,
        owner: list[int],  # owner[e]: the id of the cycle that walks upper edge e
        first: list[int],  # the cycle's leftmost upper edge
        last: list[int],  # its rightmost upper edge
        good: list[bool],  # some two upper edges are walked in opposite directions
        runs: list[int],  # maximal single-genome runs of labeled edges along it
        tags: list[int],  # TAG_A_BIT | TAG_B_BIT: the genomes whose runs it holds
    ) -> None:
        self.anchor = anchor
        self.g_count = g_count
        self.owner = owner
        self.first = first
        self.last = last
        self.good = good
        self.runs = runs
        self.tags = tags

    @property
    def c(self) -> int:
        return len(self.first)

    def indel_potential_sum(self) -> int:
        return sum(map(indel_potential, self.runs))

    @cached_property
    def cycles(self) -> list[Cycle]:
        """Every cycle as a row, for traces and tests, built on first use."""
        positions: list[list[int]] = [[] for _ in self.first]
        for e, c in enumerate(self.owner):
            positions[c].append(e)
        columns = zip(positions, self.good, self.runs, self.tags)
        return [
            Cycle(i, tuple(ps), good, runs, bool(t & TAG_A_BIT), bool(t & TAG_B_BIT))
            for i, (ps, good, runs, t) in enumerate(columns)
        ]


def check_anchor(anchor: str, common: frozenset[str]) -> None:
    """Raise AnchorNotCommon unless ``anchor`` is one of the ``common`` markers."""
    if anchor not in common:
        raise AnchorNotCommon(f"anchor {anchor!r} is not a marker common to both chromosomes")


def build_relational_diagram(pair: GenomePair, anchor: str) -> RelationalDiagram:
    check_anchor(anchor, pair.common)
    a_names, a_forward, upper_labeled, a_as_stored = _line(pair.a, pair.common, anchor)
    b_names, b_forward, lower_labeled, b_as_stored = _line(pair.b, pair.common, anchor)
    g = len(a_names)
    n2 = 2 * g

    # The lower line reads marker k's extremities in the upper line's order
    # when both lines hold it in the same orientation.  Orientations are as
    # stored, so a line read backwards flips all of its markers at once.
    flip = a_as_stored != b_as_stored
    first_end = dict(zip(a_names, map(xor, range(0, n2, 2), a_forward)))
    if flip:
        b_forward = map(not_, b_forward)
    firsts = list(map(xor, map(first_end.__getitem__, b_names), b_forward))
    lower_seq = [0] * n2
    lower_seq[0::2] = map(xor, firsts, repeat(1))
    lower_seq[1::2] = firsts[1:] + firsts[:1]
    lower_at = [0] * n2
    for p, x in enumerate(lower_seq):
        lower_at[x] = p

    # Each cycle starts at the leftmost upper extremity not yet walked, the
    # left end of its first upper edge, and walks that edge first.  The walk
    # labels each upper edge with its cycle.
    owner = [-1] * g
    first: list[int] = []
    goods: list[bool] = []
    runs: list[int] = []
    tags: list[int] = []
    for e0 in range(g):
        if owner[e0] >= 0:
            continue
        cid = len(first)
        start = x = 2 * e0 + 1
        left_to_right = right_to_left = False
        has_a = has_b = False
        first_side = last_side = -1  # sides of labeled edges: 0 upper, 1 lower
        switches = 0
        while True:
            if x & 1:
                e = x >> 1
                y = x + 1 if x + 1 < n2 else 0
                left_to_right = True
            else:
                e = (x >> 1) - 1 if x else g - 1
                y = x - 1 if x else n2 - 1
                right_to_left = True
            owner[e] = cid
            if upper_labeled[e]:
                has_a = True
                if last_side == 1:
                    switches += 1
                elif first_side < 0:
                    first_side = 0
                last_side = 0
            p = lower_at[y]
            if lower_labeled[p >> 1]:
                has_b = True
                if last_side == 0:
                    switches += 1
                elif first_side < 0:
                    first_side = 1
                last_side = 1
            x = lower_seq[p ^ 1]
            if x == start:
                break
        if first_side >= 0 and last_side != first_side:
            switches += 1
        first.append(e0)
        goods.append(left_to_right and right_to_left)
        runs.append(switches or int(first_side >= 0))
        tags.append(has_a | has_b << 1)  # TAG_A_BIT, TAG_B_BIT

    # A dict keeps the first place it meets each key and the last value
    # stored under it; owners are met in id order, at each cycle's first edge.
    last = list(dict(zip(owner, range(g))).values())
    return RelationalDiagram(anchor, g, owner, first, last, goods, runs, tags)

