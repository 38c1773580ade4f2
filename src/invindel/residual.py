"""Optimal covers for residual trees.

Every residual tree falls into one of 56 leaf compositions (with the A and
B classes swapped so that the A count is at least the B count).  For each
composition an ordered case list gives every topology case its optimal
cover cost and a witness recipe: the path kinds that, bound to concrete
nodes of the tree, form a cover at that cost.  Costs never decrease along a
list, and the reducible case, when there is one, comes last: it spends one
extra in-traversal and recurses into a smaller composition.  The lookup
returns the cheapest recipe that binds.

The tables are data interpreted by one small engine, so each entry can be
audited row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .components import TaggedTree, reduce_by_paths
from .errors import BudgetExceeded, NoCaseMatched, PreconditionViolated, UnknownComposition
from .treecover import Cover, CoverPath, Topology, lift_paths, path_cost

A = frozenset({"A"})
B = frozenset({"B"})
C = frozenset({"C"})
AC = A | C
BC = B | C

# Backtracking steps one recipe binding may take before BudgetExceeded;
# the bindings measured so far took at most 226.
INSTANTIATE_BUDGET = 20_000


@dataclass(frozen=True)
class PathSpec:
    kind: str  # in | out | tcov | semi | short | cut
    c1: str | None = None
    c2: str | None = None
    cost: int = 1
    tag: str | None = None
    host: frozenset | None = None
    covered_src: bool = False


def IN(cls: str) -> PathSpec:
    return PathSpec("in", cls, cls, 1 if cls != "C" else 2)


def OUT(c1: str, c2: str, cost: int) -> PathSpec:
    return PathSpec("out", c1, c2, cost)


def TCOV(c1: str, c2: str, cost: int) -> PathSpec:
    """Traversal from a fresh c1 leaf to an already covered c2 leaf."""
    return PathSpec("tcov", c1, c2, cost)


def SEMI(src: str, tag: str, host: frozenset, covered: bool = False) -> PathSpec:
    return PathSpec("semi", src, None, 1, tag, host, covered)


def SHORT(cls: str) -> PathSpec:
    return PathSpec("short", cls, None, 1)


def CUT(c1: str, c2: str) -> PathSpec:
    """Short path on the bad node of the (short) bad link between classes."""
    return PathSpec("cut", c1, c2, 1)


@dataclass(frozen=True)
class Case:
    label: str
    cost: int | None = None
    recipe: tuple[PathSpec, ...] | None = None
    reduce_class: str | None = None


def case(label, cost, *recipe) -> Case:
    return Case(label, cost, tuple(recipe))


def reduce_case(label, reduce_class) -> Case:
    return Case(label, None, None, reduce_class)


# ---------------------------------------------------------------------------
# Group 1: two canonical subtrees that share no tag

_G1 = {
    (1, 1, 0, 0): [
        case("I", 2, OUT("A", "B", 2)),
    ],
    (2, 1, 0, 0): [
        case("S", 2, SHORT("B"), IN("A")),
        case("M", 2, IN("A"), SEMI("B", "B", A)),
        case("W", 3, IN("A"), TCOV("B", "A", 2)),
    ],
    (2, 2, 0, 0): [
        case("I", 2, IN("A"), IN("B")),
        case("S", 3, IN("A"), IN("B"), CUT("A", "B")),
        case("Ma", 3, IN("A"), SEMI("A", "A", B, covered=True), IN("B")),
        case("Mb", 3, IN("A"), IN("B"), SEMI("B", "B", A, covered=True)),
        case("W", 4, OUT("A", "B", 2), OUT("A", "B", 2)),
    ],
    (1, 0, 1, 0): [
        case("I", 2, OUT("A", "C", 2)),
    ],
    (1, 0, 2, 0): [
        case("S", 3, SHORT("C"), OUT("C", "A", 2)),
        case("Sa", 3, SHORT("A"), IN("C")),
        case("M", 3, IN("C"), SEMI("A", "A", C)),
        case("W", 4, OUT("C", "A", 2), TCOV("C", "A", 2)),
    ],
    (2, 0, 1, 0): [
        case("S", 2, SHORT("C"), IN("A")),
        case("W", 3, OUT("C", "A", 2), TCOV("A", "A", 1)),
    ],
    (2, 0, 2, 0): [
        case("I", 3, IN("C"), IN("A")),
        case("W", 4, OUT("C", "A", 2), OUT("C", "A", 2)),
    ],
    (0, 0, 1, 1): [
        case("I", 2, OUT("C", "AB", 2)),
    ],
    (0, 0, 1, 2): [
        case("S", 2, SHORT("C"), IN("AB")),
        case("W", 3, OUT("C", "AB", 2), TCOV("AB", "AB", 1)),
    ],
    (0, 0, 2, 1): [
        case("S", 3, SHORT("C"), OUT("C", "AB", 2)),
        case("Sa", 3, SHORT("AB"), IN("C")),
        case("Ma", 3, IN("C"), SEMI("AB", "A", C)),
        case("Mb", 3, IN("C"), SEMI("AB", "B", C)),
        case("W", 4, OUT("C", "AB", 2), TCOV("C", "AB", 2)),
    ],
    (0, 0, 2, 2): [
        case("I", 3, IN("C"), IN("AB")),
        case("W", 4, OUT("C", "AB", 2), OUT("C", "AB", 2)),
    ],
}

# ---------------------------------------------------------------------------
# Group 2: three canonical subtrees

_G2_ABC = {
    (1, 1, 1, 0): [
        case("S", 3, SHORT("C"), OUT("A", "B", 2)),
        case("Sa", 3, SHORT("A"), OUT("B", "C", 2)),
        case("Sb", 3, SHORT("B"), OUT("A", "C", 2)),
        case(
            "Ma",
            3,
            OUT("B", "C", 2),
            SEMI("A", "A", BC),
        ),
        case(
            "Mb",
            3,
            OUT("A", "C", 2),
            SEMI("B", "B", AC),
        ),
        case("W", 4, OUT("A", "C", 2), TCOV("B", "C", 2)),
    ],
    (1, 1, 2, 0): [
        case("I", 4, OUT("A", "C", 2), OUT("C", "B", 2)),
    ],
    (1, 1, 3, 0): [
        case(
            "S",
            5,
            SHORT("C"),
            OUT("A", "C", 2),
            OUT("B", "C", 2),
        ),
        reduce_case(">>", "C"),
    ],
    (2, 1, 1, 0): [
        case("I", 3, IN("A"), OUT("B", "C", 2)),
        case(
            "SM",
            3,
            SHORT("C"),
            IN("A"),
            SEMI("B", "B", A),
        ),
        case("W", 4, OUT("B", "A", 2), OUT("A", "C", 2)),
    ],
    (2, 1, 2, 0): [
        case("Sb", 4, SHORT("B"), IN("C"), IN("A")),
        case(
            "S",
            4,
            SHORT("C"),
            OUT("C", "B", 2),
            IN("A"),
        ),
        case(
            "M1",
            4,
            IN("A"),
            IN("C"),
            SEMI("B", "B", C),
        ),
        case(
            "M2",
            4,
            IN("A"),
            IN("C"),
            SEMI("B", "B", AC),
        ),
        case(
            "M3",
            4,
            IN("A"),
            IN("C"),
            SEMI("B", "B", A),
        ),
        case("W", 5, IN("A"), OUT("B", "C", 2), TCOV("C", "A", 2)),
    ],
    (2, 2, 1, 0): [
        case("S", 3, SHORT("C"), IN("A"), IN("B")),
        case("Ia", 4, IN("A"), IN("B"), TCOV("C", "B", 2)),
        case("Ib", 4, IN("A"), IN("B"), TCOV("C", "A", 2)),
        case(
            "Ma",
            4,
            IN("B"),
            OUT("A", "C", 2),
            SEMI("A", "A", B),
        ),
        case(
            "Mb",
            4,
            IN("A"),
            OUT("B", "C", 2),
            SEMI("B", "B", A),
        ),
        case("W", 5, IN("A"), OUT("B", "C", 2), TCOV("B", "A", 2)),
    ],
    (2, 2, 2, 0): [
        case("I", 4, IN("A"), IN("B"), IN("C")),
        case("IIa", 5, IN("A"), OUT("B", "C", 2), OUT("B", "C", 2)),
        case("IIb", 5, IN("B"), OUT("A", "C", 2), OUT("A", "C", 2)),
        case(
            "Ma",
            5,
            IN("C"),
            IN("B"),
            IN("A"),
            SEMI("A", "A", B, covered=True),
        ),
        case(
            "Mb",
            5,
            IN("C"),
            IN("A"),
            IN("B"),
            SEMI("B", "B", A, covered=True),
        ),
        case(
            "SMa",
            5,
            SHORT("C"),
            OUT("C", "A", 2),
            IN("B"),
            SEMI("A", "A", B),
        ),
        case(
            "MMa",
            5,
            IN("C"),
            IN("B"),
            SEMI("A", "A", B),
            SEMI("A", "A", C),
        ),
        case(
            "SMb",
            5,
            SHORT("C"),
            OUT("C", "B", 2),
            IN("A"),
            SEMI("B", "B", A),
        ),
        case(
            "MMb",
            5,
            IN("C"),
            IN("A"),
            SEMI("B", "B", A),
            SEMI("B", "B", C),
        ),
        case("W", 6, OUT("A", "B", 2), OUT("B", "C", 2), OUT("C", "A", 2)),
    ],
}

_G2_ABX = {
    (1, 1, 0, 1): [
        case("I", 2, OUT("A", "AB", 1), TCOV("B", "AB", 1)),
    ],
    (1, 1, 0, 2): [
        case("I", 2, OUT("A", "AB", 1), OUT("AB", "B", 1)),
    ],
    (2, 1, 0, 1): [
        case("I", 2, IN("A"), OUT("AB", "B", 1)),
        case("W", 3, OUT("AB", "A", 1), OUT("A", "B", 2)),
    ],
    (2, 1, 0, 2): [
        case("I", 3, OUT("A", "AB", 1), OUT("A", "AB", 1), TCOV("B", "AB", 1)),
    ],
    (2, 1, 0, 3): [
        case(
            "nR",
            3,
            OUT("B", "AB", 1),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 0, 1): [
        case("Ia", 3, IN("A"), OUT("B", "AB", 1), TCOV("B", "AB", 1)),
        case("Ib", 3, IN("B"), OUT("A", "AB", 1), TCOV("A", "AB", 1)),
        case(
            "Ma",
            3,
            OUT("A", "AB", 1),
            IN("B"),
            SEMI("A", "A", B),
        ),
        case(
            "Mb",
            3,
            OUT("B", "AB", 1),
            IN("A"),
            SEMI("B", "B", A),
        ),
        case("W", 4, OUT("A", "AB", 1), OUT("A", "B", 2), TCOV("B", "AB", 1)),
    ],
    (2, 2, 0, 2): [
        case("Ia", 3, IN("A"), OUT("B", "AB", 1), OUT("B", "AB", 1)),
        case("Ib", 3, IN("B"), OUT("A", "AB", 1), OUT("A", "AB", 1)),
        case("W", 4, OUT("A", "AB", 1), OUT("AB", "B", 1), OUT("B", "A", 2)),
    ],
    (2, 2, 0, 3): [
        case(
            "nR",
            4,
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            TCOV("B", "AB", 1),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 0, 4): [
        case(
            "nR",
            4,
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
        ),
        reduce_case(">>", "AB"),
    ],
}

_G2_ACX = {
    (1, 0, 1, 1): [
        case("S", 2, SHORT("C"), OUT("A", "AB", 1)),
        case("W", 3, OUT("AB", "A", 1), TCOV("C", "A", 2)),
    ],
    (1, 0, 1, 2): [
        case("I", 3, OUT("A", "AB", 1), OUT("AB", "C", 2)),
    ],
    (1, 0, 2, 1): [
        case("I", 3, OUT("A", "AB", 1), IN("C")),
        case("W", 4, OUT("A", "C", 2), OUT("C", "AB", 2)),
    ],
    (1, 0, 2, 2): [
        case("I", 4, IN("C"), OUT("A", "AB", 1), TCOV("AB", "A", 1)),
        case(
            "S",
            4,
            SHORT("C"),
            OUT("C", "AB", 2),
            OUT("AB", "A", 1),
        ),
        case("Ma", 4, IN("C"), OUT("A", "AB", 1), SEMI("AB", "A", C)),
        case("Mb", 4, IN("C"), OUT("A", "AB", 1), SEMI("AB", "B", C)),
        case("W", 5, OUT("A", "C", 2), OUT("C", "AB", 2), TCOV("AB", "A", 1)),
    ],
    (2, 0, 1, 1): [
        case("I", 3, OUT("C", "A", 2), OUT("A", "AB", 1)),
    ],
    (2, 0, 1, 2): [
        case("S", 3, SHORT("C"), OUT("A", "AB", 1), OUT("A", "AB", 1)),
        case("W", 4, OUT("A", "AB", 1), OUT("A", "AB", 1), TCOV("C", "AB", 2)),
    ],
    (2, 0, 2, 1): [
        case("I", 4, IN("C"), OUT("A", "AB", 1), TCOV("A", "AB", 1)),
        case(
            "S",
            4,
            SHORT("C"),
            OUT("C", "A", 2),
            OUT("A", "AB", 1),
        ),
        case("Ma", 4, IN("C"), OUT("AB", "A", 1), SEMI("A", "A", C)),
        case(
            "Mb",
            4,
            IN("C"),
            IN("A"),
            SEMI("AB", "B", C),
        ),
        case("W", 5, OUT("AB", "C", 2), OUT("C", "A", 2), TCOV("A", "AB", 1)),
    ],
    (2, 0, 2, 2): [
        case("I", 4, IN("C"), OUT("A", "AB", 1), OUT("A", "AB", 1)),
        case("W", 5, OUT("A", "AB", 1), OUT("AB", "C", 2), OUT("C", "A", 2)),
    ],
    (2, 0, 2, 3): [
        case(
            "M",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            SEMI("AB", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
}

# ---------------------------------------------------------------------------
# Group 3: four canonical subtrees

_G3 = {
    (1, 1, 1, 1): [
        case("Ia", 3, OUT("A", "AB", 1), OUT("B", "C", 2)),
        case("Ib", 3, OUT("B", "AB", 1), OUT("A", "C", 2)),
    ],
    (1, 1, 1, 2): [
        case(
            "S",
            3,
            SHORT("C"),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
        ),
        case("W", 4, OUT("A", "AB", 1), OUT("AB", "B", 1), TCOV("C", "AB", 2)),
    ],
    (1, 1, 2, 1): [
        case("I", 4, IN("C"), OUT("A", "AB", 1), TCOV("B", "AB", 1)),
        case(
            "S1",
            4,
            SHORT("C"),
            OUT("C", "A", 2),
            OUT("B", "AB", 1),
        ),
        case(
            "Ma",
            4,
            IN("C"),
            OUT("B", "AB", 1),
            SEMI("A", "A", C),
        ),
        case(
            "S2",
            4,
            SHORT("C"),
            OUT("C", "B", 2),
            OUT("A", "AB", 1),
        ),
        case(
            "Mb",
            4,
            IN("C"),
            OUT("A", "AB", 1),
            SEMI("B", "B", C),
        ),
        case("W", 5, OUT("A", "C", 2), OUT("C", "B", 2), TCOV("AB", "A", 1)),
    ],
    (1, 1, 2, 2): [
        case("I", 4, IN("C"), OUT("A", "AB", 1), OUT("B", "AB", 1)),
        case("W", 5, OUT("A", "C", 2), OUT("C", "AB", 2), OUT("AB", "B", 1)),
    ],
    (1, 1, 2, 3): [
        case(
            "Ma",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            SEMI("AB", "A", C),
        ),
        case(
            "Mb",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            SEMI("AB", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 1, 1): [
        case(
            "S",
            3,
            SHORT("C"),
            IN("A"),
            OUT("AB", "B", 1),
        ),
        case("W", 4, OUT("C", "A", 2), OUT("A", "AB", 1), TCOV("B", "AB", 1)),
    ],
    (2, 1, 1, 2): [
        case("I", 4, OUT("A", "AB", 1), OUT("B", "AB", 1), OUT("A", "C", 2)),
    ],
    (2, 1, 1, 3): [
        case(
            "S1",
            4,
            SHORT("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 2, 1): [
        case(
            "I",
            4,
            IN("C"),
            IN("A"),
            OUT("AB", "B", 1),
        ),
        case("W", 5, OUT("AB", "A", 1), OUT("A", "C", 2), OUT("C", "B", 2)),
    ],
    (2, 1, 2, 2): [
        case(
            "I",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            TCOV("B", "AB", 1),
        ),
        case(
            "S",
            5,
            SHORT("C"),
            OUT("C", "A", 2),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
        ),
        case(
            "Ma",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            SEMI("A", "A", C),
        ),
        case(
            "Mb1",
            5,
            IN("C"),
            IN("A"),
            OUT("B", "AB", 1),
            SEMI("AB", "B", C),
        ),
        case(
            "Mb2",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            SEMI("B", "B", C),
        ),
        case(
            "W",
            6,
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "C", 2),
            TCOV("C", "A", 2),
        ),
    ],
    (2, 1, 2, 3): [
        case(
            "I1",
            5,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 2, 4): [
        case(
            "M",
            6,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            SEMI("AB", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 1, 1): [
        case("Ia", 4, IN("A"), OUT("C", "B", 2), OUT("B", "AB", 1)),
        case("Ib", 4, IN("B"), OUT("C", "A", 2), OUT("A", "AB", 1)),
        case(
            "SMa",
            4,
            SHORT("C"),
            OUT("AB", "A", 1),
            IN("B"),
            SEMI("A", "A", B),
        ),
        case(
            "SMb",
            4,
            SHORT("C"),
            OUT("AB", "B", 1),
            IN("A"),
            SEMI("B", "B", A),
        ),
        case("W", 5, OUT("AB", "A", 1), OUT("A", "B", 2), OUT("B", "C", 2)),
    ],
    (2, 2, 1, 2): [
        case(
            "S1",
            4,
            SHORT("C"),
            IN("A"),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
        ),
        case(
            "S2",
            4,
            SHORT("C"),
            IN("B"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
        ),
        case(
            "W",
            5,
            OUT("C", "A", 2),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
            TCOV("A", "AB", 1),
        ),
    ],
    (2, 2, 1, 3): [
        case(
            "nR1",
            5,
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            OUT("B", "C", 2),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 1, 4): [
        case(
            "S",
            5,
            SHORT("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 2, 1): [
        case(
            "S1",
            5,
            SHORT("C"),
            IN("A"),
            OUT("B", "C", 2),
            OUT("B", "AB", 1),
        ),
        case(
            "S2",
            5,
            SHORT("C"),
            IN("B"),
            OUT("A", "C", 2),
            OUT("A", "AB", 1),
        ),
        case(
            "Ia",
            5,
            IN("A"),
            IN("C"),
            OUT("B", "AB", 1),
            TCOV("B", "AB", 1),
        ),
        case(
            "Mb1",
            5,
            IN("A"),
            IN("C"),
            OUT("B", "AB", 1),
            SEMI("B", "B", C),
        ),
        case(
            "Mb2",
            5,
            IN("A"),
            IN("C"),
            OUT("B", "AB", 1),
            SEMI("B", "B", A),
        ),
        case(
            "Ma1",
            5,
            IN("B"),
            IN("C"),
            OUT("A", "AB", 1),
            SEMI("A", "A", B),
        ),
        case(
            "Ma2",
            5,
            IN("B"),
            IN("C"),
            OUT("A", "AB", 1),
            SEMI("A", "A", C),
        ),
        case(
            "Ib",
            5,
            IN("B"),
            IN("C"),
            OUT("A", "AB", 1),
            TCOV("A", "AB", 1),
        ),
        case(
            "W",
            6,
            OUT("A", "C", 2),
            OUT("A", "AB", 1),
            OUT("B", "C", 2),
            TCOV("B", "AB", 1),
        ),
    ],
    (2, 2, 2, 2): [
        case(
            "Ia",
            5,
            IN("C"),
            IN("A"),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
        ),
        case(
            "Ib",
            5,
            IN("C"),
            IN("B"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
        ),
        case(
            "W",
            6,
            OUT("C", "A", 2),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            OUT("B", "C", 2),
        ),
    ],
    (2, 2, 2, 3): [
        case(
            "I",
            6,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            TCOV("B", "AB", 1),
        ),
        case(
            "S",
            6,
            SHORT("C"),
            OUT("C", "A", 2),
            OUT("A", "AB", 1),
            OUT("AB", "B", 1),
            OUT("AB", "B", 1),
        ),
        case(
            "Ma",
            6,
            IN("C"),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
            OUT("A", "AB", 1),
            SEMI("A", "A", C),
        ),
        case(
            "Mb",
            6,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            SEMI("B", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 2, 4): [
        case(
            "I",
            6,
            IN("C"),
            OUT("A", "AB", 1),
            OUT("A", "AB", 1),
            OUT("B", "AB", 1),
            OUT("B", "AB", 1),
        ),
        reduce_case(">>", "AB"),
    ],
}

TABLE: dict[tuple[int, int, int, int], list[Case]] = {}
TABLE.update(_G1)
TABLE.update(_G2_ABC)
TABLE.update(_G2_ABX)
TABLE.update(_G2_ACX)
TABLE.update(_G3)

assert len(TABLE) == 56


def known_compositions() -> list[tuple[int, int, int, int]]:
    return sorted(TABLE)


def normalize_ab_swap(tree: TaggedTree) -> TaggedTree:
    """Swap A and B tags when the B class has more leaves."""
    la, lb, _, _ = tree.composition()
    return tree.with_swapped_tags() if lb > la else tree


# ---------------------------------------------------------------------------
# Recipe instantiation


def _spec_options(tree: TaggedTree, topo: Topology, spec: PathSpec, used: set[int]):
    if spec.kind in ("in", "out", "tcov"):
        firsts = [u for u in topo.classes[spec.c1] if u not in used]
        if spec.kind == "in":
            for u, v in combinations(firsts, 2):
                yield (u, v, (u, v))
        elif spec.kind == "out":
            for u in firsts:
                for v in topo.classes[spec.c2]:
                    if v not in used and v != u:
                        yield (u, v, (u, v))
        else:
            for u in firsts:
                for v in topo.classes[spec.c2]:
                    if v in used and v != u:
                        yield (u, v, (u,))
    elif spec.kind == "semi":
        if spec.covered_src:
            sources = [u for u in topo.classes[spec.c1] if u in used]
        else:
            sources = [u for u in topo.classes[spec.c1] if u not in used]
        mates = topo.mate_nodes(frozenset({spec.c1}), spec.tag, spec.host)
        for u in sources:
            for m in mates:
                yield (u, m, (u,) if not spec.covered_src else ())
    elif spec.kind == "short":
        pool = topo.clean_pool if spec.c1 == "C" else topo.classes[spec.c1]
        for u in pool:
            if u not in used:
                yield (u, u, (u,))
    elif spec.kind == "cut":
        for n in topo.link_bads(frozenset({spec.c1}), frozenset({spec.c2})):
            yield (n, n, ())
    else:  # pragma: no cover
        raise PreconditionViolated(f"unknown path spec {spec.kind}")


def _instantiate(tree: TaggedTree, topo: Topology, cs: Case) -> Cover | None:
    """Bind a recipe to concrete nodes, backtracking until the resulting
    cover validates at the declared cost; None when no binding works.
    Raises BudgetExceeded after INSTANTIATE_BUDGET steps."""
    recipe = cs.recipe
    budget = [INSTANTIATE_BUDGET]

    def backtrack(i: int, used: set[int], paths: list[CoverPath]) -> Cover | None:
        if budget[0] <= 0:
            raise BudgetExceeded(f"recipe {cs.label} exceeded {INSTANTIATE_BUDGET} steps")
        budget[0] -= 1
        if i == len(recipe):
            cover = Cover(list(paths))
            try:
                cover.validate(tree)
            except PreconditionViolated:
                return None
            if cover.total_cost != cs.cost:
                return None
            return cover
        spec = recipe[i]
        for u, v, consumed in _spec_options(tree, topo, spec, used):
            cp = path_cost(tree, u, v)
            if cp.cost != spec.cost:
                continue
            paths.append(cp)
            used.update(consumed)
            got = backtrack(i + 1, used, paths)
            if got is not None:
                return got
            paths.pop()
            used.difference_update(consumed)
        return None

    return backtrack(0, set(), [])


def _reduce_and_recurse(
    tree: TaggedTree, cs: Case, depth: int
) -> tuple[int, Cover, list[str]] | None:
    """Spend one in-traversal of the named class and recurse; every choice
    of endpoints is tried and the cheapest valid outcome kept."""
    best: tuple[int, Cover, list[str]] | None = None
    for u, v in combinations(tree.leaf_classes()[cs.reduce_class], 2):
        first = path_cost(tree, u, v)
        reduced = reduce_by_paths(tree, [(u, v)])
        try:
            sub_cost, sub_cover, sub_labels = optimal_cover_of_residual(reduced, _depth=depth - 1)
        except (UnknownComposition, NoCaseMatched):
            continue
        total = first.cost + sub_cost
        if best is not None and total >= best[0]:
            continue
        lifted = lift_paths(tree, reduced, sub_cover.paths)
        cover = Cover([first] + lifted)
        try:
            cover.validate(tree)
        except PreconditionViolated:
            continue
        if cover.total_cost != total:
            continue
        best = (total, cover, sub_labels)
    return best


def optimal_cover_of_residual(
    tree: TaggedTree, _depth: int = 16
) -> tuple[int, Cover, list[str]]:
    """Cost, witness cover and case labels for a residual tree.

    Walks the composition's cases in table order and binds each recipe to
    the tree; a recipe binds only when its cover validates at the declared
    cost, so every candidate is a real cover.  A case that cannot beat the
    best cover found so far is skipped, and reduce cases are always tried.
    Costs never decrease along a case list, so the answer is the first case
    whose recipe binds at the minimum cost.
    """
    if _depth <= 0:
        raise BudgetExceeded("reduction recursion too deep")
    work = normalize_ab_swap(tree)
    comp = work.composition()
    cases = TABLE.get(comp)
    if cases is None:
        raise UnknownComposition(str(comp))
    topo = Topology(work)
    best: tuple[int, Cover, list[str]] | None = None
    for cs in cases:
        if cs.reduce_class is not None:
            got = _reduce_and_recurse(work, cs, _depth)
            if got is None:
                continue
            cost, cover, sub_labels = got
            labels = [f"{comp} {cs.label}"] + sub_labels
        else:
            if best is not None and cs.cost >= best[0]:
                continue
            cover = _instantiate(work, topo, cs)
            if cover is None:
                continue
            cost, labels = cs.cost, [f"{comp} {cs.label}"]
        if best is None or cost < best[0]:
            best = (cost, cover, labels)
    if best is None:
        raise NoCaseMatched(str(comp))
    return best
