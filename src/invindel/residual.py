"""Optimal covers for residual trees.

Every residual tree falls into one of 56 leaf compositions (with the A and
B classes swapped so that the A count is at least the B count).  For each
composition an ordered case list gives every topology case a witness
recipe: the path kinds that, bound to concrete nodes of the tree, form a
cover.  A case costs what its recipe sums to, and each path kind costs what
the tag sets of its end classes fix, so no cost is written in the table.
Costs never decrease along a list, and the reducible case, when there is
one, comes last: it spends one extra in-traversal and recurses into a
smaller composition.  The lookup returns the cheapest recipe that binds.

The tables are data interpreted by one small engine, so each entry can be
audited row by row.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .components import CLASS_TAGS, TaggedTree, reduce_by_paths
from .errors import BudgetExceeded, NoCaseMatched, PreconditionViolated, UnknownComposition
from .genome import strict_record
from .treecover import Cover, CoverPath, Topology, cover_floor, lift_paths, path_cost

A = frozenset({"A"})
B = frozenset({"B"})
C = frozenset({"C"})
AC = A | C
BC = B | C

# Backtracking steps one recipe binding may take before BudgetExceeded;
# the bindings measured so far took at most 226.
INSTANTIATE_BUDGET = 20_000


@strict_record
class PathSpec(NamedTuple):
    kind: str  # in | out | tcov | semi | short | cut
    c1: str | None = None
    c2: str | None = None
    cost: int = 1  # semi, short and cut paths cost 1
    tag: str | None = None
    host: frozenset | None = None
    covered_src: bool = False


def _traversal(kind: str, c1: str, c2: str) -> PathSpec:
    """A leaf-to-leaf path costs 1 between classes sharing a tag, else 2."""
    return PathSpec(kind, c1, c2, 1 if CLASS_TAGS[c1] & CLASS_TAGS[c2] else 2)


def IN(cls: str) -> PathSpec:
    return _traversal("in", cls, cls)


def OUT(c1: str, c2: str) -> PathSpec:
    return _traversal("out", c1, c2)


def TCOV(c1: str, c2: str) -> PathSpec:
    """Traversal from a fresh c1 leaf to an already covered c2 leaf."""
    return _traversal("tcov", c1, c2)


def SEMI(src: str, tag: str, host: frozenset, covered: bool = False) -> PathSpec:
    return PathSpec("semi", src, None, tag=tag, host=host, covered_src=covered)


def SHORT(cls: str) -> PathSpec:
    return PathSpec("short", cls)


def CUT(c1: str, c2: str) -> PathSpec:
    """Short path on the bad node of the (short) bad link between classes."""
    return PathSpec("cut", c1, c2)


@strict_record
class Case(NamedTuple):
    label: str
    cost: int | None = None
    recipe: tuple[PathSpec, ...] | None = None
    reduce_class: str | None = None


def case(label, *recipe) -> Case:
    return Case(label, sum(spec.cost for spec in recipe), recipe)


def reduce_case(label, reduce_class) -> Case:
    return Case(label, None, None, reduce_class)


# ---------------------------------------------------------------------------
# Group 1: two canonical subtrees that share no tag

_G1 = {
    (1, 1, 0, 0): [
        case("I", OUT("A", "B")),
    ],
    (2, 1, 0, 0): [
        case("S", SHORT("B"), IN("A")),
        case("M", IN("A"), SEMI("B", "B", A)),
        case("W", IN("A"), TCOV("B", "A")),
    ],
    (2, 2, 0, 0): [
        case("I", IN("A"), IN("B")),
        case("S", IN("A"), IN("B"), CUT("A", "B")),
        case("Ma", IN("A"), SEMI("A", "A", B, covered=True), IN("B")),
        case("Mb", IN("A"), IN("B"), SEMI("B", "B", A, covered=True)),
        case("W", OUT("A", "B"), OUT("A", "B")),
    ],
    (1, 0, 1, 0): [
        case("I", OUT("A", "C")),
    ],
    (1, 0, 2, 0): [
        case("S", SHORT("C"), OUT("C", "A")),
        case("Sa", SHORT("A"), IN("C")),
        case("M", IN("C"), SEMI("A", "A", C)),
        case("W", OUT("C", "A"), TCOV("C", "A")),
    ],
    (2, 0, 1, 0): [
        case("S", SHORT("C"), IN("A")),
        case("W", OUT("C", "A"), TCOV("A", "A")),
    ],
    (2, 0, 2, 0): [
        case("I", IN("C"), IN("A")),
        case("W", OUT("C", "A"), OUT("C", "A")),
    ],
    (0, 0, 1, 1): [
        case("I", OUT("C", "AB")),
    ],
    (0, 0, 1, 2): [
        case("S", SHORT("C"), IN("AB")),
        case("W", OUT("C", "AB"), TCOV("AB", "AB")),
    ],
    (0, 0, 2, 1): [
        case("S", SHORT("C"), OUT("C", "AB")),
        case("Sa", SHORT("AB"), IN("C")),
        case("Ma", IN("C"), SEMI("AB", "A", C)),
        case("Mb", IN("C"), SEMI("AB", "B", C)),
        case("W", OUT("C", "AB"), TCOV("C", "AB")),
    ],
    (0, 0, 2, 2): [
        case("I", IN("C"), IN("AB")),
        case("W", OUT("C", "AB"), OUT("C", "AB")),
    ],
}

# ---------------------------------------------------------------------------
# Group 2: three canonical subtrees

_G2_ABC = {
    (1, 1, 1, 0): [
        case("S", SHORT("C"), OUT("A", "B")),
        case("Sa", SHORT("A"), OUT("B", "C")),
        case("Sb", SHORT("B"), OUT("A", "C")),
        case("Ma", OUT("B", "C"), SEMI("A", "A", BC)),
        case("Mb", OUT("A", "C"), SEMI("B", "B", AC)),
        case("W", OUT("A", "C"), TCOV("B", "C")),
    ],
    (1, 1, 2, 0): [
        case("I", OUT("A", "C"), OUT("C", "B")),
    ],
    (1, 1, 3, 0): [
        case("S", SHORT("C"), OUT("A", "C"), OUT("B", "C")),
        reduce_case(">>", "C"),
    ],
    (2, 1, 1, 0): [
        case("I", IN("A"), OUT("B", "C")),
        case("SM", SHORT("C"), IN("A"), SEMI("B", "B", A)),
        case("W", OUT("B", "A"), OUT("A", "C")),
    ],
    (2, 1, 2, 0): [
        case("Sb", SHORT("B"), IN("C"), IN("A")),
        case("S", SHORT("C"), OUT("C", "B"), IN("A")),
        case("M1", IN("A"), IN("C"), SEMI("B", "B", C)),
        case("M2", IN("A"), IN("C"), SEMI("B", "B", AC)),
        case("M3", IN("A"), IN("C"), SEMI("B", "B", A)),
        case("W", IN("A"), OUT("B", "C"), TCOV("C", "A")),
    ],
    (2, 2, 1, 0): [
        case("S", SHORT("C"), IN("A"), IN("B")),
        case("Ia", IN("A"), IN("B"), TCOV("C", "B")),
        case("Ib", IN("A"), IN("B"), TCOV("C", "A")),
        case("Ma", IN("B"), OUT("A", "C"), SEMI("A", "A", B)),
        case("Mb", IN("A"), OUT("B", "C"), SEMI("B", "B", A)),
        case("W", IN("A"), OUT("B", "C"), TCOV("B", "A")),
    ],
    (2, 2, 2, 0): [
        case("I", IN("A"), IN("B"), IN("C")),
        case("IIa", IN("A"), OUT("B", "C"), OUT("B", "C")),
        case("IIb", IN("B"), OUT("A", "C"), OUT("A", "C")),
        case("Ma", IN("C"), IN("B"), IN("A"), SEMI("A", "A", B, covered=True)),
        case("Mb", IN("C"), IN("A"), IN("B"), SEMI("B", "B", A, covered=True)),
        case("SMa", SHORT("C"), OUT("C", "A"), IN("B"), SEMI("A", "A", B)),
        case("MMa", IN("C"), IN("B"), SEMI("A", "A", B), SEMI("A", "A", C)),
        case("SMb", SHORT("C"), OUT("C", "B"), IN("A"), SEMI("B", "B", A)),
        case("MMb", IN("C"), IN("A"), SEMI("B", "B", A), SEMI("B", "B", C)),
        case("W", OUT("A", "B"), OUT("B", "C"), OUT("C", "A")),
    ],
}

_G2_ABX = {
    (1, 1, 0, 1): [
        case("I", OUT("A", "AB"), TCOV("B", "AB")),
    ],
    (1, 1, 0, 2): [
        case("I", OUT("A", "AB"), OUT("AB", "B")),
    ],
    (2, 1, 0, 1): [
        case("I", IN("A"), OUT("AB", "B")),
        case("W", OUT("AB", "A"), OUT("A", "B")),
    ],
    (2, 1, 0, 2): [
        case("I", OUT("A", "AB"), OUT("A", "AB"), TCOV("B", "AB")),
    ],
    (2, 1, 0, 3): [
        case("nR", OUT("B", "AB"), OUT("A", "AB"), OUT("A", "AB")),
    ],
    (2, 2, 0, 1): [
        case("Ia", IN("A"), OUT("B", "AB"), TCOV("B", "AB")),
        case("Ib", IN("B"), OUT("A", "AB"), TCOV("A", "AB")),
        case("Ma", OUT("A", "AB"), IN("B"), SEMI("A", "A", B)),
        case("Mb", OUT("B", "AB"), IN("A"), SEMI("B", "B", A)),
        case("W", OUT("A", "AB"), OUT("A", "B"), TCOV("B", "AB")),
    ],
    (2, 2, 0, 2): [
        case("Ia", IN("A"), OUT("B", "AB"), OUT("B", "AB")),
        case("Ib", IN("B"), OUT("A", "AB"), OUT("A", "AB")),
        case("W", OUT("A", "AB"), OUT("AB", "B"), OUT("B", "A")),
    ],
    (2, 2, 0, 3): [
        case("nR", OUT("A", "AB"), OUT("A", "AB"), OUT("B", "AB"), TCOV("B", "AB")),
    ],
    (2, 2, 0, 4): [
        case("nR", OUT("A", "AB"), OUT("A", "AB"), OUT("B", "AB"), OUT("B", "AB")),
    ],
}

_G2_ACX = {
    (1, 0, 1, 1): [
        case("S", SHORT("C"), OUT("A", "AB")),
        case("W", OUT("AB", "A"), TCOV("C", "A")),
    ],
    (1, 0, 1, 2): [
        case("I", OUT("A", "AB"), OUT("AB", "C")),
    ],
    (1, 0, 2, 1): [
        case("I", OUT("A", "AB"), IN("C")),
        case("W", OUT("A", "C"), OUT("C", "AB")),
    ],
    (1, 0, 2, 2): [
        case("I", IN("C"), OUT("A", "AB"), TCOV("AB", "A")),
        case("S", SHORT("C"), OUT("C", "AB"), OUT("AB", "A")),
        case("Ma", IN("C"), OUT("A", "AB"), SEMI("AB", "A", C)),
        case("Mb", IN("C"), OUT("A", "AB"), SEMI("AB", "B", C)),
        case("W", OUT("A", "C"), OUT("C", "AB"), TCOV("AB", "A")),
    ],
    (2, 0, 1, 1): [
        case("I", OUT("C", "A"), OUT("A", "AB")),
    ],
    (2, 0, 1, 2): [
        case("S", SHORT("C"), OUT("A", "AB"), OUT("A", "AB")),
        case("W", OUT("A", "AB"), OUT("A", "AB"), TCOV("C", "AB")),
    ],
    (2, 0, 2, 1): [
        case("I", IN("C"), OUT("A", "AB"), TCOV("A", "AB")),
        case("S", SHORT("C"), OUT("C", "A"), OUT("A", "AB")),
        case("Ma", IN("C"), OUT("AB", "A"), SEMI("A", "A", C)),
        case("Mb", IN("C"), IN("A"), SEMI("AB", "B", C)),
        case("W", OUT("AB", "C"), OUT("C", "A"), TCOV("A", "AB")),
    ],
    (2, 0, 2, 2): [
        case("I", IN("C"), OUT("A", "AB"), OUT("A", "AB")),
        case("W", OUT("A", "AB"), OUT("AB", "C"), OUT("C", "A")),
    ],
    (2, 0, 2, 3): [
        case("M", IN("C"), OUT("A", "AB"), OUT("A", "AB"), SEMI("AB", "B", C)),
        reduce_case(">>", "AB"),
    ],
}

# ---------------------------------------------------------------------------
# Group 3: four canonical subtrees

_G3 = {
    (1, 1, 1, 1): [
        case("Ia", OUT("A", "AB"), OUT("B", "C")),
        case("Ib", OUT("B", "AB"), OUT("A", "C")),
    ],
    (1, 1, 1, 2): [
        case("S", SHORT("C"), OUT("A", "AB"), OUT("AB", "B")),
        case("W", OUT("A", "AB"), OUT("AB", "B"), TCOV("C", "AB")),
    ],
    (1, 1, 2, 1): [
        case("I", IN("C"), OUT("A", "AB"), TCOV("B", "AB")),
        case("S1", SHORT("C"), OUT("C", "A"), OUT("B", "AB")),
        case("Ma", IN("C"), OUT("B", "AB"), SEMI("A", "A", C)),
        case("S2", SHORT("C"), OUT("C", "B"), OUT("A", "AB")),
        case("Mb", IN("C"), OUT("A", "AB"), SEMI("B", "B", C)),
        case("W", OUT("A", "C"), OUT("C", "B"), TCOV("AB", "A")),
    ],
    (1, 1, 2, 2): [
        case("I", IN("C"), OUT("A", "AB"), OUT("B", "AB")),
        case("W", OUT("A", "C"), OUT("C", "AB"), OUT("AB", "B")),
    ],
    (1, 1, 2, 3): [
        case("Ma", IN("C"), OUT("A", "AB"), OUT("AB", "B"), SEMI("AB", "A", C)),
        case("Mb", IN("C"), OUT("A", "AB"), OUT("AB", "B"), SEMI("AB", "B", C)),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 1, 1): [
        case("S", SHORT("C"), IN("A"), OUT("AB", "B")),
        case("W", OUT("C", "A"), OUT("A", "AB"), TCOV("B", "AB")),
    ],
    (2, 1, 1, 2): [
        case("I", OUT("A", "AB"), OUT("B", "AB"), OUT("A", "C")),
    ],
    (2, 1, 1, 3): [
        case("S1", SHORT("C"), OUT("A", "AB"), OUT("A", "AB"), OUT("AB", "B")),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 2, 1): [
        case("I", IN("C"), IN("A"), OUT("AB", "B")),
        case("W", OUT("AB", "A"), OUT("A", "C"), OUT("C", "B")),
    ],
    (2, 1, 2, 2): [
        case("I", IN("C"), OUT("A", "AB"), OUT("A", "AB"), TCOV("B", "AB")),
        case("S", SHORT("C"), OUT("C", "A"), OUT("A", "AB"), OUT("B", "AB")),
        case("Ma", IN("C"), OUT("A", "AB"), OUT("B", "AB"), SEMI("A", "A", C)),
        case("Mb1", IN("C"), IN("A"), OUT("B", "AB"), SEMI("AB", "B", C)),
        case("Mb2", IN("C"), OUT("A", "AB"), OUT("A", "AB"), SEMI("B", "B", C)),
        case("W", OUT("A", "AB"), OUT("A", "AB"), OUT("B", "C"), TCOV("C", "A")),
    ],
    (2, 1, 2, 3): [
        case("I1", IN("C"), OUT("A", "AB"), OUT("A", "AB"), OUT("AB", "B")),
        reduce_case(">>", "AB"),
    ],
    (2, 1, 2, 4): [
        case(
            "M",
            IN("C"),
            OUT("A", "AB"),
            OUT("A", "AB"),
            OUT("AB", "B"),
            SEMI("AB", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 1, 1): [
        case("Ia", IN("A"), OUT("C", "B"), OUT("B", "AB")),
        case("Ib", IN("B"), OUT("C", "A"), OUT("A", "AB")),
        case("SMa", SHORT("C"), OUT("AB", "A"), IN("B"), SEMI("A", "A", B)),
        case("SMb", SHORT("C"), OUT("AB", "B"), IN("A"), SEMI("B", "B", A)),
        case("W", OUT("AB", "A"), OUT("A", "B"), OUT("B", "C")),
    ],
    (2, 2, 1, 2): [
        case("S1", SHORT("C"), IN("A"), OUT("B", "AB"), OUT("B", "AB")),
        case("S2", SHORT("C"), IN("B"), OUT("A", "AB"), OUT("A", "AB")),
        case("W", OUT("C", "A"), OUT("B", "AB"), OUT("B", "AB"), TCOV("A", "AB")),
    ],
    (2, 2, 1, 3): [
        case("nR1", OUT("A", "AB"), OUT("A", "AB"), OUT("AB", "B"), OUT("B", "C")),
    ],
    (2, 2, 1, 4): [
        case(
            "S",
            SHORT("C"),
            OUT("A", "AB"),
            OUT("A", "AB"),
            OUT("B", "AB"),
            OUT("B", "AB"),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 2, 1): [
        case("S1", SHORT("C"), IN("A"), OUT("B", "C"), OUT("B", "AB")),
        case("S2", SHORT("C"), IN("B"), OUT("A", "C"), OUT("A", "AB")),
        case("Ia", IN("A"), IN("C"), OUT("B", "AB"), TCOV("B", "AB")),
        case("Mb1", IN("A"), IN("C"), OUT("B", "AB"), SEMI("B", "B", C)),
        case("Mb2", IN("A"), IN("C"), OUT("B", "AB"), SEMI("B", "B", A)),
        case("Ma1", IN("B"), IN("C"), OUT("A", "AB"), SEMI("A", "A", B)),
        case("Ma2", IN("B"), IN("C"), OUT("A", "AB"), SEMI("A", "A", C)),
        case("Ib", IN("B"), IN("C"), OUT("A", "AB"), TCOV("A", "AB")),
        case("W", OUT("A", "C"), OUT("A", "AB"), OUT("B", "C"), TCOV("B", "AB")),
    ],
    (2, 2, 2, 2): [
        case("Ia", IN("C"), IN("A"), OUT("B", "AB"), OUT("B", "AB")),
        case("Ib", IN("C"), IN("B"), OUT("A", "AB"), OUT("A", "AB")),
        case("W", OUT("C", "A"), OUT("A", "AB"), OUT("AB", "B"), OUT("B", "C")),
    ],
    (2, 2, 2, 3): [
        case(
            "I",
            IN("C"),
            OUT("A", "AB"),
            OUT("A", "AB"),
            OUT("B", "AB"),
            TCOV("B", "AB"),
        ),
        case(
            "S",
            SHORT("C"),
            OUT("C", "A"),
            OUT("A", "AB"),
            OUT("AB", "B"),
            OUT("AB", "B"),
        ),
        case(
            "Ma",
            IN("C"),
            OUT("B", "AB"),
            OUT("B", "AB"),
            OUT("A", "AB"),
            SEMI("A", "A", C),
        ),
        case(
            "Mb",
            IN("C"),
            OUT("A", "AB"),
            OUT("A", "AB"),
            OUT("B", "AB"),
            SEMI("B", "B", C),
        ),
        reduce_case(">>", "AB"),
    ],
    (2, 2, 2, 4): [
        case(
            "I",
            IN("C"),
            OUT("A", "AB"),
            OUT("A", "AB"),
            OUT("B", "AB"),
            OUT("B", "AB"),
        ),
        reduce_case(">>", "AB"),
    ],
}

# A row that pairs every leaf into traversals whose class pattern is
# connected (any two paths linked through classes their ends share, a
# tcov's covered end aside) and that costs cover_floor is the whole of its
# list: the nR rows of (2, 1, 0, 3), (2, 2, 0, 3) and (2, 2, 0, 4), and nR1
# of (2, 2, 1, 3).
#
# Proof.  Such a row always binds.  Take a binding of maximum total length,
# and suppose some edge is crossed by no path.  Both sides of the edge hold
# leaves, every leaf ends a path, and the pattern is connected, so a path on
# one side and a path on the other have ends of one class, neither the
# covered end of a tcov.  Swapping those two ends keeps every path's class
# pair, so its kind and cost, and both new paths cross the edge; by the
# triangle inequality the total length grows by at least 2, a
# contradiction.  So every node is covered and the row binds at the floor.
# No cover costs less than the floor, and a reduce case is kept only at a
# strictly lower cost, so a reduce case after such a row is never chosen.

TABLE: dict[tuple[int, int, int, int], list[Case]] = {}
TABLE.update(_G1)
TABLE.update(_G2_ABC)
TABLE.update(_G2_ABX)
TABLE.update(_G2_ACX)
TABLE.update(_G3)

assert len(TABLE) == 56
assert all(la >= lb for la, lb, _, _ in TABLE)


def known_compositions() -> list[tuple[int, int, int, int]]:
    return sorted(TABLE)


def table_takes(la: int, lb: int, lc: int, lab: int) -> bool:
    """Whether the tables cover the composition, read with A and B either way."""
    return (max(la, lb), min(la, lb), lc, lab) in TABLE


def normalize_ab_swap(tree: TaggedTree) -> TaggedTree:
    """Swap A and B tags when the B class has more leaves."""
    la, lb, _, _ = tree.composition()
    return tree.with_swapped_tags() if lb > la else tree


# ---------------------------------------------------------------------------
# Recipe instantiation


def _spec_options(topo: Topology, spec: PathSpec, used: set[int]):
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


def _instantiate(topo: Topology, cs: Case) -> Cover | None:
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
                cover.validate(topo.tree)
            except PreconditionViolated:
                return None
            return cover
        spec = recipe[i]
        for u, v, consumed in _spec_options(topo, spec, used):
            paths.append(CoverPath(u, v, spec.cost))
            used.update(consumed)
            got = backtrack(i + 1, used, paths)
            if got is not None:
                return got
            paths.pop()
            used.difference_update(consumed)
        return None

    return backtrack(0, set(), [])


def _case_covers(topo: Topology, cs: Case, depth: int, beats):
    """The covers of one case that ``beats`` their cost, asked before each
    is built, with the case labels of its sub-lookup.

    A recipe case offers its binding.  A reduce case offers one cover per
    pair of its class's leaves: spend the pair's in-traversal, look up the
    smaller tree one level deeper and lift its cover.  A pair whose smaller
    tree is off the tables or binds no case, or whose lifted cover does not
    validate, offers none.
    """
    if cs.reduce_class is None:
        if beats(cs.cost):
            cover = _instantiate(topo, cs)
            if cover is not None:
                yield cover, []
        return
    work = topo.tree
    for u, v in combinations(topo.classes[cs.reduce_class], 2):
        first = path_cost(work, u, v)
        reduced = reduce_by_paths(work, [(u, v)])
        try:
            sub_cover, sub_labels = optimal_cover_of_residual(reduced, _depth=depth - 1)
        except (UnknownComposition, NoCaseMatched):
            continue
        if not beats(first.cost + sub_cover.total_cost):
            continue
        cover = Cover([first] + lift_paths(work, reduced, sub_cover.paths))
        try:
            cover.validate(work)
        except PreconditionViolated:
            continue
        yield cover, sub_labels


def optimal_cover_of_residual(
    tree: TaggedTree, _depth: int = 16
) -> tuple[Cover, list[str]]:
    """Witness cover of least cost and case labels for a residual tree.

    Walks the composition's cases in table order and keeps one best cover:
    a case's cover is built only when its cost is strictly below the best
    so far.  A recipe binds only when its cover validates at the declared
    cost, so every candidate is a real cover; a reduce case's candidates
    are its pairs, each priced by its sub-lookup before it is lifted.
    Costs never decrease along a case list, so the answer is the first
    candidate that binds at the minimum cost.

    The walk stops once the best cover costs the tree's leaf bound
    (`treecover.cover_floor`), between a reduce case's pairs too: no cover
    costs less than the bound, so no later candidate could replace it.
    """
    if _depth <= 0:
        raise BudgetExceeded("reduction recursion too deep")
    work = normalize_ab_swap(tree)
    comp = work.composition()
    cases = TABLE.get(comp)
    if cases is None:
        raise UnknownComposition(str(comp))
    topo = Topology(work)
    floor = cover_floor(work)
    best: tuple[Cover, list[str]] | None = None

    def beats(cost: int) -> bool:
        return best is None or cost < best[0].total_cost

    for cs in cases:
        for cover, sub_labels in _case_covers(topo, cs, _depth, beats):
            best = (cover, [f"{comp} {cs.label}"] + sub_labels)
            if cover.total_cost <= floor:
                return best
    if best is None:
        raise NoCaseMatched(str(comp))
    return best
