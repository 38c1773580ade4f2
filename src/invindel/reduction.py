"""Safe reduction of tagged trees to residual trees.

Each leaf class shrinks, in the order A, B, AB, C, to the most leaves the
residual tables take (`kept_count`), through balanced in-traversals and,
when one leaf is to stay, an essential-leaf choice among the last three;
the clean class is reduced while testing which clean short-branch leaf,
if any, should survive as the solo leaf.  The test stops at the first
hypothesis whose total reaches the input tree's leaf bound
(`treecover.cover_floor`), which no cover can beat; the residual lookup
stops its case walk at the residual tree's bound the same way.  Every spent
in-traversal is recorded, re-expressed in the input tree, so the final
cover can be assembled and checked end to end.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from .components import CLASS_TAGS, TaggedTree, reduce_by_paths
from .errors import BudgetExceeded, DegenerateTree, PreconditionViolated, UnknownComposition
from .genome import strict_record
from .residual import optimal_cover_of_residual, table_takes
from .treecover import (
    Cover,
    CoverPath,
    closed_form,
    cover_floor,
    cover_tree_with_traversals,
    induced_subtree,
    leaf_branch,
    lift_paths,
    path_cost,
    solo_candidates,
)


@strict_record
class ReductionStep(NamedTuple):
    """One spent in-traversal, a strict record of its four fields."""

    kind: str  # balanced_in_traversal | solo_safe_clean | three_to_one
    path: tuple[int, int]  # endpoints in input-tree node ids
    cost: int
    leaf_class: str


@strict_record
class ResidualResult(NamedTuple):
    """The residual tree, the spent steps and the lifted lookup cover, a
    strict record of its four fields."""

    residual: TaggedTree
    steps: list[ReductionStep]
    lookup_cover: Cover  # already lifted to input-tree node ids
    case_trace: list[str]

    @property
    def total_cost(self) -> int:
        return self.full_cover().total_cost

    def full_cover(self) -> Cover:
        paths = [CoverPath(s.path[0], s.path[1], s.cost) for s in self.steps]
        return Cover(paths + list(self.lookup_cover.paths))


# ---------------------------------------------------------------------------
# Elementary reductions


def _balanced_pair_plan(
    tree: TaggedTree,
    leaves: list[int],
    keep: int,
    solo: int | None = None,
) -> list[tuple[int, int]]:
    """Which circular-pairing in-traversals to spend on one leaf class so
    that ``keep`` of its leaves (of the class's parity) remain.

    With an odd class one leaf (the solo candidate when given) is excluded
    before pairing; afterwards the first traversals are dropped, the one
    covering the solo candidate, when given, ahead of the others.
    """
    members = sorted(leaves)
    if len(members) % 2 == 1:
        members.remove(solo if solo is not None else members[0])
        keep -= 1
    pairs = cover_tree_with_traversals(tree, leaves=members)
    pairs.sort(key=lambda p: solo not in p)
    del pairs[: keep // 2]
    return pairs


def _fragment_leaf_tags(
    tree: TaggedTree, sub: frozenset[int], branch: list[int]
) -> frozenset[str]:
    """Union of tag sets over tree leaves in the outside fragments attached
    to a leaf branch of a class subtree."""
    tags: set[str] = set()
    seen: set[int] = set()
    for n in branch:
        for v in tree.adj[n]:
            if v in sub or v in seen:
                continue
            stack = [v]
            while stack:
                x = stack.pop()
                if x in seen or x in sub:
                    continue
                seen.add(x)
                if tree.degree(x) <= 1:
                    tags |= tree.tags(x)
                stack.extend(y for y in tree.adj[x] if y not in seen and y not in sub)
    return frozenset(tags)


def essential_leaf(tree: TaggedTree, leaves: list[int]) -> int:
    """The leaf to keep when shrinking a three-leaf class to one.

    First choice: a leaf whose branch inside the class subtree is also a
    leaf branch of the whole tree.  Second: a leaf from a pair of branches
    whose outside fragments see intersecting leaf-tag sets.  Otherwise any
    leaf works.
    """
    L = sorted(leaves)
    if len(L) != 3:
        raise PreconditionViolated(f"essential leaf needs 3 leaves, got {len(L)}")
    sub = induced_subtree(tree, L)
    within = tree.restricted(sub)
    branches = {u: leaf_branch(within, u) for u in L}
    for u in L:
        if branches[u] == leaf_branch(tree, u):
            return u
    supersets = {u: _fragment_leaf_tags(tree, sub, branches[u]) for u in L}
    for i in range(3):
        for j in range(i + 1, 3):
            if supersets[L[i]] & supersets[L[j]]:
                return min(L[i], L[j])
    return L[0]


# ---------------------------------------------------------------------------
# The full reduction pipeline


class _Reducer:
    def __init__(self, base: TaggedTree):
        self.base = base  # lifting target
        self.work = base
        self.steps: list[ReductionStep] = []
        # every total this reducer and its forks reach is the cost of a cover
        # of the input tree
        self.floor = cover_floor(base)

    def fork(self) -> "_Reducer":
        """A branch that shares the trees, which steps replace and never
        mutate, and owns a copy of the step list."""
        other = copy.copy(self)
        other.steps = list(self.steps)
        return other

    def apply_pairs(self, pairs: list[tuple[int, int]], kind: str, cls: str) -> None:
        paths = [path_cost(self.work, u, v) for u, v in pairs]
        for p in lift_paths(self.base, self.work, paths):
            self.steps.append(ReductionStep(kind, (p.u, p.v), p.cost, cls))
        self.work = reduce_by_paths(self.work, pairs)


_SHRINK_ORDER = ("A", "B", "AB", "C")
_SLOT = {cls: i for i, cls in enumerate(CLASS_TAGS)}  # place in a composition


def _fewest(n: int) -> int:
    """The fewest leaves a class of ``n`` can shrink to: 1 or 2 by parity."""
    return n if n <= 2 else 2 - n % 2


def kept_count(composition: tuple[int, int, int, int], cls: str) -> int:
    """How many leaves the class ``cls`` keeps when it is shrunk.

    The largest count of its parity, at most 4 and at most what it holds,
    for which the residual tables take the composition with every class
    shrunk after this one at its fewest leaves; its fewest if there is none.
    """
    counts = list(composition)
    for later in _SHRINK_ORDER[_SHRINK_ORDER.index(cls) + 1 :]:
        counts[_SLOT[later]] = _fewest(counts[_SLOT[later]])
    n = composition[_SLOT[cls]]
    for k in range(min(n, 4 - n % 2), _fewest(n), -2):
        counts[_SLOT[cls]] = k
        if table_takes(*counts):
            return k
    return _fewest(n)


def _shrink(r: _Reducer, cls: str, solo: int | None = None) -> None:
    """Shrink one leaf class to its kept count: balanced in-traversals down
    to that count (to three when one leaf is to stay), then the three-to-one
    step, which keeps ``solo`` when given and else the essential leaf,
    spending one traversal on the other two."""
    leaves = r.work.leaf_classes()[cls]
    n = len(leaves)
    keep = kept_count(r.work.composition(), cls)
    target = 3 if keep == 1 else keep
    if n > target:
        pairs = _balanced_pair_plan(r.work, leaves, target, solo)
        kind = "solo_safe_clean" if cls == "C" else "balanced_in_traversal"
        r.apply_pairs(pairs, kind, cls)
    if keep == 1 and n > 1:
        leaves = r.work.leaf_classes()[cls]
        kept = essential_leaf(r.work, leaves) if solo is None else solo
        u, v, *_ = (x for x in leaves if x != kept)
        r.apply_pairs([(u, v)], "three_to_one", cls)


def _result_for(branch: _Reducer, depth: int) -> ResidualResult:
    """Look up the branch's residual tree, or, when a reduction exposed new
    leaves pushing the composition outside the tables, reduce again."""
    try:
        cover, labels = optimal_cover_of_residual(branch.work)
    except UnknownComposition:
        return _run_pipeline(branch, depth - 1)
    lifted = Cover(lift_paths(branch.base, branch.work, cover.paths))
    return ResidualResult(branch.work, branch.steps, lifted, labels)


def _solo_hypotheses(tree: TaggedTree):
    """No solo leaf, then each solo candidate of ``tree``; the candidates
    are looked for only once the first hypothesis has been tried."""
    yield None
    yield from solo_candidates(tree)


def _clean_phase(r: _Reducer, depth: int) -> ResidualResult:
    """Reduce the clean class under each solo-leaf hypothesis in turn and
    keep the first whose total certified cost is cheapest.

    Every total is the cost of a cover of the input tree, so none is below
    the reducer's leaf bound: the search stops at the first hypothesis that
    reaches it, the one a full scan would keep too.  When no hypothesis
    reaches it, every one is tried.
    """
    best: ResidualResult | None = None
    for s in _solo_hypotheses(r.work):
        branch = r.fork()
        _shrink(branch, "C", s)
        result = _result_for(branch, depth)
        if best is None or result.total_cost < best.total_cost:
            best = result
            if best.total_cost <= r.floor:
                break
    return best


def _run_pipeline(r: _Reducer, depth: int = 8) -> ResidualResult:
    if depth <= 0:
        raise BudgetExceeded("reduction pipeline failed to converge")
    for cls in _SHRINK_ORDER[:-1]:
        _shrink(r, cls)
    return _clean_phase(r, depth)


def compute_residual(tree: TaggedTree) -> ResidualResult:
    """Reduce a mixed tagged tree to a residual tree and look up its cover.

    Order: shrink the A class, then B, then AB, each to the leaves the
    residual tables take (`kept_count`), then shrink the clean class under
    the solo search, which stops at the input tree's leaf bound.  When a
    three-to-one reduction exposes a new leaf that leaves the residual
    composition outside the tables, the phases run again on the smaller
    tree under the same bound.  The returned cover and steps are expressed
    in the input tree and certify the total cost.  A tree whose leaves all
    share a tag or are all clean raises DegenerateTree, naming its closed
    form.
    """
    if tree.is_empty or not tree.bad_nodes():
        raise DegenerateTree("nothing to reduce")
    form = closed_form(tree)
    if form is not None:
        raise DegenerateTree(f"{form[1]} tree: {form[0].__name__} gives its cost")
    return _run_pipeline(_Reducer(tree))
