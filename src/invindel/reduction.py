"""Safe reduction of tagged trees to residual trees.

Each leaf class shrinks, in the order A, B, AB, C, to the most leaves the
residual tables take (`kept_count`), through balanced in-traversals and,
when one leaf is to stay, a three-to-one step among the last three.  One
search runs over the choices this leaves open: which clean short-branch
leaf, if any, survives as the solo leaf, and which leaf each three-to-one
step keeps, at most three branches per step.  It stops at the first total
that reaches the input tree's leaf bound (`treecover.cover_floor`), which
no cover can beat; the residual lookup stops its case walk at the residual
tree's bound the same way.  Every spent in-traversal is recorded,
re-expressed in the input tree, so the final cover can be assembled and
checked end to end.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

from .components import CLASS_TAGS, TaggedTree, reduce_by_paths
from .errors import BudgetExceeded, DegenerateTree, UnknownComposition
from .genome import strict_record
from .residual import optimal_cover_of_residual, table_takes
from .treecover import (
    Cover,
    CoverPath,
    closed_form,
    cover_floor,
    cover_tree_with_traversals,
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


def _shrink(r: _Reducer, cls: str, solo: int | None = None):
    """Shrink one leaf class to its kept count: balanced in-traversals down
    to that count (to three when one leaf is to stay), then the three-to-one
    step, which spends one traversal on two of the three leaves.

    Yields one branch per leaf the three-to-one step may keep: ``solo``
    when given, else each leaf of the class in id order.  With no such
    step due it yields ``r`` itself."""
    leaves = r.work.leaf_classes()[cls]
    n = len(leaves)
    keep = kept_count(r.work.composition(), cls)
    target = 3 if keep == 1 else keep
    if n > target:
        pairs = _balanced_pair_plan(r.work, leaves, target, solo)
        kind = "solo_safe_clean" if cls == "C" else "balanced_in_traversal"
        r.apply_pairs(pairs, kind, cls)
    if keep != 1 or n == 1:
        yield r
        return
    leaves = sorted(r.work.leaf_classes()[cls])
    for kept in leaves if solo is None else [solo]:
        branch = r.fork()
        u, v, *_ = (x for x in leaves if x != kept)
        branch.apply_pairs([(u, v)], "three_to_one", cls)
        yield branch


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


def _branches(r: _Reducer, i: int = 0):
    """Every branch with the classes from ``_SHRINK_ORDER[i]`` on shrunk,
    depth first: under every solo-leaf hypothesis for the clean class and
    through every branch `_shrink` yields.  Each is made only when asked
    for."""
    if i == len(_SHRINK_ORDER):
        yield r
        return
    cls = _SHRINK_ORDER[i]
    if cls == "C":
        shrunk = (b for s in _solo_hypotheses(r.work) for b in _shrink(r.fork(), cls, s))
    else:
        shrunk = _shrink(r, cls)
    for branch in shrunk:
        yield from _branches(branch, i + 1)


def _run_pipeline(r: _Reducer, depth: int = 8) -> ResidualResult:
    """Look up every branch in turn and keep the first result whose total
    certified cost is cheapest.

    Every total is the cost of a cover of the input tree, so none is below
    the reducer's leaf bound: the search stops at the first result that
    reaches it, the one a full scan would keep too.  When none reaches it,
    every branch is tried.
    """
    if depth <= 0:
        raise BudgetExceeded("reduction pipeline failed to converge")
    best: ResidualResult | None = None
    for branch in _branches(r):
        result = _result_for(branch, depth)
        cost = result.total_cost
        if best is None or cost < best_cost:
            best, best_cost = result, cost
            if cost <= r.floor:
                break
    return best


def compute_residual(tree: TaggedTree) -> ResidualResult:
    """Reduce a mixed tagged tree to a residual tree and look up its cover.

    Order: shrink the A class, then B, then AB, then C, each to the leaves
    the residual tables take (`kept_count`), in one search over the solo
    leaf and the leaf each three-to-one step keeps (see the module
    docstring).  When a three-to-one step exposes a new leaf that leaves
    the residual composition outside the tables, the search runs again on
    the smaller tree under the same bound.  The returned cover and steps
    are expressed in the input tree and certify the total cost.  A tree
    whose leaves all share a tag or are all clean raises DegenerateTree,
    naming its closed form.
    """
    if tree.is_empty or not tree.bad_nodes():
        raise DegenerateTree("nothing to reduce")
    form = closed_form(tree)
    if form is not None:
        raise DegenerateTree(f"{form[1]} tree: {form[0].__name__} gives its cost")
    return _run_pipeline(_Reducer(tree))
