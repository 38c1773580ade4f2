"""Safe reduction of tagged trees to residual trees.

Tagged leaf classes shrink to at most two leaves through balanced
in-traversals (and to one through an essential-leaf choice when three
remain); the clean class is reduced while testing which clean short-branch
leaf, if any, should survive as the solo leaf.  The test stops at the first
hypothesis whose total reaches the input tree's leaf bound
(`treecover.cover_floor`), which no cover can beat.  Every spent
in-traversal is recorded, re-expressed in the input tree, so the final
cover can be assembled and checked end to end.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .components import TaggedTree, reduce_by_paths
from .errors import BudgetExceeded, DegenerateTree, PreconditionViolated, UnknownComposition
from .residual import optimal_cover_of_residual
from .treecover import (
    Cover,
    CoverPath,
    compose_support,
    cover_floor,
    cover_tree_with_traversals,
    induced_subtree,
    leaf_branch,
    lift_paths,
    path_cost,
    solo_candidates,
)


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # balanced_in_traversal | solo_safe_clean | three_to_one
    path: tuple[int, int]  # endpoints in input-tree node ids
    cost: int
    leaf_class: str


@dataclass
class ResidualResult:
    residual: TaggedTree
    steps: list[ReductionStep]
    reduction_cost: int
    solo_leaf: int | None
    swapped: bool
    support: dict[int, frozenset[int]]
    lookup_cost: int
    lookup_cover: Cover  # already lifted to input-tree node ids
    case_trace: list[str]

    @property
    def total_cost(self) -> int:
        return self.reduction_cost + self.lookup_cost

    def full_cover(self) -> Cover:
        paths = [CoverPath(s.path[0], s.path[1], s.cost) for s in self.steps]
        return Cover(paths + list(self.lookup_cover.paths))


# ---------------------------------------------------------------------------
# Elementary reductions


def _balanced_pair_plan(
    tree: TaggedTree,
    leaves: list[int],
    can_reduce_to_2: bool,
    solo: int | None = None,
) -> list[tuple[int, int]]:
    """Which circular-pairing in-traversals to spend on one leaf class.

    With an odd class one leaf (the solo candidate when given) is excluded
    before pairing; afterwards one traversal is dropped for an even class
    (the one covering the solo candidate, when given) and one more when the
    class may not shrink to two.
    """
    members = sorted(leaves)
    odd = len(members) % 2 == 1
    if odd:
        excluded = solo if solo is not None else members[0]
        members.remove(excluded)
    pairs = cover_tree_with_traversals(tree, leaves=members)
    if not odd and pairs:
        if solo is not None:
            drop = next(i for i, p in enumerate(pairs) if solo in p)
        else:
            drop = 0
        pairs.pop(drop)
    if (odd or not can_reduce_to_2) and pairs:
        pairs.pop(0)
    return pairs


def _branch_within(tree: TaggedTree, nodes: frozenset[int], u: int) -> list[int]:
    deg = {n: sum(1 for v in tree.adj[n] if v in nodes) for n in nodes}
    branch = [u]
    prev, cur = None, u
    while True:
        nxt = [v for v in tree.adj[cur] if v in nodes and v != prev]
        if len(nxt) != 1 or deg[nxt[0]] != 2:
            break
        branch.append(nxt[0])
        prev, cur = cur, nxt[0]
    return branch


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
    branches = {u: _branch_within(tree, sub, u) for u in L}
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
        self.base = base  # lifting target; tags view follows the A/B swap
        self.work = base
        self.support = {u: frozenset({u}) for u in base.nodes}
        self.steps: list[ReductionStep] = []
        self.swapped = False
        # every total this reducer and its forks reach is the cost of a cover
        # of the input tree; swapping A and B leaves the bound unchanged
        self.floor = cover_floor(base)

    def fork(self) -> "_Reducer":
        """A branch that shares the trees and the support map, which steps
        replace and never mutate, and owns a copy of the step list."""
        other = copy.copy(self)
        other.steps = list(self.steps)
        return other

    def class_leaves(self, cls: str) -> list[int]:
        return [u for u in self.work.leaves() if self.work.leaf_class(u) == cls]

    def apply_pairs(self, pairs: list[tuple[int, int]], kind: str, cls: str) -> None:
        if not pairs:
            return
        for u, v in pairs:
            cost = path_cost(self.work, u, v).cost
            lifted = lift_paths(self.base, self.support, [CoverPath(u, v, cost)])[0]
            self.steps.append(ReductionStep(kind, (lifted.u, lifted.v), cost, cls))
        self.work, sup = reduce_by_paths(self.work, pairs)
        self.support = compose_support(sup, self.support)

    def swap_ab(self) -> None:
        self.work = self.work.with_swapped_tags()
        self.base = self.base.with_swapped_tags()
        self.swapped = True

    def reduction_cost(self) -> int:
        return sum(s.cost for s in self.steps)


def _reduce_tagged_class(r: _Reducer, cls: str) -> None:
    leaves = r.class_leaves(cls)
    if len(leaves) >= 4:
        pairs = _balanced_pair_plan(r.work, leaves, True)
        r.apply_pairs(pairs, "balanced_in_traversal", cls)
        leaves = r.class_leaves(cls)
    if len(leaves) == 3:
        kept = essential_leaf(r.work, leaves)
        others = [u for u in sorted(leaves) if u != kept]
        r.apply_pairs([(others[0], others[1])], "three_to_one", cls)


def _reduce_ab_class(r: _Reducer) -> None:
    la, lb, lc, lab = r.work.composition()
    if lab < 3:
        return
    if lc % 2 == 1:
        lcr = 1
    elif lc > 0:
        lcr = 2
    else:
        lcr = 0
    can2 = lab % 2 == 0 and (
        lb == 0 or (lcr == 0 and la + lb < 4) or (lcr > 0 and la + lb + lcr < 5)
    )
    if lab >= 5 or can2:
        pairs = _balanced_pair_plan(r.work, r.class_leaves("AB"), can2)
        r.apply_pairs(pairs, "balanced_in_traversal", "AB")
    leaves = r.class_leaves("AB")
    la, lb, _, _ = r.work.composition()
    if len(leaves) == 3:
        if (
            (lb == 0 and la + lcr < 4)
            or (lcr == 0 and la + lb < 3)
            or (lb > 0 and lcr > 0 and la + lb + lcr < 4)
        ):
            kept = essential_leaf(r.work, leaves)
            others = [u for u in sorted(leaves) if u != kept]
            r.apply_pairs([(others[0], others[1])], "three_to_one", "AB")


def _result_for(branch: _Reducer, solo: int | None, depth: int) -> ResidualResult:
    """Look up the branch's residual tree, or, when a reduction exposed new
    leaves pushing the composition outside the tables, reduce again."""
    try:
        cost, cover, labels = optimal_cover_of_residual(branch.work)
    except UnknownComposition:
        sub = _run_pipeline(branch, depth - 1)
        if solo is not None and sub.solo_leaf is None:
            sub.solo_leaf = solo
        return sub
    lifted = Cover(lift_paths(branch.base, branch.support, cover.paths))
    return ResidualResult(
        residual=branch.work,
        steps=branch.steps,
        reduction_cost=branch.reduction_cost(),
        solo_leaf=solo,
        swapped=branch.swapped,
        support=branch.support,
        lookup_cost=cost,
        lookup_cover=lifted,
        case_trace=labels,
    )


def _clean_phase(r: _Reducer, depth: int) -> ResidualResult:
    """Reduce the clean class under each solo-leaf hypothesis in turn and
    keep the first whose total certified cost is cheapest.

    Every total is the cost of a cover of the input tree, so none is below
    the reducer's leaf bound: the search stops at the first hypothesis that
    reaches it, the one a full scan would keep too.  When no hypothesis
    reaches it, every one is tried.
    """
    la, lb, lc, lab = r.work.composition()
    can1 = lc % 2 == 1 and lc >= 3 and not (la == 1 and lb == 1 and lab == 0)
    hypotheses: list[int | None] = [None]
    hypotheses += solo_candidates(r.work)
    best: ResidualResult | None = None
    for s in hypotheses:
        branch = r.fork()
        if lc >= 4:
            pairs = _balanced_pair_plan(branch.work, branch.class_leaves("C"), True, solo=s)
            branch.apply_pairs(pairs, "solo_safe_clean", "C")
        if can1:
            now = branch.class_leaves("C")
            kept = essential_leaf(branch.work, now) if s is None else s
            others = [u for u in sorted(now) if u != kept]
            branch.apply_pairs([(others[0], others[1])], "three_to_one", "C")
        result = _result_for(branch, s, depth)
        if best is None or result.total_cost < best.total_cost:
            best = result
            if best.total_cost <= r.floor:
                break
    return best


def _run_pipeline(r: _Reducer, depth: int = 8) -> ResidualResult:
    if depth <= 0:
        raise BudgetExceeded("reduction pipeline failed to converge")
    _reduce_tagged_class(r, "A")
    _reduce_tagged_class(r, "B")
    la, lb, _, _ = r.work.composition()
    if lb > la:
        r.swap_ab()
    _reduce_ab_class(r)
    return _clean_phase(r, depth)


def compute_residual(tree: TaggedTree) -> ResidualResult:
    """Reduce a mixed tagged tree to a residual tree and look up its cover.

    Order: shrink the A class, then B, swap so the A count dominates, apply
    the AB gates, then run the clean reduction with the solo search, which
    stops at the input tree's leaf bound.  When a three-to-one reduction
    exposes a new leaf that leaves the residual composition outside the
    tables, the phases run again on the smaller tree under the same bound.
    The returned cover and steps are expressed in the input tree and
    certify the total cost.
    """
    if tree.is_empty or not tree.bad_nodes():
        raise DegenerateTree("nothing to reduce")
    return _run_pipeline(_Reducer(tree))
