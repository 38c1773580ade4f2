"""Cover-cost calculus on tagged trees.

A cover is a set of paths touching every bad node.  A path on a single bad
node costs 1 (a component cut); a longer path costs 1 when its endpoints
share a tag (indel-saving merge) and 2 otherwise.  This module provides
path costs, the circular-pairing traversal cover, closed forms for the
single-tag-class trees, and the topology queries (partition subtrees,
links, mates, solo candidates) that bind residual recipes to nodes and feed
the topology trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import TAG_A, TAG_B, TaggedTree
from .errors import (
    OddLeafCount,
    PreconditionViolated,
    ShortPathOnGoodNode,
)

CLASSES = ("A", "B", "C", "AB")

CLASS_TAGS = {
    "A": frozenset({TAG_A}),
    "B": frozenset({TAG_B}),
    "C": frozenset(),
    "AB": frozenset({TAG_A, TAG_B}),
}


@dataclass(frozen=True)
class CoverPath:
    u: int
    v: int
    cost: int

    @property
    def kind(self) -> str:
        return "short" if self.u == self.v else "long"


@dataclass
class Cover:
    paths: list[CoverPath] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        return sum(p.cost for p in self.paths)

    def validate(self, tree: TaggedTree) -> None:
        """Check every bad node is covered and every declared cost is right."""
        covered: set[int] = set()
        for p in self.paths:
            expect = path_cost(tree, p.u, p.v).cost
            if expect != p.cost:
                raise PreconditionViolated(
                    f"path {p.u}-{p.v} declared cost {p.cost}, recomputed {expect}"
                )
            covered.update(tree.path(p.u, p.v))
        missing = [b for b in tree.bad_nodes() if b not in covered]
        if missing:
            raise PreconditionViolated(f"bad nodes uncovered: {missing}")


def path_cost(tree: TaggedTree, u: int, v: int) -> CoverPath:
    """Cost of the path between two nodes: a short path cuts one bad
    component (cost 1); a long path merges, at cost 1 when the endpoint
    components share a tag and 2 otherwise."""
    if u == v:
        if not tree.is_bad(u):
            raise ShortPathOnGoodNode(u)
        return CoverPath(u, u, 1)
    shared = tree.tags(u) & tree.tags(v)
    return CoverPath(u, v, 1 if shared else 2)


# ---------------------------------------------------------------------------
# Covering a tree with traversals (circular leaf pairing)


def _circular_leaf_order(tree: TaggedTree, leaves: list[int]) -> list[int]:
    """Leaves in the circular order of a fixed planar embedding: depth-first
    from the lowest node id, children visited in id order."""
    nodes = induced_subtree(tree, leaves)
    if not nodes:
        return []
    root = min(nodes)
    order: list[int] = []
    target = set(leaves)
    stack = [(root, None)]
    while stack:
        u, parent = stack.pop()
        if u in target:
            order.append(u)
        for v in sorted((x for x in tree.adj[u] if x != parent and x in nodes), reverse=True):
            stack.append((v, u))
    return order


def cover_tree_with_traversals(tree: TaggedTree, leaves: list[int] | None = None) -> list[tuple[int, int]]:
    """Pair the leaves of an (induced sub)tree so the paths cover all of it.

    Enumerates the 2n leaves in circular order and pairs leaf i with leaf
    i + n; any two returned paths then share a balanced vertex.
    """
    if leaves is None:
        leaves = tree.leaves()
    if len(leaves) % 2:
        raise OddLeafCount(len(leaves))
    order = _circular_leaf_order(tree, list(leaves))
    n = len(order) // 2
    return [(order[i], order[i + n]) for i in range(n)]


def induced_subtree(tree: TaggedTree, nodes: list[int]) -> frozenset[int]:
    """Smallest connected subtree containing the given nodes."""
    if not nodes:
        return frozenset()
    target = set(nodes)
    alive: dict[int, set[int]] = {u: set(tree.adj[u]) for u in tree.nodes}
    leaves = [u for u in alive if len(alive[u]) <= 1 and u not in target]
    while leaves:
        u = leaves.pop()
        if u not in alive or u in target or len(alive[u]) > 1:
            continue
        for v in alive[u]:
            alive[v].discard(u)
            if len(alive[v]) <= 1 and v not in target:
                leaves.append(v)
        del alive[u]
    return frozenset(alive)


# ---------------------------------------------------------------------------
# Leaf branches


def leaf_branch(tree: TaggedTree, leaf: int) -> list[int]:
    """Maximal path from a leaf through degree-2 nodes; the whole tree when
    it has at most two leaves."""
    if len(tree.leaves()) <= 2:
        return tree.node_ids()
    branch = [leaf]
    prev, cur = None, leaf
    while True:
        nxt = [v for v in tree.adj[cur] if v != prev]
        if len(nxt) != 1:
            break
        cand = nxt[0]
        if tree.degree(cand) != 2:
            break
        branch.append(cand)
        prev, cur = cur, cand
    return branch


def branch_is_long(tree: TaggedTree, leaf: int) -> bool:
    """A leaf branch is long when it holds at least two bad nodes."""
    return sum(1 for u in leaf_branch(tree, leaf) if tree.is_bad(u)) >= 2


def solo_candidates(tree: TaggedTree) -> list[int]:
    """Clean leaves sitting in short leaf branches."""
    return [
        u
        for u in tree.leaves()
        if tree.leaf_class(u) == "C" and not branch_is_long(tree, u)
    ]


# ---------------------------------------------------------------------------
# Leaf bound


def cover_floor(tree: TaggedTree) -> int:
    """Lower bound on the cost of every cover of the tree, from its leaves
    alone: lc + ceil((la + lb + lab) / 2) over its bad leaves.

    Proof.  Every leaf of a contracted tree is bad, so it must be covered,
    and a path can reach a node of degree at most one only by ending there:
    each leaf is an endpoint of some cover path.  Charge each leaf to one
    path ending at it; a path ends at no more than two leaves.  A path
    ending at a clean leaf costs 1 per leaf it ends at: a short path costs
    1, and a long one costs 2 because an empty tag set shares nothing.  Any
    other path costs at least 1, so at least 1/2 per leaf.  Summing the
    charges gives lc + (la + lb + lab) / 2, and a cost is an integer.

    Good leaves (absent after contraction) are left out, so the bound holds
    for any tree.
    """
    leaves = [u for u in tree.leaves() if tree.is_bad(u)]
    clean = sum(1 for u in leaves if not tree.tags(u))
    return clean + (len(leaves) - clean + 1) // 2


# ---------------------------------------------------------------------------
# Closed forms for the simplest trees


def _traversal_cover(tree: TaggedTree) -> Cover:
    """Cover an even-leaved tree by circular-pairing traversals."""
    cover = Cover()
    for u, v in cover_tree_with_traversals(tree):
        cover.paths.append(path_cost(tree, u, v))
    return cover


def _pruned_without_branch(tree: TaggedTree, leaf: int) -> TaggedTree:
    gone = set(leaf_branch(tree, leaf))
    nodes = {u: n for u, n in tree.nodes.items() if u not in gone}
    return TaggedTree(nodes, {u: tuple(v for v in tree.adj[u] if v not in gone) for u in nodes})


def tau_shared_tag(tree: TaggedTree) -> tuple[int, Cover]:
    """Optimal cover cost when every leaf shares a common tag: ceil(l/2)."""
    leaves = tree.leaves()
    if not leaves:
        raise PreconditionViolated("empty tree")
    shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
    if not shared:
        raise PreconditionViolated("leaves share no tag")
    if len(leaves) == 1:
        return 1, Cover([path_cost(tree, leaves[0], leaves[0])])
    if len(leaves) % 2 == 0:
        cover = _traversal_cover(tree)
        return len(cover.paths), cover
    # odd: remove one leaf branch, cover the rest, add one extra traversal
    drop = leaves[0]
    pruned = _pruned_without_branch(tree, drop)
    cover = Cover()
    for u, v in cover_tree_with_traversals(pruned):
        cover.paths.append(path_cost(tree, u, v))
    other = next(u for u in leaves if u != drop)
    cover.paths.append(path_cost(tree, drop, other))
    return (len(leaves) + 1) // 2, cover


def tau_all_clean(tree: TaggedTree) -> tuple[int, Cover]:
    """Optimal cover cost when every leaf is clean: l, or l + 1 when l is
    odd and every leaf branch is long (the fortress case)."""
    leaves = tree.leaves()
    if not leaves:
        raise PreconditionViolated("empty tree")
    if any(tree.tags(u) for u in leaves):
        raise PreconditionViolated("tagged leaf present")
    ell = len(leaves)
    if ell == 1:
        return 1, Cover([path_cost(tree, leaves[0], leaves[0])])
    if ell % 2 == 0:
        return ell, _traversal_cover(tree)
    short = [u for u in leaves if not branch_is_long(tree, u)]
    drop = short[0] if short else leaves[0]
    pruned = _pruned_without_branch(tree, drop)
    cover = Cover()
    for u, v in cover_tree_with_traversals(pruned):
        cover.paths.append(path_cost(tree, u, v))
    if short:
        cover.paths.append(path_cost(tree, drop, drop))
        return ell, cover
    other = next(u for u in leaves if u != drop)
    cover.paths.append(path_cost(tree, drop, other))
    return ell + 1, cover


# ---------------------------------------------------------------------------
# Lifting covers through reductions


def lift_paths(
    parent: TaggedTree, support: dict[int, frozenset[int]], paths: list[CoverPath]
) -> list[CoverPath]:
    """Re-express a reduced-tree cover in the parent tree.

    Tag sets only grow under contraction, so for an indel-saving path some
    pair of supporting parent nodes shares the tag, and for an indel-neutral
    path the supporting bad nodes cannot accidentally share one.  The parent
    path between the chosen endpoints passes every parent bad node whose
    image lies on the reduced path, so coverage is preserved.
    """
    out: list[CoverPath] = []
    for p in paths:
        su = sorted(support[p.u])
        sv = sorted(support[p.v])
        if p.u == p.v:
            b = next(n for n in su if parent.is_bad(n))
            out.append(CoverPath(b, b, 1))
        elif p.cost == 1:
            pick = None
            for tag in (TAG_A, TAG_B):
                lus = [n for n in su if tag in parent.tags(n)]
                lvs = [n for n in sv if tag in parent.tags(n)]
                if lus and lvs:
                    pick = (lus[0], lvs[0])
                    break
            if pick is None:
                raise PreconditionViolated("cannot lift indel-saving path")
            out.append(CoverPath(pick[0], pick[1], 1))
        else:
            lu = next((n for n in su if parent.is_bad(n)), su[0])
            lv = next((n for n in sv if parent.is_bad(n)), sv[0])
            out.append(CoverPath(lu, lv, 2))
    return out


def compose_support(
    outer: dict[int, frozenset[int]], inner: dict[int, frozenset[int]]
) -> dict[int, frozenset[int]]:
    """Chain two support maps (outer: new -> mid, inner: mid -> old)."""
    return {
        n: frozenset().union(*(inner[m] for m in mids)) if mids else frozenset()
        for n, mids in outer.items()
    }


# ---------------------------------------------------------------------------
# Topology analysis


class Topology:
    """Partition subtrees, links and tag mates of one tagged tree, as the
    residual recipes and the topology report read them.

    Class arguments are frozensets over {'A','B','C','AB'}; the subtree of a
    class set is the minimal subtree spanning its leaves.
    """

    def __init__(self, tree: TaggedTree):
        self.tree = tree
        self.classes = tree.leaf_classes()
        self._subtrees: dict[frozenset, frozenset[int]] = {}

    def class_leaves(self, classes: frozenset) -> list[int]:
        out: list[int] = []
        for c in CLASSES:
            if c in classes:
                out.extend(self.classes[c])
        return out

    def subtree(self, classes) -> frozenset[int]:
        key = frozenset(classes)
        if key not in self._subtrees:
            self._subtrees[key] = induced_subtree(self.tree, self.class_leaves(key))
        return self._subtrees[key]

    def complement_classes(self, classes) -> frozenset:
        return frozenset(c for c in CLASSES if self.classes[c]) - frozenset(classes)

    def link_nodes(self, x, y) -> list[int] | None:
        """Nodes strictly between two disjoint partition subtrees, ordered
        from the x side to the y side; None when the subtrees meet."""
        tx, ty = self.subtree(x), self.subtree(y)
        if not tx or not ty or (tx & ty):
            return None
        u = next(iter(tx))
        v = next(iter(ty))
        path = self.tree.path(u, v)
        return [n for n in path if n not in tx and n not in ty]

    def link_bads(self, x, y) -> list[int]:
        link = self.link_nodes(x, y)
        if link is None:
            return []
        return [n for n in link if self.tree.is_bad(n)]

    def separated(self, x, y) -> bool:
        link = self.link_nodes(x, y)
        return link is not None and any(self.tree.is_bad(n) for n in link)

    def isolated(self, x) -> bool:
        comp = self.complement_classes(x)
        if not comp:
            return False
        return self.separated(x, comp)

    @property
    def fully_corooted(self) -> bool:
        present = [c for c in CLASSES if self.classes[c]]
        for c in present:
            if self.isolated({c}):
                return False
        ab_side = frozenset({"A", "B"}) & frozenset(present)
        if ab_side and self.complement_classes(ab_side):
            if self.separated(ab_side, self.complement_classes(ab_side)):
                return False
        return True

    @property
    def fully_separated(self) -> bool:
        present = [c for c in CLASSES if self.classes[c]]
        if len(present) < 2:
            return False
        for c in present:
            if not self.isolated({c}):
                return False
        if len(present) == 4:
            return any(
                self.isolated({"A", other}) for other in ("B", "C", "AB")
            )
        return True

    # -- tag mates -----------------------------------------------------------

    def mate_nodes(self, source, tag: str, host) -> list[int]:
        """Nodes of the extended host subtree carrying the tag, when the
        source subtree is separated from the host by a bad link.

        The extended subtree adds the bad link node closest to the host, so
        an indel-saving semi-traversal from a source leaf through that node
        covers the link.
        """
        ts, th = self.subtree(source), self.subtree(host)
        if not ts or not th or (ts & th):
            return []
        u = next(iter(ts))
        v = next(iter(th))
        path = self.tree.path(u, v)
        between = [n for n in path if n not in ts and n not in th]
        bads = [n for n in between if self.tree.is_bad(n)]
        if not bads:
            return []
        p = bads[-1]  # closest to the host side along the walk
        extended = set(th)
        extended.update(between[between.index(p):])
        return sorted(n for n in extended if tag in self.tree.tags(n))

    def mate_node(self, source, tag: str, host) -> int | None:
        carriers = self.mate_nodes(source, tag, host)
        return carriers[0] if carriers else None

    # -- solo candidates -----------------------------------------------------

    def solo_candidates(self) -> list[int]:
        return solo_candidates(self.tree)


@dataclass
class TopologyReport:
    """Snapshot of a tagged tree's topology facts, for `dist --trace topology`."""

    composition: tuple[int, int, int, int]
    leaf_classes: dict[str, list[int]]
    canonical_subtrees: dict[str, list[int]]
    isolated: dict[str, bool]
    links: dict[tuple[str, str], str]
    mates: dict[tuple[str, str, str], int]
    solo_candidates: list[int]
    fully_corooted: bool
    fully_separated: bool
    leaf_branches: dict[int, str]

    def to_dict(self) -> dict:
        return {
            "composition": list(self.composition),
            "leaf_classes": self.leaf_classes,
            "canonical_subtrees": self.canonical_subtrees,
            "isolated": self.isolated,
            "links": {f"{x}|{y}": v for (x, y), v in self.links.items()},
            "mates": {f"{s}:{t}@{h}": m for (s, t, h), m in self.mates.items()},
            "solo_candidates": self.solo_candidates,
            "fully_corooted": self.fully_corooted,
            "fully_separated": self.fully_separated,
            "leaf_branches": {str(k): v for k, v in self.leaf_branches.items()},
        }


def analyze_topology(tree: TaggedTree) -> TopologyReport:
    if tree.is_empty:
        raise PreconditionViolated("empty tree")
    topo = Topology(tree)
    present = [c for c in CLASSES if topo.classes[c]]
    links: dict[tuple[str, str], str] = {}
    for i, x in enumerate(present):
        for y in present[i + 1:]:
            bads = topo.link_bads({x}, {y})
            if topo.link_nodes({x}, {y}) is None:
                links[(x, y)] = "co-rooted"
            elif not bads:
                links[(x, y)] = "good"
            elif len(bads) == 1:
                links[(x, y)] = "short-bad"
            else:
                links[(x, y)] = "long-bad"
    mates: dict[tuple[str, str, str], int] = {}
    for src in present:
        for tag in CLASS_TAGS[src]:
            for host in present:
                if host == src:
                    continue
                m = topo.mate_node({src}, tag, {host})
                if m is not None:
                    mates[(src, tag, host)] = m
    return TopologyReport(
        composition=tree.composition(),
        leaf_classes={c: topo.classes[c] for c in present},
        canonical_subtrees={c: sorted(topo.subtree({c})) for c in present},
        isolated={c: topo.isolated({c}) for c in present},
        links=links,
        mates=mates,
        solo_candidates=topo.solo_candidates(),
        fully_corooted=topo.fully_corooted,
        fully_separated=topo.fully_separated,
        leaf_branches={
            u: ("long" if branch_is_long(tree, u) else "short") for u in tree.leaves()
        },
    )
