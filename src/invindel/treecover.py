"""Cover-cost calculus on tagged trees.

A cover is a set of paths touching every bad node.  A path on a single bad
node costs 1 (a component cut); a longer path costs 1 when its endpoints
share a tag (indel-saving merge) and 2 otherwise.  The cover and its path
costs live beside the tagged tree in `components`, so that a pair with an
empty tree never loads this module; they are re-exported here.  This
module provides the circular-pairing traversal cover, the leaf bound,
closed forms for the single-tag-class trees, and the topology queries
(partition subtrees, links, mates, solo candidates) that bind residual
recipes to nodes and feed the topology trace.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .components import (
    CLASS_TAGS,
    TAG_A,
    TAG_B,
    Cover,
    CoverPath,
    TaggedTree,
    path_cost,
    spanning_subtree,
)
from .errors import OddLeafCount, PreconditionViolated
from .genome import strict_record


# ---------------------------------------------------------------------------
# Covering a tree with traversals (circular leaf pairing)


def _circular_leaf_order(tree: TaggedTree, leaves: list[int]) -> list[int]:
    """Leaves in the circular order of a fixed planar embedding: depth-first
    from the lowest node id, children visited in id order (``adj`` lists
    them in that order)."""
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
        for v in reversed(tree.adj[u]):
            if v != parent and v in nodes:
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
    """Smallest connected subtree containing the given nodes (each connected
    part of a forest spanned on its own)."""
    return spanning_subtree(tree.rooting()[0], nodes)


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
    return [u for u in tree.leaf_classes()["C"] if not branch_is_long(tree, u)]


# ---------------------------------------------------------------------------
# Leaf bound


def cover_floor(tree: TaggedTree) -> int:
    """Lower bound on the cost of every cover of the tree, from its leaves
    alone: lc + ceil((la + lb + lab) / 2) over its bad leaves, plus 1 when
    la and lb are odd and lab is 0.

    Proof.  Every leaf of a contracted tree is bad, so it must be covered,
    and a path can reach a node of degree at most one only by ending there:
    each leaf is an endpoint of some cover path.  Charge each clean leaf 1
    and each tagged leaf 1/2 to one path ending at it; a path ends at no
    more than two leaves.  A path ending at a clean leaf costs at least its
    charges: a short path costs 1, and a long one costs 2 because an empty
    tag set shares nothing.  Any other path costs at least 1, so at least
    its charges too.  Summing gives lc + (la + lb + lab) / 2, and a cost is
    an integer.

    Parity.  A path charged with two tagged leaves costs 1 only when they
    share a tag.  With lab = 0, A leaves share a tag only with A leaves and
    B leaves only with B leaves.  If la is odd, some A leaf's path holds no
    other charged A leaf; its other end is a clean leaf (cost 2 against
    charges of 3/2), a B leaf (2 against 1) or anything else (at least 1
    against 1/2), so it has at least 1/2 of slack.  If lb is odd too, some
    B leaf's path has 1/2 of slack as well, and when both are one A-B path
    that path has 1.  The slack sums to at least 1 while la + lb is even,
    which gives the extra 1.  In every other composition the tagged leaves
    pair into tag-sharing pairs with at most one left over, and the bound
    is the plain one.

    Good leaves (absent after contraction) are left out, so the bound holds
    for any tree.
    """
    is_bad = tree.is_bad
    la, lb, lc, lab = (sum(map(is_bad, leaves)) for leaves in tree.leaf_classes().values())
    return lc + (la + lb + lab + 1) // 2 + (la % 2 == lb % 2 == 1 and lab == 0)


# ---------------------------------------------------------------------------
# Closed forms for the simplest trees


def _traversal_cover(tree: TaggedTree, part: TaggedTree) -> Cover:
    """Cover an even-leaved part of the tree by circular-pairing traversals."""
    return Cover([path_cost(tree, u, v) for u, v in cover_tree_with_traversals(part)])


def _odd_cover(tree: TaggedTree, drop: int, end: int) -> Cover:
    """Cover an odd-leaved tree: traversals over the tree less the leaf
    branch of ``drop``, and one path from ``drop`` to ``end``."""
    cover = _traversal_cover(tree, tree.restricted(tree.nodes.keys() - leaf_branch(tree, drop)))
    cover.paths.append(path_cost(tree, drop, end))
    return cover


def tau_shared_tag(tree: TaggedTree) -> Cover:
    """Optimal cover when every leaf shares a common tag; it costs ceil(l/2)."""
    leaves = tree.leaves()
    if not leaves:
        raise PreconditionViolated("empty tree")
    shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
    if not shared:
        raise PreconditionViolated("leaves share no tag")
    if len(leaves) == 1:
        return Cover([path_cost(tree, leaves[0], leaves[0])])
    if len(leaves) % 2 == 0:
        return _traversal_cover(tree, tree)
    return _odd_cover(tree, leaves[0], leaves[1])


def tau_all_clean(tree: TaggedTree) -> Cover:
    """Optimal cover when every leaf is clean; it costs l, or l + 1 when l
    is odd and every leaf branch is long (the fortress case)."""
    leaves = tree.leaves()
    if not leaves:
        raise PreconditionViolated("empty tree")
    if any(tree.tags(u) for u in leaves):
        raise PreconditionViolated("tagged leaf present")
    if len(leaves) == 1:
        return Cover([path_cost(tree, leaves[0], leaves[0])])
    if len(leaves) % 2 == 0:
        return _traversal_cover(tree, tree)
    short = solo_candidates(tree)
    if short:
        return _odd_cover(tree, short[0], short[0])
    return _odd_cover(tree, leaves[0], leaves[1])


def closed_form(tree: TaggedTree):
    """The closed form giving the tree's optimal cover and its trace label,
    or None unless every leaf shares a tag or every leaf is clean."""
    la, lb, lc, lab = tree.composition()
    if not lc and not (la and lb):
        return tau_shared_tag, "shared-tag"
    if not la + lb + lab:
        return tau_all_clean, "all-clean"
    return None


# ---------------------------------------------------------------------------
# Lifting covers through reductions


def lift_paths(parent: TaggedTree, child: TaggedTree, paths: list[CoverPath]) -> list[CoverPath]:
    """Re-express a cover of ``child``, reduced from ``parent``, in the parent.

    A child node stands for itself and the parent nodes that own its ``src``
    components (``src`` sets are disjoint, and the parent keeps the map from
    component to node).  Absorbed nodes of empty ``src`` are missed, but
    they are clean and good (``TaggedTree.validate``), and no rule below
    picks one: each takes a bad or tagged member, or the only member of a
    node that absorbed no bad node.

    Tag sets only grow under contraction, so for an indel-saving path some
    pair of absorbed parent nodes shares the tag, and for an indel-neutral
    path the absorbed bad nodes cannot accidentally share one.  The parent
    path between the chosen endpoints passes every parent bad node whose
    image lies on the reduced path, so coverage is preserved.
    """
    home = parent.component_home()

    def members(r: int) -> list[int]:
        return sorted({r, *map(home.__getitem__, child.nodes[r].src)})

    out: list[CoverPath] = []
    for p in paths:
        su = members(p.u)
        sv = members(p.v)
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

    @cached_property
    def clean_pool(self) -> list[int]:
        """The clean leaves, solo candidates first, in the order a short path
        on a clean leaf tries them."""
        cands = solo_candidates(self.tree)
        return cands + [u for u in self.classes["C"] if u not in cands]

    def class_leaves(self, classes: frozenset) -> list[int]:
        out: list[int] = []
        for c in CLASS_TAGS:
            if c in classes:
                out.extend(self.classes[c])
        return out

    def subtree(self, classes) -> frozenset[int]:
        key = frozenset(classes)
        if key not in self._subtrees:
            self._subtrees[key] = induced_subtree(self.tree, self.class_leaves(key))
        return self._subtrees[key]

    def complement_classes(self, classes) -> frozenset:
        return frozenset(c for c in CLASS_TAGS if self.classes[c]) - frozenset(classes)

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
        return bool(self.link_bads(x, y))

    def isolated(self, x) -> bool:
        comp = self.complement_classes(x)
        if not comp:
            return False
        return self.separated(x, comp)

    @property
    def fully_corooted(self) -> bool:
        present = [c for c in CLASS_TAGS if self.classes[c]]
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
        present = [c for c in CLASS_TAGS if self.classes[c]]
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
        between = self.link_nodes(source, host)
        if between is None:
            return []
        bads = [i for i, n in enumerate(between) if self.tree.is_bad(n)]
        if not bads:
            return []
        # from the bad link node closest to the host side along the walk
        extended = self.subtree(host).union(between[bads[-1]:])
        return sorted(n for n in extended if tag in self.tree.tags(n))


@strict_record
class TopologyReport(NamedTuple):
    """Snapshot of a tagged tree's topology facts, for `dist --trace topology`,
    a strict record of its ten fields."""

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
    present = [c for c in CLASS_TAGS if topo.classes[c]]
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
                carriers = topo.mate_nodes({src}, tag, {host})
                if carriers:
                    mates[(src, tag, host)] = carriers[0]
    return TopologyReport(
        composition=tree.composition(),
        leaf_classes={c: list(topo.classes[c]) for c in present},
        canonical_subtrees={c: sorted(topo.subtree({c})) for c in present},
        isolated={c: topo.isolated({c}) for c in present},
        links=links,
        mates=mates,
        solo_candidates=solo_candidates(tree),
        fully_corooted=topo.fully_corooted,
        fully_separated=topo.fully_separated,
        leaf_branches={
            u: ("long" if branch_is_long(tree, u) else "short") for u in tree.leaves()
        },
    )
