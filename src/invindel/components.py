"""Interleaving components, the chained component tree, and its contraction.

Cycles whose upper-edge spans cross belong to one component; components
chain and nest along the upper line, giving a rooted tree of round
(component) and square (chain) nodes.  Contracting every connected block
of non-bad nodes yields the unrooted tagged tree on which cover costs are
computed; a cover and the cost of one of its paths are defined here too.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import eq, lt, ne, not_, or_
from typing import NamedTuple

from .diagram import TAG_A_BIT, TAG_B_BIT, RelationalDiagram, build_relational_diagram
from .errors import InvindelError, PreconditionViolated, ShortPathOnGoodNode
from .genome import GenomePair, strict_record

TAG_A = "A"
TAG_B = "B"

# The leaf classes, in the order a composition counts them, and the tag set
# of each.
CLASS_TAGS = {
    "A": frozenset({TAG_A}),
    "B": frozenset({TAG_B}),
    "C": frozenset(),
    "AB": frozenset({TAG_A, TAG_B}),
}
_CLASS_OF = {tags: cls for cls, tags in CLASS_TAGS.items()}

TRIVIAL = "trivial"
GOOD = "good"
BAD = "bad"


# The tag set of each value of the tag bits.
_TAG_SETS = (frozenset(), frozenset({TAG_A}), frozenset({TAG_B}), frozenset({TAG_A, TAG_B}))
_BOTH = TAG_A_BIT | TAG_B_BIT


class Component(NamedTuple):
    """One component as a read-only row, built from the columns of
    ``Components`` on demand."""

    id: int
    cycles: tuple[int, ...]
    kind: str
    tags: frozenset[str]
    span: tuple[int, int]  # leftmost/rightmost upper-edge positions
    both_run_cycles: int


@strict_record
class Components:
    """The components of a diagram as columns, indexed by component id; ids
    follow the components' leftmost upper edges.  All lists are read only;
    two column sets are equal when their columns are.  ``len()`` counts the
    components; ``comps[i]`` and iteration give ``Component`` rows, built on
    first use, for traces and tests."""

    __match_args__ = ("kind", "tags", "left", "right", "both", "of_cycle")

    def __init__(
        self,
        kind: list[str],
        tags: list[int],  # tag bits, as the diagram's cycles carry them
        left: list[int],  # leftmost upper edge
        right: list[int],  # rightmost upper edge
        both: list[int],  # cycles carrying both run types
        of_cycle: list[int],  # the component of each cycle
    ) -> None:
        self.kind = kind
        self.tags = tags
        self.left = left
        self.right = right
        self.both = both
        self.of_cycle = of_cycle

    def __len__(self) -> int:
        return len(self.kind)

    @cached_property
    def rows(self) -> list[Component]:
        members: list[list[int]] = [[] for _ in self.kind]
        for cyc, k in enumerate(self.of_cycle):
            members[k].append(cyc)
        columns = zip(members, self.kind, self.tags, self.left, self.right, self.both)
        return [
            Component(k, tuple(ms), kind, _TAG_SETS[t], (lo, hi), both)
            for k, (ms, kind, t, lo, hi, both) in enumerate(columns)
        ]

    def __getitem__(self, i: int) -> Component:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> int:
        """Join the sets of x and y under the smaller of their roots."""
        rx, ry = self.find(x), self.find(y)
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return rx

    def roots(self) -> list[int]:
        """The root of every element.  A parent is never larger than its
        child, so one left-to-right pass over the non-roots resolves them."""
        p = self.parent
        for x in compress(range(len(p)), map(ne, p, range(len(p)))):
            p[x] = p[p[x]]
        return p


def _sweep_interleaving(owner: list[int], first: list[int], last: list[int]) -> _UnionFind:
    """Connected components of the interleaving relation over edge owners;
    ``first`` and ``last`` hold each cycle's leftmost and rightmost upper
    edge.  Each set's root is its leftmost cycle.

    Left-to-right sweep with a stack of open spans.  Two distinct
    components cannot have crossing spans (crossing implies interleaving),
    so spans on the stack are nested; an edge of an already-open component
    lies strictly inside every span opened after it, forcing unions.

    Two rules skip positions.  Only the first position of a run of equal
    owners is visited: at a later one, the component's record is on top of
    the stack and reaches past it, so the visit changes nothing.  The edge
    of a one-edge cycle is skipped: its span crosses no other, and the next
    visited position pops the spans that end before it as well.
    """
    uf = _UnionFind(len(first))
    root_max = list(last)
    visit = bytearray(map(ne, owner, [-1, *owner]))  # where each run starts
    for e in compress(first, map(eq, first, last)):
        visit[e] = 0
    sweep = compress(range(len(owner)), visit)

    def union(a: int, b: int) -> int:
        r = uf.union(a, b)
        root_max[r] = max(root_max[a], root_max[b])
        return r

    stack: list[list[int]] = []  # entries [root, max extent], innermost last
    open_rec: dict[int, list[int]] = {}

    for p in sweep:
        c = uf.find(owner[p])
        while stack and stack[-1][1] < p:
            top = stack.pop()
            open_rec.pop(uf.find(top[0]), None)
        rec = open_rec.get(c)
        if rec is not None:
            while stack[-1] is not rec:
                top = stack.pop()
                top_root = uf.find(top[0])
                open_rec.pop(top_root, None)
                open_rec.pop(c, None)
                c = union(c, top_root)
                rec[0] = c
                rec[1] = max(rec[1], top[1])
                open_rec[c] = rec
            continue
        ext = root_max[c]
        while stack and stack[-1][1] < ext:
            top = stack.pop()
            top_root = uf.find(top[0])
            open_rec.pop(top_root, None)
            c = union(c, top_root)
            ext = root_max[c]
        rec = [c, ext]
        stack.append(rec)
        open_rec[c] = rec
    return uf


def find_components(diagram: RelationalDiagram) -> Components:
    """Group cycles into components, classify them, and attach tags.

    A cycle with four or more runs can always be turned good by costless
    neutral inversions, and two both-run cycles in one component merge into
    a good cycle by a costless joint inversion; components made good that
    way never need cutting, so they are classified good here.

    Each component is its union-find root, its leftmost cycle; cycle ids
    follow first edges, so the roots are met in left-to-right order.  The
    other cycles of a component fold into its root's entries.  A one-edge
    cycle interleaves with nothing, so it alone is a trivial component.
    """
    first, last, tags = diagram.first, diagram.last, diagram.tags
    n = len(first)
    roots = _sweep_interleaving(diagram.owner, first, last).roots()
    index: dict[int, int] = {}
    of_cycle = [index.setdefault(r, len(index)) for r in roots]
    is_root = bytes(map(eq, roots, range(n)))

    # Entries per cycle; each cycle that is not a root folds into its root's.
    good = [g or runs >= 4 for g, runs in zip(diagram.good, diagram.runs)]
    comp_tags = list(tags)
    right = list(last)
    both = [t // _BOTH for t in tags]  # 1 where both tag bits are set
    for i in compress(range(n), map(not_, is_root)):
        r = roots[i]
        good[r] |= good[i]
        comp_tags[r] |= tags[i]
        right[r] = max(right[r], last[i])
        both[r] += both[i]
    # The roots' entries are the components'.
    left = list(compress(first, is_root))
    right = list(compress(right, is_root))
    both = list(compress(both, is_root))
    kind = [
        TRIVIAL if lo == hi else GOOD if g or b >= 2 else BAD
        for lo, hi, g, b in zip(left, right, compress(good, is_root), both)
    ]
    return Components(kind, list(compress(comp_tags, is_root)), left, right, both, of_cycle)


@strict_record
class ChainedTree(NamedTuple):
    """Rooted tree of round (component) and square (chain) nodes, a strict
    record of its four fields.

    Chains are listed top-down: the component a chain nests in lies in an
    earlier chain.  ``build_chained_tree`` lists the chains by the id of
    their first component, and a nested chain's first component starts to
    the right of the component it nests in.
    """

    components: Components
    chains: list[list[int]]  # component ids, left to right
    chain_parent: list[int | None]  # nesting component id per chain
    root_chain: int

    def parent_array(self) -> list[int | None]:
        """The parent of every node, None at the root.  Component ``c`` is node
        ``c`` and chain ``i`` is node ``len(components) + i``; a component's
        parent is its chain, a chain's is the component it nests in."""
        m = len(self.components)
        parent: list[int | None] = [None] * m
        for ci, chain in enumerate(self.chains):
            for c in chain:
                parent[c] = m + ci
        return parent + self.chain_parent


def build_chained_tree(components: Components, diagram: RelationalDiagram) -> ChainedTree:
    """Chain the components and nest the chains.  Only the upper edges next
    to a span's ends are looked up, each through its cycle's component."""
    n = diagram.g_count
    owner, of_cycle = diagram.owner, components.of_cycle
    left, right = components.left, components.right
    m = len(left)
    succ = [-1] * m
    has_pred = bytearray(m)
    for c, end in enumerate(right):
        if end + 1 < n:
            nxt = of_cycle[owner[end + 1]]
            if left[nxt] == end + 1:
                succ[c] = nxt
                has_pred[nxt] = 1

    chains: list[list[int]] = []
    for c in range(m):
        if has_pred[c]:
            continue
        chain = [c]
        while succ[chain[-1]] >= 0:
            chain.append(succ[chain[-1]])
        chains.append(chain)

    chain_parent: list[int | None] = []
    roots = []
    for ci, chain in enumerate(chains):
        lo, hi = left[chain[0]], right[chain[-1]]
        parent = None
        if lo > 0 and hi + 1 < n and of_cycle[owner[lo - 1]] == of_cycle[owner[hi + 1]]:
            parent = of_cycle[owner[lo - 1]]
        chain_parent.append(parent)
        if parent is None:
            roots.append(ci)
    if len(roots) != 1:
        raise InvindelError(
            f"chain nesting produced {len(roots)} root chains; unsupported anchor cut"
        )
    return ChainedTree(components, chains, chain_parent, roots[0])


def spanning_subtree(parent, nodes: list[int]) -> frozenset[int]:
    """Smallest subtree of a rooted forest containing the given nodes;
    ``parent[x]`` is the parent of node ``x``, None at a root.

    Walks up from each node, stopping at the first node walked before, and
    counts the walked children of every node; the walks cover the nodes'
    paths to their roots, and the subtree is that union less its stem: the
    nodes passed on the way down from the root before the first given node
    or node with two walked children.
    """
    walked: set[int] = set()
    kids: dict[int, int] = {}
    down: dict[int, int] = {}  # the walked child, where there is just one
    roots = []
    for x in nodes:
        if x in walked:
            continue
        walked.add(x)
        p = parent[x]
        while p is not None:
            kids[p] = kids.get(p, 0) + 1
            down[p] = x
            if p in walked:
                break
            walked.add(p)
            x, p = p, parent[p]
        else:
            roots.append(x)
    targets = set(nodes)
    for x in roots:
        while kids.get(x) == 1 and x not in targets:
            walked.remove(x)
            x = down[x]
    return frozenset(walked)


def mark_costless_merges(tree: ChainedTree) -> ChainedTree:
    """Simulate the costless joint inversions between both-run cycles.

    When two or more cycles carrying both run types exist in the diagram,
    joint inversions merge their components, and every component separating
    them, into one good component at no extra cost.  Modelled by turning
    every round node on the spanning subtree of the carriers good before
    contraction.
    """
    comps = tree.components
    both = comps.both
    if sum(both) < 2:
        return tree
    span = spanning_subtree(tree.parent_array(), list(compress(range(len(both)), both)))
    kind = [GOOD if k == BAD and c in span else k for c, k in enumerate(comps.kind)]
    new = Components(kind, comps.tags, comps.left, comps.right, comps.both, comps.of_cycle)
    return tree._replace(components=new)


# ---------------------------------------------------------------------------
# Tagged trees


class TreeNode(NamedTuple):
    bad: bool
    tags: frozenset[str]
    src: frozenset[int]  # the components it absorbed, disjoint across a tree


class TaggedTree:
    """Unrooted tree of bad/good nodes with tag sets, in contracted form;
    ``adj[u]`` lists the neighbours of ``u`` in increasing order.

    A tree is never changed once built.  Its leaves, leaf classes, bad
    nodes, the node that absorbed each component and a rooting (the parent
    and depth of every node) are computed on first use and kept; the
    queries return the kept lists and dicts themselves, which are read only.
    """

    def __init__(self, nodes: dict[int, TreeNode], adj: dict[int, tuple[int, ...]]):
        self.nodes = nodes
        self.adj = adj
        self._leaves: list[int] | None = None
        self._classes: dict[str, list[int]] | None = None
        self._bad: list[int] | None = None
        self._home: dict[int, int] | None = None
        self._parent: dict[int, int | None] | None = None
        self._depth: dict[int, int] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_spec(cls, specs: dict[int, str], edges: list[tuple[int, int]]) -> "TaggedTree":
        """Build from compact node specs: 'b', 'bA', 'bB', 'bAB', 'g', 'gA', ...

        Intended for tests and generators; the result is not contracted.
        """
        nodes = {}
        for nid, spec in specs.items():
            bad = spec[0] == "b"
            tags = frozenset(spec[1:]) & {TAG_A, TAG_B}
            nodes[nid] = TreeNode(bad, tags, frozenset({nid}))
        adj: dict[int, list[int]] = {nid: [] for nid in specs}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls(nodes, {u: tuple(sorted(vs)) for u, vs in adj.items()})

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def leaves(self) -> list[int]:
        if self._leaves is None:
            adj = self.adj
            self._leaves = sorted(u for u in self.nodes if len(adj[u]) <= 1)
        return self._leaves

    def bad_nodes(self) -> list[int]:
        if self._bad is None:
            self._bad = sorted(u for u, n in self.nodes.items() if n.bad)
        return self._bad

    def tags(self, u: int) -> frozenset[str]:
        return self.nodes[u].tags

    def is_bad(self, u: int) -> bool:
        return self.nodes[u].bad

    def leaf_classes(self) -> dict[str, list[int]]:
        """The leaves of each class, in increasing order."""
        if self._classes is None:
            classes: dict[str, list[int]] = {cls: [] for cls in CLASS_TAGS}
            nodes = self.nodes
            for u in self.leaves():
                classes[_CLASS_OF[nodes[u].tags]].append(u)
            self._classes = classes
        return self._classes

    def composition(self) -> tuple[int, int, int, int]:
        """The leaf count of each class, in the order of ``CLASS_TAGS``."""
        return tuple(map(len, self.leaf_classes().values()))

    def component_home(self) -> dict[int, int]:
        """The node whose ``src`` holds each component."""
        if self._home is None:
            self._home = {c: u for u, n in self.nodes.items() for c in n.src}
        return self._home

    def rooting(self) -> tuple[dict[int, int | None], dict[int, int]]:
        """Parent and depth of every node, each connected part rooted at its
        first node; built by one breadth-first sweep on first use."""
        if self._parent is None:
            adj = self.adj
            parent: dict[int, int | None] = {}
            depth: dict[int, int] = {}
            for root in self.nodes:
                if root in parent:
                    continue
                parent[root] = None
                depth[root] = 0
                order = [root]
                for x in order:
                    d = depth[x] + 1
                    for y in adj[x]:
                        if y not in parent:
                            parent[y] = x
                            depth[y] = d
                            order.append(y)
            self._parent, self._depth = parent, depth
        return self._parent, self._depth

    def path(self, u: int, v: int) -> list[int]:
        """Unique tree path from u to v, inclusive: both ends climb the
        rooting to their lowest common ancestor."""
        if u == v:
            return [u]
        parent, depth = self.rooting()
        du, dv = depth[u], depth[v]
        up, down = [u], [v]
        while du > dv:
            u = parent[u]
            up.append(u)
            du -= 1
        while dv > du:
            v = parent[v]
            down.append(v)
            dv -= 1
        while u != v:
            u, v = parent[u], parent[v]
            if u is None:
                raise KeyError(f"no path between {up[0]} and {down[0]}")
            up.append(u)
            down.append(v)
        down.pop()
        down.reverse()
        return up + down

    def restricted(self, keep) -> "TaggedTree":
        """The nodes in ``keep`` and the edges between them."""
        nodes = {u: n for u, n in self.nodes.items() if u in keep}
        return TaggedTree(nodes, {u: tuple(v for v in self.adj[u] if v in keep) for u in nodes})

    def with_swapped_tags(self) -> "TaggedTree":
        swap = {TAG_A: TAG_B, TAG_B: TAG_A}
        nodes = {
            u: TreeNode(n.bad, frozenset(swap[t] for t in n.tags), n.src)
            for u, n in self.nodes.items()
        }
        return TaggedTree(nodes, self.adj)

    def validate(self) -> None:
        """Assert the adjacency and contracted-form invariants."""
        nodes, adj = self.nodes, self.adj
        arcs = {(u, v) for u, vs in adj.items() for v in vs}
        for u, node in nodes.items():
            nbrs = adj.get(u)
            if nbrs is None:
                raise InvindelError(f"node {u} has no neighbour list")
            for v in nbrs:
                if v not in nodes:
                    raise InvindelError(f"node {u} lists neighbour {v}, which is not a node")
                if (v, u) not in arcs:
                    raise InvindelError(f"edge {u}-{v} is listed at node {u} only")
            if len(nbrs) > 1 and not all(map(lt, nbrs, nbrs[1:])):
                raise InvindelError(f"neighbours of node {u} are not in increasing order")
            if not node.src and (node.bad or node.tags):
                raise InvindelError(f"bad or tagged node {u} has an empty src")
            if not node.bad:
                if len(nbrs) <= 1:
                    raise InvindelError(f"good leaf {u} survived contraction")
                if not node.tags and len(nbrs) == 2:
                    raise InvindelError(f"clean good node {u} of degree 2 survived")
                if any(not nodes[v].bad for v in nbrs):
                    raise InvindelError(f"adjacent good nodes at {u}")
        if sum(p is None for p in self.rooting()[0].values()) > 1:
            raise InvindelError("tagged tree is not connected")
        if nodes and sum(map(len, adj.values())) != 2 * (len(nodes) - 1):
            raise InvindelError("tagged tree has a cycle")


@strict_record
class CoverPath(NamedTuple):
    """One path of a cover, between nodes ``u`` and ``v``, at its cost; a
    strict record of its three fields."""

    u: int
    v: int
    cost: int

    @property
    def kind(self) -> str:
        return "short" if self.u == self.v else "long"


@strict_record
class Cover:
    """The paths of a cover of a tagged tree; a cover built without paths
    gets a list of its own.  Two covers are equal when their paths are."""

    __slots__ = ("paths",)
    __match_args__ = ("paths",)

    def __init__(self, paths: list[CoverPath] | None = None) -> None:
        self.paths = [] if paths is None else paths

    def __repr__(self) -> str:
        return f"Cover(paths={self.paths!r})"

    @property
    def total_cost(self) -> int:
        return sum(p.cost for p in self.paths)

    def validate(self, tree: TaggedTree) -> None:
        """Check every bad node is covered and every declared cost is right."""
        covered: set[int] = set()
        for p in self.paths:
            if p.u not in tree.nodes or p.v not in tree.nodes:
                raise PreconditionViolated(f"path {p.u}-{p.v} ends outside the tree")
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


def _settle(b, block, tags: frozenset[str], bads, gained: dict, folded: dict) -> int | None:
    """The contraction rule for one merged block of good nodes, ``b`` being
    the caller's handle for it, ``block`` its node ids, ``tags`` the union
    of their tags and ``bads`` its bad neighbours.

    A clean block between two bad nodes is spliced out, the two gaining
    each other as neighbours; a block with one bad neighbour is folded into
    it (``folded[bad]`` collects the handles); a block with no bad
    neighbour is dropped.  Any other block is kept under its smallest id,
    which every bad neighbour gains and which is returned; else None.
    """
    if len(bads) == 2 and not tags:
        b1, b2 = bads
        gained.setdefault(b1, []).append(b2)
        gained.setdefault(b2, []).append(b1)
    elif len(bads) == 1:
        folded.setdefault(bads[0], []).append(b)
    elif bads:
        root = min(block)
        for y in bads:
            gained.setdefault(y, []).append(root)
        return root
    return None


def contract(tree: TaggedTree) -> TaggedTree:
    """Flower-contract a tagged tree.

    Connected blocks of good nodes merge into single good nodes carrying the
    union of tags; clean good nodes of degree two are spliced out and good
    leaves fold their tags into the adjacent bad node.  A surviving node's
    ``src`` is the union of the ``src`` sets it absorbed (spliced-out clean
    blocks are dropped), the one record that lifting reads.

    One pass is exact: once the blocks are merged every good node has only
    bad neighbours, and bad nodes are never removed, so splicing or folding
    one block changes the degree of no other.  A merged block keeps the
    smallest id of its members.
    """
    nodes, adj = tree.nodes, tree.adj
    if not nodes:
        return TaggedTree({}, {})

    block_of: dict[int, int] = {}
    blocks: list[list[int]] = []
    for u, n in nodes.items():
        if n.bad or u in block_of:
            continue
        b = block_of[u] = len(blocks)
        block = [u]
        for x in block:
            for y in adj[x]:
                if y not in block_of and not nodes[y].bad:
                    block_of[y] = b
                    block.append(y)
        blocks.append(block)

    merged: list[TreeNode] = []
    kept: dict[int, tuple[int, tuple[int, ...]]] = {}  # block -> its id, bad neighbours
    gained: dict[int, list[int]] = {}  # bad node -> neighbours in place of good ones
    folded: dict[int, list[int]] = {}  # bad node -> blocks folded into it
    for b, block in enumerate(blocks):
        if len(block) == 1:
            node = nodes[block[0]]
            bads = adj[block[0]]
        else:
            node = TreeNode(
                False,
                frozenset().union(*[nodes[x].tags for x in block]),
                frozenset().union(*[nodes[x].src for x in block]),
            )
            bads = [y for x in block for y in adj[x] if y not in block_of]
        merged.append(node)
        root = _settle(b, block, node.tags, bads, gained, folded)
        if root is not None:
            kept[b] = root, tuple(sorted(bads))

    out: dict[int, TreeNode] = {}
    out_adj: dict[int, tuple[int, ...]] = {}
    for u, n in nodes.items():
        if n.bad:
            nbrs = [v for v in adj[u] if v not in block_of]
            nbrs += gained.get(u, ())
            into = folded.get(u)
            if into:
                n = TreeNode(
                    True,
                    n.tags.union(*[merged[b].tags for b in into]),
                    n.src.union(*[merged[b].src for b in into]),
                )
            out[u] = n
            out_adj[u] = tuple(sorted(nbrs))
            continue
        b = block_of[u]
        if b in kept and blocks[b][0] == u:
            root, nbrs = kept[b]
            out[root] = merged[b]
            out_adj[root] = nbrs
    return TaggedTree(out, out_adj)


def reduce_by_paths(tree: TaggedTree, pairs: list[tuple[int, int]]) -> TaggedTree:
    """Simultaneous path reduction: every bad node on the given paths turns
    good (tags kept), then the tree is re-contracted."""
    nodes = dict(tree.nodes)
    for u, v in pairs:
        for x in tree.path(u, v):
            n = nodes[x]
            if n.bad:
                nodes[x] = TreeNode(False, n.tags, n.src)
    return contract(TaggedTree(nodes, tree.adj))


def flower_contract(tree: ChainedTree) -> TaggedTree:
    """Contract the chained tree, its squares taken as clean good nodes,
    into the unrooted tagged component tree, with the rule ``contract``
    applies but no tagged tree of the chained one.

    One top-down pass over the parent array, read in its compact form
    (chain ``i`` is the parent of its components and the child of
    ``chain_parent[i]``), finds the blocks of good nodes: a square starts a
    block unless its parent component is good, in which case it joins that
    component's block, and a good component joins its square's.  Squares
    are never bad and two components are never adjacent, so the bad
    neighbours of a block are the bad components next to its squares, and
    each block is settled once by ``_settle``.  A block's ``src`` holds its
    good components, and its smallest id is that of its smallest good
    component or, with none, of its one square.
    """
    comps = tree.components
    m = len(comps)
    bad = [k == BAD for k in comps.kind]
    bits = comps.tags
    # per block: its square heading it, its good components, its bad neighbours
    blocks: list[tuple[int, list[int], list[int]]] = []
    block_of: list[tuple | None] = [None] * m  # good component -> the block it joined
    for i, chain in enumerate(tree.chains):
        p = tree.chain_parent[i]
        if p is None or bad[p]:
            block = (m + i, [], [] if p is None else [p])
            blocks.append(block)
        else:
            block = block_of[p]
        good, bads = block[1], block[2]
        for c in chain:
            if bad[c]:
                bads.append(c)
            else:
                good.append(c)
                block_of[c] = block

    gained: dict[int, list[int]] = {}  # bad component -> neighbours in place of blocks
    folded: dict[int, list[int]] = {}  # bad component -> blocks folded into it
    block_bits: list[int] = []
    out: dict[int, tuple[TreeNode, tuple[int, ...]]] = {}
    for b, (square, good, bads) in enumerate(blocks):
        t = reduce(or_, map(bits.__getitem__, good), 0)
        block_bits.append(t)
        tags = _TAG_SETS[t]
        root = _settle(b, good or (square,), tags, bads, gained, folded)
        if root is not None:
            out[root] = TreeNode(False, tags, frozenset(good)), tuple(sorted(bads))
    for c in compress(range(m), bad):
        t, src = bits[c], frozenset((c,))
        into = folded.get(c)
        if into:
            t = reduce(or_, map(block_bits.__getitem__, into), t)
            src = src.union(*[blocks[b][1] for b in into])
        out[c] = TreeNode(True, _TAG_SETS[t], src), tuple(sorted(gained.get(c, ())))
    order = sorted(out)
    return TaggedTree({u: out[u][0] for u in order}, {u: out[u][1] for u in order})


def tagged_tree_for_pair(pair: GenomePair, anchor: str | None = None):
    """Front half of the pipeline: diagram, components, chained tree,
    costless-merge marking, contraction.

    The circles are cut at ``anchor`` when given, else at the smallest
    common marker; no term of the distance depends on the cut.
    """
    diagram = build_relational_diagram(
        pair, anchor if anchor is not None else min(pair.common)
    )
    comps = find_components(diagram)
    chained = mark_costless_merges(build_chained_tree(comps, diagram))
    tagged = flower_contract(chained)
    return diagram, comps, chained, tagged

