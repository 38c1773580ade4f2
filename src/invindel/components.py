"""Interleaving components, the chained component tree, and its contraction.

Cycles whose upper-edge spans cross belong to one component; components
chain and nest along the upper line, giving a rooted tree of round
(component) and square (chain) nodes.  Contracting every connected block
of non-bad nodes yields the unrooted tagged tree on which cover costs are
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .diagram import RelationalDiagram, build_relational_diagram
from .errors import InvindelError
from .genome import GenomePair

TAG_A = "A"
TAG_B = "B"

TRIVIAL = "trivial"
GOOD = "good"
BAD = "bad"


class Component(NamedTuple):
    id: int
    cycles: tuple[int, ...]
    kind: str
    tags: frozenset[str]
    span: tuple[int, int]  # leftmost/rightmost upper-edge positions
    both_run_cycles: int


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
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
        return rx


def _sweep_interleaving(
    owner: list[int], positions: list[tuple[int, ...]]
) -> _UnionFind:
    """Connected components of the interleaving relation over edge owners.

    Left-to-right sweep with a stack of open spans.  Two distinct
    components cannot have crossing spans (crossing implies interleaving),
    so spans on the stack are nested; an edge of an already-open component
    lies strictly inside every span opened after it, forcing unions.
    """
    n = len(owner)
    uf = _UnionFind(len(positions))
    root_max = {i: ps[-1] for i, ps in enumerate(positions)}

    def union(a: int, b: int) -> int:
        r = uf.union(a, b)
        root_max[r] = max(root_max[a], root_max[b])
        return r

    stack: list[list[int]] = []  # entries [root, max extent], innermost last
    open_rec: dict[int, list[int]] = {}

    for p in range(n):
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


def _group_interleaving(diagram: RelationalDiagram) -> list[list[int]]:
    cycles = diagram.cycles
    uf = _sweep_interleaving(
        diagram.cycle_of_a_edge(), [c.a_positions for c in cycles]
    )
    # Cycle ids follow the first upper edge, so each group is met first at
    # its leftmost cycle and the groups come out in left-to-right order.
    groups: dict[int, list[int]] = {}
    find = uf.find
    for i in range(len(cycles)):
        root = find(i)
        if root in groups:
            groups[root].append(i)
        else:
            groups[root] = [i]
    return list(groups.values())


_TAG_SETS = {
    (False, False): frozenset(),
    (True, False): frozenset({TAG_A}),
    (False, True): frozenset({TAG_B}),
    (True, True): frozenset({TAG_A, TAG_B}),
}


def find_components(diagram: RelationalDiagram) -> list[Component]:
    """Group cycles into components, classify them, and attach tags.

    A cycle with four or more runs can always be turned good by costless
    neutral inversions, and two both-run cycles in one component merge into
    a good cycle by a costless joint inversion; components made good that
    way never need cutting, so they are classified good here.
    """
    cycles = diagram.cycles
    comps: list[Component] = []
    for comp_id, ids in enumerate(_group_interleaving(diagram)):
        if len(ids) == 1:
            c = cycles[ids[0]]
            pos = c.a_positions
            a, b = c.has_a_run, c.has_b_run
            if len(pos) == 1:
                kind = TRIVIAL
            elif c.good or c.runs >= 4:
                kind = GOOD
            else:
                kind = BAD
            comps.append(
                Component(comp_id, (c.id,), kind, _TAG_SETS[a, b], (pos[0], pos[-1]), int(a and b))
            )
            continue
        members = [cycles[i] for i in ids]
        a = b = good = False
        both = 0
        for c in members:
            a |= c.has_a_run
            b |= c.has_b_run
            good |= c.good or c.runs >= 4
            both += c.has_a_run and c.has_b_run
        span = (members[0].a_positions[0], max(c.a_positions[-1] for c in members))
        kind = GOOD if good or both >= 2 else BAD
        comps.append(Component(comp_id, tuple(ids), kind, _TAG_SETS[a, b], span, both))
    return comps


@dataclass
class ChainedTree:
    """Rooted tree of round (component) and square (chain) nodes."""

    components: list[Component]
    chains: list[list[int]]  # component ids, left to right
    chain_parent: list[int | None]  # nesting component id per chain
    root_chain: int

    def parent_array(self) -> list[int]:
        """The parent of every node, -1 at the root.  Component ``c`` is node
        ``c`` and chain ``i`` is node ``len(components) + i``; a component's
        parent is its chain, a chain's is the component it nests in."""
        m = len(self.components)
        parent = [-1] * (m + len(self.chains))
        for ci, chain in enumerate(self.chains):
            sq = m + ci
            for c in chain:
                parent[c] = sq
            nest = self.chain_parent[ci]
            if nest is not None:
                parent[sq] = nest
        return parent


def build_chained_tree(components: list[Component], diagram: RelationalDiagram) -> ChainedTree:
    n = diagram.g_count
    cycles = diagram.cycles
    comp_of_edge = [-1] * n
    for comp in components:
        cid = comp.id
        for cyc_id in comp.cycles:
            for p in cycles[cyc_id].a_positions:
                comp_of_edge[p] = cid

    m = len(components)
    succ = [-1] * m
    has_pred = bytearray(m)
    for comp in components:
        right = comp.span[1] + 1
        if right < n:
            nxt = comp_of_edge[right]
            if components[nxt].span[0] == right:
                succ[comp.id] = nxt
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
        left = components[chain[0]].span[0]
        right = components[chain[-1]].span[1]
        parent = None
        if left > 0 and right + 1 < n and comp_of_edge[left - 1] == comp_of_edge[right + 1]:
            parent = comp_of_edge[left - 1]
        chain_parent.append(parent)
        if parent is None:
            roots.append(ci)
    if len(roots) != 1:
        raise InvindelError(
            f"chain nesting produced {len(roots)} root chains; unsupported anchor cut"
        )
    return ChainedTree(components, chains, chain_parent, roots[0])


def mark_costless_merges(tree: ChainedTree) -> ChainedTree:
    """Simulate the costless joint inversions between both-run cycles.

    When two or more cycles carrying both run types exist in the diagram,
    joint inversions merge their components, and every component separating
    them, into one good component at no extra cost.  Modelled by turning
    every round node on the spanning subtree of the carriers good before
    contraction.

    The spanning subtree is found over the parent array: walk up from each
    carrier, stopping at the first node walked before, and count the walked
    children of every node; the walks cover the carriers' paths to the
    root, and the subtree is that union less its stem: the nodes passed on
    the way down from the root before the first carrier or node with two
    walked children.
    """
    comps = tree.components
    if sum(c.both_run_cycles for c in comps) < 2:
        return tree
    m = len(comps)
    parent = tree.parent_array()
    walked = bytearray(len(parent))
    kids = [0] * len(parent)
    down = [-1] * len(parent)  # the walked child, where there is just one
    for c in comps:
        x = c.id
        if not c.both_run_cycles or walked[x]:
            continue
        walked[x] = 1
        p = parent[x]
        while p >= 0:
            kids[p] += 1
            down[p] = x
            if walked[p]:
                break
            walked[p] = 1
            x, p = p, parent[p]
    x = m + tree.root_chain
    while kids[x] == 1 and not (x < m and comps[x].both_run_cycles):
        walked[x] = 0
        x = down[x]
    new_components = [
        c._replace(kind=GOOD) if walked[c.id] and c.kind == BAD else c for c in comps
    ]
    return ChainedTree(new_components, tree.chains, tree.chain_parent, tree.root_chain)


# ---------------------------------------------------------------------------
# Tagged trees


class TreeNode(NamedTuple):
    bad: bool
    tags: frozenset[str]
    src: frozenset[int] = frozenset()


_SQUARE = TreeNode(False, frozenset(), frozenset())


class TaggedTree:
    """Unrooted tree of bad/good nodes with tag sets, in contracted form.

    A tree is never changed once built: its leaves and a rooting (the parent
    and depth of every node) are computed on first use and kept.
    """

    def __init__(self, nodes: dict[int, TreeNode], adj: dict[int, tuple[int, ...]]):
        self.nodes = nodes
        self.adj = adj
        self._leaves: list[int] | None = None
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
            if len(self.nodes) == 1:
                self._leaves = list(self.nodes)
            else:
                adj = self.adj
                self._leaves = sorted(u for u in self.nodes if len(adj[u]) <= 1)
        return list(self._leaves)

    def bad_nodes(self) -> list[int]:
        return sorted(u for u, n in self.nodes.items() if n.bad)

    def tags(self, u: int) -> frozenset[str]:
        return self.nodes[u].tags

    def is_bad(self, u: int) -> bool:
        return self.nodes[u].bad

    def leaf_class(self, u: int) -> str:
        t = self.nodes[u].tags
        if t == {TAG_A}:
            return "A"
        if t == {TAG_B}:
            return "B"
        if not t:
            return "C"
        return "AB"

    def leaf_classes(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {"A": [], "B": [], "C": [], "AB": []}
        for u in self.leaves():
            out[self.leaf_class(u)].append(u)
        return out

    def composition(self) -> tuple[int, int, int, int]:
        cls = self.leaf_classes()
        return (len(cls["A"]), len(cls["B"]), len(cls["C"]), len(cls["AB"]))

    def _rooting(self) -> tuple[dict[int, int | None], dict[int, int]]:
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
        parent, depth = self._rooting()
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

    def with_swapped_tags(self) -> "TaggedTree":
        swap = {TAG_A: TAG_B, TAG_B: TAG_A}
        nodes = {
            u: TreeNode(n.bad, frozenset(swap[t] for t in n.tags), n.src)
            for u, n in self.nodes.items()
        }
        return TaggedTree(nodes, self.adj)

    def validate(self) -> None:
        """Assert the contracted-form invariants."""
        for u, node in self.nodes.items():
            if not node.bad:
                if self.degree(u) <= 1:
                    raise InvindelError(f"good leaf {u} survived contraction")
                if not node.tags and self.degree(u) == 2:
                    raise InvindelError(f"clean good node {u} of degree 2 survived")
                if any(not self.nodes[v].bad for v in self.adj[u]):
                    raise InvindelError(f"adjacent good nodes at {u}")
        if self.nodes:
            seen = {next(iter(self.nodes))}
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for y in self.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if seen != set(self.nodes):
                raise InvindelError("tagged tree is not connected")


def contract(tree: TaggedTree) -> tuple[TaggedTree, dict[int, frozenset[int]]]:
    """Flower-contract a tagged tree.

    Connected blocks of good nodes merge into single good nodes carrying the
    union of tags; clean good nodes of degree two are spliced out and good
    leaves fold their tags into the adjacent bad node.  Returns the new tree
    plus a support map from surviving node ids to the input node ids they
    absorbed (spliced-out clean blocks are dropped).

    One pass is exact: once the blocks are merged every good node has only
    bad neighbours, and bad nodes are never removed, so splicing or folding
    one block changes the degree of no other.  A merged block keeps the
    smallest id of its members.
    """
    nodes, adj = tree.nodes, tree.adj
    if not nodes:
        return TaggedTree({}, {}), {}

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
        if len(bads) == 2 and not node.tags:
            b1, b2 = bads
            gained.setdefault(b1, []).append(b2)
            gained.setdefault(b2, []).append(b1)
        elif len(bads) == 1:
            folded.setdefault(bads[0], []).append(b)
        elif bads:
            root = min(block)
            kept[b] = root, tuple(sorted(bads))
            for y in bads:
                gained.setdefault(y, []).append(root)

    out: dict[int, TreeNode] = {}
    out_adj: dict[int, tuple[int, ...]] = {}
    support: dict[int, frozenset[int]] = {}
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
                support[u] = frozenset([u, *(x for b in into for x in blocks[b])])
            else:
                support[u] = frozenset((u,))
            out[u] = n
            out_adj[u] = tuple(sorted(nbrs))
            continue
        b = block_of[u]
        if b in kept and blocks[b][0] == u:
            root, nbrs = kept[b]
            out[root] = merged[b]
            out_adj[root] = nbrs
            support[root] = frozenset(blocks[b])
    return TaggedTree(out, out_adj), support


def reduce_by_paths(
    tree: TaggedTree, pairs: list[tuple[int, int]]
) -> tuple[TaggedTree, dict[int, frozenset[int]]]:
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
    into the unrooted tagged component tree."""
    parent = tree.parent_array()
    nbrs: list[list[int]] = [[] for _ in parent]
    for x, p in enumerate(parent):
        if p >= 0:
            nbrs[x].append(p)
            nbrs[p].append(x)
    nodes = {c.id: TreeNode(c.kind == BAD, c.tags, frozenset((c.id,))) for c in tree.components}
    for sq in range(len(tree.components), len(parent)):
        nodes[sq] = _SQUARE
    raw = TaggedTree(nodes, {x: tuple(sorted(vs)) for x, vs in enumerate(nbrs)})
    return contract(raw)[0]


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


def format_chained_tree(tree: ChainedTree) -> str:
    lines = []
    children: dict[int, list[int]] = {}
    for ci, parent in enumerate(tree.chain_parent):
        if parent is not None:
            children.setdefault(parent, []).append(ci)

    def emit_chain(ci: int, depth: int) -> None:
        lines.append("  " * depth + f"chain[{ci}]")
        for comp_id in tree.chains[ci]:
            comp = tree.components[comp_id]
            tags = "".join(sorted(comp.tags)) or "-"
            lines.append(
                "  " * (depth + 1)
                + f"comp {comp.id} ({comp.kind}, tags {tags}, cycles {list(comp.cycles)})"
            )
            for sub in children.get(comp_id, []):
                emit_chain(sub, depth + 2)

    emit_chain(tree.root_chain, 0)
    return "\n".join(lines)


def format_tagged_tree(tree: TaggedTree) -> str:
    if tree.is_empty:
        return "(empty tree)"
    lines = []
    for u in tree.node_ids():
        n = tree.nodes[u]
        tags = "".join(sorted(n.tags)) or "-"
        kind = "bad" if n.bad else "good"
        lines.append(
            f"node {u}: {kind}, tags {tags}, neighbors {list(tree.adj[u])}, "
            f"components {sorted(n.src)}"
        )
    return "\n".join(lines)


def format_tagged_tree_dot(tree: TaggedTree) -> str:
    lines = ["graph tagged_tree {"]
    for u in tree.node_ids():
        n = tree.nodes[u]
        tags = "".join(sorted(n.tags)) or ""
        shape = "circle" if n.bad else "doublecircle"
        lines.append(f'  n{u} [label="{u}:{tags}" shape={shape}];')
    seen = set()
    for u in tree.node_ids():
        for v in tree.adj[u]:
            if (v, u) not in seen:
                seen.add((u, v))
                lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines)
