"""Interleaving components, the chained component tree, and its contraction.

Cycles whose upper-edge spans cross belong to one component; components
chain and nest along the upper line, giving a rooted tree of round
(component) and square (chain) nodes.  Contracting every connected block
of non-bad nodes yields the unrooted tagged tree on which cover costs are
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagram import Cycle, RelationalDiagram, build_relational_diagram, run_count
from .errors import InvindelError
from .genome import GenomePair

TAG_A = "A"
TAG_B = "B"

TRIVIAL = "trivial"
GOOD = "good"
BAD = "bad"


@dataclass(frozen=True)
class Component:
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


def cycles_interleave(c1: Cycle, c2: Cycle) -> bool:
    """Direct pairwise test: each cycle owns an upper edge strictly inside
    the other's span."""
    p1, p2 = c1.a_positions, c2.a_positions
    if len(p1) < 2 or len(p2) < 2:
        return False
    inside_2 = any(p2[0] < p < p2[-1] for p in p1)
    inside_1 = any(p1[0] < p < p1[-1] for p in p2)
    return inside_1 and inside_2


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
    groups: dict[int, list[int]] = {}
    for cyc in cycles:
        groups.setdefault(uf.find(cyc.id), []).append(cyc.id)
    return sorted(groups.values(), key=lambda ids: min(cycles[i].a_positions[0] for i in ids))


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
        members = [cycles[i] for i in ids]
        tags = set()
        if any(c.has_a_run for c in members):
            tags.add(TAG_A)
        if any(c.has_b_run for c in members):
            tags.add(TAG_B)
        both = sum(1 for c in members if c.has_both_runs)
        effective_good = any(c.good or run_count(c) >= 4 for c in members) or both >= 2
        if len(members) == 1 and members[0].is_two_cycle:
            kind = TRIVIAL
        elif effective_good:
            kind = GOOD
        else:
            kind = BAD
        span = (
            min(c.a_positions[0] for c in members),
            max(c.a_positions[-1] for c in members),
        )
        comps.append(Component(comp_id, tuple(sorted(ids)), kind, frozenset(tags), span, both))
    return comps


@dataclass
class ChainedTree:
    """Rooted tree of round (component) and square (chain) nodes."""

    components: list[Component]
    chains: list[list[int]]  # component ids, left to right
    chain_parent: list[int | None]  # nesting component id per chain
    root_chain: int


def build_chained_tree(components: list[Component], diagram: RelationalDiagram) -> ChainedTree:
    n = diagram.g_count
    comp_of_edge = [-1] * n
    for comp in components:
        for cyc_id in comp.cycles:
            for p in diagram.cycles[cyc_id].a_positions:
                comp_of_edge[p] = comp.id

    succ: dict[int, int] = {}
    has_pred: set[int] = set()
    for comp in components:
        right = comp.span[1]
        if right + 1 < n:
            nxt = comp_of_edge[right + 1]
            if components[nxt].span[0] == right + 1:
                succ[comp.id] = nxt
                has_pred.add(nxt)

    chains: list[list[int]] = []
    for comp in components:
        if comp.id in has_pred:
            continue
        chain = [comp.id]
        while chain[-1] in succ:
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


def _chained_adjacency(tree: ChainedTree) -> dict[tuple, set[tuple]]:
    adj: dict[tuple, set[tuple]] = {}

    def add(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for ci, chain in enumerate(tree.chains):
        sq = ("square", ci)
        adj.setdefault(sq, set())
        for comp_id in chain:
            add(sq, ("round", comp_id))
        parent = tree.chain_parent[ci]
        if parent is not None:
            add(sq, ("round", parent))
    return adj


def _steiner_nodes(adj: dict, targets: set) -> set:
    """Nodes of the minimal subtree spanning the target set."""
    if not targets:
        return set()
    alive = {u: set(vs) for u, vs in adj.items()}
    pruned = True
    while pruned:
        pruned = False
        for u in list(alive):
            if u not in targets and len(alive[u]) <= 1:
                for v in alive[u]:
                    alive[v].discard(u)
                del alive[u]
                pruned = True
    return set(alive)


def mark_costless_merges(tree: ChainedTree) -> ChainedTree:
    """Simulate the costless joint inversions between both-run cycles.

    When two or more cycles carrying both run types exist in the diagram,
    joint inversions merge their components, and every component separating
    them, into one good component at no extra cost.  Modelled by turning
    every round node on the spanning subtree of the carriers good before
    contraction.
    """
    carriers = [c.id for c in tree.components if c.both_run_cycles >= 1]
    total = sum(c.both_run_cycles for c in tree.components)
    if total < 2:
        return tree
    targets = {("round", c) for c in carriers}
    keep = _steiner_nodes(_chained_adjacency(tree), targets)
    new_components = list(tree.components)
    for kind, ident in keep:
        if kind == "round" and new_components[ident].kind == BAD:
            new_components[ident] = replace(new_components[ident], kind=GOOD)
    return ChainedTree(new_components, tree.chains, tree.chain_parent, tree.root_chain)


# ---------------------------------------------------------------------------
# Tagged trees


@dataclass(frozen=True)
class TreeNode:
    bad: bool
    tags: frozenset[str]
    src: frozenset[int] = frozenset()


class TaggedTree:
    """Unrooted tree of bad/good nodes with tag sets, in contracted form."""

    def __init__(self, nodes: dict[int, TreeNode], adj: dict[int, tuple[int, ...]]):
        self.nodes = nodes
        self.adj = adj

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

    def copy(self) -> "TaggedTree":
        return TaggedTree(dict(self.nodes), dict(self.adj))

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
        if len(self.nodes) == 1:
            return list(self.nodes)
        return sorted(u for u in self.nodes if self.degree(u) <= 1)

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

    def path(self, u: int, v: int) -> list[int]:
        """Unique tree path from u to v, inclusive."""
        if u == v:
            return [u]
        parent = {u: None}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in self.adj[x]:
                    if y not in parent:
                        parent[y] = x
                        if y == v:
                            out = [v]
                            while out[-1] != u:
                                out.append(parent[out[-1]])
                            out.reverse()
                            return out
                        nxt.append(y)
            frontier = nxt
        raise KeyError(f"no path between {u} and {v}")

    def with_swapped_tags(self) -> "TaggedTree":
        swap = {TAG_A: TAG_B, TAG_B: TAG_A}
        nodes = {
            u: TreeNode(n.bad, frozenset(swap[t] for t in n.tags), n.src)
            for u, n in self.nodes.items()
        }
        return TaggedTree(nodes, dict(self.adj))

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
    """
    if tree.is_empty:
        return TaggedTree({}, {}), {}

    rep: dict[int, int] = {}
    for u in tree.nodes:
        if u in rep or tree.nodes[u].bad:
            continue
        block = [u]
        seen = {u}
        queue = [u]
        while queue:
            x = queue.pop()
            for y in tree.adj[x]:
                if y not in seen and not tree.nodes[y].bad:
                    seen.add(y)
                    block.append(y)
                    queue.append(y)
        root = min(block)
        for x in block:
            rep[x] = root

    def rep_of(u: int) -> int:
        return rep.get(u, u)

    nodes: dict[int, TreeNode] = {}
    support: dict[int, set[int]] = {}
    adj: dict[int, set[int]] = {}
    for u, n in tree.nodes.items():
        r = rep_of(u)
        if r not in nodes:
            nodes[r] = TreeNode(n.bad, frozenset(), frozenset())
            support[r] = set()
            adj[r] = set()
        support[r].add(u)
        nodes[r] = TreeNode(nodes[r].bad, nodes[r].tags | n.tags, nodes[r].src | n.src)
    for u, vs in tree.adj.items():
        for v in vs:
            ru, rv = rep_of(u), rep_of(v)
            if ru != rv:
                adj[ru].add(rv)
                adj[rv].add(ru)

    changed = True
    while changed:
        changed = False
        for u in list(nodes):
            if u not in nodes or nodes[u].bad:
                continue
            deg = len(adj[u])
            if not nodes[u].tags and deg == 2:
                b1, b2 = sorted(adj[u])
                adj[b1].discard(u)
                adj[b2].discard(u)
                adj[b1].add(b2)
                adj[b2].add(b1)
                del nodes[u], adj[u], support[u]
                changed = True
            elif deg == 1:
                (b,) = adj[u]
                nodes[b] = TreeNode(
                    nodes[b].bad, nodes[b].tags | nodes[u].tags, nodes[b].src | nodes[u].src
                )
                support[b] |= support[u]
                adj[b].discard(u)
                del nodes[u], adj[u], support[u]
                changed = True
            elif deg == 0:
                del nodes[u], adj[u], support[u]
                changed = True

    out = TaggedTree(nodes, {u: tuple(sorted(vs)) for u, vs in adj.items()})
    return out, {u: frozenset(s) for u, s in support.items()}


def reduce_by_paths(
    tree: TaggedTree, pairs: list[tuple[int, int]]
) -> tuple[TaggedTree, dict[int, frozenset[int]]]:
    """Simultaneous path reduction: every bad node on the given paths turns
    good (tags kept), then the tree is re-contracted."""
    marked: set[int] = set()
    for u, v in pairs:
        marked.update(n for n in tree.path(u, v) if tree.nodes[n].bad)
    nodes = {
        u: (TreeNode(False, n.tags, n.src) if u in marked else n)
        for u, n in tree.nodes.items()
    }
    return contract(TaggedTree(nodes, dict(tree.adj)))


def flower_contract(tree: ChainedTree) -> TaggedTree:
    """Contract the chained tree into the unrooted tagged component tree."""
    specs: dict[int, TreeNode] = {}
    adj: dict[int, list[int]] = {}
    m = len(tree.components)
    for comp in tree.components:
        specs[comp.id] = TreeNode(comp.kind == BAD, comp.tags, frozenset({comp.id}))
        adj[comp.id] = []
    for ci, chain in enumerate(tree.chains):
        sq = m + ci
        specs[sq] = TreeNode(False, frozenset(), frozenset())
        adj[sq] = []
        for comp_id in chain:
            adj[sq].append(comp_id)
            adj[comp_id].append(sq)
        parent = tree.chain_parent[ci]
        if parent is not None:
            adj[sq].append(parent)
            adj[parent].append(sq)
    raw = TaggedTree(specs, {u: tuple(sorted(vs)) for u, vs in adj.items()})
    contracted, _ = contract(raw)
    return contracted


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
