"""Reference tree layer, for checking the linear one in ``invindel.components``.

These are the straightforward constructions: components grouped and then
sorted by their leftmost upper edge, the Steiner subtree of the merge
carriers and the subtree spanning a set of tree nodes found by pruning
leaves until none is left to prune, contraction run as a fixpoint loop
over merged good blocks with a support map of the input nodes each
survivor absorbed, covers lifted through those maps, and tree paths found
by breadth-first search.  They rebuild every node they touch, which makes
them quadratic on large trees, and simple enough to trust.  Components
are the transitive closure of the pairwise interleaving test
``cycles_interleave`` over the diagram's ``Cycle`` rows, which the sweep
in ``invindel.components`` replaces.  The layer works on ``Component``
rows; ``chained_tree`` builds the columns a ``ChainedTree`` holds from
them.
"""

from __future__ import annotations

from invindel.components import (
    BAD,
    GOOD,
    TAG_A,
    TAG_B,
    TRIVIAL,
    ChainedTree,
    Component,
    Components,
    TaggedTree,
    TreeNode,
)
from invindel.diagram import TAG_A_BIT, TAG_B_BIT, Cycle, RelationalDiagram
from invindel.treecover import CoverPath


def cycles_interleave(c1: Cycle, c2: Cycle) -> bool:
    """Direct pairwise test: each cycle owns an upper edge strictly inside
    the other's span."""
    p1, p2 = c1.a_positions, c2.a_positions
    if len(p1) < 2 or len(p2) < 2:
        return False
    inside_2 = any(p2[0] < p < p2[-1] for p in p1)
    inside_1 = any(p1[0] < p < p1[-1] for p in p2)
    return inside_1 and inside_2


def find_components(diagram: RelationalDiagram) -> list[Component]:
    cycles = diagram.cycles
    # Only cycles with two or more upper edges interleave with any other.
    long = [c for c in cycles if len(c.a_positions) >= 2]
    linked: dict[int, list[int]] = {c.id: [] for c in cycles}
    for i, c1 in enumerate(long):
        for c2 in long[i + 1 :]:
            if cycles_interleave(c1, c2):
                linked[c1.id].append(c2.id)
                linked[c2.id].append(c1.id)
    groups: list[list[int]] = []
    grouped: set[int] = set()
    for cyc in cycles:
        if cyc.id in grouped:
            continue
        group = [cyc.id]
        grouped.add(cyc.id)
        for x in group:
            for y in linked[x]:
                if y not in grouped:
                    grouped.add(y)
                    group.append(y)
        groups.append(group)
    groups.sort(key=lambda ids: min(cycles[i].a_positions[0] for i in ids))
    comps: list[Component] = []
    for comp_id, ids in enumerate(groups):
        members = [cycles[i] for i in ids]
        tags = set()
        if any(c.has_a_run for c in members):
            tags.add(TAG_A)
        if any(c.has_b_run for c in members):
            tags.add(TAG_B)
        both = sum(1 for c in members if c.has_both_runs)
        effective_good = any(c.good or c.runs >= 4 for c in members) or both >= 2
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


def components_of(rows: list[Component]) -> Components:
    """The columns of a list of ``Component`` rows, row ``i`` holding id ``i``."""
    of_cycle = [0] * sum(len(c.cycles) for c in rows)
    for c in rows:
        for cyc in c.cycles:
            of_cycle[cyc] = c.id
    bits = {
        frozenset(): 0,
        frozenset({TAG_A}): TAG_A_BIT,
        frozenset({TAG_B}): TAG_B_BIT,
        frozenset({TAG_A, TAG_B}): TAG_A_BIT | TAG_B_BIT,
    }
    return Components(
        [c.kind for c in rows],
        [bits[c.tags] for c in rows],
        [c.span[0] for c in rows],
        [c.span[1] for c in rows],
        [c.both_run_cycles for c in rows],
        of_cycle,
    )


def chained_tree(
    rows: list[Component], chains: list[list[int]], chain_parent: list[int | None], root: int = 0
) -> ChainedTree:
    """A chained tree over components given as rows."""
    return ChainedTree(components_of(rows), chains, chain_parent, root)


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


def steiner_nodes(adj: dict, targets: set) -> set:
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
    carriers = [c.id for c in tree.components if c.both_run_cycles >= 1]
    total = sum(c.both_run_cycles for c in tree.components)
    if total < 2:
        return tree
    targets = {("round", c) for c in carriers}
    keep = steiner_nodes(_chained_adjacency(tree), targets)
    new_components = list(tree.components)
    for kind, ident in keep:
        if kind == "round" and new_components[ident].kind == BAD:
            new_components[ident] = new_components[ident]._replace(kind=GOOD)
    return chained_tree(new_components, tree.chains, tree.chain_parent, tree.root_chain)


def contract(tree: TaggedTree) -> tuple[TaggedTree, dict[int, frozenset[int]]]:
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


def compose_support(
    outer: dict[int, frozenset[int]], inner: dict[int, frozenset[int]]
) -> dict[int, frozenset[int]]:
    """Chain two support maps (outer: new -> mid, inner: mid -> old)."""
    return {n: frozenset().union(*(inner[m] for m in mids)) for n, mids in outer.items()}


def lift_paths(
    parent: TaggedTree, support: dict[int, frozenset[int]], paths: list[CoverPath]
) -> list[CoverPath]:
    """Re-express a reduced-tree cover in the parent tree, each reduced
    node standing for the parent nodes its support holds: a short path
    cuts the first bad one, an indel-saving path joins the first two that
    share a tag, and another path joins the first bad ones, or the first
    ones when none is bad."""
    out: list[CoverPath] = []
    for p in paths:
        su, sv = sorted(support[p.u]), sorted(support[p.v])
        if p.u == p.v:
            b = next(n for n in su if parent.is_bad(n))
            out.append(CoverPath(b, b, 1))
        elif p.cost == 1:
            pick = next(
                (x, y)
                for tag in (TAG_A, TAG_B)
                for x in su
                if tag in parent.tags(x)
                for y in sv
                if tag in parent.tags(y)
            )
            out.append(CoverPath(*pick, 1))
        else:
            lu = next((n for n in su if parent.is_bad(n)), su[0])
            lv = next((n for n in sv if parent.is_bad(n)), sv[0])
            out.append(CoverPath(lu, lv, 2))
    return out


def flower_contract(tree: ChainedTree) -> TaggedTree:
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
    return contract(raw)[0]


def path(tree: TaggedTree, u: int, v: int) -> list[int]:
    """Unique tree path from u to v, inclusive, by breadth-first search."""
    if u == v:
        return [u]
    parent = {u: None}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in tree.adj[x]:
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


def induced_subtree(tree: TaggedTree, nodes: list[int]) -> frozenset[int]:
    """Smallest connected subtree containing the given nodes, by pruning
    every other leaf until none is left to prune."""
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


def leaves(tree: TaggedTree) -> list[int]:
    if len(tree.nodes) == 1:
        return list(tree.nodes)
    return sorted(u for u in tree.nodes if len(tree.adj[u]) <= 1)
