"""Frozen reference for the frame differential tests: the set- and dict-based
frame checks that the bitmask frame layer replaced, kept verbatim in
behaviour.

SetFrame is the set view of a frame: the set-valued derivation of F, the
leaves, Abar, the hubs, Y and Y~ that Frame used before it derived masks,
one cached_property body each, frozen as they were. set_view(fr) builds it
from a Frame's four fields, and every reference_* function reads a frame
through it. reference_validate_frame, reference_check_frame_claims,
reference_find_extension, reference_leaf_paths and
reference_extract_frame_paths otherwise take the same arguments as
apaths.frame.validate_frame, check_frame_claims, find_extension, leaf_paths
and extract_frame_paths, so a test can run both on one input and compare
what they return or raise. reference_regions recomputes what Frame.y and
Frame.y_tilde derive, and reference_check_extension_path raises as
extend_frame does on a path that fails _extension_violations.
reference_find_extension is the neighbour-list BFS that walks back along the
first parent to discover each vertex. reference_mask_find_extension is the
mask search that find_extension ran before it started from the frame's rim:
one mask_layers from all of Abar outside Y~, walked back from the least
frame vertex it reaches; it reads a Frame's own masks. Every ball here is a dict BFS,
on an induced subgraph built per call. reference_extract_frame_paths is the
hub-tree extraction: it copies F onto dense ids, checks the copy against its
own properties H1..H7 instead of the frame axioms, pairs and re-routes the
tree paths there, and maps them back. reference_leaf_paths pairs the leaves
on a dict-of-lists tree with its own BFS and live-leaf counters. Only the
frame module's data types are shared with the package. Do not optimise any
of it: its whole value is that it does not change.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

from apaths.frame import Frame, FrameInvariantError, Violation
from apaths.graph import (
    Graph,
    Path,
    VertexSet,
    anti_complete,
    ball,
    induced_subgraph,
    is_induced_path,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    to_mask,
    walk_back,
)


@dataclass(frozen=True)
class SetFrame:
    """A frame's derived sets as frozensets, from the same four fields as
    Frame."""

    host: Graph
    terminals: VertexSet
    tree_edges: frozenset[tuple[int, int]]
    ell: int

    @property
    def ell_hat(self) -> int:
        return max(self.ell, 3)

    @property
    def leaf_count(self) -> int:
        return len(self.a_f)

    @cached_property
    def f_vertices(self) -> VertexSet:
        """F = V(T)."""
        return frozenset(chain.from_iterable(self.tree_edges))

    @cached_property
    def a_f(self) -> VertexSet:
        """The leaves: the terminals in F."""
        return self.terminals & self.f_vertices

    @cached_property
    def a_bar(self) -> VertexSet:
        """The terminals not yet in F."""
        return self.terminals - self.f_vertices

    @cached_property
    def hubs(self) -> VertexSet:
        """X: the degree-3 vertices of T."""
        degree = Counter(chain.from_iterable(self.tree_edges))
        return frozenset(v for v, d in degree.items() if d == 3)

    @cached_property
    def y(self) -> VertexSet:
        """Y: the vertices of F within ell_hat of leaves and hubs, measured in F."""
        centers = to_mask(self.a_f | self.hubs)
        ball = mask_ball(self.host.neighbor_masks(), centers, to_mask(self.f_vertices), self.ell_hat)
        return frozenset(mask_members(ball))

    @cached_property
    def y_tilde(self) -> VertexSet:
        """Y~: N(Y) outside F."""
        near = mask_neighbors(self.host.neighbor_masks(), to_mask(self.y))
        return frozenset(mask_members(near & ~to_mask(self.f_vertices)))


def set_view(fr: Frame) -> SetFrame:
    """The set view of fr: its four fields, with the sets derived as sets."""
    return SetFrame(fr.host, fr.terminals, fr.tree_edges, fr.ell)


def _tree_adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nb in adj.values():
        nb.sort()
    return adj


def _bfs_levels(
    adj: dict[int, list[int]] | Graph, sources: Iterable[int], cutoff: int | None = None
) -> dict[int, int]:
    """Distances from a source set, over a dict adjacency or a Graph."""
    neighbors = adj.neighbors if isinstance(adj, Graph) else (
        lambda v: adj.get(v, ())
    )
    level = {s: 0 for s in sources}
    queue = deque(sorted(level))
    while queue:
        v = queue.popleft()
        d = level[v] + 1
        if cutoff is not None and d > cutoff:
            continue
        for w in neighbors(v):
            if w not in level:
                level[w] = d
                queue.append(w)
    return level


def _check_spanning_subcubic_tree(
    vertices: VertexSet, edges: frozenset[tuple[int, int]], axiom: str
) -> list[Violation]:
    viol = []
    for u, v in edges:
        if u not in vertices or v not in vertices:
            viol.append(Violation(axiom, (u, v), "tree edge leaves the vertex set"))
            return viol
    adj = _tree_adjacency(edges)
    for v, nb in adj.items():
        if len(nb) > 3:
            viol.append(Violation(axiom, v, f"tree degree {len(nb)} exceeds 3"))
    if len(edges) != max(len(vertices) - 1, 0):
        viol.append(
            Violation(axiom, len(edges), f"{len(edges)} edges cannot span {len(vertices)} vertices")
        )
    elif vertices:
        start = min(vertices)
        reached = _bfs_levels(adj, [start])
        missing = vertices - reached.keys()
        if missing:
            viol.append(Violation(axiom, min(missing), "tree does not reach this vertex"))
    return viol


def _degree_set(vertices: VertexSet, adj_source, degree: int) -> VertexSet:
    if isinstance(adj_source, Graph):
        return frozenset(v for v in vertices if adj_source.degree(v) == degree)
    return frozenset(v for v in vertices if len(adj_source.get(v, ())) == degree)


def reference_validate_frame(fr: SetFrame) -> list[Violation]:
    """Check axioms A1..A11; an empty list means the frame is valid.

    The ambient terminal set is reconstructed as a_f | a_bar, which is
    faithful because A3/A7 make those two fields a partition of it.
    """
    g = fr.host
    viol: list[Violation] = []

    bad = [v for v in fr.f_vertices if not (0 <= v < g.n)]
    if bad:
        viol.append(Violation("A1", bad[0], "frame vertex outside the host graph"))
        return viol

    f_graph, _ = induced_subgraph(g, fr.f_vertices)

    # A2: spanning subcubic tree, contained in F
    for u, v in fr.tree_edges:
        if u in fr.f_vertices and v in fr.f_vertices and not g.has_edge(u, v):
            viol.append(Violation("A2", (u, v), "tree edge is not an edge of the host"))
    viol.extend(_check_spanning_subcubic_tree(fr.f_vertices, fr.tree_edges, "A2"))
    if any(x.axiom == "A2" for x in viol):
        return viol
    tree_adj = _tree_adjacency(fr.tree_edges)

    terminals = fr.a_f | fr.a_bar

    # A3: a_f = terminals inside F = degree-1 vertices of T and of F
    if fr.a_f != terminals & fr.f_vertices:
        off = fr.a_f ^ (terminals & fr.f_vertices)
        viol.append(Violation("A3", min(off), "a_f is not the terminal set of F"))
    for name, deg1 in (
        ("tree", _degree_set(fr.f_vertices, tree_adj, 1)),
        ("frame", frozenset(v for v in fr.f_vertices
                            if len(g.neighbor_set(v) & fr.f_vertices) == 1)),
    ):
        if deg1 != fr.a_f:
            off = deg1 ^ fr.a_f
            viol.append(Violation("A3", min(off), f"a_f differs from {name} degree-1 vertices"))

    # A4: hubs = degree-3 tree vertices
    deg3 = _degree_set(fr.f_vertices, tree_adj, 3)
    if deg3 != fr.hubs:
        off = deg3 ^ fr.hubs
        viol.append(Violation("A4", min(off), "hubs differ from tree degree-3 vertices"))

    # A5: y = vertices of F within ell_hat of hubs and leaves, measured in F
    expected_y = frozenset(
        _bfs_levels(f_graph, (fr.hubs | fr.a_f) & fr.f_vertices, cutoff=fr.ell_hat)
    )
    if expected_y != fr.y:
        off = expected_y ^ fr.y
        viol.append(Violation("A5", min(off), "y is not the ell_hat ball in F around hubs and leaves"))

    # A6: y_tilde = N_G[y] outside F
    expected_yt = ball(g, fr.y, 1) - fr.f_vertices
    if expected_yt != fr.y_tilde:
        off = expected_yt ^ fr.y_tilde
        viol.append(Violation("A6", min(off), "y_tilde is not N[y] minus the frame"))

    # A7: frame leaves and unprocessed terminals partition the terminal set
    if fr.a_f & fr.a_bar:
        viol.append(Violation("A7", min(fr.a_f & fr.a_bar), "a_f and a_bar overlap"))
    if fr.a_bar & fr.f_vertices:
        viol.append(Violation("A7", min(fr.a_bar & fr.f_vertices), "a_bar vertex inside the frame"))

    # A8: every non-tree edge of F sits within tree-distance 2 of a common hub
    tree_dist_from_hub = {x: _bfs_levels(tree_adj, [x], cutoff=2) for x in fr.hubs}
    for u in sorted(fr.f_vertices):
        for v in g.neighbors(u):
            if v <= u or v not in fr.f_vertices:
                continue
            e = (u, v)
            if e in fr.tree_edges:
                continue
            if not any(
                u in lv and v in lv for lv in tree_dist_from_hub.values()
            ):
                viol.append(Violation("A8", e, "non-tree frame edge far from every hub"))

    # A9: outside vertices see the frame only locally (tree-distance <= 2)
    pair_levels: dict[int, dict[int, int]] = {}
    for v in range(g.n):
        if v in fr.f_vertices or v in fr.y_tilde:
            continue
        fn = sorted(g.neighbor_set(v) & fr.f_vertices)
        for i in range(len(fn)):
            if fn[i] not in pair_levels:
                pair_levels[fn[i]] = _bfs_levels(tree_adj, [fn[i]], cutoff=2)
            lv = pair_levels[fn[i]]
            for j in range(i + 1, len(fn)):
                if fn[j] not in lv:
                    viol.append(
                        Violation("A9", (v, fn[i], fn[j]),
                                  "outside vertex with tree-distant frame neighbours")
                    )

    # A10/A11: leaves pairwise far (>= ell), hubs pairwise far (>= 3), in F.
    # Centers outside F are already A3/A4 violations; skip them here.
    def f_dist_check(centers: VertexSet, lower: int, axiom: str, what: str):
        centers_sorted = sorted(centers & fr.f_vertices)
        for i, c in enumerate(centers_sorted):
            lv = _bfs_levels(f_graph, [c], cutoff=lower - 1)
            for other in centers_sorted[i + 1:]:
                d = lv.get(other)
                if d is not None and d < lower:
                    viol.append(Violation(axiom, (c, other), f"{what} at distance {d} < {lower}"))

    f_dist_check(fr.a_f, fr.ell, "A10", "frame leaves")
    f_dist_check(fr.hubs, 3, "A11", "hubs")

    return viol


def reference_check_frame_claims(fr: SetFrame) -> list[Violation]:
    """Size bounds every valid frame must satisfy, checked independently:
    |hubs| = p - 2, |y| <= (4*ell_hat + 14)*p, and y_tilde within distance
    ell_hat + 1 of terminals and hubs."""
    viol = []
    p = fr.leaf_count
    if len(fr.hubs) != p - 2:
        viol.append(Violation("SizeX", len(fr.hubs), f"|hubs| != p - 2 = {p - 2}"))
    bound = (4 * fr.ell_hat + 14) * p
    if len(fr.y) > bound:
        viol.append(Violation("SizeY", len(fr.y), f"|y| = {len(fr.y)} > {bound}"))
    reach = ball(fr.host, fr.terminals | fr.hubs, fr.ell_hat + 1)
    stray = fr.y_tilde - (ball(fr.host, fr.y, 1) & reach)
    if stray:
        viol.append(Violation("Ytilde", min(stray), "y_tilde vertex outside its two covering balls"))
    return viol


def reference_regions(
    g: Graph, f_vertices: VertexSet, centers: VertexSet, ell_hat: int
) -> tuple[VertexSet, VertexSet]:
    """Recompute (y, y_tilde) from scratch for the given frame vertex set."""
    f_graph, _ = induced_subgraph(g, f_vertices)
    y = frozenset(_bfs_levels(f_graph, centers, cutoff=ell_hat))
    y_tilde = ball(g, y, 1) - f_vertices
    return y, y_tilde


def reference_check_extension_path(g: Graph, fr: SetFrame, p: Path) -> None:
    """Assert the seven properties every shortest extension path must have.

    BFS-minimality implies all of them; checking explicitly guards the BFS
    tie-breaking choices. Failures raise, naming the property.
    """
    ps = frozenset(p)
    checks: list[tuple[str, bool, object]] = [
        ("P1", ps & fr.a_bar == {p[0]}, p[0]),
        ("P2", ps & fr.f_vertices == {p[-1]}, p[-1]),
        ("P3", is_induced_path(g, p), p),
        ("P4", anti_complete(g, p[:-2], fr.f_vertices), p),
        ("P5", not (ps & (fr.y | fr.y_tilde)), ps & (fr.y | fr.y_tilde)),
    ]
    pos = {v: i for i, v in enumerate(p)}
    tail = frozenset(p[-3:])
    p6 = p7 = True
    witness6: object = None
    witness7: object = None
    for v in range(g.n):
        if v in fr.f_vertices or v in fr.y_tilde or v in ps:
            continue
        nb = g.neighbor_set(v)
        on_p = sorted(nb & ps, key=pos.__getitem__)
        if len(on_p) >= 2 and pos[on_p[-1]] - pos[on_p[0]] > 2:
            p6, witness6 = False, (v, on_p[0], on_p[-1])
        if (nb & fr.f_vertices) and (nb & (ps - tail)):
            p7, witness7 = False, v
    checks.append(("P6", p6, witness6))
    checks.append(("P7", p7, witness7))
    checks.append(("P-hub", p[-1] not in fr.hubs | fr.a_f, p[-1]))
    failed = [
        Violation(name, witness, "extension path property failed")
        for name, ok, witness in checks
        if not ok
    ]
    if failed:
        raise FrameInvariantError("find_extension produced a bad path", failed)


def reference_find_extension(g: Graph, a: Iterable[int], fr: SetFrame) -> Path | None:
    """Shortest path from an unprocessed terminal to the frame, avoiding
    y_tilde: a BFS over sorted neighbour lists from every source at once,
    ending at the least frame vertex of the first layer that reaches F and
    walking back along the first parent to discover each vertex."""
    sources = sorted(fr.a_bar - fr.y_tilde)
    if not sources:
        return None
    parent: dict[int, int] = {s: -1 for s in sources}
    frontier = sources
    while frontier:
        nxt: list[int] = []
        hits: list[int] = []
        for v in frontier:
            for w in g.neighbors(v):
                if w in parent or w in fr.y_tilde:
                    continue
                parent[w] = v
                if w in fr.f_vertices:
                    hits.append(w)
                else:
                    nxt.append(w)
        if hits:
            path = [min(hits)]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            path.reverse()
            result = tuple(path)
            reference_check_extension_path(g, fr, result)
            return result
        frontier = nxt
    return None


def reference_mask_find_extension(fr: Frame) -> Path | None:
    """find_extension on a checked frame, as one BFS from every terminal of
    Abar outside Y~, within the complement of Y~, up to the first layer
    that meets F; the path is walked back from the least frame vertex in
    that layer to the least neighbour one layer closer at each step."""
    adj = fr.host.neighbor_masks()
    outside = ~fr.y_tilde
    layers = mask_layers(adj, fr.a_bar & outside, outside, fr.f)
    hits = layers[-1] & fr.f
    if not hits:
        return None
    return walk_back(adj, layers, (hits & -hits).bit_length() - 1)


def _validate_hub_tree(
    g: Graph, tree_edges: frozenset[tuple[int, int]], leaves: VertexSet, hubs: VertexSet, ell: int
) -> list[Violation]:
    """Hub-tree properties H1..H7 of a standalone graph g with a spanning
    tree; an empty list means valid."""
    viol: list[Violation] = []
    vertices = frozenset(range(g.n))
    for u, v in tree_edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            viol.append(Violation("H1", (u, v), "tree edge outside the graph"))
            return viol
        if not g.has_edge(u, v):
            viol.append(Violation("H2", (u, v), "tree edge is not a graph edge"))
    viol.extend(_check_spanning_subcubic_tree(vertices, tree_edges, "H2"))
    if any(x.axiom == "H2" for x in viol):
        return viol
    tree_adj = _tree_adjacency(tree_edges)

    tree_deg1 = _degree_set(vertices, tree_adj, 1)
    graph_deg1 = _degree_set(vertices, g, 1)
    if leaves != tree_deg1 or leaves != graph_deg1:
        off = (leaves ^ tree_deg1) | (leaves ^ graph_deg1)
        viol.append(Violation("H3", min(off), "leaves differ from the degree-1 vertices"))
    deg3 = _degree_set(vertices, tree_adj, 3)
    if hubs != deg3:
        viol.append(Violation("H4", min(hubs ^ deg3), "hubs differ from tree degree-3 vertices"))

    def pair_check(centers: VertexSet, lower: int, axiom: str):
        inside = sorted(centers & vertices)
        for c in inside:
            near = _bfs_levels(g, [c], cutoff=lower - 1)
            for other in inside:
                if other > c and other in near:
                    viol.append(Violation(axiom, (c, other), f"distance below {lower}"))

    pair_check(leaves, ell, "H5")
    pair_check(hubs, 3, "H6")

    hub_balls = [_bfs_levels(tree_adj, [x], cutoff=2) for x in hubs & vertices]
    for u, v in g.edges():
        if (u, v) in tree_edges:
            continue
        if not any(u in b and v in b for b in hub_balls):
            viol.append(Violation("H7", (u, v), "non-tree edge far from every hub"))
    return viol


def reference_leaf_paths(
    tree_edges: Iterable[tuple[int, int]], leaves: Iterable[int]
) -> list[Path]:
    """floor(p/2) pairwise vertex-disjoint leaf-to-leaf paths of a subcubic tree,
    on a dict-of-lists tree with its own BFS and live-leaf counters.

    Strategy: root at the smallest leaf, then repeatedly emit the path joining
    the two leaves under the deepest vertex that still has live leaves in two
    child subtrees (ties to the smallest id). Such a path never carries another
    live leaf and never disconnects the survivors, so p//2 rounds always
    succeed; the terminal round pairs the root with the last live leaf.
    """
    edges = list(tree_edges)
    vertices = sorted({v for e in edges for v in e})
    adj = _tree_adjacency(edges)
    for v in vertices:
        if len(adj[v]) > 3:
            raise ValueError(f"vertex {v} has degree {len(adj[v])}: tree is not subcubic")
    leaf_set = frozenset(leaves)
    if not vertices:
        if leaf_set:
            raise ValueError("no tree edges but leaves were named")
        return []
    if len(edges) != len(vertices) - 1:
        raise ValueError("edge count does not match a tree")
    expected = frozenset(v for v in vertices if len(adj[v]) == 1)
    if leaf_set != expected:
        raise ValueError(f"leaves {sorted(leaf_set)} are not the degree-1 vertices {sorted(expected)}")
    p = len(leaf_set)
    if p < 2:
        return []
    root = min(leaf_set)
    parent: dict[int, int | None] = {root: None}
    depth = {root: 0}
    children: dict[int, list[int]] = {v: [] for v in vertices}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                children[v].append(w)
                order.append(w)
    if len(order) != len(vertices):
        raise ValueError("edges do not form a connected tree")

    alive_below = {v: 0 for v in vertices}
    for v in reversed(order):
        alive_below[v] = (v in leaf_set) + sum(alive_below[c] for c in children[v])
    live_children = {
        v: sum(1 for c in children[v] if alive_below[c] > 0) for v in vertices
    }
    candidates = sorted(
        (v for v in vertices if live_children[v] >= 2),
        key=lambda v: (-depth[v], v),
    )
    alive = set(leaf_set)

    def descend(c: int) -> list[int]:
        run = [c]
        while not (run[-1] in alive):
            nxt = [w for w in children[run[-1]] if alive_below[w] > 0]
            run.append(nxt[0])
        return run

    def consume(leaf: int) -> None:
        alive.discard(leaf)
        w: int | None = leaf
        while w is not None:
            alive_below[w] -= 1
            up = parent[w]
            if alive_below[w] == 0 and up is not None:
                live_children[up] -= 1
            w = up

    out: list[Path] = []
    idx = 0
    for _ in range(p // 2):
        x = None
        while idx < len(candidates):
            v = candidates[idx]
            if live_children[v] >= 2:
                x = v
                break
            idx += 1
        if x is not None:
            live = [c for c in children[x] if alive_below[c] > 0]
            arm_a = descend(live[0])
            arm_b = descend(live[1])
            path = list(reversed(arm_a)) + [x] + arm_b
        else:
            rest = alive - {root}
            if root not in alive or len(rest) != 1:
                raise FrameInvariantError("leaf pairing invariant broken")
            other = rest.pop()
            climb = [other]
            while climb[-1] != root:
                climb.append(parent[climb[-1]])  # type: ignore[arg-type]
            path = list(reversed(climb))
        if path[0] > path[-1]:
            path.reverse()
        out.append(tuple(path))
        consume(path[0])
        consume(path[-1])
    return out


def reference_extract_frame_paths(fr: SetFrame) -> list[Path]:
    """floor(p/2) pairwise anti-complete induced leaf-to-leaf paths of length
    >= ell, in host ids, extracted from the hub tree of fr.

    F is relabelled to dense ids in sorted order (a monotone map), the copy
    is validated with H1..H7, each reference_leaf_paths tree path is re-routed
    to a shortest path inside the subgraph induced on its own vertices, every
    promised property is checked, and the sorted result is mapped back.
    """
    new_to_old = tuple(sorted(fr.f_vertices))
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    g = Graph(len(new_to_old), [
        (old_to_new[u], old_to_new[v])
        for u in new_to_old
        for v in fr.host.neighbors(u)
        if u < v and v in old_to_new
    ])
    tree_edges = frozenset(
        (min(old_to_new[u], old_to_new[v]), max(old_to_new[u], old_to_new[v]))
        for u, v in fr.tree_edges
    )
    leaves = frozenset(old_to_new[v] for v in fr.a_f)
    hubs = frozenset(old_to_new[v] for v in fr.hubs)
    violations = _validate_hub_tree(g, tree_edges, leaves, hubs, fr.ell)
    if violations:
        raise FrameInvariantError("hub tree failed validation", violations)

    out: list[Path] = []
    for tree_path in reference_leaf_paths(tree_edges, leaves):
        allowed = frozenset(tree_path)
        parent: dict[int, int] = {tree_path[0]: -1}
        queue = deque([tree_path[0]])
        target = tree_path[-1]
        while queue:
            v = queue.popleft()
            if v == target:
                break
            for w in g.neighbors(v):
                if w in allowed and w not in parent:
                    parent[w] = v
                    queue.append(w)
        rerouted = [target]
        while parent[rerouted[-1]] != -1:
            rerouted.append(parent[rerouted[-1]])
        rerouted.reverse()
        path = tuple(rerouted)
        if path[0] > path[-1]:
            path = path[::-1]
        out.append(path)

    failed = []
    for i, path in enumerate(out):
        if not is_induced_path(g, path):
            failed.append(Violation("induced", path, "extracted path has a chord"))
        if len(path) - 1 < fr.ell:
            failed.append(Violation("length", path, f"length {len(path) - 1} < {fr.ell}"))
        if not (path[0] in leaves and path[-1] in leaves):
            failed.append(Violation("endpoints", path, "endpoint is not a leaf"))
        for j in range(i + 1, len(out)):
            if not anti_complete(g, path, out[j]):
                failed.append(Violation("anti-complete", (i, j), "extracted paths touch"))
    if failed:
        raise FrameInvariantError("hub tree path extraction broke its contract", failed)
    return [tuple(new_to_old[v] for v in path) for path in sorted(out)]
