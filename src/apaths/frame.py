"""Frames: induced, almost-tree scaffolds from which long anti-complete
induced A-paths are extracted.

A frame is a tuple (F, T, A_F, X, Y, Y~, Abar) over a host graph: F an induced
subgraph, T a spanning subcubic tree of F whose degree-1 vertices are exactly
the terminals inside F, X its degree-3 hubs, Y the part of F close to leaves
and hubs, Y~ the outside neighbourhood of Y, and Abar the terminals not yet in
the frame. Eleven axioms (A1..A11 below) pin the structure down; they are
machine-checked after every construction step, never assumed.

Every step recomputes Y and Y~ and re-derives all eleven axioms from the
frame's fields alone; nothing is carried over from the previous step. To keep
that affordable, the checks work on int bitmasks: the host's cached
neighbor_masks, F as one mask, and the tree as one mask per vertex. A ball
in F walks adj[v] & F, so no induced subgraph is built, and the checks on
outside vertices (A9, P6, P7) visit only the neighbours of F or of the new
path, never the whole host.

The construction is greedy: start from a shortest long induced A-path, then
repeatedly attach a shortest path from an unprocessed terminal to the frame
(avoiding Y~), each attachment adding one leaf and one hub. The loop stops
exactly when Y~ separates the remaining terminals from F, which is what the
solver's recursion needs. The packing paths come straight off T: its leaves
are paired in the host's own ids, after one more full validation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    Path,
    VertexSet,
    anti_complete,
    check_vertex_set,
    is_induced_path,
    mask_ball,
    mask_members,
    mask_neighbors,
    to_mask,
)
from .search import DEFAULT_BUDGET, _Budget, shortest_long_induced_apath

# Successful validations, counted so the acceptance suite can confirm the
# axioms were actually exercised during a corpus run. "hub_tree" counts the
# frames that paths were extracted from.
validation_stats = {"init_frame": 0, "extend_frame": 0, "hub_tree": 0}


class FrameInvariantError(AssertionError):
    """A frame or extension path failed its invariants: upstream bug or
    breached precondition, never a recoverable condition."""

    def __init__(self, message: str, violations: list["Violation"] | None = None):
        details = "" if not violations else "\n" + "\n".join(map(str, violations))
        super().__init__(message + details)
        self.violations = violations or []


@dataclass(frozen=True)
class Violation:
    """One failed axiom, with a witness naming the offending vertex/edge/pair."""

    axiom: str
    witness: object
    message: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message} (witness: {self.witness!r})"


@dataclass(frozen=True)
class Frame:
    host: Graph
    f_vertices: VertexSet
    tree_edges: frozenset[tuple[int, int]]
    a_f: VertexSet
    hubs: VertexSet
    y: VertexSet
    y_tilde: VertexSet
    a_bar: VertexSet
    ell: int

    @property
    def ell_hat(self) -> int:
        return max(self.ell, 3)

    @property
    def leaf_count(self) -> int:
        return len(self.a_f)

    @property
    def terminals(self) -> VertexSet:
        """The full terminal set of the instance: frame leaves plus the rest."""
        return self.a_f | self.a_bar


def _path_edges(p: Path) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in zip(p, p[1:]))


def _tree_adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nb in adj.values():
        nb.sort()
    return adj


def _check_spanning_subcubic_tree(
    n: int, vertices: VertexSet, edges: frozenset[tuple[int, int]]
) -> tuple[list[Violation], list[int]]:
    """A2 violations of "edges form a spanning subcubic tree on vertices",
    plus the tree's adjacency as one bitmask per vertex 0..n-1 (vertices are
    ids below n)."""
    viol = []
    tree = [0] * n
    for u, v in edges:
        if u not in vertices or v not in vertices:
            viol.append(Violation("A2", (u, v), "tree edge leaves the vertex set"))
            return viol, tree
        tree[u] |= 1 << v
        tree[v] |= 1 << u
    for v in vertices:
        degree = tree[v].bit_count()
        if degree > 3:
            viol.append(Violation("A2", v, f"tree degree {degree} exceeds 3"))
    if len(edges) != max(len(vertices) - 1, 0):
        viol.append(
            Violation("A2", len(edges), f"{len(edges)} edges cannot span {len(vertices)} vertices")
        )
    elif vertices:
        reached = mask_ball(tree, 1 << min(vertices))
        if reached.bit_count() != len(vertices):
            missing = min(v for v in vertices if not reached >> v & 1)
            viol.append(Violation("A2", missing, "tree does not reach this vertex"))
    return viol, tree


def _least_difference(n: int, found: int, claimed: VertexSet) -> int | None:
    """min(found ^ claimed), or None when they are equal, for a bitmask found
    of ids below n. claimed is a frame field and may hold any int, so its
    mask is built only once its ids are known to be in range, and the set
    form of found only on a mismatch."""
    if not claimed or (min(claimed) >= 0 and max(claimed) < n):
        if found == to_mask(claimed):
            return None
    return min(frozenset(mask_members(found)) ^ claimed)


def validate_frame(fr: Frame) -> list[Violation]:
    """Check axioms A1..A11; an empty list means the frame is valid.

    The ambient terminal set is reconstructed as a_f | a_bar, which is
    faithful because A3/A7 make those two fields a partition of it. Every
    axiom is derived from the frame's fields on each call, with vertex sets
    as bitmasks: F-restricted balls walk adj[v] & F, and only the neighbours
    of F and of the tree are visited, never the whole host.
    """
    g = fr.host
    viol: list[Violation] = []

    bad = [v for v in fr.f_vertices if not (0 <= v < g.n)]
    if bad:
        viol.append(Violation("A1", bad[0], "frame vertex outside the host graph"))
        return viol

    # A2: spanning subcubic tree, contained in F
    for u, v in fr.tree_edges:
        if u in fr.f_vertices and v in fr.f_vertices and not g.has_edge(u, v):
            viol.append(Violation("A2", (u, v), "tree edge is not an edge of the host"))
    spanning, tree = _check_spanning_subcubic_tree(g.n, fr.f_vertices, fr.tree_edges)
    viol.extend(spanning)
    if any(x.axiom == "A2" for x in viol):
        return viol

    # One pass over F: degree classes for A3/A4, the ends of non-tree F edges
    # for A8 (T is inside F's edges by A2), and the vertices with two or more
    # F neighbours for A9.
    adj = g.neighbor_masks()
    f = to_mask(fr.f_vertices)
    tree_deg1 = tree_deg3 = frame_deg1 = off_tree = seen_once = seen_twice = 0
    for v in fr.f_vertices:
        bit = 1 << v
        t = tree[v]
        tree_degree = t.bit_count()
        if tree_degree == 1:
            tree_deg1 |= bit
        elif tree_degree == 3:
            tree_deg3 |= bit
        nb = adj[v]
        in_f = nb & f
        if in_f.bit_count() == 1:
            frame_deg1 |= bit
        if in_f != t:
            off_tree |= bit
        seen_twice |= seen_once & nb
        seen_once |= nb

    terminals = fr.a_f | fr.a_bar

    # A3: a_f = terminals inside F = degree-1 vertices of T and of F
    if fr.a_f != terminals & fr.f_vertices:
        off = fr.a_f ^ (terminals & fr.f_vertices)
        viol.append(Violation("A3", min(off), "a_f is not the terminal set of F"))
    for name, deg1 in (("tree", tree_deg1), ("frame", frame_deg1)):
        least = _least_difference(g.n, deg1, fr.a_f)
        if least is not None:
            viol.append(Violation("A3", least, f"a_f differs from {name} degree-1 vertices"))

    # A4: hubs = degree-3 tree vertices
    least = _least_difference(g.n, tree_deg3, fr.hubs)
    if least is not None:
        viol.append(Violation("A4", least, "hubs differ from tree degree-3 vertices"))

    # A5: y = vertices of F within ell_hat of hubs and leaves, measured in F
    centers = to_mask((fr.hubs | fr.a_f) & fr.f_vertices)
    least = _least_difference(g.n, mask_ball(adj, centers, f, fr.ell_hat), fr.y)
    if least is not None:
        viol.append(Violation("A5", least, "y is not the ell_hat ball in F around hubs and leaves"))

    # A6: y_tilde = N_G[y] outside F
    y = to_mask(check_vertex_set(g, fr.y))
    least = _least_difference(g.n, (y | mask_neighbors(adj, y)) & ~f, fr.y_tilde)
    if least is not None:
        viol.append(Violation("A6", least, "y_tilde is not N[y] minus the frame"))

    # A7: frame leaves and unprocessed terminals partition the terminal set
    if fr.a_f & fr.a_bar:
        viol.append(Violation("A7", min(fr.a_f & fr.a_bar), "a_f and a_bar overlap"))
    if fr.a_bar & fr.f_vertices:
        viol.append(Violation("A7", min(fr.a_bar & fr.f_vertices), "a_bar vertex inside the frame"))

    # A8: every non-tree edge of F sits within tree-distance 2 of a common hub.
    # A hub outside F has a ball of one vertex, which holds no edge.
    hub_balls = [mask_ball(tree, 1 << x, -1, 2) for x in fr.hubs & fr.f_vertices]
    for u in mask_members(off_tree):
        for v in mask_members(adj[u] & f & ~tree[u] & -(2 << u)):  # -(2 << u): the ids above u
            if not any(b >> u & 1 and b >> v & 1 for b in hub_balls):
                viol.append(Violation("A8", (u, v), "non-tree frame edge far from every hub"))

    # A9: outside vertices see the frame only locally (tree-distance <= 2).
    # Only a vertex with two or more frame neighbours can break it.
    near_in_tree: dict[int, int] = {}
    for v in mask_members(seen_twice & ~f):
        if v in fr.y_tilde:
            continue
        fn = mask_members(adj[v] & f)
        for i, first in enumerate(fn):
            if first not in near_in_tree:
                near_in_tree[first] = mask_ball(tree, 1 << first, -1, 2)
            near = near_in_tree[first]
            for second in fn[i + 1:]:
                if not near >> second & 1:
                    viol.append(
                        Violation("A9", (v, first, second),
                                  "outside vertex with tree-distant frame neighbours")
                    )

    # A10/A11: leaves pairwise far (>= ell), hubs pairwise far (>= 3), in F.
    # Centers outside F are already A3/A4 violations; skip them here.
    def f_dist_check(centers: VertexSet, lower: int, axiom: str, what: str):
        rest = to_mask(centers & fr.f_vertices)
        for c in mask_members(rest):
            rest ^= 1 << c
            for other in mask_members(mask_ball(adj, 1 << c, f, lower - 1) & rest):
                d = next(r for r in range(lower) if mask_ball(adj, 1 << c, f, r) >> other & 1)
                viol.append(Violation(axiom, (c, other), f"{what} at distance {d} < {lower}"))

    f_dist_check(fr.a_f, fr.ell, "A10", "frame leaves")
    f_dist_check(fr.hubs, 3, "A11", "hubs")

    return viol


def check_frame_claims(fr: Frame) -> list[Violation]:
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
    g = fr.host
    adj = g.neighbor_masks()
    reach = mask_ball(adj, to_mask(check_vertex_set(g, fr.terminals | fr.hubs)), -1, fr.ell_hat + 1)
    y = to_mask(check_vertex_set(g, fr.y))
    covered = (y | mask_neighbors(adj, y)) & reach
    stray = [v for v in fr.y_tilde if v < 0 or not covered >> v & 1]
    if stray:
        viol.append(Violation("Ytilde", min(stray), "y_tilde vertex outside its two covering balls"))
    return viol


def _assert_valid(fr: Frame, where: str) -> Frame:
    violations = validate_frame(fr)
    if not violations:
        violations = check_frame_claims(fr)
    if violations:
        raise FrameInvariantError(f"{where} produced an invalid frame", violations)
    validation_stats[where] += 1
    return fr


def _regions(
    g: Graph, f_vertices: VertexSet, centers: VertexSet, ell_hat: int
) -> tuple[VertexSet, VertexSet]:
    """Compute (y, y_tilde) from scratch for the given frame vertex set."""
    adj = g.neighbor_masks()
    f = to_mask(f_vertices)
    y = mask_ball(adj, to_mask(centers), f, ell_hat)
    y_tilde = mask_neighbors(adj, y) & ~f
    return frozenset(mask_members(y)), frozenset(mask_members(y_tilde))


def init_frame(
    g: Graph, a: Iterable[int], ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> Frame | None:
    """Frame around a shortest induced A-path of length >= ell, or None.

    Precondition (established upstream by eliminating intermediate lengths):
    every induced A-path of length >= ell has length >= 2*ell. Validation
    failure here signals that breach, not a recoverable state.
    """
    a_set = check_vertex_set(g, a)
    path = shortest_long_induced_apath(g, a_set, ell, budget)
    if path is None:
        return None
    f_vertices = frozenset(path)
    endpoints = frozenset((path[0], path[-1]))
    ell_hat = max(ell, 3)
    y, y_tilde = _regions(g, f_vertices, endpoints, ell_hat)
    fr = Frame(
        host=g,
        f_vertices=f_vertices,
        tree_edges=_path_edges(path),
        a_f=endpoints,
        hubs=frozenset(),
        y=y,
        y_tilde=y_tilde,
        a_bar=a_set - endpoints,
        ell=ell,
    )
    return _assert_valid(fr, "init_frame")


def _check_extension_path(g: Graph, fr: Frame, p: Path) -> None:
    """Assert the seven properties every shortest extension path must have.

    BFS-minimality implies all of them; checking explicitly guards the BFS
    tie-breaking choices. Failures raise, naming the property.
    """
    ps = frozenset(p)
    adj = g.neighbor_masks()
    f = to_mask(fr.f_vertices)
    on_p = to_mask(ps)
    head = to_mask(p[:-2])
    checks: list[tuple[str, bool, object]] = [
        ("P1", ps & fr.a_bar == {p[0]}, p[0]),
        ("P2", ps & fr.f_vertices == {p[-1]}, p[-1]),
        ("P3", is_induced_path(g, p), p),
        ("P4", not (head | mask_neighbors(adj, head)) & f, p),
    ]
    in_regions = frozenset(v for v in p if v in fr.y or v in fr.y_tilde)
    checks.append(("P5", not in_regions, in_regions))
    # Only a neighbour of p can see p twice (P6) or see p[:-3] at all (P7),
    # so the outside vertices are visited in N(p), in increasing order.
    pos = {v: i for i, v in enumerate(p)}
    body = to_mask(p[:-3])
    p6 = p7 = True
    witness6: object = None
    witness7: object = None
    for v in mask_members(mask_neighbors(adj, on_p) & ~on_p & ~f):
        if v in fr.y_tilde:
            continue
        nb = adj[v]
        seen = [pos[u] for u in mask_members(nb & on_p)]
        first, last = min(seen), max(seen)
        if last - first > 2:
            p6, witness6 = False, (v, p[first], p[last])
        if nb & f and nb & body:
            p7, witness7 = False, v
    checks.append(("P6", p6, witness6))
    checks.append(("P7", p7, witness7))
    checks.append(("P-hub", p[-1] not in fr.hubs and p[-1] not in fr.a_f, p[-1]))
    failed = [
        Violation(name, witness, "extension path property failed")
        for name, ok, witness in checks
        if not ok
    ]
    if failed:
        raise FrameInvariantError("find_extension produced a bad path", failed)


def find_extension(g: Graph, a: Iterable[int], fr: Frame) -> Path | None:
    """Shortest path from an unprocessed terminal to the frame, avoiding y_tilde.

    Returns None exactly when y_tilde separates a_bar from the frame, which is
    the loop's termination condition. The returned path starts at an a_bar
    vertex, ends at its first frame contact, and satisfies P1..P7 (asserted).
    """
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
            _check_extension_path(g, fr, result)
            return result
        frontier = nxt
    return None


def extend_frame(g: Graph, a: Iterable[int], fr: Frame, p: Path) -> Frame:
    """The frame grown by one extension path: one new leaf, one new hub.

    The attachment vertex p[-1] had tree-degree 2 and becomes a hub of
    degree 3. y and y_tilde are recomputed from scratch, as bitmask balls in
    the new F and its host (they are global definitions, and no local update
    from the previous step's regions is proven). The result is re-validated
    in full.
    """
    if g != fr.host:
        raise FrameInvariantError("extension must happen in the frame's host graph")
    if check_vertex_set(g, a) != fr.terminals:
        raise FrameInvariantError("terminal set changed under the frame")
    v0, vm = p[0], p[-1]
    f_vertices = fr.f_vertices | frozenset(p)
    a_f = fr.a_f | {v0}
    hubs = fr.hubs | {vm}
    y, y_tilde = _regions(g, f_vertices, a_f | hubs, fr.ell_hat)
    new = Frame(
        host=g,
        f_vertices=f_vertices,
        tree_edges=fr.tree_edges | _path_edges(p),
        a_f=a_f,
        hubs=hubs,
        y=y,
        y_tilde=y_tilde,
        a_bar=fr.a_bar - {v0},
        ell=fr.ell,
    )
    _assert_valid(new, "extend_frame")
    if new.leaf_count != fr.leaf_count + 1:
        raise FrameInvariantError(f"extension left {new.leaf_count} leaves, not {fr.leaf_count + 1}")
    return new


def build_maximal_frame(
    g: Graph, a: Iterable[int], ell: int, budget: int | _Budget = DEFAULT_BUDGET, observer=None
) -> Frame | None:
    """Greedy construction: init, then extend until no extension path exists.

    Greedy non-extendability is all the downstream separation argument needs;
    a globally leaf-maximum frame is not required. Each step increases the
    leaf count by one, so the loop ends within |a| iterations.
    """
    fr = init_frame(g, a, ell, budget)
    if fr is None:
        return None
    if observer is not None:
        observer(fr)
    while (p := find_extension(g, a, fr)) is not None:
        fr = extend_frame(g, a, fr, p)
        if observer is not None:
            observer(fr)
    return fr


def leaf_paths(
    tree_edges: Iterable[tuple[int, int]], leaves: Iterable[int]
) -> list[Path]:
    """floor(p/2) pairwise vertex-disjoint leaf-to-leaf paths of a subcubic tree.

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


def extract_frame_paths(fr: Frame) -> list[Path]:
    """floor(p/2) pairwise anti-complete induced leaf-to-leaf paths of a
    frame, each of length >= ell, in host ids.

    The frame is validated in full first. Tree pairing (leaf_paths) comes
    next, then each tree path is re-routed to a shortest path inside the
    subgraph induced on its own vertices, which makes it induced without
    disturbing disjointness. Every promised property is checked on the
    outputs before returning.
    """
    _assert_valid(fr, "hub_tree")
    g = fr.host
    adj = g.neighbor_masks()
    out: list[Path] = []
    for tree_path in leaf_paths(fr.tree_edges, fr.a_f):
        unseen = to_mask(tree_path) & ~(1 << tree_path[0])
        parent: dict[int, int] = {tree_path[0]: -1}
        queue = deque([tree_path[0]])
        target = tree_path[-1]
        while queue:
            v = queue.popleft()
            if v == target:
                break
            found = adj[v] & unseen
            unseen ^= found
            for w in mask_members(found):
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
        if not (path[0] in fr.a_f and path[-1] in fr.a_f):
            failed.append(Violation("endpoints", path, "endpoint is not a leaf"))
        for j in range(i + 1, len(out)):
            if not anti_complete(g, path, out[j]):
                failed.append(Violation("anti-complete", (i, j), "extracted paths touch"))
    if failed:
        raise FrameInvariantError("frame path extraction broke its contract", failed)
    return sorted(out)
