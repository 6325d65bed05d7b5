"""Frames: induced, almost-tree scaffolds from which long anti-complete
induced A-paths are extracted.

A frame is a tuple (F, T, A_F, X, Y, Y~, Abar) over a host graph G with
terminal set A: F an induced subgraph, T a spanning subcubic tree of F whose
degree-1 vertices are exactly the terminals inside F, X its degree-3 hubs, Y
the part of F close to leaves and hubs, Y~ the outside neighbourhood of Y,
and Abar the terminals not yet in the frame. Only T is chosen; a Frame holds
G, A, T and ell, and every other set is derived from them as an int bitmask.

Eleven axioms pin the structure down. Five of them are now definitions, so
nothing is left to check: F = V(T), A_F = A & F (the first clause of A3),
X = the degree-3 vertices of T (A4), Y = the ell_hat ball in F around A_F and
X (A5), Y~ = N(Y) - F (A6), and Abar = A - F (A7). The rest are
machine-checked after every construction step, never assumed: A1 (F and A
inside the host), A2 (T a subcubic tree of host edges), A3 (A_F = the
degree-1 vertices of T and of G[F]) and A8..A11.

Every step derives the sets of the new frame and re-checks the axioms from
its fields alone; nothing is carried over from the previous step. Sets are
masks from derivation to check: the host's neighbor_masks, the frame's
derived masks, and the tree as one mask per vertex. A ball in F walks
adj[v] & F, so no induced subgraph is built, and the checks on outside
vertices (A9, P6, P7) visit only the neighbours of F or of the new path,
never the whole host.

The construction is greedy: start from a shortest long induced A-path, then
repeatedly attach a shortest path from an unprocessed terminal to the frame
(avoiding Y~), each attachment adding one leaf and one hub. The loop stops
exactly when Y~ separates the remaining terminals from F, which is what the
solver's recursion needs. The packing paths come straight off T after one
more full validation: leaves are paired on T's BFS layers, each tree path
is re-routed by mask_layers and walk_back within its own vertices, and the
pairs are checked against each other's closed neighbourhood masks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable

from .graph import (
    Graph,
    Path,
    VertexSet,
    check_vertex_set,
    is_induced_path,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    to_mask,
    walk_back,
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
    """The frame with tree T = tree_edges in host, for the terminal set
    terminals. Only T is chosen: A, F, the leaves, the hubs, Y, Y~ and Abar
    are int bitmasks derived from the four fields on first use, at most once
    per Frame, and never copied from another frame. A mask needs nonnegative
    ids, and y and y_tilde read the host's adjacency, so all of them need F
    and the terminals inside the host (A1)."""

    host: Graph
    terminals: VertexSet
    tree_edges: frozenset[tuple[int, int]]
    ell: int

    @property
    def ell_hat(self) -> int:
        return max(self.ell, 3)

    @property
    def leaf_count(self) -> int:
        return self.a_f.bit_count()

    @cached_property
    def f(self) -> int:
        """F = V(T)."""
        return to_mask(chain.from_iterable(self.tree_edges))

    @cached_property
    def a(self) -> int:
        """A: the terminals."""
        return to_mask(self.terminals)

    @cached_property
    def a_f(self) -> int:
        """The leaves: the terminals in F."""
        return self.a & self.f

    @cached_property
    def a_bar(self) -> int:
        """The terminals not yet in F."""
        return self.a & ~self.f

    @cached_property
    def hubs(self) -> int:
        """X: the degree-3 vertices of T."""
        degree = Counter(chain.from_iterable(self.tree_edges))
        return to_mask(v for v, d in degree.items() if d == 3)

    @cached_property
    def y(self) -> int:
        """Y: the vertices of F within ell_hat of leaves and hubs, measured in F."""
        return mask_ball(self.host.neighbor_masks(), self.a_f | self.hubs, self.f, self.ell_hat)

    @cached_property
    def y_tilde(self) -> int:
        """Y~: N(Y) outside F."""
        return mask_neighbors(self.host.neighbor_masks(), self.y) & ~self.f


def _path_edges(p: Path) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in zip(p, p[1:]))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _check_spanning_subcubic_tree(
    n: int, edges: Collection[tuple[int, int]]
) -> tuple[list[Violation], list[int]]:
    """A2 violations of "edges form a subcubic tree spanning their own
    vertices" (every entry of edges counts, so a repeat fails), plus the
    tree's adjacency as one bitmask per vertex 0..n-1 (ids must lie below n)."""
    viol = []
    tree = [0] * n
    for u, v in edges:
        tree[u] |= 1 << v
        tree[v] |= 1 << u
    vertices = sorted(set(chain.from_iterable(edges)))
    for v in vertices:
        degree = tree[v].bit_count()
        if degree > 3:
            viol.append(Violation("A2", v, f"tree degree {degree} exceeds 3"))
    if len(edges) != max(len(vertices) - 1, 0):
        viol.append(Violation("A2", len(edges), f"{len(edges)} edges cannot span {len(vertices)} vertices"))
    elif vertices:
        reached = mask_ball(tree, 1 << vertices[0])
        if reached.bit_count() != len(vertices):
            missing = next(v for v in vertices if not reached >> v & 1)
            viol.append(Violation("A2", missing, "tree does not reach this vertex"))
    return viol, tree


def _check_inside_host(fr: Frame) -> list[Violation]:
    """A1 violations: tree or terminal ids outside the host. Read from the
    raw fields, as a negative id is not a bit position; no derived mask may
    be touched until this comes back empty."""
    viol = []
    for what, vertices in (("frame vertex", chain.from_iterable(fr.tree_edges)), ("terminal", fr.terminals)):
        bad = [v for v in vertices if not (0 <= v < fr.host.n)]
        if bad:
            viol.append(Violation("A1", min(bad), f"{what} outside the host graph"))
    return viol


def validate_frame(fr: Frame) -> list[Violation]:
    """Check the axioms that are not definitions (A1, A2, A3, A8..A11); an
    empty list means the frame is valid.

    Every check reads the frame's masks, derived from its fields on first
    use: F-restricted balls walk adj[v] & F, and only the neighbours of F
    and of the tree are visited, never the whole host. A malformed frame
    comes back as violations, never as an exception.
    """
    viol = _check_inside_host(fr)
    if viol:
        return viol
    g = fr.host

    # A2: T is a subcubic tree of host edges (spanning F = V(T) by definition)
    for u, v in fr.tree_edges:
        if not g.has_edge(u, v):
            viol.append(Violation("A2", (u, v), "tree edge is not an edge of the host"))
    spanning, tree = _check_spanning_subcubic_tree(g.n, fr.tree_edges)
    viol.extend(spanning)
    if viol:
        return viol

    # One pass over F: the degree-1 vertices for A3, the ends of non-tree F
    # edges for A8 (T is inside F's edges by A2), and the vertices with two
    # or more F neighbours for A9.
    adj = g.neighbor_masks()
    f = fr.f
    tree_deg1 = frame_deg1 = off_tree = seen_once = seen_twice = 0
    for v in mask_members(f):
        bit = 1 << v
        t = tree[v]
        if t.bit_count() == 1:
            tree_deg1 |= bit
        nb = adj[v]
        in_f = nb & f
        if in_f.bit_count() == 1:
            frame_deg1 |= bit
        if in_f != t:
            off_tree |= bit
        seen_twice |= seen_once & nb
        seen_once |= nb

    # A3: the leaves (the terminals in F) are the degree-1 vertices of T and of F
    for name, deg1 in (("tree", tree_deg1), ("frame", frame_deg1)):
        if deg1 != fr.a_f:
            viol.append(Violation("A3", _lowest(deg1 ^ fr.a_f), f"a_f differs from {name} degree-1 vertices"))

    # A8: every non-tree edge of F sits within tree-distance 2 of a common hub.
    hub_balls = [mask_ball(tree, 1 << x, -1, 2) for x in mask_members(fr.hubs)]
    for u in mask_members(off_tree):
        for v in mask_members(adj[u] & f & ~tree[u] & -(2 << u)):  # -(2 << u): the ids above u
            if not any(b >> u & 1 and b >> v & 1 for b in hub_balls):
                viol.append(Violation("A8", (u, v), "non-tree frame edge far from every hub"))

    # A9: outside vertices see the frame only locally (tree-distance <= 2).
    # Only a vertex with two or more frame neighbours can break it.
    near_in_tree: dict[int, int] = {}
    for v in mask_members(seen_twice & ~f & ~fr.y_tilde):
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
    def f_dist_check(rest: int, lower: int, axiom: str, what: str):
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
    |hubs| = p - 2 and |y| <= (4*ell_hat + 14)*p; or A1's violations, if an
    id lies outside the host. Y~ needs no check: Y lies within ell_hat of
    the leaves and hubs in F, so Y~ = N(Y) - F lies within ell_hat + 1."""
    viol = _check_inside_host(fr)
    if viol:
        return viol
    p, hubs, size_y = fr.leaf_count, fr.hubs.bit_count(), fr.y.bit_count()
    if hubs != p - 2:
        viol.append(Violation("SizeX", hubs, f"|hubs| != p - 2 = {p - 2}"))
    bound = (4 * fr.ell_hat + 14) * p
    if size_y > bound:
        viol.append(Violation("SizeY", size_y, f"|y| = {size_y} > {bound}"))
    return viol


def _assert_valid(fr: Frame, where: str) -> Frame:
    violations = validate_frame(fr)
    if not violations:
        violations = check_frame_claims(fr)
    if violations:
        raise FrameInvariantError(f"{where} produced an invalid frame", violations)
    validation_stats[where] += 1
    return fr


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
    return _assert_valid(Frame(g, a_set, _path_edges(path), ell), "init_frame")


def _check_extension_path(fr: Frame, p: Path) -> None:
    """Assert the seven properties every shortest extension path must have.

    BFS-minimality implies all of them; checking explicitly guards the BFS
    tie-breaking choices. Failures raise, naming the property.
    """
    g = fr.host
    adj = g.neighbor_masks()
    f = fr.f
    on_p = to_mask(p)
    head = to_mask(p[:-2])
    regions = on_p & (fr.y | fr.y_tilde)
    checks: list[tuple[str, bool, object]] = [
        ("P1", on_p & fr.a_bar == 1 << p[0], p[0]),
        ("P2", on_p & f == 1 << p[-1], p[-1]),
        ("P3", is_induced_path(g, p), p),
        ("P4", not (head | mask_neighbors(adj, head)) & f, p),
        ("P5", not regions, frozenset(mask_members(regions))),
    ]
    # Only a neighbour of p can see p twice (P6) or see p[:-3] at all (P7),
    # so the outside vertices are visited in N(p), in increasing order.
    pos = {v: i for i, v in enumerate(p)}
    body = to_mask(p[:-3])
    p6 = p7 = True
    witness6: object = None
    witness7: object = None
    for v in mask_members(mask_neighbors(adj, on_p) & ~on_p & ~f & ~fr.y_tilde):
        nb = adj[v]
        seen = [pos[u] for u in mask_members(nb & on_p)]
        first, last = min(seen), max(seen)
        if last - first > 2:
            p6, witness6 = False, (v, p[first], p[last])
        if nb & f and nb & body:
            p7, witness7 = False, v
    checks.append(("P6", p6, witness6))
    checks.append(("P7", p7, witness7))
    checks.append(("P-hub", not (fr.hubs | fr.a_f) >> p[-1] & 1, p[-1]))
    failed = [
        Violation(name, witness, "extension path property failed")
        for name, ok, witness in checks
        if not ok
    ]
    if failed:
        raise FrameInvariantError("find_extension produced a bad path", failed)


def find_extension(fr: Frame) -> Path | None:
    """Shortest path from an unprocessed terminal to the frame, avoiding y_tilde.

    Returns None exactly when y_tilde separates a_bar from the frame, which is
    the loop's termination condition. The returned path starts at an a_bar
    vertex, ends at its first frame contact, and satisfies P1..P7 (asserted).
    It ends at the least frame vertex nearest to a_bar and is walked back
    from there to the least neighbour one BFS layer closer at each step.
    """
    adj = fr.host.neighbor_masks()
    outside = ~fr.y_tilde
    layers = mask_layers(adj, fr.a_bar & outside, outside, fr.f)
    hits = layers[-1] & fr.f
    if not hits:
        return None
    result = walk_back(adj, layers, _lowest(hits))
    _check_extension_path(fr, result)
    return result


def extend_frame(fr: Frame, p: Path) -> Frame:
    """The frame grown by one extension path: one new leaf, one new hub.

    Only the tree grows, by p's edges: p[0] becomes a leaf, and the
    attachment vertex p[-1] had tree-degree 2 and becomes a hub of degree 3.
    Every other set of the new frame, y and y_tilde included, is derived
    from scratch on the new tree (they are global definitions, and no local
    update from the previous step's regions is proven). The result is
    re-validated in full.
    """
    new = replace(fr, tree_edges=fr.tree_edges | _path_edges(p))
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
    while (p := find_extension(fr)) is not None:
        fr = extend_frame(fr, p)
        if observer is not None:
            observer(fr)
    return fr


def leaf_paths(
    tree_edges: Iterable[tuple[int, int]], leaves: Iterable[int]
) -> list[Path]:
    """floor(p/2) pairwise vertex-disjoint leaf-to-leaf paths of a subcubic tree.

    The edges, on nonnegative ids (bit positions, so the cost grows with the
    largest id), must pass A2's spanning subcubic tree check (a repeated edge
    fails its edge count), and the leaves must be the degree-1 vertices;
    anything else raises ValueError.

    Strategy: root at the smallest leaf and walk T's BFS layers from it in
    one pass, deepest layer first and by id within a layer, so a vertex's
    children (its neighbours one layer down) come before it. Each vertex
    hands its parent at most one open leaf with that leaf's depth; a leaf
    opens itself. A vertex that holds two open leaves pairs them by the path
    through itself, each arm walked back up the layers, and hands up none.
    Only a hub or the root can hold two, so this pairs at the deepest vertex
    with open leaves in two branches, the root last, and leaves one leaf
    unpaired iff p is odd.
    """
    edges = list(tree_edges)
    vertices = frozenset(v for e in edges for v in e)
    leaf_set = frozenset(leaves)
    if min(vertices | leaf_set, default=0) < 0:
        raise ValueError("tree vertex ids must be nonnegative")
    violations, tree = _check_spanning_subcubic_tree(max(vertices, default=-1) + 1, edges)
    if violations:
        raise ValueError("not a spanning subcubic tree: " + "; ".join(map(str, violations)))
    degree1 = frozenset(v for v in vertices if tree[v].bit_count() == 1)
    if leaf_set != degree1:
        raise ValueError(f"leaves {sorted(leaf_set)} are not the degree-1 vertices {sorted(degree1)}")
    if not leaf_set:  # no edges; any other tree has two leaves or more
        return []
    leaf_mask = to_mask(leaf_set)
    layers = mask_layers(tree, 1 << min(leaf_set))
    up: list[tuple[int, int] | None] = [None] * len(tree)  # v's open leaf and its depth
    out: list[Path] = []
    children = 0
    for d in reversed(range(len(layers))):
        for v in mask_members(layers[d]):
            ends = [up[c] for c in mask_members(tree[v] & children) if up[c]]
            if leaf_mask >> v & 1:
                ends.append((v, d))
            if len(ends) == 2:
                s, t = (walk_back(tree, layers[d:depth + 1], leaf) for leaf, depth in ends)
                path = s[::-1] + t[1:]
                out.append(path if path[0] < path[-1] else path[::-1])
            elif ends:
                up[v] = ends[0]
        children = layers[d]
    if len(out) != len(leaf_set) // 2:
        raise FrameInvariantError("leaf pairing invariant broken")
    return out


def extract_frame_paths(fr: Frame) -> list[Path]:
    """floor(p/2) pairwise anti-complete induced leaf-to-leaf paths of a
    frame, each of length >= ell, in host ids.

    The frame is validated in full first. leaf_paths pairs the tree's leaves,
    and each tree path s..t is re-routed to a shortest s-t path inside its own
    vertices (mask_layers, then walk_back from t), which makes it induced
    without disturbing disjointness. Every promised property is checked on
    the outputs before returning; two paths touch iff one meets the other's
    closed neighbourhood, a mask_ball of radius 1.
    """
    _assert_valid(fr, "hub_tree")
    g = fr.host
    adj = g.neighbor_masks()
    out: list[Path] = []
    for tree_path in leaf_paths(fr.tree_edges, mask_members(fr.a_f)):
        s, t = tree_path[0], tree_path[-1]
        out.append(walk_back(adj, mask_layers(adj, 1 << s, to_mask(tree_path), 1 << t), t))

    masks = [to_mask(path) for path in out]
    closed = [mask_ball(adj, m, -1, 1) for m in masks]
    failed = []
    for i, path in enumerate(out):
        if not is_induced_path(g, path):
            failed.append(Violation("induced", path, "extracted path has a chord"))
        if len(path) - 1 < fr.ell:
            failed.append(Violation("length", path, f"length {len(path) - 1} < {fr.ell}"))
        if not (fr.a_f >> path[0] & 1 and fr.a_f >> path[-1] & 1):
            failed.append(Violation("endpoints", path, "endpoint is not a leaf"))
        for j in range(i + 1, len(out)):
            if closed[i] & masks[j]:
                failed.append(Violation("anti-complete", (i, j), "extracted paths touch"))
    if failed:
        raise FrameInvariantError("frame path extraction broke its contract", failed)
    return sorted(out)
