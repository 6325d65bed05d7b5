"""Frames: induced, almost-tree scaffolds from which long anti-complete
induced A-paths are extracted.

A frame is a tuple (F, T, A_F, X, Y, Y~, Abar) over a host graph G with
terminal set A: F an induced subgraph, T a spanning subcubic tree of F whose
degree-1 vertices are exactly the terminals inside F, X its degree-3 hubs, Y
the part of F close to leaves and hubs, Y~ the outside neighbourhood of Y,
and Abar the terminals not yet in the frame. Only T is chosen; a Frame holds
G, A, T and ell, and every other set is derived from them as an int bitmask,
as is the rim N(F) - F, where the search for the next extension starts.

Eleven axioms pin the structure down. Five of them are now definitions, so
nothing is left to check: F = V(T), A_F = A & F (the first clause of A3),
X = the degree-3 vertices of T (A4), Y = the ell_hat ball in F around A_F and
X (A5), Y~ = N(Y) - F (A6), and Abar = A - F (A7). The rest are
machine-checked after every construction step, never assumed: A1 (F and A
inside the host), A2 (T a subcubic tree of host edges), A3 (A_F = the
degree-1 vertices of T and of G[F]) and A8..A11.

Sets are masks from derivation to check: the host's neighbor_masks, the
frame's derived masks, and the tree as one mask per vertex. A ball in F
walks adj[v] & F, so no induced subgraph is built, and the checks on
outside vertices (A9, P6, P7) visit only the neighbours of F or of the new
path, never the whole host.

One checker, _axiom_violations, reads A3 and A8..A11 around a region of F:
validate_frame runs it on all of F, and a step on the new path alone. A
frame whose validity this module established (what init_frame,
extend_frame and build_maximal_frame return) is validated in full again
only as build_maximal_frame's last frame. A frame built from its fields
alone (Frame(...), dataclasses.replace) is validated in full once, before
it is extended or its paths are extracted. A step always grows the frame
from the old one's masks plus the new path and checks only what the step
can change; extend_frame's docstring has the lemma behind that.

The construction is greedy: start from a shortest long induced A-path, then
repeatedly attach a shortest path from an unprocessed terminal to the frame
(avoiding Y~), each attachment adding one leaf and one hub. The loop stops
when Y~ separates the remaining terminals from F, so that the solver can go
on at a smaller k, or earlier, once the frame has the 2k leaves that pack
the k paths the solver's level asks for. The packing paths come straight
off T: leaves are paired on T's BFS layers, each tree path is re-routed by
mask_layers and walk_back within its own vertices, and the paths must
pass graph._packing_checks, the package's one check of a packing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Sequence

from .graph import (
    Graph,
    Path,
    VertexSet,
    _chordless,
    _need_int,
    _packing_checks,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    path_mask,
    to_mask,
    vertex_mask,
    walk_back,
)
from .search import DEFAULT_BUDGET, _as_budget, _Budget, shortest_long_induced_apath

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
    terminals. Only T is chosen: A, F, the leaves, the hubs, T's adjacency
    masks, Y, Y~, Abar and the rim are int bitmasks derived from the four
    fields on first use, at most once per Frame. A mask needs nonnegative
    ids, and y, y_tilde and rim read the host's adjacency, so all of them
    need F and the terminals inside the host (A1).

    The one exception: a frame that extend_frame grows starts with all of
    them set, carried from the old frame's masks and the new path, and
    equal to what the fields derive."""

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
    def tree(self) -> tuple[int, ...]:
        """T's adjacency: one mask per host vertex."""
        return tuple(_tree_masks(self.host.n, self.tree_edges))

    @cached_property
    def y(self) -> int:
        """Y: the vertices of F within ell_hat of leaves and hubs, measured in F."""
        return mask_ball(self.host.neighbor_masks(), self.a_f | self.hubs, self.f, self.ell_hat)

    @cached_property
    def y_tilde(self) -> int:
        """Y~: N(Y) outside F."""
        return mask_neighbors(self.host.neighbor_masks(), self.y) & ~self.f

    @cached_property
    def rim(self) -> int:
        """N(F) outside F, where find_extension's search starts."""
        return mask_neighbors(self.host.neighbor_masks(), self.f) & ~self.f


def _path_edges(p: Path) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in zip(p, p[1:]))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _tree_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """The adjacency of edges as one bitmask per vertex 0..n-1 (ids must
    lie below n)."""
    tree = [0] * n
    for u, v in edges:
        tree[u] |= 1 << v
        tree[v] |= 1 << u
    return tree


def _check_spanning_subcubic_tree(tree: Sequence[int], edges: Collection[tuple[int, int]]) -> list[Violation]:
    """A2 violations of "edges form a subcubic tree spanning their own
    vertices", given their adjacency masks tree (every entry of edges
    counts, so a repeat fails)."""
    viol = []
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
    return viol


def _check_inside_host(fr: Frame) -> list[Violation]:
    """A1 violations: tree or terminal ids outside the host, or no int; and
    an ell that is no int >= 1. Read from the raw fields, as a negative id
    is not a bit position; no derived mask may be touched until this comes
    back empty. The A1 witness is the least bad int id, else the first id
    that is no int."""
    viol = [] if type(fr.ell) is int and fr.ell >= 1 else [Violation("ell", fr.ell, "ell is no int >= 1")]
    for what, vertices in (("frame vertex", chain.from_iterable(fr.tree_edges)), ("terminal", fr.terminals)):
        bad = [v for v in vertices if type(v) is not int or not 0 <= v < fr.host.n]
        if bad:
            ints = [v for v in bad if type(v) is int]
            viol.append(Violation("A1", min(ints) if ints else bad[0], f"{what} outside the host graph"))
    return viol


def _close_pairs(
    adj: Sequence[int], f: int, sources: int, among: int, lower: int, axiom: str, what: str
) -> list[Violation]:
    """A10/A11: the pairs of among with an end in sources (a subset of
    among) at distance below lower >= 1 in F (_check_inside_host refuses an
    ell below 1), each named lowest id first, once."""
    viol = []
    for c in mask_members(sources):
        # A pair of two sources is named from its lower end.
        for other in mask_members(mask_ball(adj, 1 << c, f, lower - 1) & among & ~(sources & (2 << c) - 1)):
            d = next(r for r in range(lower) if mask_ball(adj, 1 << c, f, r) >> other & 1)
            viol.append(Violation(axiom, (min(c, other), max(c, other)), f"{what} at distance {d} < {lower}"))
    return viol


def _axiom_violations(fr: Frame, region: int, leaf_sources: int, hub_sources: int) -> list[Violation]:
    """The violations of A3 and A8..A11 that the vertices of region, a set of
    F vertices, take part in: A3 on region and its F neighbours, A8 on the
    non-tree F edges with an end in region, A9 on the neighbours of region
    outside F and Y~, A10 on the leaf pairs with an end in leaf_sources and
    A11 on the hub pairs with an end in hub_sources. On F and all leaves and
    hubs, that is the whole frame. T must be a subcubic tree of host edges
    (A1, A2), so T lies inside F's edges. A8 and A9 are mask tests on T's
    radius-2 balls B(v), built where they are used: hubs & B(u) & B(v) is
    nonempty at every non-tree F edge uv, and an outside vertex's F
    neighbours lie pairwise in each other's B (one side of a pair will do,
    as tree distance is symmetric)."""
    adj, tree, f = fr.host.neighbor_masks(), fr.tree, fr.f
    around = mask_neighbors(adj, region)
    # One pass, in increasing order, over region and its F neighbours, the
    # vertices whose degrees region takes part in: their degree-1 vertices
    # in T and in G[F] for A3, and A8 at each non-tree F edge vu, u > v,
    # with an end in region. If v lies outside region, u lies in it, so the
    # pass reaches v: it names each such edge once, in sorted order.
    touched = region | around & f
    tree_deg1 = frame_deg1 = 0
    far_edges = []
    for v in mask_members(touched):
        t, in_f = tree[v], adj[v] & f
        if t.bit_count() == 1:
            tree_deg1 |= 1 << v
        if in_f.bit_count() == 1:
            frame_deg1 |= 1 << v
        if in_f != t:
            for u in mask_members(in_f & ~t & -(2 << v) & (-1 if region >> v & 1 else region)):
                if not fr.hubs & mask_ball(tree, 1 << v, -1, 2) & mask_ball(tree, 1 << u, -1, 2):
                    far_edges.append(Violation("A8", (v, u), "non-tree frame edge far from every hub"))
    # A3: the leaves are the degree-1 vertices of T and of G[F].
    a_f = fr.a_f & touched
    viol = [
        Violation("A3", _lowest(deg1 ^ a_f), f"a_f differs from {name} degree-1 vertices")
        for name, deg1 in (("tree", tree_deg1), ("frame", frame_deg1))
        if deg1 != a_f
    ] + far_edges
    # A9: for each F neighbour first of an outside vertex, its F neighbours
    # above first lie in B(first); Y~ is exempt.
    for v in mask_members(around & ~f & ~fr.y_tilde):
        fn = adj[v] & f
        for first in mask_members(fn)[:-1]:
            for second in mask_members(fn & -(2 << first) & ~mask_ball(tree, 1 << first, -1, 2)):
                viol.append(Violation("A9", (v, first, second), "outside vertex with tree-distant frame neighbours"))
    # A10/A11: leaves pairwise far (>= ell), hubs pairwise far (>= 3), in F.
    viol.extend(_close_pairs(adj, f, leaf_sources, fr.a_f, fr.ell, "A10", "frame leaves"))
    viol.extend(_close_pairs(adj, f, hub_sources, fr.hubs, 3, "A11", "hubs"))
    return viol


def validate_frame(fr: Frame) -> list[Violation]:
    """Check the axioms that are not definitions (A1, A2, A3, A8..A11), and
    ell, an int >= 1; an empty list means the frame is valid.

    Every check reads the frame's masks, derived from its fields on first
    use: F-restricted balls walk adj[v] & F, and only the neighbours of F
    and of the tree are visited, never the whole host. A malformed frame
    comes back as violations, never as an exception.
    """
    viol = _check_inside_host(fr)
    if viol:
        return viol
    # A2: T is a subcubic tree of host edges (spanning F = V(T) by definition)
    for u, v in fr.tree_edges:
        if not fr.host.has_edge(u, v):
            viol.append(Violation("A2", (u, v), "tree edge is not an edge of the host"))
    viol.extend(_check_spanning_subcubic_tree(fr.tree, fr.tree_edges))
    return viol or _axiom_violations(fr, fr.f, fr.a_f, fr.hubs)


def _size_violations(fr: Frame) -> list[Violation]:
    """SizeX and SizeY: see check_frame_claims."""
    p, hubs, size_y = fr.leaf_count, fr.hubs.bit_count(), fr.y.bit_count()
    viol = []
    if hubs != p - 2:
        viol.append(Violation("SizeX", hubs, f"|hubs| != p - 2 = {p - 2}"))
    bound = (4 * fr.ell_hat + 14) * p
    if size_y > bound:
        viol.append(Violation("SizeY", size_y, f"|y| = {size_y} > {bound}"))
    return viol


def check_frame_claims(fr: Frame) -> list[Violation]:
    """Size bounds every valid frame must satisfy, checked independently:
    |hubs| = p - 2 and |y| <= (4*ell_hat + 14)*p; or A1's violations, if an
    id lies outside the host, and ell's. Y~ needs no check: Y lies within ell_hat of
    the leaves and hubs in F, so Y~ = N(Y) - F lies within ell_hat + 1."""
    return _check_inside_host(fr) or _size_violations(fr)


def _passed(fr: Frame, where: str, violations: list[Violation]) -> Frame:
    """fr, marked as checked, if violations is empty; raise otherwise."""
    if violations:
        raise FrameInvariantError(f"{where} produced an invalid frame", violations)
    object.__setattr__(fr, "_checked", True)  # not a field: Frame(...) and replace() start without it
    return fr


def _assert_valid(fr: Frame, where: str) -> Frame:
    """fr, validated in full and marked as checked."""
    return _passed(fr, where, validate_frame(fr) or _size_violations(fr))


def _trusted(fr: Frame, where: str) -> Frame:
    """fr, validated in full first unless this module already checked it."""
    return fr if getattr(fr, "_checked", False) else _assert_valid(fr, where)


def init_frame(
    g: Graph, a: Iterable[int] | int, ell: int, budget: int | _Budget = DEFAULT_BUDGET
) -> Frame | None:
    """Frame around a shortest induced A-path of length >= ell, or None,
    for the terminals a, given as vertex ids or as their mask.

    Precondition (established upstream by eliminating intermediate lengths):
    every induced A-path of length >= ell has length >= 2*ell. Validation
    failure here signals that breach, not a recoverable state.
    """
    terminals = vertex_mask(g, a)
    path = shortest_long_induced_apath(g, terminals, ell, _as_budget(budget, "init_frame"))
    return None if path is None else _frame_on(g, terminals, path, ell)


def _frame_on(g: Graph, terminals: int, path: Path, ell: int) -> Frame:
    """The frame whose tree is path, validated in full: init_frame's frame
    when path is a shortest long induced A-path."""
    return _assert_valid(Frame(g, frozenset(mask_members(terminals)), _path_edges(path), ell), "init_frame")


def _extension_violations(fr: Frame, p: Path, on_p: int) -> list[Violation]:
    """The properties among P1..P7 and P-hub that p, a host path with mask
    on_p, fails (so P3 asks only for no chord). BFS-minimality implies all
    of them; checking explicitly guards the BFS tie-breaking choices."""
    adj = fr.host.neighbor_masks()
    f = fr.f
    head = to_mask(p[:-2])
    regions = on_p & (fr.y | fr.y_tilde)
    checks: list[tuple[str, bool, object]] = [
        ("P1", on_p & fr.a_bar == 1 << p[0], p[0]),
        ("P2", on_p & f == 1 << p[-1], p[-1]),
        ("P3", _chordless(adj, p, on_p), p),
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
    return [
        Violation(name, witness, "extension path property failed")
        for name, ok, witness in checks
        if not ok
    ]


def find_extension(fr: Frame) -> Path | None:
    """Shortest path from an unprocessed terminal to the frame, avoiding y_tilde.

    Returns None exactly when y_tilde separates a_bar from the frame, which is
    the loop's termination condition. The returned path starts at an a_bar
    vertex and ends at its first frame contact; extend_frame checks that it
    has P1..P7 and P-hub. It ends at the least frame vertex nearest to a_bar
    and is walked back from there to the least neighbour one BFS layer
    closer at each step. A frame this module did not check is validated in
    full first, as its derived masks need A1.

    It searches near F, not near a_bar: a BFS from the rim, outside F and
    y_tilde, stops at its first layer with terminals of a_bar (S*), and the
    path is walked back over BFS layers from S* alone. Every vertex it
    visits lies on a shortest a_bar-F path, which starts in S*, so its layer
    from S* is its layer from all of a_bar: the path is the same. No BFS
    runs when all of a_bar lies in y_tilde.
    """
    _trusted(fr, "find_extension")
    adj = fr.host.neighbor_masks()
    outside = ~fr.y_tilde
    near = fr.a_bar & outside and mask_layers(adj, fr.rim & outside, outside & ~fr.f, fr.a_bar)[-1] & fr.a_bar
    if not near:
        return None
    layers = mask_layers(adj, near, outside, fr.f)
    return walk_back(adj, layers, _lowest(layers[-1] & fr.f))


def _grown(fr: Frame, p: Path, on_p: int) -> Frame:
    """fr grown by p (mask on_p), with every mask carried forward as
    extend_frame's lemma gives it."""
    adj = fr.host.neighbor_masks()
    x = p[-1]
    f = fr.f | on_p
    tree = list(fr.tree)
    for u, v in zip(p, p[1:]):
        tree[u] |= 1 << v
        tree[v] |= 1 << u
    y = fr.y | mask_ball(adj, 1 << p[0] | 1 << x, f, fr.ell_hat)
    new = replace(fr, tree_edges=fr.tree_edges | _path_edges(p))
    # Seed the cached properties, under their own names.
    vars(new).update(
        f=f, a=fr.a, a_f=fr.a & f, a_bar=fr.a & ~f, hubs=fr.hubs | 1 << x, tree=tuple(tree),
        y=y, y_tilde=(fr.y_tilde | mask_neighbors(adj, y & ~fr.y)) & ~f,
        rim=(fr.rim | mask_neighbors(adj, on_p ^ 1 << x)) & ~f,
    )
    return new


def extend_frame(fr: Frame, p: Path) -> Frame:
    """The frame grown by one extension path: one new leaf, one new hub.

    Only the tree grows, by p's edges: p[0] becomes a leaf, and the
    attachment vertex x = p[-1] had tree-degree 2 and becomes a hub of
    degree 3. Every check below raises FrameInvariantError on a violation,
    also under python -O.

    How it is checked. fr is validated in full first, unless this module
    established its validity: init_frame, extend_frame, build_maximal_frame
    and extract_frame_paths mark the frames they check, and Frame(...) or
    dataclasses.replace makes an unchecked frame. Then p must be a host path
    (checked once, into its mask) with P1..P7 and P-hub (find_extension's
    path is one). The grown frame's masks are carried from fr's and p, and
    only what the lemma below leaves open is checked, by the checker
    validate_frame runs on all of F: the step costs O(|p| + |N(p)|) plus
    balls of radius at most ell_hat around p[0] and x, whatever the size of
    F, apart from copying T's edge set and masks into the new frame.

    Lemma. Let fr be valid and p have P1..P7 and P-hub. Write F' = F + V(p),
    P = V(p) - x for the new vertices, and primes for the grown frame. Then
    (a) Y' = Y | ball_F'({p[0], x}, ell_hat), Y~' = (Y~ | N(Y' - Y)) - F'
        and rim' = (rim | N(P)) - F';
    (b) the grown frame is valid iff it meets, where the step touches it:
        A2 at x (tree-degree 3), A3 on P and F's neighbours of P, A8 on the
        non-tree F' edges at P, A9 on the neighbours of P outside F' and
        Y~', A10 on the pairs with p[0], A11 on the pairs with x, and the
        size claims SizeX and SizeY.
    Proof. p is an induced path of host edges (P3) meeting F only at x
    (P2), and x is neither a leaf nor a hub (P-hub), so it had tree-degree
    2: T' is a subcubic tree spanning F', A1 and A2 hold, tree distances
    between old vertices are T's, and p[0] is the only new terminal in F'
    (P1). No vertex of P lies in Y~ (P5), so none has a neighbour in Y, and
    only p[-2] has a neighbour in F at all (P4). So an F' path from an old
    leaf or hub into P leaves F at a vertex outside Y, more than ell_hat
    from every old leaf and hub. Hence every path of length <= ell_hat from
    them stays in F, which gives Y' and Y~' in (a), and with it Y <= Y' and
    Y~ <= Y~'; rim' follows from F' = F | P. A
    path between two old leaves or hubs through P is longer than
    2 * ell_hat + 2 > max(ell, 3), so A10 and A11 hold between them as in
    fr. Degrees change only on p and at F's neighbours of P. A non-tree F'
    edge that is new has an end in P; an old one keeps its tree distances,
    and the hubs only grow. An outside vertex with no neighbour in P sees
    the same frame vertices at the same tree distances as in fr, where A9
    held unless it lay in Y~ <= Y~'. []

    The checks in (b) are mostly implied as well: A8 at P by A9 for p[-2]
    in fr (P5 keeps it out of Y~), A9 at P by P6 and P7 (a neighbour of P
    outside Y~' has none in Y', which holds the last ell_hat + 1 >= 4
    vertices of p, so it sees p only in p[:-3], no F by P7, and p within a
    span of 2 by P6), and A10 and A11 by the distance argument above. Only A3 at p[0]
    when p has one edge, and the size claims, can fail. All are checked
    anyway, as every axiom is.

    build_maximal_frame still validates its last frame in full.
    """
    fr = _trusted(fr, "extend_frame")
    on_p = path_mask(fr.host, p)
    if not on_p:
        raise FrameInvariantError(f"extension {p!r} is not a path of the host")
    failed = _extension_violations(fr, p, on_p)
    if failed:
        raise FrameInvariantError("find_extension produced a bad path", failed)
    new, x = _grown(fr, p, on_p), p[-1]
    if new.tree[x].bit_count() != 3:
        violations = [Violation("A2", x, "attachment vertex did not have tree degree 2")]
    else:
        violations = _axiom_violations(new, on_p ^ 1 << x, 1 << p[0], 1 << x) or _size_violations(new)
    _passed(new, "extend_frame", violations)
    if new.leaf_count != fr.leaf_count + 1:
        raise FrameInvariantError(f"extension left {new.leaf_count} leaves, not {fr.leaf_count + 1}")
    return new


def build_maximal_frame(
    g: Graph, a: Iterable[int] | int, ell: int, budget: int | _Budget = DEFAULT_BUDGET,
    observer=None, k: int | None = None,
) -> Frame | None:
    """Greedy construction: init, then extend until no extension path exists,
    or, given k, until the frame has 2k leaves and so packs k paths.

    Greedy non-extendability is all the downstream separation argument needs;
    a globally leaf-maximum frame is not required. Each step increases the
    leaf count by one, so the loop ends within |a| iterations. A frame that
    stops at 2k leaves is the maximal construction cut short, step for step;
    one with fewer than 2k leaves is maximal. init_frame, given a as vertex
    ids or their mask, validates the first frame in full, each step is
    checked locally (see extend_frame), and the last frame, if any step was
    taken, is validated in full once more, as the runtime guard on the
    lemma; extraction trusts it. A k below 1 raises ValueError before any
    node is spent.
    """
    if k is not None:
        _need_int("k", k, 1)
    start = init_frame(g, a, ell, _as_budget(budget, "build_maximal_frame"))
    return None if start is None else _grown_maximal(start, observer, k)


def _grown_maximal(start: Frame, observer, k: int | None) -> Frame:
    """build_maximal_frame's loop, from its checked first frame start."""
    fr = start
    if observer is not None:
        observer(fr)
    while (k is None or fr.leaf_count < 2 * k) and (p := find_extension(fr)) is not None:
        fr = extend_frame(fr, p)
        if observer is not None:
            observer(fr)
    if fr is not start:
        _assert_valid(fr, "build_maximal_frame")
    return fr


def _pair_leaves(tree: Sequence[int], leaf_mask: int) -> list[Path]:
    """leaf_paths' pairing on a checked subcubic tree, given as one
    adjacency mask per vertex, whose degree-1 vertices are leaf_mask.

    Root at the smallest leaf and walk T's BFS layers from it in one pass,
    deepest layer first and by id within a layer, so a vertex's children
    (its neighbours one layer down) come before it. Each vertex hands its
    parent at most one open leaf with that leaf's depth; a leaf opens
    itself. A vertex that holds two open leaves pairs them by the path
    through itself, each arm walked back up the layers, and hands up none.
    Only a hub or the root can hold two, so this pairs at the deepest vertex
    with open leaves in two branches, the root last, and leaves one leaf
    unpaired iff p is odd.
    """
    if not leaf_mask:  # no edges; any other tree has two leaves or more
        return []
    layers = mask_layers(tree, leaf_mask & -leaf_mask)
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
    if len(out) != leaf_mask.bit_count() // 2:
        raise FrameInvariantError("leaf pairing invariant broken")
    return out


def leaf_paths(tree_edges: Iterable[tuple[int, int]], leaves: Iterable[int]) -> list[Path]:
    """floor(p/2) pairwise vertex-disjoint leaf-to-leaf paths of a subcubic tree.

    The edges, on nonnegative int ids (bit positions, so the cost grows with the
    largest id), must pass A2's spanning subcubic tree check (a repeated edge
    fails its edge count), and the leaves must be the degree-1 vertices;
    anything else raises ValueError. Then _pair_leaves pairs the leaves.
    """
    edges, leaves = list(tree_edges), list(leaves)
    if any(type(v) is not int or v < 0 for v in chain(chain.from_iterable(edges), leaves)):
        raise ValueError("tree vertex ids must be nonnegative ints")
    vertices = frozenset(chain.from_iterable(edges))
    leaf_set = frozenset(leaves)
    tree = _tree_masks(max(vertices, default=-1) + 1, edges)
    violations = _check_spanning_subcubic_tree(tree, edges)
    if violations:
        raise ValueError("not a spanning subcubic tree: " + "; ".join(map(str, violations)))
    degree1 = frozenset(v for v in vertices if tree[v].bit_count() == 1)
    if leaf_set != degree1:
        raise ValueError(f"leaves {sorted(leaf_set)} are not the degree-1 vertices {sorted(degree1)}")
    return _pair_leaves(tree, to_mask(leaf_set))


def extract_frame_paths(fr: Frame) -> list[Path]:
    """floor(p/2) pairwise anti-complete induced leaf-to-leaf paths of a
    frame, each of length >= ell, in host ids, in sorted order.

    The frame is validated in full first, unless this module already checked
    it (see extend_frame). Either way T has passed A2 and A3, so
    _pair_leaves pairs A_F on the frame's own tree masks, with no second
    tree check. Each tree path s..t is re-routed to a shortest s-t path
    inside its own vertices (mask_layers, then walk_back from t), which
    makes it induced without disturbing disjointness. The outputs pass
    graph._packing_checks, with the leaves as ends, before returning; each
    failed check is one Violation, named as the check.
    """
    _trusted(fr, "extract_frame_paths")
    adj = fr.host.neighbor_masks()
    out: list[Path] = []
    for tree_path in _pair_leaves(fr.tree, fr.a_f):
        s, t = tree_path[0], tree_path[-1]
        out.append(walk_back(adj, mask_layers(adj, 1 << s, to_mask(tree_path), 1 << t), t))

    checks = _packing_checks(fr.host, fr.a_f, fr.ell, out)
    if failed := [Violation(name, w, "the extracted paths fail it") for name, ok, w in checks if not ok]:
        raise FrameInvariantError("frame path extraction broke its contract", failed)
    return sorted(out)
