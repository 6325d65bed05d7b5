"""The constructive dichotomy: pack k far-apart long induced A-paths, or
produce two small hitting sets whose ball-removal kills all of them.

solve() mirrors the inductive proof step by step, one loop turn per step.
Intermediate-length paths (length in [ell, 2*ell - 1]) are peeled off first
with a radius-1 ball; once every long induced A-path has length >= 2*ell, a
frame is grown greedily from a shortest one. A level runs the search engine
once: the shortest long path search, stopped at its first path shorter than
2*ell. That path is the one the middle-length search would find, and if
there is none the search ends on the shortest long path, the frame's first
(search._shortest_path_until has the argument). The frame either yields
enough pairwise anti-complete paths directly, or its neighbourhood
separates the leftover terminals so the loop can go on at a strictly
smaller k. The frame stops growing once its 2k leaves pack the level's k
paths; only a frame that runs out of extension paths before that is
maximal, and only a maximal frame separates. Both cuts keep an induced
subgraph on the original graph's vertex ids, so an inner level's
certificate is used as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .frame import Frame, FrameInvariantError, _frame_on, _grown_maximal, extract_frame_paths
from .graph import (
    Graph,
    Path,
    VertexSet,
    _as_path,
    _kept_subgraph,
    _need_int,
    mask_ball,
    mask_layers,
    mask_members,
    mask_neighbors,
    path_mask,
    power_graph,
    to_mask,
    vertex_mask,
    walk_back,
)
from .search import DEFAULT_BUDGET, _Budget, _shortest_path_until


@dataclass(frozen=True)
class SolveParams:
    k: int
    ell: int
    node_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        for name, value, least in (("k", self.k, 0), ("ell", self.ell, 1), ("node budget", self.node_budget, 1)):
            _need_int(name, value, least)

    @property
    def ell_hat(self) -> int:
        return max(self.ell, 3)

    def cover_radius(self) -> int:
        """Ball radius for the second hitting set: max(ell + 1, 4)."""
        return self.ell_hat + 1

    def z1_limit(self) -> int:
        return _limits(self.ell_hat, self.k)[0]

    def z2_limit(self) -> int:
        return _limits(self.ell_hat, self.k)[1]


def _limits(ell_hat: int, k: int) -> tuple[int, int]:
    """The cover-size bounds (z1, z2) at k: (12 ell_hat + 42)(k - 1) and 4(k - 1)."""
    units = max(k - 1, 0)
    return (12 * ell_hat + 42) * units, 4 * units


@dataclass(frozen=True)
class Packing:
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class Cover:
    z1: VertexSet
    z2: VertexSet
    r1: int
    r2: int


Certificate = Union[Packing, Cover]

FrameObserver = Callable[[Frame], None]


def solve(
    g: Graph,
    a: Iterable[int] | int,
    params: SolveParams,
    frame_observer: FrameObserver | None = None,
) -> Certificate:
    """Either a Packing of k paths or a Cover (z1, z2) within the size bounds,
    for the terminals a, given as vertex ids or as their mask.

    One loop over levels, and one engine pass per level, which finds the
    level's middle-length path or else its shortest long path (see the
    module docstring). A level either answers, or cuts the instance to
    the part a peeled path or a split frame leaves, and its terminal mask to
    that part, and goes on at a smaller k, so the loop ends on every input.
    A level with fewer than two terminals has no A-path: it answers with an
    empty cover and runs no pass, and the cut before it builds no subgraph.
    The answering level hands over the paths it packs (none at k = 0), or
    nothing, an empty cover. One fold over the cut levels, innermost first,
    then makes the answer: a Packing gets each peeled path in front and each
    split frame's paths merged in sorted order; a Cover ORs each level's
    sets into two masks, checked against that level's bounds. A returned Cover
    satisfies the strong intersection form: removing N[z1] & N[z2, r2]
    already leaves no induced A-path of length >= ell (and hence so does
    removing either ball family alone). frame_observer, when given, is
    called with every frame the construction passes through.
    """
    k, ell = params.k, params.ell
    budget = _Budget(params.node_budget, "solve")
    terminals = vertex_mask(g, a)
    cuts: list[tuple[int, Path | Frame]] = []  # (level k, peeled path or split frame)
    packed: tuple[Path, ...] | None = ()  # the answering level's paths; None: an empty cover
    while k > 0:
        if not terminals & (terminals - 1):  # no A-path without two terminals
            packed = None
            break
        stop = ell if k == 1 else 2 * ell - 1
        path = _shortest_path_until(g, terminals, ell, stop, budget)
        if path is None or k == 1:
            packed = None if path is None else (path,)
            break
        adj = g.neighbor_masks()
        if len(path) - 1 <= stop:  # a middle-length path: peel it
            cut, used = path, 1
            keep = ~mask_ball(adj, to_mask(path), -1, 1)
        else:
            cut = _grown_maximal(_frame_on(g, terminals, path, ell), frame_observer, k)
            used = cut.leaf_count // 2
            if used >= k:
                packed = tuple(extract_frame_paths(cut)[:k])
                break
            # The components of g - y_tilde holding a terminal still to process.
            outside = ~cut.y_tilde
            keep = mask_ball(adj, cut.a_bar & outside, outside)
            if (keep | mask_neighbors(adj, keep)) & cut.f:
                raise FrameInvariantError("remainder must be separated from the frame")
        cuts.append((k, cut))
        terminals &= keep
        if terminals & (terminals - 1):  # else the next level answers unsearched
            g = _kept_subgraph(g, keep)
        k -= used  # >= 1, as used < k

    if packed is not None:
        for _, cut in reversed(cuts):
            if isinstance(cut, Frame):
                packed = tuple(sorted(extract_frame_paths(cut) + list(packed)))
            else:
                packed = (cut,) + packed
        return Packing(packed)
    z1 = z2 = 0
    ell_hat = params.ell_hat
    for k, cut in reversed(cuts):
        if isinstance(cut, Frame):
            z1, z2 = z1 | cut.y, z2 | cut.a_f | cut.hubs
        else:
            z1, z2 = z1 | to_mask(cut), z2 | 1 << cut[0] | 1 << cut[-1]
        z1_limit, z2_limit = _limits(ell_hat, k)
        if z1.bit_count() > z1_limit or z2.bit_count() > z2_limit:
            raise FrameInvariantError(
                f"cover sizes |z1| = {z1.bit_count()}, |z2| = {z2.bit_count()} exceed the bounds "
                f"{z1_limit}, {z2_limit} at k = {k}"
            )
    return Cover(frozenset(mask_members(z1)), frozenset(mask_members(z2)), 1, params.cover_radius())


@dataclass(frozen=True)
class PowerGraphMap:
    """A graph, its d-th power, and a short witness path per power edge."""

    base: Graph
    d: int
    powered: Graph
    witness: dict[tuple[int, int], Path]

    def witness_for(self, u: int, v: int) -> Path:
        """The stored base-graph path realising the power edge uv, oriented u -> v."""
        key = (u, v) if u < v else (v, u)
        path = self.witness[key]
        return path if path[0] == u else path[::-1]


def reduce_to_d3(g: Graph, d: int) -> PowerGraphMap:
    """Build the d-th power of g with a shortest base path witnessing each new edge.

    This is the reduction showing that far-apart path packing at distance d
    follows from the d = 3 case on the powered graph: power paths lift back
    to base paths along the witnesses. A witness u -> v walks back from v
    through the BFS layers around u, always to the least neighbour one layer
    closer to u.
    """
    powered = power_graph(g, d)
    adj = g.neighbor_masks()
    witness: dict[tuple[int, int], Path] = {}
    for u in range(g.n):
        layers = mask_layers(adj, 1 << u, -1, 0, d)  # layers[r]: the vertices at distance r from u
        for r in range(1, len(layers)):
            for v in mask_members(layers[r] & -(2 << u)):  # -(2 << u): the ids above u
                witness[(u, v)] = walk_back(adj, layers[:r + 1], v)
    return PowerGraphMap(base=g, d=d, powered=powered, witness=witness)


def lift_path(pmap: PowerGraphMap, p_h: Path) -> Path:
    """A base-graph path with the same endpoints, inside the union of the
    witness paths of p_h's edges; its length is at most d times p_h's.
    Anything but a path of the powered graph (empty, an id outside it, a
    vertex twice, a pair that is no power edge) raises ValueError."""
    if not path_mask(pmap.powered, p_h):
        # has_edge raises GraphError, a ValueError, on an id outside the graph.
        q = _as_path(p_h)
        gaps = [e for e in zip(q, q[1:]) if not pmap.powered.has_edge(*e)]
        what = f"{gaps[0]} is not an edge" if gaps else f"{p_h!r} is not a path"
        raise ValueError(what + " of the powered graph")
    allowed: set[int] = set()
    for u, v in zip(p_h, p_h[1:]):
        allowed.update(pmap.witness_for(u, v))
    adj = pmap.base.neighbor_masks()
    start, goal = p_h[0], p_h[-1]
    layers = mask_layers(adj, 1 << start, to_mask(allowed), 1 << goal)
    if not layers[-1] >> goal & 1:
        raise ValueError(f"the witnesses of {p_h} do not connect {start} to {goal}")
    return walk_back(adj, layers, goal)
