"""Independent certificate verification.

Nothing here trusts the solver: balls, induced subgraphs, and path searches
are recomputed from the raw certificate against the original instance.
Reports are structured per-check data with witnesses, so a failing test names
exactly what broke instead of returning a bare boolean.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .generators import complete_instance, subdivided_complete_instance
from .graph import (
    Graph,
    GraphError,
    Path,
    _kept_subgraph,
    _need_int,
    _packing_checks,
    mask_ball,
    vertex_mask,
)
from .search import (
    _Budget,
    find_induced_apath_in_range,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
)
from .solver import Certificate, Packing, SolveParams


class Check(NamedTuple):
    name: str
    ok: bool
    witness: object = None

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = "" if self.ok or self.witness is None else f" witness={self.witness!r}"
        return f"{self.name}: {status}{extra}"


@dataclass
class Report:
    kind: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, witness: object = None) -> None:
        self.checks.append(Check(name, bool(ok), witness))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        """The report as plain data, each witness handed on as it is."""
        return {
            "kind": self.kind,
            "passed": self.passed,
            "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in self.checks],
        }


def verify_packing(
    g: Graph,
    a: Iterable[int] | int,
    params: SolveParams,
    paths: Iterable[Path],
) -> Report:
    """Check a claimed packing: k paths, each a valid induced A-path of
    length >= ell, pairwise anti-complete; a is vertex ids or their mask.

    The count check, then graph._packing_checks on the terminals' mask."""
    terminals = vertex_mask(g, a)
    paths = list(paths)
    report = Report("packing")
    report.add("count", len(paths) == params.k, (len(paths), params.k))
    report.checks += [Check(*check) for check in _packing_checks(g, terminals, params.ell, paths)]
    return report


def _removal_check(
    g: Graph,
    terminals: int,
    removed: int,
    ell: int,
    budget: _Budget,
) -> tuple[bool, Path | None]:
    """Search g minus the vertex mask removed (g itself if none) for a long induced A-path."""
    h = _kept_subgraph(g, ~removed) if removed else g
    witness = find_induced_apath_in_range(h, terminals & ~removed, (ell, None), budget)
    return witness is None, witness


def verify_cover(
    g: Graph,
    a: Iterable[int] | int,
    params: SolveParams,
    z1: Iterable[int] | int,
    z2: Iterable[int] | int,
) -> Report:
    """Check a claimed cover: size bounds, and long-induced-A-path freeness of
    the intersection removal plus both single-ball removals.

    The single-set checks are implied by the intersection form (removing a
    superset cannot recreate an induced path on surviving vertices), but all
    three are reported. Each distinct removed set is searched once, within
    this call, and its result is reported for every check that removes it.
    One budget of params.node_budget nodes bounds the distinct removal
    searches together. a, z1 and z2 are vertex ids or their masks. A z1 or
    z2 that is no vertex set of g fails one check instead of its size check,
    z1.in_graph or z2.in_graph, with its entries that are no vertex of g (or
    the mask, or the argument itself) as the witness, and then no removal is
    searched.
    """
    terminals = vertex_mask(g, a)
    report = Report("cover")
    masks = []
    for name, z, limit in (("z1", z1, params.z1_limit()), ("z2", z2, params.z2_limit())):
        z = tuple(z) if isinstance(z, Iterator) else z  # an iterator is read once
        try:
            mask = vertex_mask(g, z)
        except GraphError:
            if type(z) is int or not isinstance(z, Iterable):
                outside = z
            else:
                outside = sorted(v for v in z if type(v) is int and not 0 <= v < g.n)
                outside += [v for v in z if type(v) is not int]
            report.add(f"{name}.in_graph", False, outside)
            continue
        masks.append(mask)
        report.add(f"{name}.size", mask.bit_count() <= limit, (mask.bit_count(), limit))
    if len(masks) < 2:
        return report
    z1_mask, z2_mask = masks
    shared = _Budget(params.node_budget, "verify_cover")
    adj = g.neighbor_masks()
    b1 = mask_ball(adj, z1_mask, -1, 1)
    b2 = mask_ball(adj, z2_mask, -1, params.cover_radius())
    results: dict[int, tuple[bool, Path | None]] = {}
    for name, removed in (
        ("intersection.removal", b1 & b2),
        ("z1.removal", b1),
        ("z2.removal", b2),
    ):
        if removed not in results:
            results[removed] = _removal_check(g, terminals, removed, params.ell, shared)
        report.add(f"{name}.path_free", *results[removed])
    return report


def verify_certificate(
    g: Graph,
    a: Iterable[int] | int,
    params: SolveParams,
    cert: Certificate,
) -> Report:
    """Dispatch on the certificate kind, for a as ids or a mask; also pins the cover radii."""
    if isinstance(cert, Packing):
        return verify_packing(g, a, params, cert.paths)
    report = verify_cover(g, a, params, cert.z1, cert.z2)
    radii = (cert.r1, cert.r2)
    report.add("radii", radii == (1, params.cover_radius()) and type(cert.r1) is type(cert.r2) is int, radii)
    return report


def verify_tightness_claims(kind: str, n_or_k: int, r: int = 0) -> Report:
    """Brute-force the two extremal families.

    kind="complete": K_n with all vertices terminal has packing number 1 and
    needs n-1 deletions (radius 0) to kill every A-path, so radius-1 balls
    are necessary for a count of the form c*(k-1).

    kind="subdivided": the complete graph on 2k-1 branch vertices with each
    edge subdivided into a path of length 3r has no 2 anti-complete A-paths
    and no radius-r cover of size 2k-3, so 2k-2 balls are within a factor two
    of the 4(k-1) bound.
    """
    report = Report(f"tightness.{kind}")
    _need_int("r", r, 0)
    if kind == "complete":
        n = n_or_k
        _need_int("n", n, 2)
        g, a = complete_instance(n)
        packing = oracle_max_anticomplete_packing(g, a, ell=1, cap=2)
        report.add("max_anticomplete_packing", packing == 1, packing)
        size, z = oracle_min_ball_cover(g, a, ell=1, r=0)
        report.add("min_radius0_cover", size == n - 1, (size, sorted(z)))
    elif kind == "subdivided":
        k = n_or_k
        _need_int("k", k, 2)
        g, a = subdivided_complete_instance(k, r)
        packing = oracle_max_anticomplete_packing(g, a, ell=1, cap=k)
        report.add("max_anticomplete_packing", packing < k, packing)
        size, z = oracle_min_ball_cover(g, a, ell=1, r=r)
        report.add("min_cover_exceeds_2k_minus_3", size > 2 * k - 3, (size, sorted(z)))
    else:
        raise ValueError(f"unknown tightness family {kind!r}")
    return report
