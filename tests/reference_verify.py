"""Frozen reference for the verifier's differential tests: verify_cover as it
ran one removal search per check, three per cover, even when two or three
checks remove the same vertex set. Kept verbatim in behaviour.

reference_verify_cover and reference_verify_certificate take the same
arguments as apaths.verify_cover and apaths.verify_certificate and return a
Report. They call the live ball, induced subgraph and search, which the
engine tests guard; what is frozen here is the loop over the three removal
checks. Do not optimise it: its whole value is that it does not change.
"""

from __future__ import annotations

from apaths.graph import ball, induced_subgraph
from brute import check_vertex_set
from apaths.search import DEFAULT_BUDGET, _Budget, LengthRange, find_induced_apath_in_range
from apaths.solver import Packing
from apaths.verify import Report, verify_packing


def _reference_removal_check(g, a_set, removed, ell, budget):
    h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
    witness = find_induced_apath_in_range(h, a_set - removed, LengthRange(ell, None), budget)
    return witness is None, witness


def reference_verify_cover(g, a, params, z1, z2, budget=DEFAULT_BUDGET) -> Report:
    a_set = check_vertex_set(g, a)
    z1_set = check_vertex_set(g, z1)
    z2_set = check_vertex_set(g, z2)
    report = Report("cover")
    report.add("z1.size", len(z1_set) <= params.z1_limit(), (len(z1_set), params.z1_limit()))
    report.add("z2.size", len(z2_set) <= params.z2_limit(), (len(z2_set), params.z2_limit()))
    radius = params.cover_radius()
    shared = _Budget(budget, "verify_cover")
    b1 = ball(g, z1_set, 1)
    b2 = ball(g, z2_set, radius)
    for name, removed in (
        ("intersection.removal", b1 & b2),
        ("z1.removal", b1),
        ("z2.removal", b2),
    ):
        ok, witness = _reference_removal_check(g, a_set, removed, params.ell, shared)
        report.add(f"{name}.path_free", ok, witness)
    return report


def reference_verify_certificate(g, a, params, cert, budget=DEFAULT_BUDGET) -> Report:
    if isinstance(cert, Packing):
        return verify_packing(g, a, params, cert.paths)
    report = reference_verify_cover(g, a, params, cert.z1, cert.z2, budget)
    report.add("radii", cert.r1 == 1 and cert.r2 == params.cover_radius(), (cert.r1, cert.r2))
    return report
