"""Frozen reference for the verifier's differential tests.

reference_verify_cover is verify_cover as it ran one removal search per
check, three per cover, even when two or three checks remove the same
vertex set. reference_verify_packing is verify_packing as it checked each
path with is_path and is_induced_path and every pair with anti_complete,
before each path was checked once, into its mask; its is_path and
is_induced_path are the frozen copies in brute.py. Kept verbatim in
behaviour.

reference_verify_packing, reference_verify_cover and
reference_verify_certificate take the same arguments as
apaths.verify_packing, apaths.verify_cover and apaths.verify_certificate
and return a Report. They call the live ball, anti_complete, induced
subgraph and search, which the graph and engine tests guard; what is frozen
here is the loop over the checks. Do not optimise it: its whole value is
that it does not change.
"""

from __future__ import annotations

from apaths.graph import anti_complete, ball, induced_subgraph, vertex_mask
from brute import check_vertex_set, is_induced_path, is_path
from apaths.search import DEFAULT_BUDGET, _Budget, find_induced_apath_in_range
from apaths.solver import Packing
from apaths.verify import Report


def reference_verify_packing(g, a, params, paths) -> Report:
    terminals = vertex_mask(g, a)
    paths = [tuple(p) for p in paths]
    valid = [is_path(g, p) for p in paths]
    report = Report("packing")
    report.add("count", len(paths) == params.k, (len(paths), params.k))
    for i, p in enumerate(paths):
        report.add(f"path[{i}].valid", valid[i], p)
        report.add(f"path[{i}].induced", is_induced_path(g, p), p)
        report.add(
            f"path[{i}].endpoints_in_terminals",
            len(p) >= 2 and all(0 <= v < g.n and terminals >> v & 1 for v in (p[0], p[-1])),
            (p[0], p[-1]) if p else (),
        )
        report.add(f"path[{i}].length", len(p) - 1 >= params.ell, len(p) - 1)
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            report.add(
                f"pair[{i},{j}].anti_complete",
                valid[i] and valid[j] and anti_complete(g, paths[i], paths[j]),
                (paths[i], paths[j]),
            )
    return report


def _reference_removal_check(g, a_set, removed, ell, budget):
    h, _ = induced_subgraph(g, [v for v in range(g.n) if v not in removed])
    witness = find_induced_apath_in_range(h, a_set - removed, (ell, None), budget)
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
        return reference_verify_packing(g, a, params, cert.paths)
    report = reference_verify_cover(g, a, params, cert.z1, cert.z2, budget)
    report.add("radii", cert.r1 == 1 and cert.r2 == params.cover_radius(), (cert.r1, cert.r2))
    return report
