#!/usr/bin/env python3
"""Exact A-path search and the brute-force oracles, on the two extremal
families that pin down why the cover side needs balls, not bare vertices.

Run from the repository root:  python demos/02_search_and_oracles.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apaths import (
    complete_instance,
    find_induced_apath_in_range,
    has_long_induced_apath,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
    shortest_apath,
    shortest_long_induced_apath,
    subdivided_complete_instance,
)

print("== complete graphs: why radius-1 balls are necessary ==")
for n in (3, 5, 7):
    g, a = complete_instance(n)
    packing = oracle_max_anticomplete_packing(g, a, ell=1, cap=2)
    plain, _ = oracle_min_ball_cover(g, a, ell=1, r=0)
    balls, z = oracle_min_ball_cover(g, a, ell=1, r=1)
    print(
        f"  K_{n}: max anti-complete packing = {packing}, "
        f"plain deletion needs {plain} vertices, "
        f"radius-1 balls need {balls} (center {sorted(z)})"
    )
print("  -> a single number times (k-1) can never beat n-1 bare deletions")

print("\n== subdivided cliques: why one ball per k cannot suffice ==")
for k, r in ((2, 1), (2, 2), (3, 1), (3, 3)):
    g, a = subdivided_complete_instance(k, r)
    packing = oracle_max_anticomplete_packing(g, a, ell=1, cap=k)
    size, z = oracle_min_ball_cover(g, a, ell=1, r=r)
    print(
        f"  K_{2 * k - 1} with edges stretched to length {3 * r} ({g.n} vertices): "
        f"packing = {packing} < k = {k}, min radius-{r} cover = {size} > 2k-3 = {2 * k - 3}"
    )

print("\n== length-constrained induced searches ==")
g, a = subdivided_complete_instance(2, 1)
print("  shortest A-path in the 9-cycle instance:", shortest_apath(g, a))
print("  shortest induced A-path of length >= 3:", shortest_long_induced_apath(g, a, 3))
print("  any induced A-path of length in [4, 6]:",
      find_induced_apath_in_range(g, a, (4, 6)))
print("  exists one of length >= 7?", has_long_induced_apath(g, a, 7))

k5, a5 = complete_instance(5)
print("  K_5 has induced A-paths of length >= 2?", has_long_induced_apath(k5, a5, 2),
      "(every 2-edge path has a chord)")
