#!/usr/bin/env python3
"""Tour of the graph primitives: balls, set distances, anti-completeness,
induced subgraphs, and graph powers.

Run from the repository root:  python demos/01_graph_primitives.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apaths import (
    Graph,
    anti_complete,
    ball,
    components,
    dist,
    induced_subgraph,
    is_induced_path,
    power_graph,
)

# A 9-cycle: the running example throughout these demos.
c9 = Graph(9, [(i, (i + 1) % 9) for i in range(9)])
print("C9:", c9)

print("\n-- balls grow one BFS layer at a time --")
for r in range(4):
    print(f"  N[{{0}}, {r}] = {sorted(ball(c9, {0}, r))}")

print("\n-- set-to-set distance --")
print("  dist({0}, {4,5}) =", dist(c9, {0}, {4, 5}))
print("  dist({0}, {0})   =", dist(c9, {0}, {0}))
print("  dist in a split graph =", dist(Graph(2, []), {0}, {1}))

print("\n-- anti-complete means disjoint with no crossing edge --")
print("  {0,1} vs {4,5}:", anti_complete(c9, {0, 1}, {4, 5}))
print("  {0,1} vs {2,3}:", anti_complete(c9, {0, 1}, {2, 3}), "(edge 1-2 crosses)")
print("  {0} vs {2}:    ", anti_complete(c9, {0}, {2}), "(distance 2 is enough)")

print("\n-- induced subgraphs keep the host's vertex ids --")
arc, members = induced_subgraph(c9, {0, 1, 2, 3})
print("  C9[{0..3}] has", arc.edge_count, "edges on members", members, "of", arc.n, "ids")
rest, _ = induced_subgraph(c9, set(range(4, 9)))
print("  C9 minus the arc {0..3}:", [sorted(c) for c in components(rest)])
print("  (the deleted ids 0..3 stay, isolated, so paths found here speak C9's ids)")

print("\n-- chordless paths --")
print("  (0,1,2,3) induced in C9:", is_induced_path(c9, (0, 1, 2, 3)))
triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
print("  (0,1,2) induced in K3:  ", is_induced_path(triangle, (0, 1, 2)), "(chord 0-2)")

print("\n-- graph powers contract distances --")
cube = power_graph(c9, 3)
print("  C9^3: every vertex now has degree", cube.degree(0))
print("  dist_C9(0, 4) =", dist(c9, {0}, {4}), " dist_C9^3(0, 4) =", dist(cube, {0}, {4}))
