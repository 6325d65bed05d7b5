#!/usr/bin/env python3
"""Frame construction step by step: init on a shortest long induced A-path,
greedy extension along terminal-to-frame geodesics, and extraction of
pairwise anti-complete paths straight from the frame's subcubic tree, in the
host graph's own vertex ids. Each step only grows the tree; every other set
of the frame is derived from it.

Run from the repository root:  python demos/03_frames.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apaths import (
    Graph,
    anti_complete,
    extend_frame,
    extract_frame_paths,
    find_extension,
    init_frame,
    leaf_paths,
    validate_frame,
)
from apaths.graph import mask_members


def show(fr, label):
    # A frame holds only the host, the terminals, its tree and ell; leaves,
    # hubs, F, Y and Y~ are int bitmasks derived from the tree on first use.
    print(f"  {label}: tree edges={len(fr.tree_edges)} leaves={mask_members(fr.a_f)} "
          f"hubs={mask_members(fr.hubs)} |F|={fr.f.bit_count()} |Y|={fr.y.bit_count()} "
          f"|Y~|={fr.y_tilde.bit_count()} violations={validate_frame(fr)}")


# A length-12 path with terminals at both ends, plus two pendant terminals
# (13 and 18) attached by length-5 paths to interior vertices 4 and 8.
edges = [(i, i + 1) for i in range(12)]
edges += [(13, 14), (14, 15), (15, 16), (16, 17), (17, 4)]
edges += [(18, 19), (19, 20), (20, 21), (21, 22), (22, 8)]
g = Graph(23, edges)
a = frozenset({0, 12, 13, 18})

print("== growing a frame, one leaf per step ==")
fr = init_frame(g, a, ell=3)
show(fr, "init  ")
step = 1
while (p := find_extension(fr)) is not None:
    print(f"  extension {step}: {p}")
    fr = extend_frame(fr, p)
    show(fr, f"step {step}")
    step += 1
print("  no further terminal can reach the frame outside Y~: construction done")
print(f"  size claims: |hubs| = {fr.hubs.bit_count()} = p-2, "
      f"|Y| = {fr.y.bit_count()} <= (4*{fr.ell_hat}+14)*{fr.leaf_count}")

print("\n== extracting anti-complete long induced paths ==")
paths = extract_frame_paths(fr)
for p in paths:
    print("  path:", p, "length", len(p) - 1)
print("  pairwise anti-complete:",
      all(anti_complete(g, paths[i], paths[j])
          for i in range(len(paths)) for j in range(i + 1, len(paths))))

print("\n== the tree pairing on its own ==")
spider = [(4, 5), (0, 4), (1, 4), (2, 5), (3, 5)]
print("  double spider, leaves 0..3 ->", leaf_paths(spider, [0, 1, 2, 3]))
print("  bare path ->", leaf_paths([(0, 1), (1, 2)], [0, 2]))
