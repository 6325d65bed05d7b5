#!/usr/bin/env python3
"""The full dichotomy: solve, verify, and the two single-set theorem forms.

Every certificate is re-checked from scratch by the independent verifier; at
ell = 1 the cover bounds specialise to |Z1| <= 78(k-1) with radius-1 balls
and |Z2| <= 4(k-1) with radius-4 balls, and the verifier's report already
holds each form: a size check and the removal of that ball family alone.

Run from the repository root:  python demos/04_dichotomy.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apaths import (
    Graph,
    Packing,
    SolveParams,
    complete_instance,
    random_instance,
    solve,
    subdivided_complete_instance,
    verify_certificate,
)


def demo(name, g, a, k, ell):
    params = SolveParams(k, ell)
    cert = solve(g, a, params)
    report = verify_certificate(g, a, params, cert)
    print(f"== {name}  (n={g.n}, |A|={len(a)}, k={k}, ell={ell}) ==")
    if isinstance(cert, Packing):
        print(f"  PACKING of {len(cert.paths)} pairwise anti-complete induced A-paths:")
        for p in cert.paths:
            print("   ", p)
    else:
        print(f"  COVER z1={sorted(cert.z1)} (radius {cert.r1}), "
              f"z2={sorted(cert.z2)} (radius {cert.r2})")
        print(f"  bounds: |z1| = {len(cert.z1)} <= {params.z1_limit()}, "
              f"|z2| = {len(cert.z2)} <= {params.z2_limit()}")
        if ell == 1:
            # Each single-set form is one ball family's size bound and removal.
            checks = {c.name: c.ok for c in report.checks}
            h78 = checks["z1.size"] and checks["z1.removal.path_free"]
            h4 = checks["z2.size"] and checks["z2.removal.path_free"] and checks["radii"]
            print(f"  single-set forms: 78(k-1)-version {h78}, 4-balls-version {h4}")
    print("  independent verification:", "PASS" if report.passed else "FAIL")
    print()


# complete graph: nothing to pack beyond one path, tiny cover
demo("complete graph", *complete_instance(5), k=2, ell=1)

# two far-apart edges: a packing
demo("two disjoint edges", Graph(4, [(0, 1), (2, 3)]), frozenset(range(4)), k=2, ell=1)

# the subdivided-clique extremal instance
g, a = subdivided_complete_instance(2, 2)
demo("subdivided K3 (r=2)", g, a, k=2, ell=4)

# a random instance at every k
g, a = random_instance(13, 0.25, 0.6, seed=11)
for k in (1, 2, 3):
    demo(f"random(13, 0.25, 0.6, seed=11)", g, a, k=k, ell=2)
