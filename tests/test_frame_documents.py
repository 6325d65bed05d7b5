"""Byte-for-byte pin of every frame the solver passes through.

The corpus digest sees only certificates. This one hashes the --dump-frames
document of every frame that solve() hands its frame_observer (leaves, hubs,
F, tree edges, Y and Y~), so a change to how any of those sets is derived
shows up even where the certificate stays the same.
"""

import hashlib
import json

from apaths import SolveParams, caterpillar_instance, solve
from apaths.cli import _frame_document
from test_solver import SPIDER_SEEDS, spider_instance

# (graph, terminals, k, ell): the caterpillars at ell 3 and k = legs // 2 + 1,
# where the frame takes in every leg and the solve covers, and the spiders of
# TestFrameHeavyInstances at every k and ell that test solves them.
RUNS = [(*caterpillar_instance(legs, legs), legs // 2 + 1, 3) for legs in range(4, 26)]
RUNS += [(*spider_instance(seed), k, ell) for seed in SPIDER_SEEDS for k in (2, 3) for ell in (1, 2, 3)]

FRAME_DOCUMENTS = 431
FRAME_DOCUMENTS_SHA256 = "36071a4514cab7d6acf5a913dc20a7d6630c35949807edca09d1f089d10f8dd0"


def test_frame_documents_are_pinned():
    """sha256 over one JSON line per observed frame, in solve order."""
    digest = hashlib.sha256()
    frames = 0
    for g, a, k, ell in RUNS:
        observed = []
        solve(g, a, SolveParams(k, ell), frame_observer=observed.append)
        for fr in observed:
            digest.update((json.dumps(_frame_document(fr), sort_keys=True) + "\n").encode())
        frames += len(observed)
    assert (frames, digest.hexdigest()) == (FRAME_DOCUMENTS, FRAME_DOCUMENTS_SHA256)
