"""Byte-for-byte pins of the certificates emitted over the acceptance corpus,
and of the verifier's reports on them."""

import hashlib
import json

from apaths import SolveParams, solve, verify_certificate
from apaths.cli import certificate_document, emit_certificate
from test_acceptance import ELLS, KS, corpus

CORPUS_CERTIFICATES_SHA256 = "df6bbfa8943a5e358c43458d3ceb70ed89ec5a059edf96f10fbc4fceb63d66fb"
CORPUS_REPORTS_SHA256 = "7dfed217c5889845c50acb883fc30c9788b76958e3cafa8c0e31197f5c166475"


def test_corpus_certificates_are_pinned():
    """sha256 over the emitted certificate document of every corpus instance
    at k, ell in 1..3, in corpus order.

    A refactor must leave this digest unchanged. A deliberate change to what
    the solver emits updates the digest here and records the change, and why,
    in CHANGES.md.
    """
    digest = hashlib.sha256()
    for g, a in corpus():
        for k in KS:
            for ell in ELLS:
                params = SolveParams(k, ell)
                doc = certificate_document(g, a, params, solve(g, a, params))
                digest.update(emit_certificate(doc).encode())
    assert digest.hexdigest() == CORPUS_CERTIFICATES_SHA256


def test_corpus_reports_are_pinned():
    """sha256 over the verify_certificate report of every corpus instance's
    certificate at k, ell in 1..3, in corpus order: each report's to_dict()
    as JSON with sorted keys, one line each.

    The reports name every check with its verdict and witness, so a change
    to what the verifier checks or reports moves this digest.
    """
    digest = hashlib.sha256()
    for g, a in corpus():
        for k in KS:
            for ell in ELLS:
                params = SolveParams(k, ell)
                report = verify_certificate(g, a, params, solve(g, a, params))
                digest.update((json.dumps(report.to_dict(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CORPUS_REPORTS_SHA256
