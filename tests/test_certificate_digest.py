"""Byte-for-byte pin of the certificates emitted over the acceptance corpus."""

import hashlib

from apaths import SolveParams, solve
from apaths.cli import certificate_document, emit_certificate
from test_acceptance import ELLS, KS, corpus

CORPUS_CERTIFICATES_SHA256 = "df6bbfa8943a5e358c43458d3ceb70ed89ec5a059edf96f10fbc4fceb63d66fb"


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
