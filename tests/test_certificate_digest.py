"""Byte-for-byte pins of the certificates emitted over the acceptance corpus,
of the verifier's reports on them, and of the brute-force oracles' answers
on fixed random instances."""

import hashlib
import json

from apaths import (
    SolveParams,
    max_anticomplete_packing_with_witness,
    oracle_max_anticomplete_packing,
    oracle_min_ball_cover,
    random_instance,
    solve,
    verify_certificate,
)
from apaths.cli import certificate_document, emit_certificate
from test_acceptance import ELLS, KS, corpus

CORPUS_CERTIFICATES_SHA256 = "df6bbfa8943a5e358c43458d3ceb70ed89ec5a059edf96f10fbc4fceb63d66fb"
CORPUS_REPORTS_SHA256 = "f0a0be34258b5a981130f223376ff66dac9c77cf1f5adfbdab69521b1738cfaf"
CORPUS_REPORTS_WITHOUT_PAIRS_SHA256 = "f575577ace03ba8cb14a9878c3524b0e59786f454eb1cdb8e00895c48338ccb1"
ORACLE_ANSWERS_SHA256 = "0d175d77db7456b03c8637b8a3eba16af1f03551c60acd4cb0f29fd22b85b480"
ORACLE_VALUES_SHA256 = "7205c959f2abbbd3f1250a6080000eaf61be1633178a2b565fcf474783853df4"


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


def corpus_reports():
    """The verify_certificate report of every corpus instance's certificate
    at k, ell in 1..3, in corpus order, each as its to_dict()."""
    for g, a in corpus():
        for k in KS:
            for ell in ELLS:
                params = SolveParams(k, ell)
                yield verify_certificate(g, a, params, solve(g, a, params)).to_dict()


def reports_digest(docs) -> str:
    """sha256 over the reports, each as JSON with sorted keys plus a newline."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def test_corpus_reports_are_pinned():
    """sha256 over every corpus report.

    The reports name every check with its verdict and witness, so a change
    to what the verifier checks or reports moves this digest.
    """
    assert reports_digest(corpus_reports()) == CORPUS_REPORTS_SHA256


def test_corpus_reports_without_pair_checks_are_pinned():
    """sha256 over every corpus report with each check whose name starts
    with "pair" dropped: the count and the per-path checks, and for a cover
    every check.

    Only how anti-completeness is reported may move CORPUS_REPORTS_SHA256
    while this digest holds.
    """
    docs = (
        dict(doc, checks=[c for c in doc["checks"] if not c["name"].startswith("pair")])
        for doc in corpus_reports()
    )
    assert reports_digest(docs) == CORPUS_REPORTS_WITHOUT_PAIRS_SHA256


def oracle_lines():
    """The oracles' answers on 48 fixed random instances at ell in 1..3, one
    line each: the ball cover (|Z| and Z) at r = 0 and 1, the packing count
    and witness at cap 3, and the count-only packing oracle at cap 3.

    The instances are those of the benchmark's oracle workload: n 11 and 12,
    edge probability 0.25 and 0.4, terminal probability 0.6, 12 of each, the
    shape's index as the seed.
    """
    shapes = [(n, p) for n in (11, 12) for p in (0.25, 0.4) for _ in range(12)]
    for seed, (n, p) in enumerate(shapes):
        g, a = random_instance(n, p, 0.6, seed)
        for ell in (1, 2, 3):
            for r in (0, 1):
                size, z = oracle_min_ball_cover(g, a, ell, r)
                yield ["cover", ell, r, size, sorted(z)]
            count, witness = max_anticomplete_packing_with_witness(g, a, ell, 3)
            yield ["packing", ell, count, [list(q) for q in witness]]
            yield ["count", ell, oracle_max_anticomplete_packing(g, a, ell, 3)]


def json_lines_digest(lines) -> str:
    """sha256 over the lines, each as JSON plus a newline."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update((json.dumps(line) + "\n").encode())
    return digest.hexdigest()


def test_oracle_answers_are_pinned():
    """sha256 over every line of oracle_lines, witnesses included.

    The oracles may search fewer paths, but their answers must not move.
    A deliberate change to which family a witness names moves this digest
    alone (see test_oracle_values_are_pinned) and is recorded, with why,
    in CHANGES.md.
    """
    assert json_lines_digest(oracle_lines()) == ORACLE_ANSWERS_SHA256


def test_oracle_values_are_pinned():
    """sha256 over oracle_lines with each packing witness dropped: every
    cover, and both packing oracles' counts.

    The counts and covers are the oracles' mathematical values, so no
    change of search, witness choice included, may move this digest.
    """
    assert json_lines_digest(line[:3] if line[0] == "packing" else line for line in oracle_lines()) == (
        ORACLE_VALUES_SHA256
    )
