"""Command-line entry point: formats, modes, and structured output.

Graph input is a line-oriented text format, with numbers in ASCII digits:

    p <n>        vertex count, first non-comment line, at most MAX_VERTICES
    e <u> <v>    undirected edge, 0-based, u != v, duplicates rejected
    a <v>        marks v as a terminal
    c ...        comment

Certificates are JSON documents that reference original input vertex ids
only, so third parties can re-check them without touching solver internals.
Exit codes: 0 success/pass, 1 verification fail, 2 malformed input,
3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Iterable, TextIO

from .frame import Frame
from .generators import (
    complete_instance,
    random_instance,
    random_subcubic_tree,
    subdivided_complete_instance,
)
from .graph import Graph, GraphError, VertexSet, mask_members, vertex_mask
from .search import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    max_anticomplete_packing_with_witness,
    oracle_min_ball_cover,
)
from .solver import Certificate, Cover, Packing, SolveParams, reduce_to_d3, solve
from .verify import verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

# Mask adjacency takes up to n^2/8 bytes, so larger counts are refused
# before anything is allocated for them.
MAX_VERTICES = 10_000


class GraphFormatError(ValueError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CertificateFormatError(ValueError):
    pass


def parse_graph(text: str) -> tuple[Graph, VertexSet]:
    """Parse the line format above into (graph, terminal set)."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    terminals: set[int] = set()

    def need_vertex(value: str, line_no: int) -> int:
        if not (value.isascii() and value.isdigit()) or len(value) > 4000:  # int() also reads "1_0" and "+1"
            raise GraphFormatError(line_no, f"expected a vertex id, got {value!r}")
        v = int(value)
        if n is None or not 0 <= v < n:
            raise GraphFormatError(line_no, f"vertex {v} out of range for p {n}")
        return v

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag, args = fields[0], fields[1:]
        if tag == "p":
            if n is not None:
                raise GraphFormatError(line_no, "duplicate p line")
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise GraphFormatError(line_no, "p line must be 'p <n>'")
            try:
                n = int(args[0])
            except ValueError:  # more digits than int() converts
                raise GraphFormatError(line_no, "vertex count too long")
            if n > MAX_VERTICES:
                raise GraphFormatError(line_no, f"vertex count {n} exceeds {MAX_VERTICES}")
        elif tag == "e":
            if n is None:
                raise GraphFormatError(line_no, "e line before p line")
            if len(args) != 2:
                raise GraphFormatError(line_no, "e line must be 'e <u> <v>'")
            u, v = (need_vertex(x, line_no) for x in args)
            if u == v:
                raise GraphFormatError(line_no, f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise GraphFormatError(line_no, f"duplicate edge {u} {v}")
            seen_edges.add(key)
            edges.append(key)
        elif tag == "a":
            if n is None:
                raise GraphFormatError(line_no, "a line before p line")
            if len(args) != 1:
                raise GraphFormatError(line_no, "a line must be 'a <v>'")
            terminals.add(need_vertex(args[0], line_no))
        else:
            raise GraphFormatError(line_no, f"unknown line tag {tag!r}")
    if n is None:
        raise GraphFormatError(0, "missing p line")
    return Graph(n, edges), frozenset(terminals)


def emit_graph(g: Graph, a: Iterable[int] | int = ()) -> str:
    """Deterministic text for a graph plus terminal set, given as vertex ids
    or as their mask; parse round-trips it."""
    lines = [f"p {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    lines.extend(f"a {v}" for v in mask_members(vertex_mask(g, a)))
    return "\n".join(lines) + "\n"


def instance_digest(g: Graph, a: VertexSet, params: SolveParams) -> dict:
    return {
        "vertices": g.n,
        "edges": g.edge_count,
        "terminals": len(a),
        "k": params.k,
        "ell": params.ell,
    }


def certificate_document(
    g: Graph, a: VertexSet, params: SolveParams, cert: Certificate
) -> dict:
    doc: dict = {"instance": instance_digest(g, a, params)}
    if isinstance(cert, Packing):
        doc["kind"] = "packing"
        doc["paths"] = [list(p) for p in cert.paths]
    else:
        doc["kind"] = "cover"
        doc["z1"] = sorted(cert.z1)
        doc["z2"] = sorted(cert.z2)
        doc["r1"] = cert.r1
        doc["r2"] = cert.r2
        doc["bounds"] = {
            "z1_size": len(cert.z1),
            "z1_limit": params.z1_limit(),
            "z2_size": len(cert.z2),
            "z2_limit": params.z2_limit(),
        }
    return doc


def emit_certificate(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _integer(value: object, field: str) -> int:
    """value, checked to be an integer (not a bool, float or string)."""
    if type(value) is not int:
        raise CertificateFormatError(f"{field} must be an integer, got {value!r}")
    return value


def _vertex_ids(value: object, field: str) -> list[int]:
    """value, checked to be a list of integer vertex ids."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise CertificateFormatError(f"{field} must be a list of integer vertex ids, got {value!r}")
    return value


def parse_certificate(text: str) -> tuple[dict, SolveParams, Certificate]:
    """Read a certificate document back into (document, params, certificate)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    try:
        inst = doc["instance"]
        params = SolveParams(k=_integer(inst["k"], "instance.k"), ell=_integer(inst["ell"], "instance.ell"))
        for key in ("vertices", "edges", "terminals"):
            _integer(inst[key], f"instance.{key}")
        if doc["kind"] == "packing":
            if not isinstance(doc["paths"], list):
                raise CertificateFormatError(f"paths must be a list, got {doc['paths']!r}")
            paths = tuple(tuple(_vertex_ids(p, "each path")) for p in doc["paths"])
            if not all(paths):
                raise CertificateFormatError("each path needs at least one vertex")
            cert: Certificate = Packing(paths)
        elif doc["kind"] == "cover":
            cert = Cover(
                z1=frozenset(_vertex_ids(doc["z1"], "z1")),
                z2=frozenset(_vertex_ids(doc["z2"], "z2")),
                r1=_integer(doc["r1"], "r1"),
                r2=_integer(doc["r2"], "r2"),
            )
        else:
            raise CertificateFormatError(f"unknown certificate kind {doc['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
    return doc, params, cert


def _frame_document(fr: Frame) -> dict:
    return {
        "leaves": mask_members(fr.a_f),
        "hubs": mask_members(fr.hubs),
        "frame_vertices": mask_members(fr.f),
        "tree_edges": sorted(map(list, fr.tree_edges)),
        "y": mask_members(fr.y),
        "y_tilde": mask_members(fr.y_tilde),
    }


def _read_graph_file(path: str) -> tuple[Graph, VertexSet]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_graph(f.read())


def _cmd_solve(args, out: TextIO) -> int:
    g, a = _read_graph_file(args.input)
    params = SolveParams(k=args.k, ell=args.ell, node_budget=args.budget)
    observer = None
    if args.dump_frames:
        observer = lambda fr: print(  # noqa: E731
            json.dumps(_frame_document(fr), sort_keys=True), file=sys.stderr
        )
    cert = solve(g, a, params, frame_observer=observer)
    out.write(emit_certificate(certificate_document(g, a, params, cert)))
    return EXIT_OK


def _cmd_verify(args, out: TextIO) -> int:
    g, a = _read_graph_file(args.input)
    with open(args.cert, "r", encoding="utf-8") as f:
        doc, params, cert = parse_certificate(f.read())
    params = replace(params, node_budget=args.budget)
    inst = doc["instance"]
    digest = instance_digest(g, a, params)
    report = verify_certificate(g, a, params, cert)
    for key in ("vertices", "edges", "terminals"):
        report.add(f"instance.{key}", inst[key] == digest[key], (inst[key], digest[key]))
    out.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_oracle(args, out: TextIO) -> int:
    g, a = _read_graph_file(args.input)
    if args.packing:
        value, witness = max_anticomplete_packing_with_witness(
            g, a, ell=args.ell, cap=args.cap, budget=args.budget
        )
        doc = {
            "oracle": "max_anticomplete_packing",
            "ell": args.ell,
            "cap": args.cap,
            "value": value,
            "witness": [list(p) for p in witness],
        }
    else:
        size, z = oracle_min_ball_cover(g, a, ell=args.ell, r=args.radius, budget=args.budget)
        doc = {
            "oracle": "min_ball_cover",
            "ell": args.ell,
            "radius": args.radius,
            "value": size,
            "witness": sorted(z),
        }
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_gen(args, out: TextIO) -> int:
    # The vertex count is worked out first: nothing parse_graph refuses is built.
    if args.subdivided is not None:
        k, r = args.subdivided
        b = 2 * k - 1  # branch vertices, each pair joined through 3r - 1 more
        n = b + b * (b - 1) // 2 * (3 * r - 1) if k >= 2 and r >= 1 else 0  # else the generator refuses
    else:
        n = int((args.random or args.subcubic_tree or [args.complete])[0])
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    if args.complete is not None:
        g, a = complete_instance(args.complete)
    elif args.subdivided is not None:
        g, a = subdivided_complete_instance(*args.subdivided)
    elif args.random is not None:
        n, p, q, seed = args.random
        g, a = random_instance(int(n), float(p), float(q), int(seed))
    else:
        n, seed = args.subcubic_tree
        edges, leaves = random_subcubic_tree(int(n), int(seed))
        g, a = Graph(int(n), edges), leaves
    out.write(emit_graph(g, a))
    return EXIT_OK


def _cmd_reduce(args, out: TextIO) -> int:
    g, a = _read_graph_file(args.input)
    pmap = reduce_to_d3(g, args.d)
    out.write(f"c power graph, d={args.d}\n")
    out.write(emit_graph(pmap.powered, a))
    for (u, v), path in sorted(pmap.witness.items()):
        out.write(f"c witness {u} {v} : {' '.join(map(str, path))}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apaths",
        description="Packing/covering certificates for long induced A-paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="produce a packing or cover certificate")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--ell", type=int, required=True)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_solve.add_argument("--dump-frames", action="store_true")
    p_solve.set_defaults(handler=_cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check a certificate from scratch")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--cert", required=True)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.set_defaults(handler=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force ground truth on small instances")
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--ell", type=int, required=True)
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mode = p_oracle.add_mutually_exclusive_group(required=True)
    mode.add_argument("--packing", action="store_true")
    mode.add_argument("--cover", action="store_true")
    p_oracle.add_argument("--cap", type=int, default=4)
    p_oracle.add_argument("--radius", type=int, default=0)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="emit an instance in the graph format")
    family = p_gen.add_mutually_exclusive_group(required=True)
    family.add_argument("--complete", type=int, metavar="N")
    family.add_argument("--subdivided", type=int, nargs=2, metavar=("K", "R"))
    family.add_argument("--random", nargs=4, metavar=("N", "P", "Q", "SEED"))
    family.add_argument("--subcubic-tree", nargs=2, metavar=("N", "SEED"))
    p_gen.set_defaults(handler=_cmd_gen)

    p_reduce = sub.add_parser("reduce", help="power graph with witness paths")
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--d", type=int, required=True)
    p_reduce.set_defaults(handler=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except (GraphFormatError, CertificateFormatError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
