import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apaths import (
    Graph,
    GraphError,
    SolveParams,
    caterpillar_instance,
    cli,
    complete_instance,
    emit_graph,
    parse_graph,
    solve,
)
from apaths.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    MAX_VERTICES,
    CertificateFormatError,
    GraphFormatError,
    certificate_document,
    main,
    parse_certificate,
)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestParseGraph:
    def test_k2_with_terminals(self):
        g, a = parse_graph("p 2\ne 0 1\na 0\na 1\n")
        assert g == Graph(2, [(0, 1)]) and a == frozenset({0, 1})

    def test_single_vertex_no_terminals(self):
        g, a = parse_graph("p 1\n")
        assert g.n == 1 and a == frozenset()

    def test_out_of_range_names_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("p 3\ne 0 5\n")
        assert exc.value.line_no == 2

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p 3\ne 0 1\ne 1 0\n")

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p 3\ne 1 1\n")

    def test_rejects_missing_p(self):
        with pytest.raises(GraphFormatError):
            parse_graph("e 0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 2\na 0 1\n", "a line must be"),
            ("a 0\np 2\n", "a line before p line"),
            ("c no p line\n", "missing p line"),
            ("", "missing p line"),
        ],
        ids=["malformed-a", "a-before-p", "comment-only", "empty"],
    )
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)

    def test_comments_and_blanks_ignored(self):
        g, a = parse_graph("c hello\n\np 2\nc mid\ne 0 1\n")
        assert g.edge_count == 1

    def test_roundtrip(self):
        text = emit_graph(Graph(4, [(0, 2), (1, 3)]), {1, 2})
        g, a = parse_graph(text)
        assert emit_graph(g, a) == text

    @pytest.mark.parametrize(
        "a, members",
        [
            (0b0110, {1, 2}),
            ((), set()),
            (0, set()),
            (range(4), {0, 1, 2, 3}),
            (0b1111, {0, 1, 2, 3}),
        ],
    )
    def test_roundtrip_of_ids_and_masks(self, a, members):
        g0 = Graph(4, [(0, 2), (1, 3)])
        text = emit_graph(g0, a)
        g, parsed = parse_graph(text)
        assert (g, parsed) == (g0, members)
        assert emit_graph(g, parsed) == text

    @pytest.mark.parametrize("a", [{5}, {-1}, 0b1000, {1.0}, {True}, None])
    def test_emit_refuses_terminals_outside_the_graph(self, a):
        with pytest.raises(GraphError):
            emit_graph(Graph(3, [(0, 1)]), a)


class TestGen:
    def test_complete(self):
        code, out = run_cli(["gen", "--complete", "4"])
        assert code == EXIT_OK
        g, a = parse_graph(out)
        assert g.edge_count == 6 and len(a) == 4

    def test_subdivided(self):
        code, out = run_cli(["gen", "--subdivided", "2", "1"])
        assert code == EXIT_OK
        g, a = parse_graph(out)
        assert g.n == 9 and len(a) == 3

    def test_random_deterministic(self):
        _, out1 = run_cli(["gen", "--random", "10", "0.3", "0.5", "42"])
        _, out2 = run_cli(["gen", "--random", "10", "0.3", "0.5", "42"])
        assert out1 == out2

    def test_subcubic_tree(self):
        code, out = run_cli(["gen", "--subcubic-tree", "20", "3"])
        assert code == EXIT_OK
        g, a = parse_graph(out)
        assert g.n == 20 and g.edge_count == 19

    @pytest.mark.parametrize("family", [
        ["--complete", "20000"],
        ["--subdivided", "51", "1"],  # 101 branch vertices: 101**2 = 10,201 in all
        ["--subdivided", "3", "1000"],
        ["--random", "10001", "0.5", "0.5", "0"],
        ["--subcubic-tree", "10001", "0"],
    ])
    def test_refuses_counts_parse_graph_refuses_before_building(self, family, monkeypatch):
        def build(*args):
            raise AssertionError("the instance was built")

        for name in ("complete_instance", "subdivided_complete_instance",
                     "random_instance", "random_subcubic_tree"):
            monkeypatch.setattr(cli, name, build)
        code, out = run_cli(["gen", *family])
        assert code == EXIT_BAD_INPUT and out == ""

    def test_subdivided_at_the_limit(self):
        code, out = run_cli(["gen", "--subdivided", "50", "1"])
        assert code == EXIT_OK
        g, a = parse_graph(out)
        assert g.n == 99 ** 2 <= MAX_VERTICES and len(a) == 99


class TestSolveVerifyPipeline:
    def write(self, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    def test_solve_then_verify_cover(self, tmp_path):
        inp = self.write(tmp_path, "k5.graph", emit_graph(*complete_instance(5)))
        code, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "cover"
        assert doc["z1"] == [0, 1] and doc["r2"] == 4
        assert doc["bounds"]["z1_limit"] == 78
        cert_file = self.write(tmp_path, "k5.cert", out)
        code2, out2 = run_cli(["verify", "--input", inp, "--cert", cert_file])
        assert code2 == EXIT_OK
        assert json.loads(out2)["passed"] is True

    def test_solve_1500_vertex_path(self, tmp_path):
        # far longer than the interpreter's recursion limit
        g = Graph(1500, [(i, i + 1) for i in range(1499)])
        inp = self.write(tmp_path, "p1500.graph", emit_graph(g, {0, 1499}))
        code, out = run_cli(["solve", "--input", inp, "--k", "1", "--ell", "1499"])
        assert code == EXIT_OK
        assert json.loads(out)["paths"] == [list(range(1500))]

    def test_solve_peels_more_levels_than_the_recursion_limit(self, tmp_path):
        # 1,200 disjoint edges, every vertex a terminal: each level peels one
        # edge, so k = 1300 takes 1,201 levels and ends in a cover.
        g = Graph(2400, [(v, v + 1) for v in range(0, 2400, 2)])
        inp = self.write(tmp_path, "matching.graph", emit_graph(g, range(2400)))
        code, out = run_cli(["solve", "--input", inp, "--k", "1300", "--ell", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "cover" and doc["z1"] == list(range(2400))
        cert_file = self.write(tmp_path, "matching.cert", out)
        assert run_cli(["verify", "--input", inp, "--cert", cert_file])[0] == EXIT_OK

    def test_solve_then_verify_packing(self, tmp_path):
        inp = self.write(tmp_path, "m2.graph", "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n")
        code, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "packing" and doc["paths"] == [[0, 1], [2, 3]]
        cert_file = self.write(tmp_path, "m2.cert", out)
        assert run_cli(["verify", "--input", inp, "--cert", cert_file])[0] == EXIT_OK

    def test_verify_reports_four_checks_per_path_and_five_more(self, tmp_path):
        # 200 disjoint edges, every vertex a terminal, packed at k = 200: a
        # count, four checks per path, one anti-completeness check and the
        # three instance checks.
        g = Graph(400, [(v, v + 1) for v in range(0, 400, 2)])
        inp = self.write(tmp_path, "matching.graph", emit_graph(g, range(400)))
        code, out = run_cli(["solve", "--input", inp, "--k", "200", "--ell", "1"])
        assert code == EXIT_OK and json.loads(out)["kind"] == "packing"
        cert_file = self.write(tmp_path, "matching.cert", out)
        code, out = run_cli(["verify", "--input", inp, "--cert", cert_file])
        report = json.loads(out)
        assert code == EXIT_OK and report["passed"] is True
        assert len(report["checks"]) == 4 * 200 + 2 + 3
        assert {"name": "pairs.anti_complete", "ok": True, "witness": []} in report["checks"]

    def test_verify_rejects_tampered_cert(self, tmp_path):
        inp = self.write(tmp_path, "m2.graph", "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n")
        _, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        doc = json.loads(out)
        doc["paths"] = [[0, 1], [1, 2]]  # overlapping, and (1,2) is not an edge
        cert_file = self.write(tmp_path, "bad.cert", json.dumps(doc))
        code, out2 = run_cli(["verify", "--input", inp, "--cert", cert_file])
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out2)["passed"] is False

    @pytest.mark.parametrize("paths", [[[0, -1]], [[0, 4]], [[0, 1], [2, -1]], [[0, 1], [2, 4]]])
    def test_verify_fails_out_of_range_path_ids(self, tmp_path, paths):
        inp = self.write(tmp_path, "m2.graph", "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n")
        _, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        doc = json.loads(out)
        doc["instance"]["k"] = len(paths)
        doc["paths"] = paths
        cert_file = self.write(tmp_path, "bad.cert", json.dumps(doc))
        code, out2 = run_cli(["verify", "--input", inp, "--cert", cert_file])
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out2)["passed"] is False

    @pytest.mark.parametrize("key", ["z1", "z2"])
    def test_verify_fails_out_of_range_cover_ids(self, tmp_path, key):
        inp = self.write(tmp_path, "p4.graph", "p 4\ne 0 1\ne 1 2\ne 2 3\na 0\na 3\n")
        _, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        doc = json.loads(out)
        assert doc["kind"] == "cover"
        doc[key] = [99]
        cert_file = self.write(tmp_path, "bad.cert", json.dumps(doc))
        code, out2 = run_cli(["verify", "--input", inp, "--cert", cert_file])
        assert code == EXIT_VERIFY_FAIL
        report = json.loads(out2)
        assert report["passed"] is False
        assert [c for c in report["checks"] if not c["ok"]] == [
            {"name": f"{key}.in_graph", "ok": False, "witness": [99]}
        ]

    def test_certificate_roundtrip_byte_identical(self, tmp_path):
        from apaths.cli import certificate_document, emit_certificate

        inp = self.write(tmp_path, "k5.graph", emit_graph(*complete_instance(5)))
        _, out = run_cli(["solve", "--input", inp, "--k", "3", "--ell", "2"])
        doc, params, cert = parse_certificate(out)
        g, a = parse_graph(open(inp).read())
        assert emit_certificate(certificate_document(g, a, params, cert)) == out

    def test_dump_frames_writes_to_stderr(self, tmp_path, capsys):
        text = emit_graph(
            Graph(14, [(i, i + 1) for i in range(8)]
                  + [(9, 10), (10, 11), (11, 12), (12, 13), (13, 4)]),
            {0, 8, 9},
        )
        inp = self.write(tmp_path, "pendant.graph", text)
        code, _ = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "3", "--dump-frames"])
        assert code == EXIT_OK
        frames = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [len(f["leaves"]) for f in frames] == [2, 3]
        assert frames[1]["hubs"] == [4]


    @pytest.mark.parametrize("k,leaves", [(2, [2, 3, 4]), (7, list(range(2, 13)))])
    def test_dump_frames_stop_at_2k_leaves(self, tmp_path, capsys, k, leaves):
        # A 12-leg caterpillar packs 2 paths from a 4-leaf frame; at k = 7
        # the frame takes in every leg and the solve covers.
        inp = self.write(tmp_path, "cat12.graph", emit_graph(*caterpillar_instance(12, 0)))
        code, out = run_cli(["solve", "--input", inp, "--k", str(k), "--ell", "3", "--dump-frames"])
        assert code == EXIT_OK
        frames = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [len(f["leaves"]) for f in frames] == leaves
        assert json.loads(out)["kind"] == ("packing" if k == 2 else "cover")


class TestOracleCommand:
    def test_packing_oracle(self, tmp_path):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "1", "--packing", "--cap", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 1 and len(doc["witness"]) == 1

    def test_packing_witness_names_minimal_paths(self, tmp_path):
        # On the path 0-1-2-3 with terminals 0, 1, 3, the one long path at
        # ell 2 has terminal 1 two steps from 3, so the witness is 1-2-3.
        f = tmp_path / "p4.graph"
        f.write_text(emit_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), {0, 1, 3}))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "2", "--packing", "--cap", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 1 and doc["witness"] == [[1, 2, 3]]

    def test_cover_oracle(self, tmp_path):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "1", "--cover", "--radius", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 4

    def test_packing_oracle_chooses_more_paths_than_the_recursion_limit(self, tmp_path):
        # 1,200 disjoint edges, every vertex a terminal: the family search
        # goes 1,200 paths deep.
        f = tmp_path / "matching.graph"
        f.write_text(emit_graph(Graph(2400, [(v, v + 1) for v in range(0, 2400, 2)]), range(2400)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "1", "--packing", "--cap", "2000"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 1200 and doc["witness"] == [[v, v + 1] for v in range(0, 2400, 2)]

    @pytest.mark.parametrize("mode", [["--packing", "--cap", "2"], ["--cover", "--radius", "0"]])
    def test_ell_below_one_exits_2(self, tmp_path, mode):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "0", *mode])
        assert code == EXIT_BAD_INPUT and out == ""


class TestReduceCommand:
    def test_c9_d3(self, tmp_path):
        f = tmp_path / "c9.graph"
        f.write_text(emit_graph(Graph(9, [(i, (i + 1) % 9) for i in range(9)]), {0}))
        code, out = run_cli(["reduce", "--input", str(f), "--d", "3"])
        assert code == EXIT_OK
        g, a = parse_graph(out)
        assert all(g.degree(v) == 6 for v in range(9))
        witness_lines = [l for l in out.splitlines() if l.startswith("c witness")]
        assert len(witness_lines) == g.edge_count


class TestExitCodes:
    def test_malformed_input_exits_2(self, tmp_path):
        f = tmp_path / "bad.graph"
        f.write_text("p 3\ne 0 9\n")
        assert run_cli(["solve", "--input", str(f), "--k", "1", "--ell", "1"])[0] == EXIT_BAD_INPUT

    def test_vertex_count_above_the_bound_exits_2(self, tmp_path):
        f = tmp_path / "big.graph"
        f.write_text("p 10001\n")
        assert run_cli(["solve", "--input", str(f), "--k", "1", "--ell", "1"])[0] == EXIT_BAD_INPUT

    def test_missing_file_exits_2(self):
        assert run_cli(["solve", "--input", "/nonexistent", "--k", "1", "--ell", "1"])[0] == EXIT_BAD_INPUT

    def test_budget_exits_3(self, tmp_path, capsys):
        f = tmp_path / "big.graph"
        f.write_text(emit_graph(*complete_instance(9)))
        code, _ = run_cli(
            ["oracle", "--input", str(f), "--ell", "1", "--packing", "--cap", "3", "--budget", "5"]
        )
        assert code == EXIT_BUDGET
        # The error names the oracle that ran.
        assert capsys.readouterr().err.endswith("exhausted in max_anticomplete_packing_with_witness\n")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize(
        "mode",
        [["solve", "--k", "2", "--ell", "1"], ["oracle", "--ell", "1", "--packing"], ["oracle", "--ell", "1", "--cover"]],
        ids=["solve", "oracle-packing", "oracle-cover"],
    )
    def test_budget_below_one_exits_2(self, tmp_path, mode, budget):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        args = mode[:1] + ["--input", str(f)] + mode[1:] + ["--budget", budget]
        assert run_cli(args)[0] == EXIT_BAD_INPUT

    def test_bad_certificate_exits_2(self, tmp_path):
        g = tmp_path / "g.graph"
        g.write_text("p 2\ne 0 1\na 0\na 1\n")
        c = tmp_path / "c.cert"
        c.write_text("{not json")
        assert run_cli(["verify", "--input", str(g), "--cert", str(c)])[0] == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "doc",
        [
            {"instance": {"k": 1, "ell": 1}, "kind": "packing", "paths": [[0, 1]]},
            {"instance": {"k": 1, "ell": 1, "vertices": 2, "edges": 1, "terminals": 2},
             "kind": "packing", "paths": [["a", "b"]]},
            {"instance": {"k": 2, "ell": 1, "vertices": 2, "edges": 1, "terminals": 2},
             "kind": "cover", "z1": ["0"], "z2": [], "r1": 1, "r2": 4},
        ],
        ids=["no-counts", "string-path-ids", "string-cover-ids"],
    )
    def test_malformed_certificate_exits_2(self, tmp_path, doc):
        g = tmp_path / "g.graph"
        g.write_text("p 2\ne 0 1\na 0\na 1\n")
        c = tmp_path / "c.cert"
        c.write_text(json.dumps(doc))
        assert run_cli(["verify", "--input", str(g), "--cert", str(c)])[0] == EXIT_BAD_INPUT


def grid_text(side: int) -> str:
    """A side x side grid with its four corners as terminals."""
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    corners = {0, side - 1, side * (side - 1), side * side - 1}
    return emit_graph(Graph(side * side, edges), corners)


class TestVerifyBudget:
    def run_verify(self, tmp_path, budget: str | None) -> int:
        graph = tmp_path / "grid.graph"
        graph.write_text(grid_text(5))
        code, cert = run_cli(["solve", "--input", str(graph), "--k", "2", "--ell", "17"])
        assert code == EXIT_OK and json.loads(cert)["kind"] == "cover"
        cert_file = tmp_path / "grid.cert"
        cert_file.write_text(cert)
        args = ["verify", "--input", str(graph), "--cert", str(cert_file)]
        return run_cli(args + ([] if budget is None else ["--budget", budget]))[0]

    def test_default_budget_passes(self, tmp_path):
        assert self.run_verify(tmp_path, None) == EXIT_OK

    def test_small_budget_exits_3(self, tmp_path):
        # The empty cover removes the empty set in all three checks: one
        # search, which visits 539 paths of the grid.
        assert self.run_verify(tmp_path, "539") == EXIT_OK
        assert self.run_verify(tmp_path, "538") == EXIT_BUDGET

    def test_nonpositive_budget_exits_2(self, tmp_path):
        assert self.run_verify(tmp_path, "0") == EXIT_BAD_INPUT


# Valid documents to mutate: three graphs, and the certificate solved on
# each (a cover, then two packings).
BASE_GRAPHS = (
    emit_graph(*complete_instance(4)),
    "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n",
    emit_graph(Graph(6, [(i, i + 1) for i in range(5)]), {0, 2, 5}),
)
BASE_CERTS = tuple(
    (text, certificate_document(g, a, SolveParams(k, ell), solve(g, a, SolveParams(k, ell))))
    for text, k, ell in ((BASE_GRAPHS[0], 2, 1), (BASE_GRAPHS[1], 2, 1), (BASE_GRAPHS[2], 1, 2))
    for g, a in [parse_graph(text)]
)

# Tokens with signs, dots, letters of other line tags, and digits that
# str.isdigit accepts but int() does not ("²") or reads ("١").
junk_tokens = st.text(alphabet="0123456789-+.xeapc\u00b2\u0661", max_size=3)
junk_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


@st.composite
def mutated_graph_texts(draw) -> str:
    """A base graph with one to three lines dropped, duplicated, inserted
    or given a junk token."""
    lines = draw(st.sampled_from(BASE_GRAPHS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("drop", "duplicate", "insert", "retoken")))
        if op == "insert" or i == len(lines):
            lines.insert(i, " ".join(draw(st.lists(junk_tokens, min_size=1, max_size=4))))
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            tokens[j:j + 1] = [draw(junk_tokens)]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def mutated_certificates(draw) -> tuple[str, str]:
    """(graph text, certificate text): a base certificate with one to three
    values replaced by junk or deleted, and sometimes its text cut short."""
    graph, doc = draw(st.sampled_from(BASE_CERTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(junk_json)
            break
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return graph, text


def graph_well_formed(text: str) -> bool:
    """The graph format's rules, checked independently of parse_graph."""
    n = None
    edges = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        tag, args = fields[0], fields[1:]
        # Numbers are ASCII digits, so "1_0", "+1" and "\u0663" are none.
        if not all(x.isascii() and x.isdigit() and len(x) <= 4000 for x in args):
            return False
        if tag == "p":
            if n is not None or len(args) != 1:
                return False
            if int(args[0]) > 10_000:  # at most 10,000 vertices
                return False
            n = int(args[0])
            continue
        if n is None or tag not in ("e", "a") or len(args) != (2 if tag == "e" else 1):
            return False
        ids = [int(x) for x in args]
        if not all(0 <= v < n for v in ids):
            return False
        if tag == "e":
            key = frozenset(ids)
            if len(key) != 2 or key in edges:
                return False
            edges.add(key)
    return n is not None


def certificate_well_formed(text: str) -> bool:
    """The certificate schema, checked independently of parse_certificate:
    integer (not bool or float) counts and radii, 0 <= k, 1 <= ell, and
    lists of integer vertex ids, each packing path nonempty."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False

    def is_int(x) -> bool:
        return type(x) is int

    def ids(x) -> bool:
        return isinstance(x, list) and all(map(is_int, x))

    if not isinstance(doc, dict) or not isinstance(doc.get("instance"), dict):
        return False
    inst = doc["instance"]
    if not all(is_int(inst.get(key)) for key in ("k", "ell", "vertices", "edges", "terminals")):
        return False
    if inst["k"] < 0 or inst["ell"] < 1:
        return False
    if doc.get("kind") == "packing":
        return isinstance(doc.get("paths"), list) and all(ids(p) and p for p in doc["paths"])
    if doc.get("kind") == "cover":
        return all(ids(doc.get(z)) for z in ("z1", "z2")) and all(is_int(doc.get(r)) for r in ("r1", "r2"))
    return False


def rejects(parse, text: str, error: type) -> bool:
    """True iff parse raises its format error on text; any other exception
    propagates and fails the test."""
    try:
        parse(text)
    except error:
        return True
    return False


def run_in_dir(command: list[str], files: dict[str, str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(tmp) / name
            paths[name].write_text(text, encoding="utf-8")
        args = [str(paths[a[1:]]) if a.startswith("@") else a for a in command]
        return run_cli(args)[0]


class TestFuzz:
    """Mutated documents end in an exit code, never in a traceback. The
    parsers reject exactly the documents that break the format, and every
    rejected document exits 2."""

    @given(mutated_graph_texts(), st.sampled_from(("solve", "verify")))
    @settings(max_examples=150, deadline=None)
    def test_mutated_graphs(self, text, command):
        malformed = rejects(parse_graph, text, GraphFormatError)
        assert malformed == (not graph_well_formed(text))
        if command == "solve":
            args = ["solve", "--input", "@g", "--k", "2", "--ell", "1"]
        else:
            args = ["verify", "--input", "@g", "--cert", "@c"]
        cert = json.dumps(BASE_CERTS[0][1])
        code = run_in_dir(args, {"g": text, "c": cert})
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_BAD_INPUT, EXIT_BUDGET)
        if malformed:
            assert code == EXIT_BAD_INPUT

    @given(mutated_certificates())
    @settings(max_examples=200, deadline=None)
    def test_mutated_certificates(self, docs):
        graph, cert = docs
        malformed = rejects(parse_certificate, cert, CertificateFormatError)
        assert malformed == (not certificate_well_formed(cert))
        code = run_in_dir(["verify", "--input", "@g", "--cert", "@c"], {"g": graph, "c": cert})
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_BAD_INPUT, EXIT_BUDGET)
        if malformed:
            assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, "1" * 5000, '{"instance": {"k": NaN, "ell": 1}}'],
        ids=["nested-too-deep", "too-many-digits", "nan-k"],
    )
    def test_unreadable_json_is_a_format_error(self, text):
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)

    @pytest.mark.parametrize("line", ["p \u00b2", "p " + "1" * 5000], ids=["superscript", "too-long"])
    def test_unreadable_vertex_count_is_a_format_error(self, line):
        with pytest.raises(GraphFormatError):
            parse_graph(line + "\n")

    @pytest.mark.parametrize(
        "text",
        ["p 12\ne 0 1_0\n", "p 5\na \u0663\n", "p \u0661\u0662\n"],
        ids=["underscore-in-an-edge", "arabic-indic-terminal", "arabic-indic-count"],
    )
    def test_only_ascii_digits_are_numbers(self, text):
        # int() reads each of these as a number (10, 3 and 12).
        assert not graph_well_formed(text)
        with pytest.raises(GraphFormatError, match="expected a vertex id|p line must be"):
            parse_graph(text)
        assert run_in_dir(["solve", "--input", "@g", "--k", "1", "--ell", "1"], {"g": text}) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("count", ["10001", "9" * 40])
    def test_vertex_count_above_the_bound_is_a_format_error(self, count):
        # refused before any per-vertex storage is allocated
        with pytest.raises(GraphFormatError, match="exceeds"):
            parse_graph(f"p {count}\n")

    def test_vertex_count_at_the_bound_parses(self):
        assert parse_graph("p 10000\n")[0].n == 10_000

    def test_empty_path_is_a_format_error(self):
        doc = {"instance": {"k": 1, "ell": 1, "vertices": 2, "edges": 1, "terminals": 2},
               "kind": "packing", "paths": [[]]}
        with pytest.raises(CertificateFormatError):
            parse_certificate(json.dumps(doc))
