import io
import json

import pytest

from apaths import Graph, complete_instance, emit_graph, parse_graph
from apaths.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    GraphFormatError,
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

    def test_comments_and_blanks_ignored(self):
        g, a = parse_graph("c hello\n\np 2\nc mid\ne 0 1\n")
        assert g.edge_count == 1

    def test_roundtrip(self):
        text = emit_graph(Graph(4, [(0, 2), (1, 3)]), {1, 2})
        g, a = parse_graph(text)
        assert emit_graph(g, a) == text


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

    def test_solve_then_verify_packing(self, tmp_path):
        inp = self.write(tmp_path, "m2.graph", "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n")
        code, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "packing" and doc["paths"] == [[0, 1], [2, 3]]
        cert_file = self.write(tmp_path, "m2.cert", out)
        assert run_cli(["verify", "--input", inp, "--cert", cert_file])[0] == EXIT_OK

    def test_verify_rejects_tampered_cert(self, tmp_path):
        inp = self.write(tmp_path, "m2.graph", "p 4\ne 0 1\ne 2 3\na 0\na 1\na 2\na 3\n")
        _, out = run_cli(["solve", "--input", inp, "--k", "2", "--ell", "1"])
        doc = json.loads(out)
        doc["paths"] = [[0, 1], [1, 2]]  # overlapping, and (1,2) is not an edge
        cert_file = self.write(tmp_path, "bad.cert", json.dumps(doc))
        code, out2 = run_cli(["verify", "--input", inp, "--cert", cert_file])
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out2)["passed"] is False

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


class TestOracleCommand:
    def test_packing_oracle(self, tmp_path):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "1", "--packing", "--cap", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 1 and len(doc["witness"]) == 1

    def test_cover_oracle(self, tmp_path):
        f = tmp_path / "k5.graph"
        f.write_text(emit_graph(*complete_instance(5)))
        code, out = run_cli(["oracle", "--input", str(f), "--ell", "1", "--cover", "--radius", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 4


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

    def test_missing_file_exits_2(self):
        assert run_cli(["solve", "--input", "/nonexistent", "--k", "1", "--ell", "1"])[0] == EXIT_BAD_INPUT

    def test_budget_exits_3(self, tmp_path):
        f = tmp_path / "big.graph"
        f.write_text(emit_graph(*complete_instance(9)))
        code, _ = run_cli(
            ["oracle", "--input", str(f), "--ell", "1", "--packing", "--cap", "3", "--budget", "5"]
        )
        assert code == EXIT_BUDGET

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
