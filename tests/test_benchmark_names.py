"""The benchmark's traced run wraps package functions by name: every name in
perfbench/tracing.py's LAYERS must stay a function of its apaths module,
or `perfbench/run.py --trace 1` fails before its first op."""

import importlib
import types
from pathlib import Path

import pytest

import apaths
from apaths import Graph, induced_subgraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """tracing.py as a module, executed from its source so nothing is written
    next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in tracing.LAYERS.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"apaths.{layer}"), name))


def test_budget_class_is_patchable():
    assert isinstance(importlib.import_module("apaths.search")._Budget, type)


def test_induced_subgraph_note_reads_the_member_count():
    out = induced_subgraph(Graph(4, [(0, 1), (1, 2), (2, 3)]), {0, 2, 3})
    assert tracing.NOTES["graph.induced_subgraph"](out) == 3


def test_a_traced_op_answers_as_an_untraced_one():
    # Tracer.call runs each op untraced and then with every LAYERS function
    # wrapped and the budget class swapped for its recording subclass. The
    # ops look the package's functions up at call time, as perfbench does.
    g, a = apaths.random_instance(9, 0.35, 0.7, 3)
    params = apaths.SolveParams(2, 2)
    real_budget = apaths.search._Budget

    def solve_and_verify():
        cert = apaths.solve(g, a, params)
        return cert, apaths.verify_certificate(g, a, params, cert)

    def cover():
        return apaths.oracle_min_ball_cover(g, a, 2, 1)

    for op, want_verify_nodes in ((solve_and_verify, True), (cover, False)):
        tracer = tracing.Tracer()
        assert tracer.call(0, op) == op()
        metrics = tracer.metrics()
        assert metrics["search.nodes"] > 0
        assert (metrics["verify.nodes"] > 0) == want_verify_nodes
        assert apaths.search._Budget is real_budget
    assert solve_and_verify()[1].passed
