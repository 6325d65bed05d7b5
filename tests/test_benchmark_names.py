"""The benchmark's traced run wraps package functions by name: every name in
perfbench/tracing.py's LAYERS must stay a function of its apaths module,
or `perfbench/run.py --trace 1` fails before its first op."""

import importlib
import types
from pathlib import Path

import pytest

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
