"""Work pins: what one seed-0 pass of each benchmark workload spends.

Tier-1 pins outputs by digest; this pins the work behind them, by count, not
by clock. perfbench/workloads.py builds the passes; it is read-only here,
as test_benchmark_names reads tracing.py. Per workload it pins the nodes
each budget spends (limit - remaining, summed by the budget's name), and on
the corpus and the caterpillars the engine passes, cuts and params built of
solve, the removal searches and cuts of verify_cover, the packing checks
that list their touching pairs, and the frame steps, extension searches and
extension checks. A change that moves work on purpose moves its pin and
records old -> new in CHANGES.md.
"""

import sys
import types
from collections import Counter
from contextlib import ExitStack
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

import apaths
import apaths.cli  # the workloads' ops name apaths.cli
import apaths.frame
import apaths.graph
import apaths.solver
import apaths.verify
from apaths.search import _Budget
from apaths.solver import SolveParams
from apaths.verify import verify_packing

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@cache
def load_workloads():
    """workloads.py as a module, executed from its source so nothing is
    written next to it; registered first, as its dataclass looks its
    module up."""
    module = sys.modules["perfbench_workloads"] = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


@cache
def seed_0_pass(workload: str) -> tuple[dict, dict]:
    """The nodes spent per budget name, and the counted calls, of one pass."""
    ops = load_workloads().WORKLOADS[workload](apaths, 0)
    budgets = []
    real_init = _Budget.__init__

    def init(self, limit, where):
        real_init(self, limit, where)
        budgets.append(self)

    calls = Counter()

    def counted(module, name, label):
        real = getattr(module, name)

        def spy(*args):
            calls[label] += 1
            return real(*args)

        return mock.patch.object(module, name, spy)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(_Budget, "__init__", init))
        for module, name, label in (
            (apaths.solver, "_shortest_path_until", "solve.passes"),
            (apaths.solver, "_kept_subgraph", "solve.cuts"),
            (apaths.solver, "SolveParams", "solve.params"),
            (apaths.verify, "find_induced_apath_in_range", "verify_cover.searches"),
            (apaths.verify, "_kept_subgraph", "verify_cover.cuts"),
            (apaths.graph, "_touching_pairs", "packing.listings"),
            (apaths.frame, "extend_frame", "frame.steps"),
            (apaths.frame, "find_extension", "frame.find_extension"),
            (apaths.frame, "_extension_violations", "frame.extension_checks"),
        ):
            stack.enter_context(counted(module, name, label))
        for op in ops:
            op.run()
    nodes = Counter()
    for b in budgets:
        nodes[b.where] += b.limit - b.remaining
    return dict(nodes), dict(calls)


NODES = {
    "corpus": {"solve": 20_167, "verify_cover": 7_048},
    "grid": {"solve": 11_046, "verify_cover": 11_046},
    "caterpillar": {"solve": 5_816, "verify_cover": 0},
    "oracle": {
        "max_anticomplete_packing_with_witness": 3_343,
        "oracle_max_anticomplete_packing": 68,
        "oracle_min_ball_cover": 19_257,
    },
}

# A level or removal that keeps fewer than two terminals is neither searched
# nor cut to. Before that rule, the corpus pass made 6,760 passes and 2,224
# cuts in solve and 4,346 searches and 2,846 cuts in verify_cover, and the
# caterpillar pass 48, 16, 16 and 16. A level is its k: solve built one
# SolveParams per cut, 2,224 on the corpus pass, and builds none. Every
# corpus packing passes, so none lists its touching pairs.
CALLS = {
    "corpus": {
        "solve.passes": 5_216, "solve.cuts": 1_094, "solve.params": 0,
        "verify_cover.searches": 1_909, "verify_cover.cuts": 823, "packing.listings": 0,
    },
    "caterpillar": {
        "solve.passes": 32, "solve.cuts": 0, "solve.params": 0,
        "verify_cover.searches": 0, "verify_cover.cuts": 0, "packing.listings": 0,
        "frame.steps": 280, "frame.find_extension": 296, "frame.extension_checks": 280,
    },
}


@pytest.mark.parametrize("workload", sorted(NODES))
def test_nodes_per_budget(workload):
    assert seed_0_pass(workload)[0] == NODES[workload]


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_passes_searches_and_cuts(workload):
    calls = seed_0_pass(workload)[1]
    assert {label: calls.get(label, 0) for label in CALLS[workload]} == CALLS[workload]


def disjoint_edges(k: int, joined: bool) -> tuple:
    """k disjoint edges (2i, 2i + 1) as a graph and its paths, all terminal;
    joined adds the edge (1, 2), so paths 0 and 1 touch."""
    edges = [(v, v + 1) for v in range(0, 2 * k, 2)] + ([(1, 2)] if joined else [])
    return apaths.Graph(2 * k, edges), [(v, v + 1) for v in range(0, 2 * k, 2)]


@pytest.mark.parametrize("k, joined, listings", [(4_000, False, 0), (40, True, 1)])
def test_only_a_packing_that_touches_lists_its_pairs(k, joined, listings):
    g, paths = disjoint_edges(k, joined)
    calls = []
    real = apaths.graph._touching_pairs
    with mock.patch.object(apaths.graph, "_touching_pairs", lambda *args: calls.append(1) or real(*args)):
        report = verify_packing(g, range(2 * k), SolveParams(k, 1), paths)
    assert report.checks[-1].witness == ([[0, 1]] if joined else [])
    assert len(calls) == listings
