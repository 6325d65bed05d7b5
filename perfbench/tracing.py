"""Per-layer tracing from outside the package, for the benchmark's traced run.

Tracer.install() replaces the public functions of each apaths module, in every
apaths namespace that binds them, with wrappers that record one span per call:
(name, start, end, parent span, op id, note). It also swaps the search
module's budget class for a subclass that remembers each budget, so the nodes
a search visited are read afterwards as limit - remaining. Nothing is hooked
per search node. uninstall() puts the originals back; call() runs one op both
ways and installs the tracer only around the traced run.

Span names are "<module>.<function>"; the module is the layer.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from pathlib import Path

LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("induced_subgraph", "ball"),
    "search": (
        "exists_apath",
        "shortest_apath",
        "find_induced_apath_in_range",
        "has_long_induced_apath",
        "shortest_long_induced_apath",
        "enumerate_induced_apaths",
        "max_anticomplete_packing_with_witness",
        "oracle_max_anticomplete_packing",
        "max_vertex_disjoint_apath_packing",
        "oracle_min_ball_cover",
    ),
    "frame": (
        "init_frame",
        "find_extension",
        "extend_frame",
        "build_maximal_frame",
        "validate_frame",
        "check_frame_claims",
        "extract_frame_paths",
    ),
    "solver": ("solve",),
    "verify": ("verify_certificate", "verify_packing", "verify_cover", "verify_tightness_claims"),
}

# Decision calls: their note records whether a path was found.
DECISIONS = {"search.exists_apath", "search.has_long_induced_apath", "search.find_induced_apath_in_range"}
FRAME_BUILD = {"frame.init_frame", "frame.extend_frame", "frame.build_maximal_frame"}
FRAME_VALIDATE = {"frame.validate_frame", "frame.check_frame_claims"}

NOTES = {
    **{name: bool for name in DECISIONS},
    "graph.induced_subgraph": lambda out: len(out[1]),
    "frame.build_maximal_frame": lambda out: 0 if out is None else out.leaf_count,
}

# Per-layer metric names and units, in the order they are reported.
METRIC_UNITS: dict[str, str] = {
    "graph.induced_subgraph.calls": "count",
    "graph.induced_subgraph.self_s": "s",
    "graph.induced_subgraph.vertices": "count",
    "graph.ball.calls": "count",
    "graph.ball.self_s": "s",
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.nodes_per_call": "count",
    "search.found_ratio": "ratio",
    "search.oracle.subsets": "count",
    "search.errors": "count",
    "frame.steps": "count",
    "frame.leaves": "count",
    "frame.build.self_s": "s",
    "frame.validate.calls": "count",
    "frame.validate.self_s": "s",
    "frame.validate.s_per_step": "s",
    "frame.find_extension.self_s": "s",
    "frame.extract.self_s": "s",
    "frame.errors": "count",
    "solver.levels": "count",
    "solver.self_s": "s",
    "solver.solve_s": "s",
    "verify.verify_s": "s",
    "verify.self_s": "s",
    "verify.removal_searches": "count",
    "verify.nodes": "count",
    "trace_overhead_ratio": "ratio",
}

NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Spans and budgets of one traced run; create it after apaths is imported."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.budgets: list[tuple[object, int]] = []  # (budget, owning span)
        self.op = -1
        self.plain_s = 0.0
        self.traced_s = 0.0
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, names in LAYERS.items():
            mod = sys.modules[f"apaths.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                self._patch(original, self._wrap(f"{layer}.{fname}", original))
        search = sys.modules["apaths.search"]
        tracer = self

        class RecordedBudget(search._Budget):
            __slots__ = ()

            def __init__(self, limit: int, where: str):
                super().__init__(limit, where)
                tracer.budgets.append((self, tracer.stack[-1] if tracer.stack else -1))

        self._patch(search._Budget, RecordedBudget)

    def _wrap(self, name: str, fn):
        spans, stack, clock, note = self.spans, self.stack, time.perf_counter, NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = clock()
                span[NOTE] = "error:" + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if note is not None:
                span[NOTE] = note(out)
            return out

        return traced

    def _patch(self, original, replacement) -> None:
        """Plan to replace original wherever an apaths module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "apaths" or mod_name.startswith("apaths."):
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, replacement))

    def install(self) -> None:
        for mod, attr, _, replacement in self._patches:
            setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def call(self, op_id: int, fn):
        """Run fn untraced and traced, alternating which goes first, so the
        overhead estimate sees the same machine state on both sides; return
        the traced answer."""
        clock = time.perf_counter
        answer = None
        for traced in (op_id % 2 == 1, op_id % 2 == 0):
            t0 = clock()
            if traced:
                self.op = op_id
                self.install()
            try:
                out = fn()
            finally:
                if traced:
                    self.uninstall()
            took = clock() - t0
            if traced:
                self.traced_s += took
                answer = out
            else:
                self.plain_s += took
        return answer

    def write(self, path: Path) -> None:
        """All spans as gzip CSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent", "op", "note"))
            for s in self.spans:
                note = "" if s[NOTE] is None else s[NOTE]
                out.writerow((s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}", s[PARENT], s[OP], note))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and budgets.

        A span's self time is its duration minus its children's durations;
        a layer's self time sums its spans' self times.
        """
        spans = self.spans
        names = [s[NAME] for s in spans]
        notes = [s[NOTE] for s in spans]
        dur = [s[END] - s[START] for s in spans]
        self_time = dur[:]
        for s, d in zip(spans, dur):
            if s[PARENT] >= 0:
                self_time[s[PARENT]] -= d
        parent = [names[s[PARENT]] if s[PARENT] >= 0 else "" for s in spans]
        layer = [n.split(".", 1)[0] for n in names]
        outermost = [p.split(".", 1)[0] != lay for p, lay in zip(parent, layer)]
        # Parents precede children, so one forward sweep marks whole subtrees.
        in_verify = [False] * len(spans)
        for i, s in enumerate(spans):
            in_verify[i] = names[i] == "verify.verify_certificate" or (
                s[PARENT] >= 0 and in_verify[s[PARENT]]
            )

        def where(name=None, lay=None, parent_is=None, top=False):
            return [
                i
                for i in range(len(spans))
                if (name is None or names[i] in name)
                and (lay is None or layer[i] == lay)
                and (parent_is is None or parent[i] in parent_is)
                and (not top or outermost[i])
            ]

        def self_s(name=None, lay=None) -> float:
            return sum(self_time[i] for i in where(name, lay))

        def total_s(name) -> float:
            return sum(dur[i] for i in where({name}, top=True))

        def errors(lay: str) -> int:
            return sum(1 for i in where(lay=lay, top=True) if str(notes[i]).startswith("error:"))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        # A search call enters the search layer from outside it, or is one of
        # the decisions the ball-cover oracle makes per subset it tries.
        search_calls = len(set(where(lay="search", top=True))
                           | set(where(lay="search", parent_is={"search.oracle_min_ball_cover"})))
        # has_long_induced_apath delegates to one of the other two decisions.
        decisions = [i for i in where(DECISIONS) if parent[i] not in DECISIONS]
        nodes = sum(b.limit - b.remaining for b, _ in self.budgets)
        search_self = self_s(lay="search")
        validate_calls = len(where({"frame.validate_frame"}))
        validate_self = self_s(FRAME_VALIDATE)
        return {
            "graph.induced_subgraph.calls": len(where({"graph.induced_subgraph"})),
            "graph.induced_subgraph.self_s": self_s({"graph.induced_subgraph"}),
            "graph.induced_subgraph.vertices": sum(
                notes[i] for i in where({"graph.induced_subgraph"}) if isinstance(notes[i], int)
            ),
            "graph.ball.calls": len(where({"graph.ball"})),
            "graph.ball.self_s": self_s({"graph.ball"}),
            "search.calls": search_calls,
            "search.self_s": search_self,
            "search.nodes": nodes,
            "search.nodes_per_s": ratio(nodes, search_self),
            "search.nodes_per_call": ratio(nodes, search_calls),
            "search.found_ratio": ratio(sum(1 for i in decisions if notes[i] is True), len(decisions)),
            "search.oracle.subsets": len(where({"graph.ball"}, parent_is={"search.oracle_min_ball_cover"})),
            "search.errors": errors("search"),
            "frame.steps": len(where({"frame.extend_frame"})),
            "frame.leaves": sum(
                notes[i] for i in where({"frame.build_maximal_frame"}) if isinstance(notes[i], int)
            ),
            "frame.build.self_s": self_s(FRAME_BUILD),
            "frame.validate.calls": validate_calls,
            "frame.validate.self_s": validate_self,
            "frame.validate.s_per_step": ratio(validate_self, validate_calls),
            "frame.find_extension.self_s": self_s({"frame.find_extension"}),
            "frame.extract.self_s": self_s({"frame.extract_frame_paths"}),
            "frame.errors": errors("frame"),
            "solver.levels": len(where({"solver.solve"})),
            "solver.self_s": self_s({"solver.solve"}),
            "solver.solve_s": total_s("solver.solve"),
            "verify.verify_s": total_s("verify.verify_certificate"),
            "verify.self_s": self_s(lay="verify"),
            "verify.removal_searches": len(
                where({"search.find_induced_apath_in_range"}, parent_is={"verify.verify_cover"})
            ),
            "verify.nodes": sum(
                b.limit - b.remaining for b, owner in self.budgets if owner >= 0 and in_verify[owner]
            ),
            "trace_overhead_ratio": self.traced_s / self.plain_s - 1,
        }
