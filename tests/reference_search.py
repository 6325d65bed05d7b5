"""Frozen reference for the differential tests: the original recursive,
set-based chordless-path search, kept verbatim in behaviour.

It has the same signature as apaths.search._terminal_path_dfs, so a test can
swap it in and compare what the public searches return and how many nodes
they spend. It recurses once per path vertex, so it only serves small graphs.
Do not optimise it: its whole value is that it does not change.
"""

from __future__ import annotations


def reference_terminal_path_dfs(
    g,
    a_set,
    lo: int,
    accept_hi: int | None,
    budget,
    emit,
    stop_at_terminals: bool = False,
) -> None:
    """Depth-first search over chordless paths anchored at a terminal.

    Extends partial paths one vertex at a time, refusing any extension that
    would create a chord, so every visited path is induced. emit(path) is
    called whenever the tip is a second terminal and the length falls in
    [lo, accept_hi]; its return value is the new cap on path length to keep
    exploring (None for unbounded), or the string "stop" to abort.
    With stop_at_terminals, paths are never extended past a terminal tip,
    which restricts the search to A-paths without interior terminals.
    """
    n = g.n
    on_path = bytearray(n)
    interior_adj = [0] * n
    path: list[int] = []
    ext_cap = accept_hi

    class _Stop(Exception):
        pass

    def rec() -> None:
        nonlocal ext_cap
        budget.spend()
        tip = path[-1]
        plen = len(path) - 1
        at_terminal = plen >= 1 and tip in a_set
        if at_terminal and plen >= lo and (accept_hi is None or plen <= accept_hi):
            signal = emit(tuple(path))
            if signal == "stop":
                raise _Stop
            ext_cap = signal
        if ext_cap is not None and plen >= ext_cap:
            return
        if stop_at_terminals and at_terminal:
            return
        for u in g.neighbors(tip):
            interior_adj[u] += 1
        for w in g.neighbors(tip):
            if on_path[w] or interior_adj[w] > 1:
                continue
            # interior_adj[w] == 1 here: the single count comes from tip itself
            on_path[w] = 1
            path.append(w)
            rec()
            path.pop()
            on_path[w] = 0
        for u in g.neighbors(tip):
            interior_adj[u] -= 1
    try:
        for s in sorted(a_set):
            on_path[s] = 1
            path.append(s)
            rec()
            path.pop()
            on_path[s] = 0
    except _Stop:
        pass
