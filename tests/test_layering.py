"""Each module of src/apaths imports only the modules below it in the order
graph < generators < search < frame < solver < verify < cli, the layering
the README describes, so no module reaches up into a later layer and the
package has no import cycle. __init__ and __main__ re-export and run the
package, and are exempt.

The references that judge a rewrite take nothing of the code under test
from the package: tests/reference_frame.py only the frame's data types,
tests/brute.py only Graph and GraphError. And graph.py alone defines the
check of a size, _need_int, and words its refusal, and alone names the
checks of a packing, which _packing_checks makes for both of its callers."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "apaths"
ORDER = ("graph", "generators", "search", "frame", "solver", "verify", "cli")
EXEMPT = ("__init__", "__main__")


def package_imports(source: str, filename: str = "<source>") -> list[tuple[int, str]]:
    """(line, module) for every import of the package, anywhere in the
    source (function bodies included): from .m, from . import m,
    import apaths.m, from apaths.m and from apaths import m all name m; a
    bare import apaths, or a name imported from it, names the package."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "apaths" and not module.startswith("apaths."):
                    continue
                module = module[len("apaths."):]
            if module:
                found.append((node.lineno, module.split(".")[0]))
            else:
                found.extend((node.lineno, alias.name if alias.name in ORDER else "apaths") for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "apaths" or alias.name.startswith("apaths."):
                    module = alias.name[len("apaths."):]
                    found.append((node.lineno, module.split(".")[0] or "apaths"))
    return found


def upward_imports(source: str, name: str, filename: str = "<source>") -> list[str]:
    """'file:line module' for every package import of a module that is not
    below name in ORDER."""
    below = ORDER[:ORDER.index(name)]
    return [f"{filename}:{line} {module}" for line, module in package_imports(source, filename) if module not in below]


def test_each_module_imports_only_modules_below_it():
    files = [path for path in sorted(SRC.glob("*.py")) if path.stem not in EXEMPT]
    assert sorted(path.stem for path in files) == sorted(ORDER)
    found = [hit for path in files for hit in upward_imports(path.read_text(encoding="utf-8"), path.stem, path.name)]
    assert found == []


def test_the_guard_sees_every_import_form():
    source = """
from .graph import Graph
from .solver import solve
from . import verify
import apaths.cli
import json

def late():
    from apaths.frame import Frame
    from apaths import search, Graph
    import apaths
"""
    assert upward_imports(source, "search") == [
        "<source>:3 solver", "<source>:4 verify", "<source>:5 cli",
        "<source>:9 frame", "<source>:10 search", "<source>:10 apaths", "<source>:11 apaths",
    ]


def imported_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name a from-import takes from the package,
    anywhere in the source, with the module as written ("apaths",
    "apaths.frame"); a plain import of the package or a module of it gives
    (module, "*")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "apaths":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, "*") for alias in node.names if alias.name.split(".")[0] == "apaths")
    return found


def test_the_references_import_none_of_the_code_they_judge():
    # The package re-exports the frame's functions, so its top level counts as apaths.frame.
    frame = [
        name for module, name in imported_names((TESTS / "reference_frame.py").read_text(encoding="utf-8"))
        if module in ("apaths", "apaths.frame")
    ]
    assert set(frame) <= {"Frame", "FrameInvariantError", "Violation"}, frame
    brute = [name for _, name in imported_names((TESTS / "brute.py").read_text(encoding="utf-8"))]
    assert set(brute) <= {"Graph", "GraphError"}, brute


def test_the_reference_guard_sees_every_import_form():
    source = """
from apaths.frame import Frame, validate_frame
import apaths.search
import json

def late():
    from apaths import Graph
    import apaths
"""
    assert sorted(imported_names(source)) == [
        ("apaths", "*"), ("apaths", "Graph"), ("apaths.frame", "Frame"),
        ("apaths.frame", "validate_frame"), ("apaths.search", "*"),
    ]


def size_check_sites(source: str, filename: str) -> list[str]:
    """'file:line what' for every definition of _need_int and every string
    literal, f-string parts included, that holds "need an int"."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_need_int":
            found.append(f"{filename}:{node.lineno} def")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "need an int" in node.value:
            found.append(f"{filename}:{node.lineno} text")
    return found


def test_sizes_are_checked_in_graph_only():
    # graph._need_int is the one check of a size, a length, a radius or a
    # budget: every other module calls it and words no refusal of its own.
    found = [
        hit for path in sorted(SRC.glob("*.py")) for hit in size_check_sites(path.read_text(encoding="utf-8"), path.name)
    ]
    assert {hit.split()[1] for hit in found if hit.startswith("graph.py:")} == {"def", "text"}
    assert [hit for hit in found if not hit.startswith("graph.py:")] == []


# The names of graph._packing_checks's own checks.
PACKING_CHECK_NAMES = ("pairs.anti_complete", "endpoints_in_terminals")


def string_sites(source: str, filename: str, words: tuple[str, ...]) -> list[str]:
    """'file:line word' for every string literal, f-string parts included,
    that holds one of words."""
    return [
        f"{filename}:{node.lineno} {word}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for word in words
        if word in node.value
    ]


def test_the_string_guard_sees_f_string_parts():
    source = 'x = f"path[{i}].endpoints_in_terminals"\ny = "a pairs.anti_complete b"\n'
    assert sorted(string_sites(source, "m.py", PACKING_CHECK_NAMES)) == [
        "m.py:1 endpoints_in_terminals", "m.py:2 pairs.anti_complete",
    ]


def test_a_packing_is_checked_in_graph_only():
    # graph._packing_checks is the one check of a packing: verify_packing
    # and extract_frame_paths run it, and no other module names its checks,
    # so a second packing check cannot come back unnoticed.
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        for hit in string_sites(path.read_text(encoding="utf-8"), path.name, PACKING_CHECK_NAMES)
    ]
    assert {hit.split()[1] for hit in found if hit.startswith("graph.py:")} == set(PACKING_CHECK_NAMES)
    assert [hit for hit in found if not hit.startswith("graph.py:")] == []
