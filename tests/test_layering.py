"""Each module of src/apaths imports only the modules below it in the order
graph < generators < search < frame < solver < verify < cli, the layering
the README describes, so no module reaches up into a later layer and the
package has no import cycle. __init__ and __main__ re-export and run the
package, and are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "apaths"
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
