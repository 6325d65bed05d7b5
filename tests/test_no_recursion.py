"""No function in src/apaths calls itself by name, so no search, frame
construction or solve can end in a RecursionError, whatever the input size.
super().__init__ in an __init__ calls the parent class, not itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "apaths"


def _called_name(call: ast.Call) -> str | None:
    """The name a call is made by: f(...) and x.f(...) both name f; a
    super().f(...) call names no function of this class."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        inner = func.value
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id == "super":
            return None
        return func.attr
    return None


def self_calls(source: str, filename: str = "<source>") -> list[str]:
    """'file:line name' for every call, anywhere in a function's body
    (nested functions included), to that function's own name."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _called_name(call) == node.name:
                    found.append(f"{filename}:{call.lineno} {node.name}")
    return found


def test_no_function_in_the_package_calls_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in self_calls(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_guard_sees_direct_method_and_closure_recursion():
    source = """
def walk(n):
    return 0 if n == 0 else walk(n - 1)

class Tree:
    def depth(self):
        return 1 + max((c.depth() for c in self.children), default=0)

def outer():
    def rec(i):
        return rec(i + 1)
    return rec(0)

class Error(Exception):
    def __init__(self, message):
        super().__init__(message)
"""
    assert self_calls(source) == ["<source>:3 walk", "<source>:7 depth", "<source>:11 rec"]
