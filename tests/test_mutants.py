"""Each mutant of tests/mutants.py is killed by its test (see there)."""

import __future__
import importlib
import inspect
import textwrap

import pytest

from mutants import MUTANTS, Mutant


def mutated_code(mutant: Mutant):
    """The function mutant names, and its code with the one replacement made,
    compiled at the function's own file and line numbers."""
    module_name, name = mutant.function.split(":")
    module = importlib.import_module(module_name)
    function = module
    for part in name.split("."):  # "Class.method" names a method
        function = getattr(function, part)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.snippet) == 1, (
        f"mutant {mutant.name}: {mutant.snippet!r} does not occur exactly once in {mutant.function}"
    )
    padded = "\n" * (function.__code__.co_firstlineno - 1) + source.replace(mutant.snippet, mutant.replacement)
    code = compile(
        padded, inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(module))  # a copy, so the module keeps its own binding
    exec(code, namespace)
    return function, namespace[part].__code__


def killer(mutant: Mutant):
    """The mutant's killer, as a callable of no arguments."""
    module_name, *names = mutant.killer.split("::")
    owner = importlib.import_module(module_name)
    for cls in names[:-1]:
        owner = getattr(owner, cls)()
    test = getattr(owner, names[-1])
    assert len(inspect.signature(test).parameters) == len(mutant.args), f"{mutant.killer} takes other arguments"
    return lambda: test(*mutant.args)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, monkeypatch):
    function, code = mutated_code(mutant)
    kill = killer(mutant)
    kill()  # the killer passes on the real code
    # Every module that imported the function holds the same object, so
    # patching its code reaches every caller.
    monkeypatch.setattr(function, "__code__", code)
    try:
        kill()
    except (Exception, pytest.fail.Exception):  # any failure of the killer kills the mutant
        return
    pytest.fail(f"mutant {mutant.name} survived {mutant.killer}")


def test_a_lost_snippet_names_its_mutant():
    lost = MUTANTS[0]._replace(name="lost-snippet", snippet="no such source text")
    with pytest.raises(AssertionError, match="mutant lost-snippet: "):
        mutated_code(lost)
