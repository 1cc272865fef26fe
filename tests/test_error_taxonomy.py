"""The exit code lives in the error types, and nowhere else.

``errors`` has two roots: ``InputError`` (exit 2) and ``NumericFailure``
(exit 3).  Every other class derives from exactly one of them, every
``raise`` in the package names one of them or a class under them, and
``cli.main`` sorts by the two roots alone.  These checks read the source,
so a new ``raise ValueError`` fails here before any input reaches it.
"""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

import floqlind
from floqlind import cli, errors
from floqlind.errors import InputError, NumericFailure

PACKAGE = Path(floqlind.__file__).resolve().parent
# Builtins a raise may name: the integer-dtype checks and the abstract
# SpectralDensity.
ALLOWED_BUILTINS = {"TypeError", "NotImplementedError"}
# (module, function) -> builtin: echo._brentq is SciPy's brentq line for
# line and raises its ValueError for a bracket without a sign change;
# extract_tau_c never passes one, so that raise is a bug, not an input
# error, and surfaces as a traceback.
EXEMPT = {("echo.py", "_brentq"): "ValueError"}
ROOTS = (InputError, NumericFailure)


def _raises(node=None, module=None, function="<module>"):
    """(module, innermost enclosing function, name raised) for every raise
    that names an exception; a bare re-raise names none."""
    if node is None:
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield from _raises(tree, path.name)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        yield module, function, exc.attr if isinstance(exc, ast.Attribute) else exc.id
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, module, function)


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_no_raise_names_a_builtin_exception_but_the_allowed_ones():
    found = [
        (module, function, name)
        for module, function, name in _raises()
        if _is_builtin_exception(name)
        and name not in ALLOWED_BUILTINS
        and EXEMPT.get((module, function)) != name
    ]
    assert found == []


def test_the_exempt_raise_is_still_there():
    """An exemption names a raise that exists, so none outlives its code."""
    raises = set(_raises())
    for (module, function), name in EXEMPT.items():
        assert (module, function, name) in raises


def test_every_raised_package_error_is_under_one_root():
    """A raise that names no builtin names a class under one root."""
    for module, function, name in _raises():
        if _is_builtin_exception(name):
            continue
        assert issubclass(getattr(errors, name), ROOTS), (module, function, name)


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_derives_from_exactly_one_root(cls):
    assert [issubclass(cls, root) for root in ROOTS].count(True) == 1
    assert cls.__name__ in floqlind.__all__


def test_the_roots_are_the_builtins_callers_catch():
    assert issubclass(InputError, ValueError)
    assert issubclass(NumericFailure, FloatingPointError)
    assert not issubclass(InputError, ArithmeticError)
    assert not issubclass(NumericFailure, ValueError)


def test_main_sorts_by_the_two_roots_alone():
    """Two except clauses whose types no class shares, so their order is
    free: NumericFailure exits 3; InputError, configparser.Error and
    OSError exit 2."""
    main = ast.parse(inspect.getsource(cli.main)).body[0]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert sorted(ast.unparse(handler.type) for handler in handlers) == [
        "(InputError, configparser.Error, OSError)",
        "NumericFailure",
    ]
