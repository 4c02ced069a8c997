"""Signature guards: a splitting is the one source of its bivector and
cometric, and no function takes a parameter that it never reads."""

import ast
import inspect
from pathlib import Path

import pytest

import poisgeo
from poisgeo import cohomology, connection, foliation

SRC = Path(poisgeo.__file__).parent

# Chart.__setattr__ refuses every assignment, so it never reads the value
UNREAD_ALLOWED = {("chart.py", "__setattr__", "value")}


@pytest.mark.parametrize("module", [foliation, cohomology, connection], ids=lambda m: m.__name__)
def test_split_functions_take_no_pi_or_g(module):
    offenders = []
    for name, func in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or func.__module__ != module.__name__:
            continue
        params = inspect.signature(func).parameters
        if "split" in params and {"pi", "g"} & params.keys():
            offenders.append(f"{name}{inspect.signature(func)}")
    assert offenders == []


def _unread_parameters(path):
    """(file, function, parameter) for each parameter its function's body
    never loads.  A method's receiver is exempt: ``super()`` reads it
    implicitly."""
    tree = ast.parse(path.read_text())
    methods = {
        id(node.args.args[0])
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.args.args
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found.extend(
            (path.name, name, a.arg)
            for a in params
            if id(a) not in methods and a.arg not in loaded
        )
    return found


def test_every_parameter_is_read():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _unread_parameters(path)]
    assert [hit for hit in found if hit not in UNREAD_ALLOWED] == []


# modules whose imports are their interface: they import to re-export
REEXPORTING = {"__init__.py", "kernel.py"}


def _unread_imports(path):
    """(file, name) for each name the module imports and never loads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted((path.name, name) for name in imported - loaded)


def test_every_import_is_read():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name not in REEXPORTING
        for hit in _unread_imports(path)
    ]
    assert found == []
