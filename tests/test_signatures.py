"""Signature guards: a splitting is the one source of its bivector and
cometric, no function takes a parameter that it never reads, no module
imports a name that it never reads, and every function is reached."""

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


# functions src/ keeps for callers outside it, one reason each
REACH_ALLOWED = {
    "_kernel_py.py:int_row_echelon": (
        "the dense reference of tests/dense_elimination.py; perfbench's tracer "
        "requires kernel.int_row_echelon"
    ),
}


def _definitions(tree):
    """(qualname, node) for each top-level function and each method of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _unreached(sources):
    """``file:qualname`` for each top-level function or method of
    ``sources`` ({file name: source text}) whose name no code outside its own
    body loads, as a bare name or as an attribute.  Roots are reached: the
    ``cmd_*`` handlers of ``cli.py``, the names ``__init__.py`` imports, and
    dunders."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads = {}  # name -> ids of the nodes that load it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loads.setdefault(n.id, []).append(id(n))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loads.setdefault(n.attr, []).append(id(n))
    exported = {
        alias.name
        for node in ast.walk(trees.get("__init__.py", ast.Module(body=[])))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for file, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (
                (name.startswith("__") and name.endswith("__"))
                or (file == "cli.py" and name.startswith("cmd_"))
                or (qualname == name and name in exported)
            ):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(i in inside for i in loads.get(name, ())):
                found.append(f"{file}:{qualname}")
    return sorted(found)


def _reach_failures(sources, allowed):
    """(unreached, stale): the unreached functions not in ``allowed``, and
    the entries of ``allowed`` whose function is gone or is now reached."""
    found = _unreached(sources)
    unreached = [hit for hit in found if hit not in allowed]
    return unreached, [hit for hit in allowed if hit not in found]


def test_every_function_is_reached():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unreached, stale = _reach_failures(sources, REACH_ALLOWED)
    assert not unreached, "no caller in src/ reaches " + ", ".join(unreached)
    assert not stale, "stale REACH_ALLOWED entries: " + ", ".join(stale)


def test_unreached_checker_reports_only_the_unreached():
    source = """
def used():
    return 1


def unused():
    return used()


def recursive(n):
    return recursive(n - 1) if n else 0


class Box:
    def __init__(self):
        self.value = used()

    def read(self):
        return self.value

    def lonely(self):
        return self.read()
"""
    cli = "def cmd_run(args):\n    return 0\n"
    init = "from .mod import recursive\n"
    assert _unreached({"mod.py": source}) == [
        "mod.py:Box.lonely",
        "mod.py:recursive",
        "mod.py:unused",
    ]
    assert _unreached({"mod.py": source, "cli.py": cli, "__init__.py": init}) == [
        "mod.py:Box.lonely",
        "mod.py:unused",
    ]
    allowed = {"mod.py:unused": "kept", "mod.py:used": "reached now", "mod.py:gone": "deleted"}
    assert _reach_failures({"mod.py": source}, allowed) == (
        ["mod.py:Box.lonely", "mod.py:recursive"],
        ["mod.py:used", "mod.py:gone"],
    )
