"""The package's export list names only what the package defines, and every
function in the package reads each parameter it accepts."""

import ast
from pathlib import Path

import qwsense


def test_every_exported_name_resolves():
    missing = [name for name in qwsense.__all__ if not hasattr(qwsense, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(qwsense.__all__) == len(set(qwsense.__all__))


def _unread_parameters(path):
    """(function, parameter) for every parameter its function's body never loads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        unread += [
            (f"{path.stem}.{node.name}", p)
            for p in params
            if p not in ("self", "cls") and p not in loaded
        ]
    return unread


def test_every_parameter_is_read():
    package = Path(qwsense.__file__).parent
    unread = [hit for path in sorted(package.glob("*.py")) for hit in _unread_parameters(path)]
    assert unread == []
