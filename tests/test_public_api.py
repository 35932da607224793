"""The package's export list names only what the package defines and uses,
every function in the package reads each parameter it accepts, one loop
steps every walk, the README's library example runs, and its command lines
use exactly the flags the command line has."""

import ast
import re
from pathlib import Path

import pytest

import qwsense
from qwsense import cli

PACKAGE = Path(qwsense.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qwsense.__all__ if not hasattr(qwsense, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(qwsense.__all__) == len(set(qwsense.__all__))


def _referenced_names(path, strings=False):
    """Every name the module loads or reads as an attribute; with ``strings``,
    also each dotted part of its string constants (perfbench's trace targets)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_exported_name_is_used_outside_the_export_list():
    # an export that only tests call is surface no run reads
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _referenced_names(path)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _referenced_names(path, strings=True)
    assert sorted(set(qwsense.__all__) - used) == []


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
    unread = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unread_parameters(path)]
    assert unread == []


def _callers(names):
    """{"module.function": node} for every package function outside ``kernels``
    that calls one of ``names`` as an attribute or imports one of them."""
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "kernels":
                assert not {alias.name for alias in node.names} & names, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and (call.func.attr if isinstance(call.func, ast.Attribute)
                     else getattr(call.func, "id", None)) in names
                for call in ast.walk(node)
            ):
                callers[f"{path.stem}.{node.name}"] = node
    return callers


def test_one_loop_steps_every_walk():
    # a second stepping loop would keep a second copy of the buffers, the
    # windows and the start, as the Bayesian candidate table once did
    callers = _callers({"split_step", "split_step_pair", "defect_coin"})
    assert sorted(callers) == ["spectral._step_columns", "walk.propagate"]
    # the step matrix and the Schur residual take one step of a column stack,
    # with no loop
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for node in ast.walk(callers["spectral._step_columns"]))
    assert sorted(_callers({"light_cone"})) == ["walk.propagate"]


def test_readme_python_blocks_run(capsys):
    # an API change that leaves the README's quick start stale fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    winding, exponent = capsys.readouterr().out.split()
    assert winding == "1" and abs(float(exponent) - 2.0) < 0.2


def _help_flags(capsys, command):
    """The flags ``qwsense <command> --help`` lists, --help aside."""
    with pytest.raises(SystemExit) as caught:
        cli.main([command, "--help"])
    assert caught.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


def test_readme_command_lines_use_exactly_the_parsers_flags(capsys):
    # a flag added to or deleted from a parser must be added to or deleted from the README
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = re.findall(r"^qwsense (\w+)(.*)$", "".join(blocks), re.M)
    assert sorted({command for command, _ in lines}) == ["plot", "run", "validate"]
    for command in ("plot", "run", "validate"):
        written = {flag for name, rest in lines if name == command
                   for flag in re.findall(r"--[a-z][a-z-]*", rest)}
        assert written == _help_flags(capsys, command), command
