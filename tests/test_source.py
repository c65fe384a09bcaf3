"""Checks on the package source itself."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import topostab

# every input file is read through pipeline.read_file, and every artifact
# is written through pipeline._write
FILE_DOORS = {("pipeline.py", "read_file"), ("pipeline.py", "_write")}


def _open_calls(tree):
    """(enclosing function name or None, line) of each call to a callable
    named `open`, bare or as an attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else \
                getattr(callee, "attr", None)
            if name == "open":
                found.append((func, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_files_are_opened_only_by_the_shared_reader_and_writer():
    src = pathlib.Path(topostab.__file__).parent
    strays = [f"{path.name}:{line} in {func}"
              for path in sorted(src.glob("*.py"))
              for func, line in _open_calls(ast.parse(path.read_text()))
              if (path.name, func) not in FILE_DOORS]
    assert not strays, strays


def _csv_imports(tree):
    """Line of each `import csv` or `from csv import ...`."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(alias.name == "csv" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "csv")]


def test_only_the_table_codec_imports_csv():
    src = pathlib.Path(topostab.__file__).parent
    strays = [f"{path.name}:{line}"
              for path in sorted(src.glob("*.py")) if path.name != "tables.py"
              for line in _csv_imports(ast.parse(path.read_text()))]
    assert not strays, strays


def _names_used(tree, skip=None):
    """Every name the tree reads, as a bare name, an attribute or an
    imported name, outside the subtree `skip`."""
    used = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return used


def test_every_top_level_name_is_used_in_the_package():
    """A function or class that nothing in src/ names (an import counts)
    serves only the tests, and belongs in tests/oracles.py."""
    src = pathlib.Path(topostab.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = {name: _names_used(tree) for name, tree in trees.items()}
    unused = []
    for name, tree in trees.items():
        elsewhere = set().union(*(names for key, names in used.items()
                                  if key != name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and \
                    node.name not in elsewhere | _names_used(tree, node):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, unused


# the public bases of every fault; any other error class exists only so
# that some caller can catch it by type
ERROR_BASES = {"TopostabError", "ConfigError", "DataError"}


def _caught_names(tree):
    """Every name an `except` clause of the tree names, bare or as an
    attribute, alone or in a tuple."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for node in ast.walk(handler.type)}


def test_every_error_subclass_is_caught_somewhere():
    """An error class that no `except` in src/ names changes nothing but
    the tests: raise a DataError or ConfigError with its message."""
    src = pathlib.Path(topostab.__file__).parent
    caught = set().union(*(_caught_names(ast.parse(path.read_text()))
                           for path in sorted(src.glob("*.py"))))
    errors = ast.parse((src / "errors.py").read_text())
    uncaught = [f"errors.py:{node.lineno} {node.name}"
                for node in errors.body if isinstance(node, ast.ClassDef)
                and node.name not in ERROR_BASES | caught]
    assert not uncaught, uncaught


def test_importing_the_cli_loads_no_scipy():
    """scipy is imported inside its two call sites, the weighted-alpha
    hull and the t-test, so a run that uses neither never pays for it."""
    code = ("import sys, topostab.cli, topostab.pipeline; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    src = pathlib.Path(topostab.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
