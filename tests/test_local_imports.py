"""Imports sit at the top of every module; only the command line and the
package's __init__ import inside functions, which defers loading a module to
the command that needs it and keeps a cold start short."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "orecodes")
DEFERRING = {"cli.py", "__init__.py"}


def test_function_local_imports_only_in_the_cli_and_init():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in DEFERRING:
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
