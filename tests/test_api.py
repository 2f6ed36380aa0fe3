"""The public surface: every exported name exists, the package imports only exported names,
the render settings are exactly those the CLI sets, and the engines never load `formats`."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trilam

MODULES = sorted(m.name for m in pkgutil.iter_modules(trilam.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"trilam.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"trilam.{name}.__all__ lists missing names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(trilam.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"trilam.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not unlisted, f"trilam/__init__ imports {unlisted} not in trilam.{node.module}.__all__"


def test_render_config_has_only_the_fields_the_cli_sets():
    # a styling field that no caller sets belongs in the renderer as a constant
    from trilam import cli
    from trilam.render import RenderConfig

    tree = ast.parse(Path(cli.__file__).read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "_render_cfg"]
    (call,) = [node for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RenderConfig"]
    assert {kw.arg for kw in call.keywords} == {f.name for f in dataclasses.fields(RenderConfig)}


def test_engines_do_not_load_formats():
    # serialisation sits at the edge: the package and its engines import without it
    src = str(Path(trilam.__file__).parent.parent)
    code = ("import sys, trilam, trilam.builder, trilam.pullback, trilam.legality; "
            "print('trilam.formats' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_module_graph_has_no_hidden_imports():
    # an import inside a function or under `if TYPE_CHECKING` hides a cycle in the module graph
    found = []
    for path in sorted(Path(trilam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{inner.lineno} import in {getattr(node, 'name', 'lambda')}"
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
            elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                found.append(f"{path.name}:{node.lineno} TYPE_CHECKING block")
    assert not found, found
