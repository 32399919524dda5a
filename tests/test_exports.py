"""The package's public names, what importing it loads, and which modules write files."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hyperwalk


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from hyperwalk import *", namespace)  # AttributeError on a stale name
    assert set(hyperwalk.__all__) <= set(namespace)


def test_importing_the_package_and_cli_loads_no_scipy():
    # a fresh interpreter: this test process may have imported scipy already
    code = (
        "import sys, hyperwalk, hyperwalk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(hyperwalk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_only_graph_walk_and_cli_open_or_write_files():
    # graph owns the row formats, walk its walk dump, cli the --out layout:
    # every other module computes and returns data
    def touches_files(call):
        f = call.func
        if isinstance(f, ast.Name):
            return f.id == "open"
        return isinstance(f, ast.Attribute) and (
            f.attr in ("open", "write_text", "write_bytes") or ast.unparse(f) == "json.dump"
        )

    package = Path(hyperwalk.__file__).parent
    writers = {
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and touches_files(node)
    }
    assert writers == {"graph", "walk", "cli"}
