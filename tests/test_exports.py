"""The package's public names and what importing it loads."""

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
