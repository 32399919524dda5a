"""Every script under scripts/ starts (its imports resolve and --help exits 0),
and the scripts' own helpers compute what they say."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperwalk.corpus import SampleCorpus
from hyperwalk.synthetic import two_block_graph

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_0(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_in_block_coverage_codes_pairs_without_wrapping():
    # 50,008 nodes with the A nodes last: an A index times n_nodes is past
    # 2**31, where an int32 code u * n + v would wrap
    g = two_block_graph(np.random.default_rng(0), sizes=(4, 50_000, 4), labels=("C", "B", "A"))
    a, c = g.nodes_of_type("A")[0], g.nodes_of_type("C")[0]
    assert a * g.n_nodes > np.iinfo(np.int32).max
    corpus = SampleCorpus(np.array([[a, c]]), g.n_nodes)
    # one of the 2 x 2 block-0 A-C pairs is a positive
    assert load_script("sweep_window").in_block_coverage(g, corpus) == 0.25
