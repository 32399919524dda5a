"""The benchmark under bench/ still runs against the program: its self-test
passes, a short run is correct, and every attribute its tracer patches exists.

bench/ calls into the program by name (``reconstruct`` without ``rng``,
``SampleCorpus(pairs, n)``, a deep copy of ``Walks``, ``corpus.AliasTable``
...), so a change that renames or deletes one of these breaks every bench run.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_from_root(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_bench_selftest_passes():
    done = run_from_root("bench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_a_short_traced_bench_run_is_correct():
    done = run_from_root("bench/run.py", "--workload", "dblp_linkpred_prep", "--seed", "0",
                         "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr


def test_a_short_traced_training_run_counts_one_kernel_call_per_batch():
    # bench/run.py checks that _pair_terms runs once per batch and that train's
    # children and self time add up to train.s; only a workload that trains
    # runs those checks. Update rows count touched nodes, not d + 1 per batch.
    done = run_from_root("bench/run.py", "--workload", "dblp_reconstruct", "--seed", "0",
                         "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert m["train.batches"] > 0
    assert m["train.pair_terms.calls"] == m["train.batches"] == m["train.update.calls"]
    assert m["train.update.rows"] > 100 * m["train.batches"]


def test_every_attribute_the_bench_tracer_patches_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench = importlib.import_module("run")
    hw = bench.import_program()
    caller = bench.TracedCaller(None, hw)
    assert caller.train_children
    for owner, attr, _, _ in caller.train_children:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
