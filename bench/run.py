"""hyperwalk benchmark: one workload per process, end to end and per layer.

    python3 bench/run.py --workload planted_linkpred --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up writes the workload's graph, generated from ``--seed``, as
node and edge TSV files and times ``graph.load_graph`` on them. Then whole
rounds of the pipeline run until ``--seconds`` have passed (at least one).
The first round's outputs are checked (see ``checks.py``); every later round
must reproduce them bit for bit. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` program calls, and
``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and
its per-layer metrics with ``--trace 1``. A traced run alternates untraced
and traced rounds, reports the traced rounds' per-layer figures and writes
its spans to ``.bench_runs/``. See README.md for the workloads.
"""

from __future__ import annotations

import os

# one thread, so that runs on a 2-core machine do not contend with themselves
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"

WINDOW = 5
DIM = 10
NEGATIVES = 20  # TrainConfig's default; the loss ceiling ln(1 + k) uses it
BATCH = 512  # TrainConfig's default
SPLIT_TENTHS = 2  # link splits remove 2/10 of the edge type


@dataclass(frozen=True)
class Spec:
    graph: str  # "two_block" or "dblp": which synthetic generator
    split: str | None  # edge type held out for link prediction, if any
    walks_per_node: int
    walk_length: int
    epochs: int  # 0: the round ends after build_corpus
    recon: tuple[str, ...] = ()  # edge types reconstructed after training


WORKLOADS = {
    "planted_linkpred": Spec("two_block", "A-B", 10, 80, 1, ("A-B",)),
    "dblp_reconstruct": Spec("dblp", None, 1, 6, 1, ("A-P", "P-V")),
    "dblp_linkpred_prep": Spec("dblp", "A-P", 1, 40, 0),
}


def import_program():
    """Import hyperwalk from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "hyperwalk" / "__init__.py").is_file():
        sys.exit(f"error: no hyperwalk source under {src}")
    sys.path.insert(0, str(src))
    import hyperwalk

    if Path(hyperwalk.__file__).resolve().parent != (src / "hyperwalk").resolve():
        sys.exit(f"error: imported hyperwalk from {hyperwalk.__file__}, not {src}")
    from hyperwalk import corpus, evaluation, graph, lorentz, seeding, synthetic, trainer, walk

    return SimpleNamespace(corpus=corpus, evaluation=evaluation, graph=graph, lorentz=lorentz,
                           seeding=seeding, synthetic=synthetic, trainer=trainer, walk=walk)


# --- calling the program -----------------------------------------------------


class Caller:
    """Calls into the program, counting them; untraced."""

    def __init__(self):
        self.calls = 0

    def __call__(self, name, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)


class TracedCaller(Caller):
    """Records a span per call; inside ``train`` also one per negative draw,
    ``_pair_terms`` call and hyperboloid update."""

    def __init__(self, tracer: Tracer, hw):
        super().__init__()
        self.tracer = tracer
        self.train_children = [
            (hw.corpus.AliasTable, "sample", "train.negatives", False),
            (hw.trainer, "_pair_terms", "train.pair_terms", False),
            (hw.lorentz, "project_to_tangent", "train.update.project_to_tangent", False),
            (hw.lorentz, "exp_map", "train.update.exp_map", True),
            (hw.lorentz, "normalize", "train.update.normalize", False),
        ]

    def __call__(self, name, fn, *args, **kwargs):
        self.calls += 1
        with ExitStack() as stack:
            if name == "train":
                for owner, attr, span, rows in self.train_children:
                    stack.enter_context(self.tracer.patched(owner, attr, span, rows))
            return self.tracer.call(name, fn, *args, **kwargs)


# --- set-up ------------------------------------------------------------------


def write_inputs(spec: Spec, seed: int, hw, out: Path) -> checks.RefGraph:
    """Generate the workload's graph from the seed and write it as TSV."""
    rng = np.random.default_rng(seed)
    gen = hw.synthetic.two_block_graph if spec.graph == "two_block" else hw.synthetic.dblp_shaped_graph
    g = gen(rng)
    labels = [g.node_types[t].label for t in g.node_type_of]
    ref = checks.RefGraph(g.node_ids, labels, g.edges)
    with open(out / "nodes.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"{nid}\t{lab}\n" for nid, lab in zip(ref.node_ids, labels))
    with open(out / "edges.tsv", "w", encoding="utf-8") as f:
        f.writelines(f"{ref.node_ids[u]}\t{ref.node_ids[v]}\n" for u, v in ref.edges.tolist())
    return ref


def time_loads(hw, out: Path, call, times: list, min_loads=2, min_s=0.3):
    """Load the graph at least ``min_loads`` times and for ``min_s`` seconds,
    appending each load's time to ``times``; returns the last graph."""
    g, t_start = None, time.perf_counter()
    n = len(times)
    while len(times) - n < min_loads or time.perf_counter() - t_start < min_s:
        g = None  # free the previous graph before timing the next load
        t0 = time.perf_counter()
        g = call("load_graph", hw.graph.load_graph, out / "nodes.tsv", out / "edges.tsv")
        times.append(time.perf_counter() - t0)
    return g


# --- one round ---------------------------------------------------------------


@dataclass
class Round:
    pipeline_s: float
    train_graph: object
    walks: list
    corpus: object
    split: object = None
    table: object = None
    history: list = field(default_factory=list)
    recon: list = field(default_factory=list)
    linkpred: object = None


def run_round(spec: Spec, g, seed: int, hw, call) -> Round:
    ev, sd = hw.evaluation, hw.seeding
    t0 = time.perf_counter()
    split = None
    tg = g
    if spec.split:
        split = call("make_link_split", ev.make_link_split, g, spec.split, SPLIT_TENTHS / 10,
                     rng=sd.substream(seed, sd.SPLITS))
        tg = split.train_graph
    walks = call("generate_walks", hw.walk.generate_walks, tg,
                 hw.walk.WalkConfig(spec.walks_per_node, spec.walk_length, seed))
    corpus = call("build_corpus", hw.corpus.build_corpus, walks, WINDOW, tg.n_nodes)
    r = Round(0.0, tg, walks, corpus, split)
    if spec.epochs:
        cfg = hw.trainer.TrainConfig(
            batch_size=BATCH, epochs=spec.epochs, negatives_per_positive=NEGATIVES, seed=seed
        )
        r.table, r.history = call("train", hw.trainer.train, tg, corpus, cfg, DIM)
        rng = sd.substream(seed, sd.NONEDGES)
        r.recon = [call("reconstruct", ev.reconstruct, tg, r.table, t, rng=rng) for t in spec.recon]
        if split is not None:
            r.linkpred = call("link_prediction_eval", ev.link_prediction_eval, split, r.table)
    r.pipeline_s = time.perf_counter() - t0
    return r


def digest(r: Round) -> str:
    """Fingerprint of a round's outputs, to compare rounds bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    h.update(checks.flatten_walks(r.walks)[0].tobytes())
    h.update(np.ascontiguousarray(r.corpus.pairs).tobytes())
    if r.split is not None:
        h.update(np.ascontiguousarray(r.split.removed_edges).tobytes())
        h.update(np.ascontiguousarray(r.split.sampled_non_edges).tobytes())
    if r.table is not None:
        h.update(r.table.coords.tobytes())
    aucs = [a.auc for a in r.recon] + ([r.linkpred.auc] if r.linkpred else [])
    h.update(np.asarray(aucs, dtype=np.float64).tobytes())
    return h.hexdigest()


def corpus_bytes(corpus) -> int:
    """Bytes of the arrays a SampleCorpus holds as attributes."""
    return sum(v.nbytes for v in vars(corpus).values() if isinstance(v, np.ndarray))


# --- checks ------------------------------------------------------------------


def check_round(spec: Spec, r: Round, ref: checks.RefGraph, seed: int) -> tuple[checks.Checks, dict]:
    """Check a round's outputs; returns the checks and quality figures."""
    c = checks.Checks()
    quality: dict[str, float] = {}
    train_edges = ref.edges
    c.run("train graph nodes", checks.expect, list(r.train_graph.node_ids) == ref.node_ids,
          "the train graph renumbers nodes")
    if r.split is not None:
        ta, tb = spec.split.split("-")
        c.run("split", checks.check_split, r.split, ref, ta, tb, SPLIT_TENTHS, r.train_graph.edges)
        train_edges = ref.minus(r.split.removed_edges)
    c.run("walks", checks.check_walks, r.walks, spec.walks_per_node, spec.walk_length, ref, train_edges)
    c.run("corpus", checks.check_corpus, r.corpus, r.walks, WINDOW)
    if r.table is None:
        return c, quality
    coords = r.table.coords
    c.run("table", checks.check_table, coords, ref.n_nodes, DIM)
    c.run("loss", checks.check_loss, r.history, NEGATIVES)
    # nodes without an edge get no window pair, so train never moves them
    untrained = ref.degree(train_edges) == 0
    trained_aucs, shares = [], []
    for rep in r.recon:
        ta, tb = rep.edge_type.split("-")
        pos = ref.edges_between(ta, tb, train_edges)
        c.run(f"recon {rep.edge_type} positives", checks.expect, rep.n_pos == len(pos),
              f"reconstruct scored {rep.n_pos} edges, the graph has {len(pos)}")
        if rep.negatives_sampled:
            neg = checks.sample_non_edges(ref, ta, tb, 200_000, np.random.default_rng([seed, 7]))
            c.run(f"recon {rep.edge_type}", checks.check_auc_sampled, rep.auc, coords, pos, neg, rep.edge_type)
        else:
            neg = checks.all_non_edges(ref, train_edges, ta, tb)
            c.run(f"recon {rep.edge_type} non-edges", checks.expect, rep.n_neg == len(neg),
                  f"reconstruct scored {rep.n_neg} non-edges, the graph has {len(neg)}")
            c.run(f"recon {rep.edge_type}", checks.check_auc_exact, rep.auc, coords, pos, neg, rep.edge_type)
        c.run(f"recon quality {rep.edge_type}", checks.check_above_chance,
              rep.auc, rep.n_pos, rep.n_neg, 4, f"{rep.edge_type} reconstruction")
        auc, kept = checks.auc_over_trained(coords, pos, neg, untrained)
        trained_aucs.append(auc)
        shares.append(1.0 - kept / len(neg))
    quality["recon.untrained_share"] = statistics.fmean(shares)
    quality["recon.trained_auc"] = statistics.fmean(trained_aucs)
    if spec.graph == "two_block":
        # criterion 6's bar, over the pairs train can move: untrained nodes
        # stay at the origin and score as close to everything
        c.run("recon quality over trained nodes", checks.expect, min(trained_aucs) >= 0.95,
              f"reconstruction AUC over trained nodes {min(trained_aucs):.4f} below 0.95")
    if r.linkpred is not None:
        pos, neg = r.split.removed_edges, r.split.sampled_non_edges
        c.run("linkpred", checks.check_auc_exact, r.linkpred.auc, coords, pos, neg, "link-prediction")
        oracle = checks.block_oracle_auc(ref, pos, neg)
        quality["linkpred.oracle_auc"] = oracle
        c.run("linkpred leak", checks.check_below_oracle, r.linkpred.auc, oracle, len(pos), len(neg))
        auc, kept = checks.auc_over_trained(coords, pos, neg, untrained)
        c.run("linkpred quality over trained nodes", checks.check_above_chance,
              auc, len(pos), kept, 2, "link-prediction over trained nodes")
    return c, quality


# --- metrics -----------------------------------------------------------------


def round_counts(spec: Spec, r: Round) -> dict[str, float]:
    """Per-layer counts and results of a round; the same in every round."""
    _, lengths = checks.flatten_walks(r.walks)
    trained = r.table is not None
    return {
        "walk.steps": int((lengths - 1).sum()),
        "walk.short_walks": int((lengths < spec.walk_length).sum()),
        "corpus.pairs": len(r.corpus),
        "corpus.untrained_nodes": int((np.asarray(r.corpus.node_freq) == 0).sum()),
        "corpus.bytes": corpus_bytes(r.corpus),
        "split.removed": len(r.split.removed_edges) if r.split is not None else 0,
        "train.batches": spec.epochs * math.ceil(len(r.corpus) / BATCH) if trained else 0,
        "train.mean_loss": r.history[-1]["mean_loss"] if trained else 0.0,
        "recon.pairs": sum(a.n_pos + a.n_neg for a in r.recon),
        "recon_auc": statistics.fmean(a.auc for a in r.recon) if r.recon else None,
        "linkpred_auc": r.linkpred.auc if r.linkpred is not None else 0.0,
        # set by check_round where they apply
        "linkpred.oracle_auc": 0.0,
        "recon.untrained_share": 0.0,
        "recon.trained_auc": 0.0,
    }


def traced_metrics(tracer: Tracer, first_span: int, rows: int, counts: dict, pairs_trained: int) -> dict[str, float]:
    t = tracer.totals(first_span)

    def s(name, key="s"):
        return t.get(name, {}).get(key, 0.0)

    update = ("train.update.project_to_tangent", "train.update.exp_map", "train.update.normalize")
    m = {
        "walk.s": s("generate_walks"),
        "corpus.s": s("build_corpus"),
        "split.s": s("make_link_split"),
        "recon.s": s("reconstruct"),
        "linkpred.s": s("link_prediction_eval"),
        "train.s": s("train"),
        "train.self.s": s("train", "self_s"),
        "train.negatives.s": s("train.negatives"),
        "train.negatives.calls": s("train.negatives", "calls"),
        "train.pair_terms.s": s("train.pair_terms"),
        "train.pair_terms.calls": s("train.pair_terms", "calls"),
        "train.update.s": sum(s(n) for n in update),
        "train.update.calls": s("train.update.exp_map", "calls"),
        "train.update.rows": rows,
    }
    m["walk.steps_per_s"] = counts["walk.steps"] / m["walk.s"]
    m["corpus.pairs_per_s"] = counts["corpus.pairs"] / m["corpus.s"]
    m["train.pairs_per_s"] = pairs_trained / m["train.s"] if m["train.s"] else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    hw = import_program()
    spec = WORKLOADS[args.workload]

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        return run(args, spec, hw, contract, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec: Spec, hw, contract: dict, work: Path) -> int:
    tracer = Tracer()
    plain = Caller()
    traced = TracedCaller(tracer, hw)
    ref = write_inputs(spec, args.seed, hw, work)
    # loads are timed at the start, after the first round and at the end
    load_times: list[float] = []
    loader = traced if args.trace else plain
    g = time_loads(hw, work, loader, load_times)
    setup_ok = checks.Checks()
    setup_ok.run("load", checks.expect,
                 g.node_ids == ref.node_ids and np.array_equal(checks.pair_codes(g.edges, g.n_nodes), ref.codes()),
                 "the loaded graph differs from the written files")

    r = run_round(spec, g, args.seed, hw, plain)
    untraced_s, traced_s, traced_rounds = [r.pipeline_s], [], []
    # read before the checks, which allocate arrays of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    time_loads(hw, work, loader, load_times)
    verdict, quality = check_round(spec, r, ref, args.seed)
    counts = round_counts(spec, r) | quality
    first = digest(r)
    del r
    start = time.perf_counter() - untraced_s[0]
    while time.perf_counter() - start < args.seconds or (args.trace and not traced_s):
        use_trace = bool(args.trace) and len(untraced_s) > len(traced_s)
        first_span = len(tracer.spans)
        rows_before = tracer.counts["train.update.exp_map.rows"]
        r = run_round(spec, g, args.seed, hw, traced if use_trace else plain)
        (traced_s if use_trace else untraced_s).append(r.pipeline_s)
        if digest(r) != first:
            verdict.failures.append(f"round {len(untraced_s) + len(traced_s)} differs from round 1")
        if use_trace:
            pairs_trained = spec.epochs * len(r.corpus) if r.table is not None else 0
            rows = tracer.counts["train.update.exp_map.rows"] - rows_before
            t = traced_metrics(tracer, first_span, rows, counts, pairs_trained)
            traced_rounds.append(t)
            children = t["train.negatives.s"] + t["train.pair_terms.s"] + t["train.update.s"]
            if abs(children + t["train.self.s"] - t["train.s"]) > 1e-9 * max(1.0, t["train.s"]):
                verdict.failures.append("train's children and self time do not add up to train.s")
            if t["train.pair_terms.calls"] != counts["train.batches"]:
                verdict.failures.append(f"{t['train.pair_terms.calls']} _pair_terms calls "
                                        f"for {counts['train.batches']} batches")
        del r

    if counts["recon_auc"] is None:
        # nothing trained: reconstruction AUC of the initial table train would start from
        sd = hw.seeding
        init = hw.trainer.init_embeddings(g, DIM, 1e-3, sd.substream(args.seed, sd.INIT))
        rep = plain("reconstruct", hw.evaluation.reconstruct, g, init, spec.split,
                    rng=sd.substream(args.seed, sd.NONEDGES))
        counts["recon_auc"] = rep.auc

    time_loads(hw, work, loader, load_times)
    failures = setup_ok.failures + verdict.failures
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    if args.trace:
        m = {k: statistics.median(d[k] for d in traced_rounds) for k in traced_rounds[0]}
        m.update(counts)
        m["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        section = "per_layer"
        tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed)
    else:
        m = {
            # the mean, not the median: this shared machine flips between a
            # fast and a slow state within seconds (one load of the planted
            # graph takes 6 or 11 ms), so a median jumps between the two
            # from run to run while the mean follows the share of each
            "setup_s": statistics.fmean(load_times),
            "pipeline_s": statistics.median(untraced_s),
            "peak_rss_mb": peak_rss_mb,
            "recon_auc": counts["recon_auc"],
        }
        section = "end_to_end"
    names = [x["name"] for x in contract[section]]
    units = {x["name"]: x["unit"] for x in contract[section]}
    missing = [n for n in names if n not in m]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    result = {
        "correct": not failures,
        "attempted": plain.calls + traced.calls,
        "failed": 0,
        "metrics": {n: {"value": float(m[n]), "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
