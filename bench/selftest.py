"""Self-test of the benchmark's checks: each must pass on real outputs and
fail on a deliberately corrupted copy of them.

    python3 bench/selftest.py

Runs a short pipeline on the planted graph (a few seconds), then corrupts one output at a
time. Exits non-zero, naming the check, if a check passes what it should
reject or rejects what it should pass.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import checks
import run as bench


def main() -> int:
    hw = bench.import_program()
    ev, sd = hw.evaluation, hw.seeding
    g = hw.synthetic.two_block_graph(np.random.default_rng(3))
    ref = checks.RefGraph(g.node_ids, [g.node_types[t].label for t in g.node_type_of], g.edges)
    split = ev.make_link_split(g, "A-B", 0.2, rng=sd.substream(3, sd.SPLITS))
    tg = split.train_graph
    train_edges = ref.minus(split.removed_edges)
    walks = hw.walk.generate_walks(tg, hw.walk.WalkConfig(4, 20, 3))
    corpus = hw.corpus.build_corpus(walks, 5, tg.n_nodes)
    cfg = hw.trainer.TrainConfig(epochs=2, seed=3)
    table, history = hw.trainer.train(tg, corpus, cfg, 4)
    recon = ev.reconstruct(tg, table, "A-B")
    lp = ev.link_prediction_eval(split, table)
    pos = ref.edges_between("A", "B", train_edges)
    neg = checks.all_non_edges(ref, train_edges, "A", "B")
    oracle = checks.block_oracle_auc(ref, split.removed_edges, split.sampled_non_edges)
    n_lp = len(split.removed_edges)
    sampled = checks.sample_non_edges(ref, "A", "B", 2000, np.random.default_rng(0))

    # a walk step that is not an edge: jump to a node not adjacent to the walk's first node
    bad_walks = copy.deepcopy(walks)
    w = next(w for w in bad_walks if len(w) > 2)
    adjacent = set(train_edges[train_edges[:, 0] == w[0], 1]) | set(train_edges[train_edges[:, 1] == w[0], 0])
    w[1] = next(v for v in range(ref.n_nodes) if v != w[0] and v not in adjacent)
    # a walk cut short at a node that has neighbours
    cut_walks = copy.deepcopy(walks)
    del cut_walks[next(i for i, w in enumerate(cut_walks) if len(w) == 20)][-1]
    # an off-manifold row
    off = table.coords.copy()
    off[5, 0] += 0.1
    # a held-out edge left in the train graph
    leaky = np.r_[tg.edges, split.removed_edges[:1]]
    # a corpus that lost a pair
    short_corpus = hw.corpus.SampleCorpus(corpus.pairs[1:], corpus.n_nodes)

    cases = [
        # (name, expected to pass, check, args)
        ("walks", True, checks.check_walks, (walks, 4, 20, ref, train_edges)),
        ("walks: step not an edge", False, checks.check_walks, (bad_walks, 4, 20, ref, train_edges)),
        ("walks: cut short", False, checks.check_walks, (cut_walks, 4, 20, ref, train_edges)),
        ("corpus", True, checks.check_corpus, (corpus, walks, 5)),
        ("corpus: a pair lost", False, checks.check_corpus, (short_corpus, walks, 5)),
        ("split", True, checks.check_split, (split, ref, "A", "B", 2, tg.edges)),
        ("split: held-out edge left in", False, checks.check_split, (split, ref, "A", "B", 2, leaky)),
        ("table", True, checks.check_table, (table.coords, ref.n_nodes, 4)),
        ("table: off-manifold row", False, checks.check_table, (off, ref.n_nodes, 4)),
        ("loss", True, checks.check_loss, (history, cfg.negatives_per_positive)),
        ("loss: at the coincidence ceiling", False, checks.check_loss,
         ([{"mean_loss": float(np.log(1 + cfg.negatives_per_positive))}], cfg.negatives_per_positive)),
        ("recon AUC", True, checks.check_auc_exact, (recon.auc, table.coords, pos, neg, "A-B")),
        ("recon AUC: swapped", False, checks.check_auc_exact, (1 - recon.auc, table.coords, pos, neg, "A-B")),
        ("recon AUC, sampled", True, checks.check_auc_sampled, (recon.auc, table.coords, pos, sampled, "A-B")),
        ("recon AUC, sampled: swapped", False, checks.check_auc_sampled,
         (1 - recon.auc, table.coords, pos, sampled, "A-B")),
        ("linkpred AUC", True, checks.check_auc_exact,
         (lp.auc, table.coords, split.removed_edges, split.sampled_non_edges, "link-prediction")),
        ("linkpred AUC: swapped", False, checks.check_auc_exact,
         (1 - lp.auc, table.coords, split.removed_edges, split.sampled_non_edges, "link-prediction")),
        ("linkpred below the oracle", True, checks.check_below_oracle, (lp.auc, oracle, n_lp, n_lp)),
        ("linkpred below the oracle: leaked", False, checks.check_below_oracle, (1.0, oracle, n_lp, n_lp)),
        ("above chance: at chance", False, checks.check_above_chance, (0.5, len(pos), len(neg), 4, "A-B")),
    ]
    wrong = []
    for name, should_pass, fn, args in cases:
        try:
            fn(*args)
            passed, msg = True, ""
        except checks.CheckFailed as e:
            passed, msg = False, str(e)
        verdict = "ok" if passed == should_pass else "WRONG"
        print(f"{verdict:5s} {name}: {'passes' if passed else 'fails: ' + msg}")
        if passed != should_pass:
            wrong.append(name)
    mine = checks.rank_auc([1, 2, 2, 3], [0, 2, 5])
    ref_auc = ev.auc([1, 2, 2, 3], [0, 2, 5])
    if abs(mine - ref_auc) > 1e-12:
        wrong.append(f"rank_auc {mine} != evaluation.auc {ref_auc} on a tied sample")
    if checks.component_count(5, np.array([[0, 1], [1, 2], [3, 4]])) != 2:
        wrong.append("component_count")
    if wrong:
        print(f"self-test FAILED: {wrong}", file=sys.stderr)
        return 1
    print(f"self-test passed: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
