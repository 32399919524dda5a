"""CLI behavior: exit codes, outputs, flag checks, determinism."""

import json
import re
import shutil

import numpy as np
import pytest

from hyperwalk import seeding
from hyperwalk.cli import main
from hyperwalk.evaluation import make_link_split
from hyperwalk.graph import TypedGraph, load_graph
from hyperwalk.synthetic import two_block_graph
from hyperwalk.trainer import init_embeddings


@pytest.fixture
def graph_files(tmp_path):
    rng = np.random.default_rng(0)
    nodes = [(f"a{i}", "A") for i in range(12)] + [(f"b{i}", "B") for i in range(12)]
    edges = [(i, 12 + int(rng.integers(12))) for i in range(12)]
    edges += [(int(rng.integers(12)), 12 + i) for i in range(12)]
    g = TypedGraph(nodes, edges)
    nodes_tsv = tmp_path / "nodes.tsv"
    edges_tsv = tmp_path / "edges.tsv"
    g.save(nodes_tsv, edges_tsv)
    return str(nodes_tsv), str(edges_tsv)


def fast_flags():
    return ["--walks", "2", "--walk-length", "10", "--epochs", "1", "--negatives", "3"]


def test_usage_errors_exit_2(capsys, graph_files):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["train", "--nodes", str(tmp_path / "no.tsv"), "--edges", str(tmp_path / "no2.tsv")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_runtime_failure_exits_1(graph_files, tmp_path, capsys):
    nodes, edges = graph_files
    rc = main(
        ["reconstruct", "--nodes", nodes, "--edges", edges, "--out", str(tmp_path / "o"),
         "--embeddings", nodes]  # a node file is not a valid embedding table
    )
    assert rc == 1


def test_runtime_failure_names_the_exception_type(graph_files, tmp_path, capsys):
    nodes, edges = graph_files
    rc = main(["linkpred", "--nodes", nodes, "--edges", edges, "--out", str(tmp_path / "o"),
               "--edge-type", "no-such-type", *fast_flags()])
    assert rc == 1
    assert "error: GraphError: unknown edge type 'no-such-type'" in capsys.readouterr().err


def test_train_writes_embeddings_log_and_manifest(graph_files, tmp_path):
    nodes, edges = graph_files
    out = tmp_path / "run"
    rc = main(["train", "--nodes", nodes, "--edges", edges, "--out", str(out),
               "--dim", "2", *fast_flags()])
    assert rc == 0
    emb = (out / "embeddings.tsv").read_text().splitlines()
    assert len(emb) == 24
    assert len(emb[0].split("\t")) == 2 + 3  # id, type, 3 ambient coords
    log = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 1
    assert {"epoch", "mean_loss", "wall_time_s", "max_manifold_drift"} <= set(log[0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["seed"] == 0
    assert manifest["deterministic"] is True


def test_train_multi_dim_outputs(graph_files, tmp_path):
    nodes, edges = graph_files
    out = tmp_path / "multi"
    rc = main(["train", "--nodes", nodes, "--edges", edges, "--out", str(out),
               "--dim", "2,3", *fast_flags()])
    assert rc == 0
    assert (out / "embeddings_d2.tsv").exists()
    assert (out / "embeddings_d3.tsv").exists()


def test_dims_lists_are_checked(graph_files, tmp_path, capsys):
    nodes, edges = graph_files
    run = tmp_path / "t"
    assert main(["train", "--nodes", nodes, "--edges", edges, "--out", str(run),
                 "--dim", "2", *fast_flags()]) == 0
    emb = str(run / "embeddings.tsv")
    capsys.readouterr()
    for dims, n_files in (("2", 2), ("2,2", 1)):
        rc = main(["reconstruct", "--nodes", nodes, "--edges", edges, "--out", str(tmp_path / "r"),
                   "--dims", dims, *["--embeddings", emb] * n_files])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: ValueError:" in err
        assert f"{len(dims.split(','))} dimensions for {n_files} --embeddings" in err
    for command in (["train"], ["linkpred", "--edge-type", "A-B"]):
        out = tmp_path / command[0]
        rc = main([*command, "--nodes", nodes, "--edges", edges, "--out", str(out),
                   "--dim", ",", *fast_flags()])
        assert rc == 1
        assert "error: ValueError: --dim ',' lists no dimension" in capsys.readouterr().err
        assert not out.exists()


def test_reconstruct_reports_auc(graph_files, tmp_path, capsys):
    nodes, edges = graph_files
    run = tmp_path / "t"
    main(["train", "--nodes", nodes, "--edges", edges, "--out", str(run),
          "--dim", "2", *fast_flags()])
    rc = main(["reconstruct", "--nodes", nodes, "--edges", edges,
               "--out", str(tmp_path / "r"), "--embeddings", str(run / "embeddings.tsv")])
    assert rc == 0
    reports = json.loads((tmp_path / "r" / "reconstruction.json").read_text())
    assert len(reports) == 1
    r = reports[0]
    assert r["edge_type"] == "A-B" and r["dimension"] == 2
    assert 0.0 <= r["auc"] <= 1.0


def test_linkpred_writes_split_and_report(graph_files, tmp_path):
    nodes, edges = graph_files
    out = tmp_path / "lp"
    rc = main(["linkpred", "--nodes", nodes, "--edges", edges, "--out", str(out),
               "--edge-type", "A-B", "--dim", "2", *fast_flags()])
    assert rc == 0
    assert (out / "split" / "split.json").exists()
    reports = json.loads((out / "link_prediction.json").read_text())
    assert reports[0]["n_pos"] == reports[0]["n_neg"] > 0


def test_linkpred_writes_the_train_log_that_train_writes(graph_files, tmp_path):
    nodes, edges = graph_files
    logs = {}
    for command in (["train"], ["linkpred", "--edge-type", "A-B"]):
        out = tmp_path / command[0]
        assert main([*command, "--nodes", nodes, "--edges", edges, "--out", str(out),
                     "--dim", "2", *fast_flags(), "--epochs", "2"]) == 0
        lines = (out / "train_log.jsonl").read_text().splitlines()
        logs[command[0]] = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in logs["linkpred"]] == [0, 1]
    assert [set(r) for r in logs["linkpred"]] == [set(r) for r in logs["train"]]


def test_linkpred_split_follows_the_seed(tmp_path):
    g = two_block_graph(np.random.default_rng(0), sizes=(30, 6, 30))

    def split_at(seed):
        rng = seeding.substream(seed, seeding.SPLITS)
        return make_link_split(g, "A-B", 0.2, rng=rng).removed_edges

    assert not np.array_equal(split_at(0), split_at(7))
    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    g.save(nodes, edges)

    def linkpred(out, seed):
        assert main(["linkpred", "--nodes", str(nodes), "--edges", str(edges), "--out", str(out),
                     "--edge-type", "A-B", "--seed", seed, "--dim", "2", *fast_flags()]) == 0
        return (out / "split" / "removed_edges.tsv").read_bytes()

    linkpred(tmp_path / "shared", "0")
    assert linkpred(tmp_path / "shared", "7") == linkpred(tmp_path / "fresh", "7")


def test_project_exports_disk_coordinates(graph_files, tmp_path):
    nodes, edges = graph_files
    run = tmp_path / "t"
    main(["train", "--nodes", nodes, "--edges", edges, "--out", str(run),
          "--dim", "2", *fast_flags()])
    out = tmp_path / "p"
    rc = main(["project", "--nodes", nodes, "--edges", edges, "--out", str(out),
               "--embeddings", str(run / "embeddings.tsv"), "--region-type", "A"])
    assert rc == 0
    rows = (out / "projection.tsv").read_text().splitlines()
    assert len(rows) == 24
    regions = json.loads((out / "regions.json").read_text())
    assert regions["node_type"] == "A"
    assert len(regions["regions"]) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["linkpred", "--edge-type", "A-B", "--fraction", "1.5"],
         "ValueError: fraction must be in (0, 1], got 1.5"),
        (["linkpred", "--edge-type", "no-such-type"], "GraphError: unknown edge type 'no-such-type'"),
        (["train", "--dim", "2,3,2"], "ValueError: --dim lists dimension 2 more than once"),
        (["train", "--lr", "0"], "ValueError: lr, batch_size, negatives must be positive"),
        (["linkpred", "--edge-type", "A-B", "--negatives", "0"],
         "ValueError: lr, batch_size, negatives must be positive"),
        (["linkpred", "--edge-type", "A-B", "--batch", "0"],
         "ValueError: lr, batch_size, negatives must be positive"),
        (["train", "--window", "0"], "ValueError: window must be >= 1, got 0"),
        (["reconstruct", "--edge-type", "no-such", "--embeddings", "EMB"],
         "GraphError: unknown edge type 'no-such'"),
        (["reconstruct", "--embeddings", "NODES"],
         "ValueError: coords must be (n_nodes, dim + 1) with dim >= 2"),
        (["train", "--dim", "1"], "ValueError: embedding dimension must be >= 2, got 1"),
        (["train", "--dim", "2,1"], "ValueError: embedding dimension must be >= 2, got 1"),
        (["linkpred", "--edge-type", "A-B", "--dim", "1"],
         "ValueError: embedding dimension must be >= 2, got 1"),
        (["linkpred", "--edge-type", "A-B", "--dim", "2,1"],
         "ValueError: embedding dimension must be >= 2, got 1"),
        (["train", "--seed", "-1"], "ValueError: seed must be non-negative"),
        (["reconstruct", "--embeddings", "EMB", "--seed", "-1"], "ValueError: seed must be non-negative"),
        (["reconstruct", "--embeddings", "EMB", "--max-neg", "0"],
         "ValueError: max_neg must be >= 1, got 0"),
        (["reconstruct", "--embeddings", "EMB", "--max-neg", "-5"],
         "ValueError: max_neg must be >= 1, got -5"),
        (["train", "--dump-walks", "NODIR"], "FileNotFoundError: [Errno 2] No such file or directory"),
        (["reconstruct", "--embeddings", "EMB", "--embeddings", "NANEMB"],
         "GraphError: NANEMB:3: a coordinate is not finite"),
    ],
)
def test_bad_flags_fail_before_any_output(graph_files, tmp_path, capsys, argv, message):
    nodes, edges = graph_files
    out = tmp_path / "o"
    g, emb = load_graph(nodes, edges), tmp_path / "emb.tsv"
    init_embeddings(g, 2, 1.0, np.random.default_rng(0)).save_tsv(emb, g)
    nan_emb = tmp_path / "nan_emb.tsv"  # a valid table but for one nan on line 3
    rows = emb.read_text().splitlines()
    rows[2] = rows[2].rsplit("\t", 1)[0] + "\tnan"
    nan_emb.write_text("\n".join(rows) + "\n")
    paths = {"EMB": str(emb), "NANEMB": str(nan_emb), "NODES": nodes,
             "NODIR": str(tmp_path / "nodir" / "w.txt")}
    argv = [paths.get(a, a) for a in argv]
    message = message.replace("NANEMB", paths["NANEMB"])
    # reconstruct walks and trains nothing, so it takes no pipeline flags;
    # argv comes last, so that its flags override fast_flags()
    flags = [] if argv[0] == "reconstruct" else fast_flags()
    rc = main([argv[0], "--nodes", nodes, "--edges", edges, "--out", str(out), *flags, *argv[1:]])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging update overflows
def test_a_run_that_fails_after_its_inputs_load_leaves_no_output(tmp_path, capsys):
    # every A-P pair is an edge, so A-P has no non-edges to reconstruct against
    g = TypedGraph([("a0", "A"), ("a1", "A"), ("p0", "P"), ("p1", "P")],
                   [(0, 2), (0, 3), (1, 2), (1, 3)])
    nodes, edges, emb = tmp_path / "nodes.tsv", tmp_path / "edges.tsv", tmp_path / "emb.tsv"
    g.save(nodes, edges)
    init_embeddings(g, 2, 1.0, np.random.default_rng(0)).save_tsv(emb, g)
    for argv, message in (
        (["train", *fast_flags(), "--lr", "1e10"], "TrainingDiverged: non-finite update"),
        (["reconstruct", "--embeddings", str(emb)], "GraphError: edge type 'A-P' is complete"),
    ):
        out = tmp_path / argv[0]
        rc = main([argv[0], "--nodes", str(nodes), "--edges", str(edges), "--out", str(out),
                   *argv[1:]])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("boundaries", ["1,0.5", "2,2", ","])
def test_project_checks_boundaries_before_any_output(graph_files, tmp_path, capsys, boundaries):
    nodes, edges = graph_files
    g = load_graph(nodes, edges)
    emb = tmp_path / "emb.tsv"
    init_embeddings(g, 2, 1.0, np.random.default_rng(0)).save_tsv(emb, g)
    out = tmp_path / "p"
    rc = main(["project", "--nodes", nodes, "--edges", edges, "--out", str(out),
               "--embeddings", str(emb), "--region-type", "A", "--boundaries", boundaries])
    assert rc == 1
    assert "error: ValueError: boundaries must be non-empty and strictly increasing" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_train_runs_are_byte_identical(graph_files, tmp_path, monkeypatch):
    nodes, edges = graph_files
    outs = []
    for name in ("r1", "r2"):
        if name == "r2":  # only flags set a run: the environment does not
            monkeypatch.setenv("HYPERWALK_EPOCHS", "2")
        out = tmp_path / name
        # no --epochs flag, so both runs take the default
        assert main(["train", "--nodes", nodes, "--edges", edges, "--out", str(out),
                     "--dim", "2", "--seed", "7", "--walks", "2", "--walk-length", "10",
                     "--negatives", "3"]) == 0
        outs.append((out / "embeddings.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_identical_runs_write_identical_files_but_for_wall_time(graph_files, tmp_path, capsys):
    # criterion 9 compares embeddings.tsv only; this compares every file a
    # run writes and its stdout, with only the logs' wall_time_s masked
    nodes, edges = graph_files
    out = tmp_path / "run"
    for command in (["train"], ["linkpred", "--edge-type", "A-B"]):
        runs = []
        for _ in range(2):
            assert main([*command, "--nodes", nodes, "--edges", edges, "--out", str(out),
                         "--dim", "2,3", "--seed", "3", *fast_flags(), "--epochs", "2"]) == 0
            files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            for name in ("train_log_d2.jsonl", "train_log_d3.jsonl"):
                files[name], masked = re.subn(rb'"wall_time_s": [^,}]+', b'"wall_time_s": 0',
                                              files[name])
                assert masked == 2
            runs.append((files, capsys.readouterr().out))
            shutil.rmtree(out)
        assert {"manifest.json", "embeddings_d2.tsv", "embeddings_d3.tsv"} <= set(runs[0][0])
        assert runs[0] == runs[1]
