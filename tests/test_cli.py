import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hgnn_space

from hgnn_space.cli import main
from hgnn_space.hgraph import (GraphError, SyntheticSpec, build_graph, generate_synthetic,
                               save_graph)
from hgnn_space.model import DesignConfig
from hgnn_space.runner import parse_plan, save_config_list


def bundle(tmp_path):
    spec = SyntheticSpec(
        node_types=(("P", 40, 8), ("A", 20, 8)),
        relations=(("ap", "A", "P", 90), ("pa", "P", "A", 90)),
        target_type="P", num_communities=4, boost=1.0, noise=0.0, seed=1)
    return save_graph(generate_synthetic(spec), tmp_path / "bundle")


def test_space_cardinality(capsys):
    assert main(["space", "cardinality"]) == 0
    assert capsys.readouterr().out.strip() == "41990400"
    assert main(["space", "cardinality", "--space", "condensed"]) == 0
    assert capsys.readouterr().out.strip() == "82944"


def test_space_describe(capsys):
    main(["space", "describe", "--space", "condensed"])
    out = capsys.readouterr().out
    assert "model_family: Homogenization, Relation, Metapath" in out
    assert "cardinality: 82944" in out


def test_space_sample_writes_configs(tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["space", "sample", "--n", "6", "--seed", "3", "--out", str(out)])
    configs = json.loads(Path(out).read_text())
    assert len(configs) == 6
    main(["space", "sample", "--n", "2", "--seed", "3", "--space", "condensed",
          "--expand-dim", "has_bn", "--out", str(out)])
    expanded = json.loads(Path(out).read_text())
    assert len(expanded) == 4  # 2 base configs x 2 BN choices


@pytest.mark.parametrize("args,message", [
    (["--expand-dim", "nosuch"], "unknown design dimension 'nosuch'"),
    # at seed 3 the full space's one draw is a Homogenization config
    (["--n", "1", "--seed", "3", "--expand-dim", "macro_agg"],
     "dimension 'macro_agg' does not apply to any of the 1 sampled configs"),
    (["--n", "12", "--seed", "1", "--expand-dim", "model_family"],
     "dimension 'model_family' cannot be expanded: whether 'macro_agg' applies"),
    (["--strata-hits", "2"], "strata require 24 samples but n=6"),
    (["--strata-hits", "-1"], "stratum hit counts must not be negative"),
    (["--n", "0"], "--n must be at least 1, got 0"),
    (["--n", "-2"], "--n must be at least 1, got -2"),
], ids=["unknown-dim", "inapplicable-dim", "dependent-dim", "strata-over-n",
        "negative-hits", "zero-n", "negative-n"])
def test_space_sample_reports_a_bad_request_in_one_line(tmp_path, capsys, args,
                                                        message):
    out = tmp_path / "c.json"
    assert main(["space", "sample", "--n", "6", "--seed", "3", "--out", str(out),
                 *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hgnn-space: error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_expanding_macro_agg_skips_the_homogenization_draws(tmp_path, capsys, seed):
    from hgnn_space import designspace as ds

    out = tmp_path / "c.json"
    assert main(["space", "sample", "--space", "condensed", "--n", "12", "--seed",
                 str(seed), "--expand-dim", "macro_agg", "--out", str(out)]) == 0
    configs = [DesignConfig.from_flat(d) for d in json.loads(Path(out).read_text())]
    kinds = ds.condensed_space().dim("macro_agg").choices
    assert len(kinds) == 4 and configs and len(configs) % 4 == 0
    for i in range(0, len(configs), 4):
        setup = configs[i:i + 4]
        assert setup[0].model_family in ("Relation", "Metapath")
        assert tuple(c.macro_agg for c in setup) == kinds
        assert all(c == setup[0].with_values(macro_agg=c.macro_agg) for c in setup)
    skipped = 12 - len(configs) // 4
    line = capsys.readouterr().out
    assert line.startswith(f"wrote {len(configs)} configs to {out}")
    assert (f"({skipped} of 12 base configs skipped: 'macro_agg' does not apply"
            in line) == (skipped > 0)


def test_run_reports_a_bad_plan_in_one_line_with_its_line_number(tmp_path):
    plan = tmp_path / "plan.cfg"
    plan.write_text("graph = g\ntask = link_prediction\ntarget = ap\nsplits = three\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hgnn_space.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hgnn_space.cli", "run",
                           "--plan", str(plan)], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == (f"hgnn-space: error: {plan}:4: plan key 'splits' needs "
                           "an integer, got 'three'\n")


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("hgnn-space: error: ")
    assert "Traceback" not in err and err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv", [
    ["run", "--plan", "{missing}"],
    ["analyze", "rank", "--dim", "has_bn", "--results", "{missing}"],
    ["analyze", "edf", "--results", "{missing}"],
], ids=["plan", "rank-results", "edf-results"])
def test_a_missing_input_file_is_reported_in_one_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "nosuch")
    assert main([a.format(missing=missing) for a in argv]) == 2
    assert _one_line_error(capsys) == (f"hgnn-space: error: {missing}: "
                                       "No such file or directory\n")


def test_a_plan_that_is_not_utf8_is_reported_in_one_line(tmp_path, capsys):
    plan = tmp_path / "plan.cfg"
    plan.write_bytes(b"graph = \xff\n")
    assert main(["run", "--plan", str(plan)]) == 2
    err = _one_line_error(capsys)
    assert f"{plan}: " in err and "codec can't decode" in err


@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    ("not json\n", "not a JSON config list"),
    ('{"seed": 1}\n', "a config list must be a JSON list of objects"),
    ("[1]\n", "a config list must be a JSON list of objects"),
    ("[]\n", "the config list is empty"),
], ids=["missing", "garbage", "object", "list-of-numbers", "empty"])
def test_a_bad_config_list_is_reported_in_one_line(tmp_path, capsys, content, message):
    configs = tmp_path / "configs.json"
    if content is not None:
        configs.write_text(content)
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"graph = {bundle(tmp_path)}\ntask = node_classification\n"
                    f"target = P\nspace = {configs}\n")
    assert main(["run", "--plan", str(plan)]) == 2
    assert f"{configs}: {message}" in _one_line_error(capsys)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_a_config_seed_that_is_not_a_non_negative_integer_is_reported_in_one_line(
        tmp_path, capsys, seed):
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([{"hidden_dim": 8, "mp_layers": 1, "seed": seed}]))
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"graph = {bundle(tmp_path)}\ntask = node_classification\n"
                    f"target = P\nspace = {configs}\nsplits = 1\nepoch_override = 0\n"
                    f"out = {tmp_path / 'r.ndrec'}\n")
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == (
        f"hgnn-space: error: config 0 is invalid: seed: {seed!r} "
        f"({type(seed).__name__}) is not a non-negative integer\n")


@pytest.mark.parametrize("key,value,choices", [
    ("has_bn", 1, "[True, False]"),
    ("dropout_p", False, "[0.0, 0.3, 0.6]"),
    ("mp_layers", True, "[1, 2, 3, 4, 5, 6]"),
    ("epochs", 100.0, "[100, 200, 400]"),
    ("hidden_dim", 64.0, "[8, 16, 32, 64, 128]"),
])
def test_a_config_value_of_the_wrong_type_is_reported_in_one_line(
        tmp_path, capsys, key, value, choices):
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps([{"mp_layers": 1, "epochs": 100, key: value}]))
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"graph = {bundle(tmp_path)}\ntask = node_classification\n"
                    f"target = P\nspace = {configs}\nsplits = 1\nepoch_override = 0\n"
                    f"out = {tmp_path / 'r.ndrec'}\n")
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == (
        f"hgnn-space: error: config 0 is invalid: {key}: {value!r} "
        f"({type(value).__name__}) not in {choices}\n")


@pytest.mark.parametrize("text,message", [
    ("", "is not a results file"),
    ("not json\n", "is not a results file"),
    ("[1, 2]\n", "is not a results file"),
    ('{"format":"hgnn-space-results/1"}\n{"trial_id": 0, "conf\n', ":2: not a JSON record"),
    ('{"format":"hgnn-space-results/1"}\n[1]\n', ":2: a record must be a JSON object"),
    ('{"format":"hgnn-space-results/1"}\n\n{"trial_id": 0, "split_id": 0, "status": "ok", '
     '"config": {}}\n', ":3: record has no key 'best_score'"),
    ('{"format":"hgnn-space-results/1"}\n{"trial_id": 0, "split_id": 0, "status": "ok", '
     '"best_score": "0.5", "config": {}}\n', ":2: record key 'best_score' has the wrong"),
    ('{"format":"hgnn-space-results/1"}\n{"trial_id": 0, "split_id": true, "status": "ok", '
     '"best_score": 0.5, "config": {}}\n', ":2: record key 'split_id' has the wrong"),
    ('{"format":"hgnn-space-results/1"}\n{"trial_id": 0, "split_id": 0, "status": "ok", '
     '"best_score": 0.5, "config": {"has_bn": [true]}}\n',
     ":2: record key 'config' must map each field to a single value"),
], ids=["empty", "garbage", "json-list", "truncated-record", "record-not-object",
        "record-without-score", "string-score", "bool-split", "list-in-config"])
def test_a_file_that_is_not_a_results_file_is_reported_in_one_line(tmp_path, capsys,
                                                                    text, message):
    path = tmp_path / "r.ndrec"
    path.write_text(text)
    assert main(["analyze", "rank", "--dim", "has_bn", "--results", str(path)]) == 2
    assert message in _one_line_error(capsys)


def _results_file(tmp_path):
    path = tmp_path / "r.ndrec"
    records = [{"trial_id": i, "status": "ok", "best_score": 0.5 + i, "split_id": 0,
                "config": DesignConfig(has_bn=bn).to_flat()}
               for i, bn in enumerate((True, False))]
    path.write_text('{"format":"hgnn-space-results/1","plan_hash":"x"}\n'
                    + "".join(json.dumps(r) + "\n" for r in records))
    return str(path)


@pytest.mark.parametrize("command", ["sample", "rank", "edf", "homophily", "run"])
def test_an_output_path_that_cannot_be_written_is_reported_in_one_line(tmp_path, capsys,
                                                                       command):
    blocked = tmp_path / "missing-dir" / "out"
    argv = {
        "sample": ["space", "sample", "--n", "2", "--out", str(blocked)],
        "rank": ["analyze", "rank", "--dim", "has_bn", "--results",
                 _results_file(tmp_path), "--out-dir", str(tmp_path / "r.ndrec")],
        "edf": ["analyze", "edf", "--results", _results_file(tmp_path),
                "--out-dir", str(tmp_path / "r.ndrec")],
        "homophily": ["analyze", "homophily", "--graph", bundle(tmp_path),
                      "--metapaths", "PAP:pa,ap", "--out", str(blocked)],
    }.get(command)
    if argv is None:  # a plan whose `out` lies in a missing directory
        cfg_path = tmp_path / "configs.json"
        save_config_list([DesignConfig(hidden_dim=8, mp_layers=1)], cfg_path)
        plan = tmp_path / "plan.cfg"
        plan.write_text(f"graph = {bundle(tmp_path)}\ntask = node_classification\n"
                        f"target = P\nspace = {cfg_path}\nsplits = 1\n"
                        f"epoch_override = 1\nout = {blocked}\n")
        argv = ["run", "--plan", str(plan)]
    assert main(argv) == 2
    err = _one_line_error(capsys)
    if command in ("rank", "edf"):  # the directory is an existing file
        assert err == f"hgnn-space: error: {tmp_path / 'r.ndrec'}: File exists\n"
    else:
        partial = ".partial" if command == "run" else ""
        assert err == (f"hgnn-space: error: {blocked}{partial}: "
                       "No such file or directory\n")


@pytest.mark.parametrize("metapaths", ["PAP", ":", "A:;B:x"])
def test_a_plan_with_an_empty_metapath_name_or_chain_is_reported_in_one_line(
        tmp_path, capsys, metapaths):
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"graph = {bundle(tmp_path)}\ntask = node_classification\n"
                    f"target = P\nmetapaths = {metapaths}\n")
    assert main(["run", "--plan", str(plan)]) == 2
    assert f"in '{metapaths}' needs a name and a chain" in _one_line_error(capsys)


def _sampled_plan(tmp_path, graph, **keys):
    plan = tmp_path / "plan.cfg"
    lines = [f"graph = {graph}", "task = node_classification", "target = P",
             "space = condensed", "splits = 1", "epoch_override = 0",
             f"out = {tmp_path / 'r.ndrec'}"]
    plan.write_text("\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n")
    return plan


@pytest.mark.parametrize("keys,message", [
    ({"n": 10, "strata_hits": 2},
     "plan keys 'n' and 'strata_hits': strata_hits = 2 in each of 12 strata needs "
     "n of at least 24, got n = 10"),
    ({"n": 2, "strata_hits": -1}, "plan key 'strata_hits' must not be negative, got -1"),
    ({"n": 0, "strata_hits": 0}, "plan key 'n' must be at least 1, got 0"),
], ids=["strata-over-n", "negative-hits", "zero-n"])
def test_a_bad_sampling_key_is_reported_in_one_line_before_any_trial(tmp_path, capsys,
                                                                     keys, message):
    plan = _sampled_plan(tmp_path, bundle(tmp_path), **keys)
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == f"hgnn-space: error: {message}\n"
    assert not (tmp_path / "r.ndrec.partial").exists()
    assert not (tmp_path / "r.ndrec").exists()


@pytest.mark.parametrize("node_type,row,value", [("P", 3, np.inf), ("A", 0, np.nan),
                                                 ("P", 39, -np.inf)],
                         ids=["inf", "nan", "minus-inf-last-row"])
def test_a_non_finite_feature_is_reported_in_one_line_before_any_trial(
        tmp_path, capsys, node_type, row, value):
    spec = SyntheticSpec(
        node_types=(("P", 40, 8), ("A", 20, 8)),
        relations=(("ap", "A", "P", 90), ("pa", "P", "A", 90)),
        target_type="P", num_communities=4, boost=1.0, noise=0.0, seed=1)
    g = generate_synthetic(spec)
    x = g.features[node_type].copy()
    x[row, 2] = value
    x[row + 1:, 0] = np.nan  # later bad rows are not named
    g.features[node_type] = x
    graph = save_graph(g, tmp_path / "bundle")
    plan = _sampled_plan(tmp_path, graph, n=2, strata_hits=0)
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == (
        f"hgnn-space: error: graph '{graph}': node type '{node_type}' has a "
        f"non-finite feature in row {row}\n")
    assert not (tmp_path / "r.ndrec.partial").exists()


@pytest.mark.parametrize("bits,row", [(0xFFF0000000000002, 0), (0x7FF0000000000000, 19)],
                         ids=["negative-signalling-nan", "inf-last-row"])
def test_a_non_finite_cell_of_an_npy_feature_file_is_reported_in_one_line(
        tmp_path, capsys, bits, row):
    graph = Path(bundle(tmp_path))
    name = json.loads((graph / "graph.json").read_text())["features"]["A"]
    assert name == "A.features.npy"
    x = np.load(graph / name).astype(">f8")  # either byte order is read
    x[row, 5] = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    np.save(graph / name, x)
    plan = _sampled_plan(tmp_path, graph, n=2, strata_hits=0)
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == (
        f"hgnn-space: error: graph '{graph}': node type 'A' has a "
        f"non-finite feature in row {row}\n")
    assert not (tmp_path / "r.ndrec.partial").exists()


def test_a_label_below_minus_one_is_reported_in_one_line_before_any_trial(
        tmp_path, capsys):
    spec = SyntheticSpec(
        node_types=(("P", 40, 8), ("A", 20, 8)),
        relations=(("ap", "A", "P", 90), ("pa", "P", "A", 90)),
        target_type="P", num_communities=4, boost=1.0, noise=0.0, seed=1)
    g = generate_synthetic(spec)
    y = g.labels["P"].copy()
    y[[7, 12]] = [-3, -7]
    g.labels["P"] = y
    graph = save_graph(g, tmp_path / "bundle")
    plan = _sampled_plan(tmp_path, graph, n=2, strata_hits=0)
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == (
        "hgnn-space: error: labels for 'P': node 7 has label -3; a label is a "
        "class id >= 0, or -1 for an unlabeled node\n")
    assert not (tmp_path / "r.ndrec.partial").exists()


@pytest.mark.parametrize("keys", [{}, {"num_classes": 3}], ids=["inferred", "given"])
def test_a_target_type_without_nodes_is_reported_in_one_line(tmp_path, capsys, keys):
    g = build_graph([("P", 0, 2), ("A", 4, 2)], [("ap", "A", "P"), ("pa", "P", "A")],
                    {}, features={"P": np.zeros((0, 2)), "A": np.ones((4, 2))},
                    labels={"P": np.zeros(0, dtype=np.int64)})
    plan = _sampled_plan(tmp_path, save_graph(g, tmp_path / "bundle"), n=2,
                         strata_hits=0, **keys)
    assert main(["run", "--plan", str(plan)]) == 2
    assert _one_line_error(capsys) == ("hgnn-space: error: too few labeled nodes: "
                                       "need at least 5 per class\n")
    assert not (tmp_path / "r.ndrec.partial").exists()


def test_analyze_errors_exit_with_status_two_in_one_line(tmp_path, capsys):
    assert main(["analyze", "homophily", "--graph", bundle(tmp_path)]) == 2
    assert "nothing to analyze" in _one_line_error(capsys)
    empty = tmp_path / "empty.ndrec"
    empty.write_text('{"format":"hgnn-space-results/1","plan_hash":"x"}\n')
    assert main(["analyze", "edf", "--results", str(empty)]) == 2
    assert f"no successful trials in {empty}" in _one_line_error(capsys)


def _overflowing_metapath_bundle(tmp_path):
    """12 P / 4 A nodes; the `ap` and `pa` edge files each hold one count of
    2**40, so the PAP count product could overflow int64."""
    ap = np.array([[p % 4, p, 1] for p in range(12)])
    ap[0, 2] = 1 << 40
    g = build_graph([("P", 12, 0), ("A", 4, 0)], [("ap", "A", "P"), ("pa", "P", "A")],
                    {"ap": ap, "pa": ap[:, [1, 0, 2]]}, labels={"P": np.arange(12) % 2})
    return save_graph(g, tmp_path / "bundle")


@pytest.mark.parametrize("command", ["homophily", "run"])
def test_a_metapath_count_that_may_overflow_is_reported_in_one_line(tmp_path, capsys,
                                                                    command):
    graph = _overflowing_metapath_bundle(tmp_path)
    if command == "homophily":
        argv = ["analyze", "homophily", "--graph", graph, "--metapaths", "PAP:pa,ap"]
    else:
        cfg_path = tmp_path / "configs.json"
        save_config_list([DesignConfig(model_family="Metapath", micro_conv="GCNConv",
                                       macro_agg="Sum", hidden_dim=16, mp_layers=1,
                                       epochs=100, seed=5)], cfg_path)
        plan = tmp_path / "plan.cfg"
        plan.write_text(f"graph = {graph}\ntask = node_classification\ntarget = P\n"
                        f"space = {cfg_path}\nsplits = 1\nepoch_override = 1\n"
                        "metapaths = PAP:pa,ap\n"
                        f"out = {tmp_path / 'r.ndrec'}\n")
        argv = ["run", "--plan", str(plan)]
    assert main(argv) == 2
    assert _one_line_error(capsys) == ("hgnn-space: error: meta-path 'PAP': sparse "
                                       "product may overflow int64 counts\n")


def test_analyze_homophily(tmp_path, capsys):
    b = bundle(tmp_path)
    out = tmp_path / "beta.csv"
    main(["analyze", "homophily", "--graph", b,
          "--metapaths", "PAP:pa,ap", "--out", str(out)])
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "metapath,beta"
    name, beta = lines[1].split(",")
    assert name == "PAP" and float(beta) == 1.0  # boost 1, noise 0


def test_run_and_analyze_end_to_end(tmp_path, capsys):
    b = bundle(tmp_path)
    cfgs = []
    for bn in (True, False):
        cfgs.append(DesignConfig(model_family="Relation", micro_conv="GCNConv",
                                 macro_agg="Sum", has_bn=bn, hidden_dim=16,
                                 mp_layers=1, epochs=100, seed=5))
    cfg_path = tmp_path / "configs.json"
    save_config_list(cfgs, cfg_path)
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        f"graph = {b}\n"
        "task = node_classification\n"
        "target = P\n"
        f"space = {cfg_path}\n"
        "splits = 2\n"
        "seed = 1\n"
        f"out = {tmp_path / 'r.ndrec'}\n"
        "epoch_override = 2\n")
    assert main(["run", "--plan", str(plan)]) == 0
    assert (tmp_path / "r.ndrec").exists()

    out_dir = tmp_path / "analysis"
    assert main(["analyze", "rank", "--dim", "has_bn",
                 "--results", str(tmp_path / "r.ndrec"),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "rank_has_bn.csv").exists()
    assert (out_dir / "rank_has_bn.svg").exists()

    assert main(["analyze", "edf", "--results", str(tmp_path / "r.ndrec"),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "edf_r.csv").exists()
    assert (out_dir / "edf.svg").exists()


def test_edf_refuses_two_results_files_with_one_base_name(tmp_path, capsys):
    b = bundle(tmp_path)
    cfg_path = tmp_path / "configs.json"
    save_config_list([DesignConfig(hidden_dim=8, mp_layers=1, seed=5)], cfg_path)
    results = []
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        results.append(tmp_path / sub / "a.ndrec")
        plan = tmp_path / sub / "plan.cfg"
        plan.write_text(f"graph = {b}\ntask = node_classification\ntarget = P\n"
                        f"space = {cfg_path}\nsplits = 1\nepoch_override = 1\n"
                        f"out = {results[-1]}\n")
        assert main(["run", "--plan", str(plan)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "edf", "--results", *map(str, results),
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == (f"hgnn-space: error: results files {results[0]} and {results[1]} both "
                   f"name the curve 'a'; give them different base names\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_importing_the_package_pins_blas_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(hgnn_space.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, hgnn_space; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == want


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# minor page faults of the worst of rounds 2-5, each allocating forty 1 MiB
# arrays and freeing them; glibc's defaults re-fault all ~10,240 pages
_REFAULT_ROUNDS = """
import resource, hgnn_space, numpy as np
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(40)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[1:]))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the allocator setting is glibc's")
@pytest.mark.parametrize("preset,kept", [
    ({}, True),
    ({"MALLOC_ARENA_MAX": "2"}, False),
    ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=2"}, False)],
    ids=["default", "malloc-variable", "glibc-tunable"])
def test_importing_the_package_keeps_freed_memory_unless_set(preset, kept):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(preset, PYTHONPATH=str(Path(hgnn_space.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _REFAULT_ROUNDS],
                         env=env, capture_output=True, text=True, check=True)
    faults = int(out.stdout)
    assert faults < 100 if kept else faults > 5000


# ---------------------------------------------------------------------------
# fuzzed plan files, config lists and results files
# ---------------------------------------------------------------------------

_MUTATIONS = st.lists(st.tuples(st.sampled_from(["truncate", "flip", "drop"]),
                                st.integers(0, 1 << 20), st.integers(0, 1 << 20),
                                st.integers(1, 255)), min_size=1, max_size=3)


def _fuzz_plan(d, space):
    """A plan on `space` as (mutable body, fixed tail): a key may appear
    once, so a body line mutated into `graph` or `out` is refused and the
    plan never names a file outside `d`."""
    space = d / space if space.endswith(".json") else space
    body = (f"task = node_classification\ntarget = P\nspace = {space}\nn = 2\n"
            "strata_hits = 0\nsplits = 1\nseed = 13\nnum_classes = 2\n"
            "metapaths = PAP:pa,ap\nepoch_override = 1\n")
    return body.encode(), f"graph = {d / 'bundle'}\nout = {d / 'r.ndrec'}\n".encode()


@functools.lru_cache(maxsize=None)
def _fuzz_inputs():
    """Bytes of a 16/8-node bundle, a two-config list and the results file of
    one run of it: the unmutated inputs of the harness."""
    spec = SyntheticSpec(node_types=(("P", 16, 3), ("A", 8, 2)),
                         relations=(("ap", "A", "P", 24), ("pa", "P", "A", 24)),
                         target_type="P", num_communities=2, boost=0.9, seed=3)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        save_graph(generate_synthetic(spec), d / "bundle")
        save_config_list([DesignConfig(hidden_dim=8, mp_layers=1, has_bn=bn, seed=15)
                          for bn in (True, False)], d / "c.json")
        (d / "plan.cfg").write_bytes(b"".join(_fuzz_plan(d, "c.json")))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--plan", str(d / "plan.cfg")]) == 0
        return ({p.name: p.read_bytes() for p in (d / "bundle").iterdir()},
                (d / "c.json").read_bytes(), (d / "r.ndrec").read_bytes())


def _drop_key(text, pick):
    """Delete one key, at any depth, of a JSON text; other text is kept."""
    try:
        obj = json.loads(text)
    except ValueError:
        return text
    paths = []

    def walk(o, path):
        for k, v in (o.items() if isinstance(o, dict) else
                     enumerate(o) if isinstance(o, list) else ()):
            if isinstance(o, dict):
                paths.append(path + (k,))
            walk(v, path + (k,))

    walk(obj, ())
    if not paths:
        return text
    *parents, key = paths[pick % len(paths)]
    inner = obj
    for p in parents:
        inner = inner[p]
    del inner[key]
    return json.dumps(obj).encode()


def _mutate(data, mutations, drop):
    """Per mutation, truncate one line, flip bits of one of its bytes, or
    `drop(data, a, b)` a line or a key."""
    for kind, a, b, c in mutations:
        if kind == "drop":
            data = drop(data, a, b)
            continue
        lines = data.split(b"\n")
        i = a % len(lines)
        line = lines[i]
        if kind == "truncate":
            lines[i] = line[:b % (len(line) + 1)]
        elif line:  # flip the bits of `c` in one byte
            j = b % len(line)
            lines[i] = line[:j] + bytes([line[j] ^ c]) + line[j + 1:]
        data = b"\n".join(lines)
    return data


def _drop_line(data, a, b):
    lines = data.split(b"\n")
    del lines[a % len(lines)]
    return b"\n".join(lines)


def _drop_record_key(data, a, b):
    lines = data.split(b"\n")
    i = a % len(lines)
    lines[i] = _drop_key(lines[i], b)
    return b"\n".join(lines)


def _runs_or_fails_in_one_line(write, argv):
    """Write the inputs into a fresh directory `d` and run `argv` (formatted
    with `d`): it must succeed or fail in one `hgnn-space: error:` line."""
    bundle_files, _, _ = _fuzz_inputs()
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "bundle").mkdir()
        for name, data in bundle_files.items():
            (d / "bundle" / name).write_bytes(data)
        write(d)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(d=d) for a in argv])
    err = err.getvalue()
    assert code in (0, 2) and "Traceback" not in err, err
    if code == 2:
        assert err.startswith("hgnn-space: error: ") and err.count("\n") == 1, err


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["c.json", "condensed"]), _MUTATIONS)
def test_a_damaged_plan_runs_or_fails_in_one_line(space, mutations):
    """Lines of the plan are cut, flipped or dropped. A damaged plan that
    still parses into more than 8 trials or more than one epoch is a valid
    long run, not an input error, so it is not run."""
    def write(d):
        body, tail = _fuzz_plan(d, space)
        (d / "c.json").write_bytes(_fuzz_inputs()[1])
        path = d / "plan.cfg"
        path.write_bytes(_mutate(body, mutations, _drop_line) + tail)
        try:
            plan = parse_plan(path)
        except GraphError:
            return
        trials = plan.splits * (plan.n if plan.space in ("full", "condensed") else 2)
        assume(plan.epoch_override is not None and plan.epoch_override <= 1
               and trials <= 8)

    _runs_or_fails_in_one_line(write, ["run", "--plan", "{d}/plan.cfg"])


@settings(max_examples=25, deadline=None)
@given(_MUTATIONS)
def test_a_damaged_config_list_runs_or_fails_in_one_line(mutations):
    def write(d):
        (d / "c.json").write_bytes(_mutate(_fuzz_inputs()[1], mutations,
                                           lambda data, a, b: _drop_key(data, b)))
        (d / "plan.cfg").write_bytes(b"".join(_fuzz_plan(d, "c.json")))

    _runs_or_fails_in_one_line(write, ["run", "--plan", "{d}/plan.cfg"])


@settings(max_examples=40, deadline=None)
@given(_MUTATIONS)
def test_a_damaged_results_file_ranks_or_fails_in_one_line(mutations):
    def write(d):
        (d / "r.ndrec").write_bytes(_mutate(_fuzz_inputs()[2], mutations,
                                            _drop_record_key))

    _runs_or_fails_in_one_line(write, ["analyze", "rank", "--dim", "has_bn", "--results",
                                       "{d}/r.ndrec", "--out-dir", "{d}/analysis"])
