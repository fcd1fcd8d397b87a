import json
import os
import re
import tempfile
import traceback
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hgnn_space.designspace as ds
from hgnn_space.hgraph import GraphError, SyntheticSpec, generate_synthetic, save_graph
from hgnn_space.model import DesignConfig
from hgnn_space.runner import (ExperimentPlan, expand_plan, input_digests, parse_plan,
                               plan_canonical_text, plan_hash, read_results, run_plan,
                               run_trial_by_id, save_config_list)
from hgnn_space.sparse import frozen

from conftest import OVERFLOWING_CFG, overflowing_graph, random_schemas


def make_bundle(tmp_path, seed=0):
    spec = SyntheticSpec(
        node_types=(("P", 40, 8), ("A", 20, 8)),
        relations=(("ap", "A", "P", 90), ("pa", "P", "A", 90)),
        target_type="P", num_communities=4, boost=0.9, noise=0.05, seed=seed)
    return save_graph(generate_synthetic(spec), tmp_path / "bundle")


def small_configs():
    return [
        DesignConfig(model_family="Relation", micro_conv="GCNConv",
                     macro_agg="Sum", hidden_dim=16, mp_layers=1,
                     epochs=100, seed=3),
        DesignConfig(model_family="Homogenization", micro_conv="SageConv",
                     macro_agg=None, hidden_dim=16, mp_layers=1,
                     epochs=100, seed=4),
    ]


def make_plan(tmp_path, **kw):
    bundle = make_bundle(tmp_path)
    cfg_path = tmp_path / "configs.json"
    save_config_list(small_configs(), cfg_path)
    defaults = dict(graph=str(bundle), task="node_classification", target="P",
                    space=str(cfg_path), splits=2, seed=7,
                    out=str(tmp_path / "results.ndrec"), epoch_override=2)
    defaults.update(kw)
    return ExperimentPlan(**defaults)


# ---------------------------------------------------------------------------
# plan parsing
# ---------------------------------------------------------------------------

def test_parse_plan_round_trip(tmp_path):
    p = tmp_path / "plan.cfg"
    p.write_text(
        "# demo plan\n"
        "graph = g/bundle\n"
        "task = node_classification\n"
        "target = P\n"
        "space = condensed\n"
        "n = 24\n"
        "strata_hits = 2\n"
        "splits = 3\n"
        "seed = 9\n"
        "metapaths = PAP:pa,ap;PAPAP:pa,ap,pa,ap\n"
        "parallelism = 2\n"
        "out = r.ndrec\n"
        "epoch_override = 4\n"
        "num_classes = 5\n")
    plan = parse_plan(p)
    assert plan == ExperimentPlan(
        graph="g/bundle", task="node_classification", target="P",
        space="condensed", n=24, strata_hits=2, splits=3, seed=9,
        metapaths=(("PAP", ("pa", "ap")), ("PAPAP", ("pa", "ap", "pa", "ap"))),
        parallelism=2, out="r.ndrec", epoch_override=4, num_classes=5)


def test_parse_plan_errors(tmp_path):
    p = tmp_path / "plan.cfg"
    p.write_text("graph = g\nnot a pair\n")
    with pytest.raises(GraphError, match="expected key = value"):
        parse_plan(p)
    p.write_text("graph = g\nbogus = 1\n")
    with pytest.raises(GraphError, match="unknown plan key"):
        parse_plan(p)
    p.write_text("task = node_classification\n")
    with pytest.raises(GraphError, match="missing keys"):
        parse_plan(p)


def test_parse_plan_rejects_a_non_integer_with_its_line(tmp_path):
    p = tmp_path / "plan.cfg"
    p.write_text("graph = g\ntask = link_prediction\ntarget = ap\nsplits = three\n")
    with pytest.raises(GraphError, match=r"plan\.cfg:4: plan key 'splits' .*'three'"):
        parse_plan(p)
    p.write_text("graph = g\nn = None\n")  # only the optional keys take None
    with pytest.raises(GraphError, match=r"plan\.cfg:2: plan key 'n' .*'None'"):
        parse_plan(p)


def test_parse_plan_rejects_a_repeated_key_with_both_lines(tmp_path):
    p = tmp_path / "plan.cfg"
    p.write_text("graph = g\ntask = link_prediction\ntarget = ap\nsplits = 3\n"
                 "# splits = 2\n\nsplits = 1\n")
    with pytest.raises(GraphError,
                       match=r"plan\.cfg:7: plan key 'splits' repeats line 4"):
        parse_plan(p)


def test_a_plan_comment_starts_only_at_a_line_start_or_after_whitespace(tmp_path):
    p = tmp_path / "plan.cfg"
    p.write_text("#graph = elsewhere\n"
                 "graph = runs/exp#3/bundle # the bundle\n"
                 "task = node_classification\t# or link_prediction\n"
                 "target = P#1\n"
                 "  # seed = 3\n"
                 "out = res#1.ndrec#\n")
    plan = parse_plan(p)
    assert (plan.graph, plan.task, plan.target, plan.seed, plan.out) == (
        "runs/exp#3/bundle", "node_classification", "P#1", 0, "res#1.ndrec#")


def test_parse_plan_reads_back_the_canonical_text(tmp_path):
    """`epoch_override = None` is how the canonical text writes an unset
    optional key, so a plan written that way must parse to the default."""
    plan = ExperimentPlan(graph="g", task="link_prediction", target="ap")
    p = tmp_path / "plan.cfg"
    p.write_text(plan_canonical_text(plan).replace("=", " = ") + "\n")
    assert "epoch_override = None" in p.read_text()
    assert "num_classes = None" in p.read_text()
    assert parse_plan(p) == plan


def test_readme_plan_example_parses_and_lists_every_key(tmp_path):
    """README's plan example is the documented format: it must parse and
    name every plan key, so the two cannot drift apart."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("A plan file is flat `key = value` text:\n\n", 1)[1]
    example = after.split("\n\n", 1)[0]
    p = tmp_path / "plan.cfg"
    p.write_text(example + "\n")
    parse_plan(p)
    keys = {line.split("=", 1)[0].strip() for line in example.splitlines()}
    assert keys == {f.name for f in fields(ExperimentPlan)}


def test_plan_hash_ignores_parallelism(tmp_path):
    a = make_plan(tmp_path)
    b = ExperimentPlan(**{**a.__dict__, "parallelism": 8})
    assert plan_hash(a) == plan_hash(b)
    c = ExperimentPlan(**{**a.__dict__, "seed": 8})
    assert plan_hash(a) != plan_hash(c)


def test_plan_hash_is_pinned():
    """Hashes recorded when the canonical text still listed the plan keys
    by hand; a changed hash would make `--resume` refuse every existing
    `.partial` file."""
    plan = ExperimentPlan(
        graph="g/bundle", task="node_classification", target="P",
        space="condensed", n=12, strata_hits=1, splits=2, seed=7,
        metapaths=(("PAP", ("pa", "ap")), ("APA", ("ap", "pa"))), parallelism=3,
        out="x/results.ndrec", epoch_override=4)
    assert plan_hash(plan) == "d213f3f41ddcf7fa"
    assert plan_hash(ExperimentPlan(graph="g", task="link_prediction",
                                    target="ap")) == "3c36baacbcf1647f"


@pytest.mark.parametrize("key,value", [("num_classes", 2), ("epoch_override", -1),
                                       ("splits", 0), ("seed", -1)])
def test_run_plan_rejects_a_bad_integer_before_any_trial(tmp_path, key, value):
    plan = make_plan(tmp_path, **{key: value})  # the bundle has 4 classes
    with pytest.raises(GraphError, match=key):
        run_plan(plan)
    assert not os.path.exists(plan.out + ".partial")


def test_run_plan_rejects_a_duplicate_metapath_name_before_any_trial(tmp_path):
    cfg_path = tmp_path / "metapath.json"
    save_config_list([DesignConfig(model_family="Metapath", micro_conv="GCNConv",
                                   macro_agg="Sum", hidden_dim=16, mp_layers=1,
                                   seed=5)], cfg_path)
    plan = make_plan(tmp_path, space=str(cfg_path),
                     metapaths=(("PAP", ("pa", "ap")), ("PAP", ("ap", "pa"))))
    with pytest.raises(GraphError, match="'PAP' is declared more than once"):
        run_plan(plan)
    assert not os.path.exists(plan.out + ".partial")


def test_expand_plan_checks_declared_metapaths_whatever_the_sample_draws(tmp_path):
    plan = ExperimentPlan(graph=str(make_bundle(tmp_path)), task="node_classification",
                          target="P", space="condensed", n=2, strata_hits=0, seed=18,
                          metapaths=(("PAP", ("pa", "ap")), ("PAP", ("ap", "pa"))))
    drawn = ds.sample_controlled(ds.condensed_space(), 2, [], 18,
                                 metapaths=plan.metapaths)
    assert all(c.model_family != "Metapath" for c in drawn)
    with pytest.raises(GraphError, match="'PAP' is declared more than once"):
        expand_plan(plan)
    for metapaths, message in [((("PXP", ("pa", "xp")),), "unknown relations"),
                               ((("PAA", ("pa", "pa")),), "does not chain")]:
        with pytest.raises(GraphError, match=message):
            expand_plan(replace(plan, metapaths=metapaths))


def test_a_sampled_metapath_config_without_declared_metapaths_is_a_plan_error(tmp_path):
    plan = ExperimentPlan(graph=str(make_bundle(tmp_path)), task="node_classification",
                          target="P", space="condensed", n=48, strata_hits=2, seed=7)
    with pytest.raises(GraphError, match="^plan key 'metapaths' declares no meta-path, "
                       "but the 'condensed' space drew a Metapath config \\(config 16\\); "
                       "declare one or more as name:relation,relation;..., as in "
                       "metapaths = PAP:pa,ap$"):
        expand_plan(plan)
    # a sample that draws no Metapath config needs no meta-path
    assert len(expand_plan(replace(plan, n=2, strata_hits=0, seed=18))[3]) == 2


def test_expand_plan_refuses_a_listed_setting_the_config_never_reads(tmp_path):
    cfg_path = tmp_path / "listed.json"
    relation = small_configs()[0].with_values(metapaths=(("PAP", ("pa", "ap")),))
    save_config_list([small_configs()[1], relation], cfg_path)
    plan = make_plan(tmp_path, space=str(cfg_path))
    with pytest.raises(GraphError, match="^config 1 is invalid: metapaths: must be "
                       "empty unless model_family is Metapath$"):
        expand_plan(plan)
    # every micro conv but GATConv drops the base's SimpleHGN attention
    base = DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                        macro_agg=None, attention_form="SimpleHGN", hidden_dim=16,
                        mp_layers=1, seed=6)
    save_config_list(ds.perturb_dimension(base, "micro_conv"), cfg_path)
    with pytest.raises(GraphError, match="^config 0 is invalid: attention_form: "
                       "'SimpleHGN' \\(str\\) applies only when model_family is "
                       "Homogenization and micro_conv is GATConv$"):
        expand_plan(plan)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_run_plan_record_count_and_rerun_identical(tmp_path):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    first = Path(out).read_bytes()
    records = read_results(out)
    assert len(records) == 2 * 2  # configs x splits
    assert [r["trial_id"] for r in records] == [0, 1, 2, 3]
    for r in records:
        assert r["status"] == "ok"
        assert "wall_time" not in r
        assert len(r["history"]["train_loss"]) == 2  # epoch_override applied
    out2 = run_plan(plan)
    assert Path(out2).read_bytes() == first


def test_run_plan_parallelism_invariant(tmp_path):
    plan = make_plan(tmp_path)
    seq = Path(run_plan(plan, parallelism=1)).read_bytes()
    par = Path(run_plan(plan, parallelism=3)).read_bytes()
    assert seq == par


def test_single_trial_reproduces_file_record(tmp_path):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    records = {r["trial_id"]: r for r in read_results(out)}
    rec = run_trial_by_id(plan, 2)
    assert rec.trial_id == 2
    assert rec.status == records[2]["status"]
    assert rec.best_score == records[2]["best_score"]
    assert rec.history == records[2]["history"]


def test_a_trial_that_raises_is_recorded_failed_and_the_plan_goes_on(tmp_path,
                                                                      monkeypatch,
                                                                      capsys):
    """The first trial raises in its second training epoch: the run exits 0,
    that trial alone is failed with the exception as its reason, and every
    other line (the next split starts from the same built model) equals a
    clean run's; an isolated rerun gives the same failed record."""
    import hgnn_space.runner as runner_mod
    import hgnn_space.train as train_mod
    from hgnn_space.cli import main
    from hgnn_space.runner import _finalized_line, _record_to_json

    plan = make_plan(tmp_path)
    clean = Path(run_plan(plan)).read_text().splitlines()
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(plan_canonical_text(plan) + "\n")
    state = {"failing": False, "epoch": 0}
    real_trial, real_loss = runner_mod.train_trial, train_mod.cross_entropy

    def train_trial(cfg, graph, split, task, **kw):
        state.update(failing=cfg == small_configs()[0] and split.split_id == 0,
                     epoch=0)
        return real_trial(cfg, graph, split, task, **kw)

    def cross_entropy(*args):
        state["epoch"] += 1
        if state["failing"] and state["epoch"] == 2:
            raise FloatingPointError("overflow encountered in exp")
        return real_loss(*args)

    monkeypatch.setattr(runner_mod, "train_trial", train_trial)
    monkeypatch.setattr(train_mod, "cross_entropy", cross_entropy)
    assert main(["run", "--plan", str(plan_path)]) == 0
    err = capsys.readouterr().err
    assert "trial 0 raised" in err and "FloatingPointError: overflow" in err
    lines = Path(plan.out).read_text().splitlines()
    assert lines[0] == clean[0] and lines[2:] == clean[2:]
    failed = json.loads(lines[1])
    assert failed["status"] == "failed" and failed["best_score"] is None
    assert failed["reason"] == "FloatingPointError: overflow encountered in exp"
    assert failed["trial_id"] == 0 and failed["split_id"] == 0
    assert all("reason" not in json.loads(line) for line in lines[2:])
    assert _finalized_line(_record_to_json(run_trial_by_id(plan, 0))) == lines[1]


def test_a_trial_that_overflows_is_recorded_alike_under_any_warnings_filter(tmp_path):
    """A forward pass that overflows fails the trial through its finite
    checks under any warnings filter; it never raises into the runner."""
    cfg_path = tmp_path / "configs.json"
    save_config_list([OVERFLOWING_CFG], cfg_path)
    plan = ExperimentPlan(graph=save_graph(overflowing_graph(), tmp_path / "bundle"),
                          task="node_classification", target="P", space=str(cfg_path),
                          splits=2, out=str(tmp_path / "results.ndrec"),
                          epoch_override=2)
    bodies = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            bodies.append(Path(run_plan(plan)).read_text())
    assert bodies[0] == bodies[1]
    for record in read_results(plan.out):
        assert record["status"] == "failed"
        assert record["reason"] == "nonfinite_score@epoch0"
        assert repr(record["history"]) == "{'train_loss': [], 'val_score': [nan]}"


def test_a_graph_error_inside_a_trial_still_ends_the_run(tmp_path, monkeypatch):
    import hgnn_space.runner as runner_mod

    def train_trial(*args, **kw):
        raise GraphError("bad input")

    monkeypatch.setattr(runner_mod, "train_trial", train_trial)
    with pytest.raises(GraphError, match="bad input"):
        run_plan(make_plan(tmp_path))


def test_resume_completes_missing_and_keeps_done(tmp_path):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    want = Path(out).read_bytes()
    partial = out + ".partial"
    lines = Path(partial).read_text().splitlines()
    assert len(lines) == 5  # header + 4 records
    # drop one record and corrupt the trailing one
    kept = lines[:3] + [lines[4][:25]]
    Path(partial).write_text("\n".join(kept) + "\n")
    os.remove(out)
    run_plan(plan, resume=True)
    assert Path(out).read_bytes() == want
    after = Path(partial).read_text().splitlines()
    done_ids = sorted(json.loads(l)["trial_id"] for l in after[1:]
                      if _parses(l))
    assert done_ids == [0, 1, 2, 3]


@pytest.mark.parametrize("damage", ["header", "records"])
def test_resume_reruns_what_a_damaged_partial_file_loses(tmp_path, damage):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    want = Path(out).read_bytes()
    partial = out + ".partial"
    lines = Path(partial).read_text().splitlines()
    if damage == "header":  # JSON, but not an object: nothing is kept
        lines[0] = "[1]"
    else:  # JSON records of the wrong shape: those trials rerun
        lines[1:3] = ["[0]", '{"trial_id": [1]}']
    Path(partial).write_text("\n".join(lines) + "\n")
    os.remove(out)
    run_plan(plan, resume=True)
    assert Path(out).read_bytes() == want


def _parses(line):
    try:
        json.loads(line)
        return True
    except json.JSONDecodeError:
        return False


def test_resume_complete_file_is_noop(tmp_path):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    partial_before = Path(out + ".partial").read_text()
    run_plan(plan, resume=True)
    assert Path(out + ".partial").read_text() == partial_before


def test_resume_rejects_other_plan(tmp_path):
    plan = make_plan(tmp_path)
    run_plan(plan)
    other = ExperimentPlan(**{**plan.__dict__, "seed": 12345})
    with pytest.raises(GraphError, match="different plan"):
        run_plan(other, resume=True)


def _partial_header(plan):
    return json.loads(Path(plan.out + ".partial").read_text().splitlines()[0])


def test_only_the_partial_header_holds_the_input_digests(tmp_path):
    plan = make_plan(tmp_path)
    out = run_plan(plan)
    head = json.loads(Path(out).read_text().splitlines()[0])
    assert head == {"format": "hgnn-space-results/1", "plan_hash": plan_hash(plan)}
    graph, _, _, configs = expand_plan(plan)
    assert _partial_header(plan) == {**head, **input_digests(graph, configs)}


def test_resume_rejects_a_bundle_regenerated_at_the_same_path(tmp_path):
    plan = make_plan(tmp_path)
    run_plan(plan)
    make_bundle(tmp_path, seed=1)
    with pytest.raises(GraphError, match=f"the graph '{plan.graph}' changed"):
        run_plan(plan, resume=True)


def test_resume_rejects_an_edited_config_list(tmp_path):
    plan = make_plan(tmp_path)
    run_plan(plan)
    edited = small_configs()
    edited[1] = edited[1].with_values(dropout_p=0.3)
    save_config_list(edited, plan.space)
    with pytest.raises(GraphError, match=f"the configs of space '{plan.space}' changed"):
        run_plan(plan, resume=True)


@pytest.mark.parametrize("key", ["graph_sha256", "configs_sha256"])
def test_resume_rejects_a_header_without_the_input_digests(tmp_path, key):
    plan = make_plan(tmp_path)
    run_plan(plan)
    partial = Path(plan.out + ".partial")
    lines = partial.read_text().splitlines()
    header = json.loads(lines[0])
    del header[key]
    partial.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(GraphError, match="hold no digest of the"):
        run_plan(plan, resume=True)


def test_input_digests_cover_every_graph_array():
    spec = SyntheticSpec(node_types=(("P", 12, 3), ("A", 6, 2)),
                         relations=(("ap", "A", "P", 20), ("pa", "P", "A", 20)),
                         target_type="P", num_communities=2, seed=4)
    g = generate_synthetic(spec)
    base = input_digests(g, small_configs())
    assert input_digests(generate_synthetic(spec), small_configs()) == base
    labels = g.labels["P"].copy()
    labels[0] = (labels[0] + 1) % 2
    features = g.features["A"].copy()
    features[0, 0] += 1.0
    adj = g.adjacency["ap"]
    counts = adj.data.copy()
    counts[0] += 1
    for changed in (replace(g, labels={**g.labels, "P": labels}),
                    replace(g, features={**g.features, "A": features}),
                    replace(g, adjacency={**g.adjacency, "ap": frozen(
                        (counts, adj.indices, adj.indptr), adj.shape)})):
        got = input_digests(changed, small_configs())
        assert got["graph_sha256"] != base["graph_sha256"]
        assert got["configs_sha256"] == base["configs_sha256"]


def test_sampled_space_plan(tmp_path):
    bundle = make_bundle(tmp_path)
    plan = ExperimentPlan(graph=str(bundle), task="node_classification",
                          target="P", space="condensed", n=4, strata_hits=0,
                          splits=1, seed=3, metapaths=(("PAP", ("pa", "ap")),),
                          out=str(tmp_path / "s.ndrec"), epoch_override=1)
    out = run_plan(plan)
    records = read_results(out)
    assert len(records) == 4
    assert {r["config"]["model_family"] for r in records} <= {
        "Homogenization", "Relation", "Metapath"}


# ---------------------------------------------------------------------------
# the splits of a config share one start
# ---------------------------------------------------------------------------

def _mixed_configs(task):
    base = dict(hidden_dim=16, mp_layers=2, epochs=100, task=task)
    relation = dict(model_family="Relation", micro_conv="GCNConv", macro_agg="Sum")
    return [
        DesignConfig(**relation, **base, seed=1),                          # one pass
        DesignConfig(**relation, **base, has_bn=True, seed=2),
        DesignConfig(**relation, **base, has_bn=True, seed=2),           # equal: one group
        DesignConfig(model_family="Homogenization", micro_conv="GATConv", macro_agg=None,
                     dropout_p=0.3, **base, seed=3),
        DesignConfig(model_family="Metapath", micro_conv="SageConv", macro_agg="Attention",
                     metapaths=(("PAP", ("pa", "ap")),), activation="PReLU",
                     has_bn=True, dropout_p=0.3, **base, seed=4),
        DesignConfig(model_family="Relation", micro_conv="GINConv", macro_agg="Sum",
                     optimizer="SGD", lr=0.1, hidden_dim=64, mp_layers=6,
                     connectivity="SKIP-SUM", epochs=100, task=task, seed=3),  # diverges
    ]


@pytest.mark.parametrize("task,target,splits", [("node_classification", "P", 3),
                                                ("link_prediction", "ap", 2)])
def test_every_plan_record_equals_its_isolated_rerun(tmp_path, monkeypatch, task,
                                                     target, splits):
    import hgnn_space.train as train_mod
    from hgnn_space.runner import _finalized_line, _record_to_json

    configs = _mixed_configs(task)
    save_config_list(configs, tmp_path / "configs.json")
    plan = ExperimentPlan(graph=str(make_bundle(tmp_path)), task=task, target=target,
                          space=str(tmp_path / "configs.json"), splits=splits, seed=7,
                          out=str(tmp_path / "results.ndrec"), epoch_override=3)
    builds = []
    build_model = train_mod.build_model
    monkeypatch.setattr(train_mod, "build_model",
                        lambda *a, **kw: builds.append(1) or build_model(*a, **kw))
    lines = Path(run_plan(plan)).read_text().splitlines()[1:]
    assert len(builds) == 5  # one per run of equal configs
    assert len(lines) == len(configs) * splits
    statuses = set()
    for i, line in enumerate(lines):
        alone = _finalized_line(_record_to_json(run_trial_by_id(plan, i)))
        assert line == alone, f"trial {i}"
        statuses.add(json.loads(line)["status"])
    assert statuses == {"ok", "failed"}
    assert len(builds) == 5 + len(lines)  # an isolated rerun builds its own


# ---------------------------------------------------------------------------
# the trial loop on random schemas
# ---------------------------------------------------------------------------

# a trial that raises is recorded failed too, with the exception as its
# reason; on a valid schema none may
NONFINITE = re.compile(r"nonfinite_(score|loss|param)@epoch\d+")


@seed(31)
@settings(max_examples=20, deadline=None, database=None)
@given(schema=random_schemas(), plan_seed=st.integers(0, 2 ** 16), data=st.data())
def test_trials_on_random_schemas_are_recorded_and_reproduce(schema, plan_seed, data):
    """Two full-space configs per task on a random schema: every record is
    ok, or failed with the non-finite check that stopped it; a bad input is
    refused while the plan is expanded, never by a trial; and one sampled
    trial's record equals its isolated rerun."""
    from hgnn_space.runner import _finalized_line, _record_to_json

    spec, metapaths, lp_target = schema
    with tempfile.TemporaryDirectory() as tmp:
        bundle = save_graph(generate_synthetic(spec), os.path.join(tmp, "bundle"))
        for task, target in (("node_classification", "T0"),
                             ("link_prediction", lp_target)):
            plan = ExperimentPlan(graph=bundle, task=task, target=target, space="full",
                                  n=2, strata_hits=0, splits=2, seed=plan_seed,
                                  metapaths=metapaths, epoch_override=2,
                                  out=os.path.join(tmp, f"{task}.ndrec"))
            try:
                lines = Path(run_plan(plan)).read_text().splitlines()[1:]
            except GraphError as exc:
                frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
                assert "expand_plan" in frames and "_run_one" not in frames, frames
                continue
            for line in lines:
                record = json.loads(line)
                assert (record["status"] == "ok" and "reason" not in record
                        or record["status"] == "failed"
                        and NONFINITE.fullmatch(record["reason"])), record
            i = data.draw(st.integers(0, len(lines) - 1), label="trial id")
            assert _finalized_line(_record_to_json(run_trial_by_id(plan, i))) == lines[i]
