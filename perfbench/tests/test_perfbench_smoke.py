"""Smoke-sized runs of every benchmark workload, untraced and traced."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import layermap  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.import_program()

SMALLER_GRAPH = {"node_types": (("P", 240, 16), ("A", 160, 16)),
                 "edges_per_relation": 800}
SMOKE = {
    "search-nc-small": {"n": 24, "splits": 1, "epoch_override": 1},
    "reference-nc-large": SMALLER_GRAPH,
    "reference-lp-large": SMALLER_GRAPH,
}


def _smoke(name):
    return dataclasses.replace(WORKLOADS[name], **SMOKE[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric_without_errors(name):
    result = run.run_workload(_smoke(name), seed=3, seconds=0, trace=False)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == 2 * _smoke(name).n_trials()
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced_values(name):
    from hgnn_space import layers, model, runner, tensor, train

    watched = [(runner, "train_trial"), (runner, "_run_one"), (tensor, "matmul"),
               (tensor, "backward"), (train, "build_model"),
               (layers.GCNConv, "__call__"), (model.Model, "forward")]
    before = [vars(owner)[attr] for owner, attr in watched]
    result = run.run_workload(_smoke(name), seed=3, seconds=0, trace=True)
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(layermap.metric_units(run.all_labels()))
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", ["reference-nc-large", "reference-lp-large"])
def test_traced_self_times_add_up_to_the_wall_time(name):
    m = _traced_values(name)
    assert m["tensor.tape_nodes"] > 0 and m["train.train_trial_ms_p50"] > 0
    assert m["trace.self_sum_ms"] + m["trace.unattributed_ms"] == pytest.approx(
        m["trace.wall_ms"])
    assert 0 <= m["trace.unattributed_ms"] < 0.05 * m["trace.wall_ms"]


def test_traced_counts_repeat_exactly_under_two_threads():
    first, second = _traced_values("search-nc-small"), _traced_values("search-nc-small")
    exact = [k for k, unit in layermap.metric_units(run.all_labels()).items()
             if unit in ("count", "bytes")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["designspace.validate_calls"] > 0 and first["tensor.tape_nodes"] > 0
