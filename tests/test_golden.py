"""Golden records: a refactor that keeps the arithmetic must leave the
finalized results byte-identical.

A small plan per task runs end to end on a 60/30-node bundle: one node
classification config per (model family, micro convolution) cell plus the
relation-aware SimpleHGN attention, and three link-prediction configs, 2
epochs each. The sha256 of each finalized body (the lines after the header,
which names file paths) must equal the digest committed below. The digests
hold only for the numpy and scipy versions and the machine type they were
recorded with; elsewhere the test skips.

To record new digests after a change that is meant to alter the arithmetic:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from hgnn_space.hgraph import SyntheticSpec, generate_synthetic, save_graph
from hgnn_space.layers import MICRO_KINDS
from hgnn_space.model import FAMILIES, DesignConfig
from hgnn_space.runner import ExperimentPlan, run_plan, save_config_list

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64"}
DIGESTS = {
    "link_prediction": "c3cfff8a28d55435439a97547d9ac8938fe221c57aa5253da96f692a1c88a84f",
    "node_classification": "9ee738d16230d8ad1517da4e843643b1f07f6c2c26bfe9ad0def7f4691084efc",
}

METAPATHS = (("PAP", ("pa", "ap")), ("APA", ("ap", "pa")))
MACROS = ("Sum", "Attention", "Max", "Mean")
ACTIVATIONS = ("ReLU", "PReLU", "ELU", "Tanh", "LeakyReLU")
CONNECTIVITIES = ("STACK", "SKIP-SUM", "SKIP-CAT")


def _nc_configs():
    """Every cell once, the post-ops and connectivities spread over them."""
    out = []
    for f, family in enumerate(FAMILIES):
        for m, micro in enumerate(MICRO_KINDS):
            k = 4 * f + m
            out.append(DesignConfig(
                model_family=family, micro_conv=micro,
                macro_agg=None if family == "Homogenization" else MACROS[m],
                has_bn=k % 2 == 0, dropout_p=0.3 if k % 3 == 0 else 0.0,
                activation=ACTIVATIONS[k % 5], has_l2norm=k % 4 == 1,
                connectivity=CONNECTIVITIES[k % 3], mp_layers=2, post_layers=2,
                hidden_dim=8, seed=k))
    out.append(DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                            macro_agg=None, attention_form="SimpleHGN",
                            hidden_dim=8, seed=12))
    return out


def _lp_configs():
    return [
        DesignConfig(model_family="Relation", micro_conv="GCNConv", macro_agg="Sum",
                     hidden_dim=8, seed=20),
        DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                     macro_agg=None, attention_form="SimpleHGN", hidden_dim=8,
                     seed=21),
        DesignConfig(model_family="Metapath", micro_conv="SageConv",
                     macro_agg="Mean", has_bn=True, dropout_p=0.3, hidden_dim=8,
                     seed=22),
    ]


def body_digest(task, workdir) -> str:
    """Run the task's plan under `workdir`; sha256 of the finalized body."""
    workdir = Path(workdir)
    graph = generate_synthetic(SyntheticSpec(
        node_types=(("P", 60, 8), ("A", 30, 8)),
        relations=(("ap", "A", "P", 150), ("pa", "P", "A", 150)),
        target_type="P", num_communities=4, seed=3))
    bundle = save_graph(graph, workdir / "bundle")
    configs = workdir / f"{task}.json"
    nc = task == "node_classification"
    save_config_list(_nc_configs() if nc else _lp_configs(), configs)
    out = run_plan(ExperimentPlan(
        graph=bundle, task=task, target="P" if nc else "ap", space=str(configs),
        splits=2, seed=5, metapaths=METAPATHS, epoch_override=2,
        out=str(workdir / f"{task}.ndrec")))
    body = Path(out).read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


def _environment():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


@pytest.mark.parametrize("task", sorted(DIGESTS))
def test_finalized_records_match_the_committed_digest(task, tmp_path):
    if _environment() != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {_environment()}")
    assert body_digest(task, tmp_path) == DIGESTS[task]


if __name__ == "__main__":
    import tempfile

    print(f"RECORDED_WITH = {_environment()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for task in sorted(DIGESTS):
            print(f'    "{task}": "{body_digest(task, Path(tmp) / task)}",')
