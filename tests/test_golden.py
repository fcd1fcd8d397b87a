"""Golden records: a refactor that keeps the arithmetic must leave the
finalized results byte-identical.

Three small plans run end to end, 2 epochs each. On a 60/30-node bundle:
one node classification config per (model family, micro convolution) cell
plus the relation-aware SimpleHGN attention, and three link-prediction
configs. On a 40/20-node bundle whose two P->P relations share some cells:
every family with two and three pre-process layers and PReLU, so extra
pre-process layers and a homogenized cell that two relations share are
pinned too. The sha256 of each finalized body (the lines after the header,
which names file paths) must equal the digest committed below.

The initial parameters are pinned as well: one model per (model family,
micro convolution) cell plus SimpleHGN, each with PReLU, batch norm, two
pre- and post-process layers and, where the family has macros, an
Attention macro, hashed as the sha256 over every parameter's shape and
bytes in `parameters()` order. A change that reorders or redraws
parameters fails here by name, not only through a finite-difference check
that happens to straddle a kink.

The sampler is pinned the same way: the sha256 of the sampled configs, as
`json.dumps([c.to_flat() for c in configs], sort_keys=True)` writes them,
for the `search-nc-small` benchmark plan on the condensed space and for the
full space. The digests hold only for the numpy and scipy versions and the
machine type they were recorded with; elsewhere the tests skip.

To record new digests after a change that is meant to alter the arithmetic
or the draws:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy

from hgnn_space import designspace as ds
from hgnn_space.hgraph import SyntheticSpec, generate_synthetic, save_graph
from hgnn_space.layers import MICRO_KINDS
from hgnn_space.model import FAMILIES, DesignConfig, build_model
from hgnn_space.runner import ExperimentPlan, run_plan, save_config_list

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64"}
DIGESTS = {
    "link_prediction": "c3cfff8a28d55435439a97547d9ac8938fe221c57aa5253da96f692a1c88a84f",
    "node_classification": "9ee738d16230d8ad1517da4e843643b1f07f6c2c26bfe9ad0def7f4691084efc",
    "shared_cells": "4bd86bebf524bb745eca74ec1cab79b95fc92f944b534c99f420004ca5fedd2d",
}
# (space, n, strata_hits, seed) -> sha256 of the sampled configs
SAMPLE_DIGESTS = {
    ("condensed", 96, 2, 13):
        "de29e6b6506054492b5d608af499065d0c5dcbe9aeb859be065900d7a37c988e",
    ("full", 264, 2, 7):
        "60a66a4e811b79d1cd0e9c3190fd1a1d3bd236e7a19f600ad2a5a0d75b58b4ba",
}
# sha256 of the initial parameters of `_parameter_configs`' models
PARAMETER_DIGEST = "0eeae8568ffd8777ec573a0594e3e0731135ee8c3c5e68ab9f0a96d006433ef4"

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


SHARED_METAPATHS = (("PcP", ("cites",)), ("PrP", ("refs",)), ("PAP", ("pa", "ap")))


def _shared_cells_graph():
    """P and featureless A; `cites` and `refs` are both P -> P, and some
    (destination, source) cells carry an edge of each."""
    return generate_synthetic(SyntheticSpec(
        node_types=(("P", 40, 6), ("A", 20, 0)),
        relations=(("cites", "P", "P", 120), ("refs", "P", "P", 120),
                   ("ap", "A", "P", 60), ("pa", "P", "A", 60)),
        target_type="P", num_communities=4, seed=7))


def _shared_cells_configs():
    """Each family at pre_layers 2 and 3 with PReLU, and the SimpleHGN
    attention that reads each fused edge's relation index."""
    out = []
    for k in range(6):
        family = FAMILIES[k // 2]
        out.append(DesignConfig(
            model_family=family, micro_conv=MICRO_KINDS[k % 4],
            macro_agg=None if family == "Homogenization" else MACROS[k % 4],
            has_bn=k % 2 == 1, dropout_p=0.3 if k % 3 == 0 else 0.0,
            activation="PReLU", connectivity=CONNECTIVITIES[k % 3],
            pre_layers=2 + k % 2, mp_layers=2, hidden_dim=8, seed=30 + k))
    for pre in (2, 3):
        out.append(DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                                macro_agg=None, attention_form="SimpleHGN",
                                activation="PReLU", pre_layers=pre, hidden_dim=8,
                                seed=34 + pre))
    return out


def _bundle_graph():
    """The 60/30-node graph of the node-classification and link-prediction
    plans; its P nodes fall into 4 classes."""
    return generate_synthetic(SyntheticSpec(
        node_types=(("P", 60, 8), ("A", 30, 8)),
        relations=(("ap", "A", "P", 150), ("pa", "P", "A", 150)),
        target_type="P", num_communities=4, seed=3))


def _plan_inputs(name):
    """(graph, task, target, meta-paths, configs) of a golden plan."""
    if name == "shared_cells":
        return (_shared_cells_graph(), "node_classification", "P", SHARED_METAPATHS,
                _shared_cells_configs())
    graph = _bundle_graph()
    if name == "node_classification":
        return graph, name, "P", METAPATHS, _nc_configs()
    return graph, name, "ap", METAPATHS, _lp_configs()


def body_digest(name, workdir) -> str:
    """Run the named plan under `workdir`; sha256 of the finalized body."""
    workdir = Path(workdir)
    graph, task, target, metapaths, configs = _plan_inputs(name)
    bundle = save_graph(graph, workdir / "bundle")
    config_path = workdir / f"{name}.json"
    save_config_list(configs, config_path)
    out = run_plan(ExperimentPlan(
        graph=bundle, task=task, target=target, space=str(config_path),
        splits=2, seed=5, metapaths=metapaths, epoch_override=2,
        out=str(workdir / f"{name}.ndrec")))
    body = Path(out).read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


def sample_digest(space, n, strata_hits, seed) -> str:
    """sha256 of the configs `sample_controlled` draws, meta-paths PAP and APA."""
    configs = ds.sample_controlled(ds.SPACES[space](), n, strata_hits, seed,
                                   metapaths=METAPATHS)
    flat = json.dumps([c.to_flat() for c in configs], sort_keys=True)
    return hashlib.sha256(flat.encode()).hexdigest()


def _parameter_configs():
    """Every cell once and SimpleHGN, each with every parameterized module:
    an Attention macro where the family has macros, PReLU slopes, batch
    norm, an extra pre-process layer and a hidden post-process layer."""
    shared = dict(activation="PReLU", has_bn=True, pre_layers=2, post_layers=2,
                  hidden_dim=8)
    out = [DesignConfig(model_family=family, micro_conv=micro,
                        macro_agg=None if family == "Homogenization" else "Attention",
                        metapaths=METAPATHS if family == "Metapath" else (),
                        seed=k, **shared)
           for k, (family, micro) in enumerate(product(FAMILIES, MICRO_KINDS))]
    out.append(DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                            macro_agg=None, attention_form="SimpleHGN", seed=12,
                            **shared))
    return out


def _initial_parameters():
    """Each model's parameters, in `parameters()` order."""
    graph = _bundle_graph()
    return [build_model(cfg, graph, num_classes=4, target_type="P").parameters()
            for cfg in _parameter_configs()]


def parameter_digest() -> str:
    """sha256 over each initial parameter's shape and bytes, model by model."""
    h = hashlib.sha256()
    for params in _initial_parameters():
        for p in params:
            h.update(repr(p.shape).encode())
            h.update(p.data.tobytes())
    return h.hexdigest()


def _environment():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


@pytest.mark.parametrize("task", sorted(DIGESTS))
def test_finalized_records_match_the_committed_digest(task, tmp_path):
    if _environment() != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {_environment()}")
    assert body_digest(task, tmp_path) == DIGESTS[task]


@pytest.mark.parametrize("key", sorted(SAMPLE_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_sampled_configs_match_the_committed_digest(key):
    if _environment() != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {_environment()}")
    assert sample_digest(*key) == SAMPLE_DIGESTS[key]


def test_initial_parameters_match_the_committed_digest():
    if _environment() != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running {_environment()}")
    assert parameter_digest() == PARAMETER_DIGEST


def test_parameter_names_are_unique_within_each_model():
    # Adam keys each parameter's moments on its name
    for params in _initial_parameters():
        names = [p.name for p in params]
        assert len(set(names)) == len(names), names


def test_shared_cells_plan_has_shared_cells():
    g = _shared_cells_graph()
    cites = g.adjacency["cites"].toarray() > 0
    refs = g.adjacency["refs"].toarray() > 0
    assert (cites & refs).any() and (cites ^ refs).any()


if __name__ == "__main__":
    import tempfile

    print(f"RECORDED_WITH = {_environment()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(DIGESTS):
            print(f'    "{name}": "{body_digest(name, Path(tmp) / name)}",')
    for key in sorted(SAMPLE_DIGESTS):
        print(f'    {key}:\n        "{sample_digest(*key)}",')
    print(f'PARAMETER_DIGEST = "{parameter_digest()}"')
