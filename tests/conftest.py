import dataclasses
import os
import sys

import numpy as np
import pytest

import hgnn_space.layers as L
import hgnn_space.tensor as T
from hgnn_space.hgraph import SyntheticSpec, build_graph, generate_synthetic
from hgnn_space.model import DesignConfig

# overflows in its first forward pass on `overflowing_graph()`
OVERFLOWING_CFG = DesignConfig(model_family="Homogenization", micro_conv="GINConv",
                               macro_agg=None, optimizer="SGD", lr=0.1, seed=1)


def overflowing_graph():
    """The 60/30-node synthetic graph with every feature scaled so that the
    largest magnitude is 1.5e308: finite, so a plan accepts it."""
    g = generate_synthetic(SyntheticSpec(
        node_types=(("P", 60, 8), ("A", 30, 8)),
        relations=(("ap", "A", "P", 150), ("pa", "P", "A", 150)),
        target_type="P", num_communities=4, seed=1))
    return dataclasses.replace(g, features={
        t: x * (1.5e308 / np.abs(x).max()) for t, x in g.features.items()})


def same_csr(a, b):
    """Adjacency equality: shape, dtype and the three CSR arrays."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("indptr", "indices", "data")))


def run_conv(conv, sub, h_src, h_dst):
    """`conv` on the subgraph `sub` through the plan its kind aggregates
    with."""
    return conv(L.aggregation_plan(type(conv).__name__, sub), h_src, h_dst)


@pytest.fixture
def segment_index_sites(monkeypatch):
    """The call site, (file name, function), of every SegmentIndex built
    while the test runs, in construction order."""
    sites = []
    real_init = T.SegmentIndex.__init__

    def counting_init(self, *args, **kw):
        caller = sys._getframe(1).f_code
        sites.append((os.path.basename(caller.co_filename), caller.co_name))
        real_init(self, *args, **kw)

    monkeypatch.setattr(T.SegmentIndex, "__init__", counting_init)
    return sites


@pytest.fixture
def academic_graph():
    """Three node types, four relations (both directions of two links)."""
    node_types = [("P", 3, 0), ("A", 2, 0), ("C", 2, 0)]
    relations = [
        ("written", "A", "P"),
        ("written-by", "P", "A"),
        ("published", "P", "C"),
        ("publishes", "C", "P"),
    ]
    ap = np.array([[0, 0], [0, 1], [1, 1], [1, 2]])
    edge_lists = {
        "written": ap,
        "written-by": ap[:, ::-1],
        "published": np.array([[0, 0], [1, 0], [2, 1]]),
        "publishes": np.array([[0, 0], [0, 1], [1, 2]]),
    }
    return build_graph(node_types, relations, edge_lists)


def random_hetero_graph(rng, max_types=4, max_nodes=12, max_relations=5,
                        edge_prob=0.25, feature_dim=0):
    """Small random typed graph for oracle comparisons."""
    n_types = int(rng.integers(1, max_types + 1))
    node_types = [(f"t{i}", int(rng.integers(1, max_nodes + 1)), feature_dim)
                  for i in range(n_types)]
    n_rel = int(rng.integers(1, max_relations + 1))
    relations = []
    edge_lists = {}
    for k in range(n_rel):
        src = f"t{int(rng.integers(0, n_types))}"
        dst = f"t{int(rng.integers(0, n_types))}"
        name = f"r{k}"
        relations.append((name, src, dst))
        n_src = dict((n, c) for n, c, _ in node_types)[src]
        n_dst = dict((n, c) for n, c, _ in node_types)[dst]
        mask = rng.random((n_src, n_dst)) < edge_prob
        s, d = np.nonzero(mask)
        edge_lists[name] = np.stack([s, d], axis=1)
    features = None
    if feature_dim:
        features = {n: rng.standard_normal((c, feature_dim))
                    for n, c, _ in node_types}
    return build_graph(node_types, relations, edge_lists, features)
