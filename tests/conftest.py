import dataclasses
import os
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import hgnn_space.layers as L
import hgnn_space.tensor as T
from hgnn_space.hgraph import SyntheticSpec, build_graph, generate_synthetic
from hgnn_space.model import DesignConfig
from hgnn_space.tensor import grad_check

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


def nudge(params, seed):
    """Move every parameter off its symmetric initialization (zero biases
    put empty-neighborhood rows exactly on activation kinks, where central
    differences are undefined)."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.data += 0.1 * rng.standard_normal(p.shape)


def kink_safe_grad_check(f, params, seed):
    """grad_check with a shrinking-step retest: a difference quotient that
    straddles an activation kink is invalid at any fixed step, so failures
    are re-measured with smaller steps on the same coordinates. A genuine
    backward bug produces a step-independent error and still fails."""
    err = np.inf
    for eps in (1e-3, 2e-4, 4e-5, 8e-6):
        err = grad_check(f, params, eps=eps, max_coords=6,
                         rng=np.random.default_rng(seed))
        if err < 1e-4:
            break
    return err


@st.composite
def random_schemas(draw):
    """A synthetic spec of 2-3 node types of 8-30 nodes whose target T0 has
    features and every other type has them or not; each ordered type pair
    is a relation with probability 0.4. Also up to two meta-paths of 1-2
    hops from T0 and, when the schema has a relation, an LP target."""
    names = [f"T{i}" for i in range(draw(st.integers(2, 3)))]
    node_types = tuple((t, draw(st.integers(8, 30)),
                        draw(st.integers(1, 6)) if t == "T0" or draw(st.booleans())
                        else 0) for t in names)
    relations = tuple((f"{a}_{b}", a, b, draw(st.integers(4, 60)))
                      for a in names for b in names if draw(st.integers(0, 9)) < 4)
    metapaths = []
    for k in range(draw(st.integers(0, 2))):
        chain, at = [], "T0"
        for _ in range(draw(st.integers(1, 2))):
            leaving = [r for r in relations if r[1] == at]
            if not leaving:
                break
            name, _, at, _ = draw(st.sampled_from(leaving))
            chain.append(name)
        if chain:
            metapaths.append((f"M{k}", tuple(chain)))
    spec = SyntheticSpec(node_types=node_types, relations=relations, target_type="T0",
                         num_communities=draw(st.integers(2, 3)),
                         seed=draw(st.integers(0, 2 ** 16)))
    lp_target = draw(st.sampled_from([r[0] for r in relations])) if relations else "none"
    return spec, tuple(metapaths), lp_target


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
