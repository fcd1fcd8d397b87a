import tracemalloc

import numpy as np
import pytest

import hgnn_space.layers as L
import hgnn_space.tensor as T
from hgnn_space.hgraph import build_graph
from hgnn_space.sparse import expanded_rows, frozen
from hgnn_space.tensor import Parameter, Tensor, grad_check
from hgnn_space.transform import (MetaPath, Subgraph, compose_metapath,
                                  extract_relation_subgraphs, homogenize)

from conftest import random_hetero_graph, run_conv


def leaky(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


# ---------------------------------------------------------------------------
# dense oracles (independent recomputation of each convolution)
# ---------------------------------------------------------------------------

def dense_gcn(adj, h_src, h_dst, W, b, same_type):
    A = adj.astype(float)
    if same_type:
        A = A + np.eye(A.shape[0])
        din = A.sum(axis=1)
        dout = A.sum(axis=0)
        norm = A / np.sqrt(np.outer(din, dout))
    else:
        din = A.sum(axis=1)
        norm = np.divide(A, din[:, None], out=np.zeros_like(A), where=din[:, None] > 0)
    return norm @ h_src @ W + b


def dense_gat(adj, h_src, h_dst, W, a_src, a_dst):
    z_src = h_src @ W
    z_dst = h_dst @ W
    n_dst, n_src = adj.shape
    out = np.zeros((n_dst, z_src.shape[1]))
    for i in range(n_dst):
        nbrs = np.nonzero(adj[i] >= 1)[0]
        if nbrs.size == 0:
            continue
        logits = leaky(z_dst[i] @ a_dst + z_src[nbrs] @ a_src).ravel()
        alpha = np.exp(logits - logits.max())
        alpha /= alpha.sum()
        out[i] = alpha @ z_src[nbrs]
    return out


def dense_sage(adj, h_src, h_dst, W, b):
    A = adj.astype(float)
    din = A.sum(axis=1)
    mean = np.divide(A @ h_src, din[:, None], out=np.zeros((adj.shape[0], h_src.shape[1])),
                     where=din[:, None] > 0)
    return np.concatenate([h_dst, mean], axis=1) @ W + b


def dense_gin(adj, h_src, h_dst, eps, W1, b1, W2, b2):
    pre = (1.0 + eps) * h_dst + adj.astype(float) @ h_src
    return np.maximum(pre @ W1 + b1, 0) @ W2 + b2


def bipartite_fixture(rng, n_src=5, n_dst=4, d=3):
    adj = (rng.random((n_dst, n_src)) < 0.5).astype(np.int64)
    adj[0, :] = 0  # keep one isolated destination
    h_src = rng.standard_normal((n_src, d))
    h_dst = rng.standard_normal((n_dst, d))
    return adj, _subgraph(adj), h_src, h_dst


def _subgraph(adj, same_type=False):
    """The subgraph whose adjacency holds the dense counts `adj` (rows are
    destinations)."""
    src_type = "X" if same_type else "S"
    return Subgraph("s", src_type, "X", frozen(adj, adj.shape))


def _edges_of(adj):
    dst, src = np.nonzero(adj)
    order = np.argsort(dst, kind="stable")
    return src[order], dst[order], adj[dst, src][order].astype(float)


# ---------------------------------------------------------------------------
# micro convolutions vs oracles
# ---------------------------------------------------------------------------

def test_gcn_bipartite_matches_dense_oracle():
    rng = np.random.default_rng(0)
    adj, sub, h_src, h_dst = bipartite_fixture(rng)
    conv = L.GCNConv(3, 2, np.random.default_rng(1), "c")
    got = run_conv(conv, sub, Tensor(h_src), Tensor(h_dst))
    want = dense_gcn(adj, h_src, h_dst, conv.lin.W.data, conv.lin.b.data,
                     same_type=False)
    assert np.allclose(got.data, want, atol=1e-12)
    # empty neighborhood: aggregated sum is zero, so the row equals the bias
    assert np.allclose(got.data[0], conv.lin.b.data[0])


def test_gcn_square_self_loops_match_dense_oracle():
    rng = np.random.default_rng(2)
    adj = (rng.random((6, 6)) < 0.4).astype(np.int64) * rng.integers(1, 3, (6, 6))
    h = rng.standard_normal((6, 3))
    conv = L.GCNConv(3, 3, np.random.default_rng(3), "c")
    got = run_conv(conv, _subgraph(adj, same_type=True), Tensor(h), Tensor(h))
    want = dense_gcn(adj, h, h, conv.lin.W.data, conv.lin.b.data, same_type=True)
    assert np.allclose(got.data, want, atol=1e-12)


def test_gat_matches_dense_oracle_and_normalizes():
    rng = np.random.default_rng(4)
    adj, sub, h_src, h_dst = bipartite_fixture(rng)
    conv = L.GATConv(3, 4, np.random.default_rng(5), "g")
    got = run_conv(conv, sub, Tensor(h_src), Tensor(h_dst))
    want = dense_gat(adj, h_src, h_dst, conv.W.data, conv.a_src.data, conv.a_dst.data)
    assert np.allclose(got.data, want, atol=1e-12)
    plan = L.aggregation_plan("GATConv", sub)
    seg = plan.by_row
    alpha = conv._attention(plan, Tensor(h_src), Tensor(h_dst))[1]
    sums = np.zeros(seg.num_segments)
    np.add.at(sums, seg.index, alpha.data[:, 0])
    present = np.bincount(seg.index, minlength=seg.num_segments) > 0
    assert np.abs(sums[present] - 1.0).max() < 1e-12
    assert np.allclose(got.data[0], 0.0)  # zero-degree destination: zero vector


def test_gat_single_neighbor_alpha_is_one():
    adj = np.array([[1, 0], [0, 0]])
    plan = L.aggregation_plan("GATConv", _subgraph(adj))
    conv = L.GATConv(3, 4, np.random.default_rng(6), "g")
    rng = np.random.default_rng(7)
    alpha = conv._attention(plan, Tensor(rng.standard_normal((2, 3))),
                            Tensor(rng.standard_normal((2, 3))))[1]
    assert alpha.data.tolist() == [[1.0]]


def test_gat_equal_logits_split_half():
    # two parallel sources with identical features: logits tie, alpha = 0.5
    adj = np.array([[1, 1]])
    plan = L.aggregation_plan("GATConv", _subgraph(adj))
    conv = L.GATConv(3, 4, np.random.default_rng(8), "g")
    h_src = np.tile(np.random.default_rng(9).standard_normal((1, 3)), (2, 1))
    alpha = conv._attention(plan, Tensor(h_src), Tensor(np.ones((1, 3))))[1]
    assert np.allclose(alpha.data, 0.5, atol=1e-15)


def test_sage_and_gin_match_dense_oracles():
    rng = np.random.default_rng(10)
    adj, sub, h_src, h_dst = bipartite_fixture(rng)
    sage = L.SageConv(3, 2, np.random.default_rng(11), "s")
    got = run_conv(sage, sub, Tensor(h_src), Tensor(h_dst))
    assert np.allclose(got.data, dense_sage(adj, h_src, h_dst, sage.lin.W.data,
                                            sage.lin.b.data), atol=1e-12)
    gin = L.GINConv(3, 3, np.random.default_rng(12), "gin")
    got = run_conv(gin, sub, Tensor(h_src), Tensor(h_dst))
    want = dense_gin(adj, h_src, h_dst, gin.eps.data.item(), gin.lin1.W.data,
                     gin.lin1.b.data, gin.lin2.W.data, gin.lin2.b.data)
    assert np.allclose(got.data, want, atol=1e-12)


def _composed_aggregation(kind, conv, adj, h_src, h_dst, same_type):
    """The gather -> scale -> segment-sum aggregation each convolution used
    before its single spmm, with the weights computed as it did then; the
    segment sum is a product with the dense 0/1 destination indicator."""
    src, dst, w = _edges_of(adj)
    n_dst, n_src = adj.shape
    if kind == "GATConv":
        plan = L.aggregation_plan(kind, _subgraph(adj, same_type))
        w = conv._attention(plan, h_src, h_dst)[1]
        h_src = T.matmul(h_src, conv.W)
    elif kind == "GCNConv" and same_type:
        loops = np.arange(n_dst)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
        w = np.concatenate([w, np.ones(n_dst)])
        din = np.bincount(dst, weights=w, minlength=n_dst)
        dout = np.bincount(src, weights=w, minlength=n_src)
        w = w / np.sqrt(din[dst] * dout[src])
    elif kind in ("GCNConv", "SageConv"):
        din = np.bincount(dst, weights=w, minlength=n_dst)
        w = w / np.where(din > 0, din, 1.0)[dst]
    weight = w if isinstance(w, Tensor) else Tensor(w[:, None])
    msg = T.mul(T.gather_rows(h_src, T.SegmentIndex(src, n_src)), weight)
    agg = T.matmul(Tensor(np.eye(n_dst)[:, dst]), msg)
    if kind == "GCNConv":
        return T.add(T.matmul(agg, conv.lin.W), conv.lin.b)
    if kind == "SageConv":
        return T.add(T.matmul(T.concat([h_dst, agg], axis=1), conv.lin.W), conv.lin.b)
    if kind == "GINConv":
        pre = T.add(T.mul(h_dst, T.add(conv.eps, Tensor(1.0))), agg)
        return T.add(T.matmul(T.relu(T.add(T.matmul(pre, conv.lin1.W), conv.lin1.b)),
                              conv.lin2.W), conv.lin2.b)
    return agg


@pytest.mark.parametrize("same_type", [True, False])
@pytest.mark.parametrize("kind", L.MICRO_KINDS)
def test_spmm_aggregation_equals_composed_kernels(kind, same_type):
    rng = np.random.default_rng(50)
    n_dst, n_src = (9, 9) if same_type else (9, 6)
    adj = (rng.random((n_dst, n_src)) < 0.4) * rng.integers(1, 4, (n_dst, n_src))
    adj[2, :] = 0  # one destination without neighbors
    sub = _subgraph(adj, same_type)
    h_src = Parameter(rng.standard_normal((n_src, 5)), "h_src")
    h_dst = h_src if same_type else Tensor(rng.standard_normal((n_dst, 5)))
    conv = L.make_micro_conv(kind, 5, 4, np.random.default_rng(51), "c")
    v = Tensor(rng.standard_normal((n_dst, 4)))
    outs, grads = [], []
    for out in (run_conv(conv, sub, h_src, h_dst),
                _composed_aggregation(kind, conv, adj, h_src, h_dst, same_type)):
        h_src.grad = None
        T.tsum(T.mul(out, v)).backward()
        outs.append(out.data)
        grads.append(h_src.grad)
    assert np.abs(outs[0] - outs[1]).max() < 1e-12
    assert np.abs(grads[0] - grads[1]).max() < 1e-12


# ---------------------------------------------------------------------------
# direct aggregation and the SimpleHGN reduction
# ---------------------------------------------------------------------------

def _single_type_graph(rng, n=7, d=3):
    adj = (rng.random((n, n)) < 0.35).astype(np.int64)
    dst, src = np.nonzero(adj)
    g = build_graph([("X", n, d)], [("r", "X", "X")],
                    {"r": np.stack([src, dst], axis=1)},
                    features={"X": rng.standard_normal((n, d))})
    return g


@pytest.mark.parametrize("kind", L.MICRO_KINDS)
def test_direct_equals_micro_on_single_relation(kind):
    rng = np.random.default_rng(13)
    g = _single_type_graph(rng)
    sub = extract_relation_subgraphs(g, ["r"])[0]
    hg = homogenize(g)
    h = Tensor(g.features["X"])
    conv_a = L.make_micro_conv(kind, 3, 4, np.random.default_rng(14), "a")
    conv_b = L.make_micro_conv(kind, 3, 4, np.random.default_rng(14), "b",
                               n_edge_types=1)
    out_micro = run_conv(conv_a, sub, h, h)
    out_direct = run_conv(conv_b, hg, h, h)
    assert np.allclose(out_micro.data, out_direct.data, atol=1e-12)


def test_simple_hgn_with_zero_relation_projection_equals_gat():
    rng = np.random.default_rng(15)
    g = _single_type_graph(rng)
    hg = homogenize(g)
    h = Tensor(g.features["X"])
    gat = L.GATConv(3, 4, np.random.default_rng(16), "g", form="GAT")
    shgn = L.GATConv(3, 4, np.random.default_rng(16), "g", form="SimpleHGN",
                     n_edge_types=1)
    shgn.W_r.data[:] = 0.0
    out_a = run_conv(gat, hg, h, h)
    out_b = run_conv(shgn, hg, h, h)
    assert np.array_equal(out_a.data, out_b.data)  # bit-for-bit


def test_simple_hgn_uses_edge_types():
    # two relations between the same pairs: typed logits must differ from GAT
    rng = np.random.default_rng(17)
    n = 5
    adj = (rng.random((n, n)) < 0.5).astype(np.int64)
    dst, src = np.nonzero(adj)
    g = build_graph([("X", n, 3)], [("r1", "X", "X"), ("r2", "X", "X")],
                    {"r1": np.stack([src, dst], axis=1),
                     "r2": np.stack([dst, src], axis=1)},
                    features={"X": rng.standard_normal((n, 3))})
    hg = homogenize(g)
    h = Tensor(g.features["X"])
    shgn = L.GATConv(3, 4, np.random.default_rng(18), "g", form="SimpleHGN",
                     n_edge_types=2)
    gat = L.GATConv(3, 4, np.random.default_rng(18), "g", form="GAT")
    assert not np.allclose(run_conv(shgn, hg, h, h).data,
                           run_conv(gat, hg, h, h).data)


def _former_homogenized_edges(g):
    """The reference: the fused edge lists as they were built before
    homogenization returned a Subgraph. Relation edges are concatenated in
    relation order with global ids, then stably sorted by destination."""
    offsets, base = {}, 0
    for t in g.node_types:
        offsets[t.name], base = base, base + t.count
    src, dst, weight, edge_type = [], [], [], []
    for k, r in enumerate(g.relations):
        adj = g.adjacency[r.name]
        src.append(adj.indices + offsets[r.src_type])
        dst.append(expanded_rows(adj) + offsets[r.dst_type])
        weight.append(adj.data)
        edge_type.append(np.full(adj.nnz, k, dtype=np.int64))
    src, dst, weight, edge_type = map(np.concatenate, (src, dst, weight, edge_type))
    order = np.argsort(dst, kind="stable")
    return base, src[order], dst[order], weight[order], edge_type[order]


def test_homogenized_view_equals_the_former_construction():
    rng = np.random.default_rng(19)
    shared = 0
    for _ in range(60):
        g = random_hetero_graph(rng, edge_prob=0.4)
        hg = homogenize(g)
        adj = hg.adjacency
        n, *want = _former_homogenized_edges(g)
        got = (adj.indices, expanded_rows(adj), adj.data, hg.edge_type.index)
        for name, a, b in zip(("src", "dst", "weight", "edge_type"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert adj.shape == (n, n) and hg.same_type
        assert hg.edge_type.num_segments == len(g.relations)
        plan = L.aggregation_plan("GATConv", hg)
        assert np.array_equal(plan.by_col.index, want[0])
        assert np.array_equal(plan.by_row.index, want[1])
        cells = want[1] * n + want[0]
        shared += cells.size - np.unique(cells).size
    assert shared > 0  # the graphs include cells that two relations share


def _former_plan_arrays(kind, sub):
    """The reference: a plan's matrix and transpose as they were built from
    the subgraph's edge lists in row order, each through a SegmentIndex.
    A GAT plan's data was all ones; attention reads only its pattern."""
    adj = sub.adjacency
    n_dst, n_src = adj.shape
    src, dst, w = adj.indices, expanded_rows(adj), adj.data.astype(np.float64)
    if kind == "GATConv":
        w = np.ones(w.size)
    elif kind == "GCNConv" and sub.same_type:
        loops = np.arange(n_dst, dtype=np.int64)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
        w = np.concatenate([w, np.ones(n_dst)])
        din = np.bincount(dst, weights=w, minlength=n_dst)
        dout = np.bincount(src, weights=w, minlength=n_src)
        w = w / np.sqrt(din[dst] * dout[src])
        order = np.argsort(dst, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
    elif kind in ("GCNConv", "SageConv"):
        din = np.bincount(dst, weights=w, minlength=n_dst)
        w = w / np.where(din > 0, din, 1.0)[dst]
    return (T.SegmentIndex(dst, n_dst).csr(w, src, n_src),
            T.SegmentIndex(src, n_src).csr(w, dst, n_dst))


def test_aggregation_plans_equal_the_former_edge_list_construction():
    rng = np.random.default_rng(60)
    n_subs = 0
    for _ in range(25):
        g = random_hetero_graph(rng, edge_prob=0.4)
        subs = extract_relation_subgraphs(g, g.relation_names) + [homogenize(g)]
        subs += [compose_metapath(g, MetaPath(f"{a.name}{b.name}", (a.name, b.name)))
                 for a in g.relations for b in g.relations
                 if a.dst_type == b.src_type][:3]
        for sub in subs:
            for kind in L.MICRO_KINDS:
                plan = L.aggregation_plan(kind, sub)
                # the transpose is a CSC view on the plan's own arrays (two
                # empty arrays share no memory; indptr is never empty)
                m, t = plan.matrix, plan.t_matrix
                for field in ("indptr", "indices", "data") if m.nnz else ("indptr",):
                    assert np.shares_memory(getattr(t, field), getattr(m, field)), field
                # a GAT plan is the adjacency itself: its data are the counts,
                # which `test_gat_reads_only_the_plan_pattern` shows it ignores
                fields = ("indptr", "indices") if kind == "GATConv" else (
                    "indptr", "indices", "data")
                for got, want in zip((m, t.tocsr()), _former_plan_arrays(kind, sub)):
                    assert got.shape == want.shape
                    for field in fields:
                        assert np.array_equal(getattr(got, field),
                                              getattr(want, field)), (kind, field)
        n_subs += len(subs)
    assert n_subs > 100


def _three_relation_graph(rng):
    """Two types with features; a repeated edge in `xx` and in `yx`."""
    return build_graph([("X", 6, 3), ("Y", 4, 3)],
                       [("xx", "X", "X"), ("yx", "Y", "X"), ("xy", "X", "Y")],
                       {"xx": np.array([[0, 1], [0, 1], [2, 1], [3, 4], [5, 5]]),
                        "yx": np.array([[0, 1], [1, 1], [3, 0], [3, 0]]),
                        "xy": np.array([[0, 0], [4, 3], [1, 1]])},
                       features={"X": rng.standard_normal((6, 3)),
                                 "Y": rng.standard_normal((4, 3))})


def test_only_attention_plans_group_their_entries(segment_index_sites):
    """GCN, Sage and GIN plans hold the matrix and its transpose and build
    no SegmentIndex; a GAT plan groups its entries once, by row and by
    column."""
    rng = np.random.default_rng(61)
    g = _three_relation_graph(rng)
    subs = extract_relation_subgraphs(g, g.relation_names) + [homogenize(g)]
    segment_index_sites.clear()  # homogenize groups the relation ids
    for kind in ("GCNConv", "SageConv", "GINConv"):
        for sub in subs:
            plan = L.aggregation_plan(kind, sub)
            assert type(plan) is T.SpmmPlan and not hasattr(plan, "by_row")
    assert segment_index_sites == []
    for sub in subs:
        assert isinstance(L.aggregation_plan("GATConv", sub), T.AttentionPlan)
    assert segment_index_sites == [("tensor.py", "__init__")] * 2 * len(subs)


@pytest.mark.parametrize("form", L.ATTENTION_FORMS)
def test_gat_reads_only_the_plan_pattern(form):
    """A GAT plan is the adjacency with its counts; replacing the plan's
    data changes neither the output nor any gradient."""
    rng = np.random.default_rng(62)
    g = _three_relation_graph(rng)
    hg = homogenize(g)
    plan = L.aggregation_plan("GATConv", hg)
    m = plan.matrix
    assert m is hg.adjacency and plan.edge_type is hg.edge_type
    assert m.data.max() > 1  # a repeated edge is one entry counting 2
    other = T.AttentionPlan(frozen((rng.uniform(-3.0, 3.0, m.nnz), m.indices, m.indptr),
                              m.shape), plan.edge_type)
    conv = L.GATConv(3, 4, np.random.default_rng(63), "g", form=form,
                     n_edge_types=len(g.relations))
    h = Parameter(np.concatenate([g.features["X"], g.features["Y"]]), "h")
    v = Tensor(rng.standard_normal((10, 4)))
    outs, grads = [], []
    for p in (plan, other):
        for q in conv.parameters() + [h]:
            q.grad = None
        out = conv(p, h, h)
        T.tsum(T.mul(out, v)).backward()
        outs.append(out.data)
        grads.append([q.grad.copy() for q in conv.parameters() + [h]])
    assert np.array_equal(outs[0], outs[1])
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


def test_simple_hgn_forward_and_backward_build_no_segment_index(segment_index_sites):
    """Relation ids are grouped once, when the graph is homogenized: a
    SimpleHGN model's forward and backward passes construct no
    SegmentIndex."""
    from hgnn_space.model import DesignConfig, build_model

    g = _three_relation_graph(np.random.default_rng(64))
    cfg = DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                       macro_agg=None, attention_form="SimpleHGN", hidden_dim=8)
    model = build_model(cfg, g)
    segment_index_sites.clear()  # the build groups the relation ids and the plan
    out = model.forward(g, training=True)
    T.tsum(T.concat([out[t] for t in g.type_names], axis=0)).backward()
    assert segment_index_sites == []
    assert all(p.grad is not None for p in model.mp[0].convs[0].parameters())


# ---------------------------------------------------------------------------
# macro aggregation
# ---------------------------------------------------------------------------

def test_macro_sum_hand_case():
    out = L.MacroSum()([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])])
    assert out.data.tolist() == [[4.0, 6.0]]


def _fusing_graph(with_pp):
    """P receives `ap`, and `pp` too when `with_pp`; A receives `pa`."""
    rng = np.random.default_rng(70)
    edges = {"ap": np.array([[0, 0], [1, 2], [3, 4]]),
             "pa": np.array([[0, 1], [2, 3], [4, 0]]),
             "pp": np.array([[0, 1], [1, 2], [4, 4]])}
    relations = [("ap", "A", "P"), ("pa", "P", "A")]
    if with_pp:
        relations.append(("pp", "P", "P"))
    return build_graph([("P", 5, 3), ("A", 4, 3)], relations,
                       {r: edges[r] for r, _, _ in relations},
                       features={"P": rng.standard_normal((5, 3)),
                                 "A": rng.standard_normal((4, 3))})


@pytest.mark.parametrize("kind", L.MACRO_KINDS)
def test_macro_singleton_is_identity(kind, monkeypatch):
    """In a Relation model whose node sets are each fed by one subgraph, no
    macro is built and none runs: each convolution's output reaches the
    post-ops as the same tensor, and the pass records as many tape nodes
    and gives the same outputs as the Sum model's."""
    from hgnn_space.model import DesignConfig, build_model

    g = _fusing_graph(with_pp=False)
    cfg = DesignConfig(model_family="Relation", micro_conv="GCNConv", macro_agg=kind,
                       hidden_dim=8)
    model = build_model(cfg, g)
    assert all(layer.macros == {} for layer in model.mp)
    calls, conv_outs, post_ins, made = [], [], [], []
    for name in L.MACRO_KINDS:
        cls = getattr(L, f"Macro{name}")
        monkeypatch.setattr(cls, "__call__",
                            lambda self, zs, real=cls.__call__: calls.append(self)
                            or real(self, zs))
    real_conv = L.GCNConv.__call__
    monkeypatch.setattr(L.GCNConv, "__call__", lambda self, *a: conv_outs.append(
        real_conv(self, *a)) or conv_outs[-1])
    real_post = L.intra_layer_post
    monkeypatch.setattr(L, "intra_layer_post",
                        lambda h, *a, **kw: post_ins.append(h) or real_post(h, *a, **kw))

    class CountingNode(T._Node):
        __slots__ = ()

        def __init__(self, parents, vjp):
            made.append(1)
            super().__init__(parents, vjp)

    monkeypatch.setattr(T, "_Node", CountingNode)
    out = model.forward(g)
    assert calls == []
    assert len(post_ins) == len(conv_outs) == 2 * len(model.mp)
    assert all(z is h for z, h in zip(conv_outs, post_ins))
    nodes = len(made)
    made.clear()
    summed = build_model(cfg.with_values(macro_agg="Sum"), g).forward(g)
    assert len(made) == nodes
    assert all(np.array_equal(out[t].data, summed[t].data) for t in g.type_names)


@pytest.mark.parametrize("with_pp", [False, True])
def test_attention_macros_of_a_lone_subgraph_get_no_gradient(with_pp):
    """Attention macros are built only for a set fed by two or more
    subgraphs: P with `pp`, whose macro gets a gradient, and none
    without it; A, fed by `pa` alone, never has one."""
    from hgnn_space.model import DesignConfig, build_model

    g = _fusing_graph(with_pp)
    cfg = DesignConfig(model_family="Relation", micro_conv="SageConv",
                       macro_agg="Attention", hidden_dim=8, mp_layers=2)
    model = build_model(cfg, g)
    out = model.forward(g)
    T.tsum(T.concat([out[t] for t in g.type_names], axis=0)).backward()
    for layer in model.mp:
        assert set(layer.macros) == ({"P"} if with_pp else set())
        for macro in layer.macros.values():
            grads = [p.grad for p in macro.parameters()]
            assert grads and all(gr is not None and gr.any() for gr in grads)


def test_macro_attention_identical_inputs_equal_mean():
    rng = np.random.default_rng(21)
    att = L.MacroAttention(4, np.random.default_rng(22), "m")
    z = Tensor(rng.standard_normal((6, 4)))
    z2 = Tensor(z.data.copy())
    z3 = Tensor(z.data.copy())
    out = att([z, z2, z3])
    mean = L.MacroMean()([z, z2, z3])
    assert np.allclose(out.data, mean.data, atol=1e-12)


def test_macro_mean_max():
    a, b = Tensor([[1.0, 5.0]]), Tensor([[3.0, 2.0]])
    assert L.MacroMean()([a, b]).data.tolist() == [[2.0, 3.5]]
    assert L.MacroMax()([a, b]).data.tolist() == [[3.0, 5.0]]


@pytest.mark.parametrize("kind", L.MACRO_KINDS)
def test_macro_three_input_fold_matches_a_reference(kind):
    """Each macro over three outputs against a numpy fold: Sum, Mean and Max
    bitwise in the order ((a, b), c), Attention to 1e-12."""
    rng = np.random.default_rng(23)
    zs = [rng.standard_normal((6, 4)) for _ in range(3)]
    zs[2][0] += 10.0  # the last input holds the largest entries of a row
    macro = L.make_macro(kind, 4, np.random.default_rng(24), "m")
    out = macro([Tensor(z) for z in zs]).data
    a, b, c = zs
    if kind == "Sum":
        assert np.array_equal(out, (a + b) + c)
    elif kind == "Mean":
        assert np.array_equal(out, ((a + b) + c) * (1.0 / 3))
    elif kind == "Max":
        assert np.array_equal(out, np.maximum(np.maximum(a, b), c))
    else:
        scores = np.array([(np.tanh(z @ macro.lin.W.data + macro.lin.b.data) @ macro.q.data)
                           .mean() for z in zs])
        w = np.exp(scores - scores.max())
        w /= w.sum()
        assert np.allclose(out, w[0] * a + w[1] * b + w[2] * c, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# a message-passing layer
# ---------------------------------------------------------------------------

def test_a_layer_fuses_each_set_s_outputs_and_passes_on_the_others(monkeypatch):
    """P receives from A -> P and C -> P: its post-ops get the Mean of the
    two convolution outputs, bitwise. A and C receive nothing: they take no
    post-ops or connection and leave the layer padded with zeros under
    SKIP-CAT."""
    from hgnn_space.model import DesignConfig, build_model

    rng = np.random.default_rng(40)
    g = build_graph(
        [("P", 4, 3), ("A", 3, 3), ("C", 2, 3)],
        [("ap", "A", "P"), ("cp", "C", "P")],
        {"ap": np.array([[0, 0], [1, 2], [2, 3]]),
         "cp": np.array([[0, 1], [1, 0], [1, 3]])},
        features={t: rng.standard_normal((n, 3))
                  for t, n in (("P", 4), ("A", 3), ("C", 2))})
    model = build_model(DesignConfig(model_family="Relation", micro_conv="GCNConv",
                                     macro_agg="Mean", connectivity="SKIP-CAT",
                                     mp_layers=1, hidden_dim=8), g)
    conv_outs, post_ins, connected = [], [], []
    real_conv, real_post, real_connect = L.GCNConv.__call__, L.intra_layer_post, L.connect
    monkeypatch.setattr(L.GCNConv, "__call__", lambda self, *a: conv_outs.append(
        real_conv(self, *a)) or conv_outs[-1])
    monkeypatch.setattr(L, "intra_layer_post",
                        lambda h, *a, **kw: post_ins.append(h) or real_post(h, *a, **kw))
    monkeypatch.setattr(L, "connect", lambda mode, h_prev, h_new: connected.append(
        h_prev) or real_connect(mode, h_prev, h_new))
    out = model.forward(g)
    z0, z1 = (z.data for z in conv_outs)
    assert len(post_ins) == len(connected) == 1
    assert np.array_equal(post_ins[0].data, (z0 + z1) * 0.5)
    (linear, _), = model.post
    W, b = linear.W, linear.b
    for t in ("A", "C"):
        h = model.pre({u: Tensor(x) for u, x in g.features.items()}, types=(t,))[t]
        padded = np.concatenate([h.data, np.zeros((g.node_type(t).count, 8))], axis=1)
        assert np.array_equal(out[t].data, padded @ W.data + b.data)


# ---------------------------------------------------------------------------
# hetero linear
# ---------------------------------------------------------------------------

def test_hetero_linear_identity_and_embeddings():
    rng = np.random.default_rng(23)
    hl = L.HeteroLinear([("A", 3, 4), ("B", 0, 5)], 3, np.random.default_rng(24))
    hl.linears["A"].W.data[:] = np.eye(3)
    hl.linears["A"].b.data[:] = 0.0
    x = rng.standard_normal((4, 3))
    out = hl({"A": Tensor(x)})
    assert np.allclose(out["A"].data, x)
    assert out["B"] is hl.embeddings["B"]
    assert out["B"].shape == (5, 3)


def test_hetero_linear_matches_per_type_products():
    rng = np.random.default_rng(25)
    hl = L.HeteroLinear([("A", 3, 4), ("B", 5, 2)], 6, np.random.default_rng(26))
    xa = rng.standard_normal((4, 3))
    xb = rng.standard_normal((2, 5))
    out = hl({"A": Tensor(xa), "B": Tensor(xb)})
    for t, x in (("A", xa), ("B", xb)):
        linear = hl.linears[t]
        assert np.allclose(out[t].data, x @ linear.W.data + linear.b.data)


def test_hetero_linear_errors():
    hl = L.HeteroLinear([("A", 3, 4)], 2, np.random.default_rng(0))
    with pytest.raises(Exception, match="missing features"):
        hl({})
    with pytest.raises(Exception, match="does not match"):
        hl({"A": Tensor(np.zeros((4, 5)))})


# ---------------------------------------------------------------------------
# intra-layer post-ops and connectivity
# ---------------------------------------------------------------------------

def test_post_all_off_is_identity():
    x = Tensor(np.random.default_rng(27).standard_normal((4, 3)))
    out = L.intra_layer_post(x, None, 0.0, None, False, training=True,
                             rng=np.random.default_rng(0))
    assert out is x


def test_post_l2_rows_unit_norm():
    rng = np.random.default_rng(28)
    x = Tensor(rng.standard_normal((5, 4)))
    x.data[2] = 0.0
    out = L.intra_layer_post(x, None, 0.0, None, True, training=False)
    norms = np.linalg.norm(out.data, axis=1)
    assert np.abs(norms[[0, 1, 3, 4]] - 1.0).max() < 1e-12
    assert norms[2] == 0.0


def test_post_bn_constant_column_becomes_zero():
    bn = L.BatchNorm(3, "bn")
    x = Tensor(np.column_stack([np.full(6, 2.5), np.arange(6.0), np.ones(6)]))
    out = L.intra_layer_post(x, bn, 0.0, None, False, training=True)
    assert np.abs(out.data[:, 0]).max() < 1e-9   # constant column, zero mean
    assert np.abs(out.data[:, 2]).max() < 1e-9


def test_post_order_bn_dropout_act_l2():
    # with BN then ReLU then L2, every row of the result is unit-norm and
    # non-negative; applying in any other order with these inputs differs
    rng = np.random.default_rng(29)
    bn = L.BatchNorm(4, "bn")
    act = L.Activation("ReLU")
    x = Tensor(rng.standard_normal((6, 4)) * 2 + 1)
    out = L.intra_layer_post(x, bn, 0.0, act, True, training=True)
    assert (out.data >= 0).all()
    mu = x.data.mean(axis=0)
    inv = 1 / np.sqrt(x.data.var(axis=0) + bn.state.eps)
    manual = np.maximum((x.data - mu) * inv, 0.0)
    manual /= np.maximum(np.linalg.norm(manual, axis=1, keepdims=True), 1e-300)
    assert np.allclose(out.data, manual, atol=1e-12)


def test_connect_modes():
    prev = Tensor(np.zeros((3, 64)))
    new = Tensor(np.random.default_rng(30).standard_normal((3, 64)))
    assert L.connect("STACK", prev, new) is new
    assert np.allclose(L.connect("SKIP-SUM", prev, new).data, new.data)
    cat = L.connect("SKIP-CAT", prev, new)
    assert cat.shape == (3, 128)
    assert np.allclose(cat.data[:, :64], prev.data)
    assert np.allclose(cat.data[:, 64:], new.data)
    with pytest.raises(Exception, match="SKIP-SUM width mismatch"):
        L.connect("SKIP-SUM", Tensor(np.zeros((3, 2))), new)


# ---------------------------------------------------------------------------
# permutation equivariance
# ---------------------------------------------------------------------------

def _permute_graph(adj, h, perm):
    padj = adj[np.ix_(perm, perm)]
    ph = h[perm]
    return padj, ph


@pytest.mark.parametrize("kind", L.MICRO_KINDS)
def test_permutation_equivariance_bitwise_low_degree(kind):
    # in-degree <= 2: reordered neighbor sums are plain commutativity, so
    # outputs must match bit-for-bit under a node relabeling
    rng = np.random.default_rng(31)
    n = 6
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        nbrs = rng.choice(n, size=2, replace=False)
        adj[i, nbrs] = 1
    h = rng.standard_normal((n, 3))
    perm = rng.permutation(n)
    inv = np.argsort(perm)  # new id of old node i is inv[i]
    conv = L.make_micro_conv(kind, 3, 4, np.random.default_rng(32), "c")
    out = run_conv(conv, _subgraph(adj, True), Tensor(h), Tensor(h))
    padj, ph = _permute_graph(adj, h, perm)
    pout = run_conv(conv, _subgraph(padj, True), Tensor(ph), Tensor(ph))
    assert np.array_equal(out.data[perm], pout.data)


@pytest.mark.parametrize("kind", L.MICRO_KINDS)
def test_permutation_equivariance_general(kind):
    rng = np.random.default_rng(33)
    n = 10
    adj = (rng.random((n, n)) < 0.4).astype(np.int64)
    h = rng.standard_normal((n, 3))
    perm = rng.permutation(n)
    conv = L.make_micro_conv(kind, 3, 4, np.random.default_rng(34), "c")
    out = run_conv(conv, _subgraph(adj, True), Tensor(h), Tensor(h))
    padj, ph = _permute_graph(adj, h, perm)
    pout = run_conv(conv, _subgraph(padj, True), Tensor(ph), Tensor(ph))
    assert np.allclose(out.data[perm], pout.data, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# layer-level gradient checks (a compact version of the acceptance sweep)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("micro", L.MICRO_KINDS)
@pytest.mark.parametrize("macro", L.MACRO_KINDS)
def test_grad_dual_layer(micro, macro):
    """Micro convolutions, then the macro fusing P's two subgraphs (ap, pp)."""
    g = _fusing_graph(with_pp=True)
    subs = [s for s in extract_relation_subgraphs(g, g.relation_names)
            if s.dst_type == "P"]
    assert len(subs) == 2
    plans = [L.aggregation_plan(micro, s) for s in subs]
    prng = np.random.default_rng(36)
    convs = [L.make_micro_conv(micro, 3, 3, prng, f"c{i}") for i in range(2)]
    macro_mod = L.make_macro(macro, 3, prng, "m")
    feats = {t: Tensor(x) for t, x in g.features.items()}
    v = np.random.default_rng(37).standard_normal((5, 3))

    def f():
        zs = [conv(plan, feats[sub.src_type], feats["P"])
              for sub, plan, conv in zip(subs, plans, convs)]
        return T.tsum(T.mul(macro_mod(zs), Tensor(v)))

    params = [p for c in convs for p in c.parameters()] + macro_mod.parameters()
    err = grad_check(f, params, rng=np.random.default_rng(38))
    assert err < 1e-4, f"{micro}/{macro}: {err:.2e}"


def test_gat_backward_holds_less_than_one_edge_by_feature_array():
    """The backward pass adds less than one E x d float64 array on top of
    what the forward pass leaves: the edge gradient is reduced in blocks of
    pairs, never gathered for every edge at once."""
    rng = np.random.default_rng(41)
    n, d = 64, 64
    n_edges = 4 * (T._SDDMM_BLOCK_BYTES // (8 * d)) + n
    dst = np.sort(rng.integers(0, n, n_edges))
    # built from (data, indices, indptr), so a repeated pair stays two entries
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))])
    adj = frozen((np.ones(n_edges, dtype=np.int64),
                  rng.integers(0, n, n_edges), indptr), (n, n))
    plan = L.aggregation_plan("GATConv", Subgraph("g", "X", "X", adj))
    assert plan.matrix.nnz == n_edges
    conv = L.GATConv(d, d, rng, "g")
    h = Tensor(rng.standard_normal((n, d)))
    weights = Tensor(rng.standard_normal((n, d)))
    tracemalloc.start()
    try:
        loss = T.tsum(T.mul(conv(plan, h, h), weights))
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conv.W.grad is not None
    assert peak - after_forward < n_edges * d * 8, peak - after_forward
