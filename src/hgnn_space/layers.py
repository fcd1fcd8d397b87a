"""Heterogeneous message-passing layers.

Micro-level graph convolutions (GCN / GAT / Sage / GIN) run on one subgraph
as one sparse-dense product; macro-level reducers (Mean / Max / Sum /
Attention) fuse two or more per-subgraph outputs that share a destination
node set, and `Model.forward` passes a lone output on without one. The
model families differ only in the graph transformation that gives the node
sets and subgraphs: Relation and Metapath keep one node set per type and one
subgraph per relation or meta-path, Homogenization fuses every type into one
node set with one subgraph. Every convolution is called as
`conv(plan, h_src, h_dst)` on the plan `aggregation_plan` builds from a
subgraph's CSR adjacency; a fused subgraph's attention plan also carries
each entry's relation, which relation-aware attention reads.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .sparse import expanded_rows
from .tensor import BatchNormState, Parameter, SpmmPlan, TensorError
from .transform import Subgraph

PRELU_INIT = 0.25

MICRO_KINDS = ("GCNConv", "GATConv", "SageConv", "GINConv")
MACRO_KINDS = ("Mean", "Max", "Sum", "Attention")
ATTENTION_FORMS = ("GAT", "SimpleHGN")
ACTIVATIONS = ("ReLU", "LeakyReLU", "ELU", "Tanh", "PReLU")
CONNECTIVITIES = ("STACK", "SKIP-SUM", "SKIP-CAT")


def glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Module:
    """Base of every component: `parameters()` finds the component's
    parameters in its attributes instead of a hand-kept list."""

    def parameters(self):
        """Every Parameter reachable from the attributes, in assignment
        order, through nested modules, lists, tuples and dict values; a
        parameter reached twice is listed once."""
        found = {}
        _collect(vars(self).values(), found)
        return list(found.values())


def _collect(values, found):
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle that would keep `found`, so every parameter and its
    # gradient, alive until the cycle collector runs
    for x in values:
        if isinstance(x, Parameter):
            found.setdefault(id(x), x)
        elif isinstance(x, Module):
            _collect(vars(x).values(), found)
        elif isinstance(x, dict):
            _collect(x.values(), found)
        elif isinstance(x, (list, tuple)):
            _collect(x, found)


class Linear(Module):
    """`x @ W + b`: W glorot-drawn from `rng`, b zero, named `<prefix>.W`
    and `<prefix>.b`."""

    def __init__(self, in_dim, out_dim, rng, prefix):
        self.W = Parameter(glorot(rng, in_dim, out_dim), f"{prefix}.W")
        self.b = Parameter(np.zeros((1, out_dim)), f"{prefix}.b")

    def __call__(self, x):
        return T.add(T.matmul(x, self.W), self.b)


# ---------------------------------------------------------------------------
# aggregation matrices
# ---------------------------------------------------------------------------

def aggregation_plan(kind, sub: Subgraph, dtype=np.float64) -> SpmmPlan:
    """The plan convolution `kind` aggregates `sub` with, built once from
    the subgraph's CSR adjacency: its counts (GIN), each destination's
    counts divided by their sum (Sage, and GCN across types), or the counts
    with one self-loop per node, symmetrically normalized (GCN within one
    type). GAT's plan is an `AttentionPlan` on the adjacency itself, with
    the relation ids: attention reads only its pattern (parallel edges
    count as one). The weights are computed in float64 and stored in
    `dtype`, the dtype of the representations the plan multiplies."""
    if kind not in MICRO_KINDS:
        raise TensorError(f"unknown micro convolution '{kind}'")
    adj = sub.adjacency
    if kind == "GATConv":
        return T.AttentionPlan(adj, sub.edge_type)
    n_dst, n_src = adj.shape
    indices, indptr = adj.indices, adj.indptr
    w = adj.data.astype(np.float64)
    if kind == "GCNConv" and sub.same_type:
        # each row's loop goes after its edges: the stable sort by row keeps
        # the edges' order, and every row grows by one entry
        loops = np.arange(n_dst, dtype=np.int64)
        src = np.concatenate([indices, loops])
        dst = np.concatenate([expanded_rows(adj), loops])
        w = np.concatenate([w, np.ones(n_dst)])
        din = np.bincount(dst, weights=w, minlength=n_dst)
        dout = np.bincount(src, weights=w, minlength=n_src)
        order = np.argsort(dst, kind="stable")
        w = (w / np.sqrt(din[dst] * dout[src]))[order]
        indices, indptr = src[order], indptr + np.arange(n_dst + 1)
    elif kind != "GINConv":
        rows = expanded_rows(adj)
        din = np.bincount(rows, weights=w, minlength=n_dst)
        w = w / din[rows]
    return SpmmPlan(sp.csr_array((w.astype(dtype, copy=False), indices, indptr),
                                 shape=adj.shape))


# ---------------------------------------------------------------------------
# micro-level convolutions
# ---------------------------------------------------------------------------

class GCNConv(Module):
    def __init__(self, in_dim, out_dim, rng, prefix):
        self.lin = Linear(in_dim, out_dim, rng, prefix)

    def __call__(self, plan: SpmmPlan, h_src, h_dst):
        return self.lin(T.spmm(plan, h_src))


class GATConv(Module):
    """Single-head attention; `form='SimpleHGN'` adds per-relation terms."""

    def __init__(self, in_dim, out_dim, rng, prefix, form="GAT", n_edge_types=0):
        if form not in ATTENTION_FORMS:
            raise TensorError(f"unknown attention form '{form}'")
        self.form = form
        self.W = Parameter(glorot(rng, in_dim, out_dim), f"{prefix}.W")
        self.a_src = Parameter(glorot(rng, out_dim, 1), f"{prefix}.a_src")
        self.a_dst = Parameter(glorot(rng, out_dim, 1), f"{prefix}.a_dst")
        if form == "SimpleHGN":
            if n_edge_types < 1:
                raise TensorError("SimpleHGN attention needs edge types")
            self.W_r = Parameter(glorot(rng, out_dim, out_dim), f"{prefix}.W_r")
            self.r_emb = Parameter(
                rng.normal(0.0, 1.0 / np.sqrt(out_dim), size=(n_edge_types, out_dim)),
                f"{prefix}.r_emb")
            self.a_rel = Parameter(glorot(rng, out_dim, 1), f"{prefix}.a_rel")

    def _attention(self, A: T.AttentionPlan, h_src, h_dst):
        """Projected sources and one softmax coefficient per entry of the
        attention pattern `A`, normalized over each destination; the
        SimpleHGN form also reads `A.edge_type`, each entry's relation."""
        z_src = T.matmul(h_src, self.W)
        z_dst = z_src if h_dst is h_src else T.matmul(h_dst, self.W)
        logits = T.add(T.gather_rows(T.matmul(z_dst, self.a_dst), A.by_row),
                       T.gather_rows(T.matmul(z_src, self.a_src), A.by_col))
        if self.form == "SimpleHGN":
            if A.edge_type is None:
                raise TensorError("SimpleHGN attention needs edge types")
            s_rel = T.matmul(T.matmul(self.r_emb, self.W_r), self.a_rel)
            logits = T.add(logits, T.gather_rows(s_rel, A.edge_type))
        e = T.leaky_relu(logits)
        return z_src, T.segment_softmax(e, A.by_row)

    def __call__(self, plan: T.AttentionPlan, h_src, h_dst):
        z_src, alpha = self._attention(plan, h_src, h_dst)
        return T.spmm(plan, z_src, values=alpha)


class SageConv(Module):
    """Mean-aggregator GraphSAGE: neighbors averaged, concatenated with self."""

    def __init__(self, in_dim, out_dim, rng, prefix):
        self.lin = Linear(2 * in_dim, out_dim, rng, prefix)

    def __call__(self, plan: SpmmPlan, h_src, h_dst):
        return self.lin(T.concat([h_dst, T.spmm(plan, h_src)], axis=1))


class GINConv(Module):
    """Sum aggregation with a learnable self weight and a 2-layer MLP."""

    def __init__(self, in_dim, out_dim, rng, prefix):
        self.eps = Parameter(np.zeros((1, 1)), f"{prefix}.eps")
        self.lin1 = Linear(in_dim, out_dim, rng, f"{prefix}.lin1")
        self.lin2 = Linear(out_dim, out_dim, rng, f"{prefix}.lin2")

    def __call__(self, plan: SpmmPlan, h_src, h_dst):
        sums = T.spmm(plan, h_src)
        pre = T.add(T.mul(h_dst, T.add(self.eps, 1.0)), sums)
        return self.lin2(T.relu(self.lin1(pre)))


def make_micro_conv(kind, in_dim, out_dim, rng, prefix, attention_form="GAT",
                    n_edge_types=0):
    if kind == "GCNConv":
        return GCNConv(in_dim, out_dim, rng, prefix)
    if kind == "GATConv":
        return GATConv(in_dim, out_dim, rng, prefix, form=attention_form,
                       n_edge_types=n_edge_types)
    if kind == "SageConv":
        return SageConv(in_dim, out_dim, rng, prefix)
    if kind == "GINConv":
        return GINConv(in_dim, out_dim, rng, prefix)
    raise TensorError(f"unknown micro convolution '{kind}'")


# ---------------------------------------------------------------------------
# macro-level aggregation
# ---------------------------------------------------------------------------

class MacroSum(Module):
    def __call__(self, zs):
        return reduce(T.add, zs)


class MacroMean(Module):
    def __call__(self, zs):
        return T.mul(reduce(T.add, zs), 1.0 / len(zs))


class MacroMax(Module):
    def __call__(self, zs):
        return reduce(T.maximum, zs)


class MacroAttention(Module):
    """One softmax weight per subgraph for a destination type, shared by
    all of its nodes: score_k = mean_v q . tanh(W z_k[v] + b)."""

    def __init__(self, dim, rng, prefix):
        self.lin = Linear(dim, dim, rng, prefix)
        self.q = Parameter(glorot(rng, dim, 1), f"{prefix}.q")

    def __call__(self, zs):
        scores = [T.reshape(T.tmean(T.matmul(T.tanh(self.lin(z)), self.q)), (1, 1))
                  for z in zs]
        weights = T.row_softmax(T.concat(scores, axis=1))
        return reduce(T.add, [T.mul(z, T.narrow(weights, 1, k, k + 1))
                              for k, z in enumerate(zs)])


def make_macro(kind, dim, rng, prefix):
    if kind == "Sum":
        return MacroSum()
    if kind == "Mean":
        return MacroMean()
    if kind == "Max":
        return MacroMax()
    if kind == "Attention":
        return MacroAttention(dim, rng, prefix)
    raise TensorError(f"unknown macro aggregation '{kind}'")


# ---------------------------------------------------------------------------
# heterogeneous linear transformation (every pre-process layer)
# ---------------------------------------------------------------------------

class HeteroLinear(Module):
    """Type-specific projection into a shared space; featureless types get
    trainable embedding tables instead. The first pre-process layer maps
    the features, each extra one maps the shared space into itself."""

    def __init__(self, type_specs, out_dim, rng, prefix="pre0"):
        # type_specs: ordered (name, in_dim, count)
        self.linears = {}
        self.embeddings = {}
        self.order = tuple(name for name, _, _ in type_specs)
        for name, in_dim, count in type_specs:
            if in_dim > 0:
                self.linears[name] = Linear(in_dim, out_dim, rng, f"{prefix}.{name}")
            else:
                self.embeddings[name] = Parameter(
                    rng.normal(0.0, 1.0 / np.sqrt(out_dim), size=(count, out_dim)),
                    f"{prefix}.{name}.emb")

    def __call__(self, features_by_type, types=None):
        """Projections of the given types (every type when None)."""
        out = {}
        for name in self.order:
            if types is not None and name not in types:
                continue
            if name in self.linears:
                x = features_by_type.get(name)
                if x is None:
                    raise TensorError(f"missing features for type '{name}'")
                linear = self.linears[name]
                if x.shape[1] != linear.W.shape[0]:
                    raise TensorError(
                        f"type '{name}': feature width {x.shape[1]} does not match "
                        f"projection input {linear.W.shape[0]}")
                out[name] = linear(x)
            else:
                out[name] = self.embeddings[name]
        return out


# ---------------------------------------------------------------------------
# intra-layer post-processing and inter-layer connectivity
# ---------------------------------------------------------------------------

class Activation(Module):
    def __init__(self, kind, prefix=None):
        if kind not in ACTIVATIONS:
            raise TensorError(f"unknown activation '{kind}'")
        self.kind = kind
        self.slope = (Parameter(np.full((1, 1), PRELU_INIT), f"{prefix}.prelu")
                      if kind == "PReLU" else None)

    def __call__(self, x):
        if self.kind == "ReLU":
            return T.relu(x)
        if self.kind == "LeakyReLU":
            return T.leaky_relu(x)
        if self.kind == "ELU":
            return T.elu(x)
        if self.kind == "Tanh":
            return T.tanh(x)
        return T.prelu(x, self.slope)


class BatchNorm(Module):
    def __init__(self, dim, prefix, dtype=np.float64):
        self.gamma = Parameter(np.ones((1, dim), dtype=dtype), f"{prefix}.gamma")
        self.beta = Parameter(np.zeros((1, dim), dtype=dtype), f"{prefix}.beta")
        self.state = BatchNormState(dim, dtype)

    def __call__(self, x, training):
        return T.batch_norm(x, self.gamma, self.beta, self.state, training)


def intra_layer_post(h, bn, dropout_p, activation, l2norm, training, rng=None):
    """Fixed order: BN, dropout, activation, L2 normalization; each optional."""
    if bn is not None:
        h = bn(h, training)
    if dropout_p:
        h = T.dropout(h, dropout_p, training, rng)
    if activation is not None:
        h = activation(h)
    if l2norm:
        h = T.l2_normalize(h)
    return h


def connect(mode, h_prev, h_new):
    if mode == "STACK":
        return h_new
    if mode == "SKIP-SUM":
        if h_prev.shape[1] != h_new.shape[1]:
            raise TensorError(
                f"SKIP-SUM width mismatch: {h_prev.shape[1]} vs {h_new.shape[1]}")
        return T.add(h_prev, h_new)
    if mode == "SKIP-CAT":
        return T.concat([h_prev, h_new], axis=1)
    raise TensorError(f"unknown connectivity '{mode}'")
