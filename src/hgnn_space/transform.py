"""Graph transformations: relation extraction, meta-path composition,
homogenization and homophily analysis.

Each transformation returns `Subgraph`s, and which one runs is all that a
model family decides: relation extraction gives one subgraph per relation,
meta-path composition one per meta-path, and homogenization one subgraph
over a single node set "*" that fuses every type.

A meta-path subgraph's adjacency is the product of its relations' adjacency
matrices; entries count meta-path instances between node pairs. With rows
indexing destinations the chain r1..rl multiplies in reverse:
A_path = A_rl @ ... @ A_r1, rows = rl's destinations, cols = r1's sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hgraph import GraphError, HeteroGraph
from .sparse import CSRMatrix, expanded_rows, frozen
from .tensor import SegmentIndex


@dataclass(frozen=True)
class MetaPath:
    name: str
    relations: tuple

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        if len(self.relations) < 1:
            raise GraphError(f"meta-path '{self.name}' must have at least one relation")


@dataclass(eq=False)
class Subgraph:
    """One adjacency between typed endpoints, the one thing a graph
    transformation returns and a model keeps only while it builds plans;
    rows index destinations, columns sources.

    `edge_type` is None except on the fused subgraph `homogenize` gives,
    whose node set "*" holds every type. There it is a `SegmentIndex` over
    the graph's relations of each stored entry's relation, which
    relation-aware attention gathers with; a cell that two relations share
    stays two entries, one per relation.
    """

    name: str
    src_type: str
    dst_type: str
    adjacency: sp.csr_array
    edge_type: SegmentIndex | None = None

    @property
    def same_type(self) -> bool:
        return self.src_type == self.dst_type


def extract_relation_subgraphs(g: HeteroGraph, relation_names) -> list:
    subs = []
    for name in relation_names:
        r = g.relation(name)
        subs.append(Subgraph(name, r.src_type, r.dst_type, g.adjacency[name]))
    return subs


def compose_metapath(g: HeteroGraph, mp: MetaPath) -> Subgraph:
    rels = [g.relation(name) for name in mp.relations]
    for a, b in zip(rels, rels[1:]):
        if a.dst_type != b.src_type:
            raise GraphError(
                f"meta-path '{mp.name}' does not chain: '{a.name}' ends at "
                f"'{a.dst_type}' but '{b.name}' starts at '{b.src_type}'")
    product = g.adjacency[rels[0].name]
    try:
        for r in rels[1:]:
            # by this name, so the benchmark's layer map can count products
            product = CSRMatrix.matmul(g.adjacency[r.name], product)
    except OverflowError as e:
        raise GraphError(f"meta-path '{mp.name}': {e}") from None
    return Subgraph(mp.name, rels[0].src_type, rels[-1].dst_type, product)


def type_offsets(g: HeteroGraph) -> dict:
    """Global id of each type's first node in the fused node set: type t's
    nodes are `offsets[t]` to `offsets[t] + count - 1`, in type order."""
    offsets, base = {}, 0
    for t in g.node_types:
        offsets[t.name] = base
        base += t.count
    return offsets


def homogenize(g: HeteroGraph) -> Subgraph:
    """Every type fused into one node set "*" with global ids and one
    adjacency over it that stores one entry per relation edge. Within a
    row, entries come in relation order, then in source order."""
    offsets = type_offsets(g)
    n = sum(t.count for t in g.node_types)
    src, dst, weight, edge_type = [], [], [], []
    for k, r in enumerate(g.relations):
        adj = g.adjacency[r.name]
        src.append(adj.indices + offsets[r.src_type])
        dst.append(expanded_rows(adj) + offsets[r.dst_type])
        weight.append(adj.data)
        edge_type.append(np.full(adj.nnz, k, dtype=np.int64))
    src, dst, weight, edge_type = (np.concatenate(p) if p else np.empty(0, dtype=np.int64)
                                   for p in (src, dst, weight, edge_type))
    order = np.argsort(dst, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))])
    adjacency = frozen((weight[order], src[order], indptr), (n, n))
    # one segment per relation, also for a last relation without edges
    return Subgraph("*", "*", "*", adjacency,
                    SegmentIndex(edge_type[order], len(g.relations)))


def homophily(sub: Subgraph, labels: np.ndarray) -> float:
    """Average same-label neighbor fraction over nodes with any neighbor.

    The adjacency is binarized (an entry >= 1 marks a neighbor). Isolated
    nodes are skipped: including them would divide zero by zero.
    """
    if sub.src_type != sub.dst_type:
        raise GraphError(
            f"homophily needs matching endpoint types, got "
            f"'{sub.src_type}' -> '{sub.dst_type}'")
    labels = np.asarray(labels)
    n = sub.adjacency.shape[0]
    if labels.shape[0] != n:
        raise GraphError(f"labels cover {labels.shape[0]} nodes, expected {n}")
    # neighbors of v are the rows u with A[u, v] >= 1, i.e. column v
    adj = sub.adjacency
    same = labels[expanded_rows(adj)] == labels[adj.indices]
    degree = np.bincount(adj.indices, minlength=n)
    hits = np.bincount(adj.indices, weights=same, minlength=n)
    seen = degree > 0
    if not seen.any():
        return 0.0
    # cumsum adds the fractions one at a time in node order, as a loop does
    # (Python 3.12's sum() compensates, which would change the last bits)
    total = float(np.cumsum(hits[seen] / degree[seen])[-1])
    return total / int(seen.sum())
