"""Heterogeneous graph data model, bundle I/O and synthetic graph generation.

A graph is a set of typed node tables plus one sparse adjacency per named
relation. Adjacency rows index destination nodes and entries count parallel
edges. Graphs are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .sparse import CSRMatrix, freeze


class GraphError(ValueError):
    """Raised when a graph build, load or query is invalid."""


@dataclass(frozen=True)
class NodeType:
    name: str
    count: int
    feature_dim: int = 0


@dataclass(frozen=True)
class Relation:
    name: str
    src_type: str
    dst_type: str


@dataclass(frozen=True)
class HeteroGraph:
    node_types: tuple
    relations: tuple
    adjacency: dict  # relation name -> CSRMatrix (rows = dst, cols = src)
    features: dict   # type name -> float64 (count, feature_dim), only if dim > 0
    labels: dict     # type name -> int64 (count,), -1 marks unlabeled

    def node_type(self, name: str) -> NodeType:
        for t in self.node_types:
            if t.name == name:
                return t
        raise GraphError(f"unknown node type '{name}'")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise GraphError(f"unknown relation '{name}'")

    def num_nodes(self, type_name: str) -> int:
        return self.node_type(type_name).count

    @property
    def type_names(self):
        return tuple(t.name for t in self.node_types)

    @property
    def relation_names(self):
        return tuple(r.name for r in self.relations)

    def equals(self, other: "HeteroGraph") -> bool:
        if self.node_types != other.node_types or self.relations != other.relations:
            return False
        for name in self.relation_names:
            if not self.adjacency[name].equals(other.adjacency[name]):
                return False
        if set(self.features) != set(other.features):
            return False
        for k, v in self.features.items():
            if not np.array_equal(v, other.features[k]):
                return False
        if set(self.labels) != set(other.labels):
            return False
        return all(np.array_equal(v, other.labels[k]) for k, v in self.labels.items())


def build_graph(node_types, relations, edge_lists, features=None, labels=None) -> HeteroGraph:
    """Assemble and validate a graph.

    edge_lists maps relation name -> (m, 2) or (m, 3) integer array of
    (src, dst[, count]) rows; duplicate (src, dst) pairs accumulate.
    """
    node_types = tuple(t if isinstance(t, NodeType) else NodeType(*t) for t in node_types)
    relations = tuple(r if isinstance(r, Relation) else Relation(*r) for r in relations)
    features = dict(features or {})
    labels = dict(labels or {})

    names = [t.name for t in node_types]
    if len(set(names)) != len(names):
        raise GraphError("node type names must be unique")
    for t in node_types:
        if t.count < 0:
            raise GraphError(f"node type '{t.name}': count must be >= 0")
        if t.feature_dim < 0:
            raise GraphError(f"node type '{t.name}': feature_dim must be >= 0")
    by_name = {t.name: t for t in node_types}

    rel_names = [r.name for r in relations]
    if len(set(rel_names)) != len(rel_names):
        # names key adjacency, file formats and meta-path declarations
        raise GraphError("relation names must be unique")
    for r in relations:
        for side, tn in (("source", r.src_type), ("destination", r.dst_type)):
            if tn not in by_name:
                raise GraphError(f"relation '{r.name}': unknown {side} type '{tn}'")

    stray = set(edge_lists) - {r.name for r in relations}
    if stray:
        raise GraphError(f"edge lists reference undeclared relations: "
                         f"{sorted(stray)}")
    adjacency = {}
    for r in relations:
        n_src = by_name[r.src_type].count
        n_dst = by_name[r.dst_type].count
        edges = np.asarray(edge_lists.get(r.name, np.empty((0, 2), dtype=np.int64)),
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] not in (2, 3):
            raise GraphError(f"relation '{r.name}': edge list must have 2 or 3 columns")
        src, dst = edges[:, 0], edges[:, 1]
        counts = edges[:, 2] if edges.shape[1] == 3 else None
        if counts is not None and counts.size and counts.min() < 1:
            raise GraphError(f"relation '{r.name}': edge counts must be >= 1")
        if src.size:
            if src.min() < 0 or src.max() >= n_src:
                raise GraphError(
                    f"relation '{r.name}': source id out of range for type "
                    f"'{r.src_type}' (count {n_src})")
            if dst.min() < 0 or dst.max() >= n_dst:
                raise GraphError(
                    f"relation '{r.name}': destination id out of range for type "
                    f"'{r.dst_type}' (count {n_dst})")
        adjacency[r.name] = freeze(CSRMatrix.from_edges(dst, src, n_dst, n_src,
                                                        data=counts))

    feats = {}
    for tn, mat in features.items():
        if tn not in by_name:
            raise GraphError(f"features: unknown node type '{tn}'")
        t = by_name[tn]
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape != (t.count, t.feature_dim):
            raise GraphError(
                f"features for '{tn}': shape {mat.shape} does not match "
                f"(count, feature_dim) = ({t.count}, {t.feature_dim})")
        mat = mat.copy()
        mat.flags.writeable = False
        feats[tn] = mat
    for t in node_types:
        if t.feature_dim > 0 and t.name not in feats:
            raise GraphError(f"features for '{t.name}': missing matrix of width "
                             f"{t.feature_dim}")

    labs = {}
    for tn, vec in labels.items():
        if tn not in by_name:
            raise GraphError(f"labels: unknown node type '{tn}'")
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (by_name[tn].count,):
            raise GraphError(f"labels for '{tn}': expected {by_name[tn].count} entries, "
                             f"got {vec.shape}")
        vec = vec.copy()
        vec.flags.writeable = False
        labs[tn] = vec

    return HeteroGraph(node_types, relations, adjacency, feats, labs)


# ---------------------------------------------------------------------------
# Bundle format: a directory with graph.json, <relation>.csv edge files,
# <type>.features.csv feature files and <type>.labels.csv label files.
# ---------------------------------------------------------------------------

_FORMAT_TAG = "hgnn-space-graph/1"


def save_graph(g: HeteroGraph, path) -> str:
    path = str(path)
    os.makedirs(path, exist_ok=True)
    header = {
        "format": _FORMAT_TAG,
        "node_types": [{"name": t.name, "count": t.count, "feature_dim": t.feature_dim}
                       for t in g.node_types],
        "relations": [{"name": r.name, "src_type": r.src_type, "dst_type": r.dst_type}
                      for r in g.relations],
        "features": {tn: f"{tn}.features.csv" for tn in sorted(g.features)},
        "labels": {tn: f"{tn}.labels.csv" for tn in sorted(g.labels)},
    }
    with open(os.path.join(path, "graph.json"), "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for r in g.relations:
        adj = g.adjacency[r.name]
        dst = adj.expanded_rows()
        with open(os.path.join(path, f"{r.name}.csv"), "w") as fh:
            for s, d, c in zip(adj.indices, dst, adj.data):
                fh.write(f"{s},{d},{c}\n")
    for tn, name in header["features"].items():
        with open(os.path.join(path, name), "w") as fh:
            for row in g.features[tn]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    for tn, name in header["labels"].items():
        with open(os.path.join(path, name), "w") as fh:
            for v in g.labels[tn]:
                fh.write(f"{v}\n")
    return path


def load_graph(path) -> HeteroGraph:
    path = str(path)
    header_path = os.path.join(path, "graph.json")
    try:
        with open(header_path) as fh:
            header = json.load(fh)
    except FileNotFoundError:
        raise GraphError(f"graph bundle '{path}' has no graph.json")
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph.json in '{path}': {exc}")
    if header.get("format") != _FORMAT_TAG:
        raise GraphError(f"graph.json in '{path}' has unknown format tag "
                         f"{header.get('format')!r}")

    node_types = [NodeType(t["name"], int(t["count"]), int(t["feature_dim"]))
                  for t in header["node_types"]]
    relations = [Relation(r["name"], r["src_type"], r["dst_type"])
                 for r in header["relations"]]
    type_names = {t.name for t in node_types}

    edge_lists = {}
    for r in relations:
        fname = os.path.join(path, f"{r.name}.csv")
        if not os.path.exists(fname):
            raise GraphError(f"bundle missing edge file for relation '{r.name}'")
        rows = []
        with open(fname) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) not in (2, 3):
                    raise GraphError(f"{fname}:{ln}: expected 2 or 3 columns")
                rows.append([int(p) for p in parts] if len(parts) == 3
                            else [int(parts[0]), int(parts[1]), 1])
        edge_lists[r.name] = (np.asarray(rows, dtype=np.int64)
                              if rows else np.empty((0, 3), dtype=np.int64))

    features = {}
    for tn, fname in header.get("features", {}).items():
        if tn not in type_names:
            raise GraphError(f"features entry references unknown type '{tn}'")
        full = os.path.join(path, fname)
        if not os.path.exists(full):
            raise GraphError(f"bundle missing feature file for type '{tn}'")
        rows = []
        with open(full) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(p) for p in line.split(",")])
        t = next(t for t in node_types if t.name == tn)
        mat = np.asarray(rows, dtype=np.float64) if rows else \
            np.empty((0, t.feature_dim), dtype=np.float64)
        if mat.shape[0] != t.count:
            raise GraphError(f"feature file for type '{tn}' has {mat.shape[0]} rows, "
                             f"expected {t.count}")
        features[tn] = mat

    labels = {}
    for tn, fname in header.get("labels", {}).items():
        if tn not in type_names:
            raise GraphError(f"labels entry references unknown type '{tn}'")
        full = os.path.join(path, fname)
        if not os.path.exists(full):
            raise GraphError(f"bundle missing label file for type '{tn}'")
        with open(full) as fh:
            vec = [int(line.strip()) for line in fh if line.strip()]
        labels[tn] = np.asarray(vec, dtype=np.int64)

    return build_graph(node_types, relations, edge_lists, features, labels)


# ---------------------------------------------------------------------------
# Synthetic planted-partition generator: desk-scale graphs with controllable
# meta-path homophily, used by the acceptance experiments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a community-structured heterogeneous graph.

    Every node of every type gets a latent community in a single shared
    space; `boost` is the probability an edge is forced intra-community,
    `noise` the probability a target node's label is resampled uniformly.
    """

    node_types: tuple    # of (name, count, feature_dim)
    relations: tuple     # of (name, src_type, dst_type, n_edges)
    target_type: str
    num_communities: int
    boost: float = 0.9
    noise: float = 0.0
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.boost <= 1.0:
            raise GraphError("boost must lie in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise GraphError("noise must lie in [0, 1]")
        if self.num_communities < 1:
            raise GraphError("num_communities must be positive")
        for name, count, _ in self.node_types:
            if count < self.num_communities:
                raise GraphError(f"node type '{name}' needs at least one node per "
                                 f"community")
        for name, _, _, n_edges in self.relations:
            if n_edges < 0:
                raise GraphError(f"relation '{name}': edge count must be >= 0")
        if self.target_type not in {n for n, _, _ in self.node_types}:
            raise GraphError(f"target type '{self.target_type}' not declared")


def generate_synthetic(spec: SyntheticSpec) -> HeteroGraph:
    """Deterministic planted-partition graph; a pure function of the spec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    C = spec.num_communities

    # balanced communities: shuffled round-robin keeps every community populated
    community = {}
    for name, count, _ in spec.node_types:
        community[name] = rng.permutation(np.arange(count, dtype=np.int64) % C)

    edge_lists = {}
    for name, src_t, dst_t, n_edges in spec.relations:
        n_src = next(c for n, c, _ in spec.node_types if n == src_t)
        n_dst = next(c for n, c, _ in spec.node_types if n == dst_t)
        src = rng.integers(0, n_src, size=n_edges)
        intra = rng.random(n_edges) < spec.boost
        dst = rng.integers(0, n_dst, size=n_edges)
        groups = [np.flatnonzero(community[dst_t] == c) for c in range(C)]
        src_comm = community[src_t][src]
        for c in range(C):
            mask = intra & (src_comm == c)
            k = int(mask.sum())
            if k:
                dst[mask] = groups[c][rng.integers(0, groups[c].shape[0], size=k)]
        edge_lists[name] = np.stack([src, dst], axis=1)

    labels_vec = community[spec.target_type].copy()
    flip = rng.random(labels_vec.shape[0]) < spec.noise
    if flip.any():
        labels_vec[flip] = rng.integers(0, C, size=int(flip.sum()))

    features = {}
    for name, count, fdim in spec.node_types:
        if fdim == 0:
            continue
        base = np.zeros((count, fdim))
        base[np.arange(count), community[name] % fdim] = 1.0
        base += (0.1 + spec.noise) * rng.standard_normal((count, fdim))
        features[name] = base

    node_types = [NodeType(n, c, f) for n, c, f in spec.node_types]
    relations = [Relation(n, s, d) for n, s, d, _ in spec.relations]
    return build_graph(node_types, relations, edge_lists, features,
                       {spec.target_type: labels_vec})
