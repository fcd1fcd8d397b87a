"""Heterogeneous graph data model, bundle I/O and synthetic graph generation.

A graph is a set of typed node tables plus one sparse adjacency per named
relation. Adjacency rows index destination nodes and entries count parallel
edges. Graphs are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .sparse import expanded_rows, from_edges


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


@dataclass(frozen=True, eq=False)
class HeteroGraph:
    """A typed graph; `==` is identity, `equals` compares the contents."""

    node_types: tuple
    relations: tuple
    adjacency: dict  # relation name -> read-only int64 csr_array (rows dst, cols src)
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
            a, b = self.adjacency[name], other.adjacency[name]
            if (a.shape != b.shape or a.dtype != b.dtype
                    or not all(np.array_equal(getattr(a, k), getattr(b, k))
                               for k in ("indptr", "indices", "data"))):
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
        adjacency[r.name] = from_edges(dst, src, n_dst, n_src, data=counts)

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
        feats[tn] = _frozen(mat)
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
        below = np.flatnonzero(vec < -1)
        if below.size:
            raise GraphError(f"labels for '{tn}': node {below[0]} has label "
                             f"{vec[below[0]]}; a label is a class id >= 0, or -1 "
                             f"for an unlabeled node")
        labs[tn] = _frozen(vec)

    return HeteroGraph(node_types, relations, adjacency, feats, labs)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """`arr` itself when it owns its data and is read-only, so that only its
    owner could unfreeze it; otherwise a read-only copy."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Bundle format: a directory with graph.json and one file per relation,
# labeled type and featured type, each named in graph.json's `edges`,
# `labels` and `features` maps. save_graph writes them as .npy arrays
# saved without pickles: <relation>.edges.npy (int64 src, dst, count rows),
# <type>.labels.npy (int64, one per node) and <type>.features.npy (float64,
# count x feature_dim). load_graph reads a file by its extension: a .npy
# name as binary, any other name as CSV text; a bundle without an `edges`
# map has its edges in <relation>.csv.
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
        "edges": {r.name: f"{r.name}.edges.npy" for r in g.relations},
        "features": {tn: f"{tn}.features.npy" for tn in sorted(g.features)},
        "labels": {tn: f"{tn}.labels.npy" for tn in sorted(g.labels)},
    }
    with open(os.path.join(path, "graph.json"), "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
    arrays = {name: g.features[tn] for tn, name in header["features"].items()}
    arrays.update((name, g.labels[tn]) for tn, name in header["labels"].items())
    for r in g.relations:
        adj = g.adjacency[r.name]
        arrays[header["edges"][r.name]] = np.stack(  # src, dst, count rows
            [adj.indices, expanded_rows(adj), adj.data], axis=1)
    for name, arr in arrays.items():
        np.save(os.path.join(path, name), arr, allow_pickle=False)
    return path


def read_text(path, lines=False):
    """The text of an input file the user named, or with `lines` its list of
    lines; a file that cannot be read is a GraphError naming it."""
    try:
        with open(path) as fh:
            return fh.readlines() if lines else fh.read()
    except OSError as e:
        raise GraphError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise GraphError(f"{path}: {e}") from None


def _loadtxt(rows, dtype):
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=2)


def _first_bad_row(rows, dtype, error):
    """(index, error) of the first row numpy cannot parse, given the `error`
    that parsing all `rows`, which have equal widths, raised. Bisecting
    needs no row number out of numpy's message."""
    lo, hi = 0, len(rows)  # rows[:lo] parse; `error` is about rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(rows[lo:mid], dtype)
            lo = mid
        except ValueError as e:
            hi, error = mid, e
    return lo, error


def _read_table(fname, dtype, widths) -> np.ndarray:
    """The non-blank lines of a comma-separated numeric file as one
    (rows, max(widths)) array in file order; a row of a narrower allowed
    width is padded on the right with ones, the default edge count.

    The rows are grouped by their number of cells and each group is parsed
    by one call to numpy's C reader, so a file whose rows share one width is
    one call and a blank file is none. A width outside `widths`, or a cell
    numpy cannot parse (it accepts no `#` comments and no `1_0` digit
    groups), is a GraphError naming the file and its 1-based line; the first
    bad row of a group is found by bisection."""
    lines = read_text(fname, lines=True)  # never the whole text and its lines at once
    width = max(widths)
    rows = [line for line in lines if line.strip()]
    cells = np.array([row.count(",") + 1 for row in rows], dtype=np.int64)
    out = None
    problems = []  # (row index, reason)
    wrong = np.flatnonzero(np.all(cells[:, None] != widths, axis=1))
    if wrong.size:
        want = " or ".join(map(str, widths))
        problems.append((wrong[0], f"row width {cells[wrong[0]]}, expected {want}"))
    for w in widths:
        at = np.flatnonzero(cells == w)
        if not at.size:
            continue
        group = rows if at.size == len(rows) else [rows[i] for i in at]
        try:
            values = _loadtxt(group, dtype)
        except ValueError as e:
            bad, e = _first_bad_row(group, dtype, e)
            problems.append((at[bad], re.sub(r"at row \d+, ", "at ", str(e))))
            continue
        if at.size == len(rows) and w == width:
            out = values
            continue
        if out is None:
            out = np.ones((len(rows), width), dtype=dtype)
        out[at, :w] = values
    if problems:
        row, why = min(problems)
        line = [ln for ln, text in enumerate(lines, 1) if text.strip()][row]
        raise GraphError(f"{fname}:{line}: {why}")
    return out if out is not None else np.empty((0, width), dtype=dtype)


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _npy_header(fh):
    """(shape, fortran_order, dtype) from the header of an open .npy file."""
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f"unsupported .npy format version {version[0]}.{version[1]}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on a header written by Python 2
        return _NPY_HEADERS[version](fh)


def _fits(have, shape):
    """Whether a header's `have` matches `shape`, whose entries are a size,
    a tuple of allowed sizes or None for any size."""
    return len(have) == len(shape) and all(
        d >= 0 if want is None else d in want if isinstance(want, tuple) else d == want
        for d, want in zip(have, shape))


def _read_npy(fname, dtype, shape, expected) -> np.ndarray:
    """The array of `dtype`, in either byte order, and of `shape` (see
    `_fits`) stored in a .npy file; `expected` describes `shape` in errors.

    The header's shape and dtype, and the file's size, are checked before
    any data is read, so a file claiming more rows than it holds or than
    graph.json gives, another dtype or pickled objects, or one cut short, is
    refused without allocating for it. The data is then read into one array
    of the header's byte order. A damaged file is a GraphError naming it."""
    dtype = np.dtype(dtype)
    try:
        with open(fname, "rb") as fh:
            try:
                have, fortran, got = _npy_header(fh)
            except Exception as e:  # numpy's parse of a damaged header raises ValueError
                # and, depending on the damage, TokenError, TypeError or MemoryError
                why = str(e).splitlines() or [type(e).__name__]
                raise ValueError(f"bad .npy header: {why[0]}") from None
            if not _fits(have, shape):
                raise ValueError(f"shape {have} in the header, expected {expected}")
            if got not in (dtype.newbyteorder("<"), dtype.newbyteorder(">")):
                raise ValueError(f"dtype {got} in the header, expected {dtype}")
            need = math.prod(have) * got.itemsize
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left < need:
                raise ValueError(f"data ends after {left} of {need} bytes")
            out = np.empty(have[::-1] if fortran else have, dtype=got)
            if fh.readinto(out) != need:
                raise ValueError("the file shrank while it was read")
    except OSError as e:
        raise GraphError(f"{fname}: {e.strerror or e}") from None
    except ValueError as e:
        raise GraphError(f"{fname}: {e}") from None
    out = out.T if fortran else out
    out.flags.writeable = False  # no one else holds it: build_graph keeps it
    return out


def _read_array(fname, dtype, shape, expected) -> np.ndarray:
    """The owned, read-only array of `dtype` and `shape` (see `_fits`) in a
    bundle file, `expected` describing `shape` in errors: `_read_npy`'s for
    a .npy name, else the CSV rows of the widths `shape` allows."""
    if fname.endswith(".npy"):
        return _read_npy(fname, dtype, shape, expected)
    widths = shape[-1] if len(shape) > 1 else 1  # a vector is one cell a row
    out = _read_table(fname, dtype, widths if isinstance(widths, tuple) else (widths,))
    out = out[:, 0].copy() if len(shape) == 1 else out
    if not _fits(out.shape, shape):
        raise GraphError(f"{fname}: shape {out.shape}, expected {expected}")
    out.flags.writeable = False  # no one else holds it: build_graph keeps it
    return out


_KINDS = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _get(obj, key, kind, where, default=None):
    """obj[key] from graph.json, which must be a `kind`."""
    if not isinstance(obj, dict):
        raise GraphError(f"{where} must be an object, got {obj!r}")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise GraphError(f"{where} has no key '{key}'")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GraphError(f"{where}: key '{key}' must be {_KINDS[kind]}, got {value!r}")
    return value


def load_graph(path) -> HeteroGraph:
    path = str(path)
    header_path = os.path.join(path, "graph.json")
    if not os.path.exists(header_path):
        raise GraphError(f"graph bundle '{path}' has no graph.json")
    try:
        header = json.loads(read_text(header_path))
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph.json in '{path}': {exc}")
    where = f"graph.json in '{path}'"
    tag = _get(header, "format", str, where)
    if tag != _FORMAT_TAG:
        raise GraphError(f"{where} has unknown format tag {tag!r}")

    node_types = []
    for i, t in enumerate(_get(header, "node_types", list, where)):
        at = f"{where}, node_types[{i}]"
        node_types.append(NodeType(_get(t, "name", str, at), _get(t, "count", int, at),
                                   _get(t, "feature_dim", int, at)))
    relations = []
    for i, r in enumerate(_get(header, "relations", list, where)):
        at = f"{where}, relations[{i}]"
        relations.append(Relation(*(_get(r, k, str, at)
                                    for k in ("name", "src_type", "dst_type"))))
    by_name = {t.name: t for t in node_types}
    rel_names = [r.name for r in relations]

    def files(key, known, noun, default):
        """(name, path) of each file in graph.json's `key` map, checking
        that the name is `known` and the file exists."""
        entries = _get(header, key, dict, where, default=default)
        for name in entries:
            full = os.path.join(path, _get(entries, name, str, f"{where}, {key}"))
            if name not in known:
                raise GraphError(f"{key} entry references unknown {noun} '{name}'")
            if not os.path.exists(full):
                raise GraphError(f"bundle missing {key[:-1]} file for {noun} '{name}'")
            yield name, full

    # a bundle without an `edges` map has <relation>.csv files
    edge_lists = {name: _read_array(full, np.int64, (None, (2, 3)), "(rows, 2 or 3)")
                  for name, full in files("edges", rel_names, "relation",
                                          {name: f"{name}.csv" for name in rel_names})}
    omitted = [name for name in rel_names if name not in edge_lists]
    if omitted:
        raise GraphError(f"{where}, edges has no file for relation '{omitted[0]}'")
    dims = {t.name: (t.count, t.feature_dim) for t in node_types}
    features = {tn: _read_array(full, np.float64, dims[tn],
                                f"(count, feature_dim) = {dims[tn]} from graph.json")
                for tn, full in files("features", by_name, "type", {})}
    labels = {tn: _read_array(full, np.int64, dims[tn][:1],
                              f"(count,) = {dims[tn][:1]} from graph.json")
              for tn, full in files("labels", by_name, "type", {})}
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
