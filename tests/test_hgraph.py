import contextlib
import functools
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnn_space import hgraph
from hgnn_space.cli import main
from hgnn_space.hgraph import (GraphError, SyntheticSpec, build_graph,
                               generate_synthetic, load_graph, save_graph)
from hgnn_space.model import DesignConfig
from hgnn_space.runner import save_config_list
from hgnn_space.sparse import expanded_rows, from_edges, frozen, matmul
from hgnn_space.transform import MetaPath, compose_metapath, homophily

from conftest import same_csr

# numpy's "input contained no data" warning must never escape the loader
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


# ---------------------------------------------------------------------------
# CSR basics
# ---------------------------------------------------------------------------

def test_csr_accumulates_duplicates():
    m = from_edges([0, 0, 1], [2, 2, 0], 2, 3)
    assert m.toarray().tolist() == [[0, 0, 2], [1, 0, 0]]


def from_edges_sorted_merge(rows, cols, n_rows, n_cols, data=None):
    """The former hand-rolled construction: lexsort the cells, merge
    duplicates with `reduceat`, count rows with `add.at`."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.ones(rows.shape[0], dtype=np.int64) if data is None else np.asarray(data)
    if rows.size == 0:
        return frozen((np.empty(0, dtype=data.dtype), np.empty(0, dtype=np.int64),
                       np.zeros(n_rows + 1, dtype=np.int64)), (n_rows, n_cols))
    order = np.lexsort((cols, rows))
    r, c, d = rows[order], cols[order], data[order]
    new_cell = np.empty(r.shape[0], dtype=bool)
    new_cell[0] = True
    new_cell[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_cell)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, r[starts] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return frozen((np.add.reduceat(d, starts), c[starts], indptr),
                  (n_rows, n_cols))


def test_csr_from_edges_matches_the_sorted_merge():
    rng = np.random.default_rng(41)
    for case in range(600):
        n_rows, n_cols = (int(x) for x in rng.integers(1, 30, 2))
        n_edges = (0, 1, int(rng.integers(0, 3 * n_rows * n_cols)))[case % 3]
        cells = n_rows * n_cols if case % 4 else max(1, n_rows * n_cols // 8)
        flat = rng.integers(0, cells, n_edges)  # case % 4 == 0: duplicate-heavy
        rows, cols = flat // n_cols, flat % n_cols
        data = (None,
                rng.integers(0, 5, n_edges),  # explicit counts, zeros included
                rng.integers(-3, 4, n_edges),  # counts that may cancel to zero
                rng.standard_normal(n_edges))[case % 4]
        got = from_edges(rows, cols, n_rows, n_cols, data=data)
        want = from_edges_sorted_merge(rows, cols, n_rows, n_cols, data=data)
        assert got.data.dtype == want.data.dtype, case
        if case % 4 < 3:
            assert same_csr(got, want), case
        else:  # float duplicates may be added in another order
            assert np.array_equal(got.indptr, want.indptr), case
            assert np.array_equal(got.indices, want.indices), case
            assert np.allclose(got.data, want.data, rtol=1e-12, atol=1e-12), case
        assert got.indptr.dtype == got.indices.dtype == np.int64


def test_csr_from_edges_rejects_out_of_range_cells():
    with pytest.raises(ValueError, match="row index"):
        from_edges([0, 2], [0, 0], 2, 1)
    with pytest.raises(ValueError, match="column index"):
        from_edges([0, 1], [0, -1], 2, 1)
    with pytest.raises(ValueError, match="equal length"):
        from_edges([0, 1], [0], 2, 1)


def test_csr_matmul_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = (rng.random((rng.integers(1, 8), rng.integers(1, 8))) < 0.4).astype(np.int64)
        b = (rng.random((a.shape[1], rng.integers(1, 8))) < 0.4).astype(np.int64)
        ca = from_edges(*np.nonzero(a), *a.shape)
        cb = from_edges(*np.nonzero(b), *b.shape)
        assert np.array_equal(matmul(ca, cb).toarray(), a @ b)


def test_csr_matmul_matches_dense_with_empty_rows_and_columns():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n, k, m = (int(x) for x in rng.integers(1, 12, 3))
        a = (rng.random((n, k)) < 0.3) * rng.integers(1, 5, (n, k))
        b = (rng.random((k, m)) < 0.3) * rng.integers(1, 5, (k, m))
        a[rng.integers(n)] = 0
        a[:, rng.integers(k)] = 0
        b[rng.integers(k)] = 0
        b[:, rng.integers(m)] = 0
        ca = from_edges(*np.nonzero(a), n, k, data=a[np.nonzero(a)])
        cb = from_edges(*np.nonzero(b), k, m, data=b[np.nonzero(b)])
        got = matmul(ca, cb)
        want = a @ b
        assert got.data.dtype == np.int64 and got.indices.dtype == np.int64
        assert np.array_equal(got.toarray(), want)
        assert np.array_equal(np.diff(got.indptr), (want != 0).sum(axis=1))
        rows = expanded_rows(got)
        assert np.all((rows[1:] > rows[:-1]) | (got.indices[1:] > got.indices[:-1]))


def test_csr_matmul_overflow_bound_is_exact_at_int_safe():
    # bound = max|a| * max|b| * inner dimension, refused only above _INT_SAFE
    b = from_edges([0, 1], [0, 0], 2, 1, data=np.array([1 << 31, 1]))
    at_bound = from_edges([0, 0], [0, 1], 1, 2, data=np.array([1 << 30, 1]))
    assert matmul(at_bound, b).data.tolist() == [(1 << 61) + 1]
    above = from_edges([0, 0], [0, 1], 1, 2,
                       data=np.array([(1 << 30) + 1, 1]))
    with pytest.raises(OverflowError):
        matmul(above, b)


def test_csr_matmul_overflow_guard():
    big = from_edges([0], [0], 1, 1, data=np.array([1 << 40]))
    with pytest.raises(OverflowError):
        matmul(big, big)


def test_every_adjacency_is_int64_and_read_only(tmp_path):
    from hgnn_space.train import graph_without_edges
    from hgnn_space.transform import homogenize

    # "wrote" shares the cell A0 -> P0 with "ap"; "pc" has no edges, so the
    # APC product is empty, which scipy would store with int32 indices
    ap = np.array([[0, 0], [0, 1], [1, 1]])
    g = build_graph([("P", 3, 0), ("A", 2, 0), ("C", 2, 0)],
                    [("ap", "A", "P"), ("wrote", "A", "P"), ("pa", "P", "A"),
                     ("pc", "P", "C")],
                    {"ap": ap, "wrote": np.array([[0, 0], [1, 2]]), "pa": ap[:, ::-1]})
    fused = homogenize(g).adjacency
    adjacencies = [*g.adjacency.values(),
                   *load_graph(save_graph(g, tmp_path / "b")).adjacency.values(),
                   *graph_without_edges(g, "ap", ap[:1]).adjacency.values(),
                   compose_metapath(g, MetaPath("APA", ("ap", "pa"))).adjacency,
                   compose_metapath(g, MetaPath("APC", ("ap", "pc"))).adjacency,
                   fused]
    x = np.random.default_rng(3).standard_normal((7, 3))
    for adj in adjacencies:
        # a plain scipy array, whose own `@` takes a dense operand
        assert type(adj) is sp.csr_array
        assert np.allclose(adj @ x[:adj.shape[1]], adj.toarray() @ x[:adj.shape[1]])
        assert adj.indptr.dtype == adj.indices.dtype == np.int64
        assert not (adj.indptr.flags.writeable or adj.indices.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            adj.data[:] = 0
    # scipy's in-place canonicalisation cannot merge the shared cell's two
    # entries, one per relation
    total = sum(a.nnz for a in g.adjacency.values())
    indices, data = fused.indices.copy(), fused.data.copy()
    with pytest.raises(ValueError):
        fused.sum_duplicates()
    assert fused.nnz == total == 8
    assert np.array_equal(fused.indices, indices) and np.array_equal(fused.data, data)


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------

def test_academic_schema_has_four_adjacencies(academic_graph):
    g = academic_graph
    assert len(g.adjacency) == 4
    assert g.adjacency["written"].shape == (3, 2)   # rows = P, cols = A
    assert g.adjacency["published"].shape == (2, 3)


def test_empty_edge_list_is_valid():
    g = build_graph([("X", 2, 0), ("Y", 3, 0)], [("r", "X", "Y")], {})
    assert g.adjacency["r"].nnz == 0
    assert g.adjacency["r"].toarray().tolist() == [[0, 0], [0, 0], [0, 0]]


def test_duplicate_edge_accumulates_multiplicity():
    g = build_graph([("A", 2, 0), ("P", 2, 0)], [("w", "A", "P")],
                    {"w": np.array([[1, 0], [1, 0]])})
    # cell (dst=p0, src=a1) carries count 2
    assert g.adjacency["w"].toarray()[0, 1] == 2


def _features_kept(x):
    g = build_graph([("A", 3, 2)], [], {}, features={"A": x}, labels={"A": [0, -1, 1]})
    got = g.features["A"]
    assert not got.flags.writeable and np.array_equal(got, np.asarray(x))
    return got is x


def test_build_graph_keeps_a_feature_array_no_one_else_can_write():
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    x.flags.writeable = False
    assert _features_kept(x)


def test_build_graph_copies_a_writeable_feature_array():
    x = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert not _features_kept(x)
    assert x.flags.writeable  # the caller's array is left as it was
    x[0, 0] = 7.0  # and writing it does not reach the graph


@pytest.mark.parametrize("view", ["slice", "transpose", "reshape"])
def test_build_graph_copies_a_read_only_view(view):
    base = np.arange(12.0)
    x = {"slice": lambda: base.reshape(6, 2)[::2],
         "transpose": lambda: base[:6].reshape(2, 3).T,
         "reshape": lambda: base[:6].reshape(3, 2)}[view]()
    x.flags.writeable = False
    assert not _features_kept(x)  # its base stays writeable


def test_build_graph_copies_features_of_another_dtype():
    x = np.arange(6, dtype=np.float32).reshape(3, 2)
    x.flags.writeable = False
    assert not _features_kept(x)


def test_a_loaded_graph_shares_its_frozen_features_with_its_message_graphs(tmp_path):
    from hgnn_space.train import graph_without_edges

    g = load_graph(save_graph(generate_synthetic(SyntheticSpec(
        node_types=(("P", 30, 4), ("A", 10, 3)),
        relations=(("ap", "A", "P", 60), ("pa", "P", "A", 60)),
        target_type="P", num_communities=3, seed=1)), tmp_path / "b"))
    for x in [*g.features.values(), *g.labels.values()]:
        assert x.flags.owndata and not x.flags.writeable
    ap = g.adjacency["ap"]
    cut = graph_without_edges(g, "ap", np.stack([ap.indices[:5], expanded_rows(ap)[:5]], 1))
    assert cut.adjacency["ap"].nnz < g.adjacency["ap"].nnz
    assert all(cut.features[t] is g.features[t] for t in g.features)
    assert all(cut.labels[t] is g.labels[t] for t in g.labels)


def test_build_errors_are_located():
    with pytest.raises(GraphError, match="unknown destination type 'Q'"):
        build_graph([("A", 2, 0)], [("r", "A", "Q")], {})
    with pytest.raises(GraphError, match="source id out of range"):
        build_graph([("A", 2, 0), ("B", 2, 0)], [("r", "A", "B")],
                    {"r": np.array([[5, 0]])})
    with pytest.raises(GraphError, match="features for 'A'"):
        build_graph([("A", 2, 3)], [], {}, features={"A": np.zeros((2, 4))})
    with pytest.raises(GraphError, match="relation names must be unique"):
        build_graph([("A", 2, 0), ("B", 2, 0)],
                    [("r", "A", "B"), ("r", "B", "A")], {})


def test_labels_below_minus_one_are_rejected():
    labels = np.zeros(14, dtype=np.int64)
    labels[[4, 9]] = [-3, -7]
    with pytest.raises(GraphError, match=r"labels for 'P': node 4 has label -3"):
        build_graph([("P", 14, 0)], [], {}, labels={"P": labels})
    labels[[4, 9]] = -1
    g = build_graph([("P", 14, 0)], [], {}, labels={"P": labels})
    assert g.labels["P"].tolist().count(-1) == 2


def test_adjacency_sums_match_raw_edge_list():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 5, size=(40, 2))
    g = build_graph([("S", 5, 0), ("D", 5, 0)], [("r", "S", "D")], {"r": edges})
    out_deg = np.bincount(edges[:, 0], minlength=5)
    in_deg = np.bincount(edges[:, 1], minlength=5)
    assert np.array_equal(g.adjacency["r"].toarray().sum(axis=0), out_deg)
    assert np.array_equal(g.adjacency["r"].toarray().sum(axis=1), in_deg)


# ---------------------------------------------------------------------------
# bundle round-trip
# ---------------------------------------------------------------------------

def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = build_graph(
        [("A", 3, 2), ("B", 2, 0)],
        [("ab", "A", "B"), ("ba", "B", "A")],
        {"ab": np.array([[0, 1], [2, 0], [2, 0]]), "ba": np.array([[1, 2]])},
        features={"A": rng.standard_normal((3, 2))},
        labels={"A": np.array([0, 1, -1])})
    save_graph(g, tmp_path / "bundle")
    g2 = load_graph(tmp_path / "bundle")
    assert g.equals(g2)


def test_bundle_missing_feature_file_names_type(tmp_path):
    g = build_graph([("A", 2, 2)], [], {}, features={"A": np.zeros((2, 2))})
    save_graph(g, tmp_path / "b")
    header = json.loads((tmp_path / "b" / "graph.json").read_text())
    (tmp_path / "b" / header["features"]["A"]).unlink()
    with pytest.raises(GraphError, match="feature file for type 'A'"):
        load_graph(tmp_path / "b")


def test_bundle_zero_feature_type(tmp_path):
    g = build_graph([("A", 2, 0)], [], {})
    save_graph(g, tmp_path / "b")
    g2 = load_graph(tmp_path / "b")
    assert g2.node_type("A").feature_dim == 0
    assert "A" not in g2.features


def test_bundle_malformed_header(tmp_path):
    d = tmp_path / "b"
    d.mkdir()
    (d / "graph.json").write_text("{not json")
    with pytest.raises(GraphError, match="malformed graph.json"):
        load_graph(d)


def test_bundle_dangling_type_reference(tmp_path):
    g = build_graph([("A", 2, 2)], [], {}, features={"A": np.zeros((2, 2))})
    save_graph(g, tmp_path / "b")
    header = json.loads((tmp_path / "b" / "graph.json").read_text())
    header["features"]["GHOST"] = "GHOST.features.csv"
    (tmp_path / "b" / "graph.json").write_text(json.dumps(header))
    with pytest.raises(GraphError, match="unknown type 'GHOST'"):
        load_graph(tmp_path / "b")


def test_synthetic_graph_round_trips(tmp_path):
    g = generate_synthetic(_two_type_spec(9, 0.7, 0.1))
    save_graph(g, tmp_path / "b")
    assert load_graph(tmp_path / "b").equals(g)


# ---------------------------------------------------------------------------
# bundle reader contract: accepted rows, located errors, graph.json fields
# ---------------------------------------------------------------------------

def _raw_bundle(d, edges="0,1\n", features="0.5,1.5\n2.5,3.5\n", labels="0\n1\n"):
    """A two-node bundle written byte for byte from the given file texts."""
    d.mkdir()
    header = {"format": "hgnn-space-graph/1",
              "node_types": [{"name": "A", "count": 2, "feature_dim": 2}],
              "relations": [{"name": "aa", "src_type": "A", "dst_type": "A"}],
              "features": {"A": "A.features.csv"}, "labels": {"A": "A.labels.csv"}}
    (d / "graph.json").write_text(json.dumps(header))
    for name, text in (("aa.csv", edges), ("A.features.csv", features),
                       ("A.labels.csv", labels)):
        (d / name).write_bytes(text.encode())
    return d


def test_bundle_reader_accepts_two_and_three_column_rows(tmp_path):
    g = load_graph(_raw_bundle(tmp_path / "two", edges="0,1\n1,1\n0,1\n"))
    assert g.adjacency["aa"].toarray().tolist() == [[0, 0], [2, 1]]  # [dst, src]
    g = load_graph(_raw_bundle(tmp_path / "mixed", edges="0,1,4\n1,1\n1,0,2\n0,1\n"))
    assert g.adjacency["aa"].toarray().tolist() == [[0, 2], [5, 1]]


def test_bundle_reader_skips_blank_lines_and_accepts_crlf_and_padded_cells(tmp_path):
    g = load_graph(_raw_bundle(
        tmp_path / "b",
        edges="\r\n 0 , 1 , 3 \r\n \t \r\n1,0\r\n",
        features="  -0.0 ,\t1e-320\r\n\r\n\r\n2.5e300, -inf \r\n   \r\n",
        labels="\n 1 \r\n\x0c\r\n-1"))
    assert g.adjacency["aa"].toarray().tolist() == [[0, 1], [3, 0]]
    want = np.array([[-0.0, 1e-320], [2.5e300, -np.inf]])
    assert g.features["A"].tobytes() == want.tobytes()
    assert g.labels["A"].tolist() == [1, -1]


@pytest.mark.parametrize("file,text,line,message", [
    ("aa.csv", "0,1\n\n1,x\n", 3, "could not convert string 'x'"),
    ("aa.csv", "0,1\n1,0,1,1\n", 2, "row width 4, expected 2 or 3"),
    ("aa.csv", "0,1\n1,1,1\n1,0,1,1\n0,#1\n", 3, "row width 4, expected 2 or 3"),
    ("aa.csv", "0,1\n1,1,1\n0,#1\n1,0,1,1\n", 3, "could not convert string '#1'"),
    ("aa.csv", "1_0,1\n", 1, "could not convert string '1_0'"),
    ("aa.csv", "0.0,1\n", 1, "could not convert string '0.0'"),
    ("aa.csv", "0,99999999999999999999\n", 1, "could not convert"),
    ("A.features.csv", "0.5,1.5\r\n2.5,abc\r\n", 2, "could not convert string 'abc'"),
    ("A.features.csv", "0.5,1.5\n# note\n2.5,3.5\n", 2, "row width 1, expected 2"),
    ("A.features.csv", "0.5,1.5\n\n2.5\n", 3, "row width 1, expected 2"),
    ("A.features.csv", "0.5,1.5\n2.5,\n", 2, "could not convert string ''"),
    ("A.labels.csv", "0\n\n\ntwo\n", 4, "could not convert string 'two'"),
    ("A.labels.csv", "0\n1,1\n", 2, "row width 2, expected 1"),
], ids=["edge-cell", "edge-width", "first-of-width-and-cell", "first-of-cell-and-width",
        "digit-groups", "float-id", "int64-overflow", "feature-cell", "feature-comment",
        "ragged-feature-row", "empty-feature-cell", "label-cell", "label-two-cells"])
def test_bundle_reader_names_the_file_and_line_of_a_bad_row(tmp_path, file, text, line,
                                                            message):
    d = _raw_bundle(tmp_path / "b", **{{"aa.csv": "edges", "A.features.csv": "features",
                                        "A.labels.csv": "labels"}[file]: text})
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value).startswith(f"{d / file}:{line}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("edit,message", [
    (lambda h: h.pop("node_types"), "has no key 'node_types'"),
    (lambda h: h.pop("relations"), "has no key 'relations'"),
    (lambda h: h.pop("format"), "has no key 'format'"),
    (lambda h: h["node_types"][0].update(count="2"),
     "node_types[0]: key 'count' must be an integer, got '2'"),
    (lambda h: h["node_types"][0].update(count=2.0), "key 'count' must be an integer"),
    (lambda h: h["node_types"][0].update(feature_dim=True),
     "key 'feature_dim' must be an integer"),
    (lambda h: h["node_types"][0].pop("feature_dim"),
     "node_types[0] has no key 'feature_dim'"),
    (lambda h: h["relations"].__setitem__(0, ["aa", "A", "A"]),
     "relations[0] must be an object"),
    (lambda h: h["relations"][0].update(src_type=None), "key 'src_type' must be a string"),
    (lambda h: h["features"].update(A=["A.features.csv"]),
     "features: key 'A' must be a string"),
    (lambda h: h.update(labels="A.labels.csv"), "key 'labels' must be an object"),
    (lambda h: h.update(node_types={"A": 2}), "key 'node_types' must be a list"),
], ids=["no-node-types", "no-relations", "no-format", "string-count", "float-count",
        "bool-feature-dim", "no-feature-dim", "relation-not-object", "null-src-type",
        "feature-file-not-string", "labels-not-object", "node-types-not-list"])
def test_bundle_graph_json_fields_are_checked_by_name(tmp_path, edit, message):
    d = _raw_bundle(tmp_path / "b")
    header = json.loads((d / "graph.json").read_text())
    edit(header)
    (d / "graph.json").write_text(json.dumps(header))
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value).startswith(f"graph.json in '{d}'")
    assert message in str(info.value)


def test_bundle_graph_json_that_is_not_an_object(tmp_path):
    d = _raw_bundle(tmp_path / "b")
    (d / "graph.json").write_text("[1, 2]")
    with pytest.raises(GraphError, match=r"graph.json in '.*' must be an object"):
        load_graph(d)


def _reference_read_table(fname, dtype, widths):
    """The former reader: group the non-blank rows by their comma count and
    parse each group with one numpy call."""
    lines = hgraph.read_text(fname, lines=True)
    rows = [line for line in lines if line.strip()]
    cells = np.array([row.count(",") + 1 for row in rows], dtype=np.int64)
    width = max(widths)
    out = None
    problems = []
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
            values = hgraph._loadtxt(group, dtype)
        except ValueError as e:
            bad, e = hgraph._first_bad_row(group, dtype, e)
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


def _assert_read_as_before(path, text, dtype, widths):
    """The reader gives the former reader's array, or its error text."""
    path.write_bytes(text.encode())
    results = []
    for read in (hgraph._read_table, _reference_read_table):
        try:
            results.append(read(str(path), dtype, widths))
        except GraphError as e:
            results.append(str(e))
    got, want = results
    if isinstance(want, str):
        assert got == want, repr(text)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape, repr(text)
        assert got.tobytes() == want.tobytes(), repr(text)


_EDGE, _FEATURE, _LABEL = (np.int64, (2, 3)), (np.float64, (2,)), (np.int64, (1,))


@pytest.mark.parametrize("text,kind", [
    ("0,1,2\n1,0,1\n", _EDGE),
    ("0,1\n1,0\n1,1\n", _EDGE),
    ("0,1,4\n1,1\n1,0,2\n0,1\n", _EDGE),
    ("0,1\n1,1\n1,0,2\n", _EDGE),
    ("0.5,1.5\n2.5,3.5\n", _FEATURE),
    ("3\n-1\n0\n", _LABEL),
    ("\n0,1\n\n\n1,0\n\n", _EDGE),
    ("0,1\n \n1,0\n", _EDGE),
    ("0,1\n\x0c\n1,0\n", _EDGE),
    ("0.5,1.5\n\xa0\n2.5,3.5\n", _FEATURE),
    ("1\n\t \x0b\n2\n", _LABEL),
    ("\r\n 0 , 1 , 3 \r\n \t \r\n1,0\r\n", _EDGE),
    ("  -0.0 ,\t1e-320\r\n\r\n\r\n2.5e300, -inf \r\n   \r\n", _FEATURE),
    ("\n 1 \r\n\x0c\r\n-1", _LABEL),
    ("0,1\r1,0\r", _EDGE),
    ("0,1", _EDGE),
    ("0,1,7", _EDGE),
    ("0.25,-3\n", _FEATURE),
    ("5", _LABEL),
    ("", _EDGE), ("", _FEATURE), ("", _LABEL),
    ("\n\n", _EDGE), ("\r\n", _FEATURE), (" \n\x0c\n\xa0\n", _LABEL),
    ("  \t\n", _FEATURE),
    ("0,1\n1,0,1,1\n", _EDGE),
    ("0\n", _EDGE),
    ("0.5\n1.5\n", _FEATURE),
    ("0.5,1.5,2.5\n", _FEATURE),
    ("0\n1,1\n", _LABEL),
    ("0,1\n\n1,x\n", _EDGE),
    ("0,1\n1,1,1\n0,#1\n1,0,1,1\n", _EDGE),
    ("1_0,1\n", _EDGE),
    ("0.0,1\n", _EDGE),
    ("0,99999999999999999999\n", _EDGE),
    ("0.5,1.5\r\n2.5,abc\r\n", _FEATURE),
    ("0.5,1.5\n2.5,\n", _FEATURE),
    ("0.5,1.5\n# note\n2.5,3.5\n", _FEATURE),
    ("0\n\n\ntwo\n", _LABEL),
    (",\n", _LABEL),
], ids=["edge-3", "edge-2", "edge-mixed", "edge-mixed-2-first", "feature", "label",
        "empty-lines", "space-line", "formfeed-line", "nbsp-line", "tab-vt-line",
        "crlf-padded-edge", "crlf-padded-feature", "crlf-padded-label", "cr-only",
        "one-row-2", "one-row-3", "one-row-feature", "one-row-label",
        "empty-edge", "empty-feature", "empty-label", "blank-edge", "blank-feature",
        "blank-label", "whitespace-feature", "edge-width-4", "edge-width-1",
        "feature-width-1", "feature-width-3", "label-width-2", "edge-cell",
        "mixed-cell-and-width", "digit-groups", "float-id", "int64-overflow",
        "feature-cell", "empty-feature-cell", "feature-comment", "label-cell",
        "label-empty-cells"])
def test_the_reader_matches_the_former_grouping_reader(tmp_path, text, kind):
    _assert_read_as_before(tmp_path / "t.csv", text, *kind)


def test_the_reader_skips_every_whitespace_only_line_as_before(tmp_path):
    spaces = [chr(c) for c in range(0x3000 + 1) if chr(c).isspace()
              and chr(c) not in "\n\r"]
    for ch in spaces:
        for text, kind in ((f"0,1\n{ch}\n1,0\n", _EDGE), (f"{ch}\n", _EDGE),
                           (f"0.5,1.5\n{ch}{ch}\n", _FEATURE), (f"1\n{ch}\n", _LABEL)):
            _assert_read_as_before(tmp_path / "t.csv", text, *kind)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="01-9,. \t\r\x0c\xa0x", max_size=9), max_size=6),
       st.sampled_from([_EDGE, _FEATURE, _LABEL]))
def test_the_reader_matches_the_former_reader_on_random_text(lines, kind):
    with tempfile.TemporaryDirectory() as d:
        _assert_read_as_before(Path(d) / "t.csv", "\n".join(lines), *kind)


@pytest.mark.parametrize("name,text,kind", [
    ("aa.csv", "0,1\n1,0\n1,1\n", _EDGE),
    ("aa.csv", "0,1,2\n1,0,1\n", _EDGE),
    ("A.features.csv", "0.5,1.5\n\n2.5,3.5\n", _FEATURE),
    ("A.labels.csv", "0\n1\n", _LABEL),
], ids=["edge-2", "edge-3", "feature", "label"])
def test_a_uniform_file_reaches_numpy_once(tmp_path, monkeypatch, name, text, kind):
    calls, loadtxt = [], hgraph._loadtxt

    def counting(rows, dtype):
        calls.append(len(rows))
        return loadtxt(rows, dtype)

    monkeypatch.setattr(hgraph, "_loadtxt", counting)
    (tmp_path / name).write_text(text)
    hgraph._read_table(str(tmp_path / name), *kind)
    assert len(calls) == 1


def test_a_blank_only_file_never_reaches_numpy(tmp_path, monkeypatch):
    def unexpected(rows, dtype):
        raise AssertionError(f"numpy was asked to parse {rows!r}")

    monkeypatch.setattr(hgraph, "_loadtxt", unexpected)
    for text in ("", "\n", "\r\n\n", " \n\x0c\n"):
        (tmp_path / "t.csv").write_text(text)
        assert hgraph._read_table(str(tmp_path / "t.csv"), np.int64, (2, 3)).shape == (0, 3)


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                1.7976931348623157e308, -1e300, np.inf, -np.inf,
                                np.nan, -np.nan, 0.1, 1 / 3,
                                # NaNs with a payload, quiet and signalling
                                *np.array([0x7FF8000000000001, 0xFFF0000000000002],
                                          dtype=np.uint64).view(np.float64).tolist()])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4),
       st.lists(st.one_of(_SPECIAL_FLOATS, st.floats(width=64)), min_size=20, max_size=20))
def test_bundle_feature_round_trip_is_bitwise(rows, cols, pool):
    x = np.array([pool[(i * cols + j) % len(pool)] for i in range(rows)
                  for j in range(cols)], dtype=np.float64).reshape(rows, cols)
    g = build_graph([("A", rows, cols)], [], {}, features={"A": x})
    with tempfile.TemporaryDirectory() as d:
        back = load_graph(save_graph(g, Path(d) / "b")).features["A"]
    assert back.dtype == np.float64 and back.tobytes() == x.tobytes()


def test_a_csv_feature_bundle_and_its_npy_bundle_load_the_same_bytes(tmp_path):
    text = "  -0.0 ,\t1e-320\r\n\n2.5e300, -inf \n"
    old = load_graph(_raw_bundle(tmp_path / "csv", features=text))
    new_dir = save_graph(old, tmp_path / "npy")
    assert json.loads((tmp_path / "npy" / "graph.json").read_text())["features"] == {
        "A": "A.features.npy"}
    assert not (tmp_path / "npy" / "A.features.csv").exists()
    new = load_graph(new_dir)
    assert new.equals(old)
    assert new.features["A"].tobytes() == old.features["A"].tobytes()
    assert new.features["A"].tobytes() == np.array([[-0.0, 1e-320],
                                                    [2.5e300, -np.inf]]).tobytes()


def _npy_bundle(d, data):
    """The two-node bundle of `_raw_bundle`, its features in A.features.npy
    holding `data` byte for byte."""
    _raw_bundle(d)
    header = json.loads((d / "graph.json").read_text())
    header["features"]["A"] = "A.features.npy"
    (d / "graph.json").write_text(json.dumps(header))
    (d / "A.features.npy").write_bytes(data)
    return d


def _npy_bytes(array=None, header=None, allow_pickle=False):
    """A .npy file of `array`, or of the header dict `header` and no data."""
    buf = io.BytesIO()
    if header is None:
        np.save(buf, array, allow_pickle=allow_pickle)
    else:
        np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue()


_GOOD = np.array([[0.5, 1.5], [2.5, 3.5]])
_GOOD_NPY = _npy_bytes(_GOOD)
_GOOD_HEADER = {"descr": "<f8", "fortran_order": False, "shape": (2, 2)}


def _header_text(text):
    """A version 1.0 .npy header holding `text`, padded like numpy pads."""
    body = text.encode("latin1") + b"\n"
    return b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little") + body


@pytest.mark.parametrize("data,message", [
    (b"", "bad .npy header: EOF: reading magic string"),
    (_GOOD_NPY[:40], "bad .npy header: EOF: reading array header"),
    (_GOOD_NPY[:-1], "data ends after 31 of 32 bytes"),
    (_npy_bytes(np.zeros((3, 2))),
     "shape (3, 2) in the header, expected (count, feature_dim) = (2, 2)"),
    (_npy_bytes(np.zeros(4)),
     "shape (4,) in the header, expected (count, feature_dim) = (2, 2)"),
    (_npy_bytes(header=dict(_GOOD_HEADER, shape=(10**12, 2))) + _GOOD_NPY[-32:],
     "shape (1000000000000, 2) in the header, expected"),
    (_npy_bytes(_GOOD.astype(np.float32)), "dtype float32 in the header, expected float64"),
    (_npy_bytes(_GOOD.astype(np.int64)), "dtype int64 in the header, expected float64"),
    (_npy_bytes(np.array([[{"x": 1}, None], [[2], "y"]], dtype=object), allow_pickle=True),
     "dtype object in the header, expected float64"),
    (b"PK\x03\x04" + _GOOD_NPY[4:], "the magic string is not correct"),
    (_GOOD_NPY[:6] + b"\x03\x00" + _GOOD_NPY[8:], "unsupported .npy format version 3.0"),
    (_header_text("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), "),
     "bad .npy header: "),
    (_header_text("{(1, [2]): 3}"), "bad .npy header: "),
    (_header_text("{'descr': '<f8', 'shape': (2, 2)}"), "bad .npy header: "),
    (_header_text("-" * 9000 + "1"), "bad .npy header: MemoryError"),
    (_header_text("{" + " " * 12000 + "}"),
     "bad .npy header: Header info length (12003) is large and may not be safe"),
], ids=["empty", "truncated-header", "truncated-data", "other-rows", "one-dimensional",
        "huge-rows", "float32", "int64", "pickled-objects", "zip-magic", "version-3",
        "unclosed-brace", "unhashable-key", "missing-key", "parser-stack",
        "oversized-header"])
def test_a_damaged_npy_feature_file_is_one_error_naming_it(tmp_path, data, message):
    d = _npy_bundle(tmp_path / "b", data)
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value).startswith(f"{d / 'A.features.npy'}: ")
    assert message in str(info.value) and "\n" not in str(info.value)


def test_a_huge_npy_header_is_refused_before_any_allocation(tmp_path, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was allocated for a refused file")

    header = dict(_GOOD_HEADER, shape=(10**12, 2))
    d = _npy_bundle(tmp_path / "b", _npy_bytes(header=header) + _GOOD_NPY[-32:])
    monkeypatch.setattr(hgraph.np, "empty", no_allocation)
    with pytest.raises(GraphError, match=r"shape \(1000000000000, 2\) in the header"):
        hgraph._read_npy(str(d / "A.features.npy"), np.float64, (2, 2), "(2, 2)")
    # graph.json claiming as many rows only moves the refusal to the file size
    with pytest.raises(GraphError, match="data ends after 32 of 16000000000000 bytes"):
        hgraph._read_npy(str(d / "A.features.npy"), np.float64, (10**12, 2), "(10**12, 2)")


@pytest.mark.parametrize("array", [np.asfortranarray(_GOOD), _GOOD.astype(">f8")],
                         ids=["fortran-order", "big-endian"])
def test_an_npy_feature_file_in_any_float64_layout_loads(tmp_path, array):
    g = load_graph(_npy_bundle(tmp_path / "b", _npy_bytes(array)))
    assert g.features["A"].dtype == np.float64
    assert g.features["A"].tobytes() == _GOOD.tobytes()


def test_an_npy_header_written_by_python_2_loads_without_a_warning(tmp_path):
    # numpy re-parses an `L`-suffixed shape and warns; the warning must not escape
    header = _header_text("{'descr': '<f8', 'fortran_order': False, 'shape': (2L, 2L), }")
    g = load_graph(_npy_bundle(tmp_path / "b", header + _GOOD.tobytes()))
    assert g.features["A"].tobytes() == _GOOD.tobytes()


def _saved_bundle(d, **files):
    """`_raw_bundle` saved by `save_graph`, then each named file replaced by
    the given bytes."""
    save_graph(load_graph(_raw_bundle(d.with_name(d.name + "-csv"))), d)
    for name, data in files.items():
        (d / name).write_bytes(data)
    return d


_EDGES = np.array([[0, 1, 1]])  # the one edge of `_raw_bundle`: src, dst, count
_LABELS = np.array([0, 1])


@pytest.mark.parametrize("name,data,message", [
    ("aa.edges.npy", b"", "bad .npy header: EOF: reading magic string"),
    ("aa.edges.npy", _npy_bytes(_EDGES.astype(np.float64)),
     "dtype float64 in the header, expected int64"),
    ("aa.edges.npy", _npy_bytes(_EDGES.astype(np.int32)),
     "dtype int32 in the header, expected int64"),
    ("aa.edges.npy", _npy_bytes(_EDGES[0]), "shape (3,) in the header, expected (rows, 2 or 3)"),
    ("aa.edges.npy", _npy_bytes(np.array([[0, 1, 1, 1]])),
     "shape (1, 4) in the header, expected (rows, 2 or 3)"),
    ("aa.edges.npy", _npy_bytes(_EDGES)[:-1], "data ends after 23 of 24 bytes"),
    ("aa.edges.npy", _npy_bytes(np.array([[0, 1, None]], dtype=object), allow_pickle=True),
     "dtype object in the header, expected int64"),
    ("aa.edges.npy", _npy_bytes(header={"descr": "<i8", "fortran_order": False,
                                        "shape": (-1, 3)}),
     "shape (-1, 3) in the header, expected (rows, 2 or 3)"),
    ("A.labels.npy", _npy_bytes(np.array([0, 1, 1])),
     "shape (3,) in the header, expected (count,) = (2,) from graph.json"),
    ("A.labels.npy", _npy_bytes(_LABELS[:, None]),
     "shape (2, 1) in the header, expected (count,) = (2,)"),
    ("A.labels.npy", _npy_bytes(_LABELS.astype(np.float64)),
     "dtype float64 in the header, expected int64"),
    ("A.labels.npy", _npy_bytes(_LABELS.astype(np.int32)),
     "dtype int32 in the header, expected int64"),
    ("A.labels.npy", _npy_bytes(_LABELS)[:-8], "data ends after 8 of 16 bytes"),
    ("A.labels.npy", _npy_bytes(np.array([0, None], dtype=object), allow_pickle=True),
     "dtype object in the header, expected int64"),
], ids=["edge-empty", "edge-float64", "edge-int32", "edge-one-dimensional", "edge-4-wide",
        "edge-truncated-data", "edge-pickled-objects", "edge-negative-rows",
        "label-other-length", "label-two-dimensional", "label-float64", "label-int32",
        "label-truncated-data", "label-pickled-objects"])
def test_a_damaged_npy_edge_or_label_file_is_one_error_naming_it(tmp_path, name, data,
                                                                  message):
    d = _saved_bundle(tmp_path / "b", **{name: data})
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value).startswith(f"{d / name}: ")
    assert message in str(info.value) and "\n" not in str(info.value)


def test_a_huge_npy_edge_header_is_refused_before_any_allocation(tmp_path, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was allocated for a refused file")

    header = {"descr": "<i8", "fortran_order": False, "shape": (10**12, 3)}
    d = _saved_bundle(tmp_path / "b",
                      **{"aa.edges.npy": _npy_bytes(header=header) + _EDGES.tobytes()})
    monkeypatch.setattr(hgraph.np, "empty", no_allocation)
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value) == (f"{d / 'aa.edges.npy'}: data ends after 24 of "
                               f"24000000000000 bytes")


@pytest.mark.parametrize("name,array", [
    ("aa.edges.npy", np.asfortranarray([[0, 1, 2], [1, 1, 1], [1, 0, 3]])),
    ("aa.edges.npy", np.array([[0, 1, 2], [1, 1, 1], [1, 0, 3]], dtype=">i8")),
    ("aa.edges.npy", np.asfortranarray([[0, 1], [1, 1], [0, 1], [1, 0], [1, 0], [1, 0]],
                                       dtype=">i8")),
    ("A.labels.npy", np.array([1, -1], dtype=">i8")),
], ids=["edges-fortran-order", "edges-big-endian", "edges-2-wide-both", "labels-big-endian"])
def test_an_npy_edge_or_label_file_in_any_int64_layout_loads(tmp_path, name, array):
    g = load_graph(_saved_bundle(tmp_path / "b", **{name: _npy_bytes(array)}))
    if name == "aa.edges.npy":
        assert g.adjacency["aa"].toarray().tolist() == [[0, 3], [2, 1]]  # [dst, src]
    else:
        assert g.labels["A"].dtype == np.int64 and g.labels["A"].tolist() == [1, -1]


def test_a_csv_bundle_and_its_npy_conversion_are_equal(tmp_path):
    old = load_graph(_raw_bundle(tmp_path / "csv", edges="0,1,4\n1,1\n1,0,2\n0,1\n",
                                 labels="\n 1 \r\n-1\n"))
    new_dir = tmp_path / "npy"
    save_graph(old, new_dir)
    header = json.loads((new_dir / "graph.json").read_text())
    assert (header["edges"], header["features"], header["labels"]) == (
        {"aa": "aa.edges.npy"}, {"A": "A.features.npy"}, {"A": "A.labels.npy"})
    assert sorted(os.listdir(new_dir)) == ["A.features.npy", "A.labels.npy",
                                           "aa.edges.npy", "graph.json"]
    new = load_graph(new_dir)
    assert new.equals(old) and not new.equals(load_graph(_raw_bundle(tmp_path / "other")))
    assert np.load(new_dir / "aa.edges.npy").tolist() == [[1, 0, 2], [0, 1, 5], [1, 1, 1]]


@pytest.mark.parametrize("edges,message", [
    ({"aa": "aa.csv", "zz": "aa.csv"}, "edges entry references unknown relation 'zz'"),
    ({}, "graph.json in '{d}', edges has no file for relation 'aa'"),
    ({"aa": 3}, "graph.json in '{d}', edges: key 'aa' must be a string, got 3"),
    ({"aa": "nosuch.npy"}, "bundle missing edge file for relation 'aa'"),
], ids=["unknown-relation", "omitted-relation", "not-a-string", "missing-file"])
def test_an_edges_map_must_name_one_file_per_relation(tmp_path, edges, message):
    d = _raw_bundle(tmp_path / "b")
    header = json.loads((d / "graph.json").read_text())
    (d / "graph.json").write_text(json.dumps(dict(header, edges=edges)))
    with pytest.raises(GraphError) as info:
        load_graph(d)
    assert str(info.value) == message.format(d=d)


@functools.lru_cache(maxsize=None)
def _fuzz_base():
    """File name -> bytes of a small valid bundle and its one-trial plan."""
    spec = SyntheticSpec(node_types=(("P", 16, 3), ("A", 8, 2)),
                         relations=(("ap", "A", "P", 24), ("pa", "P", "A", 24)),
                         target_type="P", num_communities=2, boost=0.9, seed=3)
    with tempfile.TemporaryDirectory() as d:
        save_graph(generate_synthetic(spec), d)
        return {name: (Path(d) / name).read_bytes() for name in sorted(os.listdir(d))}


def _key_paths(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _key_paths(v, path + (i,))


def _mutate(files, kind, a, b, c):
    names = sorted(files)
    if kind == "drop":  # a graph.json key at any depth
        try:
            header = json.loads(files["graph.json"])
        except ValueError:
            return
        paths = list(_key_paths(header))
        *parents, key = paths[a % len(paths)]
        obj = header
        for p in parents:
            obj = obj[p]
        del obj[key]
        files["graph.json"] = json.dumps(header).encode()
        return
    name = names[a % len(names)]
    data = bytearray(files[name])
    if kind == "truncate":
        del data[b % (len(data) + 1):]
    elif data:  # flip the bits of `c` in one byte
        data[b % len(data)] ^= c
    files[name] = bytes(data)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["truncate", "flip", "drop"]),
                          st.integers(0, 1 << 20), st.integers(0, 1 << 20),
                          st.integers(1, 255)), min_size=1, max_size=3))
def test_a_damaged_bundle_runs_or_fails_in_one_line(mutations):
    files = dict(_fuzz_base())
    assert {"ap.edges.npy", "pa.edges.npy", "P.labels.npy"} <= set(files)  # all mutable
    for mutation in mutations:
        _mutate(files, *mutation)
    with tempfile.TemporaryDirectory() as d:
        bundle = Path(d) / "bundle"
        bundle.mkdir()
        for name, data in files.items():
            (bundle / name).write_bytes(data)
        save_config_list([DesignConfig(hidden_dim=8, mp_layers=1)], Path(d) / "c.json")
        plan = Path(d) / "plan.cfg"
        plan.write_text(f"graph = {bundle}\ntask = node_classification\ntarget = P\n"
                        f"space = {Path(d) / 'c.json'}\nsplits = 1\n"
                        f"epoch_override = 1\nout = {Path(d) / 'r.ndrec'}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--plan", str(plan)])
    err = err.getvalue()
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("hgnn-space: error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def _two_type_spec(seed, boost, noise, count=60, edges=240):
    return SyntheticSpec(
        node_types=(("P", count, 8), ("A", count // 2, 8)),
        relations=(("ap", "A", "P", edges), ("pa", "P", "A", edges)),
        target_type="P", num_communities=4, boost=boost, noise=noise, seed=seed)


def test_synthetic_deterministic():
    g1 = generate_synthetic(_two_type_spec(3, 0.8, 0.1))
    g2 = generate_synthetic(_two_type_spec(3, 0.8, 0.1))
    assert g1.equals(g2)
    g3 = generate_synthetic(_two_type_spec(4, 0.8, 0.1))
    assert not g1.equals(g3)


def test_graph_equality_operator_is_identity():
    """`==` on two equal graphs built separately neither raises nor warns:
    it is identity, and `equals` compares the contents."""
    spec = _two_type_spec(3, 0.8, 0.1)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert a == a and not (a == b) and a != b
    assert a.equals(b)
    assert len({a, b}) == 2


def test_synthetic_full_boost_is_fully_assortative():
    g = generate_synthetic(_two_type_spec(0, boost=1.0, noise=0.0))
    sub = compose_metapath(g, MetaPath("PAP", ("pa", "ap")))
    assert homophily(sub, g.labels["P"]) == 1.0


def test_synthetic_zero_boost_gives_chance_homophily():
    # Monte-Carlo oracle: with uniform edges the same-label neighbor
    # fraction concentrates near 1/num_communities
    betas = []
    for seed in range(20):
        g = generate_synthetic(_two_type_spec(seed, boost=0.0, noise=0.0))
        sub = compose_metapath(g, MetaPath("PAP", ("pa", "ap")))
        betas.append(homophily(sub, g.labels["P"]))
    assert abs(np.mean(betas) - 0.25) < 0.05


def test_synthetic_spec_validation():
    with pytest.raises(GraphError, match="boost"):
        generate_synthetic(_two_type_spec(0, boost=1.5, noise=0.0))
    bad = SyntheticSpec(node_types=(("P", 2, 4),), relations=(),
                        target_type="P", num_communities=4)
    with pytest.raises(GraphError, match="at least one node per community"):
        generate_synthetic(bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_synthetic_purity_property(seed):
    spec = _two_type_spec(seed, 0.5, 0.2, count=16, edges=30)
    assert generate_synthetic(spec).equals(generate_synthetic(spec))
