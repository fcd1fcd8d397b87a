import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnn_space.hgraph import (GraphError, SyntheticSpec, build_graph,
                               generate_synthetic, load_graph, save_graph)
from hgnn_space.sparse import CSRMatrix
from hgnn_space.transform import MetaPath, compose_metapath, homophily


# ---------------------------------------------------------------------------
# CSR basics
# ---------------------------------------------------------------------------

def test_csr_accumulates_duplicates():
    m = CSRMatrix.from_edges([0, 0, 1], [2, 2, 0], 2, 3)
    assert m.to_dense().tolist() == [[0, 0, 2], [1, 0, 0]]


def from_edges_sorted_merge(rows, cols, n_rows, n_cols, data=None):
    """The former hand-rolled construction: lexsort the cells, merge
    duplicates with `reduceat`, count rows with `add.at`."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.ones(rows.shape[0], dtype=np.int64) if data is None else np.asarray(data)
    if rows.size == 0:
        return CSRMatrix(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
                         np.empty(0, dtype=np.int64), np.empty(0, dtype=data.dtype))
    order = np.lexsort((cols, rows))
    r, c, d = rows[order], cols[order], data[order]
    new_cell = np.empty(r.shape[0], dtype=bool)
    new_cell[0] = True
    new_cell[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_cell)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, r[starts] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(n_rows, n_cols, indptr, c[starts], np.add.reduceat(d, starts))


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
        got = CSRMatrix.from_edges(rows, cols, n_rows, n_cols, data=data)
        want = from_edges_sorted_merge(rows, cols, n_rows, n_cols, data=data)
        assert got.data.dtype == want.data.dtype, case
        if case % 4 < 3:
            assert got.equals(want), case
        else:  # float duplicates may be added in another order
            assert np.array_equal(got.indptr, want.indptr), case
            assert np.array_equal(got.indices, want.indices), case
            assert np.allclose(got.data, want.data, rtol=1e-12, atol=1e-12), case
        assert got.indptr.dtype == got.indices.dtype == np.int64


def test_csr_from_edges_rejects_out_of_range_cells():
    with pytest.raises(ValueError, match="row index"):
        CSRMatrix.from_edges([0, 2], [0, 0], 2, 1)
    with pytest.raises(ValueError, match="column index"):
        CSRMatrix.from_edges([0, 1], [0, -1], 2, 1)
    with pytest.raises(ValueError, match="equal length"):
        CSRMatrix.from_edges([0, 1], [0], 2, 1)


def test_csr_matmul_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = (rng.random((rng.integers(1, 8), rng.integers(1, 8))) < 0.4).astype(np.int64)
        b = (rng.random((a.shape[1], rng.integers(1, 8))) < 0.4).astype(np.int64)
        ca = CSRMatrix.from_edges(*np.nonzero(a), *a.shape)
        cb = CSRMatrix.from_edges(*np.nonzero(b), *b.shape)
        assert np.array_equal((ca @ cb).to_dense(), a @ b)


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
        ca = CSRMatrix.from_edges(*np.nonzero(a), n, k, data=a[np.nonzero(a)])
        cb = CSRMatrix.from_edges(*np.nonzero(b), k, m, data=b[np.nonzero(b)])
        got = ca @ cb
        want = a @ b
        assert got.data.dtype == np.int64 and got.indices.dtype == np.int64
        assert np.array_equal(got.to_dense(), want)
        assert np.array_equal(np.diff(got.indptr), (want != 0).sum(axis=1))
        rows = got.expanded_rows()
        assert np.all((rows[1:] > rows[:-1]) | (got.indices[1:] > got.indices[:-1]))


def test_csr_matmul_overflow_bound_is_exact_at_int_safe():
    # bound = max|a| * max|b| * inner dimension, refused only above _INT_SAFE
    b = CSRMatrix.from_edges([0, 1], [0, 0], 2, 1, data=np.array([1 << 31, 1]))
    at_bound = CSRMatrix.from_edges([0, 0], [0, 1], 1, 2, data=np.array([1 << 30, 1]))
    assert (at_bound @ b).data.tolist() == [(1 << 61) + 1]
    above = CSRMatrix.from_edges([0, 0], [0, 1], 1, 2,
                                 data=np.array([(1 << 30) + 1, 1]))
    with pytest.raises(OverflowError):
        _ = above @ b


def test_csr_transpose_matches_dense():
    rng = np.random.default_rng(3)
    a = (rng.random((6, 4)) < 0.5).astype(np.int64) * rng.integers(1, 4, (6, 4))
    ca = CSRMatrix.from_edges(*np.nonzero(a), 6, 4, data=a[np.nonzero(a)])
    assert np.array_equal(ca.transpose().to_dense(), a.T)


def test_csr_matmul_overflow_guard():
    big = CSRMatrix.from_edges([0], [0], 1, 1, data=np.array([1 << 40]))
    with pytest.raises(OverflowError):
        _ = big @ big


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
    assert g.adjacency["r"].to_dense().tolist() == [[0, 0], [0, 0], [0, 0]]


def test_duplicate_edge_accumulates_multiplicity():
    g = build_graph([("A", 2, 0), ("P", 2, 0)], [("w", "A", "P")],
                    {"w": np.array([[1, 0], [1, 0]])})
    # cell (dst=p0, src=a1) carries count 2
    assert g.adjacency["w"].to_dense()[0, 1] == 2


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


def test_adjacency_sums_match_raw_edge_list():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 5, size=(40, 2))
    g = build_graph([("S", 5, 0), ("D", 5, 0)], [("r", "S", "D")], {"r": edges})
    out_deg = np.bincount(edges[:, 0], minlength=5)
    in_deg = np.bincount(edges[:, 1], minlength=5)
    assert np.array_equal(g.adjacency["r"].to_dense().sum(axis=0), out_deg)
    assert np.array_equal(g.adjacency["r"].to_dense().sum(axis=1), in_deg)


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
    (tmp_path / "b" / "A.features.csv").unlink()
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
