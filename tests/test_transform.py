import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnn_space.hgraph import (GraphError, SyntheticSpec, build_graph,
                               generate_synthetic)
from hgnn_space.transform import (MetaPath, Subgraph, compose_metapath,
                                  extract_relation_subgraphs, homogenize,
                                  homophily, type_offsets)
from hgnn_space.sparse import CSRMatrix, from_edges, matmul

from conftest import random_hetero_graph, same_csr


def brute_force_path_counts(g, relation_names):
    """Independent oracle: enumerate every path along the relation chain.

    Returns a dense (n_dst_final, n_src_first) count matrix matching the
    package's rows-are-destinations orientation.
    """
    rels = [g.relation(n) for n in relation_names]
    n_src = g.node_type(rels[0].src_type).count
    n_dst = g.node_type(rels[-1].dst_type).count
    counts = np.zeros((n_dst, n_src), dtype=np.int64)
    adj_dense = {n: g.adjacency[n].toarray() for n in relation_names}

    def walk(step, node, start):
        if step == len(rels):
            counts[node, start] += 1
            return
        dense = adj_dense[relation_names[step]]  # rows = dst, cols = src
        for nxt in range(dense.shape[0]):
            for _ in range(dense[nxt, node]):
                walk(step + 1, nxt, start)

    for start in range(n_src):
        walk(0, start, start)
    return counts


# ---------------------------------------------------------------------------
# relation extraction
# ---------------------------------------------------------------------------

def test_extract_all_relations(academic_graph):
    subs = extract_relation_subgraphs(academic_graph, academic_graph.relation_names)
    assert len(subs) == 4
    assert [s.name for s in subs] == list(academic_graph.relation_names)
    assert all(s.edge_type is None for s in subs)
    assert subs[0].src_type == "A" and subs[0].dst_type == "P"


def test_extract_empty_and_identity(academic_graph):
    assert extract_relation_subgraphs(academic_graph, []) == []
    sub = extract_relation_subgraphs(academic_graph, ["written"])[0]
    assert same_csr(sub.adjacency, academic_graph.adjacency["written"])
    with pytest.raises(GraphError, match="unknown relation"):
        extract_relation_subgraphs(academic_graph, ["nope"])


# ---------------------------------------------------------------------------
# meta-path composition
# ---------------------------------------------------------------------------

def test_length_one_metapath_equals_relation(academic_graph):
    sub = compose_metapath(academic_graph, MetaPath("W", ("written",)))
    rel = extract_relation_subgraphs(academic_graph, ["written"])[0]
    assert same_csr(sub.adjacency, rel.adjacency)
    assert (sub.src_type, sub.dst_type) == (rel.src_type, rel.dst_type)


def test_apa_hand_case():
    # A = {a1, a2}, P = {p1, p2, p3}; a1 -> {p1, p2}, a2 -> {p2}
    ap = np.array([[0, 0], [0, 1], [1, 1]])
    g = build_graph([("A", 2, 0), ("P", 3, 0)],
                    [("ap", "A", "P"), ("pa", "P", "A")],
                    {"ap": ap, "pa": ap[:, ::-1]})
    sub = compose_metapath(g, MetaPath("APA", ("ap", "pa")))
    assert sub.adjacency.toarray().tolist() == [[2, 1], [1, 1]]
    assert sub.src_type == "A" and sub.dst_type == "A"


def test_non_chaining_metapath_rejected(academic_graph):
    with pytest.raises(GraphError, match="'written' ends at 'P' but 'publishes'"):
        compose_metapath(academic_graph, MetaPath("bad", ("written", "publishes")))


def test_metapath_counts_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = random_hetero_graph(rng, max_types=3, max_nodes=8, max_relations=4)
        rel_by_src = {}
        for r in g.relations:
            rel_by_src.setdefault(r.src_type, []).append(r)
        # assemble a random chaining meta-path of length <= 3
        length = int(rng.integers(1, 4))
        start = g.relations[int(rng.integers(0, len(g.relations)))]
        chain = [start]
        while len(chain) < length:
            options = rel_by_src.get(chain[-1].dst_type, [])
            if not options:
                break
            chain.append(options[int(rng.integers(0, len(options)))])
        names = tuple(r.name for r in chain)
        sub = compose_metapath(g, MetaPath("mp", names))
        assert np.array_equal(sub.adjacency.toarray(),
                              brute_force_path_counts(g, names))


def test_metapath_composition_is_associative():
    rng = np.random.default_rng(9)
    ap = np.stack(np.nonzero(rng.random((4, 5)) < 0.5), axis=1)
    pa = np.stack(np.nonzero(rng.random((5, 4)) < 0.5), axis=1)
    g = build_graph([("A", 4, 0), ("P", 5, 0)],
                    [("ap", "A", "P"), ("pa", "P", "A")],
                    {"ap": ap, "pa": pa})
    apap = compose_metapath(g, MetaPath("APAP", ("ap", "pa", "ap")))
    ap_sub = compose_metapath(g, MetaPath("AP", ("ap",)))
    apa = compose_metapath(g, MetaPath("APA", ("ap", "pa")))
    # (ap ∘ pa) then ap == full chain; rows are destinations so the later
    # segment multiplies from the left
    assert same_csr(matmul(ap_sub.adjacency, apa.adjacency), apap.adjacency)


def test_metapath_products_go_through_the_matmul_method(monkeypatch, academic_graph):
    # profilers count sparse products by wrapping CSRMatrix.matmul
    calls = []
    matmul = CSRMatrix.matmul

    def counting(self, other):
        calls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(CSRMatrix, "matmul", counting)
    names = ("written", "published", "publishes")
    sub = compose_metapath(academic_graph, MetaPath("APCP", names))
    assert calls == [((2, 3), (3, 2)), ((3, 2), (2, 2))]  # C<-P @ P<-A, P<-C @ C<-A
    assert np.array_equal(sub.adjacency.toarray(),
                          brute_force_path_counts(academic_graph, names))


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def test_homogenize_single_type_single_relation():
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    g = build_graph([("X", 3, 0)], [("r", "X", "X")], {"r": edges})
    sub = homogenize(g)
    assert type_offsets(g) == {"X": 0}
    assert (sub.name, sub.src_type, sub.dst_type) == ("*", "*", "*")
    assert same_csr(sub.adjacency, g.adjacency["r"])
    assert sub.edge_type.index.tolist() == [0, 0, 0]


def test_homogenize_counts(academic_graph):
    sub = homogenize(academic_graph)
    n = sum(t.count for t in academic_graph.node_types)
    assert sub.adjacency.shape == (n, n)
    assert type_offsets(academic_graph) == {"P": 0, "A": 3, "C": 5}
    nnz = [academic_graph.adjacency[r].nnz for r in academic_graph.relation_names]
    assert sub.adjacency.nnz == sum(nnz)
    assert np.bincount(sub.edge_type.index).tolist() == nnz
    # within a row, entries come in relation order, then in source order
    adj = sub.adjacency
    for v in range(n):
        lo, hi = adj.indptr[v], adj.indptr[v + 1]
        keys = list(zip(sub.edge_type.index[lo:hi].tolist(),
                        adj.indices[lo:hi].tolist()))
        assert keys == sorted(keys)


def test_homogenize_keeps_a_shared_cell_as_two_entries():
    # 0 -> 1 is an edge of both relations; 1 -> 2 only of r2, twice
    g = build_graph([("X", 3, 0)], [("r1", "X", "X"), ("r2", "X", "X")],
                    {"r1": np.array([[0, 1], [2, 1]]),
                     "r2": np.array([[1, 2], [0, 1], [1, 2]])})
    sub = homogenize(g)
    adj = sub.adjacency
    assert adj.indptr.tolist() == [0, 0, 3, 4]
    assert adj.indices.tolist() == [0, 2, 0, 1]
    assert adj.data.tolist() == [1, 1, 1, 2]
    assert sub.edge_type.index.tolist() == [0, 0, 1, 1]
    # densified, the shared cell sums both relations' entries
    assert adj.toarray().tolist() == [[0, 0, 0], [2, 0, 1], [0, 2, 0]]


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------

def _square_subgraph(dense):
    dense = np.asarray(dense)
    m = from_edges(*np.nonzero(dense), *dense.shape,
                   data=dense[np.nonzero(dense)])
    return Subgraph("r", "X", "X", m)


def brute_force_homophily(dense, labels):
    """Oracle straight from the definition: for each node v with neighbors
    {u : A[u, v] >= 1}, average the same-label fraction."""
    dense = np.asarray(dense)
    n = dense.shape[0]
    fractions = []
    for v in range(n):
        nbrs = [u for u in range(n) if dense[u, v] >= 1]
        if not nbrs:
            continue
        fractions.append(np.mean([labels[u] == labels[v] for u in nbrs]))
    return float(np.mean(fractions)) if fractions else 0.0


def test_homophily_uniform_labels_is_one():
    dense = np.array([[0, 1], [1, 0]])
    assert homophily(_square_subgraph(dense), np.zeros(2, dtype=int)) == 1.0


def test_homophily_hand_case():
    # labels (A, A, B); N(1) = {2, 3}, N(2) = {1}, N(3) = {1}
    dense = np.zeros((3, 3), dtype=int)
    dense[1, 0] = dense[2, 0] = 1   # neighbors of node 0 are rows u with A[u,0]=1
    dense[0, 1] = 1
    dense[0, 2] = 1
    beta = homophily(_square_subgraph(dense), np.array([0, 0, 1]))
    assert beta == pytest.approx((0.5 + 1.0 + 0.0) / 3.0)


def test_homophily_matches_brute_force_and_skips_isolated():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        dense = (rng.random((n, n)) < 0.3).astype(int) * rng.integers(1, 3, (n, n))
        labels = rng.integers(0, 3, n)
        got = homophily(_square_subgraph(dense), labels)
        assert got == pytest.approx(brute_force_homophily(dense, labels))
        assert 0.0 <= got <= 1.0


def test_homophily_type_mismatch_and_missing_labels():
    sub = Subgraph("r", "X", "Y", from_edges([0], [0], 1, 1))
    with pytest.raises(GraphError, match="matching endpoint types"):
        homophily(sub, np.array([0]))
    with pytest.raises(GraphError, match="labels cover"):
        homophily(_square_subgraph(np.eye(3, dtype=int)), np.array([0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2 ** 31))
def test_homophily_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.4).astype(int)
    labels = rng.integers(0, 3, n)
    perm = rng.permutation(n)
    permuted = np.zeros_like(dense)
    permuted[np.ix_(perm, perm)] = dense
    plabels = np.empty_like(labels)
    plabels[perm] = labels
    a = homophily(_square_subgraph(dense), labels)
    b = homophily(_square_subgraph(permuted), plabels)
    assert a == pytest.approx(b)


def homophily_loop(sub, labels):
    """Reference: the per-node loop over the transposed adjacency."""
    labels = np.asarray(labels)
    adj_t = sub.adjacency.T.tocsr()
    total = 0.0
    seen = 0
    for v in range(sub.adjacency.shape[0]):
        s, e = adj_t.indptr[v], adj_t.indptr[v + 1]
        if s == e:
            continue
        total += float(np.mean(labels[adj_t.indices[s:e]] == labels[v]))
        seen += 1
    return total / seen if seen else 0.0


@pytest.mark.parametrize("n", [1, 7, 60])
def test_homophily_equals_per_node_loop(n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.05, 0.3, 0.9):
        for _ in range(5):
            dense = (rng.random((n, n)) < density).astype(int) * rng.integers(1, 4, (n, n))
            dense[:, rng.random(n) < 0.2] = 0  # isolated nodes
            labels = rng.integers(-1, 5, n)
            sub = _square_subgraph(dense)
            assert homophily(sub, labels) == homophily_loop(sub, labels)
    empty = _square_subgraph(np.zeros((n, n), dtype=int))
    assert homophily(empty, np.zeros(n, dtype=int)) == 0.0 == homophily_loop(
        empty, np.zeros(n, dtype=int))


@pytest.mark.parametrize("seed", range(4))
def test_homophily_equals_per_node_loop_on_metapath_subgraphs(seed):
    g = generate_synthetic(SyntheticSpec(
        node_types=(("P", 300, 0), ("A", 150, 0)),
        relations=(("ap", "A", "P", 600), ("pa", "P", "A", 600)),
        target_type="P", num_communities=4, boost=0.7, noise=0.1, seed=seed))
    pap = compose_metapath(g, MetaPath("PAP", ("pa", "ap")))
    labels = g.labels["P"]
    assert homophily(pap, labels) == homophily_loop(pap, labels)
