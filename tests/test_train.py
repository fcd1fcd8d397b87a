import ast
import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_expit, logsumexp, softmax

import hgnn_space.tensor as T
import hgnn_space.train as train_mod
from hgnn_space.hgraph import (GraphError, SyntheticSpec, build_graph,
                               generate_synthetic, load_graph)
from hgnn_space.layers import ACTIVATIONS, MICRO_KINDS
from hgnn_space.model import FAMILIES, DesignConfig, Model, build_model, score_links
from hgnn_space.sparse import expanded_rows
from hgnn_space.tensor import Parameter
from hgnn_space.train import (Adam, SGD, Task, TrialRecord, TrialStart,
                              binary_cross_entropy, cross_entropy,
                              graph_without_edges, macro_f1, make_optimizer,
                              make_splits, negative_sample, roc_auc, train_trial)

from conftest import OVERFLOWING_CFG, overflowing_graph, same_csr, shared_cells_graph


def planted_graph(seed=0, n_p=80, n_a=40, edges=200):
    spec = SyntheticSpec(
        node_types=(("P", n_p, 8), ("A", n_a, 8)),
        relations=(("ap", "A", "P", edges), ("pa", "P", "A", edges)),
        target_type="P", num_communities=4, boost=0.9, noise=0.05, seed=seed)
    return generate_synthetic(spec)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_nc_split_sizes_and_determinism():
    g = planted_graph(n_p=100)
    task = Task("node_classification", "P", num_classes=4)
    splits = make_splits(task, g, 3, seed=4)
    assert len(splits) == 3
    for s in splits:
        assert s.train.size == 80 and s.val.size == 20
        assert np.intersect1d(s.train, s.val).size == 0
        assert np.union1d(s.train, s.val).size == 100
    again = make_splits(task, g, 3, seed=4)
    for a, b in zip(splits, again):
        assert np.array_equal(a.train, b.train) and np.array_equal(a.val, b.val)
    assert not np.array_equal(splits[0].train, splits[1].train)


def test_nc_split_needs_five_per_class():
    g = build_graph([("X", 8, 2)], [("r", "X", "X")],
                    {"r": np.array([[0, 1]])},
                    features={"X": np.zeros((8, 2))},
                    labels={"X": np.array([0, 0, 0, 0, 0, 1, 1, -1])})
    with pytest.raises(GraphError, match="at least 5 per class"):
        make_splits(Task("node_classification", "X", 2), g, 3, seed=0)


def make_splits_loop(task, graph, n_splits, seed):
    """Split construction with one loop per task: node ids are permuted
    before sorting, pairs are indexed by sorted permutation positions."""
    splits = []
    if task.kind == "node_classification":
        pool = np.flatnonzero(graph.labels[task.target] >= 0)
        for i in range(n_splits):
            perm = pool[np.random.default_rng([seed, i, 17]).permutation(pool.size)]
            cut = min(max(1, int(round(pool.size * 0.8))), pool.size - 1)
            splits.append((i, int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
                           np.sort(perm[:cut]), np.sort(perm[cut:])))
    else:
        adj = graph.adjacency[task.target]
        pairs = np.stack([adj.indices, expanded_rows(adj)], axis=1)
        for i in range(n_splits):
            perm = np.random.default_rng([seed, i, 17]).permutation(pairs.shape[0])
            cut = min(max(1, int(round(pairs.shape[0] * 0.8))), pairs.shape[0] - 1)
            splits.append((i, int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
                           pairs[np.sort(perm[:cut])], pairs[np.sort(perm[cut:])]))
    return splits


@pytest.mark.parametrize("task", [Task("node_classification", "P", num_classes=4),
                                  Task("link_prediction", "ap")], ids=("nc", "lp"))
def test_splits_match_per_task_loops(task):
    for seed in range(6):
        g = planted_graph(seed=seed, n_p=37 + 9 * seed)
        if seed % 2:  # unlabelled nodes leave gaps in the NC pool
            g = dataclasses.replace(g, labels={"P": np.where(
                np.arange(g.labels["P"].size) % 4 == 1, -1, g.labels["P"])})
        got = make_splits(task, g, 4, seed=seed)
        want = make_splits_loop(task, g, 4, seed)
        assert len(got) == len(want)
        for s, (split_id, split_seed, train, val) in zip(got, want):
            assert (s.split_id, s.seed) == (split_id, split_seed)
            assert s.train.dtype == train.dtype and np.array_equal(s.train, train)
            assert s.val.dtype == val.dtype and np.array_equal(s.val, val)


def test_lp_split_removes_validation_positives_from_message_graph():
    g = planted_graph()
    task = Task("link_prediction", "ap")
    splits = make_splits(task, g, 3, seed=1)
    for s in splits:
        msg = graph_without_edges(g, "ap", s.val)
        dense = msg.adjacency["ap"].toarray()
        for src, dst in s.val:
            assert dense[dst, src] == 0  # membership oracle: cell really gone
        # training positives survive unless they share a cell with a dropped one
        val_cells = {(int(a), int(b)) for a, b in s.val}
        for src, dst in s.train:
            if (int(src), int(dst)) not in val_cells:
                assert dense[dst, src] >= 1
        # other relations untouched
        assert same_csr(msg.adjacency["pa"], g.adjacency["pa"])


def graph_without_edges_loop(graph, relation, pairs):
    """Reference: drop cells by membership in a set of (src, dst) tuples."""
    drop = {(int(s), int(d)) for s, d in np.asarray(pairs, dtype=np.int64)}
    edge_lists = {}
    for r in graph.relations:
        adj = graph.adjacency[r.name]
        src, dst, cnt = adj.indices, expanded_rows(adj), adj.data
        if r.name == relation and drop:
            keep = np.array([(int(s), int(d)) not in drop for s, d in zip(src, dst)])
            src, dst, cnt = src[keep], dst[keep], cnt[keep]
        edge_lists[r.name] = np.stack([src, dst, cnt], axis=1)
    return build_graph(graph.node_types, graph.relations, edge_lists,
                       graph.features, graph.labels)


def test_graph_without_edges_matches_set_loop():
    g = planted_graph(seed=3)
    task = Task("link_prediction", "pa")
    n_dst = g.adjacency["pa"].shape[0]
    for s in make_splits(task, g, 2, seed=5):
        # pairs outside the relation's shape whose keys src*n_dst+dst equal
        # those of training cells, which must survive
        src, dst = s.train[s.train[:, 0] > 0][:2].T
        alias = np.concatenate([np.stack([src - 1, dst + n_dst], axis=1),
                                np.stack([src + 1, dst - n_dst], axis=1)])
        for pairs in (s.val, np.concatenate([s.val, s.val[:3], alias])):
            got = graph_without_edges(g, "pa", pairs)
            want = graph_without_edges_loop(g, "pa", pairs)
            for r in g.relation_names:
                assert same_csr(got.adjacency[r], want.adjacency[r])


# ---------------------------------------------------------------------------
# cell keys: both link-prediction helpers read them as a sorted set
# ---------------------------------------------------------------------------

# (src, dst, count) rows out of order, with the cells 3 -> 1 and 1 -> 0 twice
UNSORTED_EDGES = np.array([[3, 1, 2], [0, 2, 1], [3, 1, 1], [1, 0, 1], [0, 0, 4],
                           [1, 0, 2], [2, 3, 1], [0, 4, 1]])
KEYED_TYPES = [{"name": "A", "count": 4, "feature_dim": 0},
               {"name": "B", "count": 5, "feature_dim": 0}]
KEYED_RELATIONS = [{"name": "r", "src_type": "A", "dst_type": "B"},
                   {"name": "s", "src_type": "B", "dst_type": "A"}]
KEYED_EDGES = {"r": UNSORTED_EDGES, "s": UNSORTED_EDGES[[4, 0, 6, 2, 1], :][:, [1, 0, 2]]}


def assert_cell_keys_are_the_sorted_cell_set(graph):
    for rel in graph.relations:
        adj = graph.adjacency[rel.name]
        keys = train_mod._cell_keys(adj)
        assert keys.dtype == np.int64 and keys.size == adj.nnz
        assert np.all(np.diff(keys) > 0), rel.name
        rows, cols = adj.nonzero()  # scipy's own reading of the stored cells
        assert np.array_equal(keys, np.unique(rows * adj.shape[1] + cols))


def test_cell_keys_of_a_graph_built_from_unsorted_duplicate_rows_increase():
    g = build_graph([tuple(t.values()) for t in KEYED_TYPES],
                    [tuple(r.values()) for r in KEYED_RELATIONS], KEYED_EDGES)
    assert_cell_keys_are_the_sorted_cell_set(g)
    assert np.array_equal(train_mod._cell_keys(g.adjacency["r"]),
                          np.unique(UNSORTED_EDGES[:, 1] * 4 + UNSORTED_EDGES[:, 0]))


@pytest.mark.parametrize("fmt", ["csv", "npy"])
def test_cell_keys_of_a_loaded_bundle_increase(tmp_path, fmt):
    header = {"format": "hgnn-space-graph/1", "node_types": KEYED_TYPES,
              "relations": KEYED_RELATIONS}
    if fmt == "npy":
        header["edges"] = {r: f"{r}.edges.npy" for r in KEYED_EDGES}
    for r, edges in KEYED_EDGES.items():
        if fmt == "npy":
            np.save(tmp_path / f"{r}.edges.npy", edges, allow_pickle=False)
        else:
            (tmp_path / f"{r}.csv").write_text(
                "".join(",".join(map(str, row)) + "\n" for row in edges))
    (tmp_path / "graph.json").write_text(json.dumps(header))
    assert_cell_keys_are_the_sorted_cell_set(load_graph(tmp_path))


def test_graph_without_edges_rebuilds_only_the_target_relation():
    g = planted_graph(seed=4)
    task = Task("link_prediction", "ap")
    for s in make_splits(task, g, 2, seed=6):
        cut = graph_without_edges(g, "ap", s.val)
        assert_cell_keys_are_the_sorted_cell_set(cut)
        assert cut.adjacency["ap"].nnz < g.adjacency["ap"].nnz
        assert cut.adjacency["pa"] is g.adjacency["pa"]
        assert cut.features is g.features and cut.labels is g.labels
        assert (cut.node_types, cut.relations) == (g.node_types, g.relations)
    with pytest.raises(GraphError, match="unknown relation 'zz'"):
        graph_without_edges(g, "zz", s.val)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def test_negative_sampling_avoids_positives():
    g = planted_graph()
    pos = np.stack([g.adjacency["ap"].indices,
                    expanded_rows(g.adjacency["ap"])], axis=1)[:10]
    negs = negative_sample(g, "ap", pos, 1, seed=3)
    assert negs.shape == (10, 2)
    dense = g.adjacency["ap"].toarray()
    for s, d in negs:
        assert dense[d, s] == 0
    again = negative_sample(g, "ap", pos, 1, seed=3)
    assert np.array_equal(negs, again)
    assert not np.array_equal(negs, negative_sample(g, "ap", pos, 1, seed=4))


def test_negative_sampling_saturation():
    full = np.array([[s, d] for s in range(2) for d in range(2)])
    g = build_graph([("A", 2, 0), ("B", 2, 0)], [("r", "A", "B")], {"r": full})
    with pytest.raises(GraphError, match="saturated"):
        negative_sample(g, "r", full, 1, seed=0)


def negative_sample_loop(graph, relation, positives, k, rng):
    """Reference sampler: one scalar draw per attempt, rejecting observed cells."""
    adj = graph.adjacency[relation]
    n_dst = adj.shape[0]
    tadj = adj.T.tocsr()
    out = []
    for s, _ in np.asarray(positives, dtype=np.int64):
        s = int(s)
        blocked = set(tadj.indices[tadj.indptr[s]:tadj.indptr[s + 1]].tolist())
        if len(blocked) >= n_dst:
            raise GraphError(f"relation '{relation}' is saturated for source {s}: "
                             f"no negative destinations exist")
        for _ in range(k):
            d = int(rng.integers(0, n_dst))
            while d in blocked:
                d = int(rng.integers(0, n_dst))
            out.append((s, d))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _dense_relation(n_src, n_dst, density, seed):
    """Relation r: A -> B with each cell present with the given probability."""
    cells = np.argwhere(np.random.default_rng(seed).random((n_src, n_dst)) < density)
    return build_graph([("A", n_src, 0), ("B", n_dst, 0)], [("r", "A", "B")],
                       {"r": cells}), cells


def _sampler_cases():
    g = planted_graph()
    ap = np.stack([g.adjacency["ap"].indices, expanded_rows(g.adjacency["ap"])], axis=1)
    near, cells = _dense_relation(6, 40, 0.9, seed=1)
    sparse, few = _dense_relation(5, 500, 0.01, seed=2)
    return {
        "planted-k1": (g, "ap", ap, 1),
        "planted-k50": (g, "ap", ap, 50),
        "repeated-sources": (g, "ap", np.array([[3, 0], [3, 1], [0, 2], [3, 5], [0, 0]]), 4),
        "near-saturated": (near, "r", cells, 3),
        "rarely-rejected": (sparse, "r", few, 100),
        "zero-positives": (g, "ap", np.empty((0, 2), dtype=np.int64), 5),
    }


@pytest.mark.parametrize("case", ["planted-k1", "planted-k50", "repeated-sources",
                                  "near-saturated", "rarely-rejected", "zero-positives"])
def test_negative_sampling_matches_scalar_loop_and_generator_state(case):
    g, rel, pos, k = _sampler_cases()[case]
    rng_ref, rng = np.random.default_rng(77), np.random.default_rng(77)
    want = negative_sample_loop(g, rel, pos, k, rng_ref)
    got = negative_sample(g, rel, pos, k, rng)
    assert got.dtype == np.int64 and got.shape == (pos.shape[0] * k, 2)
    assert np.array_equal(got, want)
    assert rng.integers(0, 2 ** 62) == rng_ref.integers(0, 2 ** 62)  # same end state


def test_negative_sampling_saturation_names_the_first_saturated_source():
    # sources 1 and 3 reach every destination; 0 and 2 miss one
    cells = np.array([[s, d] for s in range(4) for d in range(3)
                      if not (s in (0, 2) and d == 1)])
    g = build_graph([("A", 4, 0), ("B", 3, 0)], [("r", "A", "B")], {"r": cells})
    pos = np.array([[0, 0], [2, 0], [3, 0], [1, 0]])
    with pytest.raises(GraphError) as want:
        negative_sample_loop(g, "r", pos, 2, np.random.default_rng(0))
    with pytest.raises(GraphError, match="source 3") as got:
        negative_sample(g, "r", pos, 2, seed=0)
    assert str(got.value) == str(want.value)


def test_edge_keys_above_int32_match_python_int_references():
    # 100 000 nodes a side: a key src * n_dst + dst reaches 1e10, past int32.
    # The sampler's first three draws are observed destinations of source
    # n - 1, so a wrapped key would let an observed cell through.
    n, seed = 100_000, 5
    draws = np.random.default_rng(seed)
    first = [int(draws.integers(0, n)) for _ in range(3)]
    cells = np.array([[n - 1, d] for d in first] + [[70_000, n - 1], [3, n - 2]])
    g = build_graph([("A", n, 0), ("B", n, 0)], [("r", "A", "B")], {"r": cells})
    pos = cells[[0, 3]]
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = negative_sample(g, "r", pos, 2, rng)
    assert np.array_equal(got, negative_sample_loop(g, "r", pos, 2, rng_ref))
    assert not {tuple(p) for p in got.tolist()} & {tuple(c) for c in cells.tolist()}
    got = graph_without_edges(g, "r", pos).adjacency["r"]
    assert same_csr(got, graph_without_edges_loop(g, "r", pos).adjacency["r"])
    assert got.nnz == 3


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_perfect_predictions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert macro_f1(labels, labels, 3) == 1.0


def test_separating_scores():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == 1.0


def test_roc_auc_tie_midpoints_and_errors():
    assert roc_auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5
    with pytest.raises(GraphError, match="both classes"):
        roc_auc(np.array([0.5, 0.4]), np.array([1, 1]))


def roc_auc_loop(scores, labels):
    """Reference: midpoint ranks assigned one tie group at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_pos = ranks[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, float("nan")]),
                          st.integers(0, 1)), min_size=2, max_size=40))
def test_roc_auc_matches_tie_group_loop(items):
    scores = np.array([x for x, _ in items])
    labels = np.array([y for _, y in items])
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, labels) == roc_auc_loop(scores, labels)


def test_macro_micro_coincide_on_balanced_uniform_confusion():
    # 3 classes x 4 items each; per class: 2 correct, 1 to each other class
    labels, preds = [], []
    for c in range(3):
        labels += [c] * 4
        preds += [c, c, (c + 1) % 3, (c + 2) % 3]
    labels, preds = np.array(labels), np.array(preds)
    # micro F1 over single-label predictions is the accuracy
    assert macro_f1(preds, labels, 3) == pytest.approx(np.mean(preds == labels))


def macro_f1_loop(preds, labels, num_classes):
    """Reference: precision, recall and F1 one class at a time."""
    f1s = []
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        predicted, actual = int(np.sum(preds == c)), int(np.sum(labels == c))
        prec = tp / predicted if predicted else 0.0
        rec = tp / actual if actual else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 11).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                         min_size=1, max_size=120))))
def test_macro_f1_equals_the_per_class_loop_bitwise(case):
    k, pairs = case
    preds, labels = np.array(pairs).T
    assert macro_f1(preds, labels, k).hex() == macro_f1_loop(preds, labels, k).hex()


def test_f1_invariant_under_class_relabeling():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 60)
    preds = rng.integers(0, 4, 60)
    perm = rng.permutation(4)
    assert macro_f1(perm[preds], perm[labels], 4) == pytest.approx(
        macro_f1(preds, labels, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.floats(min_value=0.1, max_value=5.0))
def test_roc_auc_invariant_under_monotone_transform(seed, scale):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(30)
    labels = np.concatenate([np.ones(15), np.zeros(15)]).astype(int)
    a = roc_auc(scores, labels)
    b = roc_auc(np.exp(scale * scores), labels)  # strictly increasing map
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_sgd_descends_quadratic_bowl():
    p = Parameter(np.array([[3.0, -2.0]]), "p")
    opt = SGD([p], lr=0.1)
    losses = []
    for _ in range(20):
        loss = T.tsum(T.mul(p, p))
        losses.append(loss.data.item())
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_zero_gradient_leaves_parameters():
    p = Parameter(np.array([[1.0, 2.0]]), "p")
    opt = Adam([p], lr=0.5)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def adam_step_reference(params, slots, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam's step as plain expressions, each allocating its result."""
    with np.errstate(invalid="ignore", over="ignore"):
        for p in params:
            if p.grad is None:
                continue
            m, v = slots[p.name]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def _odd_arrays(rng, shape):
    """Random arrays salted with inf, -inf, nan and -0.0."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
    flat[picks] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0], size=picks.size)
    return a


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["Adam", "SGD"])
def test_in_place_optimizer_steps_equal_the_plain_formulas_bitwise(kind, seed):
    rng = np.random.default_rng(seed)
    shapes = [(7, 5), (1, 5), (1, 1), (40, 3)]
    got = [Parameter(_odd_arrays(rng, s), f"p{i}") for i, s in enumerate(shapes)]
    want = [Parameter(p.data.copy(), p.name) for p in got]
    # the last two leaves hold one gradient array, as `backward` may leave them
    got.append(Parameter(rng.normal(size=(3, 3)), "s0"))
    got.append(Parameter(rng.normal(size=(3, 3)), "s1"))
    want += [Parameter(p.data.copy(), p.name) for p in got[-2:]]
    opt = make_optimizer(kind, got, 0.01)
    slots = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in want}
    for t in range(1, 5):
        grads = [_odd_arrays(rng, p.shape) for p in got[:-2]]
        shared = rng.normal(size=(3, 3)) if t % 2 else _odd_arrays(rng, (3, 3))
        grads += [shared, shared]
        for p, q, g in zip(got, want, grads):
            p.grad, q.grad = g, g.copy()
        before = [_bits(g) for g in grads]
        with np.errstate(invalid="ignore", over="ignore"):
            opt.step()
            if kind == "Adam":
                adam_step_reference(want, slots, t, 0.01)
            else:
                for q in want:
                    q.data -= 0.01 * q.grad
        assert [_bits(g) for g in grads] == before  # no gradient written
        for p, q in zip(got, want):
            assert _bits(p.data) == _bits(q.data), (t, p.name)
            if kind == "Adam":
                assert all(_bits(a) == _bits(b)
                           for a, b in zip(opt.slots[p.name], slots[q.name]))


def test_adam_makes_moments_at_a_parameters_first_gradient():
    """No moments for a parameter without a gradient; one whose first
    gradient comes at step 3 steps as if its zero moments had decayed."""
    rng = np.random.default_rng(7)
    got = [Parameter(_odd_arrays(rng, (6, 4)), "early"),
           Parameter(_odd_arrays(rng, (6, 4)), "late"),
           Parameter(rng.normal(size=(2, 2)), "never")]
    want = [Parameter(p.data.copy(), p.name) for p in got]
    opt = Adam(got, 0.01)
    assert opt.slots == {}
    slots = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in want}
    for t in range(1, 6):
        for p, q in zip(got[:2], want[:2]):
            g = _odd_arrays(rng, p.shape) if p.name == "early" or t >= 3 else None
            p.grad, q.grad = g, None if g is None else g.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            opt.step()
            adam_step_reference(want, slots, t, 0.01)
        assert sorted(opt.slots) == (["early", "late"] if t >= 3 else ["early"])
        for p, q in zip(got, want):
            assert _bits(p.data) == _bits(q.data), (t, p.name)
        for name, moments in opt.slots.items():
            assert [_bits(a) for a in moments] == [_bits(b) for b in slots[name]]


# ---------------------------------------------------------------------------
# losses: finite for any finite logits, in either precision
# ---------------------------------------------------------------------------

LOSS_TOL = {np.float32: 1e-6, np.float64: 1e-13}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_is_finite_at_a_logit_spread_of_2000(dtype):
    """Each row's logits span 2000, and each label picks a logit at least
    1000 below its row's maximum, where a probability rounds to 0 and its
    log is -inf in either precision; the log-softmax loss and its gradient
    match scipy's logsumexp and softmax."""
    x = np.array([[0.0, 1000.0, -1000.0], [2000.0, 0.0, 1.0], [-1000.0, 1000.0, 0.0],
                  [3.0, -1.0, 2.5]])
    labels = np.array([2, 1, 0, 0])
    logits = Parameter(x.astype(dtype), "logits")
    loss = cross_entropy(logits, labels)
    rows = np.arange(len(labels))
    want = np.mean(logsumexp(x, axis=1) - x[rows, labels])
    assert want > 1000
    assert loss.data.dtype == dtype and np.isfinite(loss.data)
    assert float(loss.data) == pytest.approx(want, rel=LOSS_TOL[dtype])
    loss.backward()
    grad_want = softmax(x, axis=1)
    grad_want[rows, labels] -= 1.0
    grad_want /= len(labels)
    assert logits.grad.dtype == dtype and np.isfinite(logits.grad).all()
    np.testing.assert_allclose(logits.grad, grad_want, rtol=0, atol=LOSS_TOL[dtype])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_binary_cross_entropy_is_finite_at_a_dot_product_of_800(dtype):
    """A positive pair scores -800 and a negative pair 800, where
    log(sigmoid(-800)) is -inf in either precision; the softplus loss on
    the link logits and its gradient match scipy's log_expit and expit."""
    h_src = Parameter(np.array([[20.0, 20.0]], dtype=dtype), "src")
    h_dst = Parameter(np.array([[20.0, 20.0], [-20.0, -20.0]], dtype=dtype), "dst")
    src = T.SegmentIndex([0], 1)
    pos = score_links(h_src, h_dst, src, T.SegmentIndex([1], 2))
    neg = score_links(h_src, h_dst, src, T.SegmentIndex([0], 2))
    assert pos.data.tolist() == [[-800.0]] and neg.data.tolist() == [[800.0]]
    loss = binary_cross_entropy(pos, neg)
    want = -np.mean([log_expit(-800.0), log_expit(-800.0)])
    assert loss.data.dtype == dtype and np.isfinite(loss.data)
    assert float(loss.data) == pytest.approx(want, rel=LOSS_TOL[dtype])
    loss.backward()
    # dloss/dlogit is (sigmoid(logit) - label) / 2 for each of the two pairs
    d_pos, d_neg = (expit(-800.0) - 1.0) / 2, expit(800.0) / 2
    x_src, x_dst = h_src.data.astype(np.float64), h_dst.data.astype(np.float64)
    for p, g in ((h_src, d_pos * x_dst[1] + d_neg * x_dst[0]),
                 (h_dst, np.stack([d_neg * x_src[0], d_pos * x_src[0]]))):
        assert p.grad.dtype == dtype and np.isfinite(p.grad).all()
        np.testing.assert_allclose(p.grad, g.reshape(p.shape), rtol=LOSS_TOL[dtype])


# ---------------------------------------------------------------------------
# train_trial
# ---------------------------------------------------------------------------

NC_CFG = DesignConfig(model_family="Relation", micro_conv="GCNConv",
                      macro_agg="Sum", hidden_dim=16, mp_layers=2,
                      optimizer="Adam", lr=0.01, epochs=100, seed=5)


def test_trial_bitwise_reproducible():
    g = planted_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]
    a = train_trial(NC_CFG, g, split, task, max_epochs=6)
    b = train_trial(NC_CFG, g, split, task, max_epochs=6)
    assert a.history == b.history
    assert a.best_score == b.best_score
    assert a.status == b.status == "ok"
    assert a.metric == "macro_f1"
    assert a.best_score is not None and np.isfinite(a.best_score)


@pytest.mark.parametrize("micro", ["SageConv", "GATConv"])
def test_node_classification_trial_indexes_its_train_ids_once(segment_index_sites,
                                                              micro):
    """The train ids are grouped once per trial, not once per epoch; a
    Sage model builds no other SegmentIndex (a GAT model groups its plans'
    entries, in `tensor.py`)."""
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split("NC", g)
    cfg = NC_CFG.with_values(micro_conv=micro, hidden_dim=8)
    rec = train_trial(cfg, g, split, task, max_epochs=10)
    assert rec.status == "ok" and len(rec.history["train_loss"]) == 10
    assert [s for s in segment_index_sites if s[0] != "tensor.py"] == [
        ("train.py", "train_trial")]
    assert len(segment_index_sites) == (1 if micro == "SageConv" else 5)


def test_link_prediction_trial_indexes_its_pairs_once(segment_index_sites):
    """The training positives and the validation pairs are indexed once per
    trial and each epoch indexes only its negatives' destinations; no
    backward pass builds an index (a GCN model's plans hold none)."""
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split("LP", g)
    cfg = DesignConfig(hidden_dim=8, seed=5, task=task.kind, **FAMILY_POINTS["Relation"])
    rec = train_trial(cfg, g, split, task, max_epochs=6)
    assert rec.status == "ok" and len(rec.history["train_loss"]) == 6
    assert segment_index_sites == ([("train.py", "train_trial")] * 4
                                   + [("train.py", "train_loss")] * 6)


def test_trial_zero_epochs_returns_initial_metrics():
    g = planted_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]
    rec = train_trial(NC_CFG, g, split, task, max_epochs=0)
    assert rec.history["train_loss"] == []
    assert len(rec.history["val_score"]) == 1
    assert rec.status == "ok"


def test_trial_refuses_negative_max_epochs_before_building_anything(monkeypatch):
    g = planted_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]

    def build(*args):
        raise AssertionError("a trial start was built")

    monkeypatch.setattr(train_mod, "TrialStart", build)
    with pytest.raises(ValueError, match="^max_epochs must not be negative, got -1$"):
        train_trial(NC_CFG, g, split, task, max_epochs=-1)


def test_trial_divergence_recorded_not_raised():
    g = planted_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]
    cfg = DesignConfig(model_family="Relation", micro_conv="GINConv",
                       macro_agg="Sum", optimizer="SGD", lr=0.1,
                       hidden_dim=128, mp_layers=6, activation="ReLU",
                       connectivity="SKIP-SUM", epochs=100, seed=3)
    rec = train_trial(cfg, g, split, task, max_epochs=30)
    assert rec.status == "failed"
    assert rec.best_score is None


def test_a_forward_overflow_is_recorded_alike_under_any_warnings_filter():
    """The trial sets numpy's floating-point policy for building its model
    and for its whole epoch loop, so a warnings filter that raises on a
    RuntimeWarning changes nothing; the features overflow float32, and the
    non-finite logits fail the trial at its first score."""
    g = overflowing_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=0)[0]
    records = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            records.append(train_trial(OVERFLOWING_CFG, g, split, task, max_epochs=2))
    quiet, strict = (repr(dataclasses.replace(r, wall_time=0.0)) for r in records)
    assert quiet == strict
    rec = records[1]
    assert rec.status == "failed" and rec.best_score is None
    assert rec.reason == "nonfinite_score@epoch0"
    assert repr(rec.history) == "{'train_loss': [], 'val_score': [nan]}"


@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("optimizer", ["Adam", "SGD"])
def test_an_output_that_overflows_in_the_last_evaluation_fails_the_trial(
        monkeypatch, kind, optimizer):
    """The last step leaves finite parameters whose evaluation-only forward
    pass overflows: 1e38 is finite in float32, but the first projection of
    the features is not. The score it would read off non-finite logits or
    link scores is NaN, so the trial fails instead of recording that
    score."""
    cls = getattr(train_mod, optimizer)
    real_step = cls.step

    def step(self):
        real_step(self)
        self.steps = getattr(self, "steps", 0) + 1
        if self.steps == 3:
            self.params[0].data[...] = 1e38

    monkeypatch.setattr(cls, "step", step)
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split(kind, g)
    cfg = DesignConfig(optimizer=optimizer, hidden_dim=16, seed=5, task=task.kind,
                       **FAMILY_POINTS["Relation"])
    rec = train_trial(cfg, g, split, task, max_epochs=3)
    assert rec.status == "failed" and rec.best_score is None
    assert rec.reason == "nonfinite_score@epoch3"
    assert len(rec.history["train_loss"]) == len(rec.history["val_score"]) == 3
    assert np.isfinite(rec.history["train_loss"] + rec.history["val_score"]).all()


def _errstate_sites(path):
    """(file name, enclosing function) of every `errstate` name in a file."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "errstate"
                or isinstance(node, ast.Name) and node.id == "errstate"
                or isinstance(node, ast.alias) and node.name == "errstate"):
            sites.append((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_only_the_trial_sets_numpy_floating_point_policy():
    """One `np.errstate`, in `train_trial`, around the epoch loop; every
    primitive and optimizer computes under the policy its caller set."""
    src = Path(train_mod.__file__).parent
    sites = [s for path in sorted(src.glob("*.py")) for s in _errstate_sites(path)]
    assert sites == [("train.py", "train_trial")]
    trial = next(n for n in ast.walk(ast.parse(Path(train_mod.__file__).read_text()))
                 if isinstance(n, ast.FunctionDef) and n.name == "train_trial")
    (block,) = [n for n in ast.walk(trial) if isinstance(n, ast.With)
                and "errstate" in ast.unparse(n.items[0].context_expr)]
    assert [ast.unparse(n.target) for n in block.body if isinstance(n, ast.For)] == [
        "epoch"]


def test_trial_link_prediction():
    g = planted_graph()
    task = Task("link_prediction", "ap")
    split = make_splits(task, g, 1, seed=7)[0]
    cfg = NC_CFG.with_values(task="link_prediction", seed=11)
    rec = train_trial(cfg, g, split, task, max_epochs=5)
    assert rec.status == "ok"
    assert rec.metric == "roc_auc"
    assert 0.0 <= rec.best_score <= 1.0
    rec2 = train_trial(cfg, g, split, task, max_epochs=5)
    assert rec.history == rec2.history


@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("bad,reason", [
    ({"model_family": "Homogenization"}, "macro_agg: must be absent"),
    ({"model_family": "Metapath", "metapaths": (("X", ("ap", "zz")),)},
     "metapaths: 'X' references unknown relations"),
])
def test_trial_rejects_an_invalid_config(kind, bad, reason):
    g = planted_graph()
    task, split = _task_and_split(kind, g)
    cfg = NC_CFG.with_values(task=task.kind, **bad)
    with pytest.raises(GraphError, match=f"^invalid config: {reason}"):
        train_trial(cfg, g, split, task, max_epochs=1)


def train_trial_loop(cfg, graph, split, task, max_epochs=None):
    """The trial loop with a separate full evaluation forward before training
    and after every step, every forward computing every node type; a float32
    model, as a trial's, whose link logits feed both the loss and the
    ROC-AUC."""
    if task.kind == "link_prediction":
        msg_graph = graph_without_edges(graph, task.target, split.val)
        val_negs = negative_sample(graph, task.target, split.val, 1,
                                   np.random.default_rng([split.seed, 19]))
        metric_name = "roc_auc"
        n_dst, n_src = graph.adjacency[task.target].shape

        def pair_index(pairs):
            return (T.SegmentIndex(pairs[:, 0], n_src), T.SegmentIndex(pairs[:, 1], n_dst))

        train_pairs, val_pos, val_neg = map(pair_index, (split.train, split.val, val_negs))
    else:
        msg_graph, val_negs, metric_name = graph, None, "macro_f1"
        train_rows = T.SegmentIndex(split.train, graph.labels[task.target].shape[0])
    model = build_model(cfg, msg_graph, num_classes=task.num_classes,
                        target_type=task.target if task.kind == "node_classification" else None,
                        dtype=np.float32)
    params = model.parameters()
    opt = make_optimizer(cfg.optimizer, params, cfg.lr)
    rel = graph.relation(task.target) if task.kind == "link_prediction" else None

    def logits(training, rng=None):
        h = model.forward(msg_graph, training=training, rng=rng)
        return T.add(T.matmul(h[task.target], model.head.W), model.head.b)

    def evaluate():
        if task.kind == "node_classification":
            preds = np.argmax(logits(False).data[split.val], axis=1)
            return train_mod.macro_f1(preds, graph.labels[task.target][split.val],
                                      task.num_classes)
        h = model.forward(msg_graph, training=False)
        pos = score_links(h[rel.src_type], h[rel.dst_type], *val_pos).data[:, 0]
        neg = score_links(h[rel.src_type], h[rel.dst_type], *val_neg).data[:, 0]
        return train_mod.roc_auc(np.concatenate([pos, neg]),
                                 np.concatenate([np.ones(pos.size), np.zeros(neg.size)]))

    losses, scores = [], []
    status, reason = "ok", None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        score0 = evaluate()
        if not np.isfinite(score0):
            status, reason = "failed", "nonfinite_score@epoch0"
        scores.append(float(score0))
        n_epochs = cfg.epochs if max_epochs is None else min(cfg.epochs, max_epochs)
        for epoch in range(n_epochs):
            if status == "failed":
                break
            drop_rng = np.random.default_rng([cfg.seed, split.seed, epoch, 11])
            if task.kind == "node_classification":
                loss = cross_entropy(T.gather_rows(logits(True, drop_rng), train_rows),
                                     graph.labels[task.target][split.train])
            else:
                negs = negative_sample(
                    graph, task.target, split.train, train_mod.TRAIN_NEG_PER_POS,
                    np.random.default_rng([cfg.seed, split.seed, epoch, 13]))
                h = model.forward(msg_graph, training=True, rng=drop_rng)
                loss = binary_cross_entropy(
                    score_links(h[rel.src_type], h[rel.dst_type], *train_pairs),
                    score_links(h[rel.src_type], h[rel.dst_type], *pair_index(negs)))
            losses.append(float(loss.data))
            if not np.isfinite(losses[-1]):
                status, reason = "failed", f"nonfinite_loss@epoch{epoch}"
                break
            opt.zero_grad()
            loss.backward()
            opt.step()
            if not all(np.isfinite(p.data).all() for p in params):
                status, reason = "failed", f"nonfinite_param@epoch{epoch}"
                break
            score = evaluate()
            if not np.isfinite(score):
                status, reason = "failed", f"nonfinite_score@epoch{epoch + 1}"
                break
            scores.append(float(score))
    finite = [x for x in scores if np.isfinite(x)]
    return TrialRecord(config=cfg.to_flat(), seed=cfg.seed, split_id=split.split_id,
                       status=status,
                       best_score=max(finite) if status == "ok" and finite else None,
                       metric=metric_name,
                       history={"train_loss": losses, "val_score": scores},
                       wall_time=0.0, reason=reason)


FAMILY_POINTS = {
    "Relation": dict(model_family="Relation", micro_conv="GCNConv", macro_agg="Sum"),
    "Metapath": dict(model_family="Metapath", micro_conv="GATConv",
                     macro_agg="Attention",
                     metapaths=(("PAP", ("pa", "ap")), ("APA", ("ap", "pa")))),
    "Homogenization": dict(model_family="Homogenization", micro_conv="SageConv",
                           macro_agg=None),
}


def _task_and_split(kind, g):
    task = (Task("node_classification", "P", num_classes=4) if kind == "NC"
            else Task("link_prediction", "ap"))
    return task, make_splits(task, g, 1, seed=2)[0]


def assert_same_trial(cfg, kind, max_epochs, reset=lambda: None):
    """train_trial and the reference loop give equal records, field by field
    (wall time aside); repr keeps NaN and the float bits comparable. `reset`
    runs before each of the two trials."""
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split(kind, g)
    cfg = cfg.with_values(task=task.kind)
    reset()
    got = train_trial(cfg, g, split, task, max_epochs=max_epochs)
    reset()
    want = train_trial_loop(cfg, g, split, task, max_epochs=max_epochs)
    for f in dataclasses.fields(TrialRecord):
        if f.name != "wall_time":
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
    return got


@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("has_bn", [False, True])
def test_an_evaluation_forward_records_no_tape_nodes(monkeypatch, kind, has_bn):
    made = []

    class CountingNode(T._Node):
        __slots__ = ()

        def __init__(self, parents, vjp):
            made.append(1)
            super().__init__(parents, vjp)

    monkeypatch.setattr(T, "_Node", CountingNode)
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split(kind, g)
    cfg = DesignConfig(hidden_dim=16, has_bn=has_bn, seed=5, task=task.kind,
                       **FAMILY_POINTS["Relation"])
    rec = train_trial(cfg, g, split, task, max_epochs=0)  # one evaluation pass
    assert rec.status == "ok" and len(rec.history["val_score"]) == 1
    assert made == []
    train_trial(cfg, g, split, task, max_epochs=1)  # training still records
    assert made


@pytest.mark.parametrize("max_epochs", [0, 4])
@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("has_bn", [False, True])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
def test_trial_matches_evaluation_forward_loop(family, dropout_p, has_bn, kind,
                                               max_epochs):
    """Every case trains. The Metapath case with dropout and batch norm gives
    a negative pair a logit of about 47 in its first training forward, where
    log(1 - sigmoid(x)) would be infinite; the link loss takes softplus(x)
    instead, which is finite."""
    cfg = DesignConfig(hidden_dim=16, dropout_p=dropout_p, has_bn=has_bn, seed=5,
                       **FAMILY_POINTS[family])
    rec = assert_same_trial(cfg, kind, max_epochs=max_epochs)
    assert rec.status == "ok"
    assert len(rec.history["train_loss"]) == max_epochs
    assert len(rec.history["val_score"]) == max_epochs + 1


@pytest.mark.parametrize("kind,optimizer,micro,layers", [
    ("NC", "SGD", "GINConv", 4), ("NC", "Adam", "SageConv", 6),
    ("LP", "Adam", "GCNConv", 2), ("LP", "SGD", "GINConv", 2)])
def test_trial_matches_loop_on_nonfinite_loss(monkeypatch, kind, optimizer, micro,
                                              layers):
    """The first step leaves the last bias, the head's (NC) or the last
    post-process layer's (LP), spread from column to column: 1e38 apart
    between the four class logits, or 3e16 apart over the 32 columns of the
    link representations, whose dot products come to about 1e37. The next
    outputs are finite, so they score, and so is each pair's or row's loss
    term, but their sum overflows float32, so the loss is infinite."""
    cls = getattr(train_mod, optimizer)
    real_step = cls.step
    spread = 1e38 if kind == "NC" else 3e16

    def step(self):
        real_step(self)
        self.params[-1].data[...] = spread * np.arange(self.params[-1].shape[1])

    monkeypatch.setattr(cls, "step", step)
    cfg = DesignConfig(model_family="Relation", micro_conv=micro, macro_agg="Sum",
                       optimizer=optimizer, lr=0.1, hidden_dim=32, mp_layers=layers,
                       connectivity="SKIP-SUM", seed=3)
    rec = assert_same_trial(cfg, kind, max_epochs=30)
    assert rec.status == "failed" and not np.isfinite(rec.history["train_loss"][-1])
    assert rec.reason == "nonfinite_loss@epoch1", rec.reason


@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("optimizer", ["Adam", "SGD"])
def test_trial_matches_loop_on_nonfinite_parameter(monkeypatch, kind, optimizer):
    cls = getattr(train_mod, optimizer)
    real_step = cls.step

    def step(self):
        real_step(self)
        if getattr(self, "steps", 0) == 2:
            self.params[0].data[0, 0] = np.inf
        self.steps = getattr(self, "steps", 0) + 1

    monkeypatch.setattr(cls, "step", step)
    cfg = DesignConfig(optimizer=optimizer, lr=0.1, hidden_dim=16, seed=5,
                       **FAMILY_POINTS["Relation"])
    rec = assert_same_trial(cfg, kind, max_epochs=6)
    assert rec.status == "failed" and rec.reason == "nonfinite_param@epoch2"
    assert len(rec.history["train_loss"]) == len(rec.history["val_score"]) == 3


@pytest.mark.parametrize("kind", ["NC", "LP"])
@pytest.mark.parametrize("bad_call", [0, 2])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_trial_matches_loop_on_nonfinite_score(monkeypatch, kind, bad_call, dropout_p):
    name = "macro_f1" if kind == "NC" else "roc_auc"
    real = getattr(train_mod, name)
    calls = [0]

    def metric(*args):
        calls[0] += 1
        return float("nan") if calls[0] == bad_call + 1 else real(*args)

    monkeypatch.setattr(train_mod, name, metric)
    cfg = DesignConfig(hidden_dim=16, dropout_p=dropout_p, seed=5,
                       **FAMILY_POINTS["Relation"])
    got = assert_same_trial(cfg, kind, max_epochs=4, reset=lambda: calls.__setitem__(0, 0))
    assert got.status == "failed" and got.reason == f"nonfinite_score@epoch{bad_call}"
    # a non-finite first score is kept in the history; later ones are not
    assert len(got.history["val_score"]) == max(bad_call, 1)
    assert np.isnan(got.history["val_score"][-1]) == (bad_call == 0)


# ---------------------------------------------------------------------------
# the trials of one config share a start
# ---------------------------------------------------------------------------

START_CFG = DesignConfig(model_family="Metapath", micro_conv="GATConv",
                         macro_agg="Attention", metapaths=(("PAP", ("pa", "ap")),),
                         has_bn=True, dropout_p=0.3, activation="PReLU",
                         hidden_dim=16, seed=9)


@pytest.mark.parametrize("kind", ["NC", "LP"])
def test_each_split_starts_from_the_initial_arrays(kind):
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task = (Task("node_classification", "P", num_classes=4) if kind == "NC"
            else Task("link_prediction", "ap"))
    splits = make_splits(task, g, 3, seed=2)
    cfg = START_CFG.with_values(task=task.kind)
    fresh = build_model(cfg, graph_without_edges(g, "ap", splits[0].val)
                        if kind == "LP" else g, num_classes=task.num_classes,
                        target_type="P" if kind == "NC" else None, dtype=np.float32)
    want = [(p.name, p.data) for p in fresh.parameters()]
    seen = []

    class Spy(TrialStart):
        def begin(self, msg_graph):
            model = super().begin(msg_graph)
            params = model.parameters()
            seen.append((model, [p.data for p in params]))
            assert [p.name for p in params] == [n for n, _ in want]
            for p, (_, a) in zip(params, want):
                assert np.array_equal(p.data, a) and p.grad is None
                assert p.data.flags.writeable
            for layer in model.mp:
                for bn in layer.bns.values():
                    assert not bn.state.running_mean.any()
                    assert (bn.state.running_var == 1).all()
            return model

    start = Spy(cfg, g, task)
    for split in splits + splits[:1]:  # a start counts no trials
        got = train_trial(cfg, g, split, task, max_epochs=3, start=start)
        alone = train_trial(cfg, g, split, task, max_epochs=3)
        for f in dataclasses.fields(TrialRecord):
            if f.name != "wall_time":
                assert repr(getattr(got, f.name)) == repr(getattr(alone, f.name))
        assert got.status == "ok" and len(got.history["train_loss"]) == 3
        assert any(not np.array_equal(a, b)  # the split trained
                   for a, (_, b) in zip(seen[-1][1], want))
    # one model serves every split, each on parameter arrays of its own
    assert seen[0][0] is seen[1][0] is seen[2][0]
    for i, (_, mine) in enumerate(seen):
        for _, other in seen[i + 1:]:
            assert not any(np.shares_memory(a, b) for a, b in zip(mine, other))


def test_the_splits_of_a_config_peak_alike():
    """A config's splits hold one copy of its parameter state: on a tiny
    graph, where the parameters dominate a trial's memory, every split of
    an 800k-parameter config peaks at the same traced size."""
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task = Task("node_classification", "P", num_classes=4)
    cfg = DesignConfig(model_family="Homogenization", micro_conv="SageConv",
                       macro_agg=None, connectivity="SKIP-CAT", mp_layers=6,
                       hidden_dim=128, seed=3)
    splits = make_splits(task, g, 3, seed=2)
    start = TrialStart(cfg, g, task)
    peaks = []
    tracemalloc.start()
    try:
        for split in splits:
            tracemalloc.reset_peak()
            rec = train_trial(cfg, g, split, task, max_epochs=2, start=start)
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert rec.status == "ok"
    finally:
        tracemalloc.stop()
    assert sum(p.data.size for p in start.model.parameters()) > 100_000
    assert max(peaks) <= 1.02 * min(peaks), peaks


@pytest.mark.parametrize("kind", ["NC", "LP"])
def test_a_config_of_the_other_task_is_refused_before_any_model_is_built(
        kind, monkeypatch):
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task, split = _task_and_split(kind, g)
    other = ("link_prediction" if task.kind == "node_classification"
             else "node_classification")
    cfg = NC_CFG.with_values(task=other)

    def build(*args, **kw):
        raise AssertionError("a model was built")

    monkeypatch.setattr(train_mod, "build_model", build)
    message = f"^the config's task '{other}' is not the trial's task '{task.kind}'$"
    with pytest.raises(ValueError, match=message):
        TrialStart(cfg, g, task)
    with pytest.raises(ValueError, match=message):
        train_trial(cfg, g, split, task, max_epochs=1)


def test_a_start_refuses_another_config_task_or_graph():
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]
    start = TrialStart(NC_CFG, g, task)
    for cfg, graph, other in ((NC_CFG.with_values(seed=6), g, task),
                              (NC_CFG, planted_graph(n_p=40, n_a=20, edges=100), task),
                              (NC_CFG, g, Task("node_classification", "P", 5))):
        with pytest.raises(ValueError, match="another config, task or graph"):
            train_trial(cfg, graph, split, other, max_epochs=1, start=start)
    assert start.model is None  # refused before any trial began


@pytest.mark.parametrize("kind,per_start", [("NC", 1), ("LP", 3)])
def test_node_classification_evaluates_the_initial_parameters_once_per_start(
        monkeypatch, kind, per_start):
    """With batch norm every epoch evaluates in its own forward pass; the
    epoch-0 one runs once for a node-classification start and once per
    split for link prediction, whose message graph differs per split."""
    real_forward = Model.forward
    modes = []

    def forward(self, g, training=False, rng=None, types=None):
        modes.append(training)
        return real_forward(self, g, training=training, rng=rng, types=types)

    monkeypatch.setattr(Model, "forward", forward)
    g = planted_graph(n_p=40, n_a=20, edges=100)
    task = (Task("node_classification", "P", num_classes=4) if kind == "NC"
            else Task("link_prediction", "ap"))
    cfg = DesignConfig(hidden_dim=16, has_bn=True, seed=5, task=task.kind,
                       **FAMILY_POINTS["Relation"])
    start = TrialStart(cfg, g, task)
    initial = 0
    for split in make_splits(task, g, 3, seed=2):
        modes.clear()
        assert train_trial(cfg, g, split, task, max_epochs=2, start=start).status == "ok"
        initial += modes.index(True)  # the evaluations before the first training pass
    assert initial == per_start


# ---------------------------------------------------------------------------
# precision: trials compute in float32, default models in float64
# ---------------------------------------------------------------------------

def precision_configs(task_kind):
    """Every (family, micro convolution) cell with batch norm, dropout,
    SKIP-CAT, L2 normalization, extra pre- and post-process layers and an
    Attention macro where the family has one; the activations take turns,
    and the Homogenization GAT cell uses the relation-aware attention."""
    out = []
    for k, (family, micro) in enumerate((f, m) for f in FAMILIES for m in MICRO_KINDS):
        out.append(DesignConfig(
            model_family=family, micro_conv=micro,
            macro_agg=None if family == "Homogenization" else "Attention",
            attention_form=("SimpleHGN" if (family, micro) == ("Homogenization", "GATConv")
                            else "GAT"),
            metapaths=((("PcP", ("cites",)), ("PAP", ("pa", "ap")))
                       if family == "Metapath" else ()),
            has_bn=True, dropout_p=0.3, activation=ACTIVATIONS[k % len(ACTIVATIONS)],
            has_l2norm=True, connectivity="SKIP-CAT", pre_layers=2, post_layers=2,
            hidden_dim=8, seed=k, task=task_kind))
    return out


def recorded_dtypes(monkeypatch):
    """Record the dtype of every primitive's output and of every gradient
    a vector-Jacobian closure takes or returns, by where it was seen."""
    seen = set()
    real_make = T._make

    def make(data, parents, vjp):
        seen.add(("output", np.asarray(data).dtype))

        def recorded_vjp(g):
            grads = vjp(g)
            seen.update(("gradient", np.asarray(x).dtype) for x in (g, *grads)
                        if x is not None)
            return grads

        return real_make(data, parents, recorded_vjp)

    monkeypatch.setattr(T, "_make", make)
    return seen


def model_dtypes(model, opt):
    """(what, dtype) of every array the model and its optimizer keep:
    parameters, Adam moments, batch-norm statistics, features and the
    aggregation plans' entries."""
    data = model._graph_cache[1]
    found = {("parameter", p.data.dtype) for p in model.parameters()}
    found |= {("moment", m.dtype) for slot in opt.slots.values() for m in slot}
    found |= {("bn statistic", a.dtype) for layer in model.mp for bn in layer.bns.values()
              for a in (bn.state.running_mean, bn.state.running_var)}
    found |= {("feature", x.data.dtype) for x in data["feats"].values()}
    found |= {("plan", plan.matrix.dtype) for plan in data["plans"]}
    return found


@pytest.mark.parametrize("kind", ["NC", "LP"])
def test_a_trial_keeps_no_float64_array(monkeypatch, kind):
    """Every family and micro convolution, with every post-op, SKIP-CAT pads,
    a fused Attention macro and each activation: the tape outputs, the
    gradients, the parameters, Adam's moments, the batch-norm statistics,
    the features and the plans of a trial are float32 (an attention plan
    keeps the adjacency's integer counts)."""
    g = shared_cells_graph()
    task = (Task("node_classification", "P", num_classes=4) if kind == "NC"
            else Task("link_prediction", "ap"))
    split = make_splits(task, g, 1, seed=2)[0]
    optimizers = []

    def make_opt(*args):
        optimizers.append(make_optimizer(*args))
        return optimizers[-1]

    monkeypatch.setattr(train_mod, "make_optimizer", make_opt)
    seen = recorded_dtypes(monkeypatch)
    for cfg in precision_configs(task.kind):
        start = TrialStart(cfg, g, task)
        rec = train_trial(cfg, g, split, task, max_epochs=2, start=start)
        assert rec.status == "ok", (cfg, rec.reason)
        macros = [m for layer in start.model.mp for m in layer.macros.values()]
        assert bool(macros) == (cfg.model_family != "Homogenization")
        seen |= model_dtypes(start.model, optimizers[-1])
    kinds = {what for what, _ in seen}
    assert kinds == {"output", "gradient", "parameter", "moment", "bn statistic",
                     "feature", "plan"}
    assert {(w, d) for w, d in seen if d == np.float64} == set()
    assert {d for w, d in seen if w != "plan"} == {np.dtype(np.float32)}


def test_a_default_model_computes_in_float64(monkeypatch):
    """`build_model` without a dtype, as the oracles call it: a training
    forward, backward and Adam step keep every array in float64."""
    g = shared_cells_graph()
    task = Task("node_classification", "P", num_classes=4)
    split = make_splits(task, g, 1, seed=2)[0]
    seen = recorded_dtypes(monkeypatch)
    for cfg in precision_configs(task.kind):
        model = build_model(cfg, g, num_classes=4, target_type="P")
        opt = make_optimizer(cfg.optimizer, model.parameters(), cfg.lr)
        logits = model.predict_logits(g, training=True,
                                      rng=np.random.default_rng(cfg.seed))
        rows = T.SegmentIndex(split.train, g.labels["P"].shape[0])
        cross_entropy(T.gather_rows(logits, rows), g.labels["P"][split.train]).backward()
        opt.step()
        seen |= model_dtypes(model, opt)
    assert {d for w, d in seen if w != "plan"} == {np.dtype(np.float64)}
    assert {d for w, d in seen if w == "plan"} <= {np.dtype(np.float64),
                                                   np.dtype(np.int64)}
