"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Budgets follow the stated limits; expected values come
from independent oracles computed inside this module or frozen constants."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import hgnn_space.designspace as ds
import hgnn_space.layers as L
import hgnn_space.tensor as T
from hgnn_space.analysis import edf, rank_choices
from hgnn_space.cli import main as cli_main
from hgnn_space.hgraph import (SyntheticSpec, build_graph, generate_synthetic,
                               save_graph)
from hgnn_space.model import FAMILIES, DesignConfig, build_model, score_links
from hgnn_space.runner import (ExperimentPlan, read_results, run_plan,
                               run_trial_by_id, save_config_list,
                               _finalized_line, _record_to_json)
from hgnn_space.tensor import Tensor
from hgnn_space.train import binary_cross_entropy, cross_entropy
from hgnn_space.transform import (MetaPath, Subgraph, compose_metapath,
                                  extract_relation_subgraphs, homogenize,
                                  homophily)
from hgnn_space.sparse import from_edges

from conftest import kink_safe_grad_check, nudge

DECLARED_METAPATHS = (("PAP", ("pa", "ap")), ("APA", ("ap", "pa")))


def _announce(k, started, summary):
    print(f"\nACCEPTANCE {k} PASS ({time.perf_counter() - started:.1f}s) — {summary}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    spec = SyntheticSpec(
        node_types=(("P", 60, 8), ("A", 30, 8)),
        relations=(("ap", "A", "P", 150), ("pa", "P", "A", 150)),
        target_type="P", num_communities=4, boost=0.9, noise=0.05, seed=21)
    path = tmp_path_factory.mktemp("proto") / "bundle"
    return save_graph(generate_synthetic(spec), path)


@pytest.fixture(scope="module")
def protocol_run(small_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("proto_out") / "results.ndrec"
    plan = ExperimentPlan(
        graph=str(small_bundle), task="node_classification", target="P",
        space="condensed", n=264, strata_hits=2, splits=3, seed=13,
        metapaths=DECLARED_METAPATHS, out=str(out), epoch_override=2)
    started = time.perf_counter()
    path = run_plan(plan)
    return {"plan": plan, "path": path, "seconds": time.perf_counter() - started,
            "bytes": Path(path).read_bytes()}


# ---------------------------------------------------------------------------
# 1. design-space cardinality
# ---------------------------------------------------------------------------

def test_acceptance_1_cardinality(capsys):
    started = time.perf_counter()
    cli_main(["space", "cardinality", "--space", "full"])
    full = int(capsys.readouterr().out.strip())
    cli_main(["space", "cardinality", "--space", "condensed"])
    condensed = int(capsys.readouterr().out.strip())
    elapsed = time.perf_counter() - started
    assert full == 41_990_400
    assert condensed == 82_944
    assert round(full / condensed) == 506
    assert elapsed < 1.0
    _announce(1, started, f"full={full}, condensed={condensed}, "
                          f"ratio={full / condensed:.2f}")


# ---------------------------------------------------------------------------
# 2. meta-path composition vs exhaustive path enumeration
# ---------------------------------------------------------------------------

def _enumerate_paths(g, relation_names):
    """Independent oracle: walk every path instance along the chain."""
    rels = [g.relation(n) for n in relation_names]
    n_src = g.node_type(rels[0].src_type).count
    n_dst = g.node_type(rels[-1].dst_type).count
    counts = np.zeros((n_dst, n_src), dtype=np.int64)
    dense = [g.adjacency[n].toarray() for n in relation_names]

    def walk(step, node, start):
        if step == len(rels):
            counts[node, start] += 1
            return
        col = dense[step][:, node]
        for nxt in np.nonzero(col)[0]:
            for _ in range(col[nxt]):
                walk(step + 1, nxt, start)

    for start in range(n_src):
        walk(0, start, start)
    return counts


def test_acceptance_2_metapath_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(200):
        n_types = int(rng.integers(1, 5))
        counts = rng.integers(2, 13, size=n_types)
        while counts.sum() > 50:
            counts = rng.integers(2, 13, size=n_types)
        node_types = [(f"t{i}", int(c), 0) for i, c in enumerate(counts)]
        n_rel = int(rng.integers(1, 5))
        relations, edge_lists = [], {}
        for k in range(n_rel):
            s = f"t{int(rng.integers(0, n_types))}"
            d = f"t{int(rng.integers(0, n_types))}"
            relations.append((f"r{k}", s, d))
            ns = int(counts[int(s[1:])])
            nd = int(counts[int(d[1:])])
            mask = rng.random((ns, nd)) < 0.2
            src, dst = np.nonzero(mask)
            edge_lists[f"r{k}"] = np.stack([src, dst], axis=1)
        g = build_graph(node_types, relations, edge_lists)
        by_src = {}
        for r in g.relations:
            by_src.setdefault(r.src_type, []).append(r)
        length = int(rng.integers(1, 4))
        chain = [g.relations[int(rng.integers(0, n_rel))]]
        while len(chain) < length and by_src.get(chain[-1].dst_type):
            opts = by_src[chain[-1].dst_type]
            chain.append(opts[int(rng.integers(0, len(opts)))])
        names = tuple(r.name for r in chain)
        sub = compose_metapath(g, MetaPath("mp", names))
        assert np.array_equal(sub.adjacency.toarray(), _enumerate_paths(g, names))
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200
    assert elapsed < 30.0
    _announce(2, started, f"{checked} random graphs, counts exactly match "
                          "exhaustive enumeration")


# ---------------------------------------------------------------------------
# 3. gradient suite over the layer configuration grid
# ---------------------------------------------------------------------------

POST_COMBOS = [(bn, act, l2)
               for bn in (False, True)
               for act in ("ReLU", "LeakyReLU", "ELU", "Tanh", "PReLU")
               for l2 in (False, True)]


def _grad_fixture():
    rng = np.random.default_rng(77)
    g = build_graph(
        [("P", 4, 3), ("A", 3, 3)],
        [("ap", "A", "P"), ("pa", "P", "A")],
        {"ap": np.array([[0, 0], [1, 0], [1, 1], [2, 3]]),
         "pa": np.array([[0, 1], [3, 2], [2, 0]])},
        features={"P": rng.standard_normal((4, 3)),
                  "A": rng.standard_normal((3, 3))})
    return g


def _check_dual(g, micro, macro, post, seed):
    bn_on, act_name, l2 = post
    subs = [s for s in extract_relation_subgraphs(g, g.relation_names)
            if s.dst_type == "P"]
    plans = [L.aggregation_plan(micro, s) for s in subs]
    prng = np.random.default_rng(seed)
    convs = [L.make_micro_conv(micro, 3, 3, prng, f"c{i}") for i in range(len(subs))]
    macro_mod = L.make_macro(macro, 3, prng, "m")
    act = L.Activation(act_name, prefix="act")
    bn = L.BatchNorm(3, "bn") if bn_on else None
    hp, ha = Tensor(g.features["P"]), Tensor(g.features["A"])
    v = np.random.default_rng(seed + 1).standard_normal((4, 3))

    def f():
        feats = {"P": hp, "A": ha}
        zs = [conv(plan, feats[s.src_type], feats[s.dst_type])
              for s, plan, conv in zip(subs, plans, convs)]
        fused = macro_mod(zs)  # P receives two subgraphs
        # dropout off, BN frozen (eval-mode running stats)
        out = L.intra_layer_post(fused, bn, 0.0, act, l2, training=False)
        return T.tsum(T.mul(out, Tensor(v)))

    params = [p for c in convs for p in c.parameters()]
    params += macro_mod.parameters() + act.parameters()
    if bn is not None:
        params += bn.parameters()
    nudge(params, seed + 3)
    return kink_safe_grad_check(f, params, seed + 2)


def _check_direct(g, micro, form, post, seed):
    bn_on, act_name, l2 = post
    hg = homogenize(g)
    plan = L.aggregation_plan(micro, hg)
    prng = np.random.default_rng(seed)
    conv = L.make_micro_conv(micro, 3, 3, prng, "c", attention_form=form,
                             n_edge_types=2)
    act = L.Activation(act_name, prefix="act")
    bn = L.BatchNorm(3, "bn") if bn_on else None
    h = Tensor(np.concatenate([g.features["P"], g.features["A"]], axis=0))
    v = np.random.default_rng(seed + 1).standard_normal((7, 3))

    def f():
        z = conv(plan, h, h)
        out = L.intra_layer_post(z, bn, 0.0, act, l2, training=False)
        return T.tsum(T.mul(out, Tensor(v)))

    params = conv.parameters() + act.parameters()
    if bn is not None:
        params += bn.parameters()
    nudge(params, seed + 3)
    return kink_safe_grad_check(f, params, seed + 2)


def test_acceptance_3_gradient_suite():
    started = time.perf_counter()
    g = _grad_fixture()
    fusing = _fusing_fixture()  # P receives ap and pp: every macro fuses two
    worst = 0.0
    n_checks = 0
    for mi, micro in enumerate(L.MICRO_KINDS):
        for ma, macro in enumerate(L.MACRO_KINDS):
            for pi, post in enumerate(POST_COMBOS):
                err = _check_dual(fusing, micro, macro, post,
                                  seed=1000 + 100 * mi + 10 * ma + pi)
                assert err < 1e-4, f"dual {micro}/{macro}/{post}: {err:.2e}"
                worst = max(worst, err)
                n_checks += 1
    for mi, micro in enumerate(L.MICRO_KINDS):
        for fi, form in enumerate(L.ATTENTION_FORMS):
            for pi, post in enumerate(POST_COMBOS[::5]):
                err = _check_direct(g, micro, form, post,
                                    seed=5000 + 100 * mi + 10 * fi + pi)
                assert err < 1e-4, f"direct {micro}/{form}/{post}: {err:.2e}"
                worst = max(worst, err)
                n_checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _announce(3, started, f"{n_checks} layer configurations, worst relative "
                          f"error {worst:.2e} < 1e-4")


_TASKS = ("node_classification", "link_prediction")


@pytest.mark.parametrize("family,connectivity,task,mp_layers", [
    *(pytest.param(f, c, t, 2, id=f"{f}-{c}-{t}")
      for t in _TASKS for c in L.CONNECTIVITIES for f in FAMILIES),
    # three stacked layers, where SKIP-CAT widens every layer's input
    *(pytest.param(f, "SKIP-CAT", t, 3, id=f"{f}-SKIP-CAT-{t}-3layers")
      for t in _TASKS for f in FAMILIES)])
def test_whole_model_gradient_of_the_task_loss(family, connectivity, task, mp_layers):
    """Every parameter's gradient of the training loss, through pre-process,
    the message-passing layers with their connection, post-process, the
    head and the loss, against central differences. Batch norm runs in eval
    mode and dropout is off, so the loss is a fixed function."""
    case = (L.CONNECTIVITIES.index(connectivity) + 3 * FAMILIES.index(family)
            + 9 * (mp_layers - 2))
    cfg = DesignConfig(
        model_family=family, micro_conv=L.MICRO_KINDS[case % len(L.MICRO_KINDS)],
        macro_agg=None if family == "Homogenization" else L.MACRO_KINDS[case % 4],
        has_bn=True, dropout_p=0.3, activation="Tanh", has_l2norm=True,
        connectivity=connectivity, pre_layers=2, mp_layers=mp_layers, post_layers=2,
        hidden_dim=8, task=task, seed=case,
        metapaths=DECLARED_METAPATHS if family == "Metapath" else ())
    err = _task_loss_grad_error(_grad_fixture(), cfg, case)
    assert err < 1e-4, f"{family}/{connectivity}/{task}/{mp_layers}: {err:.2e}"


def _fusing_fixture():
    """`_grad_fixture` with a P -> P relation, so that P receives two
    relations (ap, pp) and two meta-paths (PAP, PP)."""
    return build_graph(
        [("P", 4, 3), ("A", 3, 3)],
        [("ap", "A", "P"), ("pa", "P", "A"), ("pp", "P", "P")],
        {"ap": np.array([[0, 0], [1, 0], [1, 1], [2, 3]]),
         "pa": np.array([[0, 1], [3, 2], [2, 0]]),
         "pp": np.array([[0, 1], [1, 1], [2, 0], [3, 2], [3, 3]])},
        features=_grad_fixture().features)


@pytest.mark.parametrize("family,macro,task", [
    pytest.param(f, m, _TASKS[(i + j) % 2], id=f"{f}-{m}-{_TASKS[(i + j) % 2]}")
    for i, f in enumerate(("Relation", "Metapath"))
    for j, m in enumerate(L.MACRO_KINDS)])
def test_whole_model_gradient_through_a_two_subgraph_fusion(family, macro, task):
    """The same oracle where every macro fuses two subgraphs at P; a lone
    subgraph passes through its macro untouched, so the cases above run
    none."""
    case = 40 + 4 * FAMILIES.index(family) + L.MACRO_KINDS.index(macro)
    cfg = DesignConfig(
        model_family=family, micro_conv=L.MICRO_KINDS[case % len(L.MICRO_KINDS)],
        macro_agg=macro, has_bn=True, dropout_p=0.3, activation="Tanh",
        has_l2norm=True, connectivity=L.CONNECTIVITIES[case % 3], pre_layers=2,
        mp_layers=2, post_layers=2, hidden_dim=8, task=task, seed=case,
        metapaths=(("PAP", ("pa", "ap")), ("PP", ("pp",))) if family == "Metapath"
        else ())
    err = _task_loss_grad_error(_fusing_fixture(), cfg, case)
    assert err < 1e-4, f"{family}/{macro}/{task}: {err:.2e}"


def _task_loss_grad_error(g, cfg, case):
    """The gradient check's worst relative error for the task loss of `cfg`
    on `g`, with every parameter nudged and batch norm frozen at random
    running statistics."""
    model = build_model(cfg, g, num_classes=3, target_type="P")
    params = model.parameters()
    nudge(params, 700 + case)
    rng = np.random.default_rng(701 + case)
    for bn in (bn for layer in model.mp for bn in layer.bns.values()):
        bn.state.running_mean = rng.standard_normal(8)
        bn.state.running_var = rng.uniform(0.5, 2.0, 8)
    train_idx, labels = np.array([0, 1, 3]), np.array([2, 0, 1, 1])
    train_rows = T.SegmentIndex(train_idx, 4)
    n_p, n_a = g.adjacency["ap"].shape
    pos, neg = ((T.SegmentIndex(p[:, 0], n_a), T.SegmentIndex(p[:, 1], n_p))
                for p in (np.array([[0, 0], [1, 1], [2, 3]]), np.array([[2, 0], [0, 3]])))

    def f():
        if cfg.task == "node_classification":
            logits = model.predict_logits(g)
            return cross_entropy(T.gather_rows(logits, train_rows), labels[train_idx])
        out = model.forward(g, types=("A", "P"))
        return binary_cross_entropy(
            score_links(out["A"], out["P"], *pos),
            score_links(out["A"], out["P"], *neg))

    return kink_safe_grad_check(f, params, 702 + case)


# ---------------------------------------------------------------------------
# 4. dual-vs-direct equivalence and the SimpleHGN reduction
# ---------------------------------------------------------------------------

def test_acceptance_4_equivalence_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for round_ in range(3):
        n = int(rng.integers(8, 24))
        adj = (rng.random((n, n)) < 0.25).astype(np.int64)
        dst, src = np.nonzero(adj)
        g = build_graph([("X", n, 6)], [("r", "X", "X")],
                        {"r": np.stack([src, dst], axis=1)},
                        features={"X": rng.standard_normal((n, 6))},
                        labels={"X": rng.integers(0, 3, n)})
        for micro in L.MICRO_KINDS:
            for macro in ("Sum", "Mean", "Max"):
                rel = DesignConfig(model_family="Relation", micro_conv=micro,
                                   macro_agg=macro, hidden_dim=16, mp_layers=2,
                                   activation="Tanh", connectivity="SKIP-SUM",
                                   seed=3 + round_)
                hom = rel.with_values(model_family="Homogenization",
                                      macro_agg=None)
                m_rel = build_model(rel, g, num_classes=3, target_type="X")
                m_hom = build_model(hom, g, num_classes=3, target_type="X")
                diff = np.abs(m_rel.forward(g)["X"].data
                              - m_hom.forward(g)["X"].data).max()
                assert diff < 1e-10, f"{micro}/{macro}: {diff:.2e}"
        # SimpleHGN with zeroed relation projection reduces to GAT, bit-for-bit
        hg = homogenize(g)
        h = Tensor(g.features["X"])
        gat = L.GATConv(6, 8, np.random.default_rng(16), "g", form="GAT")
        shgn = L.GATConv(6, 8, np.random.default_rng(16), "g",
                         form="SimpleHGN", n_edge_types=1)
        shgn.W_r.data[:] = 0.0
        plan = L.aggregation_plan("GATConv", hg)
        assert np.array_equal(gat(plan, h, h).data,
                              shgn(plan, h, h).data)
    _announce(4, started, "Relation == Homogenization to 1e-10 (12 combos x 3 "
                          "graphs); SimpleHGN(W_r=0) == GAT bit-for-bit")


# ---------------------------------------------------------------------------
# 5. attention normalization scopes
# ---------------------------------------------------------------------------

def test_acceptance_5_attention_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(10):
        # dual scope: softmax per subgraph
        n_p, n_a = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        ap = np.stack(np.nonzero(rng.random((n_a, n_p)) < 0.5), axis=1)
        pp = np.stack(np.nonzero(rng.random((n_p, n_p)) < 0.5), axis=1)
        g = build_graph([("P", n_p, 4), ("A", n_a, 4)],
                        [("ap", "A", "P"), ("pp", "P", "P")],
                        {"ap": ap, "pp": pp},
                        features={"P": rng.standard_normal((n_p, 4)),
                                  "A": rng.standard_normal((n_a, 4))})
        conv = L.GATConv(4, 4, np.random.default_rng(9), "g")
        feats = {"P": Tensor(g.features["P"]), "A": Tensor(g.features["A"])}
        for sub in extract_relation_subgraphs(g, g.relation_names):
            plan = L.aggregation_plan("GATConv", sub)
            seg = plan.by_row
            alpha = conv._attention(plan, feats[sub.src_type], feats[sub.dst_type])[1]
            sums = np.zeros(seg.num_segments)
            np.add.at(sums, seg.index, alpha.data[:, 0])
            present = np.bincount(seg.index, minlength=seg.num_segments) > 0
            if present.any():
                assert np.abs(sums[present] - 1.0).max() < 1e-12
        # direct scope: softmax over the full homogenized neighborhood
        hg = homogenize(g)
        plan = L.aggregation_plan("GATConv", hg)
        h = Tensor(np.concatenate([g.features["P"], g.features["A"]], axis=0))
        for form in L.ATTENTION_FORMS:
            conv = L.GATConv(4, 4, np.random.default_rng(10), "g", form=form,
                             n_edge_types=2)
            seg = plan.by_row
            alpha = conv._attention(plan, h, h)[1]
            sums = np.zeros(seg.num_segments)
            np.add.at(sums, seg.index, alpha.data[:, 0])
            present = np.bincount(seg.index, minlength=seg.num_segments) > 0
            if present.any():
                assert np.abs(sums[present] - 1.0).max() < 1e-12
    _announce(5, started, "softmax sums = 1 +/- 1e-12 per subgraph (dual) and "
                          "per full neighborhood (direct)")


# ---------------------------------------------------------------------------
# 6. homophily oracle
# ---------------------------------------------------------------------------

def _brute_homophily(dense, labels):
    fractions = []
    for v in range(dense.shape[0]):
        nbrs = [u for u in range(dense.shape[0]) if dense[u, v] >= 1]
        if nbrs:
            fractions.append(np.mean([labels[u] == labels[v] for u in nbrs]))
    return float(np.mean(fractions)) if fractions else 0.0


def test_acceptance_6_homophily_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        dense = (rng.random((n, n)) < 0.3).astype(int) * rng.integers(1, 3, (n, n))
        labels = rng.integers(0, 4, n)
        sub = Subgraph("r", "X", "X",
                       from_edges(*np.nonzero(dense), n, n,
                                  data=dense[np.nonzero(dense)]))
        assert homophily(sub, labels) == pytest.approx(
            _brute_homophily(dense, labels), abs=1e-15)
    uniform = Subgraph("r", "X", "X", from_edges([0, 1], [1, 0], 2, 2))
    assert homophily(uniform, np.zeros(2, dtype=int)) == 1.0
    spec = SyntheticSpec(
        node_types=(("P", 48, 4), ("A", 24, 4)),
        relations=(("ap", "A", "P", 120), ("pa", "P", "A", 120)),
        target_type="P", num_communities=4, boost=1.0, noise=0.0, seed=2)
    g = generate_synthetic(spec)
    beta = homophily(compose_metapath(g, MetaPath("PAP", ("pa", "ap"))),
                     g.labels["P"])
    assert beta == 1.0
    _announce(6, started, "beta matches brute force on 100 random subgraphs; "
                          "uniform labels and boost=1/noise=0 give beta = 1")


# ---------------------------------------------------------------------------
# 7. end-to-end learning on a planted-partition graph
# ---------------------------------------------------------------------------

def test_acceptance_7_end_to_end_learning(tmp_path):
    started = time.perf_counter()
    spec = SyntheticSpec(
        node_types=(("P", 1200, 16), ("A", 800, 16)),
        relations=(("ap", "A", "P", 4000), ("pa", "P", "A", 4000)),
        target_type="P", num_communities=4, boost=0.9, noise=0.05, seed=7)
    bundle = save_graph(generate_synthetic(spec), tmp_path / "bundle")
    rgcn = DesignConfig(model_family="Relation", micro_conv="SageConv",
                        macro_agg="Sum", hidden_dim=64, mp_layers=2,
                        optimizer="Adam", lr=0.01, epochs=100,
                        connectivity="SKIP-SUM", seed=1)
    han = DesignConfig(model_family="Metapath", micro_conv="GATConv",
                       macro_agg="Attention", hidden_dim=64, mp_layers=2,
                       optimizer="Adam", lr=0.01, epochs=100,
                       connectivity="SKIP-SUM", seed=1,
                       metapaths=DECLARED_METAPATHS)
    degenerate = DesignConfig(model_family="Relation", micro_conv="GINConv",
                              macro_agg="Sum", optimizer="SGD", lr=0.1,
                              hidden_dim=128, mp_layers=6, epochs=100,
                              connectivity="SKIP-SUM", seed=3)
    cfg_path = tmp_path / "configs.json"
    save_config_list([rgcn, han, degenerate], cfg_path)
    plan = ExperimentPlan(graph=str(bundle), task="node_classification",
                          target="P", space=str(cfg_path), splits=1, seed=5,
                          out=str(tmp_path / "r.ndrec"))
    out = run_plan(plan)  # the degenerate trial must not break the batch
    records = read_results(out)
    assert len(records) == 3
    rgcn_rec, han_rec, degen_rec = records  # config order x the single split
    assert rgcn_rec["config"]["micro_conv"] == "SageConv"
    assert han_rec["config"]["model_family"] == "Metapath"
    assert rgcn_rec["status"] == "ok" and rgcn_rec["best_score"] >= 0.9
    assert han_rec["status"] == "ok" and han_rec["best_score"] >= 0.9
    assert degen_rec["status"] == "failed" or degen_rec["best_score"] < 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _announce(7, started, f"RGCN point macro-F1 {rgcn_rec['best_score']:.3f}, "
                          f"HAN point {han_rec['best_score']:.3f} (>= 0.9); "
                          f"degenerate SGD/lr=0.1 trial status="
                          f"{degen_rec['status']} without crashing the batch")


# ---------------------------------------------------------------------------
# 8. controlled-random-search protocol at desk scale
# ---------------------------------------------------------------------------

def test_acceptance_8_protocol_reproduction(protocol_run, small_bundle, tmp_path):
    started = time.perf_counter()
    records = read_results(protocol_run["path"])
    assert len(records) == 264 * 3
    cells = {}
    for r in records[:: 3]:  # one entry per config
        key = (r["config"]["model_family"], r["config"]["micro_conv"])
        cells[key] = cells.get(key, 0) + 1
    for fam in ("Homogenization", "Relation", "Metapath"):
        for micro in L.MICRO_KINDS:
            assert cells.get((fam, micro), 0) >= 2

    rerun = run_plan(protocol_run["plan"], parallelism=4)
    assert Path(rerun).read_bytes() == protocol_run["bytes"]

    # ranking over an explicitly expanded dimension: perturbation setups
    space = ds.condensed_space()
    bases = ds.sample_controlled(space, 4, (), seed=99,
                                 metapaths=DECLARED_METAPATHS)
    expanded = [c for b in bases
                for c in ds.perturb_dimension(b, "activation", space)]
    cfg_path = tmp_path / "expanded.json"
    save_config_list(expanded, cfg_path)
    plan = ExperimentPlan(graph=str(small_bundle), task="node_classification",
                          target="P", space=str(cfg_path), splits=2, seed=4,
                          out=str(tmp_path / "rank.ndrec"), epoch_override=2)
    rank_results = run_plan(plan)
    assert cli_main(["analyze", "rank", "--dim", "activation",
                     "--results", rank_results,
                     "--out-dir", str(tmp_path / "rank_out")]) == 0
    assert (tmp_path / "rank_out" / "rank_activation.csv").exists()
    table = rank_choices(read_results(rank_results), "activation")
    assert table.n_setups == 4 * 2
    k = len(table.choices)
    for i in range(table.n_setups):
        setup_ranks = sorted(table.ranks[c][i] for c in table.choices)
        assert sum(setup_ranks) == pytest.approx(k * (k + 1) / 2)
        assert all(1.0 <= r <= k for r in setup_ranks)

    # rigged objective: one choice dominates every setup
    rigged = []
    for setup in range(5):
        base = bases[setup % len(bases)].with_values(seed=setup)
        for choice in space.dim("has_bn").choices:
            cfg = base.with_values(has_bn=choice).to_flat()
            rigged.append({"config": cfg, "split_id": 0, "status": "ok",
                           "best_score": 0.9 if choice is True else 0.4,
                           "metric": "macro_f1"})
    rig_table = rank_choices(rigged, "has_bn")
    assert rig_table.avg_rank[True] == 1.0
    elapsed = protocol_run["seconds"] + time.perf_counter() - started
    assert elapsed < 3600.0
    _announce(8, started, f"792 records ({protocol_run['seconds']:.0f}s), "
                          "byte-identical rerun at parallelism 4, per-setup "
                          "ranks are valid permutations, rigged dominator "
                          "averages rank 1.0")


# ---------------------------------------------------------------------------
# 9. empirical distribution function
# ---------------------------------------------------------------------------

def test_acceptance_9_edf():
    started = time.perf_counter()
    curve = edf([0.6, 0.7, 0.9])
    assert curve(0.8) == pytest.approx(2.0 / 3.0)
    assert curve(0.6) == 0.0  # strict inequality
    rng = np.random.default_rng(17)
    checks = 0
    while checks < 10_000:
        scores = rng.standard_normal(int(rng.integers(1, 30)))
        c = edf(scores)
        pts = np.sort(rng.standard_normal(10) * 2)
        vals = [c(s) for s in pts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))  # monotone
        assert c(scores.min()) == 0.0
        assert c(scores.max() + 1e-9) == 1.0
        checks += len(pts)
    _announce(9, started, "F(0.8)=2/3 and F(min)=0 under strict <; "
                          f"monotone and bounded on {checks} random inputs")


# ---------------------------------------------------------------------------
# 10. trial-level determinism
# ---------------------------------------------------------------------------

def test_acceptance_10_determinism(protocol_run):
    started = time.perf_counter()
    file_lines = {}
    with open(protocol_run["path"]) as fh:
        fh.readline()
        for line in fh:
            d = json.loads(line)
            file_lines[d["trial_id"]] = line.strip()
    for trial_id in (0, 397, 791):
        rec = run_trial_by_id(protocol_run["plan"], trial_id)
        assert _finalized_line(_record_to_json(rec)) == file_lines[trial_id]
    _announce(10, started, "isolated re-runs of trials 0/397/791 reproduce "
                           "their records bit-for-bit; parallelism "
                           "independence shown in criterion 8")
