import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hgnn_space.layers as L
import hgnn_space.tensor as T
from hgnn_space.hgraph import GraphError, build_graph, generate_synthetic
from hgnn_space.model import (FAMILIES, DesignConfig, Model, build_model, metapaths_from_text,
                              metapaths_to_text, score_links)
from hgnn_space.tensor import Parameter, SegmentIndex, Tensor, TensorError
from hgnn_space.train import Split, Task, cross_entropy, train_trial
from hgnn_space.transform import homogenize, type_offsets

from conftest import example_seed, kink_safe_grad_check, nudge, random_schemas, run_conv


def two_type_graph(rng, n_p=6, n_a=4, d=3, labeled=True):
    ap = np.stack(np.nonzero(rng.random((n_a, n_p)) < 0.5), axis=1)
    pa = np.stack(np.nonzero(rng.random((n_p, n_a)) < 0.5), axis=1)
    labels = {"P": rng.integers(0, 3, n_p)} if labeled else {}
    return build_graph(
        [("P", n_p, d), ("A", n_a, d)],
        [("ap", "A", "P"), ("pa", "P", "A")],
        {"ap": ap, "pa": pa},
        features={"P": rng.standard_normal((n_p, d)),
                  "A": rng.standard_normal((n_a, d))},
        labels=labels)


def _size(module):
    """Number of trainable scalars."""
    return sum(p.data.size for p in module.parameters())


RGCN_POINT = DesignConfig(model_family="Relation", micro_conv="SageConv",
                          macro_agg="Sum", hidden_dim=8, seed=1)
HAN_POINT = DesignConfig(model_family="Metapath", micro_conv="GATConv",
                         macro_agg="Attention", hidden_dim=8, seed=1,
                         metapaths=(("PAP", ("pa", "ap")),))


def test_design_points_build(tmp_path=None):
    g = two_type_graph(np.random.default_rng(0))
    m1 = build_model(RGCN_POINT, g, num_classes=3, target_type="P")
    m2 = build_model(HAN_POINT, g, num_classes=3, target_type="P")
    assert _size(m1) > 0 and _size(m2) > 0
    names = [p.name for p in m2.parameters()]
    assert len(names) == len(set(names))


def test_build_deterministic_given_seed():
    g = two_type_graph(np.random.default_rng(0))
    a = build_model(RGCN_POINT, g, num_classes=3, target_type="P")
    b = build_model(RGCN_POINT, g, num_classes=3, target_type="P")
    assert _size(a) == _size(b)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)


def test_invalid_config_rejected():
    g = two_type_graph(np.random.default_rng(0))
    bad = DesignConfig(model_family="Metapath", macro_agg="Sum", metapaths=())
    with pytest.raises(GraphError, match="metapaths"):
        build_model(bad, g, num_classes=3, target_type="P")
    bad2 = DesignConfig(model_family="Homogenization", macro_agg="Sum")
    with pytest.raises(GraphError, match="macro_agg"):
        build_model(bad2, g, num_classes=3, target_type="P")


def test_forward_dense_composition_oracle():
    """mp_layers=1, STACK, BN/L2 off, GCN micro: the whole forward pass is a
    chain of dense products recomputed here from the extracted parameters."""
    rng = np.random.default_rng(1)
    g = two_type_graph(rng)
    cfg = DesignConfig(model_family="Relation", micro_conv="GCNConv",
                       macro_agg="Sum", activation="ReLU", connectivity="STACK",
                       mp_layers=1, pre_layers=1, post_layers=1, hidden_dim=8,
                       seed=3)
    model = build_model(cfg, g, num_classes=3, target_type="P")
    out = model.forward(g, training=False)

    h = {t: g.features[t] @ model.pre.linears[t].W.data + model.pre.linears[t].b.data
         for t in ("P", "A")}
    layer = model.mp[0]

    def gcn_out(rel_idx, rel_name, src, dst):
        conv = layer.convs[rel_idx]
        A = g.adjacency[rel_name].toarray().astype(float)
        din = A.sum(axis=1)
        norm = np.divide(A, din[:, None], out=np.zeros_like(A),
                         where=din[:, None] > 0)
        return norm @ h[src] @ conv.lin.W.data + conv.lin.b.data

    z = {"P": gcn_out(0, "ap", "A", "P"), "A": gcn_out(1, "pa", "P", "A")}
    z = {t: np.maximum(v, 0.0) for t, v in z.items()}  # ReLU, STACK
    for t in ("P", "A"):
        W, b = model.post[0][0].W, model.post[0][0].b
        want = z[t] @ W.data + b.data
        assert np.allclose(out[t].data, want, atol=1e-12)


def test_skip_cat_width_arithmetic():
    g = two_type_graph(np.random.default_rng(2))
    cfg = DesignConfig(model_family="Relation", micro_conv="GCNConv",
                       macro_agg="Sum", connectivity="SKIP-CAT", mp_layers=3,
                       hidden_dim=8, seed=0)
    model = build_model(cfg, g, num_classes=3, target_type="P")
    assert model.widths_in == (8, 16, 24)
    assert model.final_width == 8 * 4  # input plus three layers
    out = model.forward(g, training=False)
    assert out["P"].shape == (6, 8)   # post-process returns hidden width


def test_eval_forward_is_bitwise_repeatable():
    g = two_type_graph(np.random.default_rng(3))
    cfg = DesignConfig(model_family="Relation", micro_conv="GATConv",
                       macro_agg="Attention", has_bn=True, dropout_p=0.3,
                       activation="PReLU", has_l2norm=True, hidden_dim=8, seed=5)
    model = build_model(cfg, g, num_classes=3, target_type="P")
    a = model.forward(g, training=False)
    b = model.forward(g, training=False)
    for t in ("P", "A"):
        assert np.array_equal(a[t].data, b[t].data)


def test_train_forward_deterministic_given_rng_seed():
    g = two_type_graph(np.random.default_rng(4))
    cfg = DesignConfig(model_family="Relation", micro_conv="GCNConv",
                       macro_agg="Sum", dropout_p=0.6, hidden_dim=8, seed=5)
    model = build_model(cfg, g, num_classes=3, target_type="P")
    a = model.forward(g, training=True, rng=np.random.default_rng(9))
    b = model.forward(g, training=True, rng=np.random.default_rng(9))
    c = model.forward(g, training=True, rng=np.random.default_rng(10))
    assert np.array_equal(a["P"].data, b["P"].data)
    assert not np.array_equal(a["P"].data, c["P"].data)


def test_one_model_sees_each_graph_it_is_run_on():
    base = two_type_graph(np.random.default_rng(0))
    model = build_model(RGCN_POINT, base, num_classes=3, target_type="P")
    g = dataclasses.replace(base)
    for seed in range(1, 4):
        model.forward(g)
        rng = np.random.default_rng(seed)
        feats = {t: rng.standard_normal(x.shape) for t, x in base.features.items()}
        del g  # the next graph usually takes the freed graph's object id
        g = dataclasses.replace(base, features=feats)
        want = build_model(RGCN_POINT, g, num_classes=3, target_type="P").forward(g)
        assert np.array_equal(model.forward(g)["P"].data, want["P"].data)


def test_forward_homogenization_family():
    g = two_type_graph(np.random.default_rng(5))
    cfg = DesignConfig(model_family="Homogenization", micro_conv="GATConv",
                       macro_agg=None, attention_form="SimpleHGN",
                       hidden_dim=8, mp_layers=2, seed=2)
    model = build_model(cfg, g, num_classes=3, target_type="P")
    out = model.forward(g, training=False)
    assert out["P"].shape == (6, 8)
    assert out["A"].shape == (4, 8)
    logits = model.predict_logits(g)
    assert logits.shape == (6, 3)


# ---------------------------------------------------------------------------
# demand-driven forward
# ---------------------------------------------------------------------------

def middle_target_graph(rng):
    """Types A, P, C with the target P in the middle of the type order; C
    only receives, so nothing that P reads depends on it."""
    return build_graph(
        [("A", 5, 3), ("P", 6, 3), ("C", 4, 0)],
        [("ap", "A", "P"), ("pa", "P", "A"), ("pc", "P", "C")],
        {"ap": np.stack(np.nonzero(rng.random((5, 6)) < 0.5), axis=1),
         "pa": np.stack(np.nonzero(rng.random((6, 5)) < 0.5), axis=1),
         "pc": np.stack(np.nonzero(rng.random((6, 4)) < 0.5), axis=1)},
        features={"A": rng.standard_normal((5, 3)),
                  "P": rng.standard_normal((6, 3))},
        labels={"P": rng.integers(0, 3, 6)})


def _pruning_cfg(family, micro, connectivity, **kw):
    macro = None if family == "Homogenization" else "Attention"
    # PAP and PC leave A receiving nothing, so A passes through every layer
    metapaths = (("PAP", ("pa", "ap")), ("PC", ("pc",))) if family == "Metapath" else ()
    fields = dict(model_family=family, micro_conv=micro, macro_agg=macro,
                  connectivity=connectivity, activation="PReLU", has_l2norm=True,
                  pre_layers=2, mp_layers=2, post_layers=2, hidden_dim=8, seed=4,
                  metapaths=metapaths)
    fields.update(kw)
    return DesignConfig(**fields)


def _forward_and_grads(cfg, g, request, types, training):
    """One forward on a fresh model asked for `request`: the `types`
    outputs, the generator's next draw, and every parameter's gradient of a
    loss that reads the `types` outputs only."""
    model = build_model(cfg, g, num_classes=3, target_type="P")
    rng = np.random.default_rng(12) if training else None
    out = model.forward(g, training=training, rng=rng, types=request)
    assert set(out) == set(request or model.type_names)
    weights = np.random.default_rng(13)
    loss = Tensor(0.0)
    for t in types:
        loss = T.add(loss, T.tsum(T.mul(out[t], Tensor(weights.standard_normal(out[t].shape)))))
    loss.backward()
    return ({t: out[t].data for t in types}, rng.random() if training else None,
            {p.name: p.grad for p in model.parameters()})


@pytest.mark.parametrize("connectivity", L.CONNECTIVITIES)
@pytest.mark.parametrize("micro", L.MICRO_KINDS)
@pytest.mark.parametrize("family", ("Homogenization", "Relation", "Metapath"))
def test_pruned_forward_equals_full_forward(family, micro, connectivity):
    g = middle_target_graph(np.random.default_rng(8))
    for types in (("P",), ("A",), ("C", "A")):
        for training in (False, True):
            # batch norm and dropout only act in training mode
            cfg = _pruning_cfg(family, micro, connectivity, has_bn=training,
                               dropout_p=0.3 if training else 0.0)
            full = _forward_and_grads(cfg, g, None, types, training)
            pruned = _forward_and_grads(cfg, g, types, types, training)
            for t in types:
                assert np.array_equal(pruned[0][t], full[0][t]), t
            assert pruned[1] == full[1]
            assert pruned[2].keys() == full[2].keys()
            for name, want in full[2].items():
                got = pruned[2][name]
                assert (got is None) == (want is None), name
                assert want is None or np.array_equal(got, want), name


def homogenization_forward_loop(model, g, training=False, rng=None, types=None):
    """The Homogenization stack as its own loop: every type projected and
    concatenated in type order, then per layer the convolution on the
    homogenized view, the post-ops and the connection over the fused
    matrix, then each requested type narrowed out and post-processed."""
    cfg = model.cfg
    want = model.type_names if types is None else [t for t in model.type_names
                                                   if t in types]
    h = model.pre({t.name: Tensor(g.features[t.name])
                   for t in g.node_types if t.feature_dim > 0})
    for linear, act in model.pre_extra:
        h = {t: act(x) for t, x in linear(h).items()}
    hg = homogenize(g)
    x = T.concat([h[t] for t in model.type_names], axis=0)
    for layer in model.mp:
        z = run_conv(layer.convs[0], hg, x, x)
        z = L.intra_layer_post(z, layer.bns.get("*"), cfg.dropout_p,
                               layer.activation, cfg.has_l2norm, training, rng)
        x = L.connect(cfg.connectivity, x, z)
    out = {}
    for t in want:
        lo = type_offsets(g)[t]
        y = T.narrow(x, 0, lo, lo + model.type_counts[t])
        for linear, act in model.post:
            y = T.add(T.matmul(y, linear.W), linear.b)
            if act is not None:
                y = act(y)
        out[t] = y
    return out


@pytest.mark.parametrize("connectivity", L.CONNECTIVITIES)
@pytest.mark.parametrize("micro", L.MICRO_KINDS)
def test_homogenization_forward_equals_its_own_loop(micro, connectivity):
    g = middle_target_graph(np.random.default_rng(8))
    for types in (None, ("P",), ("A",), ("C", "A")):
        for training in (False, True):
            cfg = _pruning_cfg("Homogenization", micro, connectivity,
                               attention_form="SimpleHGN" if micro == "GATConv"
                               else "GAT", has_bn=training,
                               dropout_p=0.3 if training else 0.0)
            got, want = [], []
            for forward, into in ((Model.forward, got),
                                  (homogenization_forward_loop, want)):
                model = build_model(cfg, g, num_classes=3, target_type="P")
                rng = np.random.default_rng(12) if training else None
                out = forward(model, g, training=training, rng=rng, types=types)
                loss = Tensor(0.0)
                weights = np.random.default_rng(13)
                for t in sorted(out):
                    loss = T.add(loss, T.tsum(T.mul(
                        out[t], Tensor(weights.standard_normal(out[t].shape)))))
                loss.backward()
                into += [{t: v.data for t, v in out.items()},
                         rng.random() if training else None,
                         [(p.name, p.grad) for p in model.parameters()]]
            assert got[0].keys() == want[0].keys()
            for t in want[0]:
                assert np.array_equal(got[0][t], want[0][t]), t
            assert got[1] == want[1]
            assert [n for n, _ in got[2]] == [n for n, _ in want[2]]
            for (name, a), (_, b) in zip(got[2], want[2]):
                assert (a is None) == (b is None), name
                assert b is None or np.array_equal(a, b), name


def test_metapath_model_on_target_p_skips_every_apa_convolution(monkeypatch):
    g = two_type_graph(np.random.default_rng(9))
    cfg = HAN_POINT.with_values(metapaths=(("PAP", ("pa", "ap")),
                                           ("APA", ("ap", "pa"))))
    model = build_model(cfg, g, num_classes=3, target_type="P")
    apa = {id(layer.convs[1]) for layer in model.mp}
    called, taped = [], [0]
    real_call, real_make = L.GATConv.__call__, T._make

    def spy_call(conv, *args):
        called.append(id(conv))
        return real_call(conv, *args)

    def spy_make(*args):
        out = real_make(*args)
        taped[0] += out._vjp is not None
        return out

    monkeypatch.setattr(L.GATConv, "__call__", spy_call)
    monkeypatch.setattr(T, "_make", spy_make)
    model.forward(g)
    full_nodes = taped[0]
    assert apa <= set(called)
    called.clear()
    taped[0] = 0
    model.predict_logits(g)
    assert called and not apa & set(called)
    assert taped[0] < full_nodes


def test_forward_rejects_unknown_types():
    g = two_type_graph(np.random.default_rng(0))
    model = build_model(RGCN_POINT, g, num_classes=3, target_type="P")
    with pytest.raises(GraphError, match="unknown node types"):
        model.forward(g, types=("P", "Q"))


# ---------------------------------------------------------------------------
# score_links
# ---------------------------------------------------------------------------

def test_score_links_closed_forms():
    def pair(h, src, dst):  # an id out of range is refused here
        n = h.shape[0]
        return h, h, SegmentIndex([src], n), SegmentIndex([dst], n)

    # the link logit is the dot product; its sigmoid is the link probability
    z = Tensor(np.zeros((2, 4)))
    s = score_links(*pair(z, 0, 1))
    assert s.data.tolist() == [[0.0]]
    assert T.sigmoid(s).data.tolist() == [[0.5]]
    ortho = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert score_links(*pair(ortho, 0, 1)).data.tolist() == [[0.0]]
    unit = Tensor(np.array([[1.0, 0.0]]))
    got = score_links(*pair(unit, 0, 0))
    assert got.data.tolist() == [[1.0]]
    assert T.sigmoid(got).data.item() == pytest.approx(0.7310585786300049, abs=1e-12)
    with pytest.raises(TensorError, match="out of range"):
        score_links(*pair(unit, 3, 0))


# ---------------------------------------------------------------------------
# parameter discovery and counting
# ---------------------------------------------------------------------------

def _three_type_graph(rng):
    """P and A carry features, C is featureless (an embedding table)."""
    pa = np.stack(np.nonzero(rng.random((6, 4)) < 0.5), axis=1)
    pc = np.stack(np.nonzero(rng.random((6, 3)) < 0.5), axis=1)
    return build_graph(
        [("P", 6, 3), ("A", 4, 2), ("C", 3, 0)],
        [("pa", "P", "A"), ("ap", "A", "P"), ("pc", "P", "C"), ("cp", "C", "P")],
        {"pa": pa, "ap": pa[:, ::-1], "pc": pc, "cp": pc[:, ::-1]},
        features={"P": rng.standard_normal((6, 3)), "A": rng.standard_normal((4, 2))},
        labels={"P": rng.integers(0, 3, 6)})


@pytest.mark.parametrize("family", ["Homogenization", "Relation", "Metapath"])
@pytest.mark.parametrize("micro", L.MICRO_KINDS)
def test_parameters_are_every_parameter_the_model_constructs(family, micro, monkeypatch):
    g = _three_type_graph(np.random.default_rng(12))
    created = []
    init = Parameter.__init__

    def recording_init(self, data, name):
        init(self, data, name)
        created.append(self)

    monkeypatch.setattr(Parameter, "__init__", recording_init)
    macros = (None,) if family == "Homogenization" else L.MACRO_KINDS
    mps = (("PAP", ("pa", "ap")), ("PCP", ("pc", "cp")), ("CPC", ("cp", "pc")))
    # SimpleHGN attention applies to the homogenized GATConv cell only
    forms = (L.ATTENTION_FORMS if (family, micro) == ("Homogenization", "GATConv")
             else ("GAT",))
    for macro in macros:
        for form in forms:
            for task in ("node_classification", "link_prediction"):
                for bn, act, pre, post in ((False, "ReLU", 1, 1), (True, "PReLU", 3, 3)):
                    cfg = DesignConfig(
                        model_family=family, micro_conv=micro, macro_agg=macro,
                        attention_form=form, has_bn=bn, activation=act,
                        pre_layers=pre, post_layers=post, mp_layers=2,
                        connectivity="SKIP-CAT", hidden_dim=8, task=task, seed=3,
                        metapaths=mps if family == "Metapath" else ())
                    created.clear()
                    nc = task == "node_classification"
                    model = build_model(cfg, g, num_classes=3 if nc else 0,
                                        target_type="P" if nc else None)
                    params = model.parameters()
                    assert created
                    assert len({id(p) for p in params}) == len(params)
                    assert {id(p) for p in params} == {id(p) for p in created}, cfg


@pytest.mark.parametrize("micro", L.MICRO_KINDS)
@pytest.mark.parametrize("before,after", [
    ({"macro_agg": "Sum"}, {"macro_agg": "Attention"}),
    ({"mp_layers": 1}, {"mp_layers": 2}),
    ({"mp_layers": 2}, {"mp_layers": 3})], ids=["macro", "depth2", "depth3"])
def test_a_changed_dimension_redraws_no_other_module(micro, before, after):
    """Configs of one controlled comparison share a seed and differ in one
    dimension. P is fed by two relations, so Attention adds a macro there
    and each extra layer adds convolutions and macros; every parameter
    name the two models share still starts from the same values."""
    g = _three_type_graph(np.random.default_rng(12))
    base = DesignConfig(model_family="Relation", micro_conv=micro, macro_agg="Sum",
                        has_bn=True, activation="PReLU", pre_layers=2, mp_layers=2,
                        post_layers=2, hidden_dim=8, seed=17)

    def initial(kw):
        model = build_model(base.with_values(**kw), g, num_classes=3, target_type="P")
        return {p.name: p.data for p in model.parameters()}

    a, b = initial(before), initial(after)
    assert set(a) < set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_parameters_walk_nested_containers_and_list_each_once():
    class Holder(L.Module):
        def __init__(self):
            shared = Parameter(np.zeros((1, 1)), "shared")
            self.label = "not a parameter"
            self.table = {"inner": {"deep": Parameter(np.zeros((1, 2)), "deep")},
                          "shared": shared}
            self.pair = (shared, Parameter(np.zeros((2, 1)), "in_tuple"), None)
            self.child = L.BatchNorm(2, "bn")
            self.plain = Tensor(np.ones((1, 1)))

    names = [p.name for p in Holder().parameters()]
    assert names == ["deep", "shared", "in_tuple", "bn.gamma", "bn.beta"]
    assert L.MacroSum().parameters() == []


def test_hetero_linear_parameter_arithmetic():
    hl = L.HeteroLinear([("X", 3, 7), ("Y", 5, 9)], 4, np.random.default_rng(0))
    total = sum(p.data.size for p in hl.parameters())
    assert total == 3 * 4 + 5 * 4 + 2 * 4  # weights plus one bias row per type


def _relation_count_graph(rng, n_rel, n=5, d=3):
    node_types = [("X", n, d)]
    relations = [(f"r{k}", "X", "X") for k in range(n_rel)]
    edges = {f"r{k}": np.stack(np.nonzero(rng.random((n, n)) < 0.5), axis=1)[:, ::-1]
             for k in range(n_rel)}
    return build_graph(node_types, relations, edges,
                       features={"X": rng.standard_normal((n, d))},
                       labels={"X": rng.integers(0, 2, n)})


def test_relation_family_parameters_scale_linearly_with_relations():
    rng = np.random.default_rng(6)
    g2 = _relation_count_graph(rng, 2)
    g4 = _relation_count_graph(rng, 4)
    cfg = DesignConfig(model_family="Relation", micro_conv="GCNConv",
                       macro_agg="Sum", hidden_dim=8, mp_layers=2, seed=0)
    m2 = build_model(cfg, g2, num_classes=2, target_type="X")
    m4 = build_model(cfg, g4, num_classes=2, target_type="X")
    conv2 = sum(p.data.size for l in m2.mp for c in l.convs for p in c.parameters())
    conv4 = sum(p.data.size for l in m4.mp for c in l.convs for p in c.parameters())
    assert conv4 == 2 * conv2
    assert _size(m4) - _size(m2) == conv4 - conv2


def test_homogenization_parameters_independent_of_relation_count():
    rng = np.random.default_rng(7)
    g1 = _relation_count_graph(rng, 1)
    g3 = _relation_count_graph(rng, 3)
    cfg = DesignConfig(model_family="Homogenization", micro_conv="GCNConv",
                       macro_agg=None, hidden_dim=8, seed=0)
    m1 = build_model(cfg, g1, num_classes=2, target_type="X")
    m3 = build_model(cfg, g3, num_classes=2, target_type="X")
    assert _size(m1) == _size(m3)
    # and fewer parameters than the per-relation family on the same graph
    rel_cfg = cfg.with_values(model_family="Relation", macro_agg="Sum")
    m_rel = build_model(rel_cfg, g3, num_classes=2, target_type="X")
    assert _size(m3) < _size(m_rel)


@pytest.mark.parametrize("micro", L.MICRO_KINDS)
def test_the_three_families_agree_on_a_one_type_graph(micro):
    """The families differ only in the graph transformation: with one type
    and one relation `pp`, relation extraction, the meta-path `PP: pp` and
    homogenization give the same single subgraph, so the three models give
    identical logits, in training and in evaluation, and `train_trial`
    records identical loss and score histories. Every macro is in, since a
    set fed by one subgraph has none. Left out, because the models differ
    there by design: SimpleHGN attention, which adds a per-relation term
    that only the homogenized subgraph feeds."""
    rng = np.random.default_rng(23)
    n = 9
    dst, src = np.nonzero(rng.random((n, n)) < 0.3)
    edges = np.concatenate([np.stack([src, dst], axis=1), [[src[0], dst[0]]]])
    g = build_graph([("P", n, 4)], [("pp", "P", "P")], {"pp": edges},
                    features={"P": rng.standard_normal((n, 4))},
                    labels={"P": rng.integers(0, 3, n)})
    task = Task("node_classification", "P", num_classes=3)
    split = Split(0, 99, np.arange(6), np.arange(6, n))
    cells = [(m, c) for m in L.MACRO_KINDS for c in L.CONNECTIVITIES]
    for k, (macro, connectivity) in enumerate(cells):
        # the post-ops and pre-process depths spread over the cells
        base = DesignConfig(micro_conv=micro, connectivity=connectivity,
                            has_bn=k % 2 == 0, dropout_p=0.3 if k % 3 else 0.0,
                            activation=L.ACTIVATIONS[k % 5], has_l2norm=k % 4 == 1,
                            pre_layers=1 + k % 3, mp_layers=2, post_layers=2,
                            hidden_dim=8, seed=5 + k)
        cfgs = [base.with_values(model_family="Relation", macro_agg=macro),
                base.with_values(model_family="Metapath", macro_agg=macro,
                                 metapaths=(("PP", ("pp",)),)),
                base.with_values(model_family="Homogenization", macro_agg=None,
                                 attention_form="GAT")]
        for training in (True, False):
            logits = [build_model(c, g, num_classes=3, target_type="P")
                      .predict_logits(g, training=training,
                                      rng=np.random.default_rng(7)).data
                      for c in cfgs]
            assert np.array_equal(logits[0], logits[1]), (macro, connectivity)
            assert np.array_equal(logits[0], logits[2]), (macro, connectivity)
        records = [train_trial(c, g, split, task, max_epochs=10) for c in cfgs]
        for rec in records[1:]:
            assert rec.history == records[0].history, (macro, connectivity)
            assert rec.best_score == records[0].best_score, (macro, connectivity)
            assert rec.status == records[0].status, (macro, connectivity)


def _copy_parameters(src_model, dst_model, rows=None):
    """Every parameter of `dst_model` set from the one of `src_model` with
    the same name; `rows` maps an embedding table's name to the row order
    it takes."""
    by_name = {p.name: p for p in src_model.parameters()}
    for p in dst_model.parameters():
        data = by_name[p.name].data
        p.data = data[(rows or {}).get(p.name, slice(None))].copy()


@pytest.mark.parametrize("micro", L.MICRO_KINDS)
def test_metapath_model_equals_relation_model_on_the_product(micro):
    """A meta-path subgraph is a relation whose counts are the product's:
    a Metapath model over `PAP` on a P/A graph and a Relation model on a P
    graph whose one relation `PAP` lists the count-weighted product give
    the same logits, once parameters are copied by name (the extra type A
    draws its projection first and so shifts every later draw)."""
    rng = np.random.default_rng(31)
    g = two_type_graph(rng, n_p=12, n_a=5, d=4)
    # the path counts, from the dense product of the two relations
    product = g.adjacency["ap"].toarray() @ g.adjacency["pa"].toarray()
    assert product.max() > 1  # some pairs meet through several authors
    dst, src = np.nonzero(product)
    counts = product[dst, src]
    g_pp = build_graph([("P", 12, 4)], [("PAP", "P", "P")],
                       {"PAP": np.stack([src, dst, counts], axis=1)},
                       features={"P": g.features["P"]}, labels=g.labels)
    for k, (macro, connectivity) in enumerate(
            [(m, c) for m in L.MACRO_KINDS for c in L.CONNECTIVITIES]):
        meta = DesignConfig(model_family="Metapath", micro_conv=micro,
                            macro_agg=macro, connectivity=connectivity,
                            metapaths=(("PAP", ("pa", "ap")),),
                            has_bn=k % 2 == 0, activation=L.ACTIVATIONS[k % 5],
                            has_l2norm=k % 3 == 1, pre_layers=1 + k % 2,
                            mp_layers=2, hidden_dim=8, seed=40 + k)
        m_meta = build_model(meta, g, num_classes=3, target_type="P")
        m_rel = build_model(meta.with_values(model_family="Relation", metapaths=()),
                            g_pp, num_classes=3, target_type="P")
        _copy_parameters(m_meta, m_rel)
        want = m_meta.predict_logits(g).data
        got = m_rel.predict_logits(g_pp).data
        assert np.abs(got - want).max() < 1e-12, (macro, connectivity)


def _permuted(g, perms):
    """`g` with type t's node i renamed to perms[t]'s position of i: node
    perms[t][j] of `g` becomes node j, with its features, labels and edges."""
    inv = {t: np.argsort(p) for t, p in perms.items()}
    edges = {}
    for r in g.relations:
        adj = g.adjacency[r.name]
        dst, src = adj.nonzero()
        edges[r.name] = np.stack([inv[r.src_type][src], inv[r.dst_type][dst],
                                  adj.toarray()[dst, src]], axis=1)
    return build_graph(g.node_types, g.relations, edges,
                       features={t: x[perms[t]] for t, x in g.features.items()},
                       labels={t: y[perms[t]] for t, y in g.labels.items()})


@pytest.mark.parametrize("micro", L.MICRO_KINDS)
def test_logits_permute_with_the_node_ids(micro):
    """Renaming the nodes of every type (ids, features, labels, edges and
    the rows of every embedding table) renames the rows of the
    evaluation-mode logits the same way, for every family."""
    rng = np.random.default_rng(37)
    n_p, n_a, n_c = 10, 6, 4
    g = build_graph(
        [("P", n_p, 3), ("A", n_a, 0), ("C", n_c, 2)],
        [("ap", "A", "P"), ("pa", "P", "A"), ("pp", "P", "P"), ("cp", "C", "P")],
        {"ap": np.stack(np.nonzero(rng.random((n_a, n_p)) < 0.4), axis=1),
         "pa": np.stack(np.nonzero(rng.random((n_p, n_a)) < 0.4), axis=1),
         "pp": np.concatenate([np.stack(np.nonzero(rng.random((n_p, n_p)) < 0.3),
                                        axis=1), [[1, 2], [1, 2], [3, 3]]]),
         "cp": np.stack(np.nonzero(rng.random((n_c, n_p)) < 0.5), axis=1)},
        features={"P": rng.standard_normal((n_p, 3)),
                  "C": rng.standard_normal((n_c, 2))},
        labels={"P": rng.integers(0, 3, n_p)})
    perms = {"P": rng.permutation(n_p), "A": rng.permutation(n_a),
             "C": rng.permutation(n_c)}
    pg = _permuted(g, perms)
    base = DesignConfig(micro_conv=micro, activation="ELU", has_bn=True,
                        connectivity="SKIP-SUM", hidden_dim=8, seed=9)
    cfgs = [base.with_values(model_family="Relation", macro_agg="Attention"),
            base.with_values(model_family="Metapath", macro_agg="Mean",
                             metapaths=(("PAP", ("pa", "ap")), ("PP", ("pp",)))),
            base.with_values(model_family="Homogenization", macro_agg=None,
                             attention_form="SimpleHGN" if micro == "GATConv"
                             else "GAT")]
    for cfg in cfgs:
        model = build_model(cfg, g, num_classes=3, target_type="P")
        moved = build_model(cfg, pg, num_classes=3, target_type="P")
        _copy_parameters(model, moved, rows={"pre0.A.emb": perms["A"]})
        want = model.predict_logits(g).data[perms["P"]]
        got = moved.predict_logits(pg).data
        assert np.abs(got - want).max() < 1e-12, cfg.model_family


# ---------------------------------------------------------------------------
# config flattening
# ---------------------------------------------------------------------------

def test_config_flat_round_trip():
    cfg = HAN_POINT.with_values(dropout_p=0.3, task="link_prediction", seed=9)
    back = DesignConfig.from_flat(cfg.to_flat())
    assert back == cfg


def test_metapath_text_round_trip():
    mps = (("PAP", ("pa", "ap")), ("PAPAP", ("pa", "ap", "pa", "ap")))
    assert metapaths_from_text(metapaths_to_text(mps)) == mps
    assert metapaths_from_text("") == ()


@pytest.mark.parametrize("text,chunk", [
    ("PAP", "PAP"), (":", ":"), ("A:;B:x", "A:"), ("PAP:pa,ap; :ap", ":ap"),
    ("PAP: , ", "PAP: ,"),
], ids=["no-chain", "colon-only", "empty-chain", "empty-name", "blank-relations"])
def test_metapath_text_rejects_an_empty_name_or_chain(text, chunk):
    with pytest.raises(GraphError, match=re.escape(f"meta-path '{chunk}' in '{text}'")):
        metapaths_from_text(text)


# ---------------------------------------------------------------------------
# the whole-model gradient on random schemas
# ---------------------------------------------------------------------------

@seed(32)
@settings(max_examples=20, deadline=None, database=None)
@given(schema=random_schemas(), data=st.data())
def test_whole_model_gradient_on_random_schemas(schema, data):
    """The node-classification loss's gradient of every parameter against
    central differences, for one random two-layer config per random schema,
    with dropout off and batch norm in eval mode at random running
    statistics. Across the schemas a node set receives no subgraph, one or
    several, and a set that cannot reach the target is pruned."""
    spec, metapaths, _ = schema
    rng = np.random.default_rng(example_seed(
        schema, data.draw(st.integers(0, 2 ** 32 - 1), label="config seed")))

    def pick(choices):
        return choices[rng.integers(len(choices))]

    family = pick(FAMILIES if metapaths else FAMILIES[:2])
    micro = pick(L.MICRO_KINDS)
    cfg = DesignConfig(
        model_family=family, micro_conv=micro,
        macro_agg=None if family == "Homogenization" else pick(L.MACRO_KINDS),
        attention_form=(pick(L.ATTENTION_FORMS)
                        if (family, micro) == ("Homogenization", "GATConv") else "GAT"),
        has_bn=pick((False, True)), activation=pick(L.ACTIVATIONS),
        has_l2norm=pick((False, True)), connectivity=pick(L.CONNECTIVITIES),
        mp_layers=2, hidden_dim=8, metapaths=metapaths if family == "Metapath" else (),
        seed=int(rng.integers(2 ** 16)))
    g = generate_synthetic(spec)
    labels = g.labels["T0"]
    model = build_model(cfg, g, num_classes=int(labels.max()) + 1, target_type="T0")
    params = model.parameters()
    nudge(params, cfg.seed)
    for bn in (bn for layer in model.mp for bn in layer.bns.values()):
        bn.state.running_mean = rng.standard_normal(8)
        bn.state.running_var = rng.uniform(0.5, 2.0, 8)
    err = kink_safe_grad_check(lambda: cross_entropy(model.predict_logits(g), labels),
                               params, cfg.seed)
    assert err < 1e-4, f"{cfg}: {err:.2e}"
