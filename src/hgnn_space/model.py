"""Network assembly from a design configuration.

Pipeline: typed linear pre-process, a family-dependent message-passing
stack (layer = aggregate, post-ops, connectivity), a shared post-process
MLP and a task head. Parameter initialization is a pure function of the
configuration seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from . import layers as L
from .hgraph import GraphError, HeteroGraph
from .tensor import Parameter, Tensor, TensorError
from .transform import MetaPath, compose_metapath, extract_relation_subgraphs, homogenize

FAMILIES = ("Homogenization", "Relation", "Metapath")


@dataclass(frozen=True)
class DesignConfig:
    """One point in the design space plus the run-specific metadata."""

    model_family: str = "Relation"
    micro_conv: str = "GCNConv"
    macro_agg: str | None = "Sum"
    attention_form: str = "GAT"
    has_bn: bool = False
    dropout_p: float = 0.0
    activation: str = "ReLU"
    has_l2norm: bool = False
    connectivity: str = "STACK"
    pre_layers: int = 1
    mp_layers: int = 2
    post_layers: int = 1
    optimizer: str = "Adam"
    lr: float = 0.01
    epochs: int = 100
    hidden_dim: int = 64
    metapaths: tuple = ()  # of (name, (relation, ...)); Metapath family only
    task: str = "node_classification"
    seed: int = 0

    def with_values(self, **kw):
        return replace(self, **kw)

    def to_flat(self) -> dict:
        return dict(asdict(self), metapaths=metapaths_to_text(self.metapaths))

    @classmethod
    def from_flat(cls, d: dict) -> "DesignConfig":
        d = dict(d)
        d["metapaths"] = metapaths_from_text(d.get("metapaths", ""))
        if d.get("macro_agg") in ("", "None"):
            d["macro_agg"] = None
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise GraphError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def metapaths_to_text(metapaths) -> str:
    return ";".join(f"{name}:{','.join(rels)}" for name, rels in metapaths)


def metapaths_from_text(text) -> tuple:
    if isinstance(text, tuple):
        return tuple((n, tuple(r)) for n, r in text)
    if not text:
        return ()
    out = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, rels = chunk.partition(":")
        out.append((name.strip(), tuple(r.strip() for r in rels.split(",") if r.strip())))
    return tuple(out)


# ---------------------------------------------------------------------------


class _MpLayer:
    """Parameter container for one message-passing layer."""

    def __init__(self):
        self.convs = []          # aligned with the subgraph list (dual) or [conv]
        self.macros = {}         # dst type -> macro module (dual only)
        self.macro_order = ()
        self.bns = {}            # dst type -> BatchNorm, or {"*": bn} for global
        self.activation = None

    def parameters(self):
        ps = []
        for conv in self.convs:
            ps += conv.parameters()
        for t in self.macro_order:
            ps += self.macros[t].parameters()
        for t in sorted(self.bns):
            ps += self.bns[t].parameters()
        if self.activation is not None:
            ps += self.activation.parameters()
        return ps


class Model:
    """A built network; one instance per trial, not shared across threads."""

    def __init__(self, cfg: DesignConfig, graph: HeteroGraph, num_classes: int = 0,
                 target_type: str | None = None):
        from .designspace import validate  # local import; designspace uses DesignConfig

        problems = validate(cfg, graph)
        if problems:
            raise GraphError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.num_classes = int(num_classes)
        self.target_type = target_type
        self.type_names = graph.type_names
        self.type_counts = {t.name: t.count for t in graph.node_types}
        rng = np.random.default_rng(cfg.seed)
        hid = cfg.hidden_dim

        type_specs = [(t.name, t.feature_dim, t.count) for t in graph.node_types]
        self.pre = L.HeteroLinear(type_specs, hid, rng, prefix="pre0")
        self.pre_extra = []
        for i in range(cfg.pre_layers - 1):
            act = L.Activation(cfg.activation, prefix=f"pre{i + 1}.act")
            self.pre_extra.append(
                L.TypedLinearBlock(graph.type_names, hid, rng, f"pre{i + 1}", act))

        # static subgraph shape: (name, src_type, dst_type) per subgraph
        if cfg.model_family == "Relation":
            self.sub_specs = [(r.name, r.src_type, r.dst_type) for r in graph.relations]
        elif cfg.model_family == "Metapath":
            self.sub_specs = []
            for name, rels in cfg.metapaths:
                chain = [graph.relation(r) for r in rels]
                self.sub_specs.append((name, chain[0].src_type, chain[-1].dst_type))
        else:
            self.sub_specs = []
        receiving = []
        for _, _, dst in self.sub_specs:
            if dst not in receiving:
                receiving.append(dst)
        self.receiving = tuple(t for t in graph.type_names if t in receiving)

        widths_in = []
        w = hid
        for _ in range(cfg.mp_layers):
            widths_in.append(w)
            w = w + hid if cfg.connectivity == "SKIP-CAT" else hid
        self.final_width = w
        self.widths_in = tuple(widths_in)

        n_edge_types = len(graph.relations)
        self.mp = []
        for li in range(cfg.mp_layers):
            layer = _MpLayer()
            w_in = widths_in[li]
            if cfg.model_family == "Homogenization":
                layer.convs = [L.make_micro_conv(
                    cfg.micro_conv, w_in, hid, rng, f"mp{li}.conv",
                    attention_form=cfg.attention_form, n_edge_types=n_edge_types)]
                if cfg.has_bn:
                    layer.bns["*"] = L.BatchNorm(hid, f"mp{li}.bn")
            else:
                for name, _, _ in self.sub_specs:
                    layer.convs.append(L.make_micro_conv(
                        cfg.micro_conv, w_in, hid, rng, f"mp{li}.conv.{name}"))
                layer.macro_order = self.receiving
                for t in self.receiving:
                    layer.macros[t] = L.make_macro(cfg.macro_agg, hid, rng,
                                                   f"mp{li}.macro.{t}")
                if cfg.has_bn:
                    for t in self.receiving:
                        layer.bns[t] = L.BatchNorm(hid, f"mp{li}.bn.{t}")
            layer.activation = L.Activation(cfg.activation, prefix=f"mp{li}.act")
            self.mp.append(layer)

        self.post = []
        w = self.final_width
        for i in range(cfg.post_layers):
            W = Parameter(L.glorot(rng, w, hid), f"post{i}.W")
            b = Parameter(np.zeros((1, hid)), f"post{i}.b")
            act = (L.Activation(cfg.activation, prefix=f"post{i}.act")
                   if i < cfg.post_layers - 1 else None)
            self.post.append((W, b, act))
            w = hid

        if cfg.task == "node_classification":
            self.head_W = Parameter(L.glorot(rng, hid, max(1, self.num_classes)),
                                    "head.W")
            self.head_b = Parameter(np.zeros((1, max(1, self.num_classes))), "head.b")
        else:
            self.head_W = None
            self.head_b = None

        # (graph, prepared data) for the last graph seen; holding the graph
        # keeps its identity from being reused by another object
        self._graph_cache = None

    # -- parameters ----------------------------------------------------------

    def parameters(self):
        ps = list(self.pre.parameters())
        for block in self.pre_extra:
            ps += block.parameters()
        for layer in self.mp:
            ps += layer.parameters()
        for W, b, act in self.post:
            ps += [W, b]
            if act is not None:
                ps += act.parameters()
        if self.head_W is not None:
            ps += [self.head_W, self.head_b]
        return ps

    # -- graph preparation ----------------------------------------------------

    def _graph_data(self, g: HeteroGraph):
        if self._graph_cache is not None and self._graph_cache[0] is g:
            return self._graph_cache[1]
        feats = {t.name: Tensor(g.features[t.name])
                 for t in g.node_types if t.feature_dim > 0}
        if self.cfg.model_family == "Homogenization":
            data = {"feats": feats, "homograph": homogenize(g)}
        else:
            if self.cfg.model_family == "Relation":
                subs = extract_relation_subgraphs(g, g.relation_names)
            else:
                subs = [compose_metapath(g, MetaPath(name, rels))
                        for name, rels in self.cfg.metapaths]
            data = {"feats": feats, "subs": subs}
        self._graph_cache = (g, data)
        return data

    # -- forward --------------------------------------------------------------

    def _demand(self, types):
        """The node types each stage must produce so that `types` come out:
        entry i is the input of message-passing layer i (entry 0 is the
        pre-process output) and the last entry is `types`. A type is needed
        at a layer's input if it is needed at its output or sends into a
        subgraph that is; the homogenized stack mixes every type."""
        need = [frozenset(types)]
        for _ in self.mp:
            if self.cfg.model_family == "Homogenization":
                cur = frozenset(self.type_names)
            else:
                cur = need[0] | {src for _, src, dst in self.sub_specs
                                 if dst in need[0]}
            need.insert(0, cur)
        return need

    def forward(self, g: HeteroGraph, training: bool = False, rng=None,
                types=None) -> dict:
        """Representations per node type after the post-process MLP, for the
        requested `types` (every type when None). Convolutions, fusions,
        post-ops, connections and post-process layers that cannot reach a
        requested type are skipped; a skipped dropout site still draws its
        mask, so the random stream and the requested outputs equal the
        full pass's."""
        cfg = self.cfg
        if types is None:
            want = self.type_names
        else:
            unknown = set(types) - set(self.type_names)
            if unknown:
                raise GraphError(f"unknown node types {sorted(unknown)}")
            want = tuple(t for t in self.type_names if t in types)
        need = self._demand(want)
        data = self._graph_data(g)
        h = self.pre(data["feats"], types=need[0])
        for block in self.pre_extra:
            h = block(h, types=need[0])

        if cfg.model_family == "Homogenization":
            order = list(self.type_names)
            hg = data["homograph"]
            x = T.concat([h[t] for t in order], axis=0)
            for layer in self.mp:
                z = layer.convs[0](L.homograph_view(hg), x, x)
                z = L.intra_layer_post(z, layer.bns.get("*"), cfg.dropout_p,
                                       layer.activation, cfg.has_l2norm,
                                       training, rng)
                x = L.connect(cfg.connectivity, x, z)
            h = {}
            for t in want:
                lo = hg.offsets[t]
                h[t] = T.narrow(x, 0, lo, lo + self.type_counts[t])
        else:
            draws_masks = training and cfg.dropout_p
            if draws_masks and rng is None:
                raise TensorError("training-mode dropout needs an rng")
            for li, layer in enumerate(self.mp):
                out_types = need[li + 1]
                active = [i for i, (_, _, dst) in enumerate(self.sub_specs)
                          if dst in out_types]
                fused = L.dual_aggregate([data["subs"][i] for i in active],
                                         [layer.convs[i] for i in active], h,
                                         layer.macros)
                new = {}
                for t in self.receiving:
                    if t in out_types:
                        new[t] = L.intra_layer_post(fused[t], layer.bns.get(t),
                                                    cfg.dropout_p, layer.activation,
                                                    cfg.has_l2norm, training, rng)
                    elif draws_masks:
                        rng.random((self.type_counts[t], cfg.hidden_dim))
                nxt = {}
                for t in (t for t in self.type_names if t in out_types):
                    if t in new:
                        nxt[t] = L.connect(cfg.connectivity, h[t], new[t])
                    elif cfg.connectivity == "SKIP-CAT":
                        # pad untouched types so every type keeps a uniform width
                        pad = Tensor(np.zeros((self.type_counts[t], cfg.hidden_dim)))
                        nxt[t] = T.concat([h[t], pad], axis=1)
                    else:
                        nxt[t] = h[t]
                h = nxt

        out = {}
        for t in want:
            x = h[t]
            for W, b, act in self.post:
                x = T.add(T.matmul(x, W), b)
                if act is not None:
                    x = act(x)
            out[t] = x
        return out

    def predict_logits(self, g: HeteroGraph, training: bool = False, rng=None):
        if self.head_W is None:
            raise GraphError("model has no classification head")
        h = self.forward(g, training=training, rng=rng, types=(self.target_type,))
        return T.add(T.matmul(h[self.target_type], self.head_W), self.head_b)


def build_model(cfg: DesignConfig, graph: HeteroGraph, num_classes: int = 0,
                target_type: str | None = None) -> Model:
    return Model(cfg, graph, num_classes=num_classes, target_type=target_type)


def score_links(h_src, h_dst, src_ids, dst_ids):
    """Sigmoid of the representation dot product, one score per id pair."""
    src_ids = np.asarray(src_ids, dtype=np.int64)
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= h_src.shape[0]):
        raise GraphError("link source id out of range")
    if dst_ids.size and (dst_ids.min() < 0 or dst_ids.max() >= h_dst.shape[0]):
        raise GraphError("link destination id out of range")
    return T.sigmoid(T.sddmm(h_src, h_dst, src_ids, dst_ids))


def num_parameters(model: Model) -> int:
    return int(sum(p.data.size for p in model.parameters()))
