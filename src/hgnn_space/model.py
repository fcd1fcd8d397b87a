"""Network assembly from a design configuration.

Pipeline: typed linear pre-process, a message-passing stack over the node
sets and subgraphs the family's graph transformation gives (layer =
aggregate, post-ops, connectivity), a shared post-process MLP and a task
head. The family picks the transformation in `Model._graph_data` and
nowhere else; everything after reads each subgraph's endpoint spec and
the one aggregation plan the config's micro convolution runs on, built
from the subgraph's CSR adjacency. Parameter initialization is a pure
function of the configuration seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from . import layers as L
from .hgraph import GraphError, HeteroGraph
from .tensor import Tensor, TensorError
from .transform import (MetaPath, compose_metapath, extract_relation_subgraphs,
                        homogenize, type_offsets)

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
    if not text:
        return ()
    out = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, rels = chunk.partition(":")
        name = name.strip()
        chain = tuple(r.strip() for r in rels.split(",") if r.strip())
        if not name or not chain:
            raise GraphError(f"meta-path '{chunk}' in '{text}' needs a name and a "
                             "chain of relations, as in name:rel,rel")
        out.append((name, chain))
    return tuple(out)


# ---------------------------------------------------------------------------


class _MpLayer(L.Module):
    """The modules of one message-passing layer; like every component, it
    lists its parameters through `layers.Module`."""

    def __init__(self):
        self.convs = []          # aligned with the model's subgraph specs
        self.macros = {}         # receiving node set -> macro, in receiving order
        self.bns = {}            # receiving node set -> BatchNorm
        self.activation = None


class Model(L.Module):
    """A built network; the trials of one config use it in turn, and no two
    threads share it."""

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
        self.type_specs = tuple((t.name, t.feature_dim, t.count)
                                for t in graph.node_types)
        self.n_relations = len(graph.relations)

        # the graph transformation fixes the node sets message passing runs on
        # (name -> node count) and the subgraphs between them (name, source
        # set, destination set); the fused set "*" holds every type, each at
        # its offset
        self._graph_cache = None  # (graph, prepared data) for the last graph seen
        self._graph_data(graph)  # sets `sub_specs`
        fused = any(dst == "*" for _, _, dst in self.sub_specs)
        self.offsets = type_offsets(graph) if fused else None
        self.node_sets = ({"*": sum(self.type_counts.values())} if fused
                          else dict(self.type_counts))
        receiving = {dst for _, _, dst in self.sub_specs}
        self.receiving = tuple(s for s in self.node_sets if s in receiving)

        hid = cfg.hidden_dim
        widths_in = []
        w = hid
        for _ in range(cfg.mp_layers):
            widths_in.append(w)
            w = w + hid if cfg.connectivity == "SKIP-CAT" else hid
        self.final_width = w
        self.widths_in = tuple(widths_in)
        self.init_parameters()

    def init_parameters(self):
        """Draw every parameter and batch-norm state anew from the config
        seed, in a fixed order: pre-process, extra pre-process layers, each
        message-passing layer's convolutions then macros, post-process,
        head. The modules are new objects; the prepared graph is kept."""
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed)
        hid = cfg.hidden_dim
        self.pre = L.HeteroLinear(self.type_specs, hid, rng, prefix="pre0")
        self.pre_extra = [
            (L.HeteroLinear([(t, hid, 0) for t in self.type_names], hid, rng,
                            prefix=f"pre{i}"),
             L.Activation(cfg.activation, prefix=f"pre{i}.act"))
            for i in range(1, cfg.pre_layers)]

        self.mp = []
        for li, width in enumerate(self.widths_in):
            layer = _MpLayer()
            layer.convs = [L.make_micro_conv(cfg.micro_conv, width, hid, rng,
                                             f"mp{li}.conv.{name}", cfg.attention_form,
                                             self.n_relations)
                           for name, _, _ in self.sub_specs]
            # a macro for every receiving type, even one whose lone subgraph
            # bypasses it: Attention macros draw their parameters from `rng`,
            # so they fix the init stream. Homogenization configs have none.
            if cfg.macro_agg is not None:
                layer.macros = {t: L.make_macro(cfg.macro_agg, hid, rng,
                                                f"mp{li}.macro.{t}")
                                for t in self.receiving}
            if cfg.has_bn:
                layer.bns = {t: L.BatchNorm(hid, f"mp{li}.bn.{t}")
                             for t in self.receiving}
            layer.activation = L.Activation(cfg.activation, prefix=f"mp{li}.act")
            self.mp.append(layer)

        self.post = []
        w = self.final_width
        for i in range(cfg.post_layers):
            linear = L.Linear(w, hid, rng, f"post{i}")
            act = (L.Activation(cfg.activation, prefix=f"post{i}.act")
                   if i < cfg.post_layers - 1 else None)
            self.post.append((linear, act))
            w = hid

        self.head = (L.Linear(hid, max(1, self.num_classes), rng, "head")
                     if cfg.task == "node_classification" else None)

    # -- graph preparation ----------------------------------------------------

    def _graph_data(self, g: HeteroGraph):
        """Features and one aggregation plan per subgraph of the family's
        graph transformation for the config's micro convolution, kept for
        the last graph seen, whose identity the held reference keeps from
        being reused by another object. The subgraphs are dropped once their
        plans are built; their (name, source set, destination set) specs,
        the same for every graph of the schema, go to `sub_specs`."""
        if self._graph_cache is not None and self._graph_cache[0] is g:
            return self._graph_cache[1]
        if self.cfg.model_family == "Homogenization":
            subs = [homogenize(g)]
        elif self.cfg.model_family == "Relation":
            subs = extract_relation_subgraphs(g, g.relation_names)
        else:
            subs = [compose_metapath(g, MetaPath(name, rels))
                    for name, rels in self.cfg.metapaths]
        self.sub_specs = [(s.name, s.src_type, s.dst_type) for s in subs]
        data = {"feats": {t.name: Tensor(g.features[t.name])
                          for t in g.node_types if t.feature_dim > 0},
                "plans": [L.aggregation_plan(self.cfg.micro_conv, s) for s in subs]}
        self._graph_cache = (g, data)
        return data

    # -- forward --------------------------------------------------------------

    def _demand(self, sets):
        """The node sets each stage must produce so that `sets` come out:
        entry i is the input of message-passing layer i (entry 0 is the
        pre-process output) and the last entry is `sets`. A set is needed
        at a layer's input if it is needed at its output or sends into a
        subgraph that is."""
        need = [frozenset(sets)]
        for _ in self.mp:
            need.insert(0, need[0] | {src for _, src, dst in self.sub_specs
                                      if dst in need[0]})
        return need

    def forward(self, g: HeteroGraph, training: bool = False, rng=None,
                types=None) -> dict:
        """Representations per node type after the post-process MLP, for the
        requested `types` (every type when None). A message-passing layer is
        one pass over the node sets in order; a set that receives subgraphs
        runs their convolutions in subgraph order, fuses two or more with
        its macro (a lone output passes through), then takes its post-ops
        and connection; any other set is passed on, padded under SKIP-CAT.
        Sets and post-process layers that cannot reach a requested type
        are skipped; a skipped dropout site still draws its mask, so the
        random stream and the requested outputs equal the full pass's."""
        cfg = self.cfg
        if types is None:
            want = self.type_names
        else:
            unknown = set(types) - set(self.type_names)
            if unknown:
                raise GraphError(f"unknown node types {sorted(unknown)}")
            want = tuple(t for t in self.type_names if t in types)
        data = self._graph_data(g)
        offsets = self.offsets
        # a fused node set needs every type's projection
        need = self._demand(want if offsets is None else {"*"})
        pre_types = need[0] if offsets is None else self.type_names
        h = self.pre(data["feats"], types=pre_types)
        for linear, act in self.pre_extra:
            h = {t: act(x) for t, x in linear(h, types=pre_types).items()}
        if offsets is not None:
            h = {"*": T.concat([h[t] for t in self.type_names], axis=0)}

        draws_masks = training and cfg.dropout_p
        if draws_masks and rng is None:
            raise TensorError("training-mode dropout needs an rng")
        for li, layer in enumerate(self.mp):
            out_sets = need[li + 1]
            nxt = {}
            for s, count in self.node_sets.items():
                if s not in out_sets:
                    if draws_masks and s in self.receiving:
                        rng.random((count, cfg.hidden_dim))
                    continue
                zs = [conv(plan, h[src], h[s]) for (_, src, dst), plan, conv
                      in zip(self.sub_specs, data["plans"], layer.convs, strict=True)
                      if dst == s]
                if zs:
                    z = zs[0] if len(zs) == 1 else layer.macros[s](zs)
                    z = L.intra_layer_post(z, layer.bns.get(s), cfg.dropout_p,
                                           layer.activation, cfg.has_l2norm, training,
                                           rng)
                    nxt[s] = L.connect(cfg.connectivity, h[s], z)
                elif cfg.connectivity == "SKIP-CAT":
                    # pad untouched sets so every set keeps a uniform width
                    pad = Tensor(np.zeros((count, cfg.hidden_dim)))
                    nxt[s] = T.concat([h[s], pad], axis=1)
                else:
                    nxt[s] = h[s]
            h = nxt

        if offsets is not None:
            h = {t: T.narrow(h["*"], 0, offsets[t], offsets[t] + self.type_counts[t])
                 for t in want}
        out = {}
        for t in want:
            x = h[t]
            for linear, act in self.post:
                x = linear(x)
                if act is not None:
                    x = act(x)
            out[t] = x
        return out

    def predict_logits(self, g: HeteroGraph, training: bool = False, rng=None):
        if self.head is None:
            raise GraphError("model has no classification head")
        h = self.forward(g, training=training, rng=rng, types=(self.target_type,))
        return self.head(h[self.target_type])


def build_model(cfg: DesignConfig, graph: HeteroGraph, num_classes: int = 0,
                target_type: str | None = None) -> Model:
    return Model(cfg, graph, num_classes=num_classes, target_type=target_type)


def score_links(h_src, h_dst, src, dst):
    """Sigmoid of the representation dot product, one score per pair of
    `src` and `dst`, SegmentIndexes over h_src's and h_dst's rows."""
    return T.sigmoid(T.sddmm(h_src, h_dst, src, dst))
