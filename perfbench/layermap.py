"""The traced run's layer map: which functions of `hgnn_space` are wrapped,
under which span names, and how those spans become per-layer metrics.

Each function is wrapped where its caller looks it up: `runner.py` imports
`load_graph`, `make_splits` and `train_trial` by name, `train.py` imports
`build_model`, `score_links` and `build_graph`, `model.py` imports the
transform functions, and `layers.py` calls `T.<primitive>` through the
module.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

PRIMITIVES = ("matmul", "gather_rows", "segment_sum", "segment_softmax", "mul",
              "add", "concat", "batch_norm", "l2_normalize", "dropout",
              "row_softmax")
OTHER_PRIMITIVES = ("sub", "maximum", "broadcast_to", "transpose", "reshape",
                    "narrow", "take_per_row", "exp", "log", "relu", "leaky_relu",
                    "elu", "tanh", "sigmoid", "prelu", "tsum", "tmean",
                    "segment_mean", "segment_max")
BYTES_PRIMITIVES = ("gather_rows", "segment_sum", "matmul")
CONVS = ("GCNConv", "GATConv", "SageConv", "GINConv")
MACROS = ("Mean", "Max", "Sum", "Attention")
TRANSFORMS = ("homogenize", "extract_relation_subgraphs", "compose_metapath")


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.forward_train" if training else "model.forward_eval"


def install(tracer):
    """Wrap every traced function; `tracer.remove()` undoes all of it."""
    from hgnn_space import (analysis, designspace, hgraph, layers, model, runner,
                            sparse, tensor, train)

    w = tracer.wrap
    w(runner, "parse_plan", "runner.parse_plan")
    w(runner, "run_plan", "runner.run_plan")
    w(runner, "expand_plan", "runner.expand_plan")
    tracer.wrap_request(runner, "_run_one", 5)  # trial id is the request id
    w(runner, "load_graph", "hgraph.load_graph")
    w(runner, "make_splits", "train.make_splits")
    w(runner, "train_trial", "train.train_trial")

    w(hgraph, "build_graph", "hgraph.build_graph")
    w(train, "build_graph", "hgraph.build_graph")
    w(designspace, "sample_controlled", "designspace.sample_controlled")
    w(designspace, "validate", "designspace.validate")

    for name in TRANSFORMS:
        w(model, name, f"transform.{name}")
    w(sparse.CSRMatrix, "matmul", "sparse.matmul", extra=lambda out: out.nnz)

    for prim in PRIMITIVES + OTHER_PRIMITIVES:
        tracer.wrap_primitive(tensor, prim)
    w(tensor, "backward", "tensor.backward")

    for conv in CONVS:
        w(getattr(layers, conv), "__call__", f"layers.{conv}")
    for macro in MACROS:
        w(getattr(layers, f"Macro{macro}"), "__call__", f"layers.macro.{macro}")
    w(layers.HeteroLinear, "__call__", "layers.HeteroLinear")
    w(layers, "intra_layer_post", "layers.intra_layer_post")
    w(layers, "connect", "layers.connect")

    w(train, "build_model", "model.build")
    w(model.Model, "forward", _forward_name)
    w(train, "score_links", "model.score_links")

    w(train.Adam, "step", "train.optimizer_step")
    w(train.SGD, "step", "train.optimizer_step")
    w(train, "cross_entropy", "train.loss")
    w(train, "binary_cross_entropy", "train.loss")
    w(train, "macro_f1", "train.eval_metric")
    w(train, "roc_auc", "train.eval_metric")
    w(train, "negative_sample", "train.negative_sample")
    w(train, "graph_without_edges", "train.graph_without_edges")

    w(analysis, "rank_choices", "analysis.rank_choices")
    w(analysis, "edf", "analysis.edf")


def metric_units(trial_labels) -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {
        "runner.expand_plan_ms": "ms", "runner.self_ms": "ms",
        "runner.worker_busy_share": "share",
        "hgraph.load_graph_ms": "ms", "hgraph.build_graph_calls": "count",
        "hgraph.build_graph_ms": "ms", "hgraph.generate_synthetic_ms": "ms",
        "designspace.sample_controlled_ms": "ms",
        "designspace.validate_calls": "count", "designspace.validate_ms": "ms",
    }
    for name in TRANSFORMS:
        units[f"transform.{name}_calls"] = "count"
        units[f"transform.{name}_ms"] = "ms"
    units.update({"sparse.matmul_calls": "count", "sparse.matmul_ms": "ms",
                  "sparse.matmul_nnz_out": "count"})
    for prim in PRIMITIVES:
        units[f"tensor.{prim}.calls"] = "count"
        units[f"tensor.{prim}.fwd_ms"] = "ms"
        units[f"tensor.{prim}.bwd_ms"] = "ms"
    units.update({"tensor.other_fwd_ms": "ms", "tensor.backward_ms": "ms",
                  "tensor.tape_nodes": "count"})
    for prim in BYTES_PRIMITIVES:
        units[f"tensor.{prim}.bytes"] = "bytes"
    for conv in CONVS:
        units[f"layers.{conv}_ms"] = "ms"
    for macro in MACROS:
        units[f"layers.macro.{macro}_ms"] = "ms"
    units.update({"layers.HeteroLinear_ms": "ms", "layers.intra_layer_post_ms": "ms",
                  "layers.connect_ms": "ms",
                  "model.build_ms": "ms", "model.forward_train_ms": "ms",
                  "model.forward_eval_ms": "ms", "model.forward_self_ms": "ms",
                  "model.score_links_ms": "ms",
                  "train.train_trial_ms_p50": "ms", "train.train_trial_ms_p90": "ms"})
    for label in trial_labels:
        units[f"train.trial_s.{label}"] = "s"
    units.update({"train.optimizer_step_ms": "ms", "train.loss_ms": "ms",
                  "train.eval_metric_ms": "ms", "train.negative_sample_calls": "count",
                  "train.negative_sample_ms": "ms",
                  "train.graph_without_edges_ms": "ms", "train.make_splits_ms": "ms",
                  "analysis.rank_choices_ms": "ms", "analysis.edf_ms": "ms",
                  "trace.wall_ms": "ms", "trace.self_sum_ms": "ms",
                  "trace.unattributed_ms": "ms",
                  "trace.untraced_trials_per_s": "1/s",
                  "trace.traced_trials_per_s": "1/s", "trace.overhead_share": "share"})
    return units


def per_layer_metrics(spans, passes, run_wall_s, pass_wall_s, parallelism,
                      trial_label) -> dict:
    """Per-layer values for one traced pass, averaged over `passes` traced
    passes whose spans are all in `spans`. `run_wall_s` is the summed wall
    time of the traced `run` commands and `pass_wall_s` that of the whole
    passes (run plus any analysis); `trial_label(trial_id)` names a trial's
    config for the `train.trial_s.*` metrics, or returns None."""
    own = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    extra = defaultdict(int)
    tape_nodes = 0
    by_id = {s.sid: s for s in spans}
    non_tensor_children = defaultdict(float)
    trial_durations = []
    per_label = defaultdict(float)
    roots = 0.0
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        incl[s.name] += dur
        excl[s.name] += own[s.sid]
        if isinstance(s.extra, tuple):      # tensor forward: (taped, bytes)
            tape_nodes += s.extra[0]
            extra[s.name] += s.extra[1]
        elif s.extra is not None:
            extra[s.name] += s.extra
        parent = by_id.get(s.parent)
        if parent is None:
            roots += dur
        elif not s.name.startswith("tensor.") and parent.thread == s.thread:
            non_tensor_children[s.parent] += dur
        if s.name == "train.train_trial":
            trial_durations.append(dur)
            label = trial_label(s.request) if s.request is not None else None
            if label is not None:
                per_label[label] += dur
    forward_self = sum(s.end - s.start - non_tensor_children[s.sid] for s in spans
                       if s.name.startswith("model.forward_"))

    def ms(*names):
        return 1000.0 * sum(incl[n] for n in names) / passes

    def count(name):
        return calls[name] / passes

    m = {
        "runner.expand_plan_ms": ms("runner.expand_plan"),
        "runner.self_ms": 1000.0 * excl["runner.run_plan"] / passes,
        "runner.worker_busy_share": incl["train.train_trial"] / (run_wall_s * parallelism),
        "hgraph.load_graph_ms": ms("hgraph.load_graph"),
        "hgraph.build_graph_calls": count("hgraph.build_graph"),
        "hgraph.build_graph_ms": ms("hgraph.build_graph"),
        "designspace.sample_controlled_ms": ms("designspace.sample_controlled"),
        "designspace.validate_calls": count("designspace.validate"),
        "designspace.validate_ms": ms("designspace.validate"),
    }
    for name in TRANSFORMS:
        m[f"transform.{name}_calls"] = count(f"transform.{name}")
        m[f"transform.{name}_ms"] = ms(f"transform.{name}")
    m["sparse.matmul_calls"] = count("sparse.matmul")
    m["sparse.matmul_ms"] = ms("sparse.matmul")
    m["sparse.matmul_nnz_out"] = extra["sparse.matmul"] / passes
    for prim in PRIMITIVES:
        m[f"tensor.{prim}.calls"] = count(f"tensor.{prim}.fwd")
        m[f"tensor.{prim}.fwd_ms"] = 1000.0 * excl[f"tensor.{prim}.fwd"] / passes
        m[f"tensor.{prim}.bwd_ms"] = 1000.0 * excl[f"tensor.{prim}.bwd"] / passes
    m["tensor.other_fwd_ms"] = 1000.0 * sum(
        excl[f"tensor.{p}.fwd"] for p in OTHER_PRIMITIVES) / passes
    m["tensor.backward_ms"] = ms("tensor.backward")
    m["tensor.tape_nodes"] = tape_nodes / passes
    for prim in BYTES_PRIMITIVES:
        m[f"tensor.{prim}.bytes"] = extra[f"tensor.{prim}.fwd"] / passes
    for conv in CONVS:
        m[f"layers.{conv}_ms"] = ms(f"layers.{conv}")
    for macro in MACROS:
        m[f"layers.macro.{macro}_ms"] = ms(f"layers.macro.{macro}")
    m["layers.HeteroLinear_ms"] = ms("layers.HeteroLinear")
    m["layers.intra_layer_post_ms"] = ms("layers.intra_layer_post")
    m["layers.connect_ms"] = ms("layers.connect")
    m["model.build_ms"] = ms("model.build")
    m["model.forward_train_ms"] = ms("model.forward_train")
    m["model.forward_eval_ms"] = ms("model.forward_eval")
    m["model.forward_self_ms"] = 1000.0 * forward_self / passes
    m["model.score_links_ms"] = ms("model.score_links")
    if trial_durations:
        m["train.train_trial_ms_p50"] = 1000.0 * statistics.median(trial_durations)
        m["train.train_trial_ms_p90"] = 1000.0 * (
            statistics.quantiles(trial_durations, n=10, method="inclusive")[8]
            if len(trial_durations) > 1 else trial_durations[0])
    else:
        m["train.train_trial_ms_p50"] = m["train.train_trial_ms_p90"] = 0.0
    for label, total in per_label.items():
        m[f"train.trial_s.{label}"] = total / passes
    m["train.optimizer_step_ms"] = ms("train.optimizer_step")
    m["train.loss_ms"] = ms("train.loss")
    m["train.eval_metric_ms"] = ms("train.eval_metric")
    m["train.negative_sample_calls"] = count("train.negative_sample")
    m["train.negative_sample_ms"] = ms("train.negative_sample")
    m["train.graph_without_edges_ms"] = ms("train.graph_without_edges")
    m["train.make_splits_ms"] = ms("train.make_splits")
    m["analysis.rank_choices_ms"] = ms("analysis.rank_choices")
    m["analysis.edf_ms"] = ms("analysis.edf")
    m["trace.wall_ms"] = 1000.0 * pass_wall_s / passes
    m["trace.self_sum_ms"] = 1000.0 * sum(own.values()) / passes
    m["trace.unattributed_ms"] = 1000.0 * (pass_wall_s - roots) / passes
    return m
