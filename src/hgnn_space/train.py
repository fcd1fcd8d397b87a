"""Tasks, splits, optimizers, metrics and the single-trial training loop.

A trial is full-graph training of one configuration on one split. Trials
are self-contained and deterministic given (config seed, split seed); a
diverging trial is recorded as failed, never raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .analysis import midranks
# `build_graph` is unused here, but the benchmark's layer map wraps it by this name
from .hgraph import GraphError, HeteroGraph, build_graph  # noqa: F401
from .model import DesignConfig, build_model, score_links
from .sparse import expanded_rows, from_edges
from .tensor import Tensor

RECORD_FORMAT = "1"

TRAIN_NEG_PER_POS = 1   # negatives per positive in the link-prediction loss

METRICS = {"node_classification": "macro_f1", "link_prediction": "roc_auc"}


@dataclass(frozen=True)
class Task:
    kind: str                      # node_classification | link_prediction
    target: str                    # node type (NC) or relation name (LP)
    num_classes: int = 0


@dataclass(frozen=True)
class Split:
    split_id: int
    seed: int
    train: np.ndarray  # node ids (NC) or (k, 2) positive pairs (LP)
    val: np.ndarray


@dataclass
class TrialRecord:
    config: dict
    seed: int
    split_id: int
    status: str                    # ok | failed
    best_score: float | None
    metric: str
    history: dict
    wall_time: float
    format_version: str = RECORD_FORMAT
    trial_id: int = -1
    reason: str | None = None  # failed only: nonfinite_<check>@epoch<e> or <Exc>: <msg>


# ---------------------------------------------------------------------------
# splits and negative sampling
# ---------------------------------------------------------------------------

def make_splits(task: Task, graph: HeteroGraph, n_splits: int = 3,
                seed: int = 0) -> list:
    """Random 80/20 train/validation splits, deterministic per (seed, id),
    of the labelled target ids (node classification) or the target
    relation's (src, dst) pairs (link prediction), each part in item order."""
    if task.kind == "node_classification":
        labels = graph.labels.get(task.target)
        if labels is None:
            raise GraphError(f"no labels for target type '{task.target}'")
        items = np.flatnonzero(labels >= 0)
        _, counts = np.unique(labels[items], return_counts=True)
        if items.size == 0 or counts.min() < 5:
            raise GraphError("too few labeled nodes: need at least 5 per class")
    elif task.kind == "link_prediction":
        adj = graph.adjacency.get(task.target)
        if adj is None:
            raise GraphError(f"unknown target relation '{task.target}'")
        items = np.stack([adj.indices, expanded_rows(adj)], axis=1)  # (src, dst)
        if items.shape[0] < 5:
            raise GraphError("too few positive edges to split")
    else:
        raise GraphError(f"unknown task kind '{task.kind}'")
    n = items.shape[0]
    cut = min(max(1, int(round(n * 0.8))), n - 1)
    splits = []
    for i in range(n_splits):
        perm = np.random.default_rng([seed, i, 17]).permutation(n)
        splits.append(Split(i, int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
                            items[np.sort(perm[:cut])], items[np.sort(perm[cut:])]))
    return splits


def _cell_keys(adj):
    """Key dst * n_src + src of each stored cell; strictly increasing, since
    `sparse.from_edges` sums duplicate cells and sorts each row."""
    return expanded_rows(adj) * adj.shape[1] + adj.indices


def graph_without_edges(graph: HeteroGraph, relation: str, pairs) -> HeteroGraph:
    """The graph with the given (src, dst) cells of one relation removed;
    keeps validation positives out of the message-passing adjacency. Every
    other adjacency, and the features and labels, are the same objects."""
    adj = graph.adjacency.get(relation)
    if adj is None:
        raise GraphError(f"unknown relation '{relation}'")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_dst, n_src = adj.shape  # rows are destinations
    # a pair outside the relation matches no cell, but could alias a cell's key
    ok = (pairs >= 0).all(axis=1) & (pairs[:, 0] < n_src) & (pairs[:, 1] < n_dst)
    keep = ~np.isin(_cell_keys(adj), pairs[ok, 1] * n_src + pairs[ok, 0])
    cut = from_edges(expanded_rows(adj)[keep], adj.indices[keep],
                     n_dst, n_src, data=adj.data[keep])
    return replace(graph, adjacency={**graph.adjacency, relation: cut})


# Draws tested per step of negative_sample's rejection loop: a rejection
# wastes at most this many membership tests.
_SAMPLE_WINDOW = 256


def check_unsaturated(adj, relation: str, sources):
    """Raise a GraphError naming the first of `sources` that `relation`'s
    adjacency `adj` links to every destination: no negative exists for it."""
    n_dst, n_src = adj.shape  # rows are destinations
    out_degree = np.bincount(adj.indices, minlength=n_src)  # cells are distinct
    saturated = out_degree[sources] >= n_dst
    if saturated.any():
        s = int(sources[np.argmax(saturated)])
        raise GraphError(f"relation '{relation}' is saturated for source {s}: "
                         f"no negative destinations exist")


def negative_sample(graph: HeteroGraph, relation: str, positives, k: int, seed):
    """Corrupt destinations of the positive pairs, avoiding every observed
    edge of the relation; deterministic given the seed.

    Slot i*k + j holds negative j of positive i. The slots take the values of
    one stream of `rng.integers(0, n_dst)` draws in order, and a draw that
    hits an observed edge of its slot's source is skipped, so the result and
    the generator's end state match drawing one value at a time."""
    if k < 1:
        raise GraphError("need at least one negative per positive")
    adj = graph.adjacency.get(relation)
    if adj is None:
        raise GraphError(f"unknown relation '{relation}'")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    src = np.asarray(positives, dtype=np.int64).reshape(-1, 2)[:, 0]
    n_dst, n_src = adj.shape  # rows are destinations
    if src.size and (src.min() < 0 or src.max() >= n_src):
        raise GraphError(f"source id out of range for relation '{relation}'")
    check_unsaturated(adj, relation, src)
    keys = np.append(_cell_keys(adj), np.iinfo(np.int64).max)  # bounds searchsorted

    sources = np.repeat(src, k)
    dst = np.empty(sources.size, dtype=np.int64)
    filled = 0
    while filled < sources.size:
        draws = rng.integers(0, n_dst, size=sources.size - filled)
        used = 0
        while used < draws.size:
            # assume no rejection in the window, then keep the draws before
            # the first one that hits an edge and skip that one
            w = min(_SAMPLE_WINDOW, draws.size - used)
            cand = draws[used:used + w] * n_src + sources[filled:filled + w]
            hit = keys[np.searchsorted(keys, cand)] == cand
            n_ok = int(np.argmax(hit)) if hit.any() else w
            dst[filled:filled + n_ok] = draws[used:used + n_ok]
            filled += n_ok
            used += n_ok + (n_ok < w)
    return np.stack([sources, dst], axis=1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _confusion(preds, labels, num_classes):
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.size == 0:
        raise GraphError("empty metric input")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1 over all declared classes."""
    cm = _confusion(preds, labels, num_classes)
    tp = np.diag(cm)
    predicted, actual = cm.sum(axis=0), cm.sum(axis=1)
    prec = np.divide(tp, predicted, out=np.zeros(num_classes), where=predicted > 0)
    rec = np.divide(tp, actual, out=np.zeros(num_classes), where=actual > 0)
    both = prec + rec
    f1 = np.divide(2 * prec * rec, both, out=np.zeros(num_classes), where=both > 0)
    return float(np.mean(f1))


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC with midpoint tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0:
        raise GraphError("empty metric input")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise GraphError("roc_auc needs both classes present")
    r_pos = midranks(scores)[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class Adam:
    """Adam whose moments m and v for a parameter, one zeroed (2, *shape)
    block, are made at its first gradient; a parameter that never gets one
    has none."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.slots = {}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        # non-finite gradients propagate into the parameters on purpose: the
        # trial loop detects them and records the run as failed
        for p in self.params:
            if p.grad is None:
                continue
            # `lr * (m / c1) / (sqrt(v / c2) + eps)` one operation at a
            # time in two scratch arrays, so every element rounds as in
            # that expression; p.grad may be another leaf's too and is
            # only read
            g = p.grad
            if p.name not in self.slots:
                self.slots[p.name] = np.zeros((2,) + g.shape)
            m, v = self.slots[p.name]
            a = (1 - b1) * g
            m *= b1
            m += a
            np.multiply(g, g, out=a)
            a *= 1 - b2
            v *= b2
            v += a
            np.divide(m, c1, out=a)
            a *= self.lr
            b = v / c2
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def make_optimizer(kind, params, lr):
    if kind == "Adam":
        return Adam(params, lr)
    if kind == "SGD":
        return SGD(params, lr)
    raise GraphError(f"unknown optimizer '{kind}'")


# ---------------------------------------------------------------------------
# losses and evaluation
# ---------------------------------------------------------------------------

def cross_entropy(logits, label_ids):
    probs = T.row_softmax(logits)
    picked = T.take_per_row(probs, label_ids)
    return -T.tmean(T.log(picked))


def binary_cross_entropy(pos_scores, neg_scores):
    # scores live in (0, 1); a diverging run surfaces as a non-finite loss
    loss_pos = T.log(pos_scores)
    loss_neg = T.log(T.sub(Tensor(1.0), neg_scores))
    return -T.tmean(T.concat([loss_pos, loss_neg], axis=0))


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------

class TrialStart:
    """What the trials of one config start from: the built model and the
    node-classification evaluation output at its initial parameters,
    neither of which depends on the split.

    The first trial to begin builds the model; each later one, on any
    split and in any number, draws its parameters again from the config
    seed, the same arrays in new memory, so the splits hold one copy of
    the parameter state and the cached epoch-0 output stays valid. A
    link-prediction trial's message graph differs per split, so its model
    prepares the graph again in its first forward pass."""

    def __init__(self, cfg: DesignConfig, graph: HeteroGraph, task: Task):
        if cfg.task != task.kind:
            raise ValueError(f"the config's task '{cfg.task}' is not the trial's "
                             f"task '{task.kind}'")
        self.cfg, self.graph, self.task = cfg, graph, task
        self.model = None
        self._eval0 = None

    def begin(self, msg_graph: HeteroGraph):
        """The model, set to its initial state for one more trial."""
        if self.model is None:
            task = self.task
            self.model = build_model(
                self.cfg, msg_graph, num_classes=task.num_classes,
                target_type=task.target if task.kind == "node_classification" else None)
        else:
            self.model.init_parameters()
        return self.model

    def initial_eval(self, forward):
        """`forward(False)` at the initial parameters, run once for all trials."""
        if self._eval0 is None:
            with T.no_grad():
                self._eval0 = forward(False)
        return self._eval0


def train_trial(cfg: DesignConfig, graph: HeteroGraph, split: Split, task: Task,
                max_epochs: int | None = None,
                start: TrialStart | None = None) -> TrialRecord:
    """Full-graph training of one config on one split.

    Validation runs before training (epoch 0) and after every epoch; the
    best validation score wins. A non-finite score, loss or parameter fails
    the trial, stops it without raising and names the check and epoch as
    the record's reason; a config whose task is not `task.kind` raises
    before the model is built, any other invalid config when it is built.

    The task is read once: its arm sets up the message graph and index
    sets and defines `forward`, `train_loss` and `val_score` (NaN when the
    outputs it scores are not all finite), which the epoch loop calls
    without asking about the task again. Every forward pass computes only
    the node types the loss and the score read: the target type (NC) or
    the target relation's two end types (LP). Without dropout and batch
    norm the training mode changes nothing, so epoch e's training forward
    also scores the parameters left by epoch e-1, and a trial of N epochs
    runs N+1 forward passes instead of 2N+1.

    `start`, shared by the trials of one config, saves building the model
    and the node-classification epoch-0 evaluation for every split; without
    it the trial builds its own. The record is the same either way.
    """
    if max_epochs is not None and max_epochs < 0:
        raise ValueError(f"max_epochs must not be negative, got {max_epochs}")
    started = time.perf_counter()
    if start is None:
        start = TrialStart(cfg, graph, task)
    elif start.cfg != cfg or start.task != task or start.graph is not graph:
        raise ValueError("the trial start belongs to another config, task or graph")
    if task.kind == "link_prediction":
        msg_graph, initial_eval = graph_without_edges(graph, task.target, split.val), None
        val_negs = negative_sample(graph, task.target, split.val, 1,
                                   np.random.default_rng([split.seed, 19]))
        rel = graph.relation(task.target)
        types = (rel.src_type, rel.dst_type)
        n_dst, n_src = graph.adjacency[task.target].shape  # rows are destinations
        train_src = T.SegmentIndex(split.train[:, 0], n_src)
        train_dst = T.SegmentIndex(split.train[:, 1], n_dst)
        val = np.concatenate([split.val, val_negs])
        val_src = T.SegmentIndex(val[:, 0], n_src)
        val_dst = T.SegmentIndex(val[:, 1], n_dst)
        val_labels = np.repeat([1, 0], [len(split.val), len(val_negs)])

        def forward(training, rng=None):
            return model.forward(msg_graph, training=training, rng=rng, types=types)

        def train_loss(out, epoch):
            rng = np.random.default_rng([cfg.seed, split.seed, epoch, 13])
            negs = negative_sample(graph, task.target, split.train,
                                   TRAIN_NEG_PER_POS, rng)
            neg_dst = T.SegmentIndex(negs[:, 1], n_dst)  # slot i: positive i's source
            h_src, h_dst = out[rel.src_type], out[rel.dst_type]
            return binary_cross_entropy(score_links(h_src, h_dst, train_src, train_dst),
                                        score_links(h_src, h_dst, train_src, neg_dst))

        def val_score(out):
            scores = score_links(out[rel.src_type], out[rel.dst_type],
                                 val_src, val_dst).data[:, 0]
            if not np.isfinite(scores).all():
                return np.nan
            return roc_auc(scores, val_labels)
    else:
        # the epoch-0 evaluation is the same for every split
        msg_graph, initial_eval = graph, start.initial_eval
        labels = graph.labels.get(task.target)
        train_rows = T.SegmentIndex(split.train, labels.shape[0])
        val_labels = labels[split.val]

        def forward(training, rng=None):
            return model.predict_logits(msg_graph, training=training, rng=rng)

        def train_loss(out, epoch):
            return cross_entropy(T.gather_rows(out, train_rows), labels[split.train])

        def val_score(out):
            logits = out.data[split.val]
            if not np.isfinite(logits).all():
                return np.nan
            return macro_f1(np.argmax(logits, axis=1), val_labels, task.num_classes)

    model = start.begin(msg_graph)  # the closures above read it
    params = model.parameters()
    opt = make_optimizer(cfg.optimizer, params, cfg.lr)

    one_pass = not cfg.dropout_p and not cfg.has_bn
    n_epochs = cfg.epochs if max_epochs is None else min(cfg.epochs, max_epochs)
    losses, scores = [], []
    reason = None
    # the one floating-point policy: a diverging trial may overflow anywhere in
    # the loop, and the finite checks record it under any warnings filter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(n_epochs + 1):
            drop_rng = np.random.default_rng([cfg.seed, split.seed, epoch, 11])
            trains = epoch < n_epochs
            # one pass: this epoch's training forward scores the last step's parameters
            if one_pass and trains:
                out = forward(True, drop_rng)
            elif epoch == 0 and initial_eval is not None:
                out = initial_eval(forward)
            else:
                with T.no_grad():
                    out = forward(False)
            with T.no_grad():  # the scores feed no gradient
                score = val_score(out)
            if not np.isfinite(score):
                reason = f"nonfinite_score@epoch{epoch}"
                if epoch == 0:
                    scores.append(float(score))
                break
            scores.append(float(score))
            if not trains:
                break
            if not one_pass:
                del out  # hold one forward pass at a time
                out = forward(True, drop_rng)
            loss = train_loss(out, epoch)
            loss_val = float(loss.data)
            losses.append(loss_val)
            if not np.isfinite(loss_val):
                reason = f"nonfinite_loss@epoch{epoch}"
                break
            loss.backward()
            opt.step()
            opt.zero_grad()  # the next forward passes need no gradients
            if not all(np.isfinite(p.data).all() for p in params):
                reason = f"nonfinite_param@epoch{epoch}"
                break
            del out, loss  # free this epoch's pass before the next one

    return trial_record(cfg, split, task, started, losses, scores, reason)


def trial_record(cfg: DesignConfig, split: Split, task: Task, started: float,
                 losses=(), scores=(), reason: str | None = None) -> TrialRecord:
    """The record of a trial that began at `perf_counter()` time `started`:
    ok with the best score unless `reason` names why it failed."""
    return TrialRecord(
        config=cfg.to_flat(),
        seed=cfg.seed,
        split_id=split.split_id,
        status="ok" if reason is None else "failed",
        best_score=max(scores) if reason is None else None,  # then all are finite
        metric=METRICS[task.kind],
        history={"train_loss": list(losses), "val_score": list(scores)},
        wall_time=time.perf_counter() - started,
        reason=reason,
    )
