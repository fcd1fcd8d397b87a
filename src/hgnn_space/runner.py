"""Experiment orchestration: plan parsing, trial execution and append-only
result persistence.

A plan expands to configs x splits independent trials, run one at a time in
trial-id order. Progress is appended line-by-line to `<out>.partial`
(crash-safe, carries wall times); the finalized file is rewritten sorted by
trial id with volatile timing dropped, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields
from itertools import groupby

import numpy as np

from . import designspace as ds
from .hgraph import GraphError, load_graph, read_text
from .model import DesignConfig, metapaths_from_text, metapaths_to_text
from .train import (RECORD_FORMAT, Task, TrialRecord, TrialStart, check_unsaturated,
                    make_splits, train_trial, trial_record)

RESULTS_FORMAT = "hgnn-space-results/1"


@dataclass(frozen=True)
class ExperimentPlan:
    graph: str
    task: str
    target: str
    space: str = "condensed"        # full | condensed | path to a config list
    n: int = 264
    strata_hits: int = 2
    splits: int = 3
    seed: int = 0
    metapaths: tuple = ()
    parallelism: int = 1
    out: str = "results.ndrec"
    epoch_override: int | None = None  # desk-scale cap on training epochs
    num_classes: int | None = None


_PLAN_KEYS = {f.name for f in fields(ExperimentPlan)}
_INT_KEYS = {f.name for f in fields(ExperimentPlan) if f.type in ("int", "int | None")}
_OPTIONAL_KEYS = {f.name for f in fields(ExperimentPlan) if f.type == "int | None"}
_COMMENT = re.compile(r"(?:^|\s)#")  # a `#` inside a value, as in a path, is kept


def _plan_int(path, ln, key, val):
    if val == "None" and key in _OPTIONAL_KEYS:  # as plan_canonical_text writes it
        return None
    try:
        return int(val)
    except ValueError:
        raise GraphError(f"{path}:{ln}: plan key '{key}' needs an integer, "
                         f"got '{val}'") from None


def parse_plan(path) -> ExperimentPlan:
    """Flat key = value text, each key once; lists are comma-separated,
    meta-paths are `name:rel,rel` chunks joined by `;`. A `#` at the start
    of a line or after whitespace starts a comment."""
    values, first_line = {}, {}
    for ln, raw in enumerate(read_text(path).split("\n"), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GraphError(f"{path}:{ln}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PLAN_KEYS:
            raise GraphError(f"{path}:{ln}: unknown plan key '{key}'")
        if key in first_line:
            raise GraphError(f"{path}:{ln}: plan key '{key}' repeats line "
                             f"{first_line[key]}")
        first_line[key] = ln
        values[key] = _plan_int(path, ln, key, val) if key in _INT_KEYS else val
    if "metapaths" in values:
        values["metapaths"] = metapaths_from_text(values["metapaths"])
    missing = {"graph", "task", "target"} - set(values)
    if missing:
        raise GraphError(f"plan is missing keys: {sorted(missing)}")
    return ExperimentPlan(**values)


def plan_canonical_text(plan: ExperimentPlan) -> str:
    d = dict(asdict(plan), metapaths=metapaths_to_text(plan.metapaths))
    del d["parallelism"]  # excluded: it must not change the results
    return "\n".join(f"{k}={d[k]}" for k in sorted(d))


def plan_hash(plan: ExperimentPlan) -> str:
    return hashlib.sha256(plan_canonical_text(plan).encode()).hexdigest()[:16]


def load_config_list(path) -> list:
    try:
        items = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise GraphError(f"{path}: not a JSON config list ({e})") from None
    if not isinstance(items, list) or not all(isinstance(d, dict) for d in items):
        raise GraphError(f"{path}: a config list must be a JSON list of objects")
    if not items:
        raise GraphError(f"{path}: the config list is empty")
    return [DesignConfig.from_flat(d) for d in items]


def save_config_list(configs, path):
    with open(path, "w") as fh:
        json.dump([c.to_flat() for c in configs], fh, indent=1, sort_keys=True)
        fh.write("\n")


def expand_plan(plan: ExperimentPlan):
    """Resolve the plan into (graph, task, splits, configs); integers that
    would break a trial are rejected here, before any trial starts."""
    if plan.splits < 1:
        raise GraphError(f"plan key 'splits' must be at least 1, got {plan.splits}")
    if plan.seed < 0:
        raise GraphError(f"plan key 'seed' must not be negative, got {plan.seed}")
    if plan.epoch_override is not None and plan.epoch_override < 0:
        raise GraphError(f"plan key 'epoch_override' must not be negative, "
                         f"got {plan.epoch_override}")
    # sampling needs no graph: a bad `n` or `strata_hits` is reported first
    sampled = plan.space in ds.SPACES
    if sampled:
        configs = ds.sample_controlled(ds.SPACES[plan.space](), plan.n,
                                       plan.strata_hits, plan.seed,
                                       metapaths=plan.metapaths)
    graph = load_graph(plan.graph)
    for node_type, x in graph.features.items():
        if not np.isfinite(x).all():
            row = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
            raise GraphError(f"graph '{plan.graph}': node type '{node_type}' has a "
                             f"non-finite feature in row {row}")
    if plan.task == "node_classification":
        labels = graph.labels.get(plan.target)
        if labels is None:
            raise GraphError(f"graph has no labels for target '{plan.target}'")
        top = int(labels.max(initial=-1))  # a type without nodes has no labels
        if plan.num_classes is not None and plan.num_classes <= top:
            raise GraphError(f"plan key 'num_classes' is {plan.num_classes}, but "
                             f"target '{plan.target}' has label {top}")
        num_classes = plan.num_classes or top + 1
        task = Task("node_classification", plan.target, num_classes=num_classes)
    elif plan.task == "link_prediction":
        if plan.num_classes is not None:
            raise GraphError("plan key 'num_classes' applies only to "
                             "node_classification plans")
        graph.relation(plan.target)
        # every edge is a positive of some split, so a source linked to every
        # destination would end each trial when its negatives are drawn
        adj = graph.adjacency[plan.target]
        check_unsaturated(adj, plan.target, adj.indices)
        task = Task("link_prediction", plan.target)
    else:
        raise GraphError(f"unknown task '{plan.task}'")
    # checked once here: configs see the declarations only if they draw Metapath
    problems = ds.metapath_problems(plan.metapaths, graph)
    if problems:
        raise GraphError("plan key 'metapaths' is invalid: " + "; ".join(problems))
    if not sampled:
        configs = load_config_list(plan.space)

    resolved = []
    for i, cfg in enumerate(configs):
        extra = {}
        if cfg.task != plan.task:
            extra["task"] = plan.task
        if cfg.model_family == "Metapath" and not cfg.metapaths:
            if sampled and not plan.metapaths:
                raise GraphError(f"plan key 'metapaths' declares no meta-path, but the "
                                 f"'{plan.space}' space drew a Metapath config (config "
                                 f"{i}); declare one or more as name:relation,relation;"
                                 "..., as in metapaths = PAP:pa,ap")
            extra["metapaths"] = plan.metapaths
        if extra:
            cfg = cfg.with_values(**extra)
        problems = ds.validate(cfg, graph)
        if problems:
            raise GraphError(f"config {i} is invalid: " + "; ".join(problems))
        resolved.append(cfg)
    splits = make_splits(task, graph, n_splits=plan.splits, seed=plan.seed)
    return graph, task, splits, resolved


def _record_to_json(record: TrialRecord) -> str:
    d = asdict(record)
    if d["reason"] is None:  # only a failed trial carries a reason
        del d["reason"]
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _finalized_line(line: str) -> str:
    """A `.partial` line as the finalized file holds it: without the
    volatile wall time."""
    d = json.loads(line)
    d.pop("wall_time", None)
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def run_trial_by_id(plan: ExperimentPlan, trial_id: int) -> TrialRecord:
    """Recompute a single trial in isolation; depends only on (plan, id)."""
    graph, task, splits, configs = expand_plan(plan)
    return _run_one(plan, graph, task, splits, configs, trial_id)


def _run_one(plan, graph, task, splits, configs, trial_id, start=None) -> TrialRecord:
    """The trial's record. A trial that raises is recorded failed, with the
    exception as its reason, its traceback goes to stderr, and the plan goes
    on; a `GraphError` (bad input) still ends the run."""
    cfg = configs[trial_id // len(splits)]
    split = splits[trial_id % len(splits)]
    started = time.perf_counter()
    try:
        record = train_trial(cfg, graph, split, task, max_epochs=plan.epoch_override,
                             start=start)
    except GraphError:
        raise
    except Exception as exc:
        print(f"trial {trial_id} raised; it is recorded as failed", file=sys.stderr)
        traceback.print_exc()
        record = trial_record(cfg, split, task, started,
                              reason=f"{type(exc).__name__}: {exc}")
    record.trial_id = trial_id
    return record


def input_digests(graph, configs) -> dict:
    """sha256 of the loaded graph (its schema, then every adjacency, feature
    and label array with dtype and shape) and of the resolved configs."""
    g = hashlib.sha256(repr((graph.node_types, graph.relations)).encode())
    arrays = [(r, k, getattr(graph.adjacency[r], k)) for r in graph.relation_names
              for k in ("indptr", "indices", "data")]
    arrays += [(t, kind, d[t]) for kind, d in (("features", graph.features),
                                               ("labels", graph.labels))
               for t in graph.type_names if t in d]
    for name, kind, a in arrays:
        g.update(repr((name, kind, a.dtype.str, a.shape)).encode())
        g.update(np.ascontiguousarray(a))
    flat = json.dumps([c.to_flat() for c in configs], sort_keys=True)
    return {"graph_sha256": g.hexdigest(),
            "configs_sha256": hashlib.sha256(flat.encode()).hexdigest()}


def _read_partial(path, plan, expect):
    """Recover completed records; a line that is not a record, as
    `read_results` checks it, only loses that one trial. A header whose plan
    hash, input digests or record format differ from `expect`'s, or that
    holds no digests or record format, is refused."""
    done = {}
    if not os.path.exists(path):
        return done
    with open(path) as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict):
            return {}
        if header.get("plan_hash") != expect["plan_hash"]:
            raise GraphError(
                f"partial results at '{path}' come from a different plan "
                f"(hash {header.get('plan_hash')} != {expect['plan_hash']})")
        if header.get("record_format") != RECORD_FORMAT:
            raise GraphError(f"partial results at '{path}' were not written in record "
                             f"format {RECORD_FORMAT}, so they cannot be resumed")
        for key, source in (("graph_sha256", f"graph '{plan.graph}'"),
                            ("configs_sha256", f"configs of space '{plan.space}'")):
            if key not in header:
                raise GraphError(f"partial results at '{path}' hold no digest of the "
                                 f"{source}, so they cannot be resumed")
            if header[key] != expect[key]:
                raise GraphError(f"partial results at '{path}' were written for other "
                                 f"inputs: the {source} changed since")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                continue  # a truncated line: rerun that trial
            if _record_problem(d) is None:  # else damaged: rerun that trial
                done[d["trial_id"]] = line
    return done


def run_plan(plan: ExperimentPlan, parallelism: int | None = None,
             resume: bool = False) -> str:
    """Execute every trial of the plan and write the finalized results file.

    Trials run one at a time in the calling thread, and the pending splits
    of a config share one `TrialStart`. `parallelism` (the keyword or the
    plan key) is accepted and not read: it is reserved for a process pool,
    and the results never depend on it."""
    graph, task, splits, configs = expand_plan(plan)
    n_trials = len(configs) * len(splits)
    partial_path = plan.out + ".partial"

    head = {"format": RESULTS_FORMAT, "plan_hash": plan_hash(plan)}
    # only the .partial header holds the record format and the input digests;
    # the finalized header is {format, plan_hash}
    expect = {**head, **input_digests(graph, configs), "record_format": RECORD_FORMAT}
    header, partial_header = (json.dumps(d, sort_keys=True, separators=(",", ":"))
                              + "\n" for d in (head, expect))

    done = _read_partial(partial_path, plan, expect) if resume else {}
    # the header and the kept records replace the file in one step, so a line
    # cut mid-write is dropped instead of continued by the next record
    try:
        with open(partial_path + ".tmp", "w") as tmp:
            tmp.write(partial_header + "".join(line + "\n" for line in done.values()))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(partial_path + ".tmp", partial_path)
    except OSError as e:  # an unwritable output names the file the plan asks for
        raise OSError(e.errno, e.strerror, partial_path) from None
    with open(partial_path, "a") as partial:
        pending = [i for i in range(n_trials) if i not in done]
        # the pending splits of one config (equal configs in a row count as
        # one) start from one built model; rebinding `start` drops the last
        # config's before the next model is built
        for cfg, ids in groupby(pending, key=lambda i: configs[i // len(splits)]):
            ids = list(ids)
            start = TrialStart(cfg, graph, task)
            for i in ids:
                record = _run_one(plan, graph, task, splits, configs, i, start)
                done[i] = _record_to_json(record)
                partial.write(done[i] + "\n")
                partial.flush()

    with open(plan.out, "w") as out:
        out.write(header)
        for i in range(n_trials):
            out.write(_finalized_line(done[i]) + "\n")
    return plan.out


def read_results(path) -> list:
    """Records from a results file (finalized or partial), header checked."""
    lines = read_text(path).split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("format") != RESULTS_FORMAT:
        raise GraphError(f"'{path}' is not a results file")
    records = []
    for ln, line in enumerate(lines[1:], 2):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise GraphError(f"{path}:{ln}: not a JSON record") from None
            problem = _record_problem(record)
            if problem:
                raise GraphError(f"{path}:{ln}: {problem}")
            records.append(record)
    return records


# the record keys the analyses read, with the JSON types they must have
_RECORD_KEYS = (("trial_id", int), ("split_id", int), ("status", str),
                ("best_score", (int, float, type(None))), ("config", dict))


def _record_problem(record):
    if not isinstance(record, dict):
        return "a record must be a JSON object"
    for key, types in _RECORD_KEYS:
        if key not in record:
            return f"record has no key '{key}'"
        if isinstance(record[key], bool) or not isinstance(record[key], types):
            return f"record key '{key}' has the wrong JSON type"
    if any(isinstance(v, (dict, list)) for v in record["config"].values()):
        return "record key 'config' must map each field to a single value"
    return None
