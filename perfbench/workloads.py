"""The benchmark's workloads: how each builds its inputs from a seed, the
plan a user would run, and the checks every pass of it must satisfy.

Each workload is a plan file driven through `hgnn_space.cli.main(["run",
...])`. The workload seed drives `generate_synthetic` and, unless the
workload fixes it, the plan seed; the program sees only the generated
bundle and the plan. perfbench/README.md gives the reason for each workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DECLARED_METAPATHS = (("PAP", ("pa", "ap")), ("APA", ("ap", "pa")))
METAPATH_TEXT = "PAP:pa,ap;APA:ap,pa"


@dataclass(frozen=True)
class Workload:
    name: str
    node_types: tuple            # of (name, count, feature_dim)
    edges_per_relation: int
    task: str
    target: str
    parallelism: int
    splits: int
    epoch_override: int
    n: int = 0                   # > 0: sample the condensed space
    strata_hits: int = 0
    configs: tuple = ()          # of (label, DesignConfig field dict)
    floors: dict = field(default_factory=dict)  # label -> min best_score
    plan_seed: int | None = None  # fixed plan seed; None: the workload seed

    def spec(self, seed: int):
        from hgnn_space.hgraph import SyntheticSpec

        e = self.edges_per_relation
        return SyntheticSpec(
            node_types=self.node_types,
            relations=(("ap", "A", "P", e), ("pa", "P", "A", e)),
            target_type="P", num_communities=4, boost=0.9, noise=0.05,
            seed=seed)

    def labels(self):
        return [label for label, _ in self.configs]

    def write_inputs(self, graph, seed: int, workdir: str) -> str:
        """Save the generated graph (and the config list) under `workdir`;
        return the plan file's path."""
        from hgnn_space.hgraph import save_graph
        from hgnn_space.model import DesignConfig
        from hgnn_space.runner import save_config_list

        bundle = save_graph(graph, os.path.join(workdir, "bundle"))
        if self.configs:
            space = os.path.join(workdir, "configs.json")
            save_config_list([DesignConfig(**fields) for _, fields in self.configs],
                             space)
        else:
            space = "condensed"
        lines = [
            f"graph = {bundle}",
            f"task = {self.task}",
            f"target = {self.target}",
            f"space = {space}",
            f"splits = {self.splits}",
            f"seed = {seed if self.plan_seed is None else self.plan_seed}",
            f"metapaths = {METAPATH_TEXT}",
            f"epoch_override = {self.epoch_override}",
            f"out = {os.path.join(workdir, 'results.ndrec')}",
        ]
        if self.n:
            lines += [f"n = {self.n}", f"strata_hits = {self.strata_hits}"]
        plan_path = os.path.join(workdir, "plan.cfg")
        with open(plan_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return plan_path

    def n_trials(self) -> int:
        return (self.n or len(self.configs)) * self.splits

    def check(self, records, first=None) -> dict:
        """Problems found in one pass's finalized records, keyed by the trial
        id they affect (or a cell name when no trial exists to blame)."""
        from hgnn_space.layers import MICRO_KINDS
        from hgnn_space.model import FAMILIES

        bad = {}
        expected = self.n_trials()
        if len(records) != expected:
            for i in range(min(len(records), expected), max(len(records), expected)):
                bad[i] = f"record count {len(records)} != {expected}"
        for i, r in enumerate(records):
            if r.get("trial_id") != i:
                bad[i] = f"trial id {r.get('trial_id')} at position {i}"
            elif r["status"] not in ("ok", "failed"):
                bad[i] = f"status {r['status']!r}"
            elif r["status"] == "ok" and r["best_score"] is None:
                bad[i] = "ok record without a score"
        if self.n:
            cells = {}
            for r in records[::self.splits]:
                key = (r["config"]["model_family"], r["config"]["micro_conv"])
                cells[key] = cells.get(key, 0) + 1
            for fam in FAMILIES:
                for micro in MICRO_KINDS:
                    if cells.get((fam, micro), 0) < self.strata_hits:
                        bad[f"cell:{fam}/{micro}"] = (
                            f"{cells.get((fam, micro), 0)} configs < {self.strata_hits}")
        for i, label in enumerate(self.labels()):
            floor = self.floors.get(label)
            for j in range(i * self.splits, (i + 1) * self.splits):
                if floor is None or j >= len(records):
                    continue
                r = records[j]
                if r["status"] != "ok" or r["best_score"] < floor:
                    bad[j] = f"{label}: {r['status']} score {r['best_score']} < {floor}"
        if first is not None:
            for i, (a, b) in enumerate(zip(records, first)):
                if a != b:
                    bad[i] = "record differs from the first pass with the same seed"
        return bad

    def analyze(self, records) -> dict:
        """Rank every condensed dimension and draw an EDF per model family,
        as a search ends; problems keyed like `check`'s.

        The sampled configs rarely differ in one dimension only, so a
        ranking setup here is one family and split (all families for
        `model_family`), holding the best-scoring record of each choice."""
        from hgnn_space import analysis, designspace

        bad = {}
        for dim in designspace.condensed_space().dimensions:
            if len(dim.choices) < 2:
                continue
            best = {}
            for r in records:
                value = r["config"][dim.name]
                if value is None:
                    continue
                group = "*" if dim.name == "model_family" else r["config"]["model_family"]
                score = r["best_score"] if r["status"] == "ok" else None
                key = (group, r["split_id"], str(value))
                held = best.get(key)
                if held is None or (score is not None and (
                        held["best_score"] is None or score > held["best_score"])):
                    best[key] = {"config": {dim.name: value, "group": group},
                                 "split_id": r["split_id"], "best_score": score,
                                 "status": "ok" if score is not None else "failed"}
            observed = {k[2] for k in best}
            setups = {}
            for group, split, value in best:
                setups.setdefault((group, split), set()).add(value)
            if not any(v == observed for v in setups.values()):
                continue
            table = analysis.rank_choices(list(best.values()), dim.name)
            k = len(table.choices)
            for i in range(table.n_setups):
                ranks = [table.ranks[c][i] for c in table.choices]
                if (abs(sum(ranks) - k * (k + 1) / 2) > 1e-9
                        or not all(1.0 <= r <= k for r in ranks)):
                    bad[f"rank:{dim.name}"] = f"setup {i} ranks are not a permutation"
        for family in {r["config"]["model_family"] for r in records}:
            scores = [r["best_score"] for r in records if r["status"] == "ok"
                      and r["config"]["model_family"] == family]
            if scores and analysis.edf(scores).breakpoints()[-1][1] != 1.0:
                bad[f"edf:{family}"] = "EDF does not reach 1"
        return bad


def _cfg(**kw):
    base = {"hidden_dim": 64, "mp_layers": 2, "optimizer": "Adam", "lr": 0.01,
            "epochs": 100, "seed": 1}
    base.update(kw)
    return base


SMALL = (("P", 60, 8), ("A", 30, 8))
LARGE = (("P", 1200, 16), ("A", 800, 16))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="search-nc-small",
            node_types=SMALL, edges_per_relation=150,
            task="node_classification", target="P", parallelism=2,
            splits=3, epoch_override=2, n=96, strata_hits=2, plan_seed=13),
        Workload(
            name="reference-nc-large",
            node_types=LARGE, edges_per_relation=4000,
            task="node_classification", target="P", parallelism=1,
            splits=1, epoch_override=20,
            configs=(
                ("relation-sage", _cfg(model_family="Relation", micro_conv="SageConv",
                                       macro_agg="Sum", connectivity="SKIP-SUM")),
                ("han", _cfg(model_family="Metapath", micro_conv="GATConv",
                             macro_agg="Attention", connectivity="SKIP-SUM",
                             metapaths=DECLARED_METAPATHS)),
                ("simplehgn", _cfg(model_family="Homogenization", micro_conv="GATConv",
                                   macro_agg=None, attention_form="SimpleHGN")),
                ("relation-gcn-max-bn", _cfg(model_family="Relation",
                                             micro_conv="GCNConv", macro_agg="Max",
                                             has_bn=True, connectivity="SKIP-CAT",
                                             mp_layers=3)),
            ),
            # the acceptance-7 floor on the two configs it names
            floors={"relation-sage": 0.9, "han": 0.9}),
        Workload(
            name="reference-lp-large",
            node_types=LARGE, edges_per_relation=4000,
            task="link_prediction", target="ap", parallelism=1,
            splits=1, epoch_override=20,
            configs=(
                ("lp-relation-gcn", _cfg(model_family="Relation", micro_conv="GCNConv",
                                         macro_agg="Sum")),
                ("lp-homogenization-gat", _cfg(model_family="Homogenization",
                                               micro_conv="GATConv", macro_agg=None)),
                ("lp-metapath-sage", _cfg(model_family="Metapath", micro_conv="SageConv",
                                          macro_agg="Mean",
                                          metapaths=DECLARED_METAPATHS)),
            ),
            # ROC-AUC measured 0.80-0.85 over seeds 1-8; the floor sits below
            floors={"lp-relation-gcn": 0.75, "lp-homogenization-gat": 0.75,
                    "lp-metapath-sage": 0.75}),
    )
}
