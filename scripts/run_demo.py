#!/usr/bin/env python3
"""End-to-end demo: synthesize a graph, run a small controlled random search
in the condensed space, then emit ranking and EDF reports.

    python scripts/run_demo.py --workdir demo_out --n 24 --epochs 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hgnn_space.analysis import edf, emit_report, rank_choices
from hgnn_space.hgraph import SyntheticSpec, generate_synthetic, save_graph
from hgnn_space import designspace as ds
from hgnn_space.runner import (ExperimentPlan, read_results, run_plan,
                               save_config_list)

METAPATHS = (("PAP", ("pa", "ap")), ("APA", ("ap", "pa")))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="demo_out")
    ap.add_argument("--n", type=int, default=24, help="base configurations")
    ap.add_argument("--epochs", type=int, default=10, help="training epoch cap")
    ap.add_argument("--splits", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rank-dim", default="activation")
    args = ap.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        node_types=(("P", 300, 8), ("A", 150, 8)),
        relations=(("ap", "A", "P", 900), ("pa", "P", "A", 900)),
        target_type="P", num_communities=4, boost=0.9, noise=0.05,
        seed=args.seed)
    bundle = save_graph(generate_synthetic(spec), work / "bundle")
    print(f"bundle: {bundle}")

    # controlled random search with stratified (family x micro) hits
    search_plan = ExperimentPlan(
        graph=str(bundle), task="node_classification", target="P",
        space="condensed", n=args.n, strata_hits=max(0, args.n // 24),
        splits=args.splits, seed=args.seed, metapaths=METAPATHS,
        out=str(work / "search.ndrec"), epoch_override=args.epochs)
    print(f"running {args.n} configs x {args.splits} splits ...")
    results = run_plan(search_plan)
    records = read_results(results)
    ok = [r for r in records if r["status"] == "ok"]
    print(f"{len(records)} trials, {len(ok)} succeeded, "
          f"best score {max(r['best_score'] for r in ok):.4f}")

    # dimension ranking needs perturbation setups: expand a few base configs
    space = ds.condensed_space()
    bases = ds.sample_controlled(space, max(4, args.n // 6), 0,
                                 seed=args.seed + 1, metapaths=METAPATHS)
    expanded = [c for b in bases
                for c in ds.perturb_dimension(b, args.rank_dim, space)]
    save_config_list(expanded, work / "expanded.json")
    rank_plan = ExperimentPlan(
        graph=str(bundle), task="node_classification", target="P",
        space=str(work / "expanded.json"), splits=args.splits,
        seed=args.seed, out=str(work / "rank.ndrec"),
        epoch_override=args.epochs)
    print(f"running {len(expanded)} perturbation trials for "
          f"'{args.rank_dim}' ...")
    table = rank_choices(read_results(run_plan(rank_plan)), args.rank_dim)
    for c in table.choices:
        print(f"  {args.rank_dim}={c}: avg rank {table.avg_rank[c]:.3f}")

    curves = {"condensed_search": edf([r["best_score"] for r in ok])}
    paths = emit_report([table], curves, work / "report")
    for p in paths:
        print(f"wrote {p}")


if __name__ == "__main__":
    main()
