"""Command-line interface: design-space queries, experiment runs and
post-hoc analysis."""

from __future__ import annotations

import argparse
import os
import sys


def _space_from_flag(name):
    from . import designspace as ds
    from .hgraph import GraphError

    if name == "full":
        return ds.full_space()
    if name == "condensed":
        return ds.condensed_space()
    raise GraphError(f"unknown space '{name}' (expected full or condensed)")


def cmd_space(args):
    from . import designspace as ds
    from . import runner
    from .hgraph import GraphError

    space = _space_from_flag(args.space)
    if args.space_cmd == "describe":
        print(ds.describe(space))
        return 0
    if args.space_cmd == "cardinality":
        print(space.cardinality())
        return 0
    if args.space_cmd == "sample":
        if args.n < 1:  # `run` refuses an empty config list
            return _error(f"--n must be at least 1, got {args.n}")
        strata = ds.default_strata(space, args.strata_hits) if args.strata_hits else []
        skipped = ""
        try:
            configs = ds.sample_controlled(space, args.n, strata, args.seed)
            if args.expand_dim:
                # expand only the base configs the dimension applies to
                # (macro_agg skips Homogenization-family configs)
                dim = space.dim(args.expand_dim)
                bases = [c for c in configs if dim.applies(c.to_flat())]
                if not bases:
                    raise ValueError(f"dimension '{dim.name}' does not apply to any "
                                     f"of the {len(configs)} sampled configs")
                if len(bases) < len(configs):
                    skipped = (f" ({len(configs) - len(bases)} of {len(configs)} base "
                               f"configs skipped: '{dim.name}' does not apply to them)")
                configs = [c for cfg in bases
                           for c in ds.perturb_dimension(cfg, args.expand_dim, space)]
        except (KeyError, ValueError) as e:  # strata over n; unknown or unexpandable dim
            return _error(e.args[0])
        runner.save_config_list(configs, args.out)
        print(f"wrote {len(configs)} configs to {args.out}{skipped}")
        return 0
    raise GraphError(f"unknown space subcommand '{args.space_cmd}'")


def cmd_run(args):
    from . import runner

    plan = runner.parse_plan(args.plan)
    out = runner.run_plan(plan, parallelism=args.parallelism, resume=args.resume)
    print(f"results written to {out}")
    return 0


def cmd_analyze(args):
    from . import analysis, runner
    from .hgraph import GraphError

    if args.analyze_cmd == "rank":
        records = runner.read_results(args.results[0])
        table = analysis.rank_choices(records, args.dim)
        paths = analysis.emit_report([table], {}, args.out_dir)
        for c in table.choices:
            print(f"{args.dim}={c}: avg rank {table.avg_rank[c]:.4f} "
                  f"over {table.n_setups} setups")
        for p in paths:
            print(f"wrote {p}")
        return 0

    if args.analyze_cmd == "edf":
        curves, sources = {}, {}
        for path in args.results:
            name = os.path.splitext(os.path.basename(path))[0]
            if name in sources:  # its curve and edf_<name>.csv would be overwritten
                raise GraphError(f"results files {sources[name]} and {path} both name "
                                 f"the curve '{name}'; give them different base names")
            sources[name] = path
        for name, path in sources.items():
            records = runner.read_results(path)
            scores = [r["best_score"] for r in records
                      if r["status"] == "ok" and r["best_score"] is not None]
            if not scores:
                raise GraphError(f"no successful trials in {path}")
            curves[name] = analysis.edf(scores)
        paths = analysis.emit_report([], curves, args.out_dir)
        for p in paths:
            print(f"wrote {p}")
        return 0

    if args.analyze_cmd == "homophily":
        import numpy as np

        from . import transform
        from .hgraph import load_graph
        from .model import metapaths_from_text

        g = load_graph(args.graph)

        def labels_for(sub):
            labels = g.labels.get(sub.dst_type)
            if labels is None:
                raise GraphError(f"'{sub.name}' targets type '{sub.dst_type}' "
                                 "which carries no labels")
            return labels

        rows = []
        for name in (args.relations.split(",") if args.relations else []):
            name = name.strip()
            if not name:
                continue
            sub = transform.extract_relation_subgraphs(g, [name])[0]
            rows.append((name, transform.homophily(sub, labels_for(sub))))
        for name, rels in metapaths_from_text(args.metapaths or ""):
            sub = transform.compose_metapath(g, transform.MetaPath(name, rels))
            rows.append((name, transform.homophily(sub, labels_for(sub))))
        if not rows:
            raise GraphError("nothing to analyze: pass --metapaths and/or --relations")
        lines = ["metapath,beta"]
        lines += [f"{name},{np.format_float_positional(beta, precision=6, trim='-')}"
                  for name, beta in rows]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    raise GraphError(f"unknown analyze subcommand '{args.analyze_cmd}'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hgnn-space",
        description="Design-space exploration for heterogeneous GNNs")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_space = sub.add_parser("space", help="design-space queries")
    s_sub = p_space.add_subparsers(dest="space_cmd", required=True)
    for name in ("describe", "cardinality"):
        p = s_sub.add_parser(name)
        p.add_argument("--space", default="full", choices=("full", "condensed"))
    p_sample = s_sub.add_parser("sample")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--strata-hits", type=int, default=0)
    p_sample.add_argument("--space", default="full", choices=("full", "condensed"))
    p_sample.add_argument("--expand-dim", default=None,
                          help="expand each sample into one full setup of this dimension")
    p_sample.add_argument("--out", required=True)
    p_space.set_defaults(func=cmd_space)

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("--plan", required=True)
    p_run.add_argument("--parallelism", type=int, default=None)
    p_run.add_argument("--resume", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="post-hoc analysis of results")
    a_sub = p_an.add_subparsers(dest="analyze_cmd", required=True)
    p_rank = a_sub.add_parser("rank")
    p_rank.add_argument("--dim", required=True)
    p_rank.add_argument("--results", nargs=1, required=True)
    p_rank.add_argument("--out-dir", default="analysis_out")
    p_edf = a_sub.add_parser("edf")
    p_edf.add_argument("--results", nargs="+", required=True)
    p_edf.add_argument("--out-dir", default="analysis_out")
    p_h = a_sub.add_parser("homophily")
    p_h.add_argument("--graph", required=True)
    p_h.add_argument("--metapaths", default="")
    p_h.add_argument("--relations", default="")
    p_h.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    return parser


def _error(message):
    print(f"hgnn-space: error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .hgraph import GraphError

    try:
        return args.func(args)
    except GraphError as e:  # any bad user input: one line, status 2, no traceback
        return _error(e)
    except OSError as e:  # an output path that cannot be written; inputs fail as GraphError
        if e.filename is None:
            raise
        return _error(f"{e.filename}: {e.strerror or e}")


if __name__ == "__main__":
    sys.exit(main())
