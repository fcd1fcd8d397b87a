#!/usr/bin/env python3
"""hgnn-space benchmark: runs one workload's plan the way a user does and
reports its end-to-end metrics (``--trace 0``) or its per-layer metrics
(``--trace 1``) as the last line of standard output.

    python3 perfbench/run.py --workload search-nc-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, each in its own process

Run it from anywhere; it uses the `src/` next to this directory and writes
only under `.perfbench_work/` (removed afterwards) and, for `all`,
`.perfbench_out/`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BURST_S = 0.3       # set-up is timed in bursts before and after each pass
CALIBRATION_S = 0.007     # CPU time of `calibration_loop` here when the host is fast
WORKLOAD_TIMEOUT_S = 900

# end-to-end metrics: name -> (unit, better). The contract file bounds
# these; their times are CPU seconds of this process and its reaped
# children, because this machine's virtual CPUs lose up to a quarter of
# their wall time to the host (steal) in bursts lasting minutes. `setup_s`
# is also scaled by a calibration loop; see `time_setups`.
END_TO_END = {
    "trials_per_cpu_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "mean_best_score": ("score", "higher"),
    "ok_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed for people only: wall-clock throughput swings with the steal, the
# unscaled set-up CPU time with the host's speed, and the shares are 0 on
# healthy runs, where a relative bound means nothing
PRINTED_ONLY = {
    "trials_per_s": ("1/s", "higher"),
    "setup_cpu_s": ("s", "lower"),
    "diverged_share": ("share", "lower"),
    "error_share": ("share", "lower"),
}


def import_program():
    """Put this checkout's `src/` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "hgnn_space" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hgnn_space sources under {src}")
    sys.path.insert(0, str(src))
    import hgnn_space

    if Path(hgnn_space.__file__).resolve().parent != (src / "hgnn_space").resolve():
        raise SystemExit(f"perfbench: imported hgnn_space from {hgnn_space.__file__}, "
                         f"not from {src}")


def environment(seed):
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "note": "cores are shared with other work on this machine",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def steal_seconds():
    """CPU time the host took from this machine's virtual CPUs, all CPUs;
    0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def cpu_seconds():
    """CPU time of this process (all threads) and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_loop():
    """Fixed interpreter-bound work, independent of the program under test."""
    table = {}
    for i in range(30000):
        table[str(i)] = float(i) * 1.5
    return len(table)


def time_setups(plan_path, raw, scaled):
    """Time the way from the plan file to the first trial, that is
    `parse_plan` plus `expand_plan` (load, sampling, validation, splits),
    repeated for SETUP_BURST_S of wall time. Bursts run before and after
    each pass, so the median spans the whole run.

    Appends each set-up's CPU seconds to `raw`, and to `scaled` the same
    divided by the CPU time of `calibration_loop` run right after it, times
    CALIBRATION_S. This host's interpreter speed swings by 2x within
    seconds; the ratio cancels the swing."""
    from hgnn_space import runner

    burst_end = perf_counter() + SETUP_BURST_S
    while True:
        c0 = cpu_seconds()
        runner.expand_plan(runner.parse_plan(plan_path))
        c1 = cpu_seconds()
        calibration_loop()
        c2 = cpu_seconds()
        raw.append(c1 - c0)
        scaled.append((c1 - c0) / (c2 - c1) * CALIBRATION_S)
        if perf_counter() > burst_end:
            return


def run_pass(wl, plan_path, out_path, first):
    """One `hgnn-space run` of the plan plus the checks; returns the run's
    (wall, CPU) seconds, the records or None, and the problems keyed by
    trial id or check name."""
    from hgnn_space import cli, runner

    t0, c0 = perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--plan", plan_path,
                             "--parallelism", str(wl.parallelism)])
        took = (perf_counter() - t0, cpu_seconds() - c0)
        if code != 0:
            return took, None, {"run": f"exit code {code}"}
        records = runner.read_results(out_path)
        problems = wl.check(records, first)
        if wl.n:
            problems.update(wl.analyze(records))
        return took, records, problems
    except Exception as exc:  # the program under test failed: report, keep the run
        traceback.print_exc(file=sys.stderr)
        took = (perf_counter() - t0, cpu_seconds() - c0)
        return took, None, {"run": f"{type(exc).__name__}: {exc}"}


def run_workload(wl, seed, seconds, trace):
    import layermap
    import spans
    from hgnn_space.hgraph import generate_synthetic

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=workroot)
    try:
        t0 = perf_counter()
        graph = generate_synthetic(wl.spec(seed))
        generate_ms = 1000.0 * (perf_counter() - t0)
        plan_path = wl.write_inputs(graph, seed, workdir)
        out_path = os.path.join(workdir, "results.ndrec")
        setup_raw, setup_scaled = [], []
        time_setups(plan_path, setup_raw, setup_scaled)

        n_trials = wl.n_trials()
        tracer = spans.Tracer() if trace else None
        untraced, traced = [], []       # (run wall, run CPU, pass wall)
        problems = {}
        first = None
        started, steal0 = perf_counter(), steal_seconds()
        i = 0
        while i < 2 or perf_counter() - started < seconds:
            tracing = trace and i % 2 == 1
            if tracing:
                layermap.install(tracer)
            try:
                p0 = perf_counter()
                (wall, cpu), records, found = run_pass(wl, plan_path, out_path, first)
                pass_wall = perf_counter() - p0
            finally:
                if tracing:
                    tracer.remove()
            (traced if tracing else untraced).append((wall, cpu, pass_wall))
            problems.update({(i, key): why for key, why in found.items()})
            if records is None:
                break
            if first is None:
                first = records
            time_setups(plan_path, setup_raw, setup_scaled)
            i += 1
        steal = steal_seconds() - steal0
        passes = len(untraced) + len(traced)
        attempted = n_trials * passes
        failed = min(attempted, len(problems))
        for (pass_no, key), why in sorted(problems.items(), key=repr)[:20]:
            print(f"check failed: pass {pass_no} {key}: {why}", file=sys.stderr)

        ok = [r for r in first if r["status"] == "ok"] if first else []
        shown = {
            "trials_per_cpu_s": statistics.median(n_trials / c for _, c, _ in untraced),
            "trials_per_s": statistics.median(n_trials / w for w, _, _ in untraced),
            "setup_s": statistics.median(setup_scaled),
            "setup_cpu_s": statistics.median(setup_raw),
            "mean_best_score": (statistics.fmean(r["best_score"] for r in ok)
                                if ok else 0.0),
            "ok_share": len(ok) / n_trials,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "diverged_share": (sum(r["status"] == "failed" for r in first) / n_trials
                               if first else 0.0),
            "error_share": failed / attempted,
        }
        if not trace:
            metrics = {k: {"value": shown[k], "unit": END_TO_END[k][0]}
                       for k in END_TO_END}
        else:
            labels = wl.labels()
            units = layermap.metric_units(all_labels())
            values = dict.fromkeys(units, 0.0)
            if traced:
                values.update(layermap.per_layer_metrics(
                    tracer.spans, len(traced),
                    sum(w for w, _, _ in traced), sum(p for _, _, p in traced),
                    wl.parallelism,
                    lambda tid: labels[tid // wl.splits] if labels else None))
                values["trace.traced_trials_per_s"] = statistics.median(
                    n_trials / w for w, _, _ in traced)
                values["trace.untraced_trials_per_s"] = shown["trials_per_s"]
                values["trace.overhead_share"] = 1.0 - statistics.median(
                    n_trials / c for _, c, _ in traced) / shown["trials_per_cpu_s"]
            values["hgraph.generate_synthetic_ms"] = generate_ms
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        report(wl, seed, [w for w, _, _ in untraced + traced], steal, shown, trace)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()


def all_labels():
    from workloads import WORKLOADS

    return [label for wl in WORKLOADS.values() for label in wl.labels()]


def report(wl, seed, run_walls, steal, shown, trace):
    print(f"workload {wl.name}  seed {seed}  parallelism {wl.parallelism}  "
          f"trace {int(trace)}  run walls (s): "
          + " ".join(f"{w:.2f}" for w in run_walls)
          + f"  host steal over the passes: {steal:.1f} CPU-s")
    if wl.parallelism > 1:
        print(f"  note: parallelism {wl.parallelism} on {os.cpu_count()} cores "
              "shared with other work")
    for name, (unit, better) in {**END_TO_END, **PRINTED_ONLY}.items():
        print(f"  {name:<16} {shown[name]:>14.6g} {unit:<6} ({better} is better)")


def run_all(args):
    """Every workload in a fresh process; the results go to
    .perfbench_out/results[-traced].json."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("results-traced.json" if args.trace else "results.json")
    with open(out, "w") as fh:
        json.dump({"environment": environment(args.seed), "seconds": args.seconds,
                   "workloads": results}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # pin BLAS to one thread before numpy loads, as the CLI does
    for var in BLAS_VARS:
        os.environ[var] = "1"
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"perfbench: unknown workload '{args.workload}' "
                         f"(expected one of {', '.join(WORKLOADS)} or all)")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
