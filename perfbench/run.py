"""One-command benchmark for recavg.

    python3 perfbench/run.py --workload demo-ex1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; recavg is imported from its `src/`.
With --trace 0 it times whole workload operations and prints the end-to-end
metrics (wall_s, setup_s, peak_rss_mib). With --trace 1 it runs the traced
profile and prints the per-layer metrics instead (see perfbench/README.md).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 when a result was printed, 2 when the program's sources
are missing and 1 when no operation completed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_FIRST = 20  # set-ups before the first operation
SETUP_BETWEEN = 8  # set-ups after each operation, in untraced runs
MIN_OPS = 2


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def header(args):
    return [
        f"# recavg benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds}, trace {args.trace}",
        f"# git {git_sha(ROOT)}  nproc {len(os.sched_getaffinity(0))}  "
        f"python {platform.python_version()}  numpy {np.__version__}  "
        f"src lines {src_lines(SRC)} (reference, not a metric)",
    ]


def set_up(workload, seed, size, repeats):
    """Import recavg and build the workload `repeats` times.

    Returns the context of the first build and every build's time.
    """
    ctx, times = None, []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lib = wl.load_library(SRC)
        built = workload.build(lib, seed, size)
        times.append(time.perf_counter() - t0)
        ctx = ctx or built
    return ctx, times


def run_untraced(workload, ctx, seconds, out_dir, seed, size):
    """Repeat the operation for about `seconds`, at least MIN_OPS times.

    After each operation, outside its timed region, the set-up is repeated
    SETUP_BETWEEN times, so that the set-up times sample the whole run and
    not only its start. Returns (op times, set-up times, attempted, failed,
    problems).
    """
    problems = workload.once(ctx)
    times, setup_times, failed, attempted = [], [], 0, 0
    first_dir = None
    start = time.perf_counter()
    while True:
        attempted += 1
        op_dir = out_dir / f"op{attempted}"
        t0 = time.perf_counter()
        try:
            result = workload.op(ctx, op_dir)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            times.append(time.perf_counter() - t0)
            problems += workload.check(ctx, result, op_dir, first_dir)
        if first_dir is None and op_dir.exists():
            first_dir = op_dir
        elif op_dir.exists():
            shutil.rmtree(op_dir)
        # the operations keep the modules that ctx was built from
        loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "recavg"}
        setup_times += set_up(workload, seed, size, SETUP_BETWEEN)[1]
        sys.modules.update(loaded)
        elapsed = time.perf_counter() - start
        if attempted >= MIN_OPS and (not times or elapsed + statistics.median(times) > seconds):
            break
    return times, setup_times, attempted, failed, problems


def run_traced(workload, ctx, out_dir, seed, size="full"):
    """Untraced operation once, then the traced profile of every layer.

    Each of the five stages is one attempted operation. A stage that raises
    counts as failed, and the metrics it would give are left out.
    """
    problems = workload.once(ctx)
    tracer = tracing.Tracer()
    metrics, extra, field_evals = {}, {}, tracing.Counter()
    attempted = failed = 0

    def stage(fn):
        nonlocal attempted, failed
        attempted += 1
        try:
            found_metrics, found = fn()
        except Exception:
            failed += 1
            traceback.print_exc()
            return False
        metrics.update(found_metrics)
        problems.extend(found)
        return True

    def context(name):
        return ctx if workload.name == name else wl.WORKLOADS[name].build(ctx.lib, seed, size)

    untraced_dir = out_dir / "untraced"

    def untraced():
        t0 = time.perf_counter()
        result = workload.op(ctx, untraced_dir)
        extra["untraced_s"] = time.perf_counter() - t0
        return {}, workload.check(ctx, result, untraced_dir, None)

    def micro():
        found_metrics, extra["projection_inputs"] = tracing.micro_timings(tracer, ctx.lib, seed)
        return found_metrics, []

    done = {
        "untraced": stage(untraced),
        "micro": stage(micro),
        "demo-ex1": stage(lambda: tracing.profile_demo(
            tracer, context("demo-ex1"), out_dir, field_evals,
            untraced_dir if workload.name == "demo-ex1" and "untraced_s" in extra else None,
        )),
        "sweep-rate": stage(lambda: tracing.profile_sweep(
            tracer, context("sweep-rate"), field_evals
        )),
        "verify-gain": stage(lambda: tracing.profile_verify(tracer, context("verify-gain"))),
    }
    if done["demo-ex1"] and done["sweep-rate"]:
        metrics["seek3d.field_evals"] = (field_evals.value, "count/op")
    if done["untraced"] and done[workload.name]:
        traced_span = {
            "demo-ex1": "runner.run_scenario",
            "sweep-rate": "avgcore.convergence_study",
            "verify-gain": "runner.verify_averaging",
        }[workload.name]
        overhead_s = tracer.duration(traced_span) - extra["untraced_s"]
        metrics["trace.overhead_s"] = (overhead_s, "s")

    trace_path = OUT / f"trace_{workload.name}_seed{seed}.json"
    tracer.write(
        trace_path, workload=workload.name, seed=seed, **extra,
        metrics={k: v[0] for k, v in metrics.items()},
    )
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return metrics, attempted, failed, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "recavg" / "__init__.py").is_file():
        print(f"error: recavg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for line in header(args):
        print(line)
    workload = wl.WORKLOADS[args.workload]
    ctx, setup_times = set_up(workload, args.seed, "full", SETUP_FIRST)

    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems = run_traced(workload, ctx, out_dir, args.seed)
        else:
            times, more_setups, attempted, failed, problems = run_untraced(
                workload, ctx, args.seconds, out_dir, args.seed, "full"
            )
            setup_times += more_setups
            if not times:
                print("error: no operation completed", file=sys.stderr)
                return 1
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(times), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mib": (rss, "MiB"),
            }
            print(f"# {len(times)} operations: " + ", ".join(f"{t:.4f}" for t in times) + " s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"# {workload.name}: attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
