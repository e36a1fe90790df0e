"""Fast self-check of the benchmark harness (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload at its tiny size, untraced and traced, with every
correctness check on, and confirms that each check rejects a corrupted
output. The seeking checks of demo-ex1 (c on [150, 200] and the final rora
value) need the full horizon t = 200; at the tiny size they are fed a
corrupted full-size table instead. Exits 0 when all is well, 1 otherwise.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import run
import tracing
import workloads as wl

SEED = 3


def expect(failures, label, problems, want):
    """Record a failure unless `problems` is non-empty exactly when `want`."""
    if bool(problems) != want:
        failures.append(f"{label}: expected {'problems' if want else 'none'}, got {problems}")


def check_workloads(failures, tmp):
    for name, workload in wl.WORKLOADS.items():
        ctx, setups = run.set_up(workload, SEED, "tiny", 2)
        times, more, attempted, failed, problems = run.run_untraced(
            workload, ctx, 0.0, tmp / name, SEED, "tiny"
        )
        if len(more) != run.SETUP_BETWEEN * attempted:
            failures.append(f"{name}: {len(more)} set-ups after {attempted} ops")
        print(f"{name}: {len(setups + more)} set-ups, {attempted} ops, {failed} failed, {times}")
        expect(failures, f"{name} untraced", problems + ["failed op"] * failed, False)
        if attempted != run.MIN_OPS:
            failures.append(f"{name}: {attempted} ops attempted at --seconds 0")

    # the traced profile covers every layer whichever workload is named
    workload = wl.WORKLOADS["verify-gain"]
    ctx, _ = run.set_up(workload, SEED, "tiny", 1)
    metrics, attempted, failed, problems = run.run_traced(
        workload, ctx, tmp / "traced", SEED, size="tiny"
    )
    expect(failures, "traced run", problems + ["failed op"] * failed, False)
    if attempted != 5:
        failures.append(f"traced run attempted {attempted} stages, not 5")
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    if set(metrics) != names:
        failures.append(f"traced metrics differ from BENCHMARK.json: {set(metrics) ^ names}")
    for key, (value, unit) in metrics.items():
        if key != "trace.overhead_s" and not value > 0:
            failures.append(f"per-layer metric {key} = {value}")


def check_demo_rejects(failures, tmp):
    demo = wl.WORKLOADS["demo-ex1"]
    ctx = demo.build(wl.load_library(run.SRC), SEED, "tiny")
    demo.once(ctx)
    first, second = tmp / "demo-a", tmp / "demo-b"
    demo.op(ctx, first)
    demo.op(ctx, second)
    expect(failures, "demo repeat", demo.check(ctx, None, second, first), False)

    path = second / "ex1_rora.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = demo.check(ctx, None, second, first)
    moved = [p for p in problems if "reference RK4" in p]
    expect(failures, "demo perturbed rora path", moved, True)
    expect(failures, "demo perturbed bytes", [p for p in problems if "differs" in p], True)

    # the seeking checks, on a full-horizon table that never reaches the source
    full_ctx = SimpleNamespace(
        scenario=ctx.scenario, t_final=200.0, reference=wl.rora_reference(200.0)
    )
    fake = tmp / "demo-fake"
    fake.mkdir()
    ref, q = full_ctx.reference
    c = wl.signal(ref[:, 1:4])
    rows = np.column_stack([ref, c, c, np.tile(q.ravel(), (len(ref), 1))])
    stalled = rows.copy()
    stalled[:, 1:4] = ref[0, 1:4]
    for rep, table in (("full", stalled), ("transformed", stalled), ("rora", rows)):
        np.savetxt(fake / f"ex1_{rep}.csv", table, delimiter=",", header="h", comments="")
    problems = demo.check(full_ctx, None, fake, None)
    expect(failures, "demo seek window", [p for p in problems if "full c falls" in p], True)
    expect(failures, "demo gap", [p for p in problems if "transformed gap" in p], False)
    rows[:, 6] += 1e-7
    np.savetxt(fake / "ex1_rora.csv", rows, delimiter=",", header="h", comments="")
    problems = demo.check(full_ctx, None, fake, None)
    expect(failures, "demo rotation defect", [p for p in problems if "rotation defect" in p], True)


def check_marks_rejects(failures):
    """Marks taken all before the integration must not pass as its bounds."""
    tracer = tracing.Tracer()
    for rep, start, end in (("full", 0.0, 1.0), ("transformed", 1.0, 3.0), ("rora", 3.0, 3.2)):
        tracer.record(f"seek3d.{rep}_trajectory", start, end, None)
    names = tracing.MarkedNames(("full", "transformed", "rora"))
    names.marks = [10.0, 11.1, 12.9, 13.1]
    expect(failures, "marks one at a time", tracing.check_marks(tracer, names), False)
    names.marks = [10.0, 10.0001, 10.0002, 10.0003]
    expect(failures, "marks read up front", tracing.check_marks(tracer, names), True)
    names.marks = names.marks[:2]
    expect(failures, "marks missing", tracing.check_marks(tracer, names), True)


def check_other_rejects(failures):
    good = np.array([0.8, 0.41, 0.21, 0.105])
    expect(failures, "sweep good", wl.check_sweep(wl.SWEEP_OMEGAS, good), False)
    expect(failures, "sweep flat", wl.check_sweep(wl.SWEEP_OMEGAS, good[::-1]), True)
    expect(failures, "sweep 1/omega", wl.check_sweep(wl.SWEEP_OMEGAS, good / [1, 2, 8, 32]), True)
    expect(failures, "gain good", wl.check_gain(wl.A_PAPER, 0.0), False)
    expect(failures, "gain doubled", wl.check_gain(2.0 * wl.A_PAPER, 0.0), True)
    expect(failures, "gain moving frame", wl.check_gain(wl.A_PAPER, 1e-6), True)


def main():
    sys.path.insert(0, str(run.SRC))
    failures = []
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        check_workloads(failures, tmp)
        check_demo_rejects(failures, tmp)
        check_marks_rejects(failures)
        check_other_rejects(failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
