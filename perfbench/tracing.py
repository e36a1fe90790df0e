"""The traced run: spans around calls into each layer, and the per-layer metrics.

Spans are recorded only from this file, around calls into the public
functions of geom3, odeint, seek3d, avgcore and runner; recavg itself is not
changed. Counts come from wrapping callbacks that a caller supplies anyway:
the scenario's SignalField (swapped in with dataclasses.replace) and the
f1 field of the embedded SingularSystem.

A traced run profiles every layer on the workload where it carries the
cost, so each traced run reports every per-layer metric. Each profile
returns its metrics and the problems its checks found:

* micro_timings: one layer call repeated on inputs made from the seed;
* profile_demo: run_scenario with the field calls counted, then the three
  trajectory calls it makes, then CSV writing and plotting of the same tables;
* profile_sweep: a serial run_sweep that counts field calls, untimed, then
  run_sweep and one simulate_two_scale per omega, both on the plain field;
* profile_verify: verify_averaging, compute_A_numeric, and single averaged
  evaluations of the embedded and sin/cos systems.
"""

import importlib
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads as wl

MICRO_REPEATS = 5
N_STATES = 128
RK4_STEPS = 2000
N_AVERAGED = 4
N_SINCOS = 10
# a representation's stretch of run_scenario, between two marks, and its
# separate trajectory call must agree within this factor; the host's speed
# drifts by up to 2x between calls
MARK_FACTOR = 3.0


class Tracer:
    """Spans (name, start, end, parent) kept in memory until `write`."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, calls=1):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "calls": calls,
            "start": None,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name, start, end, parent):
        """A span whose bounds were taken elsewhere, such as by MarkedNames."""
        rec = {"id": len(self.spans), "name": name, "parent": parent, "calls": 1}
        self.spans.append(dict(rec, start=start, end=end))

    def duration(self, name):
        """Total duration of the spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name):
        """Duration of the spans with this name minus what their children cover."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.duration(name) - children

    def per_call(self, name):
        """Median over the spans with this name of duration / calls."""
        return statistics.median(
            (s["end"] - s["start"]) / s["calls"] for s in self.spans if s["name"] == name
        )

    def write(self, path, **header):
        doc = dict(header, spans=self.spans)
        Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


class Counter:
    """A count of callback calls. Counting runs in one thread at a time."""

    def __init__(self):
        self.value = 0


class Counted:
    """`fn` with each call added to `counter`: 1, or the size of argument `arg`."""

    def __init__(self, fn, counter, arg=None):
        self.fn, self.counter, self.arg = fn, counter, arg

    def __call__(self, *args):
        self.counter.value += 1 if self.arg is None else np.size(args[self.arg])
        return self.fn(*args)


class MarkedNames(tuple):
    """A scenario's representation names that note when each is taken.

    run_representations takes the names one at a time and integrates each
    before taking the next, so inside run_scenario the marks bound each
    representation's integration and the artifact phase follows the last.
    `check_marks` confirms that against separately timed trajectory calls.
    """

    def __iter__(self):
        for name in super().__iter__():
            self.marks.append(time.perf_counter())
            yield name
        self.marks.append(time.perf_counter())


def check_marks(tracer, names):
    """Problems unless each gap between marks matches its trajectory call."""
    if len(names.marks) != len(names) + 1:
        return [f"{len(names.marks)} representation marks for {len(names)} names"]
    problems = []
    for rep, start, end in zip(names, names.marks, names.marks[1:]):
        separate = tracer.duration(f"seek3d.{rep}_trajectory")
        if not separate / MARK_FACTOR <= end - start <= separate * MARK_FACTOR:
            problems.append(
                f"run_scenario spent {end - start:.4g} s on {rep} between marks, "
                f"its trajectory call {separate:.4g} s: the marks do not bound "
                "the integration, so runner.artifacts_s would be wrong"
            )
    return problems


def counted_field(field, counter):
    """The same SignalField with strength and gradient calls counted."""
    return replace(
        field, strength=Counted(field.strength, counter), gradient=Counted(field.gradient, counter)
    )


# ---------------------------------------------------------------------------
# micro-timings of single layer calls

def _sample_states(lib, seed):
    """States of a real projected run of the full seeker from a seeded start.

    Returns (times, states, raw) where raw holds the rotation blocks that
    one unprojected RK4 step from each state produces: exactly what
    project_so3 is handed after every step of a projected run.
    """
    seek3d, geom3, odeint = lib.seek3d, lib.geom3, lib.odeint
    params = wl.ex1_params(lib)
    field = seek3d.signal_field("static")
    rng = np.random.default_rng(seed)
    p0 = rng.normal(0.0, 2.0, 3)
    R0 = geom3.rot_exp(rng.normal(0.0, 1.0, 3))
    z0 = field.strength(p0, 0.0)
    dt = min(params.tau_period / params.omega / 64, params.mu)
    traj = seek3d.full_trajectory(
        params, field, p0, R0, z0, 0.0, N_STATES * dt,
        odeint.IntegratorSettings(steps_per_period=64, projection=True),
    )
    unprojected = odeint.IntegratorSettings(steps_per_period=64, projection=False)
    raw = []
    for t, y in zip(traj.times[:N_STATES], traj.states[:N_STATES]):
        step = seek3d.full_trajectory(
            params, field, y[0:3], y[3:12].reshape(3, 3), y[12], t, dt, unprojected
        )
        raw.append(step.final_state[3:12].reshape(3, 3))
    return traj.times[:N_STATES], traj.states[:N_STATES], raw, params, field


def _time_calls(tracer, name, fn, inputs):
    for _ in range(MICRO_REPEATS):
        with tracer.span(name, calls=len(inputs)):
            for args in inputs:
                fn(*args)


# per-call metrics: (metric, span, scale, unit)
PER_CALL = (
    ("geom3.project_so3_us", "geom3.project_so3", 1e6, "us/call"),
    ("geom3.rot_exp_us", "geom3.rot_exp", 1e6, "us/call"),
    ("odeint.rk4_step_us", "odeint.rk4_step", 1e6, "us/step"),
    ("odeint.rk4_projected_step_us", "odeint.rk4_projected_step", 1e6, "us/step"),
    ("seek3d.full_rhs_us", "seek3d.full_rhs", 1e6, "us/call"),
    ("seek3d.transformed_rhs_us", "seek3d.transformed_rhs", 1e6, "us/call"),
    ("seek3d.rora_rhs_us", "seek3d.rora_rhs", 1e6, "us/call"),
    ("seek3d.embedded_rhs_us", "seek3d.embedded_rhs", 1e6, "us/call"),
)


def micro_timings(tracer, lib, seed):
    """Per-call metrics, and the defects of the project_so3 inputs."""
    seek3d, geom3, odeint, avgcore = lib.seek3d, lib.geom3, lib.odeint, lib.avgcore
    times, states, raw, params, field = _sample_states(lib, seed)
    defects = [geom3.so3_defect(m) for m in raw]
    sqw = math.sqrt(params.omega)

    _time_calls(tracer, "geom3.project_so3", geom3.project_so3, [(m,) for m in raw])
    axis = params.alpha * np.array([1.0, 1.0, 0.0])
    _time_calls(tracer, "geom3.rot_exp", geom3.rot_exp, [(sqw * t * axis,) for t in times])

    rigid = [
        (seek3d.RigidState(p=y[0:3], R=y[3:12].reshape(3, 3), z=y[12]), t)
        for t, y in zip(times, states)
    ]
    _time_calls(tracer, "seek3d.full_rhs", lambda s, t: seek3d.full_rhs(s, t, params, field), rigid)
    _time_calls(
        tracer, "seek3d.transformed_rhs",
        lambda s, t: seek3d.transformed_rhs(s.p, s.R, s.z, t, params, field), rigid,
    )
    _time_calls(tracer, "seek3d.rora_rhs", lambda s, t: seek3d.rora_rhs(s.p, s.R, t, field), rigid)

    reduced = avgcore.reduce_to_slow_manifold(
        seek3d.embedded_system(params, field, validate=False), validate=False
    )
    f1, f2 = reduced.f1.func, reduced.f2.func
    embedded = [(seek3d.embed_columns(s.p, s.R), t, sqw * t, params.omega * t) for s, t in rigid]
    _time_calls(
        tracer, "seek3d.embedded_rhs",
        lambda x, t, sigma, tau: (f1(x, t, sigma, tau), f2(x, t, sigma, tau)), embedded,
    )

    rng = np.random.default_rng(seed)
    drift = 1e-3 * rng.normal(0.0, 1.0, 13)
    x0 = np.concatenate([rng.normal(0.0, 1.0, 3), np.eye(3).ravel(), [0.0]])
    settings = odeint.IntegratorSettings(steps_per_period=64, projection=True)
    dt = 1e-3
    rhs = lambda t, x: drift
    for _ in range(MICRO_REPEATS):
        with tracer.span("odeint.rk4_step", calls=RK4_STEPS):
            odeint.integrate(rhs, x0, 0.0, RK4_STEPS * dt, settings, dt=dt)
        with tracer.span("odeint.rk4_projected_step", calls=RK4_STEPS):
            odeint.integrate_projected(rhs, x0, 0.0, RK4_STEPS * dt, settings, [3], dt=dt)
    metrics = {name: (scale * tracer.per_call(span), unit) for name, span, scale, unit in PER_CALL}
    inputs = {"max_defect_projected": max(defects), "min_defect_projected": min(defects)}
    return metrics, inputs


# ---------------------------------------------------------------------------
# the layers of each workload's operation, on the workload's own inputs

def _header(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().strip().split(",")


def profile_demo(tracer, ctx, out_dir, counter, first_dir):
    """Per-layer metrics and problems of one traced demo-ex1 operation.

    `first_dir` holds an untraced operation's artifacts, which the traced
    operation must reproduce byte for byte, or is None.
    """
    lib, scenario = ctx.lib, ctx.scenario
    seek3d, artifacts = lib.seek3d, lib.artifacts
    demo = wl.WORKLOADS["demo-ex1"]
    if ctx.reference is None:
        demo.once(ctx)
    names = MarkedNames(scenario.representations)
    names.marks = []
    traced = replace(scenario, field=counted_field(scenario.field, counter), representations=names)
    op_dir = Path(out_dir, "demo")
    before = counter.value
    with tracer.span("demo-ex1"):
        with tracer.span("runner.run_scenario") as outer:
            result = lib.runner.run_scenario(traced, op_dir)
        if len(names.marks) == len(names) + 1:
            start, end = names.marks[0], names.marks[-1]
            tracer.record("runner.run_representations", start, end, outer["id"])

        # the calls run_representations makes, one span each
        params, sample_dt = scenario.params, scenario.sample_dt
        z0 = scenario.initial_z(0.0)
        Q0 = seek3d.initial_Q(scenario.R0, z0, 0.0, params)
        with tracer.span("seek3d.full_trajectory"):
            full = seek3d.full_trajectory(
                params, scenario.field, scenario.p0, scenario.R0, z0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )
        with tracer.span("seek3d.transformed_trajectory"):
            tran = seek3d.transformed_trajectory(
                params, scenario.field, scenario.p0, Q0, z0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )
        with tracer.span("seek3d.rora_trajectory"):
            rora = seek3d.rora_trajectory(
                params, scenario.field, scenario.p0, Q0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )

        csv_names = sorted(n for n in os.listdir(op_dir) if n.endswith(".csv"))
        tables = {n: wl.read_table(Path(op_dir, n)) for n in csv_names}
        headers = {n: _header(Path(op_dir, n)) for n in csv_names}
        copy_dir = Path(out_dir, "demo-copy")
        copy_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("runner.write_csv", calls=len(csv_names)):
            for n in csv_names:
                artifacts.write_csv(Path(copy_dir, n), headers[n], tables[n])
        svgplot = importlib.import_module("recavg.runner.svgplot")
        rep_tables = {rep: tables[f"{scenario.name}_{rep}.csv"] for rep in scenario.representations}
        with tracer.span("runner.plot_artifacts"):
            svgplot.plot_artifacts(scenario.name, rep_tables, copy_dir, scenario.field)

    problems = demo.check(ctx, result, op_dir, first_dir) + check_marks(tracer, names)
    if counter.value == before:
        problems.append("no field call was counted in run_scenario")
    # the layer calls redo the operation's work: same paths, same bytes
    for rep, traj in (("full", full), ("transformed", tran), ("rora", rora)):
        if not np.array_equal(traj.states[:, 0:3], rep_tables[rep][:, 1:4]):
            problems.append(f"{rep}_trajectory does not reproduce the {rep} CSV")
    problems += wl.same_bytes(op_dir, copy_dir)

    m = {}
    for rep in ("full", "transformed", "rora"):
        m[f"runner.integrate_s.{rep}"] = (tracer.self_time(f"seek3d.{rep}_trajectory"), "s")
    m["runner.artifacts_s"] = (tracer.self_time("runner.run_scenario"), "s")
    m["runner.write_csv_ms"] = (1e3 * tracer.duration("runner.write_csv"), "ms")
    m["runner.plot_ms"] = (1e3 * tracer.self_time("runner.plot_artifacts"), "ms")
    csv_bytes = sum(Path(op_dir, n).stat().st_size for n in csv_names)
    m["runner.csv_bytes"] = (csv_bytes, "bytes")
    return m, problems


def omega_label(w):
    return f"w{round(w / math.pi)}pi"


def profile_sweep(tracer, ctx, counter):
    """Per-layer metrics and problems of one traced sweep-rate operation."""
    lib, scenario = ctx.lib, ctx.scenario
    seek3d, avgcore = lib.seek3d, lib.avgcore
    sweep = wl.WORKLOADS["sweep-rate"]

    # field calls, counted in a serial pass that is not timed
    before = counter.value
    counted = replace(scenario, field=counted_field(scenario.field, counter))
    report = lib.runner.run_sweep(counted, wl.SWEEP_OMEGAS, None, t_final=ctx.t_final, workers=1)
    problems = sweep.check(ctx, report, None, None)
    if counter.value == before:
        problems.append("no field call was counted in run_sweep")

    with tracer.span("sweep-rate"):
        # run_sweep with no output directory is one convergence_study call
        # plus building the embedded system
        with tracer.span("avgcore.convergence_study"):
            report = lib.runner.run_sweep(
                scenario, wl.SWEEP_OMEGAS, None, t_final=ctx.t_final, workers=ctx.workers
            )
        # the per-omega runs convergence_study makes, one at a time
        params = scenario.params
        z0 = scenario.initial_z(0.0)
        x0 = seek3d.embed_columns(scenario.p0, seek3d.initial_Q(scenario.R0, z0, 0.0, params))
        reduced = avgcore.reduce_to_slow_manifold(
            seek3d.embedded_system(params, scenario.field, validate=False), validate=False
        )
        settings = lib.odeint.IntegratorSettings(
            steps_per_period=scenario.integrator.steps_per_period,
            projection=scenario.integrator.projection,
        )
        for w in wl.SWEEP_OMEGAS:
            with tracer.span(f"avgcore.simulate_two_scale.{omega_label(w)}"):
                avgcore.simulate_two_scale(
                    replace(reduced, omega=w, validate=False),
                    x0, 0.0, ctx.t_final, settings, sample_dt=ctx.t_final / 400.0,
                )
    problems += sweep.check(ctx, report, None, None)

    m = {}
    per_omega = 0.0
    for w in wl.SWEEP_OMEGAS:
        t = tracer.self_time(f"avgcore.simulate_two_scale.{omega_label(w)}")
        per_omega += t
        m[f"avgcore.simulate_two_scale_s.{omega_label(w)}"] = (t, "s")
    study = tracer.self_time("avgcore.convergence_study")
    m["avgcore.convergence_study_s"] = (study, "s")
    m["avgcore.pool_speedup"] = (per_omega / study, "ratio")
    return m, problems


def profile_verify(tracer, ctx):
    """Per-layer metrics and problems of one traced verify-gain operation."""
    lib, params, seed = ctx.lib, ctx.params, ctx.seed
    seek3d, avgcore = lib.seek3d, lib.avgcore
    verify = wl.WORKLOADS["verify-gain"]
    rng = np.random.default_rng(seed)
    f1_points = Counter()
    with tracer.span("verify-gain"):
        with tracer.span("runner.verify_averaging"):
            report = lib.runner.verify_averaging(seed=seed, n_probes=ctx.n_probes)
        with tracer.span("seek3d.compute_A_numeric"):
            a_matrix, rot_res, _ = seek3d.compute_A_numeric(
                params, n_probes=ctx.n_probes, seed=seed
            )

        # one averaged evaluation at a time, with f1's tau points counted
        ssys = seek3d.embedded_system(params, seek3d.signal_field("static"), validate=False)
        f1 = replace(ssys.f1, func=Counted(ssys.f1.func, f1_points, arg=4))
        ssys = replace(ssys, f1=f1, validate=False)
        quad = avgcore.QuadratureSettings(base_panels=64, tol=1e-7, max_refinements=4)
        averaged = avgcore.rora_reduce(ssys, quad)
        for _ in range(N_AVERAGED):
            p, axis = rng.normal(0.0, 2.0, 3), rng.normal(0.0, 1.0, 3)
            x = seek3d.embed_columns(p, lib.geom3.rot_exp(axis))
            with tracer.span("avgcore.average_embedded"):
                averaged(x, 0.0)
        sincos = avgcore.average_fields(lib.verify.sincos_test_system())
        for _ in range(N_SINCOS):
            x = rng.normal(0.0, 1.0, 2)
            with tracer.span("avgcore.average_sincos"):
                sincos(x, 0.0)
    problems = verify.check(ctx, report, None, None) + wl.check_gain(a_matrix, rot_res)
    if f1_points.value == 0:
        problems.append("no f1 point was counted in the averaged evaluations")

    embedded_ms = 1e3 * tracer.per_call("avgcore.average_embedded")
    m = {
        "seek3d.compute_A_s": (tracer.self_time("seek3d.compute_A_numeric"), "s"),
        "avgcore.average_embedded_ms": (embedded_ms, "ms/eval"),
        "avgcore.average_sincos_ms": (1e3 * tracer.per_call("avgcore.average_sincos"), "ms/eval"),
        "avgcore.f1_points_per_average": (f1_points.value / N_AVERAGED, "count/eval"),
    }
    return m, problems
