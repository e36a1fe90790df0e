"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload is a `Workload` with three steps:

* build(lib, seed, size) -> ctx   the set-up that `setup_s` times, after a
                                   fresh import of recavg (see `load_library`);
* op(ctx, out_dir) -> result      one timed operation;
* check(ctx, result, out_dir, first_dir) -> [problem, ...]
                                   the correctness checks of one operation,
                                   outside the timed region.

`once(ctx)` holds the checks that run once per run rather than per operation.

Every reference value here is written out or computed by this file, never
taken from recavg: the gain matrix comes from the paper, the averaged seeker
path from a separate numpy RK4 integration, the sin/cos drift from the
commutator of two literal matrices, and the sweep's rate from a fresh
log-log fit of the reported errors.
"""

import importlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# reference values, written out independently of the program

# the averaged gain of the paper: A = 1/4 [[3, 1, 0], [1, 3, 0], [0, 0, 2]]
A_PAPER = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]) / 4.0
A_TOL = 1e-6
ROTATION_TOL = 1e-8
SINCOS_TOL = 1e-8

# sin(tau) B1 x + cos(tau) B2 x averages to -[b1, b2] / 2 with the bracket
# [u, v] = (Dv) u - (Du) v, i.e. -(B2 B1 - B1 B2) x / 2
_B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
_B2 = np.array([[0.0, 0.0], [1.0, 0.0]])
SINCOS_DRIFT = -0.5 * (_B2 @ _B1 - _B1 @ _B2)

# ex1 as documented: stationary source at the origin, start (-2, -2, 6),
# omega = 4 pi, 64 steps per forcing period, every 4th step sampled; the
# averaged (rora) flow steps at 1/64 and is sampled every 1/32
EX1_P0 = np.array([-2.0, -2.0, 6.0])
EX1_OMEGA = 4.0 * math.pi
EX1_ALPHA = 1.0 / 8.0
EX1_MU = 1.0 / (16.0 * math.pi**2)
RORA_DT = 1.0 / 64.0
SAMPLE_DT = 1.0 / 32.0

# same scheme and step as the program's rora integration, so only rounding
# order differs (see README "demo-ex1 tolerances")
RORA_TOL = 1e-9
# criterion 6 allows 1e-6 at 256 steps/period; RK4 at 64 steps/period is
# (256/64)^4 = 256 times coarser
CHANGE_OF_VARIABLES_TOL = 256 * 1e-6
SO3_TOL = 1e-8
SEEK_WINDOW = (150.0, 200.0)
SEEK_FLOOR = -0.2
RORA_END_FLOOR = -1e-6
MONOTONE_SLACK = 1e-13

SWEEP_OMEGAS = (4.0 * math.pi, 16.0 * math.pi, 64.0 * math.pi, 256.0 * math.pi)
SLOPE_RANGE = (-0.65, -0.35)
RATIO_RANGE = (1.5, 2.5)

# workload sizes: "full" is what the benchmark measures, "tiny" is what the
# harness self-check runs
SIZES = {
    "full": {"demo_t_final": 200.0, "sweep_t_final": 1.0, "n_probes": 24},
    "tiny": {"demo_t_final": 4.0, "sweep_t_final": 0.25, "n_probes": 4},
}


def signal(p):
    """c(p) = -log(1 + |p|^2 / 2) of a source at the origin; rows of p."""
    p = np.asarray(p, dtype=float)
    return -np.log1p(0.5 * np.sum(p * p, axis=-1))


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rora_reference(t_final):
    """Samples of dp/dt = Q A Q^T grad c(p) by plain RK4, as an (m, 4) array.

    The filter starts on its quasi-steady value z0 = c(p0) with identity
    attitude, so the averaged frame is Q = Rz(z0).
    """
    q = rot_z(float(signal(EX1_P0)))
    gain = q @ A_PAPER @ q.T

    def f(p):
        return -(gain @ p) / (1.0 + 0.5 * float(p @ p))

    every = round(SAMPLE_DT / RORA_DT)
    n_steps = round(t_final / RORA_DT)
    p = EX1_P0.copy()
    rows = [[0.0, *p]]
    h = RORA_DT
    for k in range(n_steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % every == 0:
            rows.append([(k + 1) * h, *p])
    return np.array(rows), q


def so3_defect(rot_rows):
    """Largest |R^T R - I| entry over rows holding row-major 3x3 matrices."""
    r = np.asarray(rot_rows, dtype=float).reshape(-1, 3, 3)
    gram = np.einsum("nki,nkj->nij", r, r)
    return float(np.abs(gram - np.eye(3)).max())


def fitted_slope(omegas, errors):
    return float(np.polyfit(np.log(omegas), np.log(errors), 1)[0])


def read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def same_bytes(dir_a, dir_b):
    """Problems if the CSV/SVG files of two run directories differ."""
    names_a = sorted(n for n in os.listdir(dir_a) if n.endswith((".csv", ".svg")))
    names_b = sorted(n for n in os.listdir(dir_b) if n.endswith((".csv", ".svg")))
    if names_a != names_b:
        return [f"artifact sets differ: {names_a} vs {names_b}"]
    return [
        f"{name} differs between repeated operations"
        for name in names_a
        if Path(dir_a, name).read_bytes() != Path(dir_b, name).read_bytes()
    ]


# ---------------------------------------------------------------------------
# importing the program

def load_library(src):
    """Import recavg afresh from `src` and return its layers.

    Earlier imports are dropped from sys.modules first, so every call pays
    the full import, which is what `setup_s` measures.
    """
    for name in [m for m in sys.modules if m == "recavg" or m.startswith("recavg.")]:
        del sys.modules[name]
    runner = importlib.import_module("recavg.runner")
    recavg = sys.modules["recavg"]
    where = Path(recavg.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"recavg was imported from {where}, not from {src}")
    return SimpleNamespace(
        geom3=recavg.geom3,
        odeint=recavg.odeint,
        avgcore=recavg.avgcore,
        seek3d=recavg.seek3d,
        runner=runner,
        artifacts=sys.modules["recavg.runner.artifacts"],
        verify=sys.modules["recavg.runner.verify"],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    op: Callable
    check: Callable
    once: Callable = lambda ctx: []


# ---------------------------------------------------------------------------
# demo-ex1: run_scenario(built_in("ex1")), as `recavg demo ex1` does

def _demo_build(lib, seed, size):
    scenario = lib.runner.built_in("ex1")
    t_final = SIZES[size]["demo_t_final"]
    if t_final != scenario.t_final:
        scenario = replace(scenario, t_final=t_final)
    return SimpleNamespace(lib=lib, scenario=scenario, t_final=t_final, reference=None)


def _demo_op(ctx, out_dir):
    return ctx.lib.runner.run_scenario(ctx.scenario, out_dir)


def _demo_once(ctx):
    ctx.reference = rora_reference(ctx.t_final)
    return []


def _demo_check(ctx, artifacts, out_dir, first_dir):
    name = ctx.scenario.name
    tables = {
        rep: read_table(Path(out_dir, f"{name}_{rep}.csv"))
        for rep in ("full", "transformed", "rora")
    }
    problems = []
    n_rows = round(ctx.t_final / SAMPLE_DT) + 1
    for rep, table in tables.items():
        if table.shape != (n_rows, 15):
            problems.append(f"{rep} CSV has shape {table.shape}, expected ({n_rows}, 15)")
    if problems:
        return problems

    ref, q = ctx.reference
    rora = tables["rora"]
    dev = float(np.abs(rora[:, 0:4] - ref).max())
    if dev > RORA_TOL:
        problems.append(f"rora path deviates {dev:.3e} from the reference RK4 (tol {RORA_TOL:g})")
    frame = float(np.abs(rora[:, 6:15] - q.ravel()).max())
    if frame > RORA_TOL:
        problems.append(f"rora frame deviates {frame:.3e} from Rz(z0)")

    c_rora = signal(rora[:, 1:4])
    if np.diff(c_rora).min() < -MONOTONE_SLACK:
        problems.append("rora signal is not monotone")
    full = tables["full"]
    if ctx.t_final >= SEEK_WINDOW[1]:
        window = (full[:, 0] >= SEEK_WINDOW[0]) & (full[:, 0] <= SEEK_WINDOW[1])
        low = float(signal(full[window, 1:4]).min())
        if low < SEEK_FLOOR:
            problems.append(f"full c falls to {low:.4f} on {SEEK_WINDOW} (floor {SEEK_FLOOR})")
        if c_rora[-1] < RORA_END_FLOOR:
            problems.append(f"rora ends at c = {c_rora[-1]:.3e} (floor {RORA_END_FLOOR:g})")

    for rep, table in tables.items():
        defect = so3_defect(table[:, 6:15])
        if defect > SO3_TOL:
            problems.append(f"{rep} rotation defect {defect:.3e} (tol {SO3_TOL:g})")
    gap = float(np.linalg.norm(full[:, 1:4] - tables["transformed"][:, 1:4], axis=1).max())
    if gap > CHANGE_OF_VARIABLES_TOL:
        problems.append(f"full vs transformed gap {gap:.3e} (tol {CHANGE_OF_VARIABLES_TOL:g})")
    if first_dir is not None:
        problems += same_bytes(first_dir, out_dir)
    return problems


# ---------------------------------------------------------------------------
# sweep-rate: run_sweep over the CLI's omega set on a shortened horizon

def sweep_workers():
    return min(2, len(os.sched_getaffinity(0)))


def _sweep_build(lib, seed, size):
    scenario = lib.runner.built_in("ex1")
    # the system the sweep integrates, with its constructor checks on
    lib.seek3d.embedded_system(scenario.params, scenario.field)
    return SimpleNamespace(
        lib=lib,
        scenario=scenario,
        t_final=SIZES[size]["sweep_t_final"],
        workers=sweep_workers(),
        first_errors=None,
    )


def _sweep_op(ctx, out_dir):
    return ctx.lib.runner.run_sweep(
        ctx.scenario, SWEEP_OMEGAS, None, t_final=ctx.t_final, workers=ctx.workers
    )


def check_sweep(omegas, errors):
    """The 1/sqrt(omega) property: decreasing errors, slope, ratios."""
    errors = np.asarray(errors, dtype=float)
    problems = []
    if tuple(omegas) != SWEEP_OMEGAS:
        problems.append(f"sweep reports omegas {omegas}")
    if not np.all(np.isfinite(errors)) or np.any(np.diff(errors) >= 0):
        return problems + [f"sweep errors are not strictly decreasing: {errors.tolist()}"]
    slope = fitted_slope(SWEEP_OMEGAS, errors)
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        problems.append(f"sweep slope {slope:.4f} outside {SLOPE_RANGE}")
    ratios = errors[:-1] / errors[1:]
    if np.any(ratios < RATIO_RANGE[0]) or np.any(ratios > RATIO_RANGE[1]):
        problems.append(f"sweep ratios {ratios.round(4).tolist()} outside {RATIO_RANGE}")
    return problems


def _sweep_check(ctx, report, out_dir, first_dir):
    problems = check_sweep(report.omegas, report.sup_errors)
    if ctx.first_errors is None:
        ctx.first_errors = tuple(report.sup_errors)
    elif tuple(report.sup_errors) != ctx.first_errors:
        problems.append("sweep errors differ between repeated operations")
    return problems


# ---------------------------------------------------------------------------
# verify-gain: verify_averaging(), the gain recovery plus the sin/cos oracle

def ex1_params(lib):
    return lib.seek3d.SeekParams(alpha=EX1_ALPHA, omega=EX1_OMEGA, mu=EX1_MU)


def _verify_build(lib, seed, size):
    params = ex1_params(lib)
    field = lib.seek3d.signal_field("static")
    # the two systems the verification averages, with their constructor checks
    lib.seek3d.embedded_system(params, field)
    lib.verify.sincos_test_system()
    return SimpleNamespace(lib=lib, seed=seed, n_probes=SIZES[size]["n_probes"], params=params)


def _verify_op(ctx, out_dir):
    return ctx.lib.runner.verify_averaging(seed=ctx.seed, n_probes=ctx.n_probes)


def check_gain(a_matrix, rotation_residual):
    problems = []
    err = float(np.abs(np.asarray(a_matrix) - A_PAPER).max())
    if not err <= A_TOL:
        problems.append(f"gain matrix off by {err:.3e} (tol {A_TOL:g})")
    if not rotation_residual <= ROTATION_TOL:
        problems.append(f"rotation residual {rotation_residual:.3e} (tol {ROTATION_TOL:g})")
    return problems


def _verify_check(ctx, report, out_dir, first_dir):
    problems = check_gain(report.a_matrix, report.rotation_residual)
    if not report.sincos_error <= SINCOS_TOL:
        problems.append(f"reported sin/cos error {report.sincos_error:.3e}")
    if not report.passed:
        problems.append("verify_averaging reports failure")
    return problems


def check_sincos(lib, seed, n_points=10):
    """The program's averaged sin/cos field against -[b1, b2] / 2."""
    averaged = lib.avgcore.average_fields(lib.verify.sincos_test_system())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = rng.normal(0.0, 1.0, 2)
        worst = max(worst, float(np.abs(averaged(x, 0.0) - SINCOS_DRIFT @ x).max()))
    if not worst <= SINCOS_TOL:
        return [f"sin/cos drift off by {worst:.3e} (tol {SINCOS_TOL:g})"]
    return []


def check_flipped_bracket(lib, seed):
    """A flipped bracket sign must give -A and name the sign convention."""
    report = lib.runner.verify_averaging(flip_bracket=True, n_probes=4, seed=seed)
    problems = []
    err = float(np.abs(report.a_matrix + A_PAPER).max())
    if not err <= A_TOL:
        problems.append(f"flipped bracket gives a gain {err:.3e} away from -A")
    if report.passed or "bracket sign" not in report.diagnosis:
        problems.append(f"flipped bracket not diagnosed: {report.diagnosis!r}")
    return problems


def _verify_once(ctx):
    return check_sincos(ctx.lib, ctx.seed) + check_flipped_bracket(ctx.lib, ctx.seed)


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-ex1", _demo_build, _demo_op, _demo_check, _demo_once),
        Workload("sweep-rate", _sweep_build, _sweep_op, _sweep_check),
        Workload("verify-gain", _verify_build, _verify_op, _verify_check, _verify_once),
    )
}
