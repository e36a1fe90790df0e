"""Acceptance suite: one test per release criterion, at pinned tolerances.

  1. gain-matrix reproduction through the averaging engine (1e-6, <= 60 s)
  2. sin/cos closed-form averaging oracle (1e-8 at 10 random states)
  3. inverse-square-root error decay over the frequency sweep (<= 5 min)
  4. stationary-source demo converges and holds c >= -0.2 on [150, 200]
  5. orbiting-source demo keeps the vehicle within 1.0 of the source
  6. exact change of variables: full vs co-rotating, gap <= 1e-6
  7. rotation blocks stay orthonormal to 1e-8 at every sample
  8. byte-identical artifacts on repeated runs

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criterion 5 is expected to fail: the bound 1.0 is not attainable for these
parameters. The quasi-steady limit of the filter (its best case) measures
1.0446 and the shipped filter constant measures 1.0472, the sum of the
averaged tracking lag (~0.49), the probing-loop radius sqrt(2/omega)
(~0.40), and the finite-frequency averaging deviation (~0.16), which align
near t = 143 where the source's vertical speed peaks.
"""

import json
import math
import time

import numpy as np
import pytest

from recavg import seek3d
from recavg.avgcore import QuadratureSettings, average_fields
from recavg.odeint import IntegratorSettings
from recavg.runner import built_in, run_scenario
from recavg.runner.cli import main as cli_main
from recavg.runner.sweep import run_sweep
from recavg.runner.verify import sincos_expected_drift, sincos_test_system

A_BUDGET_S = 60.0
SWEEP_BUDGET_S = 300.0


def _report(num, name, passed, detail):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


@pytest.fixture(scope="module")
def ex1_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1")
    return run_scenario(built_in("ex1"), out)


@pytest.fixture(scope="module")
def ex2_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex2")
    return run_scenario(built_in("ex2"), out)


def _c_samples(artifacts, rep):
    from recavg.runner.artifacts import read_csv

    header, data = read_csv(artifacts["files"]["csv"][rep])
    t = data[:, header.index("t")]
    c = data[:, header.index("c")]
    p = data[:, header.index("px") : header.index("pz") + 1]
    return t, c, p


def test_criterion_1_gain_matrix():
    start = time.monotonic()
    a, rot_res, _ = seek3d.compute_A_numeric(
        seek3d.SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1.0 / (16.0 * math.pi**2))
    )
    elapsed = time.monotonic() - start
    err = float(np.abs(a - seek3d.AVERAGED_GAIN).max())
    ok = err <= 1e-6 and rot_res <= 1e-8 and elapsed <= A_BUDGET_S
    assert _report(
        1, "gain matrix",
        ok,
        f"entrywise error {err:.2e} (tol 1e-6), rotation residual {rot_res:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (budget {A_BUDGET_S:.0f}s)",
    )


def test_criterion_2_sincos_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    averaged = average_fields(sincos_test_system(), QuadratureSettings())
    for _ in range(10):
        x = rng.normal(size=2)
        dev = np.abs(averaged(x, 0.0) - sincos_expected_drift(x)).max()
        worst = max(worst, float(dev))
    ok = worst <= 1e-8
    assert _report(2, "sin/cos closed form", ok, f"worst deviation {worst:.2e} (tol 1e-8)")


def test_criterion_3_sweep_rate():
    start = time.monotonic()
    omegas = [4 * math.pi, 16 * math.pi, 64 * math.pi, 256 * math.pi]
    report = run_sweep(built_in("ex1"), omegas, None, t_final=20.0)
    elapsed = time.monotonic() - start
    errs = report.sup_errors
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    slope_ok = -0.65 <= report.fitted_slope <= -0.35
    ratios_ok = all(1.5 <= r <= 2.5 for r in report.error_ratios())
    ok = decreasing and slope_ok and ratios_ok and elapsed <= SWEEP_BUDGET_S
    assert _report(
        3, "inverse-sqrt rate",
        ok,
        f"errors {[f'{e:.4f}' for e in errs]}, slope {report.fitted_slope:.3f} "
        f"(band [-0.65, -0.35]), ratios {[f'{r:.2f}' for r in report.error_ratios()]} "
        f"(band [1.5, 2.5]), {elapsed:.0f}s (budget {SWEEP_BUDGET_S:.0f}s)",
    )


def test_criterion_4_stationary_source(ex1_artifacts):
    t, c, _ = _c_samples(ex1_artifacts, "full")
    window = (t >= 150.0) & (t <= 200.0)
    c_min = float(c[window].min())
    t_r, c_r, _ = _c_samples(ex1_artifacts, "rora")
    monotone = bool(np.all(np.diff(c_r) >= -1e-9))
    final_ok = c_r[-1] >= -1e-6
    ok = c_min >= -0.2 and monotone and final_ok
    assert _report(
        4, "stationary-source demo",
        ok,
        f"min c on [150,200] = {c_min:.4f} (bound -0.2); averaged reference "
        f"monotone: {monotone}, final c = {c_r[-1]:.2e}",
    )


def test_criterion_5_orbit_tracking(ex2_artifacts):
    sup = ex2_artifacts["representations"]["full"]["sup_distance_to_source"]
    # restrict to the settled window
    from recavg.runner.artifacts import read_csv

    field = built_in("ex2").field
    header, data = read_csv(ex2_artifacts["files"]["csv"]["full"])
    t = data[:, 0]
    p = data[:, 1:4]
    window = (t >= 100.0) & (t <= 200.0)
    dist = np.array(
        [np.linalg.norm(pi - field.source(ti)) for ti, pi in zip(t[window], p[window])]
    )
    sup_window = float(dist.max())
    ok = sup_window <= 1.0
    assert _report(
        5, "orbit tracking",
        ok,
        f"sup distance on [100,200] = {sup_window:.4f} (bound 1.0); the bound is "
        "not attainable here: the quasi-steady filter limit already measures "
        "1.0446 (tracking lag ~0.49 + probing radius ~0.40 + averaging "
        "deviation ~0.16, aligned near t=143)",
    )


def test_criterion_6_change_of_variables():
    params = built_in("ex1").params
    field = built_in("ex1").field
    p0 = np.array([-2.0, -2.0, 6.0])
    z0 = field.strength(p0, 0.0)
    Q0 = seek3d.initial_Q(np.eye(3), z0, 0.0, params)
    settings = IntegratorSettings(steps_per_period=256, projection=True)
    sample_dt = 8.0 * (2.0 * math.pi / params.omega) / 256
    full = seek3d.full_trajectory(
        params, field, p0, np.eye(3), z0, 0.0, 20.0, settings, sample_dt=sample_dt
    )
    tran = seek3d.transformed_trajectory(
        params, field, p0, Q0, z0, 0.0, 20.0, settings, sample_dt=sample_dt
    )
    gap = float(np.linalg.norm(full.states[:, 0:3] - tran.states[:, 0:3], axis=1).max())
    ok = gap <= 1e-6
    assert _report(
        6, "change of variables",
        ok,
        f"sup position gap {gap:.2e} over [0, 20] at 256 steps/period (tol 1e-6)",
    )


def test_criterion_7_manifold_invariants(ex1_artifacts, ex2_artifacts):
    worst = 0.0
    details = []
    for label, art in (("ex1", ex1_artifacts), ("ex2", ex2_artifacts)):
        for rep, info in art["representations"].items():
            worst = max(worst, info["max_so3_defect"])
            details.append(f"{label}/{rep} {info['max_so3_defect']:.1e}")
    ok = worst <= 1e-8
    assert _report(7, "rotation-block orthonormality", ok, ", ".join(details))


def test_criterion_8_determinism(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "det",
        "params": {"alpha": 0.125, "omega": "4pi", "mu": 1.0 / (16.0 * math.pi**2)},
        "field": {"kind": "static"},
        "p0": [-2.0, -2.0, 6.0],
        "t_final": 2.0,
        "integrator": {"steps_per_period": 64, "projection": True, "sample_stride": 8},
        "representations": ["full", "transformed", "rora"],
    }
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    identical = True
    compared = 0
    for sub in sorted((tmp_path / "a" / "det").iterdir()):
        if sub.suffix in (".csv", ".svg"):
            other = tmp_path / "b" / "det" / sub.name
            identical = identical and sub.read_bytes() == other.read_bytes()
            compared += 1
    ok = identical and compared >= 7
    assert _report(
        8, "determinism", ok, f"{compared} artifact files byte-identical across reruns"
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
