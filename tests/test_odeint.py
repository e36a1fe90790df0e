"""Fixed-step integrator checks: closed forms, order, projection, determinism."""

import math

import numpy as np
import pytest

from recavg.avgcore import QuadratureSettings
from recavg.geom3 import E3, hat, rot_exp, so3_defect
from recavg.odeint import (
    MAX_STEPS,
    DivergenceError,
    IntegratorSettings,
    Trajectory,
    _plan_steps,
    integrate,
    integrate_projected,
)

from rk4_oracle import numpy_integrate


def circle_rhs(t, x):
    return np.array([x[1], -x[0]])


def test_zero_field_constant():
    a = np.array([1.5, -2.0, 0.25])
    traj = integrate(lambda t, x: np.zeros(3), a, 0.0, 3.0, IntegratorSettings(), dt=0.01)
    assert np.array_equal(traj.states[0], a)
    assert np.abs(traj.states - a).max() == 0.0


def test_circle_one_period():
    traj = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi, IntegratorSettings(), dt=2 * np.pi / 256
    )
    # measured RK4 truncation at 256 steps/period is 1.90e-8; the bound below
    # is the honest one for this method and step count
    assert np.abs(traj.final_state - np.array([1.0, 0.0])).max() < 2.5e-8


def test_scalar_exponential():
    traj = integrate(lambda t, x: x, np.array([1.0]), 0.0, 1.0, IntegratorSettings(), dt=1.0 / 256)
    assert abs(traj.final_state[0] - np.e) < 1e-9


def test_fourth_order_convergence():
    # halving the step must shrink the error by roughly 2^4
    ref = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi, IntegratorSettings(), dt=2 * np.pi / 1024
    ).final_state
    errs = []
    for spp in (64, 128):
        end = integrate(
            circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi, IntegratorSettings(),
            dt=2 * np.pi / spp,
        ).final_state
        errs.append(np.linalg.norm(end - ref))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk4_order_closed_form():
    # x' = M x with M = [[-a, b], [-b, -a]] has x(t) = e^(-a t) rot(-b t) x0;
    # halving dt must divide the final error by 2^4
    a, b, tf = 0.3, 2.0, 2.0
    x0 = np.array([1.0, 0.5])
    M = np.array([[-a, b], [-b, -a]])
    c, s = math.cos(b * tf), math.sin(b * tf)
    exact = math.exp(-a * tf) * np.array([[c, s], [-s, c]]) @ x0
    errors = []
    for dt in (0.05, 0.025):
        runs = [
            integrate(rhs, x0, 0.0, tf, IntegratorSettings(), dt=dt)
            for rhs in (lambda t, x: M @ x, lambda t, x: (M @ np.array(x)).tolist())
        ]
        assert np.array_equal(runs[0].states, runs[1].states)
        errors.append(float(np.linalg.norm(runs[0].final_state - exact)))
    assert errors[0] / errors[1] == pytest.approx(16.0, abs=2.0)


def _seeded_case(rng, kind):
    """A 13-dim (p, R, z) system with a rotation block at offset 3.

    kind "smooth" stays finite; "blowup" adds gain * z^2 to dz, which blows
    up near a fifth of the horizon; "nan" turns one rotation entry of the
    rhs to NaN after a random time. The rhs tolerates non-finite stages.
    """
    A = rng.normal(0.0, 1.0, (3, 3))
    w0, c = rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3)
    dt = float(rng.uniform(0.005, 0.05))
    n_steps = int(rng.integers(10, 60))
    t0 = float(rng.uniform(-5.0, 5.0))
    z0 = float(rng.uniform(1.0, 2.0))
    gain = 5.0 / (z0 * n_steps * dt) if kind == "blowup" else 0.0
    t_nan = t0 + float(rng.uniform(0.2, 0.8)) * n_steps * dt
    entry = 3 + int(rng.integers(0, 9))

    def rhs(t, y):
        p, R, z = y[0:3], y[3:12].reshape(3, 3), y[12]
        w = w0 * np.cos(t) + np.tanh(p)
        W = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        dp = 0.1 * (R @ (A @ p)) + c * np.sin(z + t)
        dz = -z + p @ p / (1.0 + p @ p) + gain * z * z
        out = np.concatenate([dp, (R @ W).ravel(), [dz]])
        if kind == "nan" and t > t_nan:
            out[entry] = np.nan
        return out

    y0 = np.concatenate([rng.normal(0.0, 1.0, 3), rot_exp(rng.normal(size=3)).ravel(), [z0]])
    settings = IntegratorSettings(sample_stride=int(rng.integers(1, 5)))
    horizon = n_steps * dt
    sample_dt = horizon / int(rng.integers(2, 8)) if rng.integers(0, 2) else None
    args = (y0, t0, t0 + horizon, settings)
    kwargs = dict(rotation_blocks=(3,), dt=dt, sample_dt=sample_dt)
    return rhs, args, kwargs


def _outcome(run, rhs, args, kwargs):
    try:
        traj = run(rhs, *args, **kwargs)
    except DivergenceError as exc:
        return ("diverged", exc.time)
    return ("ok", traj.times.tobytes(), traj.states.tobytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_matches_numpy_oracle():
    # integrate's float loop against the numpy oracle, on array and list
    # right-hand sides, bit for bit, divergence times included
    rng = np.random.default_rng(90)
    kinds = ("smooth", "blowup", "nan") * 8
    for kind in kinds:
        rhs, args, kwargs = _seeded_case(rng, kind)
        want = _outcome(numpy_integrate, rhs, args, kwargs)
        assert want[0] == ("ok" if kind == "smooth" else "diverged")
        for twin in (rhs, lambda t, y: rhs(t, np.array(y)).tolist()):
            assert _outcome(integrate, twin, args, kwargs) == want


def test_rhs_length_mismatch_rejected():
    with pytest.raises(ValueError, match="rhs returned 1 values for a state of 3"):
        integrate(lambda t, x: [0.0], np.zeros(3), 0.0, 1.0, IntegratorSettings(), dt=0.1)


def test_determinism_bit_identical():
    settings = IntegratorSettings(sample_stride=3)
    runs = [
        integrate(circle_rhs, np.array([1.0, 0.0]), 0.0, 7.0, settings, dt=2 * np.pi / 64)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_concurrent_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    settings = IntegratorSettings()

    def run(_):
        return integrate(circle_rhs, np.array([1.0, 0.0]), 0.0, 5.0, settings, dt=2 * np.pi / 64)

    serial = run(None)
    with ThreadPoolExecutor(max_workers=4) as pool:
        for traj in pool.map(run, range(4)):
            assert np.array_equal(traj.states, serial.states)


def test_sample_grid_alignment():
    traj = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2.0, IntegratorSettings(),
        dt=0.37 / 64, sample_dt=0.25,
    )
    assert np.allclose(traj.times, np.arange(9) * 0.25)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_reported_with_time():
    def blowup(t, x):
        return x * x + 1.0

    with pytest.raises(DivergenceError) as info:
        integrate(blowup, np.array([1.0]), 0.0, 10.0, IntegratorSettings(), dt=0.05)
    assert 0.0 < info.value.time <= 10.0


def test_projected_divergence_reported_with_time():
    # a NaN reaching a rotation block is a divergence, not a malformed matrix
    def turns_nan(t, x):
        return np.full(x.shape, np.nan if t > 0.05 else 0.0)

    x0 = np.concatenate([[0.0], np.eye(3).ravel()])
    with pytest.raises(DivergenceError) as info:
        integrate(turns_nan, x0, 0.0, 1.0, IntegratorSettings(), rotation_blocks=(1,), dt=0.01)
    assert info.value.time == pytest.approx(0.06)


@pytest.mark.parametrize(
    "block, det", [(np.diag([1.0, 1.0, -1.0]), "-1"), (2.0 * np.eye(3), "8")],
    ids=["reflection", "scaled"],
)
def test_initial_block_off_so3_names_its_offset(block, det):
    # a reflection has SO(3) defect 0, so the determinant's sign is checked too
    x0 = np.concatenate([[0.0], block.ravel()])
    with pytest.raises(ValueError, match=rf"offset 1 is not near SO\(3\) \(determinant {det}\)"):
        integrate(lambda t, x: [0.0] * 10, x0, 0.0, 1.0, IntegratorSettings(),
                  rotation_blocks=(1,), dt=0.01)


def test_list_rhs_divergence_matches_array_twin():
    # finiteness is checked before projecting, for a list rhs and its array twin
    def turns_nan(t, x):
        return [0.0] * 4 + [math.nan if t > 0.05 else 0.0] + [0.0] * 5

    x0 = np.concatenate([[0.0], np.eye(3).ravel()])
    times = []
    for rhs in (turns_nan, lambda t, x: np.array(turns_nan(t, x))):
        with pytest.raises(DivergenceError) as info:
            integrate(rhs, x0, 0.0, 1.0, IntegratorSettings(), rotation_blocks=(1,), dt=0.01)
        times.append(info.value.time)
    assert times[0] == times[1] == pytest.approx(0.06)


def test_samples_strictly_increasing_when_steps_round_away():
    # at t0 = 2^53 a step of 0.5 is below the spacing of doubles, so several
    # step times round to one value; only the first of them is sampled
    t0 = 2.0**53
    runs = [
        integrate(rhs, [0.0], t0, t0 + 8.0, IntegratorSettings(), dt=0.5)
        for rhs in (lambda t, x: [1.0], lambda t, x: np.ones(1))
    ]
    for traj in runs:
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == t0 and traj.times[-1] == t0 + 8.0
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[0].states.ravel().tolist() == [0.0, 1.5, 3.0, 5.5, 7.0]


def test_zero_horizon_rejected():
    with pytest.raises(ValueError):
        integrate(circle_rhs, np.array([1.0, 0.0]), 0.0, 0.0, IntegratorSettings(), dt=0.1)


def test_plans_over_the_step_cap_rejected():
    assert _plan_steps(0.0, 1.0, 1.0 / MAX_STEPS, None, 1)[1] == MAX_STEPS
    assert _plan_steps(0.0, 1.0, 1.0 / MAX_STEPS, 0.5, 1)[1] == MAX_STEPS
    # (nominal dt, sample_dt): one step or one sample too many, huge and inf counts
    for nominal, sample_dt in (
        (1.0 / (MAX_STEPS + 1), None), (1.0 / (MAX_STEPS + 1), 0.5), (0.5, 1.0 / (MAX_STEPS + 1)),
        (1e-300, None), (1e-300, 0.5), (1.0, 1e-300), (5e-324, None), (5e-324, 0.5),
    ):
        with pytest.raises(ValueError, match="RK4 steps, over the cap of 1e"):
            _plan_steps(0.0, 1.0, nominal, sample_dt, 1)
    with pytest.raises(ValueError, match="over the cap"):
        integrate(lambda t, x: [0.0], [0.0], 0.0, 1e8, IntegratorSettings(), dt=1.0)


def test_settings_validation():
    for kwargs in (
        dict(steps_per_period=8),
        dict(steps_per_period=16.5),
        dict(steps_per_period=64.0),
        dict(steps_per_period=math.inf),
        dict(steps_per_period=math.nan),
        dict(sample_stride=0),
        dict(sample_stride=1.5),
        dict(sample_stride=math.inf),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            IntegratorSettings(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(base_panels=0), "base_panels"),
        (dict(base_panels=63), "base_panels"),
        (dict(base_panels=64.0), "base_panels"),
        (dict(tol=0.0), "tol"),
        (dict(tol=-1e-9), "tol"),
        (dict(tol=math.nan), "tol"),
        (dict(tol=math.inf), "tol"),
        (dict(max_refinements=-1), "max_refinements"),
        (dict(max_refinements=2.5), "max_refinements"),
    ],
)
def test_quadrature_settings_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        QuadratureSettings(**kwargs)
    QuadratureSettings(max_refinements=0)


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan, 0.0, -0.1])
def test_non_finite_or_non_positive_dt_rejected(dt):
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        integrate(lambda t, x: [0.0], [0.0], 0.0, 1.0, IntegratorSettings(), dt=dt)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))


# --- rotation-block projection ---------------------------------------------

def spin_rhs(t, y):
    return (y.reshape(3, 3) @ hat(E3)).ravel()


def _drift(traj):
    return max(so3_defect(y.reshape(3, 3)) for y in traj.states)


def test_projection_enforces_orthonormality():
    spp = 256
    tf = 1e4 * (2 * np.pi / spp)  # ten thousand steps
    settings = IntegratorSettings(projection=True, sample_stride=100)
    traj = integrate_projected(
        spin_rhs, np.eye(3).ravel(), 0.0, tf, settings, [0], dt=2 * np.pi / spp
    )
    assert _drift(traj) <= 1e-12


def test_unprojected_drift_is_small_but_nonzero():
    spp = 256
    tf = 1e4 * (2 * np.pi / spp)
    settings = IntegratorSettings(projection=False, sample_stride=100)
    traj = integrate_projected(
        spin_rhs, np.eye(3).ravel(), 0.0, tf, settings, [0], dt=2 * np.pi / spp
    )
    drift = _drift(traj)
    assert 0.0 < drift <= 1e-5


def test_projection_zero_field_unchanged():
    settings = IntegratorSettings(projection=True)
    traj = integrate_projected(
        lambda t, y: np.zeros(9), np.eye(3).ravel(), 0.0, 1.0, settings, [0], dt=0.01
    )
    assert np.abs(traj.final_state.reshape(3, 3) - np.eye(3)).max() < 1e-15


def test_projection_rejects_bad_initial_block():
    settings = IntegratorSettings()
    bad = (2.0 * np.eye(3)).ravel()
    with pytest.raises(ValueError):
        integrate_projected(lambda t, y: np.zeros(9), bad, 0.0, 1.0, settings, [0], dt=0.01)
