"""Fixed-step integrator checks: closed forms, order, projection, determinism."""

import math

import numpy as np
import pytest

from recavg.geom3 import E3, hat, so3_defect
from recavg.odeint import (
    DivergenceError,
    IntegratorSettings,
    Trajectory,
    integrate,
    integrate_projected,
)


def circle_rhs(t, x):
    return np.array([x[1], -x[0]])


def test_zero_field_constant():
    a = np.array([1.5, -2.0, 0.25])
    traj = integrate(lambda t, x: np.zeros(3), a, 0.0, 3.0, IntegratorSettings(), dt=0.01)
    assert np.array_equal(traj.states[0], a)
    assert np.abs(traj.states - a).max() == 0.0


def test_circle_one_period():
    settings = IntegratorSettings(steps_per_period=256)
    traj = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi, settings, fastest_period=2 * np.pi
    )
    # measured RK4 truncation at 256 steps/period is 1.90e-8; the bound below
    # is the honest one for this method and step count
    assert np.abs(traj.final_state - np.array([1.0, 0.0])).max() < 2.5e-8


def test_scalar_exponential():
    settings = IntegratorSettings(steps_per_period=256)
    traj = integrate(
        lambda t, x: x, np.array([1.0]), 0.0, 1.0, settings, fastest_period=1.0
    )
    assert abs(traj.final_state[0] - np.e) < 1e-9


def test_fourth_order_convergence():
    # halving the step must shrink the error by roughly 2^4
    ref = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi,
        IntegratorSettings(steps_per_period=1024), fastest_period=2 * np.pi,
    ).final_state
    errs = []
    for spp in (64, 128):
        end = integrate(
            circle_rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi,
            IntegratorSettings(steps_per_period=spp), fastest_period=2 * np.pi,
        ).final_state
        errs.append(np.linalg.norm(end - ref))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_determinism_bit_identical():
    settings = IntegratorSettings(steps_per_period=64, sample_stride=3)
    runs = [
        integrate(
            circle_rhs, np.array([1.0, 0.0]), 0.0, 7.0, settings, fastest_period=2 * np.pi
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_concurrent_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    settings = IntegratorSettings(steps_per_period=64)

    def run(_):
        return integrate(
            circle_rhs, np.array([1.0, 0.0]), 0.0, 5.0, settings, fastest_period=2 * np.pi
        )

    serial = run(None)
    with ThreadPoolExecutor(max_workers=4) as pool:
        for traj in pool.map(run, range(4)):
            assert np.array_equal(traj.states, serial.states)


def test_sample_grid_alignment():
    settings = IntegratorSettings(steps_per_period=64)
    traj = integrate(
        circle_rhs, np.array([1.0, 0.0]), 0.0, 2.0, settings,
        fastest_period=0.37, sample_dt=0.25,
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


def test_list_rhs_divergence_matches_array_twin():
    # the float path checks finiteness before projecting, as the array path does
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


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(steps_per_period=8)
    with pytest.raises(ValueError):
        IntegratorSettings(sample_stride=0)


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
    settings = IntegratorSettings(steps_per_period=spp, projection=True, sample_stride=100)
    traj = integrate_projected(
        spin_rhs, np.eye(3).ravel(), 0.0, tf, settings, [0], fastest_period=2 * np.pi
    )
    assert _drift(traj) <= 1e-12


def test_unprojected_drift_is_small_but_nonzero():
    spp = 256
    tf = 1e4 * (2 * np.pi / spp)
    settings = IntegratorSettings(steps_per_period=spp, projection=False, sample_stride=100)
    traj = integrate_projected(
        spin_rhs, np.eye(3).ravel(), 0.0, tf, settings, [0], fastest_period=2 * np.pi
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
