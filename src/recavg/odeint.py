"""Deterministic fixed-step fourth-order integration of time-varying ODEs.

The step size is derived from the fastest forcing period so that the
oscillatory right-hand sides produced by the averaging modules are always
resolved. The single entry point, integrate, optionally renormalizes
rotation-matrix blocks of the state after every step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geom3 import project_so3_unchecked, so3_defect


class DivergenceError(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state encountered at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step integrator configuration.

    steps_per_period: substeps per shortest forcing period (>= 16).
    projection: renormalize rotation blocks after every step.
    sample_stride: keep every k-th step in the output trajectory.
    """

    steps_per_period: int = 64
    projection: bool = True
    sample_stride: int = 1

    def __post_init__(self):
        if self.steps_per_period < 16:
            raise ValueError("steps_per_period must be >= 16")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times (m,) strictly increasing, states (m, n)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-D and states 2-D")
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self):
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _plan_steps(t0, tf, nominal_dt, sample_dt, sample_stride):
    """Pick (dt, total steps, sample-every) so samples land on an exact grid.

    When sample_dt is given it is snapped so that (tf - t0) is an integer
    number of sample intervals and dt divides the interval exactly; this is
    what makes trajectories from different systems comparable sample-by-sample.
    """
    horizon = tf - t0
    if horizon <= 0:
        raise ValueError("horizon must be positive (tf > t0)")
    if sample_dt is not None:
        if sample_dt <= 0 or sample_dt > horizon:
            raise ValueError("sample_dt must lie in (0, tf - t0]")
        n_samples = max(1, round(horizon / sample_dt))
        sample_dt = horizon / n_samples
        sub = max(1, math.ceil(sample_dt / nominal_dt - 1e-12))
        return sample_dt / sub, n_samples * sub, sub
    n = max(1, math.ceil(horizon / nominal_dt - 1e-12))
    return horizon / n, n, sample_stride


def _sample_plan(t0, dt, n_steps, every):
    """The steps after which to keep the state, and every sample time.

    A sample is kept every `every` steps and after the last one, only when
    its time lies strictly after the previous sample's.
    """
    candidates = list(range(every, n_steps + 1, every))
    if n_steps % every:
        candidates.append(n_steps)
    steps, times = [], [t0]
    for k in candidates:
        t = t0 + k * dt
        if t > times[-1]:
            steps.append(k)
            times.append(t)
    return steps, times


def _rk4_run(rhs, x0, t0, dt, n_steps, every, projected_blocks):
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("state must be a flat vector")
    t0, dt = float(t0), float(dt)
    steps, times = _sample_plan(t0, dt, n_steps, every)
    states = np.empty((len(times), x.shape[0]))
    states[0] = x
    k1 = rhs(t0, x)
    if not isinstance(k1, list):
        # an array rhs keeps receiving arrays; the loop sees lists, and
        # float64 arithmetic gives the same bits on either
        array_rhs = rhs
        rhs = lambda t, y: np.asarray(array_rhs(t, np.array(y)), dtype=float).tolist()
    # one state of Python floats; np.float64 entries from the first call on
    # the array would otherwise spread through the loop
    x, k1 = x.tolist(), [float(v) for v in k1]
    if len(k1) != len(x):
        raise ValueError(f"rhs returned {len(k1)} values for a state of {len(x)}")
    half = 0.5 * dt
    sixth = dt / 6.0
    due = iter(steps)
    row, sample = 1, next(due, 0)
    for k in range(n_steps):
        t = t0 + k * dt
        if k:
            k1 = rhs(t, x)
        k2 = rhs(t + half, [a + half * b for a, b in zip(x, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(x, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(x, k3)])
        x = [
            a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, x)):
            raise DivergenceError(t0 + (k + 1) * dt)
        for start in projected_blocks:
            x[start : start + 9] = project_so3_unchecked(x[start : start + 9])
        if k + 1 == sample:
            states[row] = x
            row, sample = row + 1, next(due, 0)
    return Trajectory(np.array(times), states)


def integrate(
    rhs,
    x0,
    t0: float,
    tf: float,
    settings: IntegratorSettings,
    *,
    rotation_blocks=(),
    fastest_period: float = None,
    dt: float = None,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate dx/dt = rhs(t, x) from t0 to tf with fixed RK4 steps.

    The nominal step is fastest_period / steps_per_period (or an explicit
    dt). Identical inputs produce bit-identical outputs.

    One loop takes the steps on a list of Python floats. The first call
    receives x0 as an array. An rhs that returns a list of floats receives
    the state as a list of floats from then on; one that returns an array
    keeps receiving arrays, converted at the call, and gives the same
    trajectory as its list twin.

    rotation_blocks is a list of start offsets; block i occupies coordinates
    [start, start + 9) holding a row-major rotation matrix. Each block must
    start near SO(3). When settings.projection is set, every block is
    reprojected onto SO(3) after every step; otherwise the blocks drift.
    """
    x0 = np.asarray(x0, dtype=float)
    for start in rotation_blocks:
        if so3_defect(x0[start : start + 9].reshape(3, 3)) > 0.5:
            raise ValueError(
                f"initial rotation block at offset {start} is not near SO(3)"
            )
    projected = tuple(rotation_blocks) if settings.projection else ()
    nominal = _nominal_dt(fastest_period, dt, settings)
    step, n_steps, every = _plan_steps(t0, tf, nominal, sample_dt, settings.sample_stride)
    return _rk4_run(rhs, x0, t0, step, n_steps, every, projected)


def integrate_projected(rhs, x0, t0, tf, settings, rotation_blocks, **kwargs) -> Trajectory:
    """integrate(..., rotation_blocks=rotation_blocks); kept for existing callers."""
    return integrate(rhs, x0, t0, tf, settings, rotation_blocks=rotation_blocks, **kwargs)


def _nominal_dt(fastest_period, dt, settings):
    if dt is not None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        return dt
    if fastest_period is None or fastest_period <= 0:
        raise ValueError("either fastest_period or dt must be given and positive")
    return fastest_period / settings.steps_per_period
