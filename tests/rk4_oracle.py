"""The numpy RK4 stage loop, kept as the oracle of integrate's float loop.

numpy_integrate takes integrate's arguments and runs the stages on float64
arrays: the rhs always receives an array, and each stage sum is one numpy
expression in the same order as the float loop's element-by-element sum, so
the two must agree bit for bit. Step and sample planning are shared with
recavg.odeint; only the stage loop is independent.
"""

import numpy as np

from recavg.geom3 import project_so3_unchecked
from recavg.odeint import DivergenceError, Trajectory, _plan_steps, _sample_plan


def numpy_integrate(rhs, x0, t0, tf, settings, *, rotation_blocks=(), dt, sample_dt=None):
    """integrate(rhs, x0, t0, tf, settings, rotation_blocks=..., dt=..., sample_dt=...)."""
    projected = tuple(rotation_blocks) if settings.projection else ()
    step, n_steps, every = _plan_steps(t0, tf, dt, sample_dt)
    t0, step = float(t0), float(step)
    steps, times = _sample_plan(t0, step, n_steps, every)
    x = np.array(x0, dtype=float)
    states = np.empty((len(times), x.shape[0]))
    states[0] = x
    due = iter(steps)
    row, sample = 1, next(due, 0)
    half = 0.5 * step
    sixth = step / 6.0
    for k in range(n_steps):
        t = t0 + k * step
        k1 = np.asarray(rhs(t, x), dtype=float)
        k2 = np.asarray(rhs(t + half, x + half * k1), dtype=float)
        k3 = np.asarray(rhs(t + half, x + half * k2), dtype=float)
        k4 = np.asarray(rhs(t + step, x + step * k3), dtype=float)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(x).all():
            raise DivergenceError(t0 + (k + 1) * step)
        for start in projected:
            x[start : start + 9] = project_so3_unchecked(x[start : start + 9].tolist())
        if k + 1 == sample:
            states[row] = x
            row, sample = row + 1, next(due, 0)
    return Trajectory(np.array(times), states)
