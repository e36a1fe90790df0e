"""recavg: recursive two-timescale averaging and 3D rigid-body source seeking.

Library layout:

* geom3   — 3D vector/rotation primitives (hat map, Rodrigues exponential,
            polar projection onto the rotation group);
* odeint  — deterministic fixed-step fourth-order integration with optional
            rotation-block projection;
* avgcore — the averaging engine: two-timescale fields, the bracket/mean
            double quadrature, slow-manifold reduction, simulation wrappers,
            and frequency-sweep convergence studies;
* seek3d  — the source-seeking vehicle in its full, co-rotating, embedded,
            and averaged representations;
* runner  — scenario configuration, CSV/SVG artifacts, sweeps, convention
            verification, and the command-line interface.
"""

from . import avgcore, geom3, odeint, seek3d
from .avgcore import (
    ConvergenceReport,
    QuadratureSettings,
    SingularField,
    SingularSystem,
    TwoScaleField,
    TwoScaleSystem,
    average_fields,
    convergence_study,
    lie_bracket,
    rora_reduce,
    simulate_averaged,
    simulate_singular,
    simulate_two_scale,
)
from .odeint import DivergenceError, IntegratorSettings, Trajectory, integrate, integrate_projected
from .seek3d import SeekParams, SignalField, signal_field

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DivergenceError",
    "IntegratorSettings",
    "QuadratureSettings",
    "SeekParams",
    "SignalField",
    "SingularField",
    "SingularSystem",
    "Trajectory",
    "TwoScaleField",
    "TwoScaleSystem",
    "average_fields",
    "avgcore",
    "convergence_study",
    "geom3",
    "integrate",
    "integrate_projected",
    "lie_bracket",
    "odeint",
    "rora_reduce",
    "seek3d",
    "signal_field",
    "simulate_averaged",
    "simulate_singular",
    "simulate_two_scale",
]
