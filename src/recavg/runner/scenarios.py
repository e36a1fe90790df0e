"""Built-in demonstration scenarios, as config documents.

Both use the log-family signal field with roll coefficient 1/8, forcing
frequency 4*pi, and filter time constant 1/(16*pi^2) (a washout pole well
above the forcing frequency, so the filter output tracks the sensed signal
through the oscillation). ex1 seeks a stationary source from (-2, -2, 6);
ex2 tracks a source moving on a closed orbit from the same start. Each goes
through scenario_from_dict, the validation every user config gets.
"""

import math

from .config import Scenario, scenario_from_dict

BUILTIN_NAMES = ("ex1", "ex2")


def built_in(name: str) -> Scenario:
    """The named built-in's config document, validated by scenario_from_dict."""
    fields = {
        "ex1": {"kind": "static", "center": [0.0, 0.0, 0.0]},
        "ex2": {"kind": "orbit", "radius": 2.0, "rate": 0.05, "height": 2.0, "vertical_rate": 0.1},
    }
    if name not in fields:
        raise ValueError(f"unknown built-in scenario {name!r}; choose from {BUILTIN_NAMES}")
    return scenario_from_dict({
        "schema_version": 1,
        "name": name,
        "params": {"alpha": 0.125, "omega": "4pi", "mu": 1.0 / (16.0 * math.pi**2)},
        "field": fields[name],
        "p0": [-2.0, -2.0, 6.0],
        "t_final": 200.0,
        "integrator": {"steps_per_period": 64, "sample_stride": 4},
    })
