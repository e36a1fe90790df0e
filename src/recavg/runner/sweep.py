"""Frequency sweeps: measure the averaging error of a scenario against the
closed-form averaged flow and fit its decay rate.

The swept system is the co-rotating representation restricted to the slow
manifold (the filter state pinned to its quasi-steady value z = c(p, t)),
which is exactly the class the square-root error bound applies to; the
coupled filter adds a mu-dependent error floor that is not what the sweep
is trying to measure. Errors are sup-over-samples distances on the full
(position, frame) block.
"""

import json
import os

import numpy as np

from .. import avgcore, seek3d
from ..avgcore import ConvergenceReport
from .artifacts import write_csv
from .config import Scenario, check_source_path


def run_sweep(
    scenario: Scenario,
    omegas,
    out_dir=None,
    *,
    t_final: float = 20.0,
    workers: int = 1,
) -> ConvergenceReport:
    """Sweep the scenario over the given frequencies against the averaged flow.

    Each run uses the scenario's integrator settings and is sampled at 400
    equal intervals of [0, t_final], so its sample_dt does not apply.
    The frequencies run one after another; workers is accepted and
    ignored, because the benchmark under perfbench/ still passes it. A
    source path that is not finite at t_final raises ConfigError first.
    """
    check_source_path(scenario.field, t_final)
    params = scenario.params
    z0 = scenario.initial_z(0.0)
    Q0 = seek3d.initial_Q(scenario.R0, z0, 0.0, params)
    x0 = seek3d.embed_columns(scenario.p0, Q0)
    ssys = seek3d.embedded_system(params, scenario.field, validate=False)
    report = avgcore.convergence_study(
        avgcore.reduce_to_slow_manifold(ssys, validate=False), x0, 0.0, t_final, omegas,
        scenario.integrator, reference=seek3d.rora_drift(scenario.field),
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rows = np.column_stack([report.omegas, report.sup_errors])
        write_csv(os.path.join(out_dir, f"{scenario.name}_sweep.csv"), ["omega", "sup_error"], rows)
        doc = {
            "scenario": scenario.name,
            "t_final": report.t_final,
            "omegas": list(report.omegas),
            "sup_errors": list(report.sup_errors),
            "fitted_slope": report.fitted_slope,
            "empirical_C": report.empirical_C,
            "error_ratios": list(report.error_ratios()),
        }
        with open(
            os.path.join(out_dir, f"{scenario.name}_sweep_summary.json"),
            "w",
            encoding="utf-8",
        ) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
