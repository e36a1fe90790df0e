"""Scenario execution and CSV/summary artifact writing.

Every representation of a scenario is sampled on the same time grid, so the
pairwise comparison files are exact sample-by-sample differences. Floats are
written with 17 significant digits, which round-trips doubles exactly.
"""

import itertools
import json
import os

import numpy as np

from ..odeint import Trajectory
from ..seek3d import (
    full_trajectory,
    initial_Q,
    reconstruct_R,
    rora_trajectory,
    transformed_trajectory,
)
from .config import Scenario

_FMT = "{:.17g}"
_GRID_HALF, _GRID_N = 8.0, 9  # the gradient-inequality grid: half-width, points per axis

ROTATION_COLUMNS = ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]
STATE_COLUMNS = ["t", "px", "py", "pz", "z", "c"] + ROTATION_COLUMNS
COMPARE_COLUMNS = ["t", "err_pos", "err_c"]


def write_csv(path, header, rows):
    """Write the header, then each row as 17-digit floats formatted by one map
    over the row's tolist(): Python floats format faster than numpy scalars,
    and one row at a time never holds the whole table as Python floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(map(_FMT.format, row.tolist())) + "\n")


def read_csv(path):
    """Read back a numeric CSV as (header list, float array)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [list(map(float, line.split(","))) for line in fh if line.strip()]
    return header, np.array(data)


def _rep_table(rep: str, traj: Trajectory, scenario: Scenario):
    """Rows of the per-representation CSV: t, p, z, c, rotation entries.

    The rotation columns hold the representation's own attitude: the
    physical R for "full", the reconstructed R for "transformed", and the
    constant averaged frame for "rora"; z is the filter state where one
    exists and the quasi-steady value c(p, t) for "rora".
    """
    times, states = traj.times, traj.states
    strength = scenario.field.strength
    c = np.array([strength(y[0:3], t) for t, y in zip(times, states)])
    rot = states[:, 3:12]
    z = c if rep == "rora" else states[:, 12]
    if rep == "transformed":
        rot = reconstruct_R(rot.reshape(-1, 3, 3), z, times, scenario.params).reshape(-1, 9)
    return np.column_stack([times, states[:, 0:3], z, c, rot])


def _so3_drift(traj: Trajectory) -> float:
    m = traj.states[:, 3:12].reshape(-1, 3, 3)
    return float(np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(3)).max())


def run_representations(scenario: Scenario):
    """Integrate every requested representation from t = 0 on the shared sample grid."""
    params, field, p0 = scenario.params, scenario.field, scenario.p0
    z0 = scenario.initial_z(0.0)
    Q0 = initial_Q(scenario.R0, z0, 0.0, params)
    span = dict(t0=0.0, tf=scenario.t_final, settings=scenario.integrator,
                sample_dt=scenario.sample_dt)
    runs = {
        "full": lambda: full_trajectory(params, field, p0, scenario.R0, z0, **span),
        "transformed": lambda: transformed_trajectory(params, field, p0, Q0, z0, **span),
        "rora": lambda: rora_trajectory(params, field, p0, Q0, **span),
    }
    return {rep: runs[rep]() for rep in scenario.representations}


def run_scenario(scenario: Scenario, out_dir) -> dict:
    """Run a scenario from t = 0, write CSVs, comparisons, SVGs and the summary.

    Every representation is integrated before out_dir is made, so a run that
    raises leaves no directory. Returns the summary as written.
    """
    trajectories = run_representations(scenario)
    os.makedirs(out_dir, exist_ok=True)
    name, field = scenario.name, scenario.field
    csv_paths, reps, tables = {}, {}, {}
    for rep, traj in trajectories.items():
        tables[rep] = _rep_table(rep, traj, scenario)
        csv_paths[rep] = os.path.join(out_dir, f"{name}_{rep}.csv")
        write_csv(csv_paths[rep], STATE_COLUMNS, tables[rep])
        t_end, p_end = traj.times[-1], traj.states[-1][0:3]
        source = np.array([field.source(t) for t in traj.times])
        reps[rep] = {
            "samples": len(traj),
            "final_c": field.strength(p_end, t_end),
            "final_distance_to_source": float(np.linalg.norm(p_end - field.source(t_end))),
            "max_so3_defect": _so3_drift(traj),
            "sup_distance_to_source": float(
                np.linalg.norm(traj.states[:, 0:3] - source, axis=1).max()
            ),
        }

    comparison_paths, comparisons = {}, {}
    for a, b in itertools.combinations(tables, 2):
        ta, tb = tables[a], tables[b]
        err_pos = np.linalg.norm(ta[:, 1:4] - tb[:, 1:4], axis=1)
        err_c = np.abs(ta[:, 5] - tb[:, 5])
        key = f"{a}_vs_{b}"
        comparison_paths[key] = os.path.join(out_dir, f"{name}_compare_{key}.csv")
        rows = np.column_stack([ta[:, 0], err_pos, err_c])
        write_csv(comparison_paths[key], COMPARE_COLUMNS, rows)
        comparisons[key] = {"sup_err_pos": float(err_pos.max()), "sup_err_c": float(err_c.max())}

    # a local import, as in the CLI's plot command: sweeps and verification never load it
    from .svgplot import plot_artifacts

    summary = {
        "scenario": name,
        "field_spec": scenario.field_spec,
        "t_final": scenario.t_final,
        "sample_dt": scenario.sample_dt,
        "representations": reps,
        "comparisons": comparisons,
        "files": {
            "csv": csv_paths,
            "comparison": comparison_paths,
            "svg": plot_artifacts(name, tables, out_dir, field),
        },
    }
    if field.kappa is not None:
        summary["gradient_inequality"] = check_gradient_inequality(field, field.kappa, scenario.p0)
    with open(os.path.join(out_dir, f"{name}_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def check_gradient_inequality(field, kappa, around):
    """Grid check of c(p) - c(p*) >= -kappa |grad c(p)|^2 near a point.

    Purely numerical: returns the worst margin and whether the inequality
    held on a 9 x 9 x 9 grid of half-width 8 about the point at t = 0.
    """
    center = field.source(0.0)
    c_star = field.strength(center, 0.0)
    axes = [np.linspace(v - _GRID_HALF, v + _GRID_HALF, _GRID_N) for v in np.asarray(around)]
    worst = np.inf
    for p in itertools.product(*axes):
        p = np.array(p)
        margin = (
            field.strength(p, 0.0)
            - c_star
            + kappa * float(np.linalg.norm(field.gradient(p, 0.0)) ** 2)
        )
        worst = min(worst, margin)
    return {"kappa": kappa, "worst_margin": worst, "holds_on_grid": bool(worst >= 0.0)}
