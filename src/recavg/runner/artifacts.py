"""Scenario execution and CSV/summary artifact writing.

Every representation of a scenario is sampled on the same time grid, so the
pairwise comparison files are exact sample-by-sample differences. Floats are
written with 17 significant digits, which round-trips doubles exactly.
"""

import json
import os
from dataclasses import dataclass

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

ROTATION_COLUMNS = ["r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33"]
STATE_COLUMNS = ["t", "px", "py", "pz", "z", "c"] + ROTATION_COLUMNS
COMPARE_COLUMNS = ["t", "err_pos", "err_c"]


@dataclass(frozen=True)
class RunArtifacts:
    """File inventory of one scenario run plus the in-memory summary."""

    run_dir: str
    csv_paths: dict
    comparison_paths: dict
    summary_path: str
    summary: dict
    svg_paths: tuple = ()


def format_row(values) -> str:
    return ",".join(_FMT.format(v) for v in values)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


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
    params = scenario.params
    z0 = scenario.initial_z(0.0)
    Q0 = initial_Q(scenario.R0, z0, 0.0, params)
    sample_dt = scenario.sample_dt
    out = {}
    for rep in scenario.representations:
        if rep == "full":
            out[rep] = full_trajectory(
                params, scenario.field, scenario.p0, scenario.R0, z0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )
        elif rep == "transformed":
            out[rep] = transformed_trajectory(
                params, scenario.field, scenario.p0, Q0, z0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )
        elif rep == "rora":
            out[rep] = rora_trajectory(
                params, scenario.field, scenario.p0, Q0,
                0.0, scenario.t_final, scenario.integrator, sample_dt=sample_dt,
            )
        else:
            raise ValueError(f"unknown representation {rep!r}")
    return out


def run_scenario(scenario: Scenario, out_dir, plots: bool = True) -> RunArtifacts:
    """Run a scenario from t = 0, write CSVs, comparisons, summary, and optionally SVGs."""
    os.makedirs(out_dir, exist_ok=True)
    trajectories = run_representations(scenario)
    field = scenario.field

    csv_paths, tables = {}, {}
    for rep, traj in trajectories.items():
        rows = _rep_table(rep, traj, scenario)
        path = os.path.join(out_dir, f"{scenario.name}_{rep}.csv")
        write_csv(path, STATE_COLUMNS, rows)
        csv_paths[rep] = path
        tables[rep] = rows

    comparison_paths, comparisons = {}, {}
    reps = list(trajectories)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            a, b = reps[i], reps[j]
            ta, tb = tables[a], tables[b]
            err_pos = np.linalg.norm(ta[:, 1:4] - tb[:, 1:4], axis=1)
            err_c = np.abs(ta[:, 5] - tb[:, 5])
            rows = np.column_stack([ta[:, 0], err_pos, err_c])
            path = os.path.join(out_dir, f"{scenario.name}_compare_{a}_vs_{b}.csv")
            write_csv(path, COMPARE_COLUMNS, rows)
            comparison_paths[f"{a}_vs_{b}"] = path
            comparisons[f"{a}_vs_{b}"] = {
                "sup_err_pos": float(err_pos.max()),
                "sup_err_c": float(err_c.max()),
            }

    summary = {
        "scenario": scenario.name,
        "field_spec": scenario.field_spec,
        "t_final": scenario.t_final,
        "sample_dt": scenario.sample_dt,
        "representations": {},
        "comparisons": comparisons,
        "files": {"csv": csv_paths, "comparison": comparison_paths},
    }
    for rep, traj in trajectories.items():
        t_end = traj.times[-1]
        p_end = traj.states[-1][0:3]
        summary["representations"][rep] = {
            "samples": len(traj),
            "final_c": field.strength(p_end, t_end),
            "final_distance_to_source": float(
                np.linalg.norm(p_end - field.source(t_end))
            ),
            "max_so3_defect": _so3_drift(traj),
            "sup_distance_to_source": float(
                np.linalg.norm(
                    traj.states[:, 0:3] - np.array([field.source(t) for t in traj.times]),
                    axis=1,
                ).max()
            ),
        }
    if scenario.field.kappa is not None:
        summary["gradient_inequality"] = check_gradient_inequality(
            field, scenario.field.kappa, scenario.p0
        )

    svg_paths = ()
    if plots:
        from .svgplot import plot_artifacts

        svg_paths = tuple(plot_artifacts(scenario.name, tables, out_dir, field))
        summary["files"]["svg"] = list(svg_paths)

    summary_path = os.path.join(out_dir, f"{scenario.name}_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunArtifacts(
        run_dir=str(out_dir),
        csv_paths=csv_paths,
        comparison_paths=comparison_paths,
        summary_path=summary_path,
        summary=summary,
        svg_paths=svg_paths,
    )


def check_gradient_inequality(field, kappa, around, half_width=8.0, n=9):
    """Grid check of c(p) - c(p*) >= -kappa |grad c(p)|^2 near a point.

    Purely numerical: returns the worst margin and whether the inequality
    held on the sampled grid at t = 0.
    """
    center = field.source(0.0)
    c_star = field.strength(center, 0.0)
    axes = [np.linspace(v - half_width, v + half_width, n) for v in np.asarray(around)]
    worst = np.inf
    for x in axes[0]:
        for y in axes[1]:
            for zc in axes[2]:
                p = np.array([x, y, zc])
                margin = (
                    field.strength(p, 0.0)
                    - c_star
                    + kappa * float(np.linalg.norm(field.gradient(p, 0.0)) ** 2)
                )
                worst = min(worst, margin)
    return {"kappa": kappa, "worst_margin": worst, "holds_on_grid": bool(worst >= 0.0)}
