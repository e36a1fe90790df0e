"""Command-line interface.

Subcommands: simulate, demo, sweep, verify, plot. Output lands under --out,
or the RECAVG_OUT_ROOT environment variable, or ./out. Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical divergence, 4 on
verification failure, 5 when the averaging quadrature does not converge.
"""

import argparse
import json
import math
import os
import sys

from ..avgcore import QuadratureError
from ..odeint import DivergenceError
from .artifacts import STATE_COLUMNS, read_csv, run_scenario
from .config import ConfigError, load_config, parse_pi_value
from .scenarios import BUILTIN_NAMES, built_in
from .sweep import run_sweep
from .verify import verify_averaging

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4
EXIT_QUADRATURE = 5
_ERROR_EXITS = {DivergenceError: EXIT_DIVERGED, QuadratureError: EXIT_QUADRATURE}

OUT_ROOT_ENV = "RECAVG_OUT_ROOT"


def _parse_omegas(text):
    try:
        values = [parse_pi_value(tok.strip(), "omega") for tok in text.split(",") if tok.strip()]
    except ConfigError as exc:
        raise ConfigError(f"--omegas: {exc}") from exc
    if len(values) < 3:
        raise ConfigError("--omegas: need at least 3 comma-separated values")
    if min(values) <= 0:
        raise ConfigError(f"--omegas: every frequency must be positive, got {min(values):g}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"--omegas: values must be strictly increasing, got {text}")
    return values


def _out_dir(args, name):
    """The run directory `name` under --out, $RECAVG_OUT_ROOT or ./out, refused
    before any run unless its nearest existing ancestor is a writable directory."""
    path = os.path.join(args.out or os.environ.get(OUT_ROOT_ENV, "out"), name)
    base = os.path.abspath(path)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out: cannot make {path}: {base} is not a writable directory")
    return path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="recavg",
        description="Two-timescale averaging and 3D source-seeking simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario from a config file")
    p_sim.add_argument("--config", required=True, help="path to a scenario JSON file")
    p_sim.add_argument("--out", default=None, help="output directory root")

    p_demo = sub.add_parser("demo", help="run a built-in scenario")
    p_demo.add_argument("name", choices=list(BUILTIN_NAMES))
    p_demo.add_argument("--out", default=None, help="output directory root")

    p_sweep = sub.add_parser("sweep", help="frequency sweep against the averaged flow")
    p_sweep.add_argument("--config", default=None, help="scenario JSON (default: ex1)")
    p_sweep.add_argument(
        "--omegas", required=True,
        help="comma-separated frequencies, numbers or 'Npi' (at least 3)",
    )
    p_sweep.add_argument("--t-final", type=float, default=20.0)
    p_sweep.add_argument("--out", default=None, help="output directory root")

    p_verify = sub.add_parser("verify", help="check the averaging conventions")
    p_verify.add_argument(
        "--flip-bracket", action="store_true",
        help="report the engine's output as if the bracket sign were inverted (must fail)",
    )
    p_verify.add_argument(
        "--swap-prefactors", action="store_true",
        help="report it as if the 1/2 prefactor sat on the mean term (must fail)",
    )

    p_plot = sub.add_parser("plot", help="regenerate SVG plots from a run directory")
    p_plot.add_argument("--in", dest="in_dir", required=True, help="run directory")
    return parser


def _cmd_run(args):
    if args.command == "demo":
        scenario = built_in(args.name)
    else:
        scenario = load_config(args.config)
    out_dir = _out_dir(args, scenario.name)
    summary = run_scenario(scenario, out_dir)
    print(f"wrote artifacts to {out_dir}")
    for rep, info in sorted(summary["representations"].items()):
        print(
            f"  {rep}: final c = {info['final_c']:.6g}, "
            f"final distance = {info['final_distance_to_source']:.6g}"
        )
    return EXIT_OK


def _cmd_sweep(args):
    if not (math.isfinite(args.t_final) and args.t_final > 0):
        raise ConfigError(f"--t-final: must be a finite number > 0, got {args.t_final:g}")
    scenario = load_config(args.config) if args.config else built_in("ex1")
    omegas = _parse_omegas(args.omegas)
    out_dir = _out_dir(args, f"{scenario.name}_sweep")
    report = run_sweep(scenario, omegas, out_dir, t_final=args.t_final)
    print(f"wrote sweep artifacts to {out_dir}")
    for w, e in zip(report.omegas, report.sup_errors):
        print(f"  omega = {w:10.4f}  sup error = {e:.6g}")
    print(f"  fitted log-log slope = {report.fitted_slope:.4f}")
    print(f"  empirical constant C = {report.empirical_C:.4f}")
    return EXIT_OK


def _cmd_verify(args):
    report = verify_averaging(
        flip_bracket=args.flip_bracket, swap_prefactors=args.swap_prefactors
    )
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _read_summary(path):
    """The scenario name, CSV paths by representation and field spec of a run
    summary; a ConfigError names the file and the first bad key."""
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read run summary {path}: {exc.strerror}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"run summary {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"run summary {path}: the root is not an object")
    name, files = summary.get("scenario"), summary.get("files")
    csv_paths = files.get("csv") if isinstance(files, dict) else None
    field_spec = summary.get("field_spec", {"kind": "static"})
    bad = None
    if not isinstance(name, str):
        bad = "scenario", "a string"
    elif not (isinstance(csv_paths, dict) and all(isinstance(p, str) for p in csv_paths.values())):
        bad = "files.csv", "an object of paths"
    elif not isinstance(field_spec, dict):
        bad = "field_spec", "an object"
    if bad:
        raise ConfigError(f"run summary {path}: {bad[0]!r} is missing or not {bad[1]}")
    return name, csv_paths, field_spec


def _cmd_plot(args):
    from ..seek3d import signal_field
    from .svgplot import plot_artifacts

    try:
        names = sorted(os.listdir(args.in_dir))
    except OSError as exc:
        raise ConfigError(f"cannot read run directory {args.in_dir}: {exc.strerror}") from exc
    summaries = [f for f in names if f.endswith("_summary.json")]
    if not summaries:
        raise ConfigError(f"no run summary found in {args.in_dir}")
    summary_path = os.path.join(args.in_dir, summaries[0])
    name, csv_paths, field_spec = _read_summary(summary_path)
    tables = {}
    for rep, path in csv_paths.items():
        if not os.path.exists(path):
            path = os.path.join(args.in_dir, os.path.basename(path))
        try:
            _, data = read_csv(path)
        except OSError as exc:
            raise ConfigError(
                f"cannot read trajectory CSV for {rep!r} at {path}: {exc.strerror}"
            ) from exc
        except ValueError as exc:  # a non-numeric cell or ragged rows
            raise ConfigError(f"trajectory CSV for {rep!r} at {path}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != len(STATE_COLUMNS):
            raise ConfigError(
                f"trajectory CSV for {rep!r} at {path}: expected rows of "
                f"{len(STATE_COLUMNS)} values, got shape {data.shape}"
            )
        tables[rep] = data
    try:
        field = signal_field(**field_spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"run summary {summary_path}: 'field_spec': {exc}") from exc
    paths = plot_artifacts(name, tables, args.in_dir, field)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_run, "demo": _cmd_run, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except (DivergenceError, QuadratureError, ValueError) as exc:
        # ConfigError and every other ValueError report as configuration errors
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXITS.get(type(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
