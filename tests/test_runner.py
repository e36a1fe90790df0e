"""Runner checks: config validation, CSV round-trips, SVG output, CLI exit codes."""

import json
import math
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recavg.runner import (
    ConfigError,
    built_in,
    load_config,
    parse_pi_value,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    verify_averaging,
)
from recavg.runner.artifacts import STATE_COLUMNS, read_csv, write_csv
from recavg.runner.cli import (
    EXIT_CONFIG, EXIT_DIVERGED, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, main,
)
from recavg.runner.svgplot import _Canvas, plot_lines
from recavg.runner.verify import VerificationReport
from recavg.seek3d import rora_drift


def short_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "name": "short",
        "params": {"alpha": 0.125, "omega": "4pi", "mu": 1.0 / (16.0 * math.pi**2)},
        "field": {"kind": "static", "center": [0.0, 0.0, 0.0]},
        "p0": [-2.0, -2.0, 6.0],
        "z0": "slow-manifold",
        "t_final": 2.0,
        "integrator": {"steps_per_period": 64, "projection": True, "sample_stride": 8},
        "representations": ["full", "rora"],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --- pi-string parsing ---------------------------------------------------------

def test_parse_pi_values():
    assert parse_pi_value("4pi") == 4.0 * math.pi
    assert parse_pi_value("0.5pi") == 0.5 * math.pi
    assert parse_pi_value("-2pi") == -2.0 * math.pi
    assert parse_pi_value(3.25) == 3.25
    assert parse_pi_value(7) == 7.0
    assert parse_pi_value("12.5") == 12.5
    assert parse_pi_value(" 2e1 ") == 20.0


def test_parse_pi_rejects_junk():
    for bad in ("pi", "4 tau", "abc", None, [1], "nan", "inf", "1e999", "1e999pi", math.inf,
                math.nan):
        with pytest.raises(ConfigError):
            parse_pi_value(bad)


# --- config validation -----------------------------------------------------------

def test_load_valid_config(tmp_path):
    sc = load_config(short_config(tmp_path))
    assert sc.name == "short"
    assert sc.params.omega == 4.0 * math.pi
    assert sc.representations == ("full", "rora")
    assert sc.initial_z() == sc.field.strength(sc.p0, 0.0)
    # sample_stride 8 tau-periods of 2 pi / omega over steps_per_period 64
    assert sc.sample_dt == 8 * (2.0 * math.pi) / sc.params.omega / 64


def test_invalid_configs_list_fields(tmp_path):
    with pytest.raises(ConfigError, match="t_final"):
        load_config(short_config(tmp_path, t_final=0.0))
    with pytest.raises(ConfigError, match="params.omega"):
        load_config(short_config(tmp_path, params={"alpha": 0.1, "omega": "4tau", "mu": 1.0}))
    with pytest.raises(ConfigError, match="R0"):
        load_config(short_config(tmp_path, R0=[[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    with pytest.raises(ConfigError, match="R0: determinant -1, a reflection"):
        load_config(short_config(tmp_path, R0=REFLECTION))
    with pytest.raises(ConfigError, match="representations"):
        load_config(short_config(tmp_path, representations=["full", "avg"]))
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(short_config(tmp_path, schema_version=99))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(short_config(tmp_path, extra_knob=1))
    for key, value, field in NON_FINITE_CONFIGS:
        with pytest.raises(ConfigError, match=field):
            load_config(short_config(tmp_path, **{key: value}))
    for integrator, line in NOT_A_COUNT_CONFIGS:
        with pytest.raises(ConfigError, match=re.escape(line)):
            load_config(short_config(tmp_path, integrator=integrator))


REFLECTION = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]  # orthogonal, so its SO(3) defect is 0

# (key, value, the field the error line must name); 1e400 reads as inf
NON_FINITE_CONFIGS = [
    ("t_final", "inf", "t_final: 'inf' is not a finite number"),
    ("t_final", 10**400, "t_final: "),
    ("z0", "nan", "z0: 'nan' is not a finite number"),
    ("integrator", {"steps_per_period": 1e400}, "integrator.steps_per_period: "),
    ("integrator", {"sample_stride": float("nan")}, "integrator.sample_stride: "),
    ("params", {"alpha": 0.125, "omega": 10**400, "mu": 1.0}, "params.omega: "),
    ("integrator", {"steps_per_period": 10**400}, "integrator: "),
    ("field", {"kind": "orbit", "radius": "nan"}, "field: orbit radius"),
    ("field", {"kind": "static", "kappa": float("inf")}, "field: kappa must be finite"),
]

# (integrator, the error line): counts that are fractions or booleans, and a
# projection switch that is not a JSON boolean, are refused, not rounded
NOT_A_COUNT_CONFIGS = [
    ({"steps_per_period": 64.9}, "integrator.steps_per_period: must be an integer >= 16, got 64.9"),
    ({"steps_per_period": True}, "integrator.steps_per_period: must be an integer >= 16, got True"),
    ({"sample_stride": 2.99}, "integrator.sample_stride: must be an integer >= 1, got 2.99"),
    ({"sample_stride": True}, "integrator.sample_stride: must be an integer >= 1, got True"),
    ({"sample_stride": 0}, "integrator.sample_stride: must be an integer >= 1, got 0"),
    ({"projection": "no"}, "integrator.projection: must be true or false, got 'no'"),
]

# plans over odeint.MAX_STEPS RK4 steps, refused before any output exists
STEP_CAP_CONFIGS = {
    "steps_per_period-1e300": ("integrator", {"steps_per_period": 1e300}),
    "steps_per_period-1e9": ("integrator", {"steps_per_period": 1e9}),
    "mu-1e-9": ("params", {"alpha": 0.125, "omega": "4pi", "mu": 1e-9}),
}


@pytest.mark.parametrize("key, value", STEP_CAP_CONFIGS.values(), ids=STEP_CAP_CONFIGS)
def test_cli_step_cap_refused_before_output(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    code = main(["simulate", "--config", short_config(tmp_path, **{key: value}), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "integrator.steps_per_period (full at dt = " in err
    assert "RK4 steps, over the cap of 1e+07" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--omegas", "4pi,16pi,64pi", "--t-final", "1e6"],
    ["--omegas", "4pi,16pi,1e9pi"],  # only the largest omega is over the cap
    ["--omegas", "4pi,16pi,1e9", "--t-final", "20"],
])
def test_cli_sweep_step_cap_refused_before_any_run(tmp_path, monkeypatch, capsys, args):
    from recavg import avgcore

    def no_run(*args, **kwargs):
        raise AssertionError("an integration started")

    monkeypatch.setattr(avgcore, "simulate_averaged", no_run)
    monkeypatch.setattr(avgcore, "simulate_two_scale", no_run)
    out = tmp_path / "s"
    assert main(["sweep", *args, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: omega = " in err and "RK4 steps, over the cap of 1e+07" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, field", NON_FINITE_CONFIGS, ids=[f.split(":")[0] for _, _, f in NON_FINITE_CONFIGS]
)
def test_cli_non_finite_config_values_rejected(tmp_path, capsys, key, value, field):
    out = tmp_path / "out"
    code = main(["simulate", "--config", short_config(tmp_path, **{key: value}), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


# inputs that passed validation and then ended in "math domain error": an
# orbit phase rate * t that overflows, and a start so far out that c(p0) = -inf
OVERFLOW_CONFIGS = {
    "orbit-rate-1e308": (
        {"field": {"kind": "orbit", "rate": 1e308}, "t_final": 5.0},
        "field: the source path is not finite at t = 5",
    ),
    "p0-1e200": ({"p0": [1e200, 0.0, 0.0]}, "z0: the slow-manifold start c(p0) = -inf"),
    "p0-1e200-z0-given": ({"p0": [1e200, 0.0, 0.0], "z0": 0.5}, "p0: the signal c(p0) = -inf"),
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("overrides, message", OVERFLOW_CONFIGS.values(), ids=OVERFLOW_CONFIGS)
def test_cli_overflowing_config_refused(tmp_path, capsys, command, overrides, message):
    sweep_args = ["--omegas", "4pi,16pi,64pi", "--t-final", "5"] if command == "sweep" else []
    out = tmp_path / "out"
    cfg = short_config(tmp_path, **overrides)
    assert main([command, "--config", cfg, *sweep_args, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("z0", [1e300, 1e200])
def test_cli_filter_blowup_is_divergence(tmp_path, capsys, z0):
    # z0 is finite, so the config passes; the filter rate (c - z) / mu sends
    # the full seeker's state to inf inside one RK4 step
    out = tmp_path / "out"
    assert main(["simulate", "--config", short_config(tmp_path, z0=z0), "--out", str(out)]) == (
        EXIT_DIVERGED
    )
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "error: non-finite state encountered at t = " in err
    assert not out.exists()


def test_cli_sweep_checks_the_source_path_at_its_t_final(tmp_path, capsys):
    # rate * 1 is finite, so the config passes; rate * 5 overflows
    cfg = short_config(tmp_path, field={"kind": "orbit", "rate": 1e308}, t_final=1.0)
    assert load_config(cfg).t_final == 1.0
    out = tmp_path / "out"
    args = ["sweep", "--config", cfg, "--omegas", "4pi,16pi,64pi", "--t-final", "5"]
    assert main([*args, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: field: the source path is not finite at t = 5\n"
    assert not out.exists()


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e400pi", "4pi", "0.5", "-3", "", "abc",
                     "slow-manifold", "static", "orbit", "full", "rora"]),
    st.text(max_size=6),
)


def _json_containers(kids):
    return st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4)


_JSON = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=8)
_VALID_DOC = {
    "schema_version": 1,
    "name": "fuzz",
    "params": {"alpha": 0.125, "omega": "4pi", "mu": 0.0063},
    "field": {"kind": "orbit", "radius": 2.0, "rate": 0.05, "height": 2.0, "vertical_rate": 0.1,
              "kappa": 30.0},
    "p0": [-2.0, -2.0, 6.0],
    "R0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "z0": 0.5,
    "t_final": 2.0,
    "integrator": {"steps_per_period": 64, "projection": True, "sample_stride": 8},
    "representations": ["full", "rora"],
}
# every key of the valid document, nested ones as (key, subkey), plus two it lacks
_PATHS = [(k,) for k in _VALID_DOC] + [
    (k, sub) for k, v in _VALID_DOC.items() if isinstance(v, dict) for sub in v
] + [("extra",), ("field", "center")]


@st.composite
def _config_docs(draw):
    """The valid document with up to four keys dropped or set to any JSON value."""
    doc = json.loads(json.dumps(_VALID_DOC))
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=4)):
        parent = doc if len(path) == 1 else doc.get(path[0])
        if not isinstance(parent, dict):
            continue
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_config_docs() | _JSON)
def test_config_fuzz_only_config_error_escapes(doc):
    try:
        sc = scenario_from_dict(doc)
    except ConfigError:
        return
    assert math.isfinite(sc.t_final) and sc.t_final > 0
    assert sc.z0 == "slow-manifold" or math.isfinite(sc.z0)
    assert math.isfinite(sc.sample_dt) and sc.sample_dt > 0
    assert sc.field.kappa is None or math.isfinite(sc.field.kappa)
    assert np.isfinite(sc.field.source(1.0)).all()


def test_fast_roll_representations_agree():
    # alpha = 8 makes the roll-frame period, sqrt(2) pi / alpha in sigma, the
    # shorter forcing period (0.157 against the tau-period's 0.5 time units);
    # stepped on the tau-period alone, full and transformed drifted 0.246 apart
    from recavg.runner.artifacts import run_representations

    sc = scenario_from_dict({
        "schema_version": 1,
        "params": {"alpha": 8.0, "omega": "4pi", "mu": 1.0 / (16.0 * math.pi**2)},
        "p0": [-2.0, -2.0, 6.0],
        "t_final": 5.0,
        "integrator": {"steps_per_period": 64, "sample_stride": 4},
        "representations": ["full", "transformed"],
    })
    runs = run_representations(sc)
    gap = np.linalg.norm(runs["full"].states[:, 0:3] - runs["transformed"].states[:, 0:3], axis=1)
    assert gap.max() <= 0.02


def test_multiple_errors_reported_together(tmp_path):
    path = short_config(tmp_path, t_final=-1.0, representations=["x"])
    with pytest.raises(ConfigError) as info:
        load_config(path)
    msg = str(info.value)
    assert "t_final" in msg and "representations" in msg


def test_builtins():
    for name in ("ex1", "ex2"):
        sc = built_in(name)
        assert sc.params.alpha == 0.125
        assert sc.params.omega == 4.0 * math.pi
        assert sc.t_final == 200.0
        assert np.array_equal(sc.p0, np.array([-2.0, -2.0, 6.0]))
    assert built_in("ex2").field_spec["kind"] == "orbit"
    with pytest.raises(ValueError):
        built_in("ex3")


# --- CSV round-trip ----------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    rows = np.array(
        [
            [0.1, 1.0 / 3.0, -7.25e-12, 1.2345678901234567],
            [2.0, math.pi, 6.02214076e23, -1e-300],
        ]
    )
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], rows)
    header, back = read_csv(path)
    assert header == ["a", "b", "c", "d"]
    assert np.array_equal(back, rows)


def test_scenario_csv_round_trip(tmp_path):
    sc = load_config(short_config(tmp_path))
    summary = run_scenario(sc, tmp_path / "run")
    for rep, path in summary["files"]["csv"].items():
        header, data = read_csv(path)
        assert header[:6] == ["t", "px", "py", "pz", "z", "c"]
        assert len(data) == summary["representations"][rep]["samples"]
        # rewrite and compare bytes: parse -> format is the identity
        path2 = tmp_path / f"again_{rep}.csv"
        write_csv(path2, header, data)
        assert (tmp_path / "run" / os.path.basename(path)).read_bytes() == path2.read_bytes()


def reference_format_row(values):
    """The per-element generator that formatted CSV rows before write_csv's row map."""
    return ",".join("{:.17g}".format(v) for v in values)


def test_write_csv_matches_per_element_reference(tmp_path):
    rng = np.random.default_rng(41)
    table = rng.normal(size=(40, 15)) * 10.0 ** rng.integers(-300, 300, size=(40, 15))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308]
    table[0, :9], table[1, 6:15] = special, special[::-1]
    header = [f"c{k}" for k in range(15)]
    # numpy rows format numpy scalars in the reference, list rows Python floats
    for rows in (table, table.tolist(), table[:0]):
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        want = ",".join(header) + "\n" + "".join(reference_format_row(r) + "\n" for r in rows)
        assert path.read_bytes() == want.encode("utf-8")


# --- determinism ---------------------------------------------------------------------

def test_repeated_runs_byte_identical(tmp_path):
    sc = load_config(short_config(tmp_path))
    a = run_scenario(sc, tmp_path / "a")
    b = run_scenario(sc, tmp_path / "b")
    for rep in a["files"]["csv"]:
        pa, pb = a["files"]["csv"][rep], b["files"]["csv"][rep]
        assert open(pa, "rb").read() == open(pb, "rb").read()
    for pa, pb in zip(a["files"]["svg"], b["files"]["svg"]):
        assert open(pa, "rb").read() == open(pb, "rb").read()


# --- SVG -------------------------------------------------------------------------------

def test_svg_files_valid_xml(tmp_path):
    sc = load_config(short_config(tmp_path))
    svg_paths = run_scenario(sc, tmp_path / "run")["files"]["svg"]
    assert len(svg_paths) == 4
    for path in svg_paths:
        assert os.path.getsize(path) > 0
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_polyline_matches_per_point_reference():
    # the per-point form: each numpy scalar mapped to pixels, then formatted
    rng = np.random.default_rng(43)
    for i in range(60):
        n = int(rng.integers(1, 300))
        xs = np.cumsum(rng.uniform(0.0, 1.0, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        ys = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0)
        xlim, ylim = sorted(rng.normal(size=2)), (float(ys.min()), float(ys.max()))
        canvas = _Canvas("t", "x", "y", xlim, ylim)
        canvas.polyline(xs, ys, "#123456")
        pts = " ".join(
            f"{canvas.x_px(x):.3f},{canvas.y_px(y):.3f}" for x, y in zip(xs, ys)
        )
        want = f'<polyline fill="none" stroke="#123456" stroke-width="1.2" points="{pts}"/>\n'
        assert canvas.parts[-1] == want, i


def test_empty_trajectory_plot_rejected(tmp_path):
    target = tmp_path / "nope.svg"
    with pytest.raises(ValueError):
        plot_lines(str(target), "t", "x", "y", [("a", np.array([]), np.array([]))])
    assert not target.exists()


# --- gradient-inequality check ----------------------------------------------------------

def test_kappa_grid_check_in_summary(tmp_path):
    path = short_config(tmp_path, field={"kind": "static", "kappa": 30.0})
    sc = load_config(path)
    rec = run_scenario(sc, tmp_path / "run")["gradient_inequality"]
    assert rec["kappa"] == 30.0
    assert "holds_on_grid" in rec and "worst_margin" in rec


# --- CLI -----------------------------------------------------------------------------------

def test_cli_simulate_ok(tmp_path):
    cfg = short_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    run_dir = out / "short"
    names = sorted(os.listdir(run_dir))
    assert "short_full.csv" in names and "short_summary.json" in names
    assert "short_compare_full_vs_rora.csv" in names


def test_cli_config_error_writes_nothing(tmp_path, capsys):
    cfg = short_config(tmp_path, t_final=0.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "t_final" in capsys.readouterr().err


def test_cli_reflected_R0_is_a_config_error(tmp_path, capsys):
    # a reflection has SO(3) defect 0, so its determinant is checked while the
    # config is read, before the run directory exists
    cfg = short_config(tmp_path, R0=REFLECTION)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "R0: determinant -1" in err


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"not json"], ids=["not-utf8", "not-json"])
def test_cli_undecodable_config_names_file(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(cfg) in err


def test_cli_out_root_env(tmp_path, monkeypatch):
    cfg = short_config(tmp_path)
    monkeypatch.setenv("RECAVG_OUT_ROOT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "envout" / "short" / "short_summary.json").exists()


def test_cli_sweep_rejects_two_omegas(tmp_path, capsys):
    cfg = short_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--omegas", "4pi,16pi", "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG


def test_cli_sweep_short(tmp_path):
    cfg = short_config(tmp_path)
    out = tmp_path / "s"
    code = main([
        "sweep", "--config", cfg, "--omegas", "4pi,8pi,16pi",
        "--t-final", "2.0", "--out", str(out),
    ])
    assert code == EXIT_OK
    header, data = read_csv(out / "short_sweep" / "short_sweep.csv")
    assert header == ["omega", "sup_error"]
    assert data.shape == (3, 2)
    summary = json.loads((out / "short_sweep" / "short_sweep_summary.json").read_text())
    assert set(summary) >= {"fitted_slope", "empirical_C", "omegas", "sup_errors"}


def _record_sweeps(monkeypatch):
    from types import SimpleNamespace

    from recavg.runner import cli

    seen = []

    def fake_sweep(scenario, omegas, out_dir, t_final):
        seen.append((omegas, t_final))
        return SimpleNamespace(omegas=omegas, sup_errors=[1.0] * len(omegas),
                               fitted_slope=-0.5, empirical_C=1.0)

    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    return seen


def test_cli_sweep_omegas_plain_numbers(tmp_path, monkeypatch, capsys):
    seen = _record_sweeps(monkeypatch)
    out = str(tmp_path / "s")
    assert main(["sweep", "--omegas", "12.5,50,200", "--out", out]) == EXIT_OK
    assert seen == [([12.5, 50.0, 200.0], 20.0)]
    for bad in ("nan,50,200", "12.5,inf,200", "0,50,200", "12.5,-50,200", "4pi,16pi,1e999"):
        assert main(["sweep", "--omegas", bad, "--out", out]) == EXIT_CONFIG
        assert "--omegas" in capsys.readouterr().err
    assert len(seen) == 1


def test_cli_sweep_omegas_out_of_order_names_the_flag(tmp_path, monkeypatch, capsys):
    seen = _record_sweeps(monkeypatch)
    for bad in ("16pi,4pi,64pi", "4pi,4pi,16pi"):
        assert main(["sweep", "--omegas", bad, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--omegas" in err and "increasing" in err
    assert seen == []


@pytest.mark.parametrize("command", [
    ["simulate", "--config", None], ["demo", "ex1"], ["sweep", "--omegas", "4pi,16pi,64pi"],
], ids=["simulate", "demo", "sweep"])
def test_cli_out_naming_a_file_refused_before_any_run(tmp_path, monkeypatch, capsys, command):
    from recavg import avgcore
    from recavg.runner import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(avgcore, "simulate_averaged", no_run)
    monkeypatch.setattr(avgcore, "simulate_two_scale", no_run)
    command = [short_config(tmp_path) if a is None else a for a in command]
    out = tmp_path / "out.txt"
    out.write_text("not a directory\n")
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--out" in err and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_cli_sweep_rejects_bad_t_final(tmp_path, monkeypatch, capsys):
    seen = _record_sweeps(monkeypatch)
    for bad in ("nan", "inf", "0", "-1"):
        code = main(["sweep", "--omegas", "4pi,8pi,16pi", "--t-final", bad,
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "--t-final" in capsys.readouterr().err
    assert seen == []


def test_sweep_sup_errors_pinned():
    # the embedded reduced system against the rora drift, both on odeint's float loop
    field = built_in("ex1").field
    assert isinstance(rora_drift(field)([0.5] * 12, 0.0), list)
    report = run_sweep(built_in("ex1"), [4 * math.pi, 16 * math.pi, 64 * math.pi], None,
                       t_final=1.0, workers=1)
    expected = (0.8038151863536257, 0.41297483997029594, 0.20858332603642268)
    assert np.allclose(report.sup_errors, expected, rtol=1e-12, atol=0.0)


def test_cli_plot_roundtrip(tmp_path):
    cfg = short_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    run_dir = str(out / "short")
    svgs_before = {
        name: (out / "short" / name).read_bytes()
        for name in os.listdir(run_dir)
        if name.endswith(".svg")
    }
    assert main(["plot", "--in", run_dir]) == EXIT_OK
    for name, payload in svgs_before.items():
        assert (out / "short" / name).read_bytes() == payload


def test_cli_plot_missing_dir(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["plot", "--in", str(empty)]) == EXIT_CONFIG


def test_cli_plot_missing_paths_are_config_errors(tmp_path, capsys):
    absent = tmp_path / "absent"
    assert main(["plot", "--in", str(absent)]) == EXIT_CONFIG
    assert str(absent) in capsys.readouterr().err

    cfg = short_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    missing = out / "short" / "short_full.csv"
    missing.unlink()
    assert main(["plot", "--in", str(out / "short")]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err


DIRECTORY = object()


@pytest.mark.parametrize(
    "summary, key",
    [
        ({"scenario": "x"}, "'files.csv'"),
        ([1, 2], "the root is not an object"),
        ({"files": {"csv": {}}}, "'scenario'"),
        ({"scenario": "x", "files": {"csv": {"full": 1}}}, "'files.csv'"),
        ({"scenario": "x", "files": {"csv": {}}, "field_spec": "static"}, "'field_spec'"),
        ({"scenario": "x", "files": {"csv": {}}, "field_spec": {}}, "'field_spec'"),
        (b"not json", "not valid UTF-8 JSON"),
        (b"\xff\xfe{}", "not valid UTF-8 JSON"),
        (DIRECTORY, "cannot read run summary"),
    ],
    ids=[
        "no-files", "list-root", "no-scenario", "csv-not-paths", "spec-string", "spec-no-kind",
        "not-json", "not-utf8", "directory",
    ],
)
def test_cli_plot_malformed_summary_is_config_error(tmp_path, capsys, summary, key):
    # bytes are written as they stand, DIRECTORY makes the summary path a
    # directory, and anything else is written as its JSON text
    path = tmp_path / "x_summary.json"
    if summary is DIRECTORY:
        path.mkdir()
    elif isinstance(summary, bytes):
        path.write_bytes(summary)
    else:
        path.write_text(json.dumps(summary))
    assert main(["plot", "--in", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert str(path) in err and key in err


@pytest.mark.parametrize(
    "body",
    [
        "t,px\n0.0,abc\n",
        "t,px,py\n0.0,1.0,2.0\n1.0,2.0\n",
        "t,px\n0.0,1.0\n1.0,2.0\n",
    ],
    ids=["not-numeric", "ragged", "two-columns"],
)
def test_cli_plot_bad_trajectory_csv_is_config_error(tmp_path, capsys, body):
    csv = tmp_path / "x_full.csv"
    csv.write_text(body)
    summary = {"scenario": "x", "files": {"csv": {"full": str(csv)}}}
    (tmp_path / "x_summary.json").write_text(json.dumps(summary))
    assert main(["plot", "--in", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "'full'" in err and str(csv) in err
    assert not list(tmp_path.glob("*.svg"))


def test_summary_comparisons_match_csv_maxima(tmp_path):
    sc = load_config(short_config(tmp_path, representations=["full", "transformed", "rora"]))
    summary = run_scenario(sc, tmp_path / "run")
    comparison_paths = summary["files"]["comparison"]
    assert set(summary["comparisons"]) == set(comparison_paths)
    for key, path in comparison_paths.items():
        header, data = read_csv(path)
        assert header == ["t", "err_pos", "err_c"]
        assert summary["comparisons"][key] == {
            "sup_err_pos": float(data[:, 1].max()),
            "sup_err_c": float(data[:, 2].max()),
        }
    on_disk = json.loads((tmp_path / "run" / "short_summary.json").read_text(encoding="utf-8"))
    assert on_disk["comparisons"] == summary["comparisons"]


def test_run_scenario_returns_the_summary_it_writes(tmp_path):
    sc = load_config(short_config(tmp_path, field={"kind": "static", "kappa": 30.0}))
    summary = run_scenario(sc, tmp_path / "run")
    on_disk = json.loads((tmp_path / "run" / "short_summary.json").read_text(encoding="utf-8"))
    assert summary == on_disk


def _diverge_transformed(monkeypatch):
    from recavg.odeint import DivergenceError
    from recavg.runner import artifacts

    def diverge(*args, **kwargs):
        raise DivergenceError(1.5)

    monkeypatch.setattr(artifacts, "transformed_trajectory", diverge)


def test_run_that_raises_leaves_no_run_directory(tmp_path, monkeypatch):
    from recavg.odeint import DivergenceError

    _diverge_transformed(monkeypatch)
    sc = load_config(short_config(tmp_path, representations=["full", "transformed", "rora"]))
    with pytest.raises(DivergenceError):
        run_scenario(sc, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_cli_run_that_diverges_writes_nothing(tmp_path, monkeypatch, capsys):
    _diverge_transformed(monkeypatch)
    cfg = short_config(tmp_path, representations=["full", "transformed", "rora"])
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "t = 1.5" in err
    assert not out.exists()


def test_tables_and_summary_match_row_loops(tmp_path):
    # reference: the per-row loops that the batched CSV tables and summary
    # replaced; only the attitude products may round differently
    from recavg.geom3 import so3_defect
    from recavg.runner.artifacts import run_representations
    from recavg.seek3d import reconstruct_R

    # unprojected, so the SO(3) defects stand well above rounding
    sc = load_config(short_config(
        tmp_path, field={"kind": "orbit"}, representations=["full", "transformed", "rora"],
        integrator={"steps_per_period": 64, "projection": False, "sample_stride": 8},
    ))
    summary = run_scenario(sc, tmp_path / "run")
    for rep, traj in run_representations(sc).items():
        rows = []
        for t, y in zip(traj.times, traj.states):
            c = sc.field.strength(y[0:3], t)
            rot = y[3:12].reshape(3, 3)
            if rep == "transformed":
                rot = reconstruct_R(rot, y[12], t, sc.params)
            rows.append([t, *y[0:3], c if rep == "rora" else y[12], c, *rot.ravel()])
        _, table = read_csv(summary["files"]["csv"][rep])
        assert np.array_equal(table[:, :6], np.array(rows)[:, :6])
        assert np.abs(table[:, 6:] - np.array(rows)[:, 6:]).max() <= 1e-15
        info = summary["representations"][rep]
        drift = max(so3_defect(y[3:12].reshape(3, 3)) for y in traj.states)
        assert abs(info["max_so3_defect"] - drift) <= 1e-15
        sup = max(
            np.linalg.norm(y[0:3] - sc.field.source(t)) for t, y in zip(traj.times, traj.states)
        )
        assert abs(info["sup_distance_to_source"] - sup) <= 1e-14


def test_cli_demo_runs_builtin_scenario(tmp_path, monkeypatch, capsys):
    from recavg.runner import cli

    seen = []

    def fake_run(scenario, out_dir):
        seen.append((scenario, out_dir))
        return {"representations": {}}

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    assert main(["demo", "ex2", "--out", str(tmp_path / "o")]) == EXIT_OK
    (scenario, out_dir), = seen
    expected = built_in("ex2")
    assert scenario.name == "ex2" and scenario.field_spec == expected.field_spec
    assert scenario.params == expected.params and scenario.t_final == expected.t_final
    assert out_dir == os.path.join(str(tmp_path / "o"), "ex2")


def test_cli_divergence_exit_code(tmp_path, monkeypatch, capsys):
    from recavg.odeint import DivergenceError
    from recavg.runner import cli

    def boom(scenario, out_dir):
        raise DivergenceError(3.25)

    monkeypatch.setattr(cli, "run_scenario", boom)
    code = main(["simulate", "--config", short_config(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "t = 3.25" in capsys.readouterr().err


def test_cli_quadrature_error_exit_code(monkeypatch, capsys):
    from recavg.avgcore import QuadratureError
    from recavg.runner import cli

    def boom(**kwargs):
        raise QuadratureError("quadrature did not converge to 1e-09 within 4 refinements")

    monkeypatch.setattr(cli, "verify_averaging", boom)
    assert main(["verify"]) == 5
    err = capsys.readouterr().err
    assert err == "error: quadrature did not converge to 1e-09 within 4 refinements\n"


@pytest.mark.parametrize(
    "exc", [ValueError("a bug"), ZeroDivisionError("a bug"), KeyError("a bug")],
    ids=["ValueError", "ZeroDivisionError", "KeyError"],
)
def test_cli_other_exception_is_an_internal_error(monkeypatch, capsys, exc):
    # only ConfigError reads as bad input: a plain ValueError is a fault of
    # the program, reported on one line that names its type
    from recavg.runner import cli

    def boom(**kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_averaging", boom)
    assert main(["verify"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"error: internal {type(exc).__name__}: {exc}\n"


def test_run_sweep_refuses_an_over_long_plan_as_config_error(monkeypatch):
    from recavg import avgcore

    def no_run(*args, **kwargs):
        raise AssertionError("an integration started")

    monkeypatch.setattr(avgcore, "simulate_averaged", no_run)
    with pytest.raises(ConfigError, match=r"^omega = 1e\+09 over tf = 20: .* over the cap"):
        run_sweep(built_in("ex1"), [4 * math.pi, 16 * math.pi, 1e9], None, t_final=20.0)


@pytest.mark.parametrize(
    "field_spec, t, message",
    [
        ({"kind": "static"}, None, "'files.csv' lists no trajectory"),
        ({"kind": "orbit", "rate": 1e308}, 100.0,
         "'field_spec': field: the source path is not finite at t = 100"),
        ({"kind": "orbit"}, math.inf,
         "'field_spec': field: the source path is not finite at t = inf"),
    ],
    ids=["no-trajectory", "orbit-rate-1e308", "time-inf"],
)
def test_cli_plot_summary_that_cannot_be_drawn_is_config_error(tmp_path, capsys, field_spec, t,
                                                               message):
    # these ended in plot_artifacts' ValueError, or math.sin's "math domain
    # error" at the source path, reported as configuration errors by luck
    csv_paths = {}
    if t is not None:
        csv_paths["full"] = str(tmp_path / "x_full.csv")
        rows = np.array([[0.0] + [1.0] * 14, [t] + [1.0] * 14])
        write_csv(csv_paths["full"], STATE_COLUMNS, rows)
    summary = {"scenario": "x", "files": {"csv": csv_paths}, "field_spec": field_spec}
    (tmp_path / "x_summary.json").write_text(json.dumps(summary))
    assert main(["plot", "--in", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("name, value", [("mu", "nan"), ("alpha", "inf"), ("alpha", "-inf")])
def test_cli_non_finite_params_rejected(tmp_path, capsys, name, value):
    params = {"alpha": 0.125, "omega": "4pi", "mu": 1.0 / (16.0 * math.pi**2), name: value}
    out = tmp_path / "out"
    code = main(["simulate", "--config", short_config(tmp_path, params=params), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "params: " in capsys.readouterr().err
    assert not out.exists()


# --- verification --------------------------------------------------------------------------

def test_verify_passes():
    report = verify_averaging(n_probes=8)
    assert report.passed
    assert report.a_error <= 1e-6
    assert report.rotation_residual <= 1e-8
    assert report.sincos_error <= 1e-8
    assert report.diagnosis == ""


def test_verify_prints_each_entry_of_a_as_its_repr():
    # the shortest repr that reads back to the same float: a last-bit change
    # in any entry of A shows in the output
    a = np.array([[0.75, 0.25, 0.0], [0.2500000000000001, 0.75, -1e-17], [0.0, 0.0, 0.5]])
    report = VerificationReport(a, 1.1e-16, 0.0, 0.0, True, "")
    assert report.lines()[0] == (
        "gain matrix A, row-major : 0.75 0.25 0.0 0.2500000000000001 0.75 -1e-17 0.0 0.0 0.5"
    )


def test_verify_detects_flipped_bracket():
    report = verify_averaging(flip_bracket=True, n_probes=6)
    assert not report.passed
    assert "sign" in report.diagnosis


def test_verify_detects_swapped_prefactors():
    report = verify_averaging(swap_prefactors=True, n_probes=6)
    assert not report.passed
    assert "prefactor" in report.diagnosis


def test_cli_verify_flip_exit_code(capsys):
    code = main(["verify", "--flip-bracket"])
    assert code == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL" in out and "sign" in out
