"""Scenario configuration: a versioned JSON document, validated field by field.

Angles and frequencies may be written either as plain numbers (also inside
a string, as in "12.5") or as strings of the form "<number>pi" (for example
"4pi" or "0.5pi"), which are expanded exactly in double precision. Non-finite
values are rejected.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from ..geom3 import as_mat3, as_vec3, so3_defect
from ..odeint import IntegratorSettings, _plan_steps
from ..seek3d import SeekParams, SignalField, _seek_dt, signal_field

SCHEMA_VERSION = 1
REPRESENTATIONS = ("full", "transformed", "rora")
_DEFAULT_NAME = "scenario"

_NUMBER_PATTERN = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*(pi)?\s*$")


class ConfigError(ValueError):
    """Invalid scenario configuration; the message lists every bad field."""


def parse_pi_value(value, where: str = "value") -> float:
    """Accept a finite number, as a number or a string, or a '<number>pi'
    string expanded as number * pi."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = float(value)
    elif isinstance(value, str):
        m = _NUMBER_PATTERN.match(value)
        if not m:
            raise ConfigError(f"{where}: cannot parse {value!r}; expected a number or 'Npi'")
        out = float(m.group(1)) * (math.pi if m.group(2) else 1.0)
    else:
        raise ConfigError(
            f"{where}: expected a number or 'Npi' string, got {type(value).__name__}"
        )
    if not math.isfinite(out):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return out


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description, as scenario_from_dict validates it."""

    name: str
    params: SeekParams
    field: SignalField
    field_spec: dict
    p0: np.ndarray
    R0: np.ndarray
    z0: object  # float or the string "slow-manifold"
    t_final: float
    integrator: IntegratorSettings
    representations: tuple

    def initial_z(self, t0: float = 0.0) -> float:
        if self.z0 == "slow-manifold":
            return self.field.strength(self.p0, t0)
        return float(self.z0)

    @property
    def sample_dt(self) -> float:
        """Shared sampling interval for every representation of this scenario."""
        return _sample_interval(self.params, self.integrator)


def _sample_interval(params: SeekParams, integrator: IntegratorSettings) -> float:
    stride, spp = integrator.sample_stride, integrator.steps_per_period
    return stride * params.tau_period / params.omega / spp


def _collect(errors, where, fn):
    try:
        return fn()
    except ConfigError as exc:
        errors.append(str(exc))
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not a finite number")
    return out


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a parsed configuration document into a Scenario.

    Raises ConfigError whose message contains one line per offending field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    errors = []
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )

    name = doc.get("name", _DEFAULT_NAME)
    if not isinstance(name, str) or not name:
        errors.append("name: must be a non-empty string")
        name = _DEFAULT_NAME

    pd = doc.get("params")
    params = None
    if not isinstance(pd, dict):
        errors.append("params: missing or not an object")
    else:
        alpha = _collect(errors, "params.alpha", lambda: float(pd.get("alpha")))
        omega = _collect(
            errors, "params.omega", lambda: parse_pi_value(pd.get("omega"), "params.omega")
        )
        mu = _collect(errors, "params.mu", lambda: float(pd.get("mu")))
        if None not in (alpha, omega, mu):
            params = _collect(errors, "params", lambda: SeekParams(alpha, omega, mu))

    fd = doc.get("field", {"kind": "static"})
    fld = None
    spec = dict(fd) if isinstance(fd, dict) else {}
    if not isinstance(fd, dict) or "kind" not in fd:
        errors.append("field: must be an object with a 'kind' key")
    else:
        fld = _collect(errors, "field", lambda: signal_field(**fd))

    p0 = _collect(errors, "p0", lambda: as_vec3(doc.get("p0")))
    r0_doc = doc.get("R0", np.eye(3).tolist())
    R0 = _collect(errors, "R0", lambda: as_mat3(r0_doc))
    if R0 is not None and so3_defect(R0) > 0.5:
        errors.append("R0: not within projection tolerance of a rotation matrix")
    elif R0 is not None and np.linalg.det(R0) < 0.0:
        errors.append(f"R0: determinant {np.linalg.det(R0):.3g}, a reflection, not a rotation")

    z0 = doc.get("z0", "slow-manifold")
    if z0 != "slow-manifold":
        z0 = _collect(errors, "z0", lambda: _finite(z0))

    t_final = _collect(errors, "t_final", lambda: _finite(doc.get("t_final")))
    if t_final is not None and t_final <= 0:
        errors.append("t_final: must be positive")

    idoc = doc.get("integrator", {})
    integrator = None
    if not isinstance(idoc, dict):
        errors.append("integrator: must be an object")
    else:
        spp = _collect(
            errors, "integrator.steps_per_period", lambda: int(idoc.get("steps_per_period", 64))
        )
        stride = _collect(
            errors, "integrator.sample_stride", lambda: int(idoc.get("sample_stride", 1))
        )
        if None not in (spp, stride):
            integrator = _collect(
                errors,
                "integrator",
                lambda: IntegratorSettings(
                    steps_per_period=spp,
                    projection=bool(idoc.get("projection", True)),
                    sample_stride=stride,
                ),
            )

    reps = doc.get("representations", list(REPRESENTATIONS))
    if (
        not isinstance(reps, (list, tuple))
        or not reps
        or any(r not in REPRESENTATIONS for r in reps)
    ):
        errors.append(
            f"representations: must be a non-empty subset of {list(REPRESENTATIONS)}"
        )
        reps = REPRESENTATIONS

    if params is not None and integrator is not None:
        interval = _collect(errors, "integrator", lambda: _sample_interval(params, integrator))
        if interval is not None and not 0.0 < interval < math.inf:
            errors.append(f"integrator: the sample interval {interval!r} is not finite and > 0")
        elif interval is not None and t_final is not None and t_final > 0:
            # the step plans of run_scenario, refused before it writes anything
            seek_dt = _seek_dt(params, integrator)
            for rep in reps:
                dt = 1.0 / integrator.steps_per_period if rep == "rora" else seek_dt
                where = f"{rep} at dt = {dt:.3g} to t_final = {t_final:g}"
                _collect(
                    errors,
                    f"integrator.steps_per_period ({where})",
                    lambda: _plan_steps(0.0, t_final, dt, interval, integrator.sample_stride),
                )

    unknown = set(doc) - {
        "schema_version", "name", "params", "field", "p0", "R0", "z0",
        "t_final", "integrator", "representations",
    }
    if unknown:
        errors.append(f"unknown keys: {sorted(unknown)}")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return Scenario(
        name=name,
        params=params,
        field=fld,
        field_spec=spec,
        p0=p0,
        R0=R0,
        z0=z0,
        t_final=t_final,
        integrator=integrator,
        representations=tuple(reps),
    )


def load_config(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return scenario_from_dict(doc)
