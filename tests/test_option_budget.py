"""The number of settable keyword values in recavg's public API stays in budget.

A settable value is a parameter with a default of a public function or class
defined in one of recavg's modules, each field of a config dataclass
included. Every such value doubles the configurations that tests and
benchmarks must cover. The source lines of the package are held to a
ratchet as well.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import recavg

# ROADMAP item 4 caps the count at 50; 43 is the count the code has
# reached, so a new option has to replace an old one or be argued for there
MAX_SETTABLE = 43
# the lines of src/recavg/**/*.py, counted as ROADMAP tracks them; the code
# has reached this count, so new code has to pay for itself with deletions
MAX_SRC_LINES = 2699


def settable_values():
    """Sorted (module, name, parameter) of every parameter with a default."""
    modules = ["recavg"] + [m.name for m in pkgutil.walk_packages(recavg.__path__, "recavg.")]
    found = set()
    for modname in modules:
        for name, obj in vars(importlib.import_module(modname)).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:  # exception classes built on ValueError or RuntimeError
                continue
            found.update((modname, name, p.name) for p in params if p.default is not p.empty)
    return sorted(found)


def test_settable_keyword_values_within_budget():
    found = settable_values()
    # the counter sees dataclass fields and keyword-only options alike
    assert ("recavg.odeint", "IntegratorSettings", "steps_per_period") in found
    assert ("recavg.seek3d", "compute_A_numeric", "n_probes") in found
    listing = "\n  ".join(".".join(v) for v in found)
    assert len(found) <= MAX_SETTABLE, (
        f"{len(found)} settable keyword values, over the budget of {MAX_SETTABLE} "
        f"(ROADMAP item 4: delete what nothing needs):\n  {listing}"
    )


def test_source_lines_within_ratchet():
    src = Path(recavg.__file__).resolve().parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    assert lines <= MAX_SRC_LINES, (
        f"src/recavg has {lines} lines, over the ratchet of {MAX_SRC_LINES} "
        "(ROADMAP: a change that deletes code while the oracles hold counts as progress)"
    )
