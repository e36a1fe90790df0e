"""Import hygiene: an unused-import scan over the package and the test
suite, what importing the package pulls in, and the names the benchmark
under perfbench/ calls.

A name bound by an import must be read somewhere in the same module, or be
listed in its __all__. Imports under `if TYPE_CHECKING:` or in `try:`
fallbacks are not used in this code base, so no exemption is made for them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    list((ROOT / "src" / "recavg").rglob("*.py")) + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == [(1, "math")]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def run_python(code: str) -> str:
    """Standard output of code run in a fresh interpreter on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_leaves_thread_pool_unloaded():
    # concurrent.futures costs ~0.5 MiB of RSS, and nothing in recavg uses it
    code = "import sys, recavg.runner.cli; print('concurrent.futures' in sys.modules)"
    assert run_python(code) == "False"


def test_sweep_leaves_numpy_random_and_thread_pool_unloaded():
    # the constructor checks draw from the stdlib random, not numpy.random
    # (~6 MiB of RSS), and a sweep asked for two workers starts no pool
    code = "\n".join([
        "import math, sys",
        "from recavg import seek3d",
        "from recavg.runner import built_in, run_sweep",
        "scenario = built_in('ex1')",
        "seek3d.embedded_system(scenario.params, scenario.field)",
        "omegas = [4 * math.pi, 16 * math.pi, 64 * math.pi, 256 * math.pi]",
        "run_sweep(scenario, omegas, None, t_final=0.05, workers=2)",
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])",
    ])
    assert run_python(code) == "[]"


# the local names perfbench binds to recavg's layers, and the module of each
LAYERS = {
    "geom3": "recavg.geom3",
    "odeint": "recavg.odeint",
    "avgcore": "recavg.avgcore",
    "seek3d": "recavg.seek3d",
    "runner": "recavg.runner",
    "artifacts": "recavg.runner.artifacts",
    "verify": "recavg.runner.verify",
}


def _layer_of(node):
    """The layer of a lib.<layer> or <x>.lib.<layer> expression, else None."""
    if isinstance(node, ast.Attribute) and node.attr in LAYERS:
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == "lib") or (
            isinstance(owner, ast.Attribute) and owner.attr == "lib"
        ):
            return node.attr
    return None


def layer_names(source: str):
    """(layer, name) of every lib.<layer>.<name> chain, and of every
    <local>.<name> where the file binds <local> = lib.<layer> (also by tuple
    assignment). A local that shares a layer's name but holds something
    else is not a layer."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    if isinstance(name, ast.Name) and _layer_of(value):
                        bound[name.id] = _layer_of(value)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if _layer_of(owner):
                found.add((_layer_of(owner), node.attr))
            elif isinstance(owner, ast.Name) and owner.id in bound:
                found.add((bound[owner.id], node.attr))
    return found


def test_scan_finds_layer_names():
    source = "\n".join([
        "lib.seek3d.embed_columns(p)",
        "ctx.lib.runner.run_sweep()",
        "odeint, n = lib.odeint, 3",
        "odeint.integrate()",
        "verify = workloads['verify-gain']",
        "verify.check()",
        "x.seek3d.y",
    ])
    assert layer_names(source) == {
        ("seek3d", "embed_columns"), ("runner", "run_sweep"), ("odeint", "integrate"),
    }


def test_names_the_benchmark_calls_exist():
    # the traced benchmark is the only caller of some of these names, and no
    # other test runs it: a rename would break it unseen
    found = set().union(*(layer_names(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")))
    names = {name for _, name in found}
    for name in ("embed_columns", "integrate_projected", "RigidState", "full_rhs",
                 "transformed_rhs", "rora_rhs", "rot_exp"):
        assert name in names
    missing = sorted(
        f"{LAYERS[layer]}.{name}" for layer, name in found
        if not hasattr(importlib.import_module(LAYERS[layer]), name)
    )
    assert missing == []
