"""scipy is imported by the three functions that call it, never at import time.

Each case runs in a fresh interpreter, since this process has long since
loaded scipy through other tests.  Four tests check the sources: the
functions that import scipy are exactly the first-user cases, only
koopman._artifacts writes files, only koopman.cli reads one (the
config), and koopman.__all__ is the list of the names the package imports.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import koopman

SRC = str(Path(koopman.__file__).resolve().parents[1])
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

REPORT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def scipy_modules_after(code: str) -> list:
    """Names of the scipy modules loaded by `code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT_SCIPY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy():
    assert scipy_modules_after("import koopman.cli\nimport koopman\n") == []


def test_partition_run_on_a_regular_grid_loads_no_scipy(tmp_path):
    code = f"""
    from koopman import cli
    code = cli.main([
        "run", {str(CONFIG_DIR / "standard_map_partition_integrable.json")!r},
        "--set", "sampling.n=20", "--set", "sampling.grid.n=8",
        "--out", {str(tmp_path / "out")!r},
    ])
    assert code == 0, code
    """
    assert scipy_modules_after(code) == []
    assert (tmp_path / "out" / "labeling.csv").is_file()


# each deferred call site, run first in its process, and a scipy module it loads
FIRST_CALLS = {
    "spectral_triple": (
        """
        import numpy as np
        from koopman.dmd import spectral_triple
        from koopman.embedding import SnapshotPair
        pair = SnapshotPair(np.array([[1.0, 2.0]]), np.array([[0.5, 1.0]]))
        assert np.allclose(spectral_triple(np.array([[0.5]]), pair).eigenvalues, [0.5])
        """,
        "scipy.linalg",
    ),
    "gla_eigenfunction": (
        """
        import numpy as np
        from koopman.partitions import gla_eigenfunction
        states = np.arange(8.0)[:, None]
        avg = gla_eigenfunction(states, 1.0, lambda s: np.ones(s.shape[0]), window=4)
        assert np.allclose(avg.samples, 1.0)
        """,
        "scipy.fft",
    ),
    "faithfulness_estimate": (
        """
        import numpy as np
        from koopman.representation_eval import faithfulness_estimate
        states = np.array([[0.0], [1.0], [3.0]])
        assert faithfulness_estimate(2.0 * states, states)["score"] == 2.0
        """,
        "scipy.spatial.distance",
    ),
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_deferred_scipy_call_works_as_first_user(name):
    code, module = FIRST_CALLS[name]
    loaded = scipy_modules_after(code)
    assert module in loaded
    # scipy.signal loads some 340 modules more than the rest together
    assert not [m for m in loaded if m.startswith("scipy.signal")]


def _scipy_importers(tree) -> set:
    """Names of the functions whose own body imports scipy or a scipy module
    (None for an import at module level)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.add(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_every_deferred_scipy_import_has_a_first_user_case():
    sources = sorted(Path(SRC, "koopman").glob("*.py"))
    importers = set().union(*(_scipy_importers(ast.parse(p.read_text())) for p in sources))
    assert importers == set(FIRST_CALLS)


# the small configs a config sweep replays
SWEEP_CONFIGS = (
    "torus_companion_dmd", "torus_pinv_dmd", "torus_repr_check", "circle_gla",
    "circle_mz_closure", "lorenz_mz_memory", "linear_static",
)


def test_small_config_runs_load_no_scipy_signal(tmp_path):
    runs = [(str(CONFIG_DIR / f"{name}.json"), str(tmp_path / name)) for name in SWEEP_CONFIGS]
    code = f"""
    from koopman import cli
    for path, out in {runs!r}:
        assert cli.main(["run", path, "--out", out]) == 0, path
    """
    loaded = scipy_modules_after(code)
    assert "scipy.fft" in loaded
    assert not [m for m in loaded if m.startswith("scipy.signal")]


def _file_writes(tree) -> list:
    """(line, call) of each call in tree that writes a file: open with a mode
    that writes, appends or creates (or one not given as a literal),
    json.dump and json.dumps, and a path's write_text or write_bytes."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(func, "value", None)  # json in json.dumps; None for a bare name
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+")):
                found.append((node.lineno, "open"))
        elif name in ("dump", "dumps") and getattr(owner, "id", "json") == "json":
            found.append((node.lineno, f"json.{name}"))
        elif name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
    return found


def test_only_the_artifacts_module_writes_files():
    sources = sorted(Path(SRC, "koopman").glob("*.py"))
    writes = {path.name: _file_writes(ast.parse(path.read_text())) for path in sources}
    assert writes.pop("_artifacts.py")  # the owner does write
    assert {name: found for name, found in writes.items() if found} == {}


def _file_reads(tree) -> list:
    """(line, call) of each call in tree that reads a file: open with a mode
    that reads (or none, or one not given as a literal), json.load,
    np.load, loadtxt and genfromtxt, and a path's read_text or read_bytes."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)  # np in np.load
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("r+")):
                found.append((node.lineno, "open"))
        elif name == "load" and owner in ("json", "np", "numpy"):
            found.append((node.lineno, f"{owner}.load"))
        elif name in ("loadtxt", "genfromtxt", "read_text", "read_bytes"):
            found.append((node.lineno, name))
    return found


def test_only_the_cli_reads_files():
    sources = sorted(Path(SRC, "koopman").glob("*.py"))
    reads = {path.name: _file_reads(ast.parse(path.read_text())) for path in sources}
    assert reads.pop("cli.py")  # the config is the one file the package reads
    assert {name: found for name, found in reads.items() if found} == {}


def test_all_lists_each_name_the_package_imports_once():
    # a name deleted from a module but left in __all__ would fail here too,
    # since its import line goes with it
    tree = ast.parse(Path(koopman.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert len(koopman.__all__) == len(set(koopman.__all__))
    assert set(koopman.__all__) == {name for name in imported if not name.startswith("_")}
