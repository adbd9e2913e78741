"""scipy is imported by the four functions that call it, never at import time.

Each case runs in a fresh interpreter, since this process has long since
loaded scipy through other tests.
"""

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
        "scipy.signal",
    ),
    "partition_invariance_score": (
        """
        import numpy as np
        from koopman.partitions import PartitionLabeling, RegularGrid, partition_invariance_score
        from koopman.systems import SystemSpec
        lab = PartitionLabeling(
            cell_id=np.zeros(16, dtype=int), bin_edges=(np.array([]),),
            channel_names=("c",), channel_values=np.zeros((16, 1)),
            grid=RegularGrid.unit_square(4).points,
        )
        spec = SystemSpec("standard_map", {"eps": 0.0})
        assert partition_invariance_score(lab, spec, n_test=1) == 1.0
        """,
        "scipy.spatial",
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
    assert module in scipy_modules_after(code)
