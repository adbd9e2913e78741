"""Tests of the benchmark itself: self-time arithmetic, tracing, checks, smoke runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import koopman.finite_section as fs  # noqa: E402
import koopman.mori_zwanzig as mzmod  # noqa: E402
from koopman import cli  # noqa: E402
from koopman.finite_section import finite_section_matrix  # noqa: E402
from koopman.observables import monomial_library  # noqa: E402
from koopman.systems import SystemSpec, integrate  # noqa: E402


def test_self_time_subtracts_nested_children():
    # finite_section_matrix [0, 10] holds evaluate [1, 3] (which holds one
    # Observable call [1.5, 2.5]) and dual_basis [4, 8]
    spans = [
        ["finite_section.finite_section_matrix", 0.0, 10.0, None, 1],
        ["observables.ObservableDictionary.evaluate", 1.0, 3.0, 0, 1],
        ["observables.Observable", 1.5, 2.5, 1, 1],
        ["finite_section.dual_basis", 4.0, 8.0, 0, 1],
        ["finite_section.dual_basis", 20.0, 21.5, None, 2],
    ]
    self_s = tracing.self_times(spans)
    assert self_s["finite_section.finite_section_matrix"] == pytest.approx(4.0)
    assert self_s["observables.ObservableDictionary.evaluate"] == pytest.approx(1.0)
    assert self_s["observables.Observable"] == pytest.approx(1.0)
    assert self_s["finite_section.dual_basis"] == pytest.approx(5.5)
    total = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    assert sum(self_s.values()) == pytest.approx(total)


def test_tracer_sees_calls_through_imported_names():
    traj = integrate(SystemSpec(kind="lorenz"), (1.0, 1.0, 1.0), dt=0.01, n_steps=300)
    library = monomial_library(("x", "y", "z"), 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        finite_section_matrix(library, traj)  # bound here before install: not wrapped
        fs.finite_section_matrix(library, traj)
        mzmod.mz_decompose(library, traj, k_max=3)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("finite_section.finite_section_matrix") == 1
    fsm = names.index("finite_section.finite_section_matrix")
    children = {span[0] for span in tracer.spans if span[3] == fsm}
    assert "finite_section.dual_basis" in children
    mz = names.index("mori_zwanzig.mz_decompose")
    assert any(span[0] == "finite_section.dual_basis" and span[3] == mz for span in tracer.spans)
    assert tracer.calls()["observables.Observable"] == 3 * len(library)
    assert fs.finite_section_matrix is finite_section_matrix  # restored


def test_default_seed_is_the_base_configs_and_seeds_are_reproducible():
    for workload, names in workloads.WORKLOADS.items():
        cases = workloads.generate(workload, None)
        assert [c.config for c in cases] == [workloads.base_config(n) for n in names]
        first = workloads.generate(workload, 7)
        assert [c.config for c in first] == [c.config for c in workloads.generate(workload, 7)]
        assert [c.config for c in first] != [c.config for c in workloads.generate(workload, 8)]


def test_check_rejects_a_wrong_eigenvalue(tmp_path):
    for case in workloads.generate("config_sweep", 3):
        if case.name == "circle_gla":
            break
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(case.config))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert checks.check(case.name, case.config, out) == []
    summary = json.loads((out / "summary.json").read_text())
    summary["eigenvalues"][0]["im"] *= -1.0
    (out / "summary.json").write_text(json.dumps(summary))
    problems = checks.check(case.name, case.config, out)
    assert problems and "multiplier error" in problems[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    import bench

    assert bench.tail({"a": list(range(1000)), "b": list(range(500))}) == ("p99 of a's 1000 runs", 989)
    # 200 samples: p95 is the highest with ten beyond
    assert bench.tail({"a": list(range(200)), "b": [5000.0]}) == ("median of b's 1 runs", 5000.0)
    assert bench.tail({"a": list(range(200)), "b": [1.0]}) == ("p95 of a's 200 runs", 189)
    assert bench.tail({"a": [3.0, 1.0, 2.0], "b": [0.5]}) == ("median of a's 3 runs", 2.0)
    assert np.isclose(bench.percentile(sorted(range(1, 101)), 50), 50)


def test_speed_factor_windows_borrow_from_neighbouring_passes():
    import bench
    import calibrate

    ref = calibrate.REFERENCE_S
    # long passes have samples enough of their own; short ones pool neighbours
    assert bench.window_factors([[ref] * 20, [ref / 2] * 20], window=15) == [1.0, 2.0]
    assert bench.window_factors([[ref], [ref / 2], [ref / 2]], window=3) == [2.0, 2.0, 2.0]
    assert bench.window_factors([[ref]], window=15) == [1.0]


def run_bench(root, workload, seed, trace, size="tiny"):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seconds", "0.5", "--trace", str(trace), "--size", size]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return proc.stdout, result


def test_a_changed_artifact_digest_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src" / "koopman", tmp_path / "src" / "koopman")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    _, result = run_bench(tmp_path, "config_sweep", None, 1, size="full")
    assert result["correct"] and result["failed"] == 0

    digests_file = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text())
    digests["config_sweep"]["linear_static-0"]["A.csv"] = "0" * 64
    digests_file.write_text(json.dumps(digests))
    stdout, result = run_bench(tmp_path, "config_sweep", None, 1, size="full")
    assert not result["correct"] and result["failed"] >= 1
    assert "  changed linear_static-0/A.csv" in stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    stdout, result = run_bench(ROOT, workload, 1, trace)
    failures = [line.split(":")[0].split()[1] for line in stdout.splitlines()
                if line.startswith("  failed ")]
    # At the tiny size (30 iterations on an 80x125 grid) the mixed-phase map
    # at eps 0.12 misses the invariance_score_min it meets from n = 300 on.
    expected = ["standard_map_partition-0"] if workload == "grid_partition" else []
    assert failures == expected
    assert result["correct"] == (not expected) and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        calls = {n: m["value"] for n, m in result["metrics"].items() if n.endswith(".calls")}
        assert calls["cli.main.calls"] > 0 and calls["observables.Observable.calls"] > 0
