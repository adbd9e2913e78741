import copy
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman import cli
from koopman.cli import CONFIG_SCHEMA, SUMMARY_SCHEMA, emit_lattice
from koopman.errors import UsageError
from koopman.observables import JSON_KINDS, KINDS
from koopman.systems import SystemSpec, known_spectrum

CONFIG_DIR = Path(__file__).parents[1] / "configs"
SQRT7 = np.sqrt(7.0)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def load_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as fh:
        summary = json.load(fh)
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    return summary


def torus_pinv_config(out_dir):
    return {
        "method": "pinv_dmd",
        "system": {"kind": "torus_rotation"},
        "dictionary": [
            {"name": "z1", "type": "phase", "k": [1.0, 0.0]},
            {"name": "z2", "type": "phase", "k": [0.0, 1.0]},
        ],
        "sampling": {"n": 200, "initial_state": [0.3, 0.7], "seed": 0},
        "output": {"dir": str(out_dir)},
    }


# ------------------------------------------------------------ exit codes


def test_missing_config_file_exits_2(capsys):
    assert cli.main(["run", "/no/such/config.json"]) == 2
    assert "config unusable" in capsys.readouterr().err


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert cli.main(["run", str(path)]) == 2
    assert "config unusable" in capsys.readouterr().err


def test_unknown_method_exits_2_and_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"method": "warp", "system": {"kind": "lorenz"}})
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "method" in err


def test_missing_required_dictionary_exits_2(tmp_path, capsys):
    cfg = {
        "method": "edmd",
        "system": {"kind": "lorenz"},
        "sampling": {"dt": 0.01, "n": 10, "initial_state": [1, 1, 1]},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "dictionary" in capsys.readouterr().err


def test_missing_initial_state_exits_2(tmp_path, capsys):
    cfg = {
        "method": "pinv_dmd",
        "system": {"kind": "torus_rotation"},
        "sampling": {"n": 100},
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "initial_state" in capsys.readouterr().err


# shipped example -> the config paths its method requires; mz is met by
# either an orbit with a dictionary or a closure, so each mz example
# lists the paths of the alternative it uses
REQUIRED_PATHS = {
    "torus_companion_dmd.json": ("sampling.initial_state", "sampling.n"),
    "torus_pinv_dmd.json": ("sampling.initial_state", "sampling.n"),
    "limit_cycle_edmd.json": ("dictionary", "sampling.initial_state", "sampling.n"),
    "circle_gla.json": (
        "sampling.initial_state",
        "sampling.n",
        "method_params.lambda_target",
        "method_params.observable",
    ),
    "standard_map_partition.json": ("dictionary", "sampling.grid"),
    "linear_static.json": ("dictionary", "dictionary_out"),
    "lorenz_mz_memory.json": ("dictionary", "sampling.initial_state", "sampling.n"),
    "circle_mz_closure.json": (
        "method_params.closure",
        "method_params.closure.coefficients",
        "method_params.closure.omega",
    ),
    "lorenz_sindy.json": ("dictionary", "sampling.initial_state", "sampling.n"),
    "torus_repr_check.json": (
        "dictionary",
        "sampling.initial_state",
        "sampling.n",
        "method_params.coefficients",
    ),
}


def test_required_paths_cover_every_method():
    methods = {
        json.loads((CONFIG_DIR / name).read_text())["method"] for name in REQUIRED_PATHS
    }
    assert methods == set(cli.METHODS)


@pytest.mark.parametrize(
    "name, path",
    [(name, path) for name, paths in REQUIRED_PATHS.items() for path in paths],
)
def test_deleting_a_required_path_exits_2(tmp_path, capsys, name, path):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    del node[leaf]
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config invalid" in err
    if cfg["method"] != "mz":
        assert f"'{leaf}' is a required property" in err


@pytest.mark.parametrize(
    "name, override",
    [
        ("standard_map_partition_integrable.json", 'system.params={"eps": "abc"}'),
        ("linear_static.json", 'system.params={"B": [[1, "x"], [0, 1]]}'),
        ("standard_map_partition_integrable.json", 'method_params.bins="x"'),
        ("standard_map_partition_integrable.json", "method_params.n_test=1.5"),
        ("standard_map_partition_integrable.json", "method_params.sample_limit=0"),
        ("lorenz_sindy.json", 'method_params.threshold="a"'),
        ("lorenz_mz_memory.json", "method_params.k_max=5.0"),
        ("circle_gla.json", "method_params.window=5.0"),
        ("circle_gla.json", 'method_params.lambda_target="x"'),
        ("circle_gla.json", 'method_params.observable="z"'),
        ("linear_static.json", "method_params.box=[1]"),
        ("torus_repr_check.json", 'method_params.coefficients=[["a"]]'),
        ("circle_mz_closure.json", 'method_params.closure.coefficients=[{"re": "x"}]'),
        ("circle_mz_closure.json", 'method_params.closure.omega="x"'),
        ("circle_mz_closure.json", "method_params.closure.m_samples=2.5"),
        ("torus_pinv_dmd.json", "sampling.n=100.0"),
        ("linear_static.json", 'system.params={"B": [[1, 2], [3]]}'),
        ("torus_repr_check.json", "method_params.coefficients=[[1, 0], [0]]"),
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "phase", "k": ["a"]}]'),
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "phase", "k": 5}]'),
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "phase", "k": "1"}]'),
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "", "type": "phase", "k": [1, 0]}]'),
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "custom"}]'),
        ("linear_static.json", 'dictionary_out=[{"name":"x","type":"coordinate","index":"a"}]'),
        ("linear_static.json", 'dictionary_out=[{"name":"x","type":"coordinate","index":1.5}]'),
        ("linear_static.json", 'dictionary_out=[{"name":"x","type":"coordinate"}]'),
        ("linear_static.json", 'dictionary_out=[{"name":"m","type":"monomial","powers":[null]}]'),
        ("circle_gla.json", 'method_params.observable={"name": "z", "type": "phase"}'),
        ("lorenz_sindy.json", 'dictionary={"builder": "monomials", "degree": 2}'),
        ("torus_companion_dmd.json", 'dictionary={"builder": "fourier_box", "kmax": 1}'),
        ("standard_map_partition_integrable.json", 'sampling.grid={"kind": "unit_square"}'),
        ("standard_map_partition_integrable.json", "sampling.grid={}"),
        ("circle_mz_closure.json", 'method_params.closure={"coefficients": [0, 1]}'),
        ("circle_mz_closure.json", 'method_params.closure={"omega": 1.0}'),
        ("lorenz_mz_memory.json", "method_params.closure={}"),
        ("linear_static.json", "method_params.box=[1.5, 1.0]"),
    ],
)
def test_mistyped_value_exits_2_without_traceback(tmp_path, capsys, name, override):
    path = str(CONFIG_DIR / name)
    assert cli.main(["run", path, "--set", override, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config invalid" in err and "Traceback" not in err


def test_observable_schema_types_every_json_parameter():
    params = {KINDS[kind].param for kind in JSON_KINDS} - {None}
    assert params == set(cli._OBSERVABLE_PARAMS)


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg = torus_pinv_config(tmp_path / "out")
    cfg["plotting"] = {"backend": "agg"}
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "plotting" in capsys.readouterr().err


def test_numerical_failure_exits_3_with_module_text(tmp_path, capsys):
    cfg = {
        "method": "edmd",
        "system": {"kind": "limit_cycle_polar"},
        "dictionary": [{"name": "r^-2", "type": "monomial", "powers": [-2.0, 0.0]}],
        "sampling": {"dt": 0.01, "n": 50, "initial_state": [0.0, 0.0]},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "undefined" in err and "r^-2" in err


@pytest.mark.parametrize("n_grid", [10, 200])  # one row block, several
def test_partition_domain_error_exits_3(tmp_path, capsys, n_grid):
    cfg = {
        "method": "partition",
        "system": {"kind": "standard_map", "params": {"eps": 0.0}},
        "dictionary": [{"name": "1/x", "type": "monomial", "powers": [-1.0, 0.0]}],
        "sampling": {"n": 3, "grid": {"axes": [
            {"lo": 0.0, "hi": 0.5, "n": n_grid, "period": 1.0},
            {"lo": 0.1, "hi": 0.9, "n": n_grid, "period": 1.0},
        ]}},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "'1/x' undefined at sample 0" in err and "Traceback" not in err


@pytest.mark.parametrize("command, extra", [("run", ["--set", "a=1"]), ("repr", [])])
def test_non_object_config_exits_2(tmp_path, capsys, command, extra):
    assert cli.main([command, write_config(tmp_path, [1, 2]), *extra]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and "Traceback" not in err


def test_pendulum_divergence_exits_3(tmp_path, capsys):
    # math.sin(inf) at the first step: a divergence, not a domain crash
    overrides = [
        'system={"kind": "pendulum"}',
        'dictionary.coords=["theta", "omega"]',
        "sampling.initial_state=[1e308, 1e308]",
        "sampling.dt=1e10",
        "sampling.n=10",
    ]
    argv = ["run", str(CONFIG_DIR / "lorenz_sindy.json"), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "DivergenceError: trajectory diverged at step 1" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # underdetermined fit, overflow
@pytest.mark.parametrize(
    "name, override",
    [
        # fewer samples than dictionary entries: no dual basis exists
        ("limit_cycle_edmd.json", "sampling.n=1"),
        # numpy's SVD does not converge on phases of order 1e308
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "phase", "k": [1e308, 1]}]'),
    ],
)
def test_numerical_breakdown_exits_3(tmp_path, capsys, name, override):
    path = str(CONFIG_DIR / name)
    assert cli.main(["run", path, "--set", override, "--out", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_bad_set_override_exits_2(tmp_path, capsys):
    cfg = torus_pinv_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path, "--set", "samplingn100"]) == 2
    assert "path=value" in capsys.readouterr().err


# ----------------------------------------------------------- run methods


def test_torus_pinv_run_recovers_rotation_multipliers(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, torus_pinv_config(out))
    assert cli.main(["run", path]) == 0
    summary = load_summary(out)
    eigs = np.array([complex(e["re"], e["im"]) for e in summary["eigenvalues"]])
    for target in np.exp(1j * np.array([1.0, np.sqrt(2.0)])):
        assert np.min(np.abs(eigs - target)) <= 1e-10
    assert summary["seed"] == 0
    assert set(summary["artifacts"]) == {"eigenvalues.csv", "summary.json", "triple.json"}
    for name in summary["artifacts"]:
        assert (out / name).is_file()


def test_companion_run_eigenvalue_count_tracks_samples(tmp_path):
    # 8 phase observables: n <= 8 snapshot columns keeps the fit well-posed
    cfg = {
        "method": "companion_dmd",
        "system": {"kind": "torus_rotation"},
        "dictionary": {"builder": "fourier_box", "dim": 2, "kmax": 1, "kind": "phase"},
        "sampling": {"n": 8, "initial_state": [0.3, 0.7]},
    }
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", path, "--out", str(out_a)]) == 0
    assert cli.main(["run", path, "--set", "sampling.n=5", "--out", str(out_b)]) == 0
    rows_a = np.loadtxt(out_a / "eigenvalues.csv", delimiter=",", skiprows=1)
    rows_b = np.loadtxt(out_b / "eigenvalues.csv", delimiter=",", skiprows=1)
    assert rows_a.shape[0] == 8 and rows_b.shape[0] == 5


def test_partition_run_writes_field_labels_and_score(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "method": "partition",
        "system": {"kind": "standard_map", "params": {"eps": 0.0}},
        "dictionary": [{"name": "siny", "type": "sin", "k": [0.0, 1.0]}],
        "sampling": {"n": 500, "grid": {"kind": "unit_square", "n": 24}, "seed": 3},
        "method_params": {"bins": 4, "n_test": 1, "sample_limit": 200},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["residuals"]["invariance_score"] >= 0.99
    for name in ("field.csv", "labeling.csv", "labeling.json"):
        assert (out / name).is_file()
    labeling = json.loads((out / "labeling.json").read_text())
    assert labeling["invariance_score"] >= 0.99


def test_mz_closure_run_matches_analytic_compression(tmp_path):
    out = tmp_path / "out"
    omega = 2.0 * np.pi * (np.sqrt(5.0) - 1.0) / 2.0
    cfg = {
        "method": "mz",
        "system": {"kind": "circle_rotation"},
        "method_params": {
            "closure": {
                "coefficients": [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)],
                "omega": omega,
                "m_samples": 4096,
            }
        },
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["residuals"]["lambda_route_gap"] <= 1e-10
    report = json.loads((out / "closure.json").read_text())
    lam = complex(report["lambda"]["re"], report["lambda"]["im"])
    expected = 0.5 * (np.exp(1j * omega) + np.exp(2j * omega))
    assert abs(lam - expected) <= 1e-12
    assert report["residual_markov"] <= 1e-10


def test_mz_trajectory_run_writes_norm_table(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "method": "mz",
        "system": {"kind": "lorenz"},
        "dictionary": [{"name": "x", "type": "coordinate", "index": 0}],
        "sampling": {"dt": 0.01, "n": 400, "initial_state": [1.0, 1.0, 1.0]},
        "method_params": {"k_max": 5},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "mz.csv", delimiter=",", skiprows=1)
    assert rows.shape == (6, 4)
    summary = load_summary(out)
    assert summary["residuals"]["orthogonal_max"] > 0


def test_static_run_recovers_map_matrix(tmp_path):
    out = tmp_path / "out"
    B = [[0.9, -0.2], [0.1, 0.8]]
    coords = [
        {"name": "x0", "type": "coordinate", "index": 0},
        {"name": "x1", "type": "coordinate", "index": 1},
    ]
    cfg = {
        "method": "static",
        "system": {"kind": "linear_map", "params": {"B": B}},
        "dictionary": coords,
        "dictionary_out": coords,
        "sampling": {"n": 40, "seed": 5},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    A = np.loadtxt(out / "A.csv", delimiter=",")
    np.testing.assert_allclose(A, B, atol=1e-10)
    summary = load_summary(out)
    assert summary["residuals"]["rank_deficient"] is False


def test_gla_run_writes_harmonic_series(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "method": "gla",
        "system": {"kind": "circle_rotation", "params": {"omega": 1.0}},
        "sampling": {"n": 1500, "initial_state": [0.2]},
        "method_params": {
            "lambda_target": {"re": np.cos(1.0), "im": np.sin(1.0)},
            "observable": {"name": "z", "type": "phase", "k": [1.0]},
            "window": 1000,
        },
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["residuals"]["harmonic_residual"] <= 1e-10
    rows = np.loadtxt(out / "harmonic.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 3


def test_sindy_run_keeps_seven_lorenz_terms(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "method": "sindy",
        "system": {"kind": "lorenz"},
        "dictionary": {"builder": "monomials", "coords": ["x", "y", "z"], "degree": 2},
        "sampling": {"dt": 0.001, "n": 5000, "initial_state": [1.0, 1.0, 1.0]},
        "method_params": {"threshold": 0.1},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["residuals"]["n_terms"] == 7
    model = json.loads((out / "model.json").read_text())
    assert model["coefficients"]["y"]["x"] == pytest.approx(28.0, rel=1e-2)


def test_repr_subcommand_prints_residual_table(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = json.loads((CONFIG_DIR / "torus_repr_check.json").read_text())
    cfg["output"]["dir"] = str(out)
    path = write_config(tmp_path, cfg)
    assert cli.main(["repr", path]) == 0
    stdout = capsys.readouterr().out
    assert "residual" in stdout and "faithfulness" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["residual"] <= 1e-10


def test_repr_subcommand_rejects_other_methods(tmp_path, capsys):
    path = write_config(tmp_path, torus_pinv_config(tmp_path / "out"))
    assert cli.main(["repr", path]) == 2
    assert "repr_check" in capsys.readouterr().err


# -------------------------------------------------------- reproducibility


def test_rerun_reproduces_artifacts_byte_for_byte(tmp_path):
    path = write_config(tmp_path, torus_pinv_config(tmp_path / "unused"))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", path, "--out", str(out1)]) == 0
    assert cli.main(["run", path, "--out", str(out2)]) == 0
    for name in ("eigenvalues.csv", "triple.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    s1, s2 = load_summary(out1), load_summary(out2)
    s1.pop("runtimes")
    s2.pop("runtimes")
    assert s1 == s2


# ---------------------------------------------------------------- lattice


def test_lattice_zero_truncation_is_single_zero(capsys):
    assert cli.main(["lattice", "--c", str(SQRT7), "--omega", "1.0", "--N", "0", "--M", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 2
    re, im = (float(v) for v in lines[1].split(","))
    assert re == 0.0 and im == 0.0


def test_lattice_five_by_five_closed_and_within_catalogue(tmp_path):
    out_file = tmp_path / "lattice.csv"
    assert cli.main([
        "lattice", "--c", str(SQRT7), "--omega", "1.0",
        "--N", "4", "--M", "4", "--out", str(out_file),
    ]) == 0
    rows = np.loadtxt(out_file, delimiter=",", skiprows=1)
    values = rows[:, 0] + 1j * rows[:, 1]
    assert values.size == 25
    assert np.unique(np.round(values, 9)).size == 25

    # additive closure where the index sums stay inside the truncation
    by_index = values.reshape(5, 5)
    for n1 in range(5):
        for m1 in range(5):
            for n2 in range(5 - n1):
                for m2 in range(5 - m1):
                    total = by_index[n1, m1] + by_index[n2, m2]
                    assert abs(total - by_index[n1 + n2, m1 + m2]) <= 1e-12

    catalogue = known_spectrum(SystemSpec(kind="duffing_cycle"), N=4, M=4)
    for v in values:
        assert np.min(np.abs(catalogue - v)) <= 1e-9


def test_emit_lattice_rejects_negative_truncation():
    with pytest.raises(UsageError):
        emit_lattice(SQRT7, 1.0, -1, 2)


def test_lattice_beta_matches_spiral_exponent():
    values = emit_lattice(SQRT7, 1.0, 0, 1)
    np.testing.assert_allclose(values[1], complex(-SQRT7 / 2, 0.5), atol=1e-12)


# ------------------------------------------------------------- catalogue


def test_list_systems_names_every_kind(capsys):
    assert cli.main(["list-systems"]) == 0
    stdout = capsys.readouterr().out
    for kind in (
        "torus_rotation", "circle_rotation", "standard_map", "linear_map",
        "lorenz", "limit_cycle_polar", "pendulum", "duffing_cycle",
        "coupled_lc_lorenz", "free_particle",
    ):
        assert kind in stdout


# -------------------------------------------------------- shipped configs


@pytest.mark.parametrize(
    "config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_shipped_config_validates(config_path):
    config = json.loads(config_path.read_text())
    jsonschema.validate(config, CONFIG_SCHEMA)


# ------------------------------------------------------------------ fuzz

FUZZ_VALUES = (None, -1, 0, 1, 1.5, "x", [], {}, [1], [[1]], True, 1e308, -1e308)
DELETE = "<delete>"
# sizes every fuzzed config starts from: small partition grids, short orbits
FUZZ_CAPS = {
    "standard_map_partition.json": {
        ("sampling", "n"): 4,
        ("sampling", "grid", "axes", 0, "n"): 6,
        ("sampling", "grid", "axes", 1, "n"): 6,
    },
    "standard_map_partition_integrable.json": {
        ("sampling", "n"): 4,
        ("sampling", "grid", "n"): 6,
    },
    "lorenz_sindy.json": {("sampling", "n"): 400},
    "limit_cycle_edmd.json": {("sampling", "n"): 400},
}


def _mutate(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)


def _capped_config(name):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    for path, value in FUZZ_CAPS.get(name, {}).items():
        _mutate(cfg, path, value)
    return cfg


def _config_paths(node, prefix=()):
    """Every object key and array position in a config, as key tuples."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield (*prefix, key)
        yield from _config_paths(child, (*prefix, key))


FUZZ_CONFIGS = {p.name: _capped_config(p.name) for p in sorted(CONFIG_DIR.glob("*.json"))}
FUZZ_SITES = [(name, path) for name, cfg in FUZZ_CONFIGS.items() for path in _config_paths(cfg)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(site=st.sampled_from(FUZZ_SITES), value=st.sampled_from((DELETE, *FUZZ_VALUES)))
def test_fuzzed_config_exits_0_2_or_3(tmp_path_factory, site, value):
    name, path = site
    cfg = copy.deepcopy(FUZZ_CONFIGS[name])
    _mutate(cfg, path, value)
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    assert cli.main(["run", write_config(work, cfg), "--out", str(work / "o")]) in (0, 2, 3)
