import ast
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopman import cli
from koopman.cli import CONFIG_SCHEMA, SUMMARY_SCHEMA, emit_lattice
from koopman.errors import KoopmanWarning, UsageError
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


def test_only_main_turns_a_failure_into_an_exit_code_and_a_stderr_line():
    # the commands return nothing and raise; main alone writes to stderr,
    # returns an integer and holds the codes 2 and 3
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def sites(root):
        stderr = [n for n in ast.walk(root) if isinstance(n, ast.Attribute) and n.attr == "stderr"]
        returns = sorted(n.value.value for n in ast.walk(root) if isinstance(n, ast.Return)
                         and isinstance(n.value, ast.Constant) and type(n.value.value) is int)
        return len(stderr), returns

    assert sites(tree) == sites(functions["main"]) == (1, [0])
    handled = {n.value for handler in ast.walk(functions["main"])
               if isinstance(handler, ast.ExceptHandler)
               for n in ast.walk(handler) if isinstance(n, ast.Constant)}
    assert {2, 3} <= handled
    assert {command.__name__ for command in cli._COMMANDS.values()} == {
        "_run_config", "_list_systems", "_lattice"}
    for command in cli._COMMANDS.values():
        assert all(n.value is None for n in ast.walk(functions[command.__name__])
                   if isinstance(n, ast.Return))


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


# method -> the method_params keys its runner reads, and a valid value of each key
READ_PARAMS = {
    "companion_dmd": (),
    "pinv_dmd": (),
    "edmd": (),
    "gla": ("lambda_target", "observable", "window"),
    "partition": ("bins", "n_test", "sample_limit"),
    "static": ("box",),
    "mz": ("k_max", "closure"),
    "sindy": ("threshold",),
    "repr_check": ("coefficients",),
}
PARAM_VALUES = {
    "lambda_target": 1.0,
    "observable": {"name": "one", "type": "constant"},
    "window": 10,
    "bins": 3,
    "n_test": 1,
    "sample_limit": 10,
    "box": [-1.0, 1.0],
    "k_max": 5,
    "closure": {"coefficients": [1.0], "omega": 1.0},
    "threshold": 0.1,
    "coefficients": [[1.0]],
}
CONFIG_OF_METHOD = {
    json.loads((CONFIG_DIR / name).read_text())["method"]: name for name in REQUIRED_PATHS
}


def test_read_params_cover_every_method_and_key():
    assert set(READ_PARAMS) == set(cli.METHODS)
    read = {key for keys in READ_PARAMS.values() for key in keys}
    schema = CONFIG_SCHEMA["properties"]["method_params"]["properties"]
    assert read == set(PARAM_VALUES) == set(schema)


@pytest.mark.parametrize("method", sorted(READ_PARAMS))
def test_method_refuses_a_param_only_another_method_reads(tmp_path, capsys, method):
    # a key another method reads used to be accepted and ignored, e.g. mz
    # ran with threshold and an inverted box set
    base = json.loads((CONFIG_DIR / CONFIG_OF_METHOD[method]).read_text())
    foreign = sorted(set(PARAM_VALUES) - set(READ_PARAMS[method]))
    for key in foreign:
        cfg = copy.deepcopy(base)
        cfg.setdefault("method_params", {})[key] = PARAM_VALUES[key]
        out = tmp_path / key
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2, key
        err = capsys.readouterr().err
        assert f"config invalid at method_params: '{key}' is not one of" in err
        assert not out.exists()
    for key in READ_PARAMS[method]:  # its own keys pass validation
        cfg = copy.deepcopy(base)
        cfg.setdefault("method_params", {})[key] = PARAM_VALUES[key]
        cli._validate_config(cfg)


_NON_FINITE_OVERRIDES = (
    ("standard_map_partition_integrable.json", "system.params.eps=NaN"),
    ("circle_gla.json", "method_params.lambda_target=NaN"),
    ("circle_gla.json", 'method_params.lambda_target={"re": 1.0, "im": -Infinity}'),
    ("circle_mz_closure.json", "method_params.closure.coefficients=[1e400, 1.0]"),
)


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
        ("lorenz_mz_memory.json", "method_params.k_mx=5"),
        ("standard_map_partition_integrable.json", "method_params.bins_per_obs=5"),
        ("circle_mz_closure.json", "method_params.closure.m_sample=64"),
        *_NON_FINITE_OVERRIDES,
    ],
)
def test_mistyped_value_exits_2_without_traceback(tmp_path, capsys, name, override):
    path = str(CONFIG_DIR / name)
    assert cli.main(["run", path, "--set", override, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    # a non-finite number is refused while the JSON is read, before validation
    unusable = (name, override) in _NON_FINITE_OVERRIDES
    assert ("config unusable" if unusable else "config invalid") in err
    assert "Traceback" not in err


def test_non_finite_number_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "standard_map_partition_integrable.json").read_text())
    cfg["system"]["params"]["eps"] = float("inf")  # json.dumps writes Infinity
    cfg["output"] = {"dir": str(tmp_path / "o")}
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config unusable" in err and "Infinity" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_number_beyond_the_float_range_in_a_config_file_exits_2(tmp_path, capsys):
    # 1e400 reads as inf; before it was refused, the same literal in a
    # --set value (see _NON_FINITE_OVERRIDES) wrote NaN into summary.json
    cfg = json.loads((CONFIG_DIR / "circle_mz_closure.json").read_text())
    cfg["method_params"]["closure"]["coefficients"] = [0.125, 1.0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace("0.125", "1e400"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config unusable" in err and "1e400" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_BEYOND = 10**400  # beyond the float range as a float, and a 401-digit literal
_BEYOND_MESSAGE = "config unusable: integer of 401 digits is beyond the float range\n"


@pytest.mark.parametrize("name, overrides, message", [
    # each used to reach numpy as a Python int and exit 1 with a traceback
    ("torus_pinv_dmd", [f'dictionary=[{{"name": "z", "type": "phase", "k": [{_BEYOND}, 0]}}]'],
     _BEYOND_MESSAGE),
    ("limit_cycle_edmd", [
        f'dictionary=[{{"name": "m", "type": "monomial", "powers": [{_BEYOND}, 0]}}]'],
     _BEYOND_MESSAGE),
    ("circle_mz_closure", [f"method_params.closure.coefficients=[0, {_BEYOND}]"],
     _BEYOND_MESSAGE),
    ("circle_gla", [f"method_params.lambda_target={_BEYOND}"], _BEYOND_MESSAGE),
    ("circle_gla", [f'method_params.lambda_target={{"re": {_BEYOND}}}'], _BEYOND_MESSAGE),
    ("torus_repr_check", [f"method_params.coefficients=[[{_BEYOND}, 0], [0, 1]]"],
     _BEYOND_MESSAGE),
    ("standard_map_partition", [
        f'sampling.grid.axes=[{{"lo": 0, "hi": {_BEYOND}, "n": 3}}, {{"lo": 0, "hi": 1, "n": 3}}]'],
     _BEYOND_MESSAGE),
    # a count of 2**64 or more reads as a float, which is no integer: it
    # used to start a loop that ran past 60 s
    ("torus_pinv_dmd", ["sampling.n=99999999999999999999"],
     "config invalid at sampling/n: 1e+20 is not of type 'integer'\n"),
    ("torus_pinv_dmd", ["sampling.n=18446744073709551616"],
     "config invalid at sampling/n: 1.8446744073709552e+19 is not of type 'integer'\n"),
    # a seed of 2**64 is refused, where it used to be folded to 0
    ("torus_pinv_dmd", ["sampling.seed=18446744073709551616"],
     "config invalid at sampling/seed: 1.8446744073709552e+19 is not of type 'integer'\n"),
], ids=["phase-k", "monomial-powers", "closure-coefficient", "lambda-target",
        "lambda-target-re", "repr-coefficient", "grid-hi", "count-1e20", "count-2**64",
        "seed-2**64"])
def test_integer_literal_of_64_bits_or_more_exits_2_with_one_line(tmp_path, capsys, name,
                                                                 overrides, message):
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "o")]
    for item in ["sampling.n=50", *overrides]:  # a short orbit, should a run start
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_integer_literal_of_5000_digits_in_a_config_file_exits_2_with_one_line(tmp_path,
                                                                               capsys):
    # int() of more than 4300 digits raised ValueError, with a traceback
    cfg = json.loads((CONFIG_DIR / "torus_pinv_dmd.json").read_text())
    cfg["sampling"]["n"] = 123456789
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace("123456789", "9" * 5000))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config unusable: integer of 5000 digits is beyond the float range\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("literal, message", [
    ("NaN", "non-finite number NaN is not allowed in a config"),
    ("1e400", "number 1e400 is beyond the float range"),
    ("9" * 5000, "integer of 5000 digits is beyond the float range"),
], ids=["nan", "1e400", "5000-digits"])
def test_a_config_file_and_a_set_value_refuse_a_literal_alike(tmp_path, capsys, literal,
                                                              message):
    # both texts go through the one reader
    cfg = json.loads((CONFIG_DIR / "circle_gla.json").read_text())
    cfg["sampling"]["n"] = 123456789
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg).replace("123456789", literal))
    out = str(tmp_path / "o")
    assert cli.main(["run", str(path), "--out", out]) == 2
    from_file = capsys.readouterr().err
    argv = ["run", str(CONFIG_DIR / "circle_gla.json"), "--set", f"sampling.n={literal}"]
    assert cli.main([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == from_file == f"config unusable: {message}\n"
    assert not (tmp_path / "o").exists()


# each used to reach numpy as a size it refuses, and exit 1 with a traceback
# (array is too big, OverflowError, Maximum allowed size exceeded), or to start
# a loop that would not end; each is now refused before any loop starts
_PAST_MAXIMUM = [
    ("linear_static", ["sampling.n=4611686018427387904"], "sampling/n", 10**7),
    ("lorenz_sindy", ["dictionary.degree=18446744073709551615"], "dictionary/degree", 16),
    ("torus_companion_dmd", ["dictionary.dim=18446744073709551615"], "dictionary/dim", 5),
    ("circle_mz_closure", ["method_params.closure.m_samples=18446744073709551615"],
     "method_params/closure/m_samples", 10**7),
    *((name, ["method_params.bins=18446744073709551615", "sampling.n=4"],
       "method_params/bins", 2**8)
      for name in ("standard_map_partition", "standard_map_partition_integrable")),
    *((name, ["sampling.n=4611686018427387904"], "sampling/n", 10**7)
      for name in ("circle_gla", "limit_cycle_edmd", "lorenz_mz_memory", "lorenz_sindy")),
]


@pytest.mark.parametrize("name, overrides, where, most", _PAST_MAXIMUM,
                         ids=[f"{name}-{where}" for name, _, where, _ in _PAST_MAXIMUM])
def test_a_count_past_its_maximum_exits_2_with_one_line(tmp_path, capsys, name, overrides,
                                                        where, most):
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    value = overrides[0].split("=")[1]
    assert capsys.readouterr().err == (
        f"config invalid at {where}: {value} is greater than the maximum of {most}\n")
    assert not (tmp_path / "o").exists()


def _many_coords():
    cfg = json.loads((CONFIG_DIR / "lorenz_sindy.json").read_text())
    cfg["dictionary"].update(coords=["x", "y", "z"] * 13 + ["x"], degree=1)
    cfg["sampling"]["n"] = 400
    return cfg, ("dictionary", "coords")


def _many_axes():
    cfg = json.loads((CONFIG_DIR / "standard_map_partition.json").read_text())
    cfg["system"] = {"kind": "linear_map", "params": {"B": np.eye(64).tolist()}}
    cfg["dictionary"] = [{"name": "x0", "type": "coordinate", "index": 0}]
    cfg["sampling"]["grid"]["axes"] = [{"lo": 0.0, "hi": 1.0, "n": 2}] * 64
    return cfg, ("sampling", "grid", "axes")


@pytest.mark.parametrize("make", [_many_coords, _many_axes], ids=["coords-40", "axes-64"])
def test_a_list_past_its_max_items_exits_2_with_one_line(tmp_path, capsys, make):
    # 40 monomial coords made the library walk 2**40 power tuples, past a 10 s
    # timeout, and 64 axes of 2 points made numpy refuse the grid's 2**64
    # points with a traceback; both are now refused before any loop starts
    cfg, path = make()
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    items = cfg
    for key in path:
        items = items[key]
    assert capsys.readouterr().err == (
        f"config invalid at {'/'.join(path)}: {items!r} is too long\n")
    assert not (tmp_path / "o").exists()


def test_k_max_past_the_orbit_exits_2_naming_the_orbit_length(tmp_path, capsys):
    argv = ["run", str(CONFIG_DIR / "lorenz_mz_memory.json"), "--out", str(tmp_path / "o"),
            "--set", "method_params.k_max=10000000"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config invalid: trajectory too short: an orbit of 2001 samples with k_max 10000000 "
        "leaves 0 samples for a dictionary of size 1\n")
    assert not (tmp_path / "o").exists()


def test_the_largest_64_bit_seed_still_runs_as_an_integer(tmp_path):
    argv = ["run", str(CONFIG_DIR / "linear_static.json"), "--out", str(tmp_path / "o"),
            "--set", "sampling.seed=18446744073709551615"]
    assert cli.main(argv) == 0
    assert load_summary(tmp_path / "o")["seed"] == 2**64 - 1


@pytest.mark.parametrize("literal, value", [
    ("18446744073709551615", 2**64 - 1),  # the largest seed the schema accepts
    ("-9223372036854775808", -(2**63)),  # the least int64
    ("-9223372036854775809", -float(2**63)),
    ("-18446744073709551615", -float(2**64 - 1)),  # numpy holds it in neither type
    ("9999999999999999999", 9999999999999999999),
    ("18446744073709551616", float(2**64)),
    ("-18446744073709551616", -float(2**64)),
    ("99999999999999999999", 1e20),
    ("1" + "0" * 308, 1e308),
])
def test_integer_literals_in_the_int64_or_uint64_range_stay_integers(literal, value):
    read = json.loads(literal, parse_int=cli._json_int)
    assert read == value and type(read) is type(value)


_BELOW_INT64 = "-18446744073709551615"  # -(2**64 - 1)


@pytest.mark.parametrize("name, site, overrides", [
    ("torus_repr_check", ("method_params", "coefficients", 0, 0), []),
    ("standard_map_partition", ("sampling", "grid", "axes", 0, "lo"), ["sampling.n=4"]),
    ("linear_static", ("system", "params", "B", 0, 1), []),
], ids=["repr-coefficient", "grid-lo", "linear-map-B"])
def test_an_integer_below_the_int64_range_runs_as_its_float(tmp_path, capsys, name, site,
                                                           overrides):
    # each used to reach numpy as a Python int, which numpy keeps in an object
    # array: exit 1 with a traceback (a repr coefficient, a grid's lo), or exit 2
    # naming a false reason (a B entry); each now runs, with the artifacts of
    # the float literal -1.8446744073709552e19
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    _mutate(cfg, site, 123456789)

    def run(literal):
        path = tmp_path / f"{literal}.json"
        path.write_text(json.dumps(cfg).replace("123456789", literal))
        out = tmp_path / f"{literal}-out"
        argv = ["run", str(path), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        code = cli.main(argv)
        files = {p.name: p.read_bytes() for p in out.glob("*") if p.name != "summary.json"}
        return code, capsys.readouterr().err, files

    as_int = run(_BELOW_INT64)
    assert as_int[:2] == (0, "") and as_int[2]
    assert as_int == run(repr(float(_BELOW_INT64)))


def test_non_finite_artifact_value_exits_3_and_writes_no_file(tmp_path, capsys, monkeypatch):
    def nan_result(config, spec, seed):
        return {"files": {"bad.json": {"value": float("nan")}}, "eigenvalues": [],
                "residuals": {}}

    monkeypatch.setitem(cli._RUNNERS, "mz", (nan_result, cli._RUNNERS["mz"][1]))
    path = str(CONFIG_DIR / "circle_mz_closure.json")
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "bad.json" in err and "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "bad.json").exists()


# a dictionary whose values overflow to inf on the orbit, for each method
# that fits on them: the SVD of such data gives NaN singular values
OVERFLOWING_FITS = {
    "companion_dmd": ("torus_companion_dmd", [
        'dictionary=[{"name":"m","type":"monomial","powers":[400,0]}]',
    ]),
    "pinv_dmd": ("torus_pinv_dmd", [
        'dictionary=[{"name":"m","type":"monomial","powers":[400,0]},'
        '{"name":"z","type":"phase","k":[1,0]}]',
    ]),
    "static": ("linear_static", [
        "method_params.box=[-2,2]",
        'dictionary=[{"name":"m","type":"monomial","powers":[4000,0,0,0]},'
        '{"name":"x","type":"coordinate","index":0}]',
    ]),
    "edmd": ("limit_cycle_edmd", [
        'dictionary=[{"name":"m","type":"monomial","powers":[4000,0]}]', "sampling.n=500",
    ]),
    "mz": ("lorenz_mz_memory", [
        'dictionary=[{"name":"m","type":"monomial","powers":[400,0,0]}]',
    ]),
    # LAPACK used to print an illegal-value line on stdout and lstsq to fail
    "sindy": ("lorenz_sindy", [
        'dictionary=[{"name":"m","type":"monomial","powers":[400,0,0]}]', "sampling.n=2000",
    ]),
    # used to print a table of nan before refusing summary.json
    "repr_check": ("torus_repr_check", [
        'dictionary=[{"name":"m","type":"monomial","powers":[400,0]},'
        '{"name":"z","type":"phase","k":[0,1]}]',
    ]),
    # finite observable values that overflow in the model's update: used to
    # print numpy's warnings and a table of nan before refusing summary.json
    "repr_check_update": ("torus_repr_check", [
        "method_params.coefficients=[[1e308,1e308],[0,1]]",
    ]),
}


@pytest.mark.parametrize("method", sorted(OVERFLOWING_FITS))
def test_overflowing_fit_data_exits_3_without_traceback(tmp_path, capfd, method):
    name, overrides = OVERFLOWING_FITS[method]
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 3  # with no warning: the suite turns warnings into errors
    out, err = capfd.readouterr()  # capfd: LAPACK writes to the stdout descriptor itself
    assert out == ""
    assert err.startswith("PreconditionError: non-finite") and err.count("\n") == 1
    assert "Traceback" not in err and "condition number" not in err
    assert not (tmp_path / "o").exists()


# finite fit data whose largest singular value overflows; each run used to
# fit zero (companion, static) or blame a dependence (edmd, through the
# dual_basis that mz also calls)
_ONE_COORDINATE_AT_1E308 = [
    'system={"kind": "linear_map", "params": {"B": [[1.0]]}}',
    "sampling.initial_state=[1e308]",
    "sampling.n=10",
]
OVERFLOWING_SINGULAR_VALUES = {
    "companion_dmd": ("torus_companion_dmd", [
        *_ONE_COORDINATE_AT_1E308,
        'dictionary=[{"name": "x", "type": "coordinate", "index": 0}]',
    ]),
    "edmd": ("limit_cycle_edmd", [
        *_ONE_COORDINATE_AT_1E308,
        'dictionary=[{"name": "1", "type": "constant"},'
        '{"name": "x", "type": "coordinate", "index": 0}]',
    ]),
    "static": ("linear_static", ["method_params.box=[1.4e308, 1.5e308]"]),
}


@pytest.mark.parametrize("method", sorted(OVERFLOWING_SINGULAR_VALUES))
def test_overflowing_largest_singular_value_exits_3_and_creates_nothing(
    tmp_path, capsys, method
):
    name, overrides = OVERFLOWING_SINGULAR_VALUES[method]
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 3  # with no warning: the suite turns warnings into errors
    err = capsys.readouterr().err
    assert err.startswith("PreconditionError: ") and "largest singular value overflows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, override, code, message",
    [
        # the method fails: nothing to write
        ("circle_gla", 'method_params.lambda_target={"re": 0.5, "im": 0}', 3, "DivergenceError"),
        # the fit succeeds on finite data, but its residual's norm overflows
        ("linear_static", "method_params.box=[-1e300, 1e300]", 3, "fit residual exceeds"),
        ("torus_companion_dmd", 'dictionary=[{"name":"m","type":"monomial","powers":[170,0]},'
         '{"name":"z","type":"phase","k":[1,0]}]', 3, "fit residual exceeds"),
        # fewer samples than dictionary entries: one error, no warning before it
        ("limit_cycle_edmd", "sampling.n=1", 3,
         "DegenerateDictionaryError: dictionary nearly dependent on the data: "
         "Gram condition number inf (1 sample for 4 entries)"),
        # refused by a bound the schema does not state
        ("standard_map_partition", "system.params.eps=-1", 2, "standard_map requires eps >= 0"),
        ("linear_static", "method_params.box=[1.0, -1.0]", 2, "low <= high"),
        ("linear_static", 'system={"kind": "lorenz"}', 2,
         "config invalid: static regression needs a discrete map system"),
        # the grid's span overflows: axis values that are not finite
        ("standard_map_partition", 'sampling.grid.axes=[{"lo": -1.7e308, "hi": 1.7e308, "n": 3,'
         '"period": 1.0}, {"lo": 0.0, "hi": 1.0, "n": 4}]', 2, "grid axis values must be finite"),
        # the static draw's span beyond the float range, and an integer bound
        # beyond it, which is refused as the config is read
        ("linear_static", "method_params.box=[-1.7e308, 1.7e308]", 2,
         "config invalid: method_params.box needs a span high - low within the float range"),
        ("linear_static", f"method_params.box=[0, {10 ** 400}]", 2,
         "config unusable: integer of 401 digits is beyond the float range"),
        # 7 PiB of closure samples, which used to exit 3 with a MemoryError,
        # are refused by the field's maximum
        ("circle_mz_closure", "method_params.closure.m_samples=1000000000000000", 2,
         "config invalid at method_params/closure/m_samples: 1000000000000000 is greater "
         "than the maximum of 10000000"),
    ],
    ids=["gla-off-circle", "static-residual", "companion-residual", "one-sample",
         "negative-eps", "reversed-box", "static-on-a-flow", "non-finite-axis",
         "box-span-overflow", "box-bound-beyond-float", "closure-samples-past-maximum"],
)
def test_failed_run_reports_once_and_creates_nothing(tmp_path, capsys, name, override, code,
                                                     message):
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--set", override, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
    # the error alone: no warning precedes it, the program's own or numpy's
    assert caught == []
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()


# finite data whose evaluation overflows later: each run used to print
# numpy's warnings first, and the edmd one exited 0 with route_disagreement=1
_GROWING_LINEAR_MAP = ['system={"kind": "linear_map", "params": {"B": [[1.5]]}}',
                       "sampling.n=1000"]
_PLANE = ('[{"name": "x0", "type": "coordinate", "index": 0},'
          ' {"name": "x1", "type": "coordinate", "index": 1}]')
# finite states 1e-130, 1e-30, 1e70, 1e170 whose u^2 overflows at the last
# sample only, which enters only Xp or F_next: the fits used to meet it
# there (a scipy traceback, numpy warnings, or a message naming no sample)
_LAST_SAMPLE = ['system={"kind": "linear_map", "params": {"B": [[1e100]]}}',
                "sampling.initial_state=[1e-130]", "sampling.n=3",
                'dictionary=[{"name": "u2", "type": "monomial", "powers": [2.0]}]']
OVERFLOWING_RUNS = {
    "pinv-last-sample": ("torus_pinv_dmd", _LAST_SAMPLE,
                         "PreconditionError: non-finite value (inf+0j) in entry 0 at sample 3;"),
    "companion-last-sample": ("torus_companion_dmd", _LAST_SAMPLE,
                              "PreconditionError: non-finite value (inf+0j) in entry 0 at sample 3;"),
    "edmd-last-sample": ("limit_cycle_edmd", [*_LAST_SAMPLE, "sampling.dt=0"],
                         "PreconditionError: non-finite dictionary value (inf+0j) in entry 0 "
                         "at sample 3;"),
    # the targets reach 1e170, so their norm overflows; the ratio used to read 0
    "sindy-target-norm": ("lorenz_sindy", [*_LAST_SAMPLE, "method_params.threshold=0"],
                          "PreconditionError: fit residual exceeds the float range"),
    "edmd-gram": ("limit_cycle_edmd", [
        *_GROWING_LINEAR_MAP, "sampling.initial_state=[1.0]", "sampling.dt=0",
        'dictionary=[{"name": "x", "type": "coordinate", "index": 0}]',
    ], "PreconditionError: the Gram matrix F* F overflows: largest singular value 1.1e+176"),
    "mz-gram": ("lorenz_mz_memory", [*_GROWING_LINEAR_MAP, "sampling.initial_state=[1.0]"],
                "PreconditionError: the Gram matrix F* F overflows: largest singular value"),
    # the base window passes, the windows 9 and more shifts on do not
    "mz-window-norms": ("lorenz_mz_memory", [
        *_GROWING_LINEAR_MAP, "sampling.initial_state=[1e-20]",
    ], "PreconditionError: the window norms at k = 9 overflow; rescale the dictionary"),
    # used to warn about a rational angle before failing
    "closure-phase": ("circle_mz_closure", ["method_params.closure.omega=1e308"],
                      "PreconditionError: the mode phase 2 * omega is not finite for "
                      "omega = 1e+308"),
    # a map step that overflows: the scalar orbit loop, then the batch step of
    # a static run (whose output values the fit refuses)
    "linear-map-orbit": ("lorenz_mz_memory", [
        _GROWING_LINEAR_MAP[0], "sampling.initial_state=[1.0]", "sampling.n=2000",
    ], "DivergenceError: trajectory diverged at step 1751"),
    "map-batch-add": ("linear_static", [
        'system={"kind": "torus_rotation", "params": {"omega1": 1.7e308}}',
        "method_params.box=[1e308, 1.7e308]", f"dictionary={_PLANE}", f"dictionary_out={_PLANE}",
    ], "PreconditionError: the largest singular value overflows"),
    "static-output-values": ("linear_static", [
        'system={"kind": "linear_map", "params": {"B": [[1e308, 1e308], [1e308, 1e308]]}}',
        f"dictionary={_PLANE}", f"dictionary_out={_PLANE}",
    ], "PreconditionError: non-finite output value"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_RUNS))
def test_overflow_exits_3_with_one_line_and_creates_nothing(tmp_path, capsys, case):
    name, overrides, message = OVERFLOWING_RUNS[case]
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


# each used to warn and then fail: a warning now comes only with a result
@pytest.mark.parametrize("name, overrides, message", [
    ("circle_gla", ["method_params.lambda_target=1e308"],
     "DivergenceError: harmonic residual is not finite from index 0 for |mu|=1e+308, "
     "window 2000\n"),
    ("lorenz_sindy", ["sampling.dt=5e-324", "sampling.n=400"],
     "DegenerateFitError: thresholding removed every library term; lower the threshold\n"),
], ids=["gla-residual", "sindy-rank-deficient"])
def test_no_warning_precedes_a_failed_run(tmp_path, capsys, name, overrides, message):
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, override, message", [
    ("torus_pinv_dmd", 'dictionary=[{"name": "z", "type": "phase", "k": [1, 0], "index": 1}]',
     "at dictionary/0: Additional properties are not allowed ('index' was unexpected)"),
    ("linear_static", 'dictionary_out=[{"name": "c", "type": "constant", "powers": [1]}]',
     "at dictionary_out/0: Additional properties are not allowed ('powers' was unexpected)"),
    ("circle_gla", 'method_params.observable={"name": "x", "type": "coordinate", "index": 0, '
                   '"k": [1]}',
     "at method_params/observable: Additional properties are not allowed ('k' was unexpected)"),
])
def test_observable_entry_refuses_a_field_its_kind_does_not_take(tmp_path, capsys, name,
                                                                 override, message):
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--set", override, "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config invalid {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command, extra", [("run", ["--set", "a=1"])])
def test_non_object_config_exits_2(tmp_path, capsys, command, extra):
    assert cli.main([command, write_config(tmp_path, [1, 2]), *extra]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and "Traceback" not in err


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = str(CONFIG_DIR / "circle_mz_closure.json")
    assert cli.main(["run", path, "--out", str(taken)]) == 2
    assert "output unusable" in capsys.readouterr().err


def test_unwritable_lattice_file_exits_2(tmp_path, capsys):
    out_file = tmp_path / "missing_dir" / "lattice.csv"
    argv = ["lattice", "--c", str(SQRT7), "--omega", "1.0", "--N", "1", "--M", "1"]
    assert cli.main(argv + ["--out", str(out_file)]) == 2
    assert "output unusable" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "target, step", [('{"re": 0.5, "im": 0}', 1024), ('{"re": 0, "im": 0}', 1)]
)
def test_gla_overflowing_weights_exit_3(tmp_path, capsys, target, step):
    # mu^-k leaves the float range inside the shipped 2000-sample window; the
    # run used to write all-NaN rows and report harmonic_residual=0
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "circle_gla.json"), "--out", str(out),
            "--set", f"method_params.lambda_target={target}"]
    assert cli.main(argv) == 3  # with no warning: the suite turns warnings into errors
    err = capsys.readouterr().err
    assert f"DivergenceError: harmonic weight mu^-k is not finite from index {step}" in err
    assert "window 2000" in err
    assert "Traceback" not in err
    assert not (out / "harmonic.csv").exists()


@pytest.mark.parametrize(
    "name, override",
    [
        # fewer samples than dictionary entries: no dual basis exists
        ("limit_cycle_edmd.json", "sampling.n=1"),
        # phases of order 1e308: the observable evaluates to NaN without a
        # warning, and the fit refuses the non-finite values
        ("torus_pinv_dmd.json", 'dictionary=[{"name": "z", "type": "phase", "k": [1e308, 1]}]'),
    ],
)
def test_numerical_breakdown_exits_3(tmp_path, capsys, name, override):
    path = str(CONFIG_DIR / name)
    assert cli.main(["run", path, "--set", override, "--out", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_set_value_that_is_not_json_is_taken_as_a_string(tmp_path, capsys):
    target = tmp_path / "set dir"  # not a JSON literal
    path = str(CONFIG_DIR / "circle_mz_closure.json")
    assert cli.main(["run", path, "--set", f"output.dir={target}"]) == 0
    assert (target / "summary.json").exists()


def test_set_path_crossing_a_non_object_field_exits_2(tmp_path, capsys):
    path = str(CONFIG_DIR / "circle_mz_closure.json")
    assert cli.main(["run", path, "--set", "method.name=x", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "crosses a non-object field" in err and "Traceback" not in err


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
    runtimes = summary["runtimes"]
    assert 0 < runtimes["write_s"] <= runtimes["method_s"]
    labeling = json.loads((out / "labeling.json").read_text())
    assert labeling["invariance_score"] >= 0.99


def test_partition_channel_whose_range_passes_the_float_range_runs_without_warning(tmp_path):
    # x**3 on this axis spans -1.76e308..1.76e308: the channel's range is
    # inf, which is not flat, and numpy used to warn "overflow encountered in
    # subtract" while finding that out (an error under the suite's filter)
    cfg = {
        "method": "partition",
        "system": {"kind": "linear_map", "params": {"B": [[1.0]]}},
        "dictionary": [{"name": "cube", "type": "monomial", "powers": [3]}],
        "sampling": {"n": 1, "grid": {"axes": [{"lo": -5.6e102, "hi": 5.6e102, "n": 3}]}},
    }
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert load_summary(out)["residuals"]["n_cells"] == 3


def test_only_a_partition_run_trims_the_heap(tmp_path, monkeypatch):
    assert cli._malloc_trim()(0) in (0, 1)  # glibc's, or the no-op elsewhere
    with mock.patch("ctypes.CDLL", side_effect=OSError):
        assert cli._malloc_trim.__wrapped__()(0) == 0
    pads = []
    monkeypatch.setattr(cli, "_malloc_trim", lambda: pads.append)
    assert cli.main(["run", write_config(tmp_path, torus_pinv_config(tmp_path / "dmd"))]) == 0
    assert pads == []
    cfg = {
        "method": "partition",
        "system": {"kind": "standard_map", "params": {"eps": 0.0}},
        "dictionary": [{"name": "siny", "type": "sin", "k": [0.0, 1.0]}],
        "sampling": {"n": 20, "grid": {"kind": "unit_square", "n": 8}},
    }
    out = tmp_path / "partition"
    assert cli.main(["run", write_config(tmp_path, cfg, "p.json"), "--out", str(out)]) == 0
    assert pads == [0] and (out / "field.csv").is_file()


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


def test_repr_check_run_prints_residual_table(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = json.loads((CONFIG_DIR / "torus_repr_check.json").read_text())
    cfg["output"]["dir"] = str(out)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == 0
    stdout = capsys.readouterr().out
    assert "residual" in stdout and "faithfulness" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["residual"] <= 1e-10
    # `run` prints the table; there is no `repr` subcommand beside it
    with pytest.raises(SystemExit) as exc:
        cli.main(["repr", path])
    assert exc.value.code == 2
    assert "invalid choice: 'repr'" in capsys.readouterr().err


def test_repr_check_prints_no_table_when_its_output_is_unusable(tmp_path, capsys):
    taken = tmp_path / "file"
    taken.write_text("")
    assert cli.main(["run", str(CONFIG_DIR / "torus_repr_check.json"), "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # the table is printed only once the run has succeeded
    assert err.startswith("output unusable: ") and err.count("\n") == 1


def _run_with_closed_stdout(*args):
    """Run the console entry point in a child whose stdout pipe has no reader."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    read, write = os.pipe()
    os.close(read)  # closed before the child writes anything
    try:
        return subprocess.run(
            [sys.executable, "-c", "import sys; from koopman import cli; sys.exit(cli.main())",
             *args],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("args", [
    ["list-systems"],
    ["lattice", "--c", "3", "--omega", "1", "--N", "2", "--M", "1"],
])
def test_closed_stdout_exits_2_with_one_line(args):
    done = _run_with_closed_stdout(*args)
    # no traceback, and no `Exception ignored ... BrokenPipeError` at exit
    assert (done.returncode, done.stderr) == (2, "output unusable: [Errno 32] Broken pipe\n")


def test_run_whose_stdout_closed_exits_0_with_its_artifacts(tmp_path):
    out = tmp_path / "o"
    done = _run_with_closed_stdout("run", str(CONFIG_DIR / "torus_repr_check.json"),
                                   "--out", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    assert load_summary(out)["artifacts"] == sorted(p.name for p in out.iterdir())


# -------------------------------------------------------- reproducibility


# SHA-256 of field.csv and labeling.csv at the benchmark's small sizes,
# recorded with numpy's savetxt before the blocked writer replaced it.
def test_partition_summary_reports_convergence_gaps_of_finite_rows(tmp_path):
    cfg = {
        "method": "partition",
        "system": {"kind": "linear_map", "params": {"B": [[1e80, 0.0], [0.0, 0.5]]}},
        "dictionary": [{"name": "y", "type": "coordinate", "index": 1}],
        "sampling": {"n": 40, "grid": {"axes": [
            {"lo": 0.0, "hi": 1.0, "n": 3}, {"lo": -1.0, "hi": 1.0, "n": 5}]}},
    }
    grid = cli._build_grid(cfg["sampling"]["grid"])
    spec = SystemSpec(**cfg["system"])
    field = cli.time_average(cli._build_dictionary(cfg["dictionary"]), spec, grid, n=40)
    finite = field.cesaro[~field.diverged]
    assert field.diverged.any() and finite.size  # x > 0 overflows, x = 0 stays
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    residuals = load_summary(out)["residuals"]
    assert residuals["cesaro_max"] == float(finite.max())
    assert residuals["cesaro_median"] == float(np.median(finite))
    # every row diverges: no gap to report, and JSON has no NaN
    cfg["sampling"]["grid"]["axes"][0] = {"lo": 0.5, "hi": 1.0, "n": 3}
    out_all = tmp_path / "all"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out_all)]) == 0
    residuals = load_summary(out_all)["residuals"]
    assert residuals["diverged_fraction"] == 1.0
    assert "cesaro_max" not in residuals and "cesaro_median" not in residuals


PARTITION_DIGESTS = {
    "standard_map_partition": (
        [
            "sampling.n=30",
            'sampling.grid.axes=[{"lo": 0.00625, "hi": 0.99375, "n": 80, "period": 1.0},'
            ' {"lo": 0.004, "hi": 0.996, "n": 125, "period": 1.0}]',
        ],
        "43ec0c0f7eb0ad628355019d5d90502c6f000a29d3f9280350920fab890bdaa7",
        "96dd975100c5200185a8e003806564a7dcab61b92969fb604055bcf224b40266",
    ),
    "standard_map_partition_integrable": (
        ["sampling.n=30", "sampling.grid.n=50"],
        "a1f4ed10ac5d4ffc67dbca4f2f853dc34fee5ce1f5bbcb3480754d6fa3c304d0",
        "9763b7513ea3d14e23d46cf0760b48cee820ee00b79e319acd29c22bf1a044ae",
    ),
}


@pytest.mark.parametrize("name", sorted(PARTITION_DIGESTS))
def test_partition_artifacts_keep_their_bytes(tmp_path, name):
    overrides, field_sha, labeling_sha = PARTITION_DIGESTS[name]
    argv = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    for artifact, sha in (("field.csv", field_sha), ("labeling.csv", labeling_sha)):
        assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == sha
    summary = load_summary(tmp_path)
    assert summary["artifacts"] == [
        "field.csv", "labeling.csv", "labeling.json", "summary.json"
    ]


# the shipped Mori-Zwanzig runs; perfbench/digests.json holds the same digests
MZ_DIGESTS = {
    "lorenz_mz_memory": (
        "mz.csv", "603f0d7f1897f0c0fb0f26c8001f25b8e9523492ae79fda16772d15d84cefc26"
    ),
    "circle_mz_closure": (
        "closure.json", "68a52111131628051bbe6999dfc0dd138d5fcb569a36f2a2f1c649b725eac246"
    ),
}


@pytest.mark.parametrize("name", sorted(MZ_DIGESTS))
def test_mz_artifacts_keep_their_bytes(tmp_path, name):
    artifact, sha = MZ_DIGESTS[name]
    assert cli.main(["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == sha
    assert load_summary(tmp_path)["artifacts"] == [artifact, "summary.json"]


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


def test_lattice_stdout_is_its_out_file(tmp_path, capsys):
    argv = ["lattice", "--c", "2.6457513", "--omega", "1.0", "--N", "4", "--M", "4"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(tmp_path / "lattice.csv")]) == 0
    assert printed.encode() == (tmp_path / "lattice.csv").read_bytes()
    assert printed.count("\n") == 26


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


@pytest.mark.parametrize(
    "flags",
    [
        {"--c": "nan"},
        {"--c": "inf"},
        {"--omega": "nan"},
        {"--omega": "-inf"},
        {"--N": "-1"},
        {"--c": "1e155"},  # c*c overflows, and 0 * inf gave nan rows
        {"--omega": "1e308", "--N": "2"},  # 2 * omega overflows, which gave an inf row
    ],
    ids=lambda flags: "-".join(f"{k}-{v}" for k, v in flags.items()),
)
def test_lattice_refuses_unusable_input_with_exit_2(tmp_path, capsys, flags):
    args = {"--c": str(SQRT7), "--omega": "1.0", "--N": "1", "--M": "1", **flags}
    out_file = tmp_path / "lattice.csv"
    argv = ["lattice", *(f"{k}={v}" for k, v in args.items()), "--out", str(out_file)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("lattice: ") and "Traceback" not in captured.err
    assert captured.out == "" and not out_file.exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 12.0 GiB"), "MemoryError: Unable to allocate 12.0 GiB\n"),
    (MemoryError(), "MemoryError: out of memory\n"),  # Python's own has no message
], ids=["numpy", "python"])
def test_lattice_that_cannot_be_allocated_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                                  error, line):
    # a lattice of 4e8 rows under a 1.5 GB address-space limit used to print a traceback
    def allocate(*args):
        raise error

    monkeypatch.setattr(cli, "emit_lattice", allocate)
    out_file = tmp_path / "lattice.csv"
    argv = ["lattice", "--c", "3", "--omega", "1", "--N", "400000000", "--M", "1"]
    assert cli.main([*argv, "--out", str(out_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == "" and not out_file.exists()


def test_run_that_cannot_be_allocated_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def allocate(config, spec, seed):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setitem(cli._RUNNERS, "mz", (allocate, *cli._RUNNERS["mz"][1:]))
    argv = ["run", str(CONFIG_DIR / "circle_mz_closure.json"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "MemoryError: Unable to allocate 7.11 PiB\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c, omega", [(np.nan, 1.0), (SQRT7, np.inf)])
def test_emit_lattice_rejects_non_finite_input(c, omega):
    with pytest.raises(UsageError, match="finite"):
        emit_lattice(c, omega, 1, 1)


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


def test_shipped_configs_are_the_benchmark_copies():
    # the benchmark runs its own frozen copies of the configs: a shipped
    # config that drifts from them is no longer the one measured
    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert files(CONFIG_DIR) == files(CONFIG_DIR.parent / "perfbench" / "configs")


@pytest.mark.filterwarnings("ignore:companion fit ill-posed:RuntimeWarning")
@pytest.mark.parametrize(
    "config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
)
def test_shipped_config_json_artifacts_have_the_json_dumps_layout(tmp_path, capsys, config_path):
    argv = ["run", str(config_path), "--out", str(tmp_path)]
    if "partition" in config_path.name:
        argv += ["--set", "sampling.n=30"]
    assert cli.main(argv) == 0
    documents = sorted(tmp_path.glob("*.json"))
    assert "summary.json" in [path.name for path in documents]
    for path in documents:
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text, path.name


def test_a_real_spectrum_stays_complex_objects_in_the_summary(tmp_path):
    cfg = {
        "method": "edmd",
        "system": {"kind": "linear_map", "params": {"B": [[0.5, 0.0], [0.0, 0.2]]}},
        "dictionary": [
            {"name": "x0", "type": "coordinate", "index": 0},
            {"name": "x1", "type": "coordinate", "index": 1},
        ],
        "sampling": {"n": 20, "initial_state": [1.0, 1.0]},
    }
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    eigenvalues = load_summary(tmp_path / "o")["eigenvalues"]
    assert [set(z) for z in eigenvalues] == [{"re", "im"}] * 2
    assert [z["im"] for z in eigenvalues] == [0.0, 0.0]
    np.testing.assert_allclose(sorted(z["re"] for z in eigenvalues), [0.2, 0.5], atol=1e-12)


# ------------------------------------------------------------------ fuzz

# 2**62 and 2**63 - 1 pass every count's type and the number fields, 2**64 and
# -(2**64 - 1) read as floats, and 10**400 is refused as it is read
FUZZ_VALUES = (None, -1, 0, 1, 1.5, "x", [], {}, [1], [[1]], True, 1e308, -1e308, 2**62,
               2**63 - 1, 2**64, -(2**64 - 1), 10**400)
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


# numpy's warnings stay errors: only the package's own caveats may pass
@pytest.mark.filterwarnings("ignore::koopman.errors.KoopmanWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(site=st.sampled_from(FUZZ_SITES), value=st.sampled_from((DELETE, *FUZZ_VALUES)))
def test_fuzzed_config_exits_0_2_or_3(tmp_path_factory, site, value):
    name, path = site
    cfg = copy.deepcopy(FUZZ_CONFIGS[name])
    _mutate(cfg, path, value)
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    out = work / "o"
    shutil.rmtree(out, ignore_errors=True)  # only this example's artifacts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KoopmanWarning)
        code = cli.main(["run", write_config(work, cfg), "--out", str(out)])
    assert code in (0, 2, 3)
    if code != 0:  # a failed run creates nothing, and no warning precedes its error
        assert not out.exists()
        assert [str(w.message) for w in caught] == []
    if code == 0:  # every JSON artifact is strict JSON: no NaN, no +-Infinity
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"non-finite {name} in a JSON artifact")


# ------------------------------------------------- per-method validators


def _validation_message(cfg):
    """The message `_validate_config` refuses `cfg` with, or None."""
    try:
        cli._validate_config(cfg)
    except UsageError as exc:
        return str(exc)
    return None


# jsonschema's Draft 7 validator, with an integer a JSON integer as in the
# package (Draft 7 counts 3.0 as one)
_JsonschemaValidator = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)


def _jsonschema_message(cfg):
    """The same message from jsonschema over the whole CONFIG_SCHEMA: its
    first error after a stable sort by path."""
    errors = sorted(_JsonschemaValidator(CONFIG_SCHEMA).iter_errors(cfg),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"at {where}: {errors[0].message}"


_METHOD_SITE = ("torus_pinv_dmd.json", ("method",))
# a site of each integer field, and the field's maximum
_AT_MAXIMUM = {
    ("linear_static.json", ("dictionary", 0, "index")): 2**63 - 1,
    ("torus_companion_dmd.json", ("dictionary", "dim")): 5,
    ("torus_companion_dmd.json", ("dictionary", "kmax")): 2**8,
    ("lorenz_sindy.json", ("dictionary", "degree")): 16,
    ("torus_pinv_dmd.json", ("sampling", "n")): 10**7,
    ("torus_pinv_dmd.json", ("sampling", "seed")): 2**64 - 1,
    ("standard_map_partition_integrable.json", ("sampling", "grid", "n")): 2**11,
    ("standard_map_partition.json", ("sampling", "grid", "axes", 0, "n")): 2**11,
    ("circle_gla.json", ("method_params", "window")): 10**7,
    ("standard_map_partition.json", ("method_params", "bins")): 2**8,
    ("standard_map_partition.json", ("method_params", "n_test")): 10**7,
    ("standard_map_partition_integrable.json", ("method_params", "sample_limit")): 2**55,
    ("lorenz_mz_memory.json", ("method_params", "k_max")): 10**7,
    ("circle_mz_closure.json", ("method_params", "closure", "m_samples")): 10**7,
}
# a site of each list the schema bounds in length, and an item of it
_LONG_LISTS = {
    ("lorenz_sindy.json", ("dictionary", "coords")): "x",
    ("standard_map_partition.json", ("sampling", "grid", "axes")): {"lo": 0.0, "hi": 1.0, "n": 2},
}
# a deleted, unknown or non-string method, one missing required path per
# config, each integer field at its maximum and one past it, and each bounded
# list at its maxItems and one past it
_PINNED = [
    (_METHOD_SITE, DELETE),
    (_METHOD_SITE, "x"),
    (_METHOD_SITE, []),
    (_METHOD_SITE, True),
    *(((name, tuple(paths[0].split("."))), DELETE) for name, paths in REQUIRED_PATHS.items()),
    *((site, most + past) for site, most in _AT_MAXIMUM.items() for past in (0, 1)),
    *((site, [item] * count) for site, item in _LONG_LISTS.items() for count in (5, 6)),
]


def _pinned(test):
    for site, value in _PINNED:
        test = example(site=site, value=value)(test)
    return test


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(site=st.sampled_from(FUZZ_SITES), value=st.sampled_from((DELETE, *FUZZ_VALUES)))
@_pinned
def test_method_validator_gives_the_full_schema_verdict(site, value):
    # two routes: the package's walker over the schema cut to the config's
    # method, and jsonschema over the whole schema
    name, path = site
    cfg = copy.deepcopy(FUZZ_CONFIGS[name])
    _mutate(cfg, path, value)
    assert _validation_message(cfg) == _jsonschema_message(cfg)


# single-field mutations mostly fail at one path; these fail at two, or
# twice at one, where the first by path wins and, of two at one path, the
# one jsonschema meets first
_MULTI_FAULT = {
    "two-paths": ("torus_pinv_dmd.json", {("sampling", "n"): 0, ("system", "kind"): "x"}),
    "deep-before-shallow": ("limit_cycle_edmd.json",
                            {("dictionary", 1, "name"): "", ("sampling", "zz"): 1}),
    "root-twice": ("torus_pinv_dmd.json", {("system",): DELETE, ("zz",): 1}),
    "one-name-twice": ("circle_gla.json",
                       {("method_params", "bins"): 3, ("method_params", "threshold"): 1}),
}


@pytest.mark.parametrize("case", sorted(_MULTI_FAULT))
def test_validator_reports_the_error_jsonschema_sorts_first(case):
    name, faults = _MULTI_FAULT[case]
    cfg = copy.deepcopy(FUZZ_CONFIGS[name])
    for path, value in faults.items():
        _mutate(cfg, path, value)
    assert len(list(_JsonschemaValidator(CONFIG_SCHEMA).iter_errors(cfg))) >= 2
    assert _validation_message(cfg) == _jsonschema_message(cfg)


def _schema_keywords(schema):
    """(keyword, value) of `schema` and of every schema inside it."""
    assert schema is True or isinstance(schema, dict), schema  # the walker's two forms
    if schema is True:
        return
    for keyword, value in schema.items():
        yield keyword, value
        if keyword == "properties":
            inner = list(value.values())
        elif keyword in ("allOf", "anyOf"):
            inner = value
        elif keyword == "additionalProperties":  # False or True: no schema, read as a flag
            inner = [value] if isinstance(value, dict) else []
        elif keyword in ("items", "propertyNames", "if", "then", "else"):
            inner = [value]
        else:
            inner = []
        for sub in inner:
            yield from _schema_keywords(sub)


def test_validator_knows_every_keyword_the_config_schema_uses():
    # a keyword the walker does not interpret raises only where a config
    # reaches it, so every branch is walked here: each method's rules and
    # each observable kind's fields
    used = [pair for schema in (CONFIG_SCHEMA, *cli._METHOD_RULES.values())
            for pair in _schema_keywords(schema)]
    assert {keyword for keyword, _ in used} <= set(cli._KEYWORDS)
    assert {t for keyword, types in used if keyword == "type"
            for t in ([types] if isinstance(types, str) else types)} <= set(cli._TYPES)
    # the walker tests an enum with `in`, which is jsonschema's equality for strings
    assert all(isinstance(v, str) for keyword, values in used if keyword == "enum"
               for v in values)
    kinds = {kind for keyword, cond in _schema_keywords(cli._OBSERVABLE) if keyword == "if"
             for kind in cond["properties"]["type"]["enum"]}
    assert kinds == set(JSON_KINDS)
    with pytest.raises(KeyError, match="not"):
        list(cli._schema_errors({}, {"not": {}}))


def test_every_integer_field_has_a_maximum_and_a_pinned_site():
    fields = {}  # field name -> its integer schemas
    for keyword, value in _schema_keywords(CONFIG_SCHEMA):
        if keyword == "properties":
            for name, sub in value.items():
                if isinstance(sub, dict) and "integer" in sub.get("type", ()):
                    fields.setdefault(name, []).append(sub)
    assert all("maximum" in sub for subs in fields.values() for sub in subs)
    assert set(fields) == {path[-1] for _, path in _AT_MAXIMUM}
    for (name, path), most in _AT_MAXIMUM.items():  # each site is one of the field's
        assert path in [p for n, p in FUZZ_SITES if n == name]
        assert most in [sub["maximum"] for sub in fields[path[-1]]]


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    config = str(CONFIG_DIR / "torus_repr_check.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    fresh = tmp_path / "fresh"
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from koopman import cli; sys.exit(cli.main())",
         "run", config, "--out", str(fresh)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr

    def artifacts(out):
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"}
        summary = load_summary(out)
        summary.pop("runtimes")
        return files, summary

    expected = artifacts(fresh)
    overrides = ["--set", "sampling.n=50", "--set", "sampling.seed=7"]
    assert cli.main(["run", config, *overrides, "--out", str(tmp_path / "set")]) == 0
    assert load_summary(tmp_path / "set")["seed"] == 7
    assert artifacts(tmp_path / "set") != expected
    # the overrides of the call before are gone
    assert cli.main(["run", config, "--out", str(tmp_path / "run")]) == 0
    assert artifacts(tmp_path / "run") == expected
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", config, "--no-such-option"])
    assert exc.value.code == 2
    assert "usage: koopman" in capsys.readouterr().err
    assert cli.main(["run", config, "--out", str(tmp_path / "after")]) == 0
    assert artifacts(tmp_path / "after") == expected
