"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands: `run <config.json>` executes one experiment and writes its
artifacts plus a summary.json; `list-systems` prints the system
catalogue; `lattice` emits the eigenvalue lattice of the cycle-with-
spiral-sink flow as CSV; `repr <config.json>` runs a representation
check and prints the residual/faithfulness table.

Exit codes: 0 success, 2 unusable config (schema violation, bad JSON,
missing file; the failing field path is printed), 3 numerical failure
inside a method, numpy's LinAlgError included (the error text is printed).

Each method is declared once, in `_RUNNERS`: its runner and the config
paths it requires, from which the schema's per-method rules are built.
Each dictionary builder is declared once, in `_BUILDERS`, and the schema
of an observable entry is built from `observables.KINDS`.
A runner opens no file: it returns the summary's eigenvalues and
residuals plus `files`, a map from artifact name to either a JSON
payload or a `writer(path)`.  `run` is the only code that writes under
the output directory.

Fixed configs reproduce their artifacts byte for byte: every file name
is static, CSV floats are written by numpy with fixed format, JSON is
dumped with sorted keys, and all sampling randomness comes from the one
recorded 64-bit seed.  The only non-reproducible values are the runtimes
inside summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np

from .dmd import (
    companion_dmd,
    continuous_time_eigenvalues,
    pseudoinverse_dmd,
    spectral_triple,
)
from .embedding import SnapshotPair
from .errors import KoopmanError, UsageError
from .finite_section import finite_section_matrix
from .mori_zwanzig import FourierObservable, circle_rotation_closure, mz_decompose
from .observables import (
    JSON_KINDS,
    KINDS,
    Observable,
    ObservableDictionary,
    fourier_box,
    monomial_library,
)
from .partitions import (
    RegularGrid,
    ergodic_partition_approx,
    gla_eigenfunction,
    partition_invariance_score,
    time_average,
)
from .representation_eval import (
    RepresentationModel,
    faithfulness_estimate,
    representation_residual,
    sindy_fit,
)
from .static_koopman import PairedSamples, fit_static_linear
from .systems import (
    SYSTEM_KINDS,
    SystemSpec,
    duffing_fixed_point_eigenvalues,
    integrate,
    step_map_batch,
)

_MERSENNE_MASK = (1 << 64) - 1


def _complex_json(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _decode_number(v):
    if isinstance(v, dict):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return v


def _decode_matrix(rows, name) -> np.ndarray:
    if len({len(row) for row in rows}) > 1:
        raise UsageError(f"{name} has rows of unequal length")
    return np.array([[_decode_number(v) for v in row] for row in rows])


# dictionary builder -> (build(node), the node fields it requires)
_BUILDERS = {
    "fourier_box": (
        lambda node: fourier_box(node["dim"], node["kmax"], node.get("kind", "fourier")),
        ("dim", "kmax"),
    ),
    "monomials": (
        lambda node: monomial_library(tuple(node["coords"]), node["degree"]),
        ("coords", "degree"),
    ),
}


def _build_dictionary(node) -> ObservableDictionary:
    if isinstance(node, list):
        return ObservableDictionary.from_json(node)
    build, _ = _BUILDERS[node["builder"]]
    return build(node)


def _build_grid(node) -> RegularGrid:
    if node.get("kind") == "unit_square":
        return RegularGrid.unit_square(node["n"])
    axes, periods = [], []
    for ax in node["axes"]:
        axes.append(np.linspace(ax["lo"], ax["hi"], ax["n"]))
        periods.append(ax.get("period"))
    return RegularGrid(axes=tuple(axes), periods=tuple(periods))


def _write_complex_csv(path, values) -> None:
    values = np.asarray(values, dtype=complex).ravel()
    rows = np.column_stack([values.real, values.imag])
    np.savetxt(path, rows, delimiter=",", header="re,im", comments="")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _make_trajectory(spec: SystemSpec, sampling: dict):
    dt = 0.0 if spec.is_map else float(sampling.get("dt", 0.0))
    if not spec.is_map and dt <= 0.0:
        raise UsageError("flows need sampling.dt > 0")
    return integrate(spec, tuple(sampling["initial_state"]), dt=dt, n_steps=sampling["n"])


def emit_lattice(c: float, omega: float, N: int, M: int) -> np.ndarray:
    """Eigenvalue grid i*n*omega + m*beta for n in 0..N, m in 0..M.

    beta is the decaying spiral exponent (-c + sqrt(c^2-8))/2, the root
    with nonnegative imaginary part.  Rows come out in (n, m) loop order.
    """
    if N < 0 or M < 0:
        raise UsageError("lattice truncation requires N, M >= 0")
    beta = duffing_fixed_point_eigenvalues(c)[0]
    return np.array(
        [1j * n * omega + m * beta for n in range(N + 1) for m in range(M + 1)],
        dtype=complex,
    )


# ---------------------------------------------------------------- methods


def _dmd_series(config, traj) -> np.ndarray:
    """States fed to the snapshot pair, through the dictionary if given."""
    if "dictionary" in config:
        return _build_dictionary(config["dictionary"]).evaluate(traj.states)
    return traj.states


def _run_companion_dmd(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    pair = SnapshotPair.from_series(_dmd_series(config, traj), dt=traj.dt)
    model = companion_dmd(pair)
    return {
        "eigenvalues": model.eigenvalues,
        "residuals": {"companion_residual": model.residual},
        "files": {
            "eigenvalues.csv": partial(_write_complex_csv, values=model.eigenvalues),
            "companion_c.csv": partial(_write_complex_csv, values=model.c),
        },
    }


def _run_pinv_dmd(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    pair = SnapshotPair.from_series(_dmd_series(config, traj), dt=traj.dt)
    A = pseudoinverse_dmd(pair)
    triple = spectral_triple(A, pair)
    return {
        "eigenvalues": triple.eigenvalues,
        "residuals": {"reconstruction": triple.reconstruction_residual},
        "files": {
            "eigenvalues.csv": partial(_write_complex_csv, values=triple.eigenvalues),
            "triple.json": triple.to_json(),
        },
    }


def _run_edmd(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    dictionary = _build_dictionary(config["dictionary"])
    section = finite_section_matrix(dictionary, traj)
    eigs = section.eigenvalues()
    files = {
        "section.csv": section.to_csv,
        "eigenvalues.csv": partial(_write_complex_csv, values=eigs),
    }
    if traj.dt > 0:
        files["eigenvalues_continuous.csv"] = partial(
            _write_complex_csv, values=continuous_time_eigenvalues(eigs, traj.dt)
        )
    return {
        "eigenvalues": eigs,
        "residuals": {"route_disagreement": section.route_disagreement},
        "files": files,
    }


def _run_gla(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    params = config["method_params"]
    lam = _decode_number(params["lambda_target"])
    g = Observable.from_json(params["observable"])
    avg = gla_eigenfunction(traj, lam, g, window=params.get("window"))
    rows = np.column_stack(
        [np.arange(avg.samples.size), avg.samples.real, avg.samples.imag]
    )
    return {
        "eigenvalues": [avg.multiplier],
        "residuals": {"harmonic_residual": avg.residual},
        "files": {
            "harmonic.csv": partial(
                np.savetxt, X=rows, delimiter=",", header="k,re,im", comments=""
            ),
        },
    }


def _run_partition(config, spec, seed, stream):
    sampling = config["sampling"]
    dictionary = _build_dictionary(config["dictionary"])
    grid = _build_grid(sampling["grid"])
    dt = None if spec.is_map else sampling.get("dt")
    params = config.get("method_params", {})
    field = time_average(dictionary, spec, grid, n=sampling.get("n", 1000), dt=dt)
    labeling = ergodic_partition_approx(field, bins_per_obs=params.get("bins", 3))
    score = partition_invariance_score(
        labeling,
        spec,
        n_test=params.get("n_test", 1),
        dt=dt,
        sample_limit=params.get("sample_limit"),
        seed=seed,
    )
    return {
        "eigenvalues": [],
        "residuals": {
            "invariance_score": score,
            "n_cells": labeling.n_cells,
            "diverged_fraction": float(np.mean(field.diverged)),
        },
        "files": {
            "field.csv": field.to_csv,
            "labeling.csv": labeling.to_csv,
            "labeling.json": labeling.to_json(invariance_score=score),
        },
    }


def _run_static(config, spec, seed, stream):
    if not spec.is_map:
        raise UsageError("static regression needs a discrete map system")
    sampling = config.get("sampling", {})
    n = sampling.get("n", 100)
    params = config.get("method_params", {})
    lo, hi = params.get("box", [-1.0, 1.0])
    if lo > hi:
        raise UsageError(f"method_params.box needs low <= high, got [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(lo, hi, size=(n, spec.dim))
    outputs = step_map_batch(spec, inputs)
    pairs = PairedSamples(inputs=inputs, outputs=outputs)
    fit = fit_static_linear(
        pairs,
        _build_dictionary(config["dictionary"]),
        _build_dictionary(config["dictionary_out"]),
    )
    return {
        "eigenvalues": [],
        "residuals": {
            "fit_residual": fit.residual,
            "rank": fit.rank,
            "rank_deficient": fit.rank_deficient,
        },
        "files": {"A.csv": fit.to_csv, "pairs.csv": pairs.to_csv},
    }


def _run_mz(config, spec, seed, stream):
    params = config.get("method_params", {})
    if "closure" in params:
        closure = params["closure"]
        f = FourierObservable([_decode_number(v) for v in closure["coefficients"]])
        result = circle_rotation_closure(
            f, closure["omega"], closure.get("m_samples", 4096)
        )
        payload = {
            "lambda": _complex_json(result["lambda"]),
            "lambda_empirical": _complex_json(result["lambda_empirical"]),
            "residual_markov": result["residual_markov"],
            "orthogonal_fraction": result["orthogonal_fraction"],
        }
        return {
            "eigenvalues": [result["lambda"]],
            "residuals": {
                "residual_markov": result["residual_markov"],
                "lambda_route_gap": abs(result["lambda"] - result["lambda_empirical"]),
            },
            "files": {"closure.json": payload},
        }
    traj = _make_trajectory(spec, config["sampling"])
    dictionary = _build_dictionary(config["dictionary"])
    dec = mz_decompose(dictionary, traj, k_max=params.get("k_max", 10))
    return {
        "eigenvalues": [],
        "residuals": {
            "orthogonal_max": float(np.max(dec.orthogonal_norms)),
            "cross_max": float(np.max(dec.cross_norms)),
        },
        "files": {"mz.csv": dec.to_csv},
    }


def _run_sindy(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    library = _build_dictionary(config["dictionary"])
    threshold = config.get("method_params", {}).get("threshold")
    model = sindy_fit(traj, library, threshold=threshold)
    return {
        "eigenvalues": [],
        "residuals": {
            "fit_residual": model.residual,
            "n_terms": int(np.count_nonzero(model.coefficients)),
        },
        "files": {"model.json": model.to_json()},
    }


def _run_repr_check(config, spec, seed, stream):
    traj = _make_trajectory(spec, config["sampling"])
    dictionary = _build_dictionary(config["dictionary"])
    A = _decode_matrix(
        config["method_params"]["coefficients"], "method_params.coefficients"
    )
    model = RepresentationModel(
        observables=dictionary, map_kind="linear", coefficients=A
    )
    residual = representation_residual(model, traj)
    values = dictionary.evaluate(traj.states)
    faith = faithfulness_estimate(values, traj.states)
    i, j = faith["witness"]
    print("check           value", file=stream)
    print(f"residual        {residual:.6e}", file=stream)
    print(
        f"faithfulness    {faith['score']:.6e}  (witness samples {i}, {j})",
        file=stream,
    )
    report = {"residual": residual, "faithfulness": faith["score"], "witness": [i, j]}
    return {
        "eigenvalues": [],
        "residuals": {"representation": residual, "faithfulness": faith["score"]},
        "files": {"report.json": report},
    }


_ORBIT = ("sampling.initial_state", "sampling.n")

# method name -> (runner, requirements).  runner(config, spec, seed, stream)
# returns the summary's eigenvalues and residuals and its files (artifact
# name -> JSON payload or writer(path)).  requirements lists alternatives,
# each a tuple of dotted config paths; a config must supply one in full.
_RUNNERS = {
    "companion_dmd": (_run_companion_dmd, [_ORBIT]),
    "pinv_dmd": (_run_pinv_dmd, [_ORBIT]),
    "edmd": (_run_edmd, [("dictionary", *_ORBIT)]),
    "gla": (
        _run_gla,
        [(*_ORBIT, "method_params.lambda_target", "method_params.observable")],
    ),
    "partition": (_run_partition, [("dictionary", "sampling.grid")]),
    "static": (_run_static, [("dictionary", "dictionary_out")]),
    "mz": (
        _run_mz,
        [
            ("dictionary", *_ORBIT),
            ("method_params.closure",),  # its schema requires coefficients and omega
        ],
    ),
    "sindy": (_run_sindy, [("dictionary", *_ORBIT)]),
    "repr_check": (
        _run_repr_check,
        [("dictionary", *_ORBIT, "method_params.coefficients")],
    ),
}
METHODS = tuple(_RUNNERS)


# ---------------------------------------------------------------- schemas


def _requiring(paths) -> dict:
    """Schema demanding every dotted config path in `paths`, e.g. 'sampling.n'."""
    nested = {}
    for path in paths:
        head, _, rest = path.partition(".")
        nested.setdefault(head, [])
        if rest:
            nested[head].append(rest)
    schema = {"required": list(nested)}
    if any(nested.values()):
        schema["properties"] = {h: _requiring(r) for h, r in nested.items() if r}
    return schema


_NUMBER = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 1}
# a real number, or a complex one as {"re": ..., "im": ...}
_COMPLEX = {
    "anyOf": [
        _NUMBER,
        {
            "type": "object",
            "additionalProperties": False,
            "properties": {"re": _NUMBER, "im": _NUMBER},
        },
    ]
}


def _matrix(entry) -> dict:
    return {"type": "array", "items": {"type": "array", "items": entry}}


def _when(field, values, then) -> dict:
    """Schema applying `then` to an object whose `field` is one of `values`."""
    return {"if": {"properties": {field: {"enum": list(values)}}}, "then": then}


_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1}
# JSON type of each observable parameter field; KINDS says which kind needs which
_OBSERVABLE_PARAMS = {
    "k": _VECTOR,
    "powers": _VECTOR,
    "index": {"type": "integer", "minimum": 0},
}
_OBSERVABLE = {
    "type": "object",
    "required": ["name", "type"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "type": {"enum": list(JSON_KINDS)},
        **_OBSERVABLE_PARAMS,
    },
    "allOf": [
        _when(
            "type",
            [kind for kind in JSON_KINDS if KINDS[kind].param == param],
            {"required": [param]},
        )
        for param in _OBSERVABLE_PARAMS
    ],
}

_DICTIONARY_SCHEMA = {
    "type": ["array", "object"],
    "if": {"type": "array"},
    "then": {"items": _OBSERVABLE, "minItems": 1},
    "else": {
        "required": ["builder"],
        "properties": {
            "builder": {"enum": list(_BUILDERS)},
            "dim": {"type": "integer", "minimum": 1},
            "kmax": {"type": "integer", "minimum": 1},
            "kind": {"enum": [kind for kind, spec in KINDS.items() if spec.param == "k"]},
            "coords": {
                "type": "array",
                "items": {"type": "string"},
                "minItems": 1,
            },
            "degree": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
        "allOf": [
            _when("builder", [builder], {"required": list(fields)})
            for builder, (_, fields) in _BUILDERS.items()
        ],
    },
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["method", "system"],
    "additionalProperties": False,
    "properties": {
        "method": {"enum": list(METHODS)},
        "system": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(SYSTEM_KINDS)},
                "params": {
                    "type": "object",
                    "properties": {"B": _matrix(_NUMBER)},
                    "additionalProperties": _NUMBER,
                },
            },
        },
        "dictionary": _DICTIONARY_SCHEMA,
        "dictionary_out": _DICTIONARY_SCHEMA,
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "minimum": 0},
                "n": {"type": "integer", "minimum": 1},
                "initial_state": {"type": "array", "items": {"type": "number"}},
                "seed": {"type": "integer", "minimum": 0},
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "if": {"required": ["kind"]},
                    "then": {"required": ["n"]},
                    "else": {"required": ["axes"]},
                    "properties": {
                        "kind": {"enum": ["unit_square"]},
                        "n": {"type": "integer", "minimum": 1},
                        "axes": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "required": ["lo", "hi", "n"],
                                "additionalProperties": False,
                                "properties": {
                                    "lo": {"type": "number"},
                                    "hi": {"type": "number"},
                                    "n": {"type": "integer", "minimum": 1},
                                    "period": {"type": ["number", "null"]},
                                },
                            },
                        },
                    },
                },
            },
        },
        "method_params": {
            "type": "object",
            "properties": {
                "bins": _COUNT,
                "n_test": _COUNT,
                "sample_limit": {"type": ["integer", "null"], "minimum": 1},
                "k_max": _COUNT,
                "window": {"type": ["integer", "null"], "minimum": 1},
                "threshold": {"type": ["number", "null"], "minimum": 0},
                "box": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                "lambda_target": _COMPLEX,
                "observable": _OBSERVABLE,
                "coefficients": _matrix(_COMPLEX),
                "closure": {
                    "type": "object",
                    "required": ["coefficients", "omega"],
                    "properties": {
                        "coefficients": {"type": "array", "items": _COMPLEX},
                        "omega": _NUMBER,
                        "m_samples": _COUNT,
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json"]},
                },
            },
        },
        "tolerances": {"type": "object"},
    },
    "allOf": [
        _when(
            "method",
            [method],
            _requiring(alternatives[0])
            if len(alternatives) == 1
            else {"anyOf": [_requiring(paths) for paths in alternatives]},
        )
        for method, (_, alternatives) in _RUNNERS.items()
    ],
}

SUMMARY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["method", "system", "eigenvalues", "residuals", "runtimes", "seed", "artifacts"],
    "additionalProperties": False,
    "properties": {
        "method": {"enum": list(METHODS)},
        "system": {"type": "object"},
        "eigenvalues": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["re", "im"],
                "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
                "additionalProperties": False,
            },
        },
        "residuals": {
            "type": "object",
            "additionalProperties": {"type": ["number", "integer", "boolean"]},
        },
        "runtimes": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "seed": {"type": "integer"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object"},
    },
}


# ----------------------------------------------------------------- driver


def _apply_overrides(config: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set needs path=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = config
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set path {path!r} crosses a non-object field")
        node[keys[-1]] = value
    return config


def run(config: dict, out_dir, stream=None) -> dict:
    """Execute one validated config; returns the summary dictionary."""
    stream = sys.stdout if stream is None else stream
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = SystemSpec(
        kind=config["system"]["kind"], params=config["system"].get("params", {})
    )
    seed = int(config.get("sampling", {}).get("seed", 0)) & _MERSENNE_MASK
    method = config["method"]
    t0 = time.perf_counter()
    runner, _ = _RUNNERS[method]
    result = runner(config, spec, seed, stream)
    for name, content in result["files"].items():
        if callable(content):
            content(out_dir / name)
        else:
            _write_json(out_dir / name, content)
    elapsed = time.perf_counter() - t0

    summary = {
        "method": method,
        "system": spec.to_json(),
        "eigenvalues": [_complex_json(z) for z in result["eigenvalues"]],
        "residuals": {
            k: (v if isinstance(v, (bool, int)) else float(v))
            for k, v in result["residuals"].items()
        },
        "runtimes": {"method_s": elapsed},
        "seed": seed,
        "artifacts": sorted([*result["files"], "summary.json"]),
    }
    if "tolerances" in config:
        summary["tolerances"] = config["tolerances"]
    _write_json(out_dir / "summary.json", summary)
    return summary


def _load_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        kind = type(config).__name__
        raise UsageError(f"top level must be a JSON object, got {kind}")
    return config


# Draft 7 counts 3.0 as an integer, which would then fail where the value
# is used as a count or an index; here an integer is a JSON integer.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)(CONFIG_SCHEMA)


def _validate_config(config: dict) -> None:
    errors = sorted(
        _CONFIG_VALIDATOR.iter_errors(config), key=lambda e: list(e.absolute_path)
    )
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise jsonschema.ValidationError(f"at {where}: {err.message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="koopman",
        description="Spectral analysis of dynamical systems from trajectory data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--set", action="append", dest="overrides", metavar="PATH=VALUE",
                       help="override a scalar config field, e.g. sampling.n=20000")
    p_run.add_argument("--out", help="output directory (default: config output.dir or '.')")

    sub.add_parser("list-systems", help="print the system catalogue")

    p_lat = sub.add_parser("lattice", help="emit the spiral-sink eigenvalue lattice")
    p_lat.add_argument("--c", type=float, required=True)
    p_lat.add_argument("--omega", type=float, required=True)
    p_lat.add_argument("--N", type=int, required=True)
    p_lat.add_argument("--M", type=int, required=True)
    p_lat.add_argument("--out", help="CSV file (default: stdout)")

    p_repr = sub.add_parser("repr", help="representation check with printed table")
    p_repr.add_argument("config", help="path to a repr_check JSON config")
    p_repr.add_argument("--set", action="append", dest="overrides", metavar="PATH=VALUE")
    p_repr.add_argument("--out", help="output directory")

    args = parser.parse_args(argv)

    if args.command == "list-systems":
        for kind in SYSTEM_KINDS:
            spec = SystemSpec(kind=kind) if kind != "linear_map" else None
            if spec is None:
                print("linear_map: coords by matrix B (params: B, required)")
                continue
            params = ", ".join(f"{k}={v:g}" for k, v in spec.params.items())
            print(f"{kind}: coords ({', '.join(spec.coord_names)}); params {params}")
        return 0

    if args.command == "lattice":
        if args.N < 0 or args.M < 0:
            print("lattice: N and M must be >= 0", file=sys.stderr)
            return 2
        values = emit_lattice(args.c, args.omega, args.N, args.M)
        if args.out:
            _write_complex_csv(args.out, values)
        else:
            print("re,im")
            for z in values:
                print(f"{z.real:.18e},{z.imag:.18e}")
        return 0

    # run / repr
    try:
        config = _apply_overrides(_load_config(args.config), args.overrides)
    except (OSError, json.JSONDecodeError, UsageError) as exc:
        print(f"config unusable: {exc}", file=sys.stderr)
        return 2
    if args.command == "repr" and config.get("method") != "repr_check":
        print("config unusable: at method: repr expects method 'repr_check'", file=sys.stderr)
        return 2
    try:
        _validate_config(config)
    except jsonschema.ValidationError as exc:
        print(f"config invalid {exc.message}", file=sys.stderr)
        return 2

    out_dir = args.out or config.get("output", {}).get("dir", ".")
    try:
        summary = run(config, out_dir)
    except UsageError as exc:  # a value the schema cannot check, e.g. a ragged matrix
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except (KoopmanError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    residuals = ", ".join(f"{k}={v:.3g}" for k, v in summary["residuals"].items())
    print(f"{summary['method']}: wrote {out_dir} ({residuals})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
