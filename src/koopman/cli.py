"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands: `run <config.json>` executes one experiment and writes its
artifacts plus a summary.json; `list-systems` prints the system
catalogue; `lattice` emits the eigenvalue lattice of the cycle-with-
spiral-sink flow as CSV.  A `repr_check` run also prints the
residual/faithfulness table.

Exit codes: 0 success, 2 unusable config (schema violation, bad JSON,
missing file; the failing field path is printed), unusable `lattice` input
(N or M < 0, a non-finite c or omega, or lattice values that leave the
float range) or unusable output location (an
`--out` that cannot be created or written), 3 numerical failure inside a
method, numpy's LinAlgError included (the error text is printed), or an
array too large to allocate (`MemoryError: <message>`).

Each method is declared once, in `_RUNNERS`: its runner, the config paths
it requires and the `method_params` keys it reads with their schemas, from
which the schema's `method_params` properties and per-method rules are
built.
Each dictionary builder is declared once, in `_BUILDERS`, and the schema
of an observable entry is built from `observables.KINDS`.
A config is checked against `CONFIG_SCHEMA` by a small walker of the
Draft 7 keywords the schema uses, which gives jsonschema's verdict and
message; jsonschema itself is needed only by the tests.
The argparse parser and one schema per method are built once per
process, on first use.  A method's schema is `CONFIG_SCHEMA` with the
per-method rules cut to that method's own, so it reports the errors the
full schema would; a config whose method is missing, unknown or not a
string fails every per-method rule's condition, so its schema has none.
A runner opens no file and prints nothing: it returns the summary's
eigenvalues and residuals plus `files`, a map from artifact name to either
a JSON payload or a `writer(path)` (a tuple of names maps to a
`writer(*paths)` that writes those artifacts together), and may return
`stdout`, the lines `main` prints once the run has succeeded.  `run` is the
only code that writes under the output directory, every file through
`_artifacts` and only once the method has succeeded and every JSON
document has encoded, so a failed run creates nothing.  It reports the
time spent encoding and writing as `runtimes.write_s`.  Only `main` writes
to stdout; a reader that closes it early makes `list-systems` and `lattice`
exit 2 (`output unusable: [Errno 32] Broken pipe`), and a `run`, whose
artifacts are complete by then, exit 0.

Fixed configs reproduce their artifacts byte for byte: every file name
is static, CSV values are written with the fixed format `%.18e`, JSON is
encoded by `_artifacts.strict_json` (json.dumps' text with two-space
indents and sorted keys; a complex number is the object {"im": ...,
"re": ...}), and all sampling randomness comes from the one recorded
64-bit seed.  The only non-reproducible values are the runtimes inside
summary.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import suppress
from functools import cache, partial
from operator import gt, lt, pos
from pathlib import Path

import numpy as np

from ._artifacts import json_writer, strict_json, write_csv, write_json
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
        # a span beyond the float range gives non-finite values, which RegularGrid refuses
        with np.errstate(over="ignore", invalid="ignore"):
            axes.append(np.linspace(ax["lo"], ax["hi"], ax["n"]))
        periods.append(ax.get("period"))
    return RegularGrid(axes=tuple(axes), periods=tuple(periods))


def _write_complex_csv(path, values) -> None:
    write_csv(path, [np.asarray(values, dtype=complex).ravel()], "re,im")


def _make_trajectory(spec: SystemSpec, sampling: dict):
    return integrate(spec, sampling["initial_state"], sampling.get("dt"), sampling["n"])


def emit_lattice(c: float, omega: float, N: int, M: int) -> np.ndarray:
    """Eigenvalue grid i*n*omega + m*beta for n in 0..N, m in 0..M.

    beta is the decaying spiral exponent (-c + sqrt(c^2-8))/2, the root
    with nonnegative imaginary part.  Rows come out in (n, m) loop order.
    Raises UsageError for N or M < 0, for a non-finite c or omega, and for
    lattice values that leave the float range (c*c or n*omega overflows).
    """
    if N < 0 or M < 0:
        raise UsageError("lattice truncation requires N, M >= 0")
    if not np.all(np.isfinite([c, omega])):
        raise UsageError(f"lattice needs finite c and omega, got c={c}, omega={omega}")
    beta = duffing_fixed_point_eigenvalues(c)[0]
    values = np.array(
        [1j * n * omega + m * beta for n in range(N + 1) for m in range(M + 1)],
        dtype=complex,
    )
    if not np.all(np.isfinite(values)):
        raise UsageError(f"lattice values leave the float range for c={c}, omega={omega}")
    return values


# ---------------------------------------------------------------- methods


def _snapshot_pair(config, spec) -> SnapshotPair:
    """The orbit's snapshot pair, of its states or of the dictionary if given."""
    traj = _make_trajectory(spec, config["sampling"])
    series = traj.states
    if "dictionary" in config:
        series = _build_dictionary(config["dictionary"]).evaluate(series)
    return SnapshotPair.from_series(series)


def _run_companion_dmd(config, spec, seed):
    model = companion_dmd(_snapshot_pair(config, spec))
    eigs = model.eigenvalues
    return {
        "eigenvalues": eigs,
        "residuals": {"companion_residual": model.residual},
        "files": {
            "eigenvalues.csv": partial(_write_complex_csv, values=eigs),
            "companion_c.csv": partial(_write_complex_csv, values=model.c),
        },
    }


def _run_pinv_dmd(config, spec, seed):
    pair = _snapshot_pair(config, spec)
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


def _run_edmd(config, spec, seed):
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


def _run_gla(config, spec, seed):
    traj = _make_trajectory(spec, config["sampling"])
    params = config["method_params"]
    lam = _decode_number(params["lambda_target"])
    g = Observable.from_json(params["observable"])
    avg = gla_eigenfunction(traj, lam, g, window=params.get("window"))
    rows = [np.arange(avg.samples.size), avg.samples]
    return {
        "eigenvalues": [avg.multiplier],
        "residuals": {"harmonic_residual": avg.residual},
        "files": {
            "harmonic.csv": partial(write_csv, table=rows, header="k,re,im"),
        },
    }


def _run_partition(config, spec, seed):
    sampling = config["sampling"]
    dictionary = _build_dictionary(config["dictionary"])
    grid = _build_grid(sampling["grid"])
    params = config.get("method_params", {})
    field = time_average(dictionary, spec, grid, n=sampling.get("n", 1000), dt=sampling.get("dt"))
    labeling = ergodic_partition_approx(field, bins_per_obs=params.get("bins", 3))
    score = partition_invariance_score(
        labeling,
        spec,
        n_test=params.get("n_test", 1),
        dt=sampling.get("dt"),
        sample_limit=params.get("sample_limit"),
        seed=seed,
    )
    residuals = {
        "invariance_score": score,
        "n_cells": labeling.n_cells,
        "diverged_fraction": float(np.mean(field.diverged)),
    }
    # convergence gaps |avg(n) - avg(n//2)| of the rows that stayed finite;
    # left out when none did, since JSON has no NaN
    gaps = field.cesaro[~field.diverged]
    if gaps.size:
        residuals["cesaro_max"] = float(gaps.max())
        residuals["cesaro_median"] = float(np.median(gaps))
    return {
        "eigenvalues": [],
        "residuals": residuals,
        "files": {
            ("field.csv", "labeling.csv"): labeling.to_csv,
            "labeling.json": labeling.to_json(invariance_score=score),
        },
    }


def _run_static(config, spec, seed):
    if not spec.is_map:
        raise UsageError("static regression needs a discrete map system")
    sampling = config.get("sampling", {})
    n = sampling.get("n", 100)
    params = config.get("method_params", {})
    lo, hi = params.get("box", [-1.0, 1.0])
    if lo > hi:
        raise UsageError(f"method_params.box needs low <= high, got [{lo}, {hi}]")
    if not abs(hi - lo) <= sys.float_info.max:  # the draw needs its span as a float
        raise UsageError(f"method_params.box needs a span high - low within the float "
                         f"range, got [{lo}, {hi}]")
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


def _run_mz(config, spec, seed):
    params = config.get("method_params", {})
    if "closure" in params:
        closure = params["closure"]
        f = FourierObservable([_decode_number(v) for v in closure["coefficients"]])
        result = circle_rotation_closure(
            f, closure["omega"], closure.get("m_samples", 4096)
        )
        return {
            "eigenvalues": [result["lambda"]],
            "residuals": {
                "residual_markov": result["residual_markov"],
                "lambda_route_gap": abs(result["lambda"] - result["lambda_empirical"]),
            },
            "files": {"closure.json": result},
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


def _run_sindy(config, spec, seed):
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


def _run_repr_check(config, spec, seed):
    traj = _make_trajectory(spec, config["sampling"])
    dictionary = _build_dictionary(config["dictionary"])
    A = _decode_matrix(config["method_params"]["coefficients"], "method_params.coefficients")
    model = RepresentationModel(observables=dictionary, map_kind="linear", coefficients=A)
    residual = representation_residual(model, traj)
    values = dictionary.evaluate(traj.states)
    faith = faithfulness_estimate(values, traj.states)
    i, j = faith["witness"]
    report = {"residual": residual, "faithfulness": faith["score"], "witness": [i, j]}
    return {
        "eigenvalues": [],
        "residuals": {"representation": residual, "faithfulness": faith["score"]},
        "files": {"report.json": report},
        "stdout": [
            "check           value",
            f"residual        {residual:.6e}",
            f"faithfulness    {faith['score']:.6e}  (witness samples {i}, {j})",
        ],
    }


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


# the schema of every integer field: an integer in [least, most], or null too
def _integer(least: int, most: int, null: bool = False) -> dict:
    return {"type": ["integer", "null"] if null else "integer", "minimum": least, "maximum": most}


# Each integer field has a maximum, so that no value the schema accepts reaches
# numpy or Python as a size they refuse or starts a loop without end; a run
# whose arrays do not fit in memory exits 3 with MemoryError.
# Orbit steps, averaging and test iterations, windows and quadrature samples:
# a Lorenz RK4 step takes about 1 us (2-core host), so the longest orbit takes
# about 10 s and holds at most 10**7 states of 5 coordinates, 400 MB.
_STEPS = 10**7
# Points per grid axis: a grid over the 5 coordinates of the largest state has
# at most 2**55 points, whose columns (16 bytes a point at most) numpy sizes.
_AXIS = 2**11
_NUMBER = {"type": "number"}
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
    # an index at or past the state's dimension exits 2 where it is evaluated;
    # 2**63 - 1 is numpy's largest
    "index": _integer(0, 2**63 - 1),
}


def _kind_fields(params) -> dict:
    """if/then/else chain: the kinds whose parameter field is params[0] (None
    for none) need that field and hold no other; other kinds go on to the
    rule of params[1:].  The walker tests an `if` by walking its condition,
    and in a chain an entry meets only the conditions up to its own kind's."""
    param = params[0]
    fields = ["name", "type"] + ([param] if param else [])
    rule = _when("type", [kind for kind in JSON_KINDS if KINDS[kind].param == param], {
        "required": fields[2:],
        "properties": dict.fromkeys(fields, True),
        "additionalProperties": False,
    })
    if params[1:]:
        rule["else"] = _kind_fields(params[1:])
    return rule


# the fields an entry may hold are its kind's own (see _kind_fields)
_OBSERVABLE = {
    "type": "object",
    "required": ["name", "type"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "type": {"enum": list(JSON_KINDS)},
        **_OBSERVABLE_PARAMS,
    },
    **_kind_fields((*_OBSERVABLE_PARAMS, None)),
}

_DICTIONARY_SCHEMA = {
    "type": ["array", "object"],
    "if": {"type": "array"},
    "then": {"items": _OBSERVABLE, "minItems": 1},
    "else": {
        "required": ["builder"],
        "properties": {
            "builder": {"enum": list(_BUILDERS)},
            # a box has (2 kmax + 1)**dim entries: at most 5 coordinates, as the
            # largest state has, and 513**5 < 2**46 wave vectors, which numpy sizes
            "dim": _integer(1, 5),
            "kmax": _integer(1, 256),
            "kind": {"enum": [kind for kind, spec in KINDS.items() if spec.param == "k"]},
            "coords": {
                "type": "array",
                "items": {"type": "string"},
                "minItems": 1,
            },
            # the library walks (degree + 1)**len(coords) power tuples: 17**5, 1.4
            # million, for the 5 coordinates of the largest state
            "degree": _integer(0, 16),
        },
        "additionalProperties": False,
        "allOf": [
            _when("builder", [builder], {"required": list(fields)})
            for builder, (_, fields) in _BUILDERS.items()
        ],
    },
}

_ORBIT = ("sampling.initial_state", "sampling.n")

# method name -> (runner, requirements, method_params keys).  runner(config,
# spec, seed) returns the summary's eigenvalues and residuals and its files
# (artifact name -> JSON payload or writer(path); a tuple of names ->
# writer(*paths)).  requirements lists alternatives, each a tuple of dotted
# config paths; a config must supply one in full.  method_params may hold
# only the keys the runner reads, each mapped to the schema of its value.
_CLOSURE = {
    "type": "object",
    "required": ["coefficients", "omega"],
    "additionalProperties": False,
    "properties": {
        "coefficients": {"type": "array", "items": _COMPLEX},
        "omega": _NUMBER,
        "m_samples": _integer(1, _STEPS),
    },
}
_RUNNERS = {
    "companion_dmd": (_run_companion_dmd, [_ORBIT], {}),
    "pinv_dmd": (_run_pinv_dmd, [_ORBIT], {}),
    "edmd": (_run_edmd, [("dictionary", *_ORBIT)], {}),
    "gla": (
        _run_gla,
        [(*_ORBIT, "method_params.lambda_target", "method_params.observable")],
        {"lambda_target": _COMPLEX, "observable": _OBSERVABLE,
         "window": _integer(1, _STEPS, null=True)},
    ),
    "partition": (
        _run_partition,
        [("dictionary", "sampling.grid")],
        # a joint cell code stays below points * bins <= 2**55 * 2**8, an int64
        {"bins": _integer(1, 2**8), "n_test": _integer(1, _STEPS),
         "sample_limit": _integer(1, _AXIS**5, null=True)},  # at most a grid's points
    ),
    "static": (
        _run_static,
        [("dictionary", "dictionary_out")],
        {"box": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}},
    ),
    "mz": (
        _run_mz,
        [
            ("dictionary", *_ORBIT),
            ("method_params.closure",),  # its schema requires coefficients and omega
        ],
        {"k_max": _integer(1, _STEPS), "closure": _CLOSURE},
    ),
    "sindy": (
        _run_sindy,
        [("dictionary", *_ORBIT)],
        {"threshold": {"type": ["number", "null"], "minimum": 0}},
    ),
    "repr_check": (
        _run_repr_check,
        [("dictionary", *_ORBIT, "method_params.coefficients")],
        {"coefficients": _matrix(_COMPLEX)},
    ),
}
METHODS = tuple(_RUNNERS)

# method -> the schema its config must also meet: one set of required paths
# in full, and no method_params key that the method does not read
_METHOD_RULES = {
    method: {
        "allOf": [
            _requiring(alternatives[0])
            if len(alternatives) == 1
            else {"anyOf": [_requiring(paths) for paths in alternatives]},
            {"properties": {"method_params": {"propertyNames": {"enum": list(keys)}}}},
        ]
    }
    for method, (_, alternatives, keys) in _RUNNERS.items()
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
                "n": _integer(1, _STEPS),
                "initial_state": {"type": "array", "items": {"type": "number"}},
                "seed": _integer(0, 2**64 - 1),  # a 64-bit seed
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "if": {"required": ["kind"]},
                    "then": {"required": ["n"]},
                    "else": {"required": ["axes"]},
                    "properties": {
                        "kind": {"enum": ["unit_square"]},
                        "n": _integer(1, _AXIS),
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
                                    "n": _integer(1, _AXIS),
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
            "additionalProperties": False,
            # no key is read by two methods
            "properties": {key: schema for _, _, keys in _RUNNERS.values()
                           for key, schema in keys.items()},
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
    "allOf": [_when("method", [method], rule) for method, rule in _METHOD_RULES.items()],
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
            "required": ["method_s", "write_s"],
            "additionalProperties": {"type": "number"},
        },
        "seed": {"type": "integer"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object"},
    },
}


# ----------------------------------------------------------------- driver


def _reject_constant(name: str):
    # json accepts NaN and +-Infinity, which no config value may be and
    # which would make summary.json invalid JSON
    raise UsageError(f"non-finite number {name} is not allowed in a config")


def _finite_float(literal: str) -> float:
    # a number literal beyond the float range (1e400) reads as +-inf
    value = float(literal)
    if not math.isfinite(value):
        raise UsageError(f"number {literal} is beyond the float range")
    return value


def _json_int(literal: str) -> int | float:
    """An integer literal below 2**64 in magnitude as an int, any other as a float,
    which no count accepts; the digits are counted first, so int() meets no digit limit."""
    digits = len(literal) - literal.startswith("-")
    if digits < 20 or (digits == 20 and abs(int(literal)) < 1 << 64):
        return int(literal)
    value = float(literal)
    if not math.isfinite(value):
        raise UsageError(f"integer of {digits} digits is beyond the float range")
    return value


# the one reader of a config's JSON text, the file's or a --set value's: every
# float finite, an integer below 2**64 in magnitude an int, no NaN or +-Infinity
_read_json = partial(json.loads, parse_float=_finite_float, parse_int=_json_int,
                     parse_constant=_reject_constant)


def _apply_overrides(config: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set needs path=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = _read_json(raw)
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


def _names(key) -> tuple:
    """Artifact names of a `files` key: one name or a tuple of them."""
    return key if isinstance(key, tuple) else (key,)


@cache
def _malloc_trim():
    """The C library's malloc_trim(pad), or a no-op where it has none.

    A partition run frees grid-sized arrays (1-5 MB each on a 160k-point
    grid).  glibc raises its mmap threshold when such an array is freed, so
    later ones land in the heap, and whether their free space stays held
    after the run depends on how small objects happened to fall between
    them: over repeated in-process runs the peak RSS read about 81 or 93 MB
    from one process to the next.  Trimming after the run gives that free
    space back, and the peak read 80-83 MB.  It is not done after every
    method: on the 4 ms configs the trim and the page faults after it cost
    about 8 % of a run.
    """
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no process handle
        return lambda pad: 0


def run(config: dict, out_dir) -> tuple[dict, list]:
    """Execute one validated config; return its summary and the lines it
    reports on stdout.  A failed run creates nothing."""
    out_dir = Path(out_dir)
    spec = SystemSpec(
        kind=config["system"]["kind"], params=config["system"].get("params", {})
    )
    seed = config.get("sampling", {}).get("seed", 0)  # validated: an integer in [0, 2**64)
    method = config["method"]
    t0 = time.perf_counter()
    result = _RUNNERS[method][0](config, spec, seed)
    t_write = time.perf_counter()
    summary = {
        "method": method,
        "system": spec.to_json(),
        "eigenvalues": np.asarray(result["eigenvalues"], dtype=complex),
        "residuals": {
            k: (v if isinstance(v, (bool, int)) else float(v))
            for k, v in result["residuals"].items()
        },
        "seed": seed,
        "artifacts": sorted([*(n for names in result["files"] for n in _names(names)),
                             "summary.json"]),
    }
    if "tolerances" in config:
        summary["tolerances"] = config["tolerances"]
    strict_json(summary, "summary.json")  # refused now, before any file is made
    writers = {k: v if callable(v) else json_writer(v, k) for k, v in result["files"].items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    for names, write in writers.items():
        write(*(out_dir / name for name in _names(names)))
    t_end = time.perf_counter()
    summary["runtimes"] = {"method_s": t_end - t0, "write_s": t_end - t_write}
    write_json(out_dir / "summary.json", summary)
    if method == "partition":
        _malloc_trim()(0)
    return summary, result.get("stdout", [])


def _load_config(path: str) -> dict:
    with open(path) as fh:
        config = _read_json(fh.read())
    if not isinstance(config, dict):
        kind = type(config).__name__
        raise UsageError(f"top level must be a JSON object, got {kind}")
    return config


# ------------------------------------------------------------- validation
#
# _schema_errors interprets the Draft 7 keywords CONFIG_SCHEMA uses, with
# jsonschema's messages, in its order: each schema's keywords in dict order.
# A keyword it does not know raises KeyError.  An integer is a JSON integer:
# Draft 7 counts 3.0 as one, which would then fail where the value is used as
# a count or an index.


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _schema_errors(instance, schema, path=()) -> list:
    """(path, message) of each way `instance` fails `schema`; a path is the
    tuple of keys and indices from the config's root.  Each check returns a
    list (or an empty tuple) rather than yielding: most checks find nothing,
    and a generator per check cost more than the walk itself."""
    errors = []
    if schema is not True:
        for keyword, value in schema.items():
            errors += _KEYWORDS[keyword](value, instance, schema, path)
    return errors


def _fails(instance, schema) -> bool:
    return bool(_schema_errors(instance, schema))


def _type(types, instance, schema, path):
    types = [types] if isinstance(types, str) else types
    for t in types:
        if _TYPES[t](instance):
            return ()
    return [(path, f"{instance!r} is not of type {', '.join(map(repr, types))}")]


def _enum(values, instance, schema, path):
    # every enum lists strings, which `in` compares as jsonschema does
    return () if instance in values else [(path, f"{instance!r} is not one of {values!r}")]


def _required(names, instance, schema, path):
    if not isinstance(instance, dict):
        return ()
    return [(path, f"{name!r} is a required property") for name in names if name not in instance]


def _properties(schemas, instance, schema, path):
    errors = []
    if isinstance(instance, dict):
        for name, sub in schemas.items():
            if name in instance:
                errors += _schema_errors(instance[name], sub, (*path, name))
    return errors


def _additional_properties(extra, instance, schema, path):
    if not isinstance(instance, dict):
        return ()
    declared = schema.get("properties", {})
    extras = [name for name in instance if name not in declared]
    if isinstance(extra, dict):
        return [e for name in extras for e in _schema_errors(instance[name], extra, (*path, name))]
    if extra or not extras:
        return ()
    verb = "was" if len(extras) == 1 else "were"
    names = ", ".join(map(repr, sorted(extras)))
    return [(path, f"Additional properties are not allowed ({names} {verb} unexpected)")]


def _items(sub, instance, schema, path):
    if not isinstance(instance, list):
        return ()
    return [e for i, item in enumerate(instance) for e in _schema_errors(item, sub, (*path, i))]


# bound keyword -> (the type it bounds, the measure of an instance, the test of
# a measure past the bound, jsonschema's message there, and the one bound, if
# any, at which jsonschema words that message otherwise, with that wording)
_BOUNDS = {
    "minimum": ("number", pos, lt, "is less than the minimum of {!r}", None, None),
    "maximum": ("number", pos, gt, "is greater than the maximum of {!r}", None, None),
    "minItems": ("array", len, lt, "is too short", 1, "should be non-empty"),
    "maxItems": ("array", len, gt, "is too long", 0, "is expected to be empty"),
    "minLength": ("string", len, lt, "is too short", 1, "should be non-empty"),
}


def _bound(kind, measure, past, message, edge, at_edge, bound, instance, schema, path):
    if _TYPES[kind](instance) and past(measure(instance), bound):
        return [(path, f"{instance!r} {at_edge if bound == edge else message.format(bound)}")]
    return ()


def _property_names(sub, instance, schema, path):
    if not isinstance(instance, dict):
        return ()
    # an error is the object's, not the name's
    return [e for name in instance for e in _schema_errors(name, sub, path)]


def _all_of(schemas, instance, schema, path):
    return [e for sub in schemas for e in _schema_errors(instance, sub, path)]


def _any_of(schemas, instance, schema, path):
    if all(_fails(instance, sub) for sub in schemas):
        return [(path, f"{instance!r} is not valid under any of the given schemas")]
    return ()


def _if(condition, instance, schema, path):
    branch = "else" if _fails(instance, condition) else "then"
    return _schema_errors(instance, schema[branch], path) if branch in schema else ()


def _no_check(value, instance, schema, path):
    return ()


# keyword -> check(value, instance, schema, path), returning [(path, message)]
_KEYWORDS = {
    "$schema": _no_check,
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    **{keyword: partial(_bound, *rule) for keyword, rule in _BOUNDS.items()},
    "propertyNames": _property_names,
    "allOf": _all_of,
    "anyOf": _any_of,
    "if": _if,
    "then": _no_check,  # read by "if"
    "else": _no_check,
}


@cache
def _method_schema(method: str | None) -> dict:
    """CONFIG_SCHEMA with its per-method rules cut to `method`'s own.

    On a config whose method is `method`, or None for one missing, unknown or
    not a string, every other rule's `if` fails, so this yields the errors of
    the full schema, in the same order, without testing an `if` per method.
    """
    return {**CONFIG_SCHEMA, "allOf": [_METHOD_RULES[method]] if method else []}


def _validate_config(config: dict) -> None:
    """Raise UsageError('at <path>: <message>') for the first error by path,
    the one jsonschema's errors sorted by path would start with."""
    method = config.get("method")
    schema = _method_schema(method if method in METHODS else None)
    # min keeps the first of equal paths, as a stable sort does
    error = min(_schema_errors(config, schema), key=lambda e: e[0], default=None)
    if error:
        path, message = error
        raise UsageError(f"at {'/'.join(map(str, path)) or '<root>'}: {message}")


@cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def _to_stdout(write) -> None:
    """Call write(file=sys.stdout), then flush stdout.

    Where stdout cannot be written (its reader has gone, say) the OSError is
    raised once stdout is closed, which drops what it still buffers, so the
    flush at interpreter exit has nothing left to fail on.
    """
    try:
        write(file=sys.stdout)
        sys.stdout.flush()
    except OSError:
        with suppress(OSError):  # the same error, from the flush that closing makes
            sys.stdout.close()
        raise


def _system_catalogue() -> list:
    """The lines `list-systems` prints, one per system kind."""
    lines = []
    for kind in SYSTEM_KINDS:
        if kind == "linear_map":
            lines.append("linear_map: coords by matrix B (params: B, required)")
            continue
        spec = SystemSpec(kind=kind)
        params = ", ".join(f"{k}={v:g}" for k, v in spec.params.items())
        lines.append(f"{kind}: coords ({', '.join(spec.coord_names)}); params {params}")
    return lines


def _list_systems(args) -> int:
    try:
        _to_stdout(partial(print, *_system_catalogue(), sep="\n"))
    except OSError as exc:
        print(f"output unusable: {exc}", file=sys.stderr)
        return 2
    return 0


def _lattice(args) -> int:
    try:
        values = emit_lattice(args.c, args.omega, args.N, args.M)
    except UsageError as exc:
        print(f"lattice: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            _write_complex_csv(args.out, values)
        else:
            _to_stdout(lambda file: _write_complex_csv(file, values))
    except OSError as exc:
        print(f"output unusable: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_config(args) -> int:
    try:
        config = _apply_overrides(_load_config(args.config), args.overrides)
    except (OSError, json.JSONDecodeError, UsageError) as exc:
        print(f"config unusable: {exc}", file=sys.stderr)
        return 2
    try:
        _validate_config(config)
    except UsageError as exc:
        print(f"config invalid {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or config.get("output", {}).get("dir", ".")
    try:
        summary, lines = run(config, out_dir)
    except UsageError as exc:  # a value the schema cannot check, e.g. a ragged matrix
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except (KoopmanError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"output unusable: {exc}", file=sys.stderr)
        return 2
    residuals = ", ".join(f"{k}={v:.3g}" for k, v in summary["residuals"].items())
    try:
        _to_stdout(partial(print, *lines, f"{summary['method']}: wrote {out_dir} ({residuals})",
                           sep="\n"))
    except OSError:  # the artifacts are complete; only the report went unread
        pass
    return 0


_COMMANDS = {"run": _run_config, "list-systems": _list_systems, "lattice": _lattice}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MemoryError as exc:  # an array too large to allocate; numpy's subclass is private
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
