"""The blocked CSV writer gives the bytes numpy's savetxt gives, and the
JSON encoder the text json.dumps gives.

Every artifact goes through koopman._artifacts, so these tests compare its
CSV writer with ``np.savetxt(..., delimiter=",", comments="")`` of the table
split into real columns (a complex column as its .real, then its .imag) on
awkward values and shapes and on each artifact with complex columns, compare
the one-pass partition pair with savetxt of the stacked columns, and compare
strict_json with json.dumps of the tree of {"re", "im"} dicts the package
used to build for it.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopman import _artifacts, cli
from koopman._artifacts import strict_json, write_csv, write_csv_files
from koopman.dmd import companion_dmd
from koopman.errors import KoopmanError
from koopman.finite_section import finite_section_matrix
from koopman.observables import Observable, ObservableDictionary
from koopman.partitions import (
    RegularGrid,
    ergodic_partition_approx,
    gla_eigenfunction,
    time_average,
)
from koopman.systems import SystemSpec

CONFIG_DIR = Path(__file__).parents[1] / "configs"

EDGE = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.797e308, -1.797e308, 1.0, -2.5e-7]
)
TABLES = {
    "edge_values": EDGE.reshape(5, 2),
    "single_column": EDGE[:, None],
    "one_dimensional": EDGE,
    "int_columns": np.arange(-3, 9).reshape(4, 3),
    "big_ints": np.array([[2**60 + 1, -(2**62) + 3]]),
    "bools": np.array([[True, False]]),
    "complex": (EDGE[:6] + 1j * EDGE[4:]).reshape(3, 2),
    "complex_one_dimensional": np.array([1 - 2j, -0.0 - 0.0j, np.nan + 1j * np.nan]),
    "no_rows": np.zeros((0, 3)),
    "several_blocks": np.random.default_rng(0).standard_normal((2 * _artifacts._BLOCK_ROWS + 3, 3)),
}


def grid_points(grid):
    """The grid points as a (P, d) array, in the grid's 'ij' raveled order."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*grid.axes, indexing="ij")])


def savetxt_bytes(tmp_path, table, header="") -> bytes:
    path = tmp_path / "reference.csv"
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    return path.read_bytes()


def split(columns) -> np.ndarray:
    """The real table savetxt is given for a list of columns: a
    (distinct_values, index) column as distinct_values[index], and a complex
    column as its .real column, then its .imag column."""
    parts = []
    for column in columns:
        column = np.asarray(column[0])[column[1]] if isinstance(column, tuple) else column
        parts += [column.real, column.imag] if np.iscomplexobj(column) else [column]
    return np.column_stack(parts)


def _table(tmp_path, name, header):
    table = TABLES[name]
    write_csv(tmp_path / "written.csv", table, header)
    columns = [table] if table.ndim == 1 else list(table.T)
    return (tmp_path / "written.csv").read_bytes(), columns, header


def _complex_distinct_values(tmp_path):
    values = EDGE[:6] + 1j * EDGE[4:]  # NaN, -0.0 and a negative imaginary part
    index = np.random.default_rng(2).integers(0, values.size, _artifacts._BLOCK_ROWS + 5)
    columns = [np.arange(index.size), (values, index), values[index]]
    write_csv(tmp_path / "written.csv", columns, "k,re,im,re,im")
    return (tmp_path / "written.csv").read_bytes(), columns, "k,re,im,re,im"


def _shipped(tmp_path, name, n, **method_params):
    """The shipped config `name`, run at sampling.n = n (and the given
    method_params) into tmp_path, and its system."""
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    config["sampling"]["n"] = n
    config.get("method_params", {}).update(method_params)
    cli.run(config, tmp_path)
    system = config["system"]
    return config, SystemSpec(system["kind"], system.get("params", {}))


def _section(tmp_path):
    config, spec = _shipped(tmp_path, "limit_cycle_edmd", 2000)
    dictionary = cli._build_dictionary(config["dictionary"])
    section = finite_section_matrix(dictionary, cli._make_trajectory(spec, config["sampling"]))
    header = ",".join(f"re_{n},im_{n}" for n in dictionary.names)
    return (tmp_path / "section.csv").read_bytes(), list(section.U_tilde.T), header


def _companion(tmp_path, name, attribute):
    # from n = 10 on, rank(X) = 8 falls below m - 1 and the fit warns
    config, spec = _shipped(tmp_path, "torus_companion_dmd", 9)
    model = companion_dmd(cli._snapshot_pair(config, spec))
    return (tmp_path / name).read_bytes(), [getattr(model, attribute)], "re,im"


def _harmonic(tmp_path):
    config, spec = _shipped(tmp_path, "circle_gla", 300, window=100)
    params = config["method_params"]
    avg = gla_eigenfunction(
        cli._make_trajectory(spec, config["sampling"]),
        cli._decode_number(params["lambda_target"]),
        Observable.from_json(params["observable"]),
        window=params["window"],
    )
    return (tmp_path / "harmonic.csv").read_bytes(), [np.arange(avg.samples.size),
                                                      avg.samples], "k,re,im"


def _lattice_stdout(tmp_path):
    c, stdout = 2.6457513110645907, io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["lattice", "--c", str(c), "--omega", "1", "--N", "4", "--M", "4"]) == 0
    return stdout.getvalue().encode(), [cli.emit_lattice(c, 1.0, 4, 4)], "re,im"


CASES = {
    **{f"{name}-{header}": partial(_table, name=name, header=header)
       for name in sorted(TABLES) for header in ("", "a,b,c")},
    "complex_distinct_values": _complex_distinct_values,
    "section": _section,
    "companion_eigenvalues": partial(_companion, name="eigenvalues.csv", attribute="eigenvalues"),
    "companion_c": partial(_companion, name="companion_c.csv", attribute="c"),
    "harmonic": _harmonic,
    "lattice_stdout": _lattice_stdout,
}


@pytest.mark.parametrize("case", CASES)
def test_writer_gives_savetxt_bytes(tmp_path, case):
    written, columns, header = CASES[case](tmp_path)
    assert written == savetxt_bytes(tmp_path, split(columns), header)


def test_distinct_value_columns_and_shared_files_match_plain_columns(tmp_path):
    rng = np.random.default_rng(1)
    n = _artifacts._BLOCK_ROWS + 17
    axis, index = EDGE, rng.integers(0, EDGE.size, n)
    values, ids = rng.standard_normal(n), rng.integers(-1, 4, n)
    narrow, wide = tmp_path / "narrow.csv", tmp_path / "wide.csv"
    write_csv_files(
        [(axis, index), values, (np.arange(-1, 4), ids + 1)],
        [(narrow, "a,b", 2), (wide, "a,b,c", None)],
    )
    assert narrow.read_bytes() == savetxt_bytes(
        tmp_path, np.column_stack([axis[index], values]), "a,b"
    )
    assert wide.read_bytes() == savetxt_bytes(
        tmp_path, np.column_stack([axis[index], values, ids]), "a,b,c"
    )


def test_an_open_file_gets_the_bytes_of_a_path_and_stays_open(tmp_path):
    table = TABLES["complex"]
    write_csv(tmp_path / "path.csv", table, "a,b")
    buffer = io.StringIO()
    write_csv(buffer, table, "a,b")
    assert not buffer.closed
    assert buffer.getvalue().encode() == (tmp_path / "path.csv").read_bytes()


def complex_json(z):
    """A complex number as {"re": ..., "im": ...}; an array or a list as nested
    lists: the tree the package built for json.dumps before strict_json
    wrote complex numbers itself, kept here as the reference."""
    if isinstance(z, np.ndarray):
        z = z.tolist()
    if isinstance(z, list):
        return [complex_json(v) for v in z]
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def reference_tree(o):
    """payload as the tree json.dumps was given: complex_json of each complex
    number and complex array, .tolist() of every other array."""
    if isinstance(o, np.ndarray):
        return complex_json(o) if np.iscomplexobj(o) else o.tolist()
    if isinstance(o, dict):
        return {k: reference_tree(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [reference_tree(v) for v in o]
    return complex_json(o) if isinstance(o, complex) else o


def _reference(payload):
    try:
        return json.dumps(reference_tree(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # json's refusal of NaN and +-inf
        raise KoopmanError("payload.json would hold a non-finite number") from None


def _outcome(encode, payload):
    """The text encode(payload) gives, or the type and message of what it raises."""
    try:
        return encode(payload)
    except (KoopmanError, TypeError) as exc:
        return type(exc), str(exc)


def test_complex_arrays_and_lists_are_encoded_element_by_element():
    rng = np.random.default_rng(3)
    cube = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    by_element = [
        [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in plane]
        for plane in cube
    ]

    def text(tree):
        return json.dumps(tree, indent=2, sort_keys=True)

    assert strict_json(cube, "c") == text(by_element)
    assert strict_json(list(cube[0]), "c") == text(by_element[0])
    assert strict_json(cube[1, 2, 3], "c") == text(by_element[1][2][3])
    assert strict_json(np.arange(3.0, dtype=complex), "c") == text(
        [{"re": v, "im": 0.0} for v in (0.0, 1.0, 2.0)])
    assert strict_json(np.arange(3.0), "c") == text([0.0, 1.0, 2.0])  # a float stays a number
    assert strict_json([], "c") == "[]"


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70), _FLOATS,
    st.text(), st.complex_numbers(allow_nan=False, allow_infinity=False),
    _FLOATS.map(np.float64), st.complex_numbers(allow_nan=False, allow_infinity=False).map(
        np.complex128),
)
_ARRAYS = st.one_of(*(
    hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=elements)
    for dtype, elements in (
        (np.float64, _FLOATS),
        (np.complex128, st.complex_numbers(allow_nan=False, allow_infinity=False)),
        (np.int64, st.integers(-(2**63), 2**63 - 1)),
        (np.bool_, st.booleans()),
    )
))
_PAYLOADS = st.recursive(
    st.one_of(_LEAVES, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
_REAL_SPECTRUM = np.linalg.eigvals(np.diag([0.5, 0.2]))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(payload=_PAYLOADS)
@example(payload=[-0.0, 1e16, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  complex(-0.0, 1e16)])
@example(payload={"a": [], "b": {}, "c": (), "d": np.zeros(0), "e": np.zeros((2, 0), complex),
                  "": "\u00e9\U0001f600\n\"", "f": 2**70})
@example(payload={"eigenvalues": np.asarray(_REAL_SPECTRUM, dtype=complex)})
@example(payload=[np.float64(0.1), np.complex128(1 - 2j), np.float64(-0.0)])
@example(payload={"a": 1.0, "n": np.int64(3)})
@example(payload=[np.float32(0.5)])
@example(payload=[np.bool_(True)])
@example(payload={"x": [1.0, float("nan")]})
@example(payload={"x": complex(1.0, float("inf"))})
@example(payload=np.array([[1 + 1j, complex(-np.inf, 0.0)]]))
@example(payload=np.array([-np.inf]))
def test_strict_json_gives_the_text_of_json_dumps_of_the_reference_tree(payload):
    encoded = _outcome(lambda p: strict_json(p, "payload.json"), payload)
    assert encoded == _outcome(_reference, payload)


def test_a_real_spectrum_passed_as_complex_is_written_as_objects():
    assert _REAL_SPECTRUM.dtype == np.float64  # numpy returns a real spectrum real
    text = strict_json(np.asarray(_REAL_SPECTRUM, dtype=complex), "eigenvalues")
    assert json.loads(text) == [{"im": 0.0, "re": 0.5}, {"im": 0.0, "re": 0.2}]
    assert text == json.dumps(complex_json(_REAL_SPECTRUM), indent=2, sort_keys=True)


def test_a_key_that_is_not_a_string_raises_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        strict_json({1: 2.0}, "payload.json")


def _dictionary(*entries):
    return ObservableDictionary(tuple(entries))


def _gap_grid():
    # the x axis stops at 0.65, so wrapping at period 1 leaves a gap
    grid = RegularGrid(
        axes=(np.linspace(0.05, 0.65, 4), np.linspace(0.1, 0.9, 5)), periods=(1.0, 1.0)
    )
    dictionary = _dictionary(
        Observable("cy", "cos", k=(0.0, 1.0)), Observable("z", "fourier", k=(1.0, 1.0))
    )
    return SystemSpec("standard_map"), grid, dictionary, "x,y,g*_1,g*_2,g*_3"


def _diverging():
    spec = SystemSpec("linear_map", {"B": [[2.0, 0.0], [0.0, 0.5]]})
    grid = RegularGrid(axes=(np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 3)))
    dictionary = _dictionary(Observable("x", "coordinate", index=0))
    return spec, grid, dictionary, "x,y,g*_1"


def _one_dimensional():
    grid = RegularGrid(axes=(np.linspace(0.0, 6.0, 7),), periods=(2 * np.pi,))
    dictionary = _dictionary(Observable("z", "phase", k=(1.0,)))
    return SystemSpec("circle_rotation"), grid, dictionary, "x,g*_1,g*_2"


def _five_dimensional():
    spec = SystemSpec("linear_map", {"B": (0.5 * np.eye(5)).tolist()})
    grid = RegularGrid(axes=tuple(np.linspace(-1.0, 1.0, 2) for _ in range(5)))
    dictionary = _dictionary(
        Observable("a", "coordinate", index=0), Observable("e", "coordinate", index=4)
    )
    return spec, grid, dictionary, "coord_0,coord_1,coord_2,coord_3,coord_4,g*_1,g*_2"


@pytest.mark.parametrize(
    "case", [_gap_grid, _diverging, _one_dimensional, _five_dimensional]
)
def test_partition_files_give_savetxt_bytes(tmp_path, case):
    spec, grid, dictionary, header = case()
    field = time_average(dictionary, spec, grid, n=1100)  # 2**1100 overflows
    labeling = ergodic_partition_approx(field, bins_per_obs=3)
    if case is _diverging:
        assert field.diverged.any() and not field.diverged.all()
        assert (labeling.cell_id == -1).any()
    field_rows = np.column_stack([grid_points(grid), *field.channels()])
    want_field = savetxt_bytes(tmp_path, field_rows, header)
    want_labeling = savetxt_bytes(
        tmp_path, np.column_stack([field_rows, labeling.cell_id]), header + ",cell_id"
    )
    labeling.to_csv(tmp_path / "field.csv", tmp_path / "labeling.csv")
    assert (tmp_path / "field.csv").read_bytes() == want_field
    assert (tmp_path / "labeling.csv").read_bytes() == want_labeling
    field.to_csv(tmp_path / "field_alone.csv")
    assert (tmp_path / "field_alone.csv").read_bytes() == want_field


def test_distinct_value_columns_in_a_complex_table_give_savetxt_bytes(tmp_path):
    # a complex column beside them leaves the grid axes and the cell ids,
    # the distinct values of their columns, with their real bytes
    axes = (np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 0.5, 2))
    index = np.unravel_index(np.arange(6), (3, 2))
    rng = np.random.default_rng(4)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    cell_id = np.array([-1, 0, 1, 1, 0, -1])
    table = [*zip(axes, index), values, (np.arange(-1, 2), cell_id + 1)]
    write_csv_files(table, [(tmp_path / "labeling.csv", "x,y,re,im,cell_id", None)])
    rows = split([*grid_points(RegularGrid(axes=axes)).T, values, cell_id])
    assert (tmp_path / "labeling.csv").read_bytes() == savetxt_bytes(
        tmp_path, rows, "x,y,re,im,cell_id"
    )


def test_partition_pair_allocates_blocks_not_the_file(tmp_path):
    grid = RegularGrid.unit_square(400)  # 160k rows, like the mixed benchmark config
    dictionary = _dictionary(
        Observable("cy", "cos", k=(0.0, 1.0)), Observable("c2y", "cos", k=(0.0, 2.0))
    )
    field = time_average(dictionary, SystemSpec("standard_map"), grid, n=2)
    labeling = ergodic_partition_approx(field, bins_per_obs=3)
    tracemalloc.start()
    try:
        labeling.to_csv(tmp_path / "field.csv", tmp_path / "labeling.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "field.csv").stat().st_size + (
        tmp_path / "labeling.csv"
    ).stat().st_size
    assert written > 35e6
    # The grid index arrays (3.8 MB for 160k rows) and a few blocks of row
    # strings peak at about 6 MB; formatting each file whole peaks at 86 MB.
    assert peak < 10e6, peak
