"""The one owner of artifact encodings: CSV tables and JSON documents,
complex numbers included.  Callers choose the layout (which columns, which
keys); every artifact file of the package is written here.

CSV has one rule for complex values: a complex column is written as two
columns, its real part and then its imaginary part.  The bytes are those
numpy's text-table writer gives for the table so split, with
``delimiter=","`` and ``comments=""``: each value as ``%.18e``, values joined
by commas, rows ended by a newline, and the header line only when it is not
empty.  A column is either an array or a ``(distinct_values, index)`` pair
that stands for ``distinct_values[index]``; each distinct value is then
formatted once, both parts of a complex one, however many rows repeat it
(the coordinates of a regular grid, a handful of cell ids).  Rows are
formatted in blocks of at most _BLOCK_ROWS rows with one ``%`` per block, so
memory stays bounded by a block, not by the file.  Several files may share
leading columns: each shared row is formatted once, and a wider file
appends its extra columns to the narrower file's row strings.

JSON text comes from one encoder, strict_json: the text json.dumps gives
with ``indent=2, sort_keys=True, allow_nan=False``, but written straight
from the payload, with a complex number (numpy's complex128 included)
written as the object {"im": ..., "re": ...} and an ndarray as nested lists.
A float stays a number, so a caller whose values must be objects passes
them as complex (an eigenvalue array that numpy returned real, say).
json.dumps falls back to its pure-Python encoder whenever it indents, and
the {"re", "im"} dict it would need per complex number cost more than the
number's text: a 35 kB spectral triple took 2.1 ms that way and 0.65 ms here
(Python 3.11.7, numpy 2.4.6, 2-core host).  A complex array is checked for
NaN and +-inf once, then written number by number.
"""

from __future__ import annotations

import cmath
import math
from contextlib import ExitStack
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import KoopmanError

# Formatting a whole file at once holds every row string together: a fresh
# process running the 160k-point standard-map partition config peaked at
# 145 MB RSS that way, and at 70 MB (as before this writer) in 4096-row
# blocks (numpy 2.4.6, Python 3.11).
_BLOCK_ROWS = 4096


def _column(column):
    """(row template, value arrays, formatted distinct values or None).

    A complex column fills two slots of the row, its .real and then its .imag.
    """
    if isinstance(column, tuple):
        values, index = column
        template, parts, _ = _column(values)
        strings = [template % cell for cell in zip(*[p.tolist() for p in parts])]
        return "%s", [np.asarray(index).reshape(-1)], np.array(strings, dtype=object)
    data = np.asarray(column).reshape(-1)  # a view where ravel would copy
    if np.iscomplexobj(data):
        return "%.18e,%.18e", [data.real, data.imag], None
    return "%.18e", [data.astype(float, copy=False)], None


def _columns(table) -> list:
    """The columns of a 2-D array (a 1-D array is one column), or a list of them."""
    if isinstance(table, np.ndarray):
        return [table] if table.ndim == 1 else list(table.T)
    return list(table)


def _block_rows(run, rows: slice, lead: str) -> list:
    """Row strings of one block of a run of columns, each prefixed by `lead`."""
    if len(run) == 1 and run[0][2] is not None:
        _, (index,), strings = run[0]
        cells = strings[index[rows]].tolist()
        return [lead + s for s in cells] if lead else cells
    slots = []
    for _, parts, strings in run:
        slots += [p[rows] for p in parts] if strings is None else [strings[parts[0][rows]]]
    n = rows.stop - rows.start
    cells = np.empty((n, len(slots)), dtype=object)
    for j, slot in enumerate(slots):
        cells[:, j] = slot
    row = lead + ",".join(template for template, _, _ in run)
    return ("\n".join([row] * n) % tuple(cells.ravel().tolist())).split("\n")


def write_csv(path, table, header: str = "") -> None:
    """Write a 2-D array, a 1-D array (one column) or a list of columns."""
    write_csv_files(table, [(path, header, None)])


def write_csv_files(table, files) -> None:
    """Write one table to several files that share its leading columns.

    files lists (path, header, width) in order of increasing width; a file
    holds the first `width` columns of `table` (None: all of them).  A path
    may be an open text file, which is written as it is and left open.
    """
    columns = [_column(c) for c in _columns(table)]
    widths = [len(columns) if width is None else width for _, _, width in files]
    runs = [columns[a:b] for a, b in zip([0] + widths, widths)]
    n_rows = len(columns[0][1][0]) if columns else 0
    with ExitStack() as stack:
        handles = [fh if hasattr(fh, "write") else stack.enter_context(open(fh, "w"))
                   for fh, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            if header:
                fh.write(header + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, n_rows))
            lines = None
            for fh, run in zip(handles, runs):
                if run:
                    more = _block_rows(run, rows, "" if lines is None else ",")
                    lines = more if lines is None else list(map(str.__add__, lines, more))
                fh.write("\n".join(lines) + "\n")


def strict_json(payload, name: str) -> str:
    """payload as the text of json.dumps(tree, indent=2, sort_keys=True,
    allow_nan=False), tree being payload with each complex number, numpy's
    complex128 included, replaced by {"re": ..., "im": ...} and each ndarray
    by its .tolist(); a NaN or +-inf in it raises KoopmanError naming `name`.

    Dicts need str keys.  Like json.dumps, a type JSON has no value for
    (np.int64, np.float32, np.bool_, ...) raises TypeError.
    """
    return _json(payload, "\n", name)


def _json(o, nl: str, name: str) -> str:
    """o as JSON text whose own lines are indented by `nl` (a newline and spaces)."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise _non_finite(name)
        return float.__repr__(o)
    if isinstance(o, complex):
        if not cmath.isfinite(o):
            raise _non_finite(name)
        return _complex(o, nl)
    if isinstance(o, np.ndarray):
        if o.dtype.kind == "c" and o.ndim:
            if not np.isfinite(o).all():
                raise _non_finite(name)
            return _complex_lists(o.tolist(), o.ndim, nl)
        return _json(o.tolist(), nl, name)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json(v, inner, name) for v in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        if not all(isinstance(k, str) for k in o):
            raise TypeError("JSON object keys must be str")
        items = [f"{encode_basestring_ascii(k)}: {_json(o[k], inner, name)}" for k in sorted(o)]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _complex(z: complex, nl: str) -> str:
    """A finite complex number as the JSON object {"im": ..., "re": ...}."""
    inner = nl + "  "
    return f'{{{inner}"im": {float.__repr__(z.imag)},{inner}"re": {float.__repr__(z.real)}{nl}}}'


def _complex_lists(rows: list, depth: int, nl: str) -> str:
    """_json of the .tolist() of a finite complex array with `depth` axes."""
    if not rows:
        return "[]"
    inner = nl + "  "
    if depth > 1:
        items = [_complex_lists(row, depth - 1, inner) for row in rows]
    else:
        items = [_complex(z, inner) for z in rows]
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _non_finite(name: str) -> KoopmanError:
    return KoopmanError(f"{name} would hold a non-finite number")  # JSON has no NaN or inf


def json_writer(payload, name: str):
    """writer(path) of payload as strict JSON, encoded now, before any file is opened."""
    text = strict_json(payload, name)

    def write(path) -> None:
        with open(path, "w") as fh:
            fh.write(text)

    return write


def write_json(path, payload) -> None:
    """Write payload as strict JSON; a NaN or +-inf in it raises KoopmanError."""
    json_writer(payload, Path(path).name)(path)
