"""The one owner of artifact encodings: CSV tables, JSON documents and the
complex-number JSON object.  Callers choose the layout (which columns, which
keys); every artifact file of the package is written here.

CSV bytes are those numpy's text-table writer gives with ``delimiter=","``
and ``comments=""``: each value as ``%.18e`` (`` (%.18e+%.18ej)`` for every
value of a complex table), values joined by commas, rows ended by a newline,
and the header line only when it is not empty.  A column is either an array
or a ``(distinct_values, index)`` pair that stands for
``distinct_values[index]``; each distinct value is then formatted once,
however many rows repeat it (the coordinates of a regular grid, a handful of
cell ids).  Rows are formatted in blocks of at most _BLOCK_ROWS rows with one
``%`` per block, so memory stays bounded by a block, not by the file.
Several files may share leading columns: each shared row is formatted once,
and a wider file appends its extra columns to the narrower file's row
strings.  JSON is strict (no NaN or +-inf), indented by two spaces, with
sorted keys; a complex number is the object {"re": ..., "im": ...}.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from .errors import KoopmanError

# Formatting a whole file at once holds every row string together: a fresh
# process running the 160k-point standard-map partition config peaked at
# 145 MB RSS that way, and at 70 MB (as before this writer) in 4096-row
# blocks (numpy 2.4.6, Python 3.11).
_BLOCK_ROWS = 4096
_TEMPLATES = {float: "%.18e", complex: " (%.18e+%.18ej)"}


def _fill(kind, value) -> str:
    if kind is complex:
        # numpy writes a negative imaginary part as "-", not "+-"
        return (_TEMPLATES[kind] % (value.real, value.imag)).replace("+-", "-")
    return _TEMPLATES[kind] % value


def _column(column, kind):
    """(row template, value arrays, formatted distinct values or None)."""
    if isinstance(column, tuple):
        values, index = column
        values = np.asarray(values, dtype=kind).ravel().tolist()
        strings = np.array([_fill(kind, v) for v in values], dtype=object)
        return "%s", [np.asarray(index).reshape(-1)], strings
    data = np.asarray(column, dtype=kind).reshape(-1)  # a view where ravel would copy
    return _TEMPLATES[kind], [data.real, data.imag] if kind is complex else [data], None


def _columns(table) -> list:
    """The columns of a 2-D array (a 1-D array is one column), or a list of them."""
    if isinstance(table, np.ndarray):
        return [table] if table.ndim == 1 else list(table.T)
    return list(table)


def _block_rows(run, rows: slice, lead: str, kind) -> list:
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
    text = "\n".join([row] * n) % tuple(cells.ravel().tolist())
    if kind is complex:
        text = text.replace("+-", "-")
    return text.split("\n")


def write_csv(path, table, header: str = "") -> None:
    """Write a 2-D array, a 1-D array (one column) or a list of columns."""
    write_csv_files(table, [(path, header, None)])


def write_csv_files(table, files) -> None:
    """Write one table to several files that share its leading columns.

    files lists (path, header, width) in order of increasing width; a file
    holds the first `width` columns of `table` (None: all of them).  A path
    may be an open text file, which is written as it is and left open.
    """
    raw = _columns(table)
    kind = complex if any(
        np.iscomplexobj(c[0] if isinstance(c, tuple) else c) for c in raw
    ) else float
    columns = [_column(c, kind) for c in raw]
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
                    more = _block_rows(run, rows, "" if lines is None else ",", kind)
                    lines = more if lines is None else list(map(str.__add__, lines, more))
                fh.write("\n".join(lines) + "\n")


def strict_json(payload, name: str, **layout) -> str:
    """payload as strict JSON text (json.dumps `layout`, compact by default);
    a NaN or +-inf in it raises KoopmanError naming `name`."""
    try:
        return json.dumps(payload, allow_nan=False, **layout)
    except ValueError:  # NaN or +-inf, which JSON has no number for
        raise KoopmanError(f"{name} would hold a non-finite number") from None


def json_writer(payload, name: str):
    """writer(path) of payload as strict JSON, encoded now, before any file is opened."""
    text = strict_json(payload, name, indent=2, sort_keys=True)

    def write(path) -> None:
        with open(path, "w") as fh:
            fh.write(text)

    return write


def write_json(path, payload) -> None:
    """Write payload as strict JSON; a NaN or +-inf in it raises KoopmanError."""
    json_writer(payload, Path(path).name)(path)


def complex_json(z):
    """A complex number as {"re": ..., "im": ...}; an array or a list as nested lists."""
    if isinstance(z, np.ndarray):
        z = z.tolist()
    if isinstance(z, list):
        return [complex_json(v) for v in z]
    z = complex(z)
    return {"re": z.real, "im": z.imag}
