"""Scalar observables on state space and named collections of them.

An observable maps an (m, d) block of states to m complex values.  Each
kind is declared once, in `KINDS`: the field holding its parameter, whether
its values are real, and the function that evaluates it.  Every kind
evaluates on the block's coordinate columns (`StateColumns`): an (m, d)
array is taken apart into views of its columns, and time_average hands its
contiguous columns over as they are.  The k-kinds form k . x on the
columns as k_j * x_j when k has one nonzero entry, and as the (m, d) array
times k otherwise.

  kind        parameter  real  value
  constant    -          yes   1
  coordinate  index      yes   x[index]
  monomial    powers     yes   prod_i x_i**powers[i]   (negative/fractional
                                powers ok where defined; violations raise
                                ObservableDomainError)
  fourier     k          no    exp(i*2*pi*(k . x))     unit-box convention
  phase       k          no    exp(i*(k . x))          coordinates in radians
  sin, cos    k          yes   sin/cos(2*pi*(k . x))
  custom      fn         no    fn(x), for in-memory use only

A vector parameter (k, powers) has one entry per state coordinate.  The
constructor checks each parameter against `_PARAMS` (index: an integer
>= 0; k, powers: a non-empty sequence of real numbers; fn: a callable) and
raises UsageError rather than coercing anything else, or storing a
parameter field that its kind does not read.  Every kind but
custom reads from JSON as {"name", "type", <parameter>}.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ObservableDomainError, UsageError
from .systems import TWO_PI


class StateColumns:
    """An (m, d) block of states, read by its d coordinate columns.

    `columns[j]` is coordinate j as a 1-D array and `shape` is (m, d).
    `matrix` is the (m, d) array the columns are views of, or None when the
    block holds only its columns (time_average's contiguous ones).
    """

    __slots__ = ("columns", "matrix", "shape")

    def __init__(self, columns, matrix: np.ndarray = None):
        self.columns = columns
        self.matrix = matrix
        self.shape = matrix.shape if matrix is not None else (len(columns[0]), len(columns))

    @classmethod
    def of(cls, states: np.ndarray) -> "StateColumns":
        return cls(states.T, states)

    def stacked(self) -> np.ndarray:
        """The block as an (m, d) array: `matrix`, or the columns stacked in C order."""
        return self.matrix if self.matrix is not None else np.column_stack(self.columns)


def _single_nonzero(k: tuple):
    """The index of k's only nonzero entry, or None."""
    nonzero = [j for j, kj in enumerate(k) if kj != 0.0]
    return nonzero[0] if len(nonzero) == 1 else None


def _dot(obs, block) -> np.ndarray:
    """k . x for every state of the block.

    With one nonzero k_j this is k_j * x_j, which on finite states has the
    bits of the (m, d) @ k product: BLAS sums the products from +0.0, so the
    + 0.0 turns a -0.0 product into the +0.0 it gives.  (Where another
    coordinate is inf or NaN the product gives NaN and this does not; such
    states are diverged wherever time_average meets them.)  Any other k goes
    through @, since a column sum rounds differently from BLAS.
    """
    j = _single_nonzero(obs.k)
    if j is None:
        return block.stacked() @ np.asarray(obs.k)
    out = obs.k[j] * block.columns[j]
    out += 0.0
    return out


def _monomial(obs, block) -> np.ndarray:
    out = np.ones(block.shape[0])
    for i, p in enumerate(obs.powers):
        if p == 0.0:
            continue
        base = block.columns[i]
        if p.is_integer():
            if p < 0:
                bad = np.flatnonzero(base == 0.0)
                if bad.size:
                    raise ObservableDomainError(obs.name, int(bad[0]))
            out = out * base ** int(p)
        else:
            bad = np.flatnonzero(base <= 0.0 if p < 0 else base < 0.0)
            if bad.size:
                raise ObservableDomainError(obs.name, int(bad[0]))
            out = out * base ** p
    return out


def _custom(obs, block) -> np.ndarray:
    values = np.asarray(obs.fn(block.stacked()))
    m = block.shape[0]
    if values.shape != (m,):
        raise UsageError(
            f"{obs.name}: custom observable returned shape {values.shape}, expected ({m},)"
        )
    return values


class Kind(NamedTuple):
    param: str | None  # the Observable field holding the kind's parameter
    real: bool  # values are real, so one real channel/accumulator suffices
    values: Callable  # values(observable, StateColumns) -> (m,) array


KINDS = {
    "constant": Kind(None, True, lambda o, c: np.ones(c.shape[0])),
    "coordinate": Kind("index", True, lambda o, c: c.columns[o.index].copy()),
    "monomial": Kind("powers", True, _monomial),
    "fourier": Kind("k", False, lambda o, c: np.exp(1j * TWO_PI * _dot(o, c))),
    "phase": Kind("k", False, lambda o, c: np.exp(1j * _dot(o, c))),
    "sin": Kind("k", True, lambda o, c: np.sin(TWO_PI * _dot(o, c))),
    "cos": Kind("k", True, lambda o, c: np.cos(TWO_PI * _dot(o, c))),
    "custom": Kind("fn", False, _custom),
}


def _index(value):
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    return None


def _real_vector(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or not value:
        return None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value):
        return None
    return tuple(float(v) for v in value)


# parameter field -> (check returning the value to store, or None to reject;
# what a valid value is)
_PARAMS = {
    "index": (_index, "an integer index >= 0"),
    "k": (_real_vector, "a non-empty sequence of real numbers k"),
    "powers": (_real_vector, "a non-empty sequence of real numbers powers"),
    "fn": (lambda value: value if callable(value) else None, "a callable fn"),
}
JSON_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.param != "fn")
REAL_KINDS = frozenset(kind for kind, spec in KINDS.items() if spec.real)


@dataclass(frozen=True)
class Observable:
    name: str
    kind: str
    k: tuple = None
    powers: tuple = None
    index: int = None
    fn: object = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise UsageError("observable needs a non-empty string name")
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise UsageError(f"{self.name}: unknown observable type {self.kind!r}")
        param = KINDS[self.kind].param
        for field in _PARAMS:
            if field != param and getattr(self, field) is not None:
                raise UsageError(f"{self.name}: {self.kind} takes no {field}")
        if param:
            check, valid = _PARAMS[param]
            value = check(getattr(self, param))
            if value is None:
                raise UsageError(
                    f"{self.name}: {self.kind} needs {valid}, got {getattr(self, param)!r}"
                )
            object.__setattr__(self, param, value)

    def __call__(self, states) -> np.ndarray:
        """Values at an (m, d) array of states, or at a StateColumns block."""
        if not isinstance(states, StateColumns):
            states = StateColumns.of(np.atleast_2d(np.asarray(states, dtype=float)))
        d = states.shape[1]
        kind = KINDS[self.kind]
        value = getattr(self, kind.param) if kind.param else None
        if kind.param == "index" and value >= d:
            raise UsageError(f"{self.name}: coordinate index {value} out of range for dim {d}")
        if isinstance(value, tuple) and len(value) != d:  # k or powers
            raise UsageError(
                f"{self.name}: expects dimension {len(value)}, states have dimension {d}"
            )
        # an overflow stays inf (or nan, inf * 0): every fit and score refuses it by name
        with np.errstate(over="ignore", invalid="ignore"):
            return kind.values(self, states)

    @classmethod
    def from_json(cls, obj: dict) -> "Observable":
        if not isinstance(obj, dict) or "name" not in obj or "type" not in obj:
            raise UsageError("observable JSON needs 'name' and 'type' fields")
        params = {key: obj[key] for key in ("k", "powers", "index") if key in obj}
        unknown = [key for key in obj if key not in params and key not in ("name", "type")]
        if unknown:  # "fn" included: a callable is no JSON
            raise UsageError(f"{obj['name']}: unknown observable JSON field {unknown[0]!r}")
        return cls(name=obj["name"], kind=obj["type"], **params)


@dataclass(frozen=True)
class ObservableDictionary:
    """Ordered collection of uniquely named observables."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise UsageError("observable dictionary must not be empty")
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise UsageError(f"duplicate observable names: {dup}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, j) -> Observable:
        return self.entries[j]

    @property
    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"no observable named {name!r}") from None

    def evaluate(self, states, dtype=complex) -> np.ndarray:
        """Stack entry values into the m x N matrix F[l, j] = f_j(x_l).

        F is complex by default.  dtype=float gives the float64 matrix of the
        same real parts, and needs every entry to be of a kind in REAL_KINDS:
        a complex or custom entry raises UsageError rather than losing its
        imaginary part.
        """
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            unreal = [e.name for e in self.entries if e.kind not in REAL_KINDS]
            if unreal:
                raise UsageError(f"real evaluation needs real observable kinds; got {unreal}")
        elif dtype != np.complex128:
            raise UsageError(f"evaluate needs dtype complex or float, got {dtype}")
        states = StateColumns.of(np.atleast_2d(np.asarray(states, dtype=float)))
        F = np.empty((states.shape[0], len(self.entries)), dtype=dtype)
        for j, entry in enumerate(self.entries):
            F[:, j] = entry(states)
        return F

    @classmethod
    def from_json(cls, obj) -> "ObservableDictionary":
        if not isinstance(obj, (list, tuple)):
            raise UsageError("dictionary JSON must be a list of observable objects")
        return cls(tuple(Observable.from_json(e) for e in obj))


def fourier_box(dim: int, kmax: int, kind: str = "fourier") -> ObservableDictionary:
    """All modes with integer wave vectors in [-kmax, kmax]^dim except k=0."""
    if dim < 1 or kmax < 1:
        raise UsageError("fourier_box needs dim >= 1 and kmax >= 1")
    grids = np.meshgrid(*[np.arange(-kmax, kmax + 1)] * dim, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    entries = []
    for k in ks:
        if not np.any(k):
            continue
        tag = ",".join(str(int(v)) for v in k)
        entries.append(Observable(name=f"e[{tag}]", kind=kind, k=tuple(k)))
    return ObservableDictionary(tuple(entries))


def monomial_library(coord_names, max_degree: int) -> ObservableDictionary:
    """All monomials of total degree <= max_degree in graded order, 1 first."""
    names = tuple(coord_names)
    if not names or max_degree < 0:
        raise UsageError("monomial_library needs coordinates and max_degree >= 0")
    dim = len(names)
    all_powers = itertools.product(range(max_degree + 1), repeat=dim)
    graded = sorted(
        (p for p in all_powers if sum(p) <= max_degree),
        key=lambda p: (sum(p), tuple(-v for v in p)),
    )
    entries = []
    for p in graded:
        if sum(p) == 0:
            entries.append(Observable(name="1", kind="constant"))
            continue
        tag = "*".join(
            n if q == 1 else f"{n}^{q}" for n, q in zip(names, p) if q
        )
        entries.append(
            Observable(name=tag, kind="monomial", powers=tuple(float(v) for v in p))
        )
    return ObservableDictionary(tuple(entries))
