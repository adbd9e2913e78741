"""Benchmark dynamical systems with analytically known Koopman spectral data.

Discrete maps (rotations, standard map, linear maps) are iterated exactly;
continuous flows are integrated with classical fixed-step RK4 (_step_size
decides every step size: 0.0 for a map, a dt > 0 for a flow).  Every system
is defined once, in the _SYSTEMS table: a flow as one expression string per
coordinate, over its coordinate and parameter names and `sin`; a map as a
function of its coordinate columns with `sin` and the mod-1 wrap passed in.
The table also holds each system's parameter bounds and the analytic
spectrum and eigenvalue lattice of the systems that have them, which
known_spectrum reads.  The scalar path runs the definition on python floats
(long single trajectories); the batch path runs it on contiguous 1-D
coordinate columns (grids of initial conditions), so both paths do the same
arithmetic.  One column stepper (_column_step: a map iterate, or one RK4 step
of a flow) does all batch stepping: time_average steps its blocks of columns
with it, partition_invariance_score its labeled points' columns, and
step_map_batch, the one (P, d) API, wraps it for maps.  All scalar stepping runs one orbit loop generated once per system kind
(_orbit_loop), with every coordinate a plain local: a map's step calls its
definition once, and a flow's RK4 step has the flow's expressions written
into it, with the parameters as arguments of the loop.  A loop over state
tuples, or one that called the right-hand side four times per step, would
spend most of its time on calls, generators and tuples rather than on the
floating-point work.

Angle coordinates are stored in radians on the real line and are not reduced
during iteration; reduction happens only where a map definition requires it
(the standard map works mod 1) or at observable-evaluation time.  The
pendulum angle is measured from the upright position, so the conserved
energy is H = omega^2/2 + (g/l) cos(theta).
"""

from __future__ import annotations

import ast
import cmath
import functools
import itertools
import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, UsageError

TWO_PI = 2.0 * math.pi


class _System(NamedTuple):
    coords: tuple | None  # None: linear_map, one coordinate per row of B
    defaults: dict  # linear_map's B is a matrix, every other parameter a real
    # a flow: its time derivative, one expression string per coordinate over
    # the coordinate and parameter names and sin; a map:
    # define(sin, wrap, **params) -> function of the coordinate columns that
    # returns the next state
    define: tuple | Callable
    bounds: dict = {}  # parameter -> the bound of _BOUNDS it must keep
    spectrum: Callable | None = None  # (**params) -> multipliers (maps), exponents (flows)
    lattice: Callable | None = None  # (**params) -> stable betas of i n omega + m . beta

    @property
    def is_map(self) -> bool:
        return callable(self.define)


def _standard_map(sin, wrap, eps):
    def step(x, y):
        # the augmented assignments update the batch path's temporaries in
        # place; on floats they compute the same eps*sin and x+y+kick
        kick = sin(TWO_PI * x)
        kick *= eps
        xn = x + y
        xn += kick
        return wrap(xn), wrap(y + kick)

    return step


_LORENZ = ("sigma * (y - x)", "x * (rho - z) - y", "x * y - beta * z")

# Every system, written once.  Maps come first, so SYSTEM_KINDS keeps them
# grouped; the order is also the `list-systems` order.
_SYSTEMS = {
    "torus_rotation": _System(
        ("theta1", "theta2"),
        {"omega1": 1.0, "omega2": math.sqrt(2.0)},
        lambda sin, wrap, omega1, omega2: lambda a, b: (a + omega1, b + omega2),
        spectrum=lambda omega1, omega2: np.exp(1j * np.array([omega1, omega2])),
    ),
    "circle_rotation": _System(
        ("theta",), {"omega": 1.0}, lambda sin, wrap, omega: lambda a: (a + omega,),
        spectrum=lambda omega: np.exp(1j * np.array([omega])),
    ),
    "standard_map": _System(("x", "y"), {"eps": 0.12}, _standard_map, bounds={"eps": ">= 0"}),
    "linear_map": _System(
        None, {"B": None}, lambda sin, wrap, B: lambda *s: B @ np.array(s),
        spectrum=lambda B: np.linalg.eigvals(B),
    ),
    "lorenz": _System(("x", "y", "z"), {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}, _LORENZ),
    "limit_cycle_polar": _System(
        ("r", "theta"),
        {"omega": 1.0},
        ("r * (1.0 - r * r)", "omega"),
        spectrum=lambda omega: np.array([-2.0, 1j * omega, -1j * omega]),
        lattice=lambda omega: [-2.0],
    ),
    "pendulum": _System(
        ("theta", "omega"), {"g": 9.81, "l": 1.0}, ("omega", "g / l * sin(theta)"),
        bounds={"l": "> 0"},
    ),
    "duffing_cycle": _System(
        ("x", "y", "theta"),
        {"c": math.sqrt(7.0), "omega": 1.0},
        ("y", "x - x * x * x - c * y", "omega"),
        spectrum=lambda c, omega: np.array(
            [*duffing_fixed_point_eigenvalues(c), 1j * omega, -1j * omega]
        ),
        lattice=lambda c, omega: duffing_fixed_point_eigenvalues(c),
    ),
    "coupled_lc_lorenz": _System(
        ("r", "theta", "x", "y", "z"),
        {"omega": 1.0, "sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
        ("(1.0 + 1.0 / (1.0 + x * x + y * y + z * z)) * r * (1.0 - r * r)", "omega", *_LORENZ),
    ),
    "free_particle": _System(
        ("x", "p"), {"mass": 1.0}, ("p / mass", "0.0"), bounds={"mass": "> 0"}
    ),
}
# the bounds a table entry may put on a parameter, beyond being a finite real
_BOUNDS = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}

MAP_KINDS = tuple(kind for kind, system in _SYSTEMS.items() if system.is_map)
FLOW_KINDS = tuple(kind for kind, system in _SYSTEMS.items() if not system.is_map)
SYSTEM_KINDS = MAP_KINDS + FLOW_KINDS


def _finite_real(kind: str, name: str, value) -> float:
    """A real parameter as a float; bools, strings, NaN and +-inf are refused."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # NaN, +-inf, ints beyond floats
        raise UsageError(f"{kind} parameter {name!r} must be a finite real number, got {value!r}")
    return float(value)


def _square_matrix(B) -> np.ndarray:
    """linear_map's B as a float array: square, numeric dtype, finite entries."""
    if B is None:
        raise UsageError("linear_map requires a square matrix parameter 'B'")
    try:
        B = np.asarray(B)
    except ValueError:  # ragged rows
        B = None
    if (B is None or B.dtype.kind not in "iuf" or B.ndim != 2 or B.shape[0] != B.shape[1]
            or not np.all(np.isfinite(B))):
        raise UsageError("linear_map parameter 'B' must be a square matrix of finite reals")
    return B.astype(float)


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system: kind tag plus named real parameters.

    Missing parameters are filled from per-kind defaults; linear_map
    requires an explicit square matrix B.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _SYSTEMS:
            raise UsageError(
                f"unknown system kind {self.kind!r}; known: {', '.join(SYSTEM_KINDS)}"
            )
        defaults = _SYSTEMS[self.kind].defaults
        merged = dict(defaults)
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise UsageError(
                f"{self.kind}: unknown parameter(s) {sorted(unknown)}; "
                f"expected {sorted(defaults)}"
            )
        merged.update(self.params)
        if self.kind == "linear_map":
            merged["B"] = _square_matrix(merged["B"])
        else:
            merged = {name: _finite_real(self.kind, name, v) for name, v in merged.items()}
        for name, bound in _SYSTEMS[self.kind].bounds.items():
            if not _BOUNDS[bound](merged[name]):
                raise UsageError(f"{self.kind} requires {name} {bound}")
        object.__setattr__(self, "params", merged)

    @property
    def is_map(self) -> bool:
        return _SYSTEMS[self.kind].is_map

    @property
    def dim(self) -> int:
        if self.kind == "linear_map":
            return self.params["B"].shape[0]
        return len(_SYSTEMS[self.kind].coords)

    @property
    def coord_names(self) -> tuple:
        names = _SYSTEMS[self.kind].coords
        if names is None:
            return tuple(f"x{i}" for i in range(self.dim))
        return names

    def to_json(self) -> dict:
        params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self.params.items()}
        return {"kind": self.kind, "params": params}


def _states_of(traj) -> np.ndarray:
    """(m, d) float states of a Trajectory or of a bare array of states."""
    states = getattr(traj, "states", traj)
    return np.atleast_2d(np.asarray(states, dtype=float))


def _refuse_bad_dt(dt) -> None:
    """UsageError unless dt is None (a map), 0 (a map) or positive (a flow)."""
    if dt is not None and not dt >= 0:  # NaN included
        raise UsageError(f"dt must be None, 0 or positive, got {dt}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states of one run: (m, d) array plus step size.

    dt is 0.0 for maps, and None reads as 0.0; a NaN or negative dt raises
    UsageError.  spec is optional: sindy_fit names its model's coordinates
    after it.
    """

    states: np.ndarray
    dt: float = 0.0
    spec: SystemSpec | None = None

    def __post_init__(self):
        _refuse_bad_dt(self.dt)
        if self.dt is None:
            object.__setattr__(self, "dt", 0.0)
        states = _states_of(self.states)
        if states.shape[0] < 1:
            raise UsageError("trajectory must contain at least one state")
        object.__setattr__(self, "states", states)


@functools.cache
def _flow_rhs(kind: str, sin):
    """rhs(**params) -> the flow's time derivative as a function of its
    coordinates, compiled from the table's expressions with the given sin
    (math.sin on python floats, np.sin on columns)."""
    system = _SYSTEMS[kind]
    source = (f"def rhs({', '.join(system.defaults)}):\n"
              f"    return lambda {', '.join(system.coords)}: ({', '.join(system.define)},)\n")
    namespace = {"sin": sin}
    exec(compile(source, f"<{kind} right-hand side>", "exec"), namespace)
    return namespace["rhs"]


def _define(spec: SystemSpec, sin, wrap):
    """The system's definition with the given sin and mod-1 wrap."""
    if spec.is_map:
        return _SYSTEMS[spec.kind].define(sin, wrap, **spec.params)
    return _flow_rhs(spec.kind, sin)(**spec.params)


def _scalar(spec: SystemSpec):
    """The system's definition on python floats; returns a tuple of floats."""
    f = _define(spec, math.sin, _wrap_scalar)
    if spec.kind == "linear_map":  # B @ s returns an array of numpy scalars
        return lambda *s: tuple(map(float, f(*s)))
    return f


def _wrap_scalar(a):
    return a % 1.0


def _batch(spec: SystemSpec):
    """The system's definition on 1-D coordinate columns, numpy arithmetic."""
    return _define(spec, np.sin, _wrap_batch)


def _wrap_batch(a):
    # a - floor(a) is an exact mod-1 wrap for the |a| < 4 range the standard
    # map produces, and is much cheaper than fmod.  Every definition passes a
    # fresh temporary, so it is wrapped in place.
    a -= np.floor(a)
    return a


def _step_size(spec: SystemSpec, dt) -> float:
    """The step size a system runs with: a map's is 0.0, whatever dt is; a
    flow's is dt, which must be > 0 (None and NaN are refused too)."""
    if spec.is_map:
        return 0.0
    if dt is None or not dt > 0:
        raise UsageError(f"{spec.kind} is a flow and needs a step size dt > 0, got {dt}")
    return float(dt)


def _column_step(spec: SystemSpec, dt: float = None):
    """step(cols) -> the columns of the next state, from a tuple of 1-D columns.

    A map's step is one iterate, with constant components (a rotation's
    omega) broadcast to full columns.  A flow's is one classical RK4 step of
    size dt, with the element-wise arithmetic of an RK4 step on a (P, d)
    array.  A definition may hand back one of its input columns (the
    pendulum's omega, Duffing's y), so no step writes into a column in place.
    """
    f = _batch(spec)
    if spec.is_map:
        return lambda cols: tuple(np.broadcast_arrays(*f(*cols)))
    h2, h6 = 0.5 * dt, dt / 6.0

    def rk4(cols):
        k1 = f(*cols)
        k2 = f(*[x + h2 * a for x, a in zip(cols, k1)])
        k3 = f(*[x + h2 * b for x, b in zip(cols, k2)])
        k4 = f(*[x + dt * c for x, c in zip(cols, k3)])
        return tuple(
            x + h6 * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(cols, k1, k2, k3, k4)
        )

    return rk4


def _state(spec: SystemSpec, s) -> np.ndarray:
    """s as one float state of spec; UsageError unless it has spec.dim entries."""
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.dim,):
        raise UsageError(f"{spec.kind} state must have dimension {spec.dim}")
    return s


def step_map_batch(spec: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """One iterate of a discrete map applied to a (P, d) batch of states."""
    if not spec.is_map:
        raise UsageError(f"step_map_batch needs a discrete map, got {spec.kind!r}")
    pts = np.asarray(pts, dtype=float)
    # an overflowing step gives inf or NaN, which the caller's checks name
    with np.errstate(over="ignore", invalid="ignore"):
        return np.column_stack(_column_step(spec)(tuple(pts.T)))


# The scalar orbit loop, written out per coordinate: _x0, _x1, ... hold the
# state (the trailing commas let a single coordinate unpack).  A map's step
# is one iterate of its definition f.  A flow's step is the four RK4 stages,
# each the flow's expressions with the coordinates renamed to the stage's
# input (the state, then _y0, _y1, ... = x + h2*a, x + h2*b, x + h*c), and
# the scalar update x + h6*(a + 2(b + c) + d), which rounds differently from
# the batch path's k1 + 2k2 + 2k3 + k4.  The parameters are arguments, so
# one loop serves every parameter set.  The finite check adds the new state
# up from 0.0 in coordinate order, so NaN and +-inf fail it.  A math
# function raises OverflowError on overflow and ValueError outside its
# domain (math.sin(inf)): both mean the step diverged.
_ORBIT_TEMPLATE = """\
def orbit_loop(s0, h, n_steps, {args}):
    {x}, = s0
    h2, h6 = 0.5 * h, h / 6.0
    out = array("d", s0)
    append = out.append
    for k in range(1, n_steps + 1):
        try:
{step}
        except (OverflowError, ValueError):
            raise DivergenceError(k) from None
        if not -inf < 0.0 + {sum_x} < inf:
            raise DivergenceError(k)
        {append}
    return out
"""
_INDENT = " " * 12


def _renamed(expr: str, names: dict) -> str:
    """expr with each variable in names renamed to its value."""
    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = names.get(node.id, node.id)
    return ast.unparse(tree)


# RK4 in stages: (the stage's slopes, the locals it reads the coordinates
# from, the step that takes the state along those slopes to the next input)
_RK4_STAGES = (("_a", "_x", "h2"), ("_b", "_y", "h2"), ("_c", "_y", "h"), ("_d", "_y", None))


def _rk4_step(coords: tuple, rhs: tuple) -> str:
    """The flow slot of the orbit loop: four inlined stages and the update.

    A stage input that no expression reads (a phase that only advances) is
    not computed."""
    read = {node.id for expr in rhs for node in ast.walk(ast.parse(expr, mode="eval"))
            if isinstance(node, ast.Name)}
    lines = []
    for slopes, source, step in _RK4_STAGES:
        names = {name: f"{source}{i}" for i, name in enumerate(coords)}
        lines += [f"{slopes}{i} = {_renamed(expr, names)}" for i, expr in enumerate(rhs)]
        if step:
            lines += [f"_y{i} = _x{i} + {step} * {slopes}{i}"
                      for i, name in enumerate(coords) if name in read]
    lines += [f"_x{i} = _x{i} + h6 * (_a{i} + 2.0 * (_b{i} + _c{i}) + _d{i})"
              for i in range(len(coords))]
    return "\n".join(_INDENT + line for line in lines)


@functools.cache
def _orbit_loop(kind: str, dim: int):
    """orbit_loop(s0, h, n_steps, **args) -> array('d') of the n_steps + 1 states.

    Generated on first use, once per system kind (and dimension, which only
    linear_map's B varies).  A map's loop takes its definition as f; a
    flow's takes the flow's parameters, its expressions being written into
    the RK4 step.  With the coordinates as plain locals, a step builds no
    generators, zips or intermediate tuples and, for a flow, makes no call
    but sin: on python floats those cost more than the arithmetic itself.
    h is the RK4 step size; a map ignores it.
    """
    system = _SYSTEMS[kind]
    xs = [f"_x{i}" for i in range(dim)]
    if system.is_map:
        args, step = "f", f"{_INDENT}{', '.join(xs)}, = f({', '.join(xs)})"
    else:
        args, step = ", ".join(system.defaults), _rk4_step(system.coords, system.define)
    source = _ORBIT_TEMPLATE.format(
        args=args,
        x=", ".join(xs),
        step=step,
        sum_x=" + ".join(xs),
        append="; ".join(f"append({x})" for x in xs),
    )
    namespace = {"array": array, "DivergenceError": DivergenceError, "inf": math.inf,
                 "sin": math.sin}
    exec(compile(source, f"<orbit loop of {kind}, dim {dim}>", "exec"), namespace)
    return namespace["orbit_loop"]


def integrate(spec: SystemSpec, s0, dt: float, n_steps: int) -> Trajectory:
    """Run the system for n_steps from s0 and record every state.

    Maps are iterated exactly (dt ignored, stored as 0); flows use classical
    fixed-step RK4 with step dt.  Raises DivergenceError with the offending
    step index if the state leaves the representable range.
    """
    if n_steps < 1:
        raise UsageError("n_steps must be >= 1")
    s0 = _state(spec, s0)
    dt = _step_size(spec, dt)
    args = {"f": _scalar(spec)} if spec.is_map else spec.params
    # linear_map's step is a numpy product: its overflow is named by the
    # loop's finite check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        buf = _orbit_loop(spec.kind, spec.dim)(tuple(map(float, s0)), dt, n_steps, **args)
    states = np.frombuffer(buf, dtype=float).reshape(n_steps + 1, spec.dim)
    return Trajectory(states=states, dt=dt, spec=spec)


def hamiltonian(s, g: float, l: float):
    """Pendulum energy H = omega^2/2 + (g/l) cos(theta).

    Accepts a single (theta, omega) state or an (m, 2) batch.  With the
    angle measured from the upright position this is conserved exactly
    along the flow.
    """
    s = np.asarray(s, dtype=float)
    theta, omega = s[..., 0], s[..., 1]
    return 0.5 * omega ** 2 + (g / l) * np.cos(theta)


def spectral_lattice(omega: float, betas, N: int, M: int) -> np.ndarray:
    """Eigenvalue lattice {i n omega + m . beta : |n| <= N, m in N^k, |m| <= M}.

    m ranges over multi-indices of the stable exponents betas with
    |m| = sum(m_j) <= M.  Duplicates (exact to 1e-12) are removed.
    """
    if N < 0 or M < 0:
        raise UsageError("lattice truncation requires N, M >= 0")
    betas = [complex(b) for b in betas]
    # lexicographic, as product gives them
    ms = [m for m in itertools.product(range(M + 1), repeat=len(betas)) if sum(m) <= M]
    values = np.array(
        [1j * n * omega + sum(mj * bj for mj, bj in zip(m, betas))
         for n in range(-N, N + 1) for m in ms],
        dtype=complex,
    )
    # dedupe: conjugate beta pairs generate coincident points
    rounded = np.round(values * 1e12) / 1e12
    _, keep = np.unique(rounded, return_index=True)
    return values[np.sort(keep)]


def duffing_fixed_point_eigenvalues(c: float) -> tuple[complex, complex]:
    """Closed-form spiral eigenvalues (-c +- sqrt(c^2 - 8))/2 at (x,y)=(+-1,0)."""
    root = cmath.sqrt(c * c - 8.0)
    return ((-c + root) / 2.0, (-c - root) / 2.0)


def known_spectrum(spec: SystemSpec, N: int | None = None, M: int | None = None) -> np.ndarray:
    """Analytic principal eigenvalues of the system, if it has them.

    Maps return unit-circle multipliers, flows return continuous-time
    exponents, as the system's table entry gives them.  Where the entry
    has a lattice (limit_cycle_polar, duffing_cycle) a truncation (N, M)
    may be requested: i*n*omega + m.beta with |n| <= N, |m| <= M.
    """
    system = _SYSTEMS[spec.kind]
    if N is not None or M is not None:
        if N is None or M is None:
            raise UsageError("lattice request needs both N and M")
        if system.lattice is None:
            raise UsageError(f"no eigenvalue lattice defined for {spec.kind!r}")
        return spectral_lattice(spec.params["omega"], system.lattice(**spec.params), N, M)
    if system.spectrum is None:
        raise UsageError(f"{spec.kind!r} has no analytic spectrum in this catalogue")
    return system.spectrum(**spec.params)
