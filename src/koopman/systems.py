"""Benchmark dynamical systems with analytically known Koopman spectral data.

Discrete maps (rotations, standard map, linear maps) are iterated exactly;
continuous flows are integrated with classical fixed-step RK4.  Every system
is defined once, in the _SYSTEMS table, as a function of its coordinate
columns with `sin` and the mod-1 wrap passed in.  The scalar path runs that
definition on python floats (long single trajectories); the batch path runs
it on the columns of a (P, d) state array (grids of initial conditions), so
both paths do the same arithmetic.

Angle coordinates are stored in radians on the real line and are not reduced
during iteration; reduction happens only where a map definition requires it
(the standard map works mod 1) or at observable-evaluation time.  The
pendulum angle is measured from the upright position, so the conserved
energy is H = omega^2/2 + (g/l) cos(theta).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, UsageError

TWO_PI = 2.0 * math.pi


class _System(NamedTuple):
    coords: tuple | None  # None: linear_map, one coordinate per row of B
    defaults: dict  # linear_map's B is a matrix, every other parameter a real
    is_map: bool
    # define(sin, wrap, **params) -> function of the coordinate columns that
    # returns the next state (maps) or the time derivative (flows)
    define: Callable


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


# Every system, written once.  Maps come first, so SYSTEM_KINDS keeps them
# grouped; the order is also the `list-systems` order.
_SYSTEMS = {
    "torus_rotation": _System(
        ("theta1", "theta2"),
        {"omega1": 1.0, "omega2": math.sqrt(2.0)},
        True,
        lambda sin, wrap, omega1, omega2: lambda a, b: (a + omega1, b + omega2),
    ),
    "circle_rotation": _System(
        ("theta",), {"omega": 1.0}, True, lambda sin, wrap, omega: lambda a: (a + omega,)
    ),
    "standard_map": _System(("x", "y"), {"eps": 0.12}, True, _standard_map),
    "linear_map": _System(
        None, {"B": None}, True, lambda sin, wrap, B: lambda *s: B @ np.array(s)
    ),
    "lorenz": _System(
        ("x", "y", "z"),
        {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
        False,
        lambda sin, wrap, sigma, rho, beta: lambda x, y, z: (
            sigma * (y - x),
            x * (rho - z) - y,
            x * y - beta * z,
        ),
    ),
    "limit_cycle_polar": _System(
        ("r", "theta"),
        {"omega": 1.0},
        False,
        lambda sin, wrap, omega: lambda r, th: (r * (1.0 - r * r), omega),
    ),
    "pendulum": _System(
        ("theta", "omega"),
        {"g": 9.81, "l": 1.0},
        False,
        lambda sin, wrap, g, l: lambda th, om: (om, g / l * sin(th)),
    ),
    "duffing_cycle": _System(
        ("x", "y", "theta"),
        {"c": math.sqrt(7.0), "omega": 1.0},
        False,
        lambda sin, wrap, c, omega: lambda x, y, th: (y, x - x * x * x - c * y, omega),
    ),
    "coupled_lc_lorenz": _System(
        ("r", "theta", "x", "y", "z"),
        {"omega": 1.0, "sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
        False,
        lambda sin, wrap, omega, sigma, rho, beta: lambda r, th, x, y, z: (
            (1.0 + 1.0 / (1.0 + x * x + y * y + z * z)) * r * (1.0 - r * r),
            omega,
            sigma * (y - x),
            x * (rho - z) - y,
            x * y - beta * z,
        ),
    ),
    "free_particle": _System(
        ("x", "p"), {"mass": 1.0}, False, lambda sin, wrap, mass: lambda x, p: (p / mass, 0.0)
    ),
}

MAP_KINDS = tuple(kind for kind, system in _SYSTEMS.items() if system.is_map)
FLOW_KINDS = tuple(kind for kind, system in _SYSTEMS.items() if not system.is_map)
SYSTEM_KINDS = MAP_KINDS + FLOW_KINDS


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
            if merged["B"] is None:
                raise UsageError("linear_map requires a square matrix parameter 'B'")
            B = np.asarray(merged["B"], dtype=float)
            if B.ndim != 2 or B.shape[0] != B.shape[1]:
                raise UsageError("linear_map parameter 'B' must be a square matrix")
            merged["B"] = B
        else:
            for name, value in merged.items():
                merged[name] = float(value)
        if self.kind == "standard_map" and merged["eps"] < 0:
            raise UsageError("standard_map requires eps >= 0")
        if self.kind == "pendulum" and merged["l"] <= 0:
            raise UsageError("pendulum requires l > 0")
        if self.kind == "free_particle" and merged["mass"] <= 0:
            raise UsageError("free_particle requires mass > 0")
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
        params = {}
        for name, value in self.params.items():
            if isinstance(value, np.ndarray):
                params[name] = value.tolist()
            else:
                params[name] = value
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj) -> "SystemSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "kind" not in obj:
            raise UsageError("system spec JSON must be an object with a 'kind' field")
        return cls(kind=obj["kind"], params=dict(obj.get("params", {})))


def _states_of(traj) -> np.ndarray:
    """(m, d) float states of a Trajectory or of a bare array of states."""
    states = getattr(traj, "states", traj)
    return np.atleast_2d(np.asarray(states, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states of one run: (m, d) array plus step size.

    dt is 0.0 for maps (the time column is then the step index).  origin
    metadata is optional so synthetic series can still use the type.
    """

    states: np.ndarray
    dt: float = 0.0
    spec: SystemSpec | None = None
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.shape[0] < 1:
            raise UsageError("trajectory must contain at least one state")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def times(self) -> np.ndarray:
        k = np.arange(len(self))
        return k * self.dt if self.dt > 0 else k.astype(float)

    def to_csv(self, path) -> None:
        d = self.states.shape[1]
        header = ",".join(["t"] + [f"coord_{i}" for i in range(d)])
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path, spec=None) -> "Trajectory":
        data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
        t, states = data[:, 0], data[:, 1:]
        dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
        if spec is not None:
            dt = 0.0 if spec.is_map else dt
        elif np.allclose(t, np.round(t)) and (len(t) < 2 or abs(dt - 1.0) < 1e-12):
            # integer step column: read as a map trajectory
            dt = 0.0
        return cls(states=states, dt=dt, spec=spec)


def _scalar(spec: SystemSpec):
    """The system's definition on python floats; returns a tuple of floats."""
    f = _SYSTEMS[spec.kind].define(math.sin, _wrap_scalar, **spec.params)
    if spec.kind == "linear_map":  # B @ s returns an array of numpy scalars
        return lambda *s: tuple(map(float, f(*s)))
    return f


def _wrap_scalar(a):
    return a % 1.0


def _batch(spec: SystemSpec):
    """The system's definition on the columns of a (P, d) array of states."""
    f = _SYSTEMS[spec.kind].define(np.sin, _wrap_batch, **spec.params)
    # constant components (a rotation's omega) broadcast to full columns
    return lambda pts: np.column_stack(np.broadcast_arrays(*f(*pts.T)))


def _wrap_batch(a):
    # a - floor(a) is an exact mod-1 wrap for the |a| < 4 range the standard
    # map produces, and is much cheaper than fmod.  Every definition passes a
    # fresh temporary, so it is wrapped in place.
    a -= np.floor(a)
    return a


def step_map(spec: SystemSpec, s) -> np.ndarray:
    """One iterate of a discrete map at a single state."""
    if not spec.is_map:
        raise UsageError(f"step_map needs a discrete map, got {spec.kind!r}")
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.dim,):
        raise UsageError(f"{spec.kind} state must have dimension {spec.dim}")
    return _batch(spec)(s[None, :])[0]


def step_map_batch(spec: SystemSpec, pts: np.ndarray) -> np.ndarray:
    """One iterate of a discrete map applied to a (P, d) batch of states."""
    if not spec.is_map:
        raise UsageError(f"step_map_batch needs a discrete map, got {spec.kind!r}")
    return _batch(spec)(np.asarray(pts, dtype=float))


def vector_field(spec: SystemSpec, s) -> np.ndarray:
    """Time derivative of a continuous flow at a single state."""
    if spec.is_map:
        raise UsageError(f"vector_field needs a continuous flow, got {spec.kind!r}")
    s = np.asarray(s, dtype=float)
    if s.shape != (spec.dim,):
        raise UsageError(f"{spec.kind} state must have dimension {spec.dim}")
    return _batch(spec)(s[None, :])[0]


def rk4_step_batch(spec: SystemSpec, pts: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of a flow on a (P, d) batch of states."""
    if spec.is_map:
        raise UsageError(f"rk4_step_batch needs a continuous flow, got {spec.kind!r}")
    f = _batch(spec)
    k1 = f(pts)
    k2 = f(pts + 0.5 * dt * k1)
    k3 = f(pts + 0.5 * dt * k2)
    k4 = f(pts + dt * k3)
    return pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(x, step):
    s = 0.0
    for v in x:
        s += v
    # NaN fails both comparisons, +-inf fails one
    if not (-math.inf < s < math.inf):
        raise DivergenceError(step)


def integrate(spec: SystemSpec, s0, dt: float, n_steps: int) -> Trajectory:
    """Run the system for n_steps from s0 and record every state.

    Maps are iterated exactly (dt ignored, stored as 0); flows use classical
    fixed-step RK4 with step dt.  Raises DivergenceError with the offending
    step index if the state leaves the representable range.
    """
    if n_steps < 1:
        raise UsageError("n_steps must be >= 1")
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (spec.dim,):
        raise UsageError(f"{spec.kind} state must have dimension {spec.dim}")

    states = [tuple(float(v) for v in s0)]
    x = states[0]
    if spec.is_map:
        step = _scalar(spec)
        for k in range(n_steps):
            try:
                x = step(*x)
            except OverflowError:
                raise DivergenceError(k + 1) from None
            _check_finite(x, k + 1)
            states.append(x)
        out_dt = 0.0
    else:
        if dt <= 0:
            raise UsageError("flows require dt > 0")
        f = _scalar(spec)
        h, h2, h6 = dt, 0.5 * dt, dt / 6.0
        for k in range(n_steps):
            try:
                a = f(*x)
                b = f(*(xi + h2 * ai for xi, ai in zip(x, a)))
                c = f(*(xi + h2 * bi for xi, bi in zip(x, b)))
                d = f(*(xi + h * ci for xi, ci in zip(x, c)))
            except OverflowError:
                raise DivergenceError(k + 1) from None
            x = tuple(
                xi + h6 * (ai + 2.0 * (bi + ci) + di)
                for xi, ai, bi, ci, di in zip(x, a, b, c, d)
            )
            _check_finite(x, k + 1)
            states.append(x)
        out_dt = dt
    return Trajectory(states=np.array(states), dt=out_dt, spec=spec, initial_state=s0)


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
    values = []

    def m_indices(k, budget):
        if k == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in m_indices(k - 1, budget - head):
                yield (head,) + rest

    for n in range(-N, N + 1):
        for m in m_indices(len(betas), M):
            values.append(1j * n * omega + sum(mj * bj for mj, bj in zip(m, betas)))
    values = np.array(values, dtype=complex)
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
    exponents.  For limit_cycle_polar and duffing_cycle a lattice truncation
    (N, M) may be requested: i*n*omega + m.beta with |n| <= N, |m| <= M.
    """
    p = spec.params
    if N is not None or M is not None:
        if N is None or M is None:
            raise UsageError("lattice request needs both N and M")
        if spec.kind == "limit_cycle_polar":
            return spectral_lattice(p["omega"], [-2.0], N, M)
        if spec.kind == "duffing_cycle":
            return spectral_lattice(
                p["omega"], duffing_fixed_point_eigenvalues(p["c"]), N, M
            )
        raise UsageError(f"no eigenvalue lattice defined for {spec.kind!r}")
    if spec.kind == "torus_rotation":
        return np.exp(1j * np.array([p["omega1"], p["omega2"]]))
    if spec.kind == "circle_rotation":
        return np.exp(1j * np.array([p["omega"]]))
    if spec.kind == "limit_cycle_polar":
        w = p["omega"]
        return np.array([-2.0, 1j * w, -1j * w])
    if spec.kind == "duffing_cycle":
        lam1, lam2 = duffing_fixed_point_eigenvalues(p["c"])
        w = p["omega"]
        return np.array([lam1, lam2, 1j * w, -1j * w])
    if spec.kind == "linear_map":
        return np.linalg.eigvals(p["B"])
    raise UsageError(f"{spec.kind!r} has no analytic spectrum in this catalogue")
