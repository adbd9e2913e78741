"""Time averages, harmonic averages, and level-set partitions of state space.

time_average pushes a whole grid of initial conditions through the system,
in row blocks run on a small thread pool, and accumulates per-observable
Cesaro sums; points whose orbit leaves the representable range are flagged
and excluded from labeling downstream.  gla_eigenfunction forms the weighted (harmonic) time average
(1/n) sum_k lambda^-k g(T^k x) along a single long orbit, the standard way
to project data onto a candidate eigenvalue on the unit circle.

Partitions are joint level sets: each real channel of the averaged
observables is split into equal-mass quantile bins and the joint bin tuple
is compacted into a dense cell id.  Complex observables contribute their
real and imaginary parts as separate channels.  Invariance of a labeling
is scored by iterating sample points and checking that labels survive the
dynamics under nearest-grid-point lookup.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ObservableDomainError, UsageError
from .observables import REAL_KINDS as _REAL_KINDS  # kinds with a real accumulator
from .observables import ObservableDictionary
from .systems import SystemSpec, Trajectory, rk4_step_batch, step_map_batch

# Orbits of different grid points never interact, so time_average runs the
# grid in row blocks on a small thread pool (numpy's ufuncs release the GIL).
# Each element meets the same arithmetic in any block, so the field is
# bit-identical to a single-block run.  On a 2-core host blocks of 32768 rows
# beat blocks of 2048 to 16384 rows and of 65536 rows on both the 160k- and
# the 40k-point standard-map grid of the acceptance tests.
_BLOCK_ROWS = 32768
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    8,
)


@dataclass(frozen=True)
class RegularGrid:
    """Cartesian product of uniformly spaced axis values.

    periods[i] set to the domain period makes nearest-index lookup wrap
    modularly on that axis; None clips instead.  Points are ordered like
    numpy's 'ij' meshgrid raveled in C order.
    """

    axes: tuple
    periods: tuple = None

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if not axes or any(a.ndim != 1 or a.size < 1 for a in axes):
            raise UsageError("grid needs at least one non-empty 1D axis per dimension")
        for a in axes:
            if a.size > 1:
                steps = np.diff(a)
                if steps[0] == 0 or np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
                    raise UsageError("grid axes must be uniformly spaced, with distinct points")
        periods = self.periods
        if periods is None:
            periods = (None,) * len(axes)
        if len(periods) != len(axes):
            raise UsageError("need one period entry (or None) per axis")
        if any(p is not None and not p > 0 for p in periods):
            raise UsageError("grid periods must be positive")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "periods", tuple(periods))

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @classmethod
    def unit_square(cls, n: int) -> "RegularGrid":
        """n x n cell-centered grid on [0,1)^2 with both axes periodic."""
        centers = (np.arange(n) + 0.5) / n
        return cls(axes=(centers, centers), periods=(1.0, 1.0))

    def nearest_index(self, pts) -> np.ndarray:
        """Flat index of the nearest grid point; -1 for non-finite input."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx = np.zeros((pts.shape[0], self.dim), dtype=int)
        ok = np.all(np.isfinite(pts), axis=1)
        for d, (axis, period) in enumerate(zip(self.axes, self.periods)):
            # a Python float, so that period / h overflows to inf silently
            h = float(axis[1] - axis[0]) if axis.size > 1 else 1.0
            vals = np.where(ok, pts[:, d], axis[0])
            i = np.round((vals - axis[0]) / h).astype(int)
            if period is not None and np.rint(period / h) == axis.size:
                i %= axis.size
            elif period is not None:
                # the axis leaves a gap before the period wraps: past the
                # last point, the wrapped first point may be the nearer one
                offset = (vals - axis[0]) % period
                i = np.minimum(np.round(offset / h).astype(int), axis.size - 1)
                i[period - offset < offset - (axis[-1] - axis[0])] = 0
            else:
                i = np.clip(i, 0, axis.size - 1)
            idx[:, d] = i
        flat = np.ravel_multi_index(idx.T, self.shape, mode="clip")
        return np.where(ok, flat, -1)


def _grid_points(grid) -> np.ndarray:
    if isinstance(grid, RegularGrid):
        return grid.points
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[0] < 1:
        raise UsageError("grid must contain at least one point")
    return pts


def _advance(spec: SystemSpec, pts: np.ndarray, dt) -> np.ndarray:
    if spec.is_map:
        return step_map_batch(spec, pts)
    return rk4_step_batch(spec, pts, dt)


@dataclass(frozen=True)
class TimeAverageField:
    """Per-grid-point observable averages g*(m) with convergence diagnostics.

    values[p, j] = (1/n) sum_{i<n} f_j(T^i m_p); cesaro[p, j] is the gap
    |avg(n) - avg(n//2)|; diverged marks points whose orbit left the
    representable range (their values are NaN and they get cell id -1).
    """

    values: np.ndarray
    grid: object
    n_iterations: int
    cesaro: np.ndarray
    diverged: np.ndarray
    dictionary: ObservableDictionary

    @property
    def points(self) -> np.ndarray:
        return _grid_points(self.grid)

    def channels(self) -> tuple[np.ndarray, list]:
        """Real labeling channels: one per real observable, two per complex."""
        cols, names = [], []
        for j, obs in enumerate(self.dictionary):
            if obs.kind in _REAL_KINDS:
                cols.append(self.values[:, j].real)
                names.append(obs.name)
            else:
                cols.append(self.values[:, j].real)
                names.append(f"re({obs.name})")
                cols.append(self.values[:, j].imag)
                names.append(f"im({obs.name})")
        return np.column_stack(cols), names

    def to_csv(self, path) -> None:
        pts = self.points
        chan, _ = self.channels()
        header = ",".join(
            list(_coord_names(pts.shape[1]))
            + [f"g*_{c + 1}" for c in range(chan.shape[1])]
        )
        np.savetxt(
            path, np.column_stack([pts, chan]), delimiter=",", header=header, comments=""
        )


def _coord_names(d: int) -> list:
    letters = ["x", "y", "z", "w"]
    return letters[:d] if d <= 4 else [f"coord_{i}" for i in range(d)]


def _average_block(entries, spec: SystemSpec, pts, n: int, dt, sums, half_sums, end,
                   first_row: int, failed: list):
    """Add one block's orbit sums into views of the outputs, in place.

    An ObservableDomainError is recorded in failed as (iteration, entry,
    grid row, error) and ends the block; a block also stops once it has run
    past an iteration at which another block failed.
    """
    half = n // 2
    with np.errstate(all="ignore"):
        for i in range(n):
            if failed and i > min(f[0] for f in failed):
                return
            for j, (total, entry) in enumerate(zip(sums, entries)):
                try:
                    total += entry(pts)
                except ObservableDomainError as err:
                    if first_row:  # name the grid row, not the block row
                        err = ObservableDomainError(err.observable, first_row + err.step)
                    failed.append((i, j, err.step, err))
                    return
            if i + 1 == half:
                for copy, total in zip(half_sums, sums):
                    copy[...] = total
            if i + 1 < n:
                pts = _advance(spec, pts, dt)
    end[...] = pts


def _row_blocks(n_rows: int, entries) -> list:
    """Near-equal row slices, at most _BLOCK_ROWS long, in a multiple of _WORKERS."""
    # a custom observable may look at the whole batch or not be thread-safe
    if _WORKERS == 1 or n_rows <= _BLOCK_ROWS or any(e.kind == "custom" for e in entries):
        return [slice(0, n_rows)]
    count = -(-n_rows // _BLOCK_ROWS)
    count += -count % _WORKERS
    edges = [n_rows * b // count for b in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def time_average(
    dictionary: ObservableDictionary, spec: SystemSpec, grid, n: int, dt: float = None
) -> TimeAverageField:
    """Average each observable over the first n iterates of every grid point.

    Observables are evaluated before each step, so the sum runs over
    T^0 .. T^(n-1).  Flows need a step size dt.  Non-finite orbits are
    carried as NaN and reported in the diverged mask rather than aborting
    the whole field.  An observable leaving its domain raises
    ObservableDomainError for the earliest iteration, then the first entry,
    then the first grid row that fails, whatever the blocking.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if not spec.is_map:
        if dt is None or dt <= 0:
            raise UsageError("flows need dt > 0 for time averages")
    pts = _grid_points(grid).copy()
    if pts.shape[1] != spec.dim:
        raise UsageError(f"grid dimension {pts.shape[1]} does not match {spec.kind}")
    # Accumulate per entry in 1-D columns (real dtype when the entry is
    # real-valued) instead of materializing the full complex evaluation
    # matrix each step; the element-wise addition order is unchanged.
    entries = tuple(dictionary)
    sums = [
        np.zeros(pts.shape[0], dtype=float if e.kind in _REAL_KINDS else complex)
        for e in entries
    ]
    half_sums = [np.empty_like(total) for total in sums]
    end = np.empty_like(pts)
    failed = []

    def run(rows):
        _average_block(entries, spec, pts[rows], n, dt, [t[rows] for t in sums],
                       [t[rows] for t in half_sums], end[rows], rows.start, failed)

    blocks = _row_blocks(pts.shape[0], entries)
    if len(blocks) == 1:
        run(blocks[0])
    else:
        with ThreadPoolExecutor(_WORKERS) as pool:
            list(pool.map(run, blocks))
    if failed:
        raise min(failed, key=lambda f: f[:3])[3]
    pts = end
    half = n // 2
    values = np.stack(sums, axis=1).astype(complex) / n
    if half >= 1:
        cesaro = np.abs(values - np.stack(half_sums, axis=1) / half)
    else:
        cesaro = np.zeros_like(values, dtype=float)
    bad_state = ~np.all(np.isfinite(pts), axis=1)
    bad_value = ~np.all(np.isfinite(values.real) & np.isfinite(values.imag), axis=1)
    diverged = bad_state | bad_value
    values = np.where(diverged[:, None], np.nan + 0j, values)
    return TimeAverageField(
        values=values,
        grid=grid,
        n_iterations=n,
        cesaro=np.asarray(cesaro, dtype=float),
        diverged=diverged,
        dictionary=dictionary,
    )


@dataclass(frozen=True)
class HarmonicAverage:
    """Sliding-window weighted average at a candidate unit-circle eigenvalue.

    samples[j] = (1/n) sum_{k<n} mu^-k g(x_{j+k}) for window length n;
    residual is the empirical eigenvalue-equation defect
    ||phi(shifted) - mu phi|| / ||phi||.
    """

    samples: np.ndarray
    multiplier: complex
    window: int
    residual: float


def gla_eigenfunction(traj, lambda_target: complex, g, window: int = None) -> HarmonicAverage:
    """Project an orbit observable onto a candidate eigenvalue.

    For map trajectories lambda_target is the unit-circle multiplier
    itself; for flow trajectories (dt > 0) it is the purely imaginary
    continuous exponent and the multiplier exp(lambda*dt) is formed here.
    Off-circle multipliers only trigger a warning: the averages then decay
    or blow up instead of converging, which is sometimes worth seeing.
    """
    if isinstance(traj, Trajectory):
        states, dt = traj.states, traj.dt
    else:
        states, dt = np.atleast_2d(np.asarray(traj)), 0.0
    lam = complex(lambda_target)
    if dt > 0:
        if abs(lam.real) > 1e-10:
            warnings.warn(
                "continuous eigenvalue has a real part; harmonic averages "
                "assume a purely imaginary exponent",
                RuntimeWarning,
                stacklevel=2,
            )
        mu = np.exp(lam * dt)
    else:
        mu = lam
    if abs(abs(mu) - 1.0) > 1e-8:
        warnings.warn(
            f"multiplier magnitude {abs(mu):.6g} is off the unit circle; "
            "the weighted average will vanish or diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    values = g(states) if callable(g) else np.asarray(g)
    values = np.asarray(values).reshape(-1)
    m = values.size
    if m != states.shape[0]:
        raise UsageError("observable values must match trajectory length")
    n = window if window is not None else max(m // 2, 1)
    if not 1 <= n <= m:
        raise UsageError(f"window must lie in [1, {m}]")
    # mu^-k built from the angle, not by repeated powers, to avoid drift
    k = np.arange(n)
    weights = np.exp(-1j * k * np.angle(mu)) * (abs(mu) ** (-k) if abs(mu) != 1.0 else 1.0)
    import scipy.signal  # deferred: scipy would dominate `import koopman`

    conv = scipy.signal.fftconvolve(values, weights[::-1])
    samples = conv[n - 1 : m] / n
    if samples.size > 1:
        num = np.linalg.norm(samples[1:] - mu * samples[:-1])
        den = np.linalg.norm(samples)
        residual = float(num / den) if den > 0 else 0.0
    else:
        residual = 0.0
    return HarmonicAverage(samples=samples, multiplier=mu, window=n, residual=residual)


@dataclass(frozen=True)
class PartitionLabeling:
    """Dense cell ids from joint quantile bins of labeling channels.

    cell_id[p] in 0..n_cells-1, or -1 for excluded (diverged) points.
    bin_edges[c] holds the interior quantile edges of channel c.
    """

    cell_id: np.ndarray
    bin_edges: tuple
    channel_names: tuple
    channel_values: np.ndarray
    grid: object

    @property
    def points(self) -> np.ndarray:
        if self.grid is None:
            # orbit-sample labeling: the coordinate is the sample index
            return np.arange(len(self.cell_id), dtype=float)[:, None]
        return _grid_points(self.grid)

    @property
    def n_cells(self) -> int:
        return int(self.cell_id.max()) + 1 if np.any(self.cell_id >= 0) else 0

    def to_csv(self, path) -> None:
        pts = self.points
        header = ",".join(
            list(_coord_names(pts.shape[1]))
            + [f"g*_{c + 1}" for c in range(self.channel_values.shape[1])]
            + ["cell_id"]
        )
        data = np.column_stack([pts, self.channel_values, self.cell_id])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    def to_json(self, invariance_score: float = None) -> dict:
        obj = {"cells": self.n_cells}
        if invariance_score is not None:
            obj["invariance_score"] = float(invariance_score)
        return obj


def _quantile_bins(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-mass binning; returns (bin index per value, interior edges).

    A channel whose whole range sits at rounding-noise level is one level
    set, not many: slicing it by quantiles would assign bins by the noise,
    so such channels collapse to a single bin.
    """
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.zeros(values.shape, dtype=int), np.array([])
    lo, hi = finite.min(), finite.max()
    if hi - lo <= 1e-9 * max(1.0, abs(hi), abs(lo)):
        return np.zeros(values.shape, dtype=int), np.array([])
    qs = np.arange(1, bins) / bins
    edges = np.quantile(finite, qs)
    idx = np.searchsorted(edges, values, side="right")
    idx[~np.isfinite(values)] = 0
    return idx, edges


def ergodic_partition_approx(field: TimeAverageField, bins_per_obs: int) -> PartitionLabeling:
    """Joint equal-mass level sets of the averaged observables.

    Each channel is quantile-split into bins_per_obs bins; a cell is one
    joint bin combination that actually occurs, numbered densely in order
    of first occurrence along the grid.  Diverged points get cell -1.
    """
    if bins_per_obs < 1:
        raise UsageError("bins_per_obs must be >= 1")
    chan, names = field.channels()
    ok = ~field.diverged
    codes = np.zeros((chan.shape[0], chan.shape[1]), dtype=int)
    edges_all = []
    for c in range(chan.shape[1]):
        col = np.where(ok, chan[:, c], np.nan)
        codes[:, c], edges = _quantile_bins(col, bins_per_obs)
        edges_all.append(edges)
    cell = np.full(chan.shape[0], -1, dtype=int)
    if np.any(ok):
        _, first_pos, inverse = np.unique(
            codes[ok], axis=0, return_index=True, return_inverse=True
        )
        # renumber by first occurrence so ids are stable across numpy versions
        rank = np.argsort(np.argsort(first_pos))
        cell[ok] = rank[inverse.reshape(-1)]
    return PartitionLabeling(
        cell_id=cell,
        bin_edges=tuple(edges_all),
        channel_names=tuple(names),
        channel_values=chan,
        grid=field.grid,
    )


def partition_invariance_score(
    labeling: PartitionLabeling,
    spec: SystemSpec,
    n_test: int,
    dt: float = None,
    sample_limit: int = None,
    seed: int = 0,
) -> float:
    """Fraction of (point, step) pairs whose label survives the dynamics.

    Every labeled grid point is advanced n_test steps; after each step the
    nearest grid point's label is compared with the starting label.
    Mapped points that leave the labeled region count as mismatches.
    """
    if n_test < 1:
        raise UsageError("n_test must be >= 1")
    if not spec.is_map and (dt is None or dt <= 0):
        raise UsageError("flows need dt > 0 for invariance testing")
    pts = labeling.points
    labels = labeling.cell_id
    alive = labels >= 0
    idx_alive = np.flatnonzero(alive)
    if idx_alive.size == 0:
        return 0.0
    if sample_limit is not None and idx_alive.size > sample_limit:
        rng = np.random.default_rng(seed)
        idx_alive = rng.choice(idx_alive, size=sample_limit, replace=False)
    start = pts[idx_alive]
    want = labels[idx_alive]
    if isinstance(labeling.grid, RegularGrid):
        lookup = labeling.grid.nearest_index
    else:
        import scipy.spatial  # deferred: RegularGrid labelings never need it

        tree = scipy.spatial.cKDTree(pts)

        def lookup(q):
            finite = np.all(np.isfinite(q), axis=1)
            out = np.full(q.shape[0], -1, dtype=int)
            if np.any(finite):
                _, nearest = tree.query(q[finite])
                out[finite] = nearest
            return out

    hits = 0
    total = 0
    cur = start.copy()
    with np.errstate(all="ignore"):
        for _ in range(n_test):
            cur = _advance(spec, cur, dt)
            nearest = lookup(cur)
            got = np.where(nearest >= 0, labels[np.maximum(nearest, 0)], -2)
            hits += int(np.sum(got == want))
            total += want.size
    return hits / total


@dataclass(frozen=True)
class EigenfunctionPartition:
    """Level sets of one eigenfunction plus their predicted evolution.

    Labels combine |phi| quantile bins with equal-width phase bins.  Under
    the dynamics a level alpha flows to alpha*multiplier; mismatch_rate is
    the fraction of consecutive samples where the observed next label
    differs from that prediction.
    """

    labeling: PartitionLabeling
    multiplier: complex
    mismatch_rate: float


def eigenfunction_partition(
    phi_samples, lam: complex, bins: int, dt: float = None
) -> EigenfunctionPartition:
    """Label orbit samples of an eigenfunction by modulus and phase bins.

    phi_samples are consecutive values along one orbit.  lam is the map
    multiplier, or the continuous exponent when dt is given (the
    multiplier is then exp(lam*dt)).  The evolution rule multiplies a
    sample by the multiplier and re-bins; agreement with the actually
    observed next sample is reported as 1 - mismatch_rate.
    """
    phi = np.asarray(phi_samples, dtype=complex).reshape(-1)
    if phi.size < 2:
        raise UsageError("need at least two eigenfunction samples")
    if bins < 1:
        raise UsageError("bins must be >= 1")
    mu = complex(np.exp(complex(lam) * dt)) if dt else complex(lam)

    mod_idx, mod_edges = _quantile_bins(np.abs(phi), bins)
    phase_edges = np.linspace(-np.pi, np.pi, bins + 1)[1:-1]
    ph_idx = np.searchsorted(phase_edges, np.angle(phi), side="right")
    codes = mod_idx * bins + ph_idx
    _, cell = np.unique(codes, return_inverse=True)

    def label_of(values):
        mi = np.searchsorted(mod_edges, np.abs(values), side="right")
        pi = np.searchsorted(phase_edges, np.angle(values), side="right")
        return mi * bins + pi

    predicted = label_of(mu * phi[:-1])
    actual = codes[1:]
    mismatch = float(np.mean(predicted != actual))
    labeling = PartitionLabeling(
        cell_id=cell,
        bin_edges=(mod_edges, phase_edges),
        channel_names=("|phi|", "arg(phi)"),
        channel_values=np.column_stack([np.abs(phi), np.angle(phi)]),
        grid=None,
    )
    return EigenfunctionPartition(labeling=labeling, multiplier=mu, mismatch_rate=mismatch)
