"""Time averages, harmonic averages, and level-set partitions of state space.

time_average pushes every point of a RegularGrid, its only kind of input,
through the system, in row blocks run on a small thread pool, and
accumulates per-observable Cesaro sums; points whose orbit leaves the
representable range are flagged and excluded from labeling downstream.  A
block carries its states as a tuple of contiguous 1-D coordinate columns,
built straight from the grid's axes: the system's column stepper advances
them and the observables evaluate on them, so no step reads strided columns
of an (m, d) array or stacks one back together.  gla_eigenfunction forms the
weighted (harmonic) time average (1/n) sum_k lambda^-k g(T^k x) along a
single long orbit, the standard way to project data onto a candidate
eigenvalue on the unit circle.

Partitions are joint level sets: each real channel of the averaged
observables is split into equal-mass quantile bins and the joint bin tuple
is compacted into a dense cell id.  Complex observables contribute their
real and imaginary parts as separate channels.  A labeling's invariance is
scored by stepping the coordinate columns of its labeled grid points with
the same column stepper and checking that labels survive the dynamics under
nearest-grid-point lookup.  PartitionLabeling.to_csv is the one writer of
field.csv and labeling.csv: it formats each shared row once for both files.

eigenfunction_partition cuts orbit samples of one eigenfunction into
modulus-quantile and phase bins with one labeler, which labels the samples
and their predicted images mu * phi alike.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_csv_files
from .embedding import _refuse_non_finite
from .errors import DivergenceError, ObservableDomainError, UsageError, warn
from .observables import REAL_KINDS as _REAL_KINDS  # kinds with a real accumulator
from .observables import ObservableDictionary
from .systems import SystemSpec, _column_step, _refuse_bad_dt, _states_of, _step_size

# Orbits of different grid points never interact, so time_average runs the
# grid in row blocks on a small thread pool (numpy's ufuncs release the GIL).
# Each element meets the same arithmetic in any block, so the field is
# bit-identical to a single-block run.  With blocks of coordinate columns, on
# a 2-core host at n = 300, blocks of 16384, 32768 and 65536 rows took a
# median 1.82, 1.80 and 1.77 s on the 160k-point standard-map grid (inside
# one another's quartiles) and 0.231, 0.207 and 0.336 s on the 40k-point
# one, which 65536 leaves as a single block on one thread.  Every host runs
# the blocks, a one-CPU host on its one thread: pinned to one CPU (n = 300,
# 10 runs each), the 160k-point grid took 2.17-2.56 s in 5 blocks and
# 2.60-2.79 s as one block, the 40k-point one 0.23-0.29 s in 2 blocks and
# 0.24-0.29 s as one, with the same bits.
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
        if not all(np.all(np.isfinite(a)) for a in axes):
            raise UsageError("grid axis values must be finite")
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

    @classmethod
    def unit_square(cls, n: int) -> "RegularGrid":
        """n x n cell-centered grid on [0,1)^2 with both axes periodic."""
        centers = (np.arange(n) + 0.5) / n
        return cls(axes=(centers, centers), periods=(1.0, 1.0))

    def nearest_index(self, cols: tuple) -> np.ndarray:
        """Flat index of the grid point nearest each point of cols, a tuple of
        1-D coordinate columns, one per axis; -1 where a coordinate is not finite.

        Indices are rounded, wrapped and clipped as floats and cast last: a
        point far past a clipped axis takes its end point, and a periodic
        coordinate whose offset overflows (it has no phase left) index 0.
        """
        if not isinstance(cols, tuple) or len(cols) != self.dim:
            raise UsageError(f"nearest_index needs a tuple of {self.dim} coordinate columns")
        cols = [np.asarray(c, dtype=float) for c in cols]
        ok = np.logical_and.reduce([np.isfinite(c) for c in cols])
        idx = []
        for vals, axis, period in zip(cols, self.axes, self.periods):
            # a Python float, so that period / h overflows to inf silently
            h = float(axis[1] - axis[0]) if axis.size > 1 else 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                offset = np.where(ok, vals, axis[0]) - axis[0]
                if period is not None and np.rint(period / abs(h)) == axis.size:
                    i = np.round(offset / h) % axis.size
                elif period is not None:
                    # the axis leaves a gap before the period wraps: past the
                    # last point, the wrapped first point may be the nearer one;
                    # offsets are taken along the axis, which may decrease
                    offset = (offset if h > 0 else -offset) % period
                    i = np.minimum(np.round(offset / abs(h)), axis.size - 1)
                    i[period - offset < offset - abs(axis[-1] - axis[0])] = 0
                else:
                    i = np.clip(np.round(offset / h), 0, axis.size - 1)
            idx.append(np.nan_to_num(i).astype(int))
        return np.where(ok, np.ravel_multi_index(idx, self.shape, mode="clip"), -1)


@dataclass(frozen=True)
class TimeAverageField:
    """Per-grid-point observable averages g*(m) with convergence diagnostics.

    values[p, j] = (1/n) sum_{i<n} f_j(T^i m_p); cesaro[p, j] is the gap
    |avg(n) - avg(n//2)|; diverged marks points whose orbit left the
    representable range (their values and cesaro gaps are NaN, and they get
    cell id -1).
    """

    values: np.ndarray
    grid: RegularGrid
    cesaro: np.ndarray
    diverged: np.ndarray
    dictionary: ObservableDictionary

    def channels(self) -> list:
        """Real labeling channels as 1-D views of values: one per real
        observable, re and im per complex one."""
        cols = []
        for j, obs in enumerate(self.dictionary):
            cols.append(self.values[:, j].real)
            if obs.kind not in _REAL_KINDS:
                cols.append(self.values[:, j].imag)
        return cols

    def to_csv(self, path) -> None:
        write_csv(path, *_table(_point_columns(self.grid), self.channels()))


def _coord_names(d: int) -> list:
    letters = ["x", "y", "z", "w"]
    return letters[:d] if d <= 4 else [f"coord_{i}" for i in range(d)]


def _point_columns(grid: RegularGrid) -> list:
    """Coordinate columns of the grid points, as (axis, index) pairs."""
    index = np.unravel_index(np.arange(int(np.prod(grid.shape))), grid.shape)
    return list(zip(grid.axes, index))


def _table(points: list, channels: list) -> tuple[list, str]:
    """Columns and header of field.csv: the coordinates, then g*_1, g*_2, ..."""
    names = _coord_names(len(points)) + [f"g*_{c + 1}" for c in range(len(channels))]
    return points + channels, ",".join(names)


def _id_column(ids: np.ndarray) -> tuple:
    """Integer ids as a (distinct values, index) column."""
    low = int(ids.min())
    return np.arange(low, int(ids.max()) + 1), ids - low


def _grid_stepper(spec: SystemSpec, dt, grid: RegularGrid):
    """The column stepper of spec at its step size, for a grid of spec's dimension.

    The step size is checked first, then the grid's dimension (UsageError).
    """
    step = _column_step(spec, _step_size(spec, dt))
    if grid.dim != spec.dim:
        raise UsageError(f"grid dimension {grid.dim} does not match {spec.kind}")
    return step


def _row_blocks(n_rows: int, entries) -> list:
    """Near-equal row slices, at most _BLOCK_ROWS long, in a multiple of _WORKERS.

    A one-CPU host gets the blocks too (see _BLOCK_ROWS for its timings).
    """
    # a custom observable may look at the whole batch or not be thread-safe
    if n_rows <= _BLOCK_ROWS or any(e.kind == "custom" for e in entries):
        return [slice(0, n_rows)]
    count = -(-n_rows // _BLOCK_ROWS)
    count += -count % _WORKERS
    edges = [n_rows * b // count for b in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def time_average(
    dictionary: ObservableDictionary, spec: SystemSpec, grid: RegularGrid, n: int, dt: float = None
) -> TimeAverageField:
    """Average each observable over the first n iterates of every grid point.

    Observables are evaluated before each step, so the sum runs over
    T^0 .. T^(n-1).  grid must be a RegularGrid of the system's dimension
    (anything else raises UsageError).  Flows need a step size dt.
    Non-finite orbits are carried as NaN and reported in the diverged mask.
    An observable leaving its domain raises ObservableDomainError for the
    earliest iteration, then the first entry, then the first grid row that
    fails, whatever the blocking.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if not isinstance(grid, RegularGrid):
        raise UsageError(f"time_average needs a RegularGrid, not {type(grid).__name__}")
    step = _grid_stepper(spec, dt, grid)
    columns = _point_columns(grid)
    n_rows = int(np.prod(grid.shape))
    # Accumulate per entry in 1-D columns (real dtype when the entry is
    # real-valued) instead of materializing the full complex evaluation
    # matrix each step; the element-wise addition order is unchanged.
    entries = tuple(dictionary)
    sums = [
        np.zeros(n_rows, dtype=float if e.kind in _REAL_KINDS else complex) for e in entries
    ]
    half_sums = [np.empty_like(total) for total in sums]
    finite_end = np.empty(n_rows, dtype=bool)
    failed = []  # (iteration, entry, grid row, ObservableDomainError)
    half = n // 2

    def run(rows):
        # Adds one block's orbit sums into views of the outputs.  A domain error
        # ends the block, which also stops past an iteration where another failed.
        # The start columns are contiguous copies taken from the axes.
        block = tuple(axis[index[rows]] for axis, index in columns)
        totals = [t[rows] for t in sums]
        with np.errstate(all="ignore"):
            for i in range(n):
                if failed and i > min(f[0] for f in failed):
                    return
                for j, (total, entry) in enumerate(zip(totals, entries)):
                    try:
                        total += entry(block)
                    except ObservableDomainError as err:
                        if rows.start:  # name the grid row, not the block row
                            err = ObservableDomainError(err.observable, rows.start + err.step)
                        failed.append((i, j, err.step, err))
                        return
                if i + 1 == half:
                    for copy, total in zip(half_sums, totals):
                        copy[rows] = total
                if i + 1 < n:
                    block = step(block)
        finite_end[rows] = np.logical_and.reduce([np.isfinite(c) for c in block])

    # a pool starts a thread per pending block, so a custom observable's single
    # block (see _row_blocks) runs on one thread and sees the whole grid
    with ThreadPoolExecutor(_WORKERS) as pool:
        list(pool.map(run, _row_blocks(n_rows, entries)))
    if failed:
        raise min(failed, key=lambda f: f[:3])[3]
    # an inf sum makes complex division warn; its row is diverged and masked
    with np.errstate(all="ignore"):
        values = np.stack(sums, axis=1).astype(complex) / n
        if half >= 1:
            cesaro = np.abs(values - np.stack(half_sums, axis=1) / half)
        else:
            cesaro = np.zeros(values.shape)
    bad_value = ~np.all(np.isfinite(values.real) & np.isfinite(values.imag), axis=1)
    # Non-finite states are absorbing in every system, so a row whose orbit
    # met one ends non-finite: such a row may carry finite sums (k_j * x_j
    # skips the 0 * inf a matrix product would meet), and its values and
    # cesaro gaps are masked here.
    diverged = ~finite_end | bad_value
    return TimeAverageField(
        values=np.where(diverged[:, None], np.nan + 0j, values),
        grid=grid,
        cesaro=np.where(diverged[:, None], np.nan, cesaro),
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


def _multiplier(lam: complex, dt) -> complex:
    """The map multiplier: lam itself for a map (dt None or 0), exp(lam*dt) for dt > 0."""
    _refuse_bad_dt(dt)
    return np.exp(lam * dt) if dt else lam


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, or n itself for n <= 12.

    This is the length pocketfft pads a complex transform to (its
    good_size_cmplx), which scipy.fft.next_fast_len(n, False) returns.
    """
    if n <= 12:
        return n
    best = 1 << (n - 1).bit_length()  # the next power of two
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p = p5  # each odd 3,5,7,11-smooth p, times the least 2^a reaching n
                while p < best:
                    padded = p << ((n - 1) // p).bit_length()
                    if padded < best:
                        best = padded
                    p *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _spectrum(x: np.ndarray, size: int) -> np.ndarray:
    """The DFT of x zero-padded to size, with scipy.fft.fftn's bits.

    Like pocketfft's complex transform in scipy, a real x takes the real
    transform, and each entry k of that half spectrum is conjugated into
    entry -k. Entry 0 (and size/2 for even sizes) is its own mirror, so its
    zero imaginary part turns to -0.0.
    """
    if np.iscomplexobj(x):
        return np.fft.fft(x, size)
    half = np.fft.rfft(x, size)
    full = np.empty(size, dtype=half.dtype)
    full[: half.size] = half
    full[-np.arange(half.size) % size] = np.conj(half)
    return full


def gla_eigenfunction(traj, lambda_target: complex, g, window: int = None) -> HarmonicAverage:
    """Project an orbit observable onto a candidate eigenvalue.

    For map trajectories lambda_target is the unit-circle multiplier
    itself; for flow trajectories (dt > 0) it is the purely imaginary
    continuous exponent and the multiplier exp(lambda*dt) is formed here;
    a negative or NaN dt raises UsageError.
    Off-circle multipliers only trigger a warning: the averages then decay
    or blow up instead of converging, which is sometimes worth seeing.
    Weights mu^-k or samples that leave the float range raise
    DivergenceError instead, with step the first k whose weight is not
    finite (or, for finite weights, the first non-finite sample), and so
    does a residual that leaves it, with step the first k whose defect
    phi_(k+1) - mu phi_k is not finite (0 when only the norm overflows).
    """
    states, dt = _states_of(traj), getattr(traj, "dt", 0.0)
    lam = complex(lambda_target)
    mu = _multiplier(lam, dt)
    values = g(states) if callable(g) else np.asarray(g)
    values = np.asarray(values).reshape(-1)
    # integer and single-precision values are transformed as float64 (complex128)
    values = values.astype(np.result_type(values.dtype, np.float64), copy=False)
    m = values.size
    if m != states.shape[0]:
        raise UsageError("observable values must match trajectory length")
    n = window if window is not None else max(m // 2, 1)
    if not 1 <= n <= m:
        raise UsageError(f"window must lie in [1, {m}]")
    # The sliding sums are the "full" convolution of the values with the
    # reversed weights, formed as scipy.signal.fftconvolve forms it for two
    # 1-D inputs: a length-1 input is a plain product, and otherwise the
    # complex FFTs run at the length next_fast_len(m + n - 1). numpy's
    # pocketfft gives scipy.fft's bits on float64 and complex128 input, so
    # the samples keep fftconvolve's bits without loading scipy.
    k = np.arange(n)
    with np.errstate(all="ignore"):  # non-finite weights and samples are raised below
        # mu^-k built from the angle, not by repeated powers, to avoid drift
        weights = np.exp(-1j * k * np.angle(mu)) * abs(mu) ** (-k)
        if m == 1 or n == 1:
            conv = values * weights[::-1]
        else:
            size = _next_fast_len(m + n - 1)
            spectrum = _spectrum(values, size) * np.fft.fft(weights[::-1], size)
            conv = np.fft.ifft(spectrum, size)
        samples = conv[n - 1 : m] / n
    for name, series in (("weight mu^-k", weights), ("average", samples)):
        finite = np.isfinite(series)
        if not finite.all():
            step = int(np.argmin(finite))
            raise DivergenceError(
                step,
                f"harmonic {name} is not finite from index {step} "
                f"for |mu|={abs(mu):.6g}, window {n}",
            )
    with np.errstate(all="ignore"):  # a non-finite residual is raised below
        defect = samples[1:] - mu * samples[:-1]
        den = np.linalg.norm(samples)
        residual = float(np.linalg.norm(defect) / den) if den > 0 else 0.0
    if not np.isfinite(residual):
        step = int(np.argmin(np.isfinite(defect)))  # 0 when only the norm overflows
        raise DivergenceError(step, f"harmonic residual is not finite from index {step} "
                                    f"for |mu|={abs(mu):.6g}, window {n}")
    # warned only once the averages and their residual exist, so no warning
    # precedes an error
    if dt > 0 and abs(lam.real) > 1e-10:
        warn("continuous eigenvalue has a real part; harmonic averages "
             "assume a purely imaginary exponent")
    if abs(abs(mu) - 1.0) > 1e-8:
        warn(f"multiplier magnitude {abs(mu):.6g} is off the unit circle; "
             "the weighted average will vanish or diverge")
    return HarmonicAverage(samples=samples, multiplier=mu, window=n, residual=residual)


@dataclass(frozen=True)
class PartitionLabeling:
    """Dense cell ids from joint quantile bins of the channels of field.

    cell_id[p] in 0..n_cells-1, or -1 for excluded (diverged) points.
    bin_edges[c] holds the interior quantile edges of channel c of
    field.channels(); field is the time-average field the cells were cut from.
    """

    cell_id: np.ndarray
    bin_edges: tuple
    field: TimeAverageField

    @property
    def grid(self) -> RegularGrid:
        return self.field.grid

    @property
    def n_cells(self) -> int:
        return int(self.cell_id.max()) + 1 if np.any(self.cell_id >= 0) else 0

    def to_csv(self, field_path, labeling_path) -> None:
        """Write field.csv and labeling.csv in one pass over the rows.

        labeling.csv repeats every column of field.csv and adds cell_id, so
        each shared row is formatted once, written to field.csv and extended
        for labeling.csv.
        """
        columns, header = _table(_point_columns(self.grid), self.field.channels())
        write_csv_files(
            columns + [_id_column(self.cell_id)],
            [(field_path, header, len(columns)), (labeling_path, header + ",cell_id", None)],
        )

    def to_json(self, invariance_score: float) -> dict:
        return {"cells": self.n_cells, "invariance_score": float(invariance_score)}


def _quantile_bins(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-mass binning; returns (bin index per value, interior edges).

    A channel whose whole range sits at rounding-noise level is one level
    set, not many: slicing it by quantiles would assign bins by the noise,
    so such channels collapse to a single bin.
    """
    finite = values[np.isfinite(values)]
    with np.errstate(over="ignore"):  # a range beyond the float range is inf: not flat
        flat = finite.size == 0 or np.ptp(finite) <= 1e-9 * max(1.0, np.abs(finite).max())
    if flat:
        return np.zeros(values.shape, dtype=int), np.array([])
    qs = np.arange(1, bins) / bins
    edges = np.quantile(finite, qs)
    idx = np.searchsorted(edges, values, side="right")
    idx[~np.isfinite(values)] = 0
    return idx, edges


def _cell_ids(codes, bins: int) -> np.ndarray:
    """Dense ids of the distinct code tuples across equal-length 1-D code
    columns, by first occurrence.

    Codes lie in 0..bins-1.  The columns are folded into one 1-D joint code
    one at a time, renumbered densely after each fold, so the code stays
    below m * bins however many columns there are.
    """
    joint = np.zeros(codes[0].size, dtype=np.int64)
    for column in codes:
        _, first_pos, joint = np.unique(
            joint * bins + column, return_index=True, return_inverse=True
        )
    # renumber by first occurrence so ids are stable across numpy versions
    rank = np.argsort(np.argsort(first_pos))
    return rank[joint]


def ergodic_partition_approx(field: TimeAverageField, bins_per_obs: int) -> PartitionLabeling:
    """Joint equal-mass level sets of the averaged observables.

    Each channel is quantile-split into bins_per_obs bins; a cell is one
    joint bin combination that actually occurs, numbered densely in order
    of first occurrence along the grid.  Diverged points get cell -1.
    """
    if bins_per_obs < 1:
        raise UsageError("bins_per_obs must be >= 1")
    ok = ~field.diverged  # the rows left are finite
    codes, edges = zip(*[_quantile_bins(chan[ok], bins_per_obs) for chan in field.channels()])
    cell = np.full(ok.size, -1, dtype=int)
    if np.any(ok):
        cell[ok] = _cell_ids(codes, bins_per_obs)
    return PartitionLabeling(cell_id=cell, bin_edges=edges, field=field)


def partition_invariance_score(
    labeling: PartitionLabeling,
    spec: SystemSpec,
    n_test: int,
    dt: float = None,
    sample_limit: int = None,
    seed: int = 0,
) -> float:
    """Fraction of (point, step) pairs whose label survives the dynamics.

    The coordinate columns of every labeled grid point (or of sample_limit
    of them, drawn with seed) are advanced n_test steps; after each step
    the nearest grid point's label is compared with the starting label.
    Mapped points that leave the labeled region count as mismatches; on a
    clipped axis, points mapped far off take its last (or first) point.  A
    grid of another dimension than the system's raises UsageError.
    """
    if n_test < 1:
        raise UsageError("n_test must be >= 1")
    if sample_limit is not None and sample_limit < 1:
        raise UsageError("sample_limit must be >= 1")
    grid = labeling.grid
    step = _grid_stepper(spec, dt, grid)
    labels = labeling.cell_id
    rows = np.flatnonzero(labels >= 0)
    if rows.size == 0:
        return 0.0
    if sample_limit is not None and rows.size > sample_limit:
        rng = np.random.default_rng(seed)
        rows = rng.choice(rows, size=sample_limit, replace=False)
    cols = tuple(axis[index[rows]] for axis, index in _point_columns(grid))
    want = labels[rows]
    hits = 0
    with np.errstate(all="ignore"):
        for _ in range(n_test):
            cols = step(cols)
            nearest = grid.nearest_index(cols)
            got = np.where(nearest >= 0, labels[np.maximum(nearest, 0)], -2)
            hits += int(np.sum(got == want))
    return hits / (n_test * want.size)


@dataclass(frozen=True)
class EigenfunctionPartition:
    """Level sets of one eigenfunction plus their predicted evolution.

    cell_id[k] is sample k's dense cell id, from |phi| quantile bins and
    equal-width phase bins (interior edges in bin_edges).  A level alpha
    flows to alpha*multiplier; mismatch_rate is the fraction of consecutive
    samples where the observed next label differs from that prediction.
    """

    cell_id: np.ndarray
    bin_edges: tuple
    multiplier: complex
    mismatch_rate: float


def eigenfunction_partition(
    phi_samples, lam: complex, bins: int, dt: float = None
) -> EigenfunctionPartition:
    """Label orbit samples of an eigenfunction by modulus and phase bins.

    phi_samples are consecutive values along one orbit.  lam is the map
    multiplier, or the continuous exponent when dt > 0 is given (the
    multiplier is then exp(lam*dt)); a negative or NaN dt raises
    UsageError, and a NaN or +-inf sample PreconditionError.  The evolution
    rule multiplies a sample by the multiplier and re-bins; agreement with
    the actually observed next sample is reported as 1 - mismatch_rate.  A
    prediction within 1e-9 |phi_{k+1}| of the next sample is a match whatever
    its bin: there the labels differ only by the rounding of a sample that
    lies on a bin edge.  A prediction that leaves the float range is a
    mismatch.
    """
    phi = np.asarray(phi_samples).reshape(-1)
    if phi.size < 2:
        raise UsageError("need at least two eigenfunction samples")
    if bins < 1:
        raise UsageError("bins must be >= 1")
    mu = complex(_multiplier(complex(lam), dt))
    _refuse_non_finite(phi[:, None], "eigenfunction sample")
    phi = phi.astype(complex)

    mod_edges = _quantile_bins(np.abs(phi), bins)[1]
    phase_edges = np.linspace(-np.pi, np.pi, bins + 1)[1:-1]

    def label_of(values):
        mi = np.searchsorted(mod_edges, np.abs(values), side="right")
        pi = np.searchsorted(phase_edges, np.angle(values), side="right")
        return mi * bins + pi

    codes = label_of(phi)
    _, cell = np.unique(codes, return_inverse=True)
    # a prediction past the float range (inf, or nan from inf - inf inside a
    # complex product) is a mismatch, and an overflowed gap no rounding
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = mu * phi[:-1]
        rounding = np.abs(predicted - phi[1:]) <= 1e-9 * np.abs(phi[1:])
    missed = (label_of(predicted) != codes[1:]) | ~np.isfinite(predicted)
    mismatch = float(np.mean(missed & ~rounding))
    return EigenfunctionPartition(cell_id=cell, bin_edges=(mod_edges, phase_edges),
                                  multiplier=mu, mismatch_rate=mismatch)
