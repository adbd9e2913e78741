"""Time-delay embedding and Hankel-style snapshot matrices.

Snapshot convention is column-major: each column of X, Xp is one time
sample, rows index observables.  hankel_pair delay-embeds a scalar or
vector series and pairs consecutive delay vectors with
SnapshotPair.from_series, as any other series is paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UsageError


def _refuse_non_finite(M: np.ndarray, what: str = "value") -> None:
    """PreconditionError naming the first non-finite entry of M, whose rows are samples."""
    if not np.all(np.isfinite(M)):  # an SVD or lstsq of it would give NaN or fail
        l, j = np.argwhere(~np.isfinite(M))[0]
        raise PreconditionError(f"non-finite {what} {M[l, j]} in entry {j} "
                                f"at sample {l}; rescale the data")


@dataclass(frozen=True)
class SnapshotPair:
    """Matrices X, Xp of observable values at consecutive times.

    Columns are time samples; Xp is X advanced one step.  A non-finite
    value in either raises PreconditionError naming its column.
    """

    X: np.ndarray
    Xp: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X))
        Xp = np.atleast_2d(np.asarray(self.Xp))
        if X.shape != Xp.shape:
            raise UsageError(f"snapshot shapes differ: {X.shape} vs {Xp.shape}")
        if X.shape[1] < 1:
            raise UsageError("snapshot pair needs at least one column")
        _refuse_non_finite(X.T, "X value")
        _refuse_non_finite(Xp.T, "Xp value")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Xp", Xp)

    @property
    def n_observables(self) -> int:
        return self.X.shape[0]

    @classmethod
    def from_series(cls, series) -> "SnapshotPair":
        """Pair consecutive samples of a (m, n) series: X = rows 0..m-2.

        A non-finite value raises PreconditionError naming its series sample.
        """
        arr = np.asarray(series)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] < 2:
            raise UsageError("need at least two samples to form a snapshot pair")
        _refuse_non_finite(arr)
        return cls(X=arr[:-1].T, Xp=arr[1:].T)


def delay_embed(series, N: int, stride: int = 1) -> np.ndarray:
    """Stack each sample with its N forward delays.

    Element k of the result is the concatenation
    (series[k], series[k+stride], ..., series[k+N*stride]); scalars give
    rows of length N+1, vector samples of width w give rows of (N+1)*w.
    """
    if N < 0:
        raise UsageError("number of delays must be >= 0")
    if stride < 1:
        raise UsageError("stride must be >= 1")
    arr = np.asarray(series)
    scalar_input = arr.ndim == 1
    if scalar_input:
        arr = arr[:, None]
    m = arr.shape[0]
    out_len = m - N * stride
    if out_len <= 0:
        raise UsageError(
            f"series of length {m} too short for {N} delays at stride {stride}"
        )
    blocks = [arr[j * stride : j * stride + out_len] for j in range(N + 1)]
    out = np.concatenate(blocks, axis=1)
    return out


def hankel_pair(series, rows: int) -> SnapshotPair:
    """Delay-vector snapshot matrices from a scalar or vector series.

    X columns are delay vectors of height `rows` starting at times
    0..m-1, Xp the same shifted one step.
    """
    if rows < 1:
        raise UsageError("rows must be >= 1")
    arr = np.asarray(series)
    length = arr.shape[0]
    if length < rows + 1:
        raise UsageError(f"series of length {length} too short for rows={rows}")
    return SnapshotPair.from_series(delay_embed(arr, N=rows - 1, stride=1))
