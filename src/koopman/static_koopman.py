"""Regression for static maps T: M -> N and conditional-expectation projection.

fit_static_linear learns the pullback action of T between two observable
dictionaries from sample pairs (m_j, T(m_j)) by minimum-norm least squares.
conditional_expectation_projection replaces every sample of a function by
its fiber average, the empirical version of projecting onto functions
pulled back from the target space; fibers arrive as integer or string
labels, and every sample weighs the same.  Fiber means are computed so that a function already constant on
fibers is returned bit-identically, which makes the projection exactly
idempotent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv
from .dmd import _fit_residual, _pseudoinverse_and_rank
from .embedding import _refuse_non_finite
from .errors import UsageError
from .observables import ObservableDictionary


@dataclass(frozen=True)
class PairedSamples:
    """Input states and their images under a static map, row-aligned."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        def as_samples(block):
            arr = np.asarray(block, dtype=float)
            # a flat sequence is a run of scalar states, not one long state
            return arr[:, None] if arr.ndim == 1 else np.atleast_2d(arr)

        ins = as_samples(self.inputs)
        outs = as_samples(self.outputs)
        if ins.shape[0] != outs.shape[0]:
            raise UsageError(
                f"paired samples misaligned: {ins.shape[0]} inputs, "
                f"{outs.shape[0]} outputs"
            )
        if ins.shape[0] < 1:
            raise UsageError("need at least one sample pair")
        object.__setattr__(self, "inputs", ins)
        object.__setattr__(self, "outputs", outs)

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    def to_csv(self, path) -> None:
        """One file, a 'split' column marking the block: 0 input, 1 output.

        Input and output spaces may have different dimensions; narrower
        rows are padded with nan to the common width.
        """
        d = max(self.inputs.shape[1], self.outputs.shape[1])

        def pad(block):
            out = np.full((block.shape[0], d), np.nan)
            out[:, : block.shape[1]] = block
            return out

        rows = np.vstack(
            [
                np.column_stack([np.zeros(self.count), pad(self.inputs)]),
                np.column_stack([np.ones(self.count), pad(self.outputs)]),
            ]
        )
        header = ",".join(["split"] + [f"c_{i}" for i in range(d)])
        write_csv(path, rows, header)


@dataclass(frozen=True)
class StaticFit:
    """Least-squares pullback matrix with its fit residual."""

    A: np.ndarray
    residual: float
    rank: int
    rank_deficient: bool

    def to_csv(self, path) -> None:
        A = np.atleast_2d(self.A)
        write_csv(path, A if np.any(A.imag != 0) else A.real)


def fit_static_linear(
    pairs: PairedSamples, dict_M: ObservableDictionary, dict_N: ObservableDictionary
) -> StaticFit:
    """Solve min_A ||Y - A X||_F with X, Y dictionary samples as columns.

    A = Y X+ (minimum-norm when X is rank deficient, which is flagged but
    not fatal).  Row k of A expands the k-th output observable, pulled
    back through T, over the input dictionary.  The reported rank is the
    pseudoinverse's own: the number of singular values of X it keeps.
    A non-finite dictionary value, input or output, raises
    PreconditionError naming its sample.
    """
    X = dict_M.evaluate(pairs.inputs).T
    Y = dict_N.evaluate(pairs.outputs).T
    X_pinv, rank = _pseudoinverse_and_rank(X)
    _refuse_non_finite(Y.T, "output value")
    A = Y @ X_pinv
    residual = _fit_residual(Y, A, X)
    deficient = rank < X.shape[0]
    if deficient:
        warnings.warn(
            f"input dictionary spans only rank {rank} of {X.shape[0]} on the "
            "data; returning the minimum-norm fit",
            RuntimeWarning,
            stacklevel=2,
        )
    return StaticFit(A=A, residual=residual, rank=rank, rank_deficient=deficient)


def _factorize(labels) -> tuple[np.ndarray, int]:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise UsageError("fiber labels must be one-dimensional")
    _, inverse = np.unique(labels, return_inverse=True)
    return inverse.reshape(-1), int(inverse.max()) + 1


def conditional_expectation_projection(f_samples, fiber_labels) -> np.ndarray:
    """Replace each sample by the mean over its fiber.

    Output is constant on fibers.  A fiber whose samples are already all
    identical is passed through bit-for-bit, so applying the projection
    twice equals applying it once exactly.
    """
    f = np.asarray(f_samples)
    f = f.astype(complex) if np.iscomplexobj(f) else f.astype(float)
    squeeze = f.ndim == 1
    F = f[:, None] if squeeze else f
    inv, K = _factorize(fiber_labels)
    if inv.size != F.shape[0]:
        raise UsageError("labels and samples must have equal length")
    means = np.zeros((K, F.shape[1]), dtype=F.dtype)
    np.add.at(means, inv, F)  # in sample order, real and imaginary parts alike
    means /= np.bincount(inv, minlength=K)[:, None]
    # exactness: fibers whose samples already agree keep their value
    _, first_idx = np.unique(inv, return_index=True)
    firsts = F[first_idx]
    same = np.ones(K, dtype=bool)
    mismatch = np.any(F != firsts[inv], axis=1)
    if mismatch.any():
        same[inv[mismatch]] = False
    means[same] = firsts[same]
    out = means[inv]
    return out[:, 0] if squeeze else out


def fiber_indicator_matrix(fiber_labels) -> np.ndarray:
    """E with E[j, k] = 1 when sample j lies in fiber k (pullback matrix)."""
    inv, K = _factorize(fiber_labels)
    E = np.zeros((inv.size, K))
    E[np.arange(inv.size), inv] = 1.0
    return E


def fiber_mean_matrix(fiber_labels) -> np.ndarray:
    """W with W @ f = per-fiber means (empirical pushforward).

    W @ E = I exactly in exact arithmetic, and E @ W is the projection
    matrix onto fiber-constant sample vectors.
    """
    inv, K = _factorize(fiber_labels)
    W = np.zeros((K, inv.size))
    W[inv, np.arange(inv.size)] = 1.0 / np.bincount(inv, minlength=K)[inv]
    return W
