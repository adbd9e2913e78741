"""Companion-matrix and pseudoinverse DMD with spectral triple extraction.

Both decompositions consume a SnapshotPair (X, Xp) whose columns are
consecutive observable samples.  The companion route fits only the last
column of the shift-structured matrix C; the pseudoinverse route fits a
full eigenmatrix A = Xp X+.  spectral_triple turns A plus the data into
(eigenvalue, eigenfunction samples, mode) triples: eigenfunction samples
come from left eigenvectors paired bilinearly with the data rows,
normalized to unit root-mean-square with the largest sample rotated to the
positive real axis, and modes are the least-squares reconstruction
coefficients of the data in the eigenfunction frame.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embedding import SnapshotPair
from .errors import DefectiveMatrixError, PreconditionError, UsageError

_COND_EIGVEC_LIMIT = 1e8


def _complex_json(z) -> dict:
    """A complex number as the JSON object {"re": ..., "im": ...}."""
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def moore_penrose_pseudoinverse(M) -> np.ndarray:
    """Pseudoinverse by SVD; singular values below max(n,m)*eps*s_max drop.

    Raises PreconditionError when a kept singular value is subnormal, since
    its reciprocal, and so the pseudoinverse, would overflow.
    """
    return _pseudoinverse_and_rank(M)[0]


def _pseudoinverse_and_rank(M) -> tuple[np.ndarray, int]:
    """The pseudoinverse of M and its rank: the number of singular values kept.

    One SVD gives both, so a fit that reports rank(X) needs no second SVD.
    """
    M = np.atleast_2d(np.asarray(M))
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(M.conj().T), 0
    cutoff = max(M.shape) * np.finfo(float).eps * s[0]
    kept = s >= cutoff
    smallest = s[kept][-1]
    if smallest < np.finfo(float).tiny:  # 1 / smallest would overflow
        raise PreconditionError(f"pseudoinverse exceeds the float range: singular "
                                f"value {smallest:.3g} is subnormal; rescale the data")
    inv = np.where(kept, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (Vh.conj().T * inv) @ U.conj().T, int(np.count_nonzero(kept))


@dataclass(frozen=True)
class CompanionModel:
    """Shift-plus-last-column fit: C has subdiagonal ones, free column c."""

    c: np.ndarray
    C: np.ndarray
    residual: float

    def __post_init__(self):
        m = len(self.c)
        if self.C.shape != (m, m):
            raise UsageError("companion matrix shape must match len(c)")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of C, solved on first access and kept (read-only)."""
        values = np.linalg.eigvals(self.C)
        values.flags.writeable = False  # every read gets this one array
        return values


def companion_dmd(pair: SnapshotPair) -> CompanionModel:
    """Fit Xp ~ X C with companion structure; only the last column is free.

    The free column is the minimum-norm least-squares solution
    c = X+ x_end, through the same SVD pseudoinverse for every shape of X.
    rank(X) < m-1 means even the shift part of the fit is ambiguous; that
    triggers a warning, the residual is still reported.  rank(X) is the
    pseudoinverse's own: the number of singular values it keeps.
    """
    X, Xp = pair.X, pair.Xp
    m = X.shape[1]
    X_pinv, rank = _pseudoinverse_and_rank(X)
    c = X_pinv @ Xp[:, -1]
    if rank < m - 1:
        warnings.warn(
            f"companion fit ill-posed: rank(X)={rank} < m-1={m - 1}",
            RuntimeWarning,
            stacklevel=2,
        )
    C = np.eye(m, k=-1, dtype=complex)
    C[:, -1] = c
    residual = float(np.linalg.norm(Xp - X @ C))
    return CompanionModel(c=np.asarray(c, dtype=complex), C=C, residual=residual)


def pseudoinverse_dmd(pair: SnapshotPair) -> np.ndarray:
    """A = Xp X+, the Frobenius-minimal linear map sending X columns to Xp."""
    return pair.Xp @ moore_penrose_pseudoinverse(pair.X)


@dataclass(frozen=True)
class SpectralTriple:
    """Eigenvalues with per-eigenvalue sample sequences and modes.

    eigenfunction_samples[j] holds phi_j along the trajectory (unit RMS,
    largest-magnitude sample real positive); modes[j] holds s_j, one entry
    per observable, so that f(x_k) ~ sum_j phi_j(x_k) s_j.
    """

    eigenvalues: np.ndarray
    eigenfunction_samples: np.ndarray
    modes: np.ndarray
    reconstruction_residual: float

    def __post_init__(self):
        r = len(self.eigenvalues)
        if self.eigenfunction_samples.shape[0] != r or self.modes.shape[0] != r:
            raise UsageError("triple components disagree on eigenvalue count")

    def to_json(self) -> dict:
        return {
            "eigenvalues": [_complex_json(z) for z in self.eigenvalues],
            "modes": [[_complex_json(z) for z in row] for row in self.modes],
            "eigenfunction_samples": [
                [_complex_json(z) for z in row] for row in self.eigenfunction_samples
            ],
        }


def spectral_triple(A, pair: SnapshotPair) -> SpectralTriple:
    """Extract (lambda_j, phi_j samples, s_j) from an eigenmatrix A and data.

    phi_j(x_k) = w_j . f(x_k) with w_j the eigenvector of A transpose, so
    phi_j(T x) = lambda_j phi_j(x) whenever f' = A f holds on the data.
    Raises DefectiveMatrixError when the eigenvector basis is too
    ill-conditioned to trust (generalized eigenfunctions are out of scope).
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.shape[0] != A.shape[1]:
        raise UsageError("eigenmatrix must be square")
    if A.shape[0] != pair.n_observables:
        raise UsageError("eigenmatrix size must match number of observable rows")
    import scipy.linalg  # deferred: scipy would dominate `import koopman`

    lam, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    cond = np.linalg.cond(vr)
    if not np.isfinite(cond) or cond > _COND_EIGVEC_LIMIT:
        raise DefectiveMatrixError(
            f"eigenvector basis condition number {cond:.3g} exceeds "
            f"{_COND_EIGVEC_LIMIT:.0e}; matrix is numerically defective and "
            "would need generalized eigenfunctions"
        )
    X = np.asarray(pair.X, dtype=complex)
    Phi = vl.conj().T @ X
    rms = np.sqrt(np.mean(np.abs(Phi) ** 2, axis=1))
    for j in range(Phi.shape[0]):
        if rms[j] == 0.0:
            warnings.warn(
                f"eigenfunction {j} vanishes on the data; left unnormalized",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        Phi[j] /= rms[j]
        peak = Phi[j, np.argmax(np.abs(Phi[j]))]
        Phi[j] *= np.conj(peak) / abs(peak)
    S = X @ moore_penrose_pseudoinverse(Phi)
    col_norms = np.linalg.norm(X - S @ Phi, axis=0)
    scale = np.max(np.linalg.norm(X, axis=0))
    residual = float(np.max(col_norms) / scale) if scale > 0 else 0.0
    return SpectralTriple(
        eigenvalues=lam,
        eigenfunction_samples=Phi,
        modes=S.T,
        reconstruction_residual=residual,
    )


def continuous_time_eigenvalues(discrete, dt: float) -> np.ndarray:
    """Map flow-map eigenvalues to generator exponents log(lambda)/dt.

    Principal branch; a warning flags |Im log lambda| near pi where the
    recovered frequency may be aliased.
    """
    if dt <= 0:
        raise UsageError("dt must be positive")
    lam = np.atleast_1d(np.asarray(discrete, dtype=complex))
    if np.any(lam == 0):
        raise PreconditionError("eigenvalue 0 has no logarithm")
    logs = np.log(lam)
    if np.any(np.abs(logs.imag) > 0.9 * np.pi):
        warnings.warn(
            "discrete eigenvalue phase near +-pi: continuous frequency may be "
            "aliased at this sampling step",
            RuntimeWarning,
            stacklevel=2,
        )
    return logs / dt
