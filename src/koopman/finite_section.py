"""Finite-section approximation of the composition operator on a dictionary.

Given observables f_1..f_N and one sampled orbit, the section matrix
U_tilde holds in column j the expansion of f_j after one step in terms of
the dictionary: (f_j o T)(x) ~ sum_k U_tilde[k, j] f_k(x).  Two
algebraically identical routes compute it; with the dual basis normalized
so that G F = I holds at finite sample size, the ergodic-average form and
the least-squares form coincide, and their numerical disagreement is kept
as a diagnostic on the result.

Sub-representation detection reads column leakage: a subset of entries is
closed linearly when its columns put no mass outside the subset, and closed
nonlinearly when the only mass outside lands on declared library entries
(products/powers of subset members).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv
from .embedding import _refuse_non_finite
from .errors import DegenerateDictionaryError, PreconditionError, UsageError, warn
from .observables import ObservableDictionary
from .systems import _states_of

_COND_GRAM_LIMIT = 1e12
_ROUTE_TOL = 1e-10


def dual_basis(F) -> np.ndarray:
    """Rows of G are the dual frame: G F = I at the sampled points.

    G = (F* F)^-1 F*, every sample weighted alike.
    Near-dependent dictionary entries (Gram condition number above 1e12, or
    fewer samples than entries) raise DegenerateDictionaryError naming the
    counts and the entries on the smallest singular vector.  Non-finite values
    and a largest singular value whose square overflows raise PreconditionError.
    """
    F = np.atleast_2d(np.asarray(F))
    m, N = F.shape
    _refuse_non_finite(F, "dictionary value")
    svals = np.linalg.svd(F, compute_uv=False)
    sigma = float(svals[0])
    if not np.isfinite(sigma):
        raise PreconditionError("the largest singular value overflows; rescale the dictionary")
    # fewer samples than entries leave N - m singular values of F at zero, though
    # svd returns only the min(m, N) others; Python floats overflow to inf silently
    ratio = np.inf if m < N or svals[-1] == 0 else sigma / float(svals[-1])
    if ratio * ratio > _COND_GRAM_LIMIT:
        _, _, Vh = np.linalg.svd(F)
        v = np.abs(Vh[-1])
        culprits = tuple(int(i) for i in np.flatnonzero(v >= 0.1 * v.max()))
        raise DegenerateDictionaryError(
            f"dictionary nearly dependent on the data: Gram condition number "
            f"{ratio * ratio:.3g} ({m} sample{'s' * (m != 1)} for {N} entries); entries "
            f"{list(culprits)} load on the smallest singular vector",
            near_dependent=culprits,
        )
    if not np.isfinite(sigma * sigma):  # F* F would overflow, and G F lose the identity
        raise PreconditionError(f"the Gram matrix F* F overflows: largest singular value "
                                f"{sigma:.3g}; rescale the dictionary")
    FH = F.conj().T
    return np.linalg.solve(FH @ F, FH)


@dataclass(frozen=True)
class FiniteSectionMatrix:
    """N x N section U_tilde over a dictionary.

    route_disagreement records the max entrywise gap between the
    average-form and least-squares computations of the same matrix.
    """

    U_tilde: np.ndarray
    dictionary: ObservableDictionary
    route_disagreement: float = 0.0

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U_tilde, dtype=complex))
        N = len(self.dictionary)
        if U.shape != (N, N):
            raise UsageError(f"section shape {U.shape} does not match dictionary size {N}")
        if not np.all(np.isfinite(U.real)) or not np.all(np.isfinite(U.imag)):
            raise UsageError("section matrix contains non-finite entries")
        object.__setattr__(self, "U_tilde", U)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.U_tilde)

    def eigenfunction_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and right eigenvectors; column j expands phi_j in f."""
        lam, V = np.linalg.eig(self.U_tilde)
        return lam, V

    def to_csv(self, path) -> None:
        names = self.dictionary.names
        header = ",".join(f"re_{n},im_{n}" for n in names)
        write_csv(path, self.U_tilde, header)


def finite_section_matrix(dictionary: ObservableDictionary, traj) -> FiniteSectionMatrix:
    """Fit the section from one orbit: columns expand each f_j after a step.

    Average form G @ F_next and the direct least-squares solve are both
    computed; the least-squares result is kept as U_tilde together with
    the disagreement between the two, and a warning fires if they differ
    beyond 1e-10 relative.  A non-finite dictionary value on any sample, the
    last one included, raises PreconditionError naming the sample.
    """
    states = _states_of(traj)
    if states.shape[0] < 2:
        raise UsageError("need at least two states to fit a section")
    F = dictionary.evaluate(states)
    _refuse_non_finite(F, "dictionary value")  # F_next holds the last sample
    F_head, F_next = F[:-1], F[1:]
    U_avg = dual_basis(F_head) @ F_next
    U_lsq, *_ = np.linalg.lstsq(F_head, F_next, rcond=None)

    scale = max(np.max(np.abs(U_lsq)), 1.0)
    disagreement = float(np.max(np.abs(U_avg - U_lsq)) / scale)
    if disagreement > _ROUTE_TOL:
        warn(f"average-form and least-squares section disagree by {disagreement:.3g}; "
             "the dictionary is poorly conditioned on this data")
    return FiniteSectionMatrix(U_tilde=U_lsq, dictionary=dictionary,
                               route_disagreement=disagreement)


def _resolve_indices(dictionary: ObservableDictionary, index_set) -> list:
    if index_set is None:
        raise UsageError("index set must not be None")
    indices = []
    for item in index_set:
        if isinstance(item, str):
            indices.append(dictionary.index_of(item))
        else:
            i = int(item)
            if not 0 <= i < len(dictionary):
                raise UsageError(
                    f"index {i} out of range for dictionary of size {len(dictionary)}"
                )
            indices.append(i)
    if not indices:
        raise UsageError("index set must not be empty")
    if len(set(indices)) != len(indices):
        raise UsageError("index set contains duplicates")
    return indices


def detect_linear_subrepresentation(
    section: FiniteSectionMatrix, subset, tol: float = 1e-6
) -> dict:
    """Check whether the subset's columns stay inside the subset.

    leakage is the largest 2-norm of coefficients any subset column puts on
    complement entries; A satisfies (f_subset o T) = A f_subset when the
    leakage vanishes.
    """
    idx = _resolve_indices(section.dictionary, subset)
    comp = [i for i in range(len(section.dictionary)) if i not in idx]
    U = section.U_tilde
    # with no complement entries every norm is of an empty block: 0.0
    leakage = float(max(np.linalg.norm(U[np.ix_(comp, [j])]) for j in idx))
    A = U[np.ix_(idx, idx)].T
    return {"is_linear": leakage <= tol, "leakage": leakage, "A": A}


def detect_nonlinear_representation(
    section: FiniteSectionMatrix, subset, library_map, tol: float = 1e-6
) -> dict:
    """Check closure of subset columns over subset plus declared library.

    library_map lists the dictionary entries (positions or names) that the
    caller identifies as functions of the subset, e.g. the entry x^2 when
    the subset is {x}.  F_coeffs is n x (n + K): row i expands
    (f_subset[i] o T) over subset entries first, then library entries.
    Undeclared leakage targets are returned with their magnitudes.
    """
    idx = _resolve_indices(section.dictionary, subset)
    lib = _resolve_indices(section.dictionary, library_map) if library_map else []
    overlap = set(idx) & set(lib)
    if overlap:
        raise UsageError(f"library entries {sorted(overlap)} are already in the subset")
    allowed = idx + lib
    outside = [i for i in range(len(section.dictionary)) if i not in allowed]
    U = section.U_tilde
    undeclared = []
    for i in outside:
        mass = float(max(abs(U[i, j]) for j in idx))
        if mass > tol:
            undeclared.append((section.dictionary.names[i], mass))
    undeclared.sort(key=lambda t: -t[1])
    F_coeffs = np.array([[U[a, j] for a in allowed] for j in idx])
    return {
        "is_closed": not undeclared,
        "F_coeffs": F_coeffs,
        "undeclared": undeclared,
    }
