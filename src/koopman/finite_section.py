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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDictionaryError, UsageError
from .observables import ObservableDictionary
from .systems import _states_of

_COND_GRAM_LIMIT = 1e12
_ROUTE_TOL = 1e-10


def evaluate_dictionary(dictionary: ObservableDictionary, traj) -> np.ndarray:
    """m x N matrix F with F[l, j] = f_j(x_l); warns when m < N."""
    states = _states_of(traj)
    F = dictionary.evaluate(states)
    if F.shape[0] < len(dictionary):
        warnings.warn(
            f"only {F.shape[0]} samples for {len(dictionary)} dictionary entries; "
            "the section fit is underdetermined",
            RuntimeWarning,
            stacklevel=2,
        )
    return F


def _check_weights(weights, m):
    if weights is None:
        return None
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise UsageError(f"weights must have length {m}")
    if np.any(w <= 0):
        raise UsageError("weights must be strictly positive")
    return w


def dual_basis(F, weights=None) -> np.ndarray:
    """Rows of G are the dual frame: G F = I at the sampled points.

    G = (F* W F)^-1 F* W with W = diag(weights), identity by default.
    Near-dependent dictionary entries (condition number of the Gram matrix
    above 1e12) raise DegenerateDictionaryError naming the entries that
    load on the smallest singular vector.
    """
    F = np.atleast_2d(np.asarray(F))
    m, N = F.shape
    w = _check_weights(weights, m)
    Fw = F if w is None else F * np.sqrt(w)[:, None]
    svals = np.linalg.svd(Fw, compute_uv=False)
    gram_cond = np.inf if svals[-1] == 0 else (svals[0] / svals[-1]) ** 2
    if not np.isfinite(gram_cond) or gram_cond > _COND_GRAM_LIMIT:
        _, _, Vh = np.linalg.svd(Fw)
        v = np.abs(Vh[-1])
        culprits = tuple(int(i) for i in np.flatnonzero(v >= 0.1 * v.max()))
        raise DegenerateDictionaryError(
            f"dictionary nearly dependent on the data: Gram condition number "
            f"{gram_cond:.3g}; entries {list(culprits)} load on the smallest "
            "singular vector",
            near_dependent=culprits,
        )
    FW = F.conj().T if w is None else F.conj().T * w
    return np.linalg.solve(FW @ F, FW)


@dataclass(frozen=True)
class FiniteSectionMatrix:
    """N x N section U_tilde over a dictionary, fit from sample_count states.

    route_disagreement records the max entrywise gap between the
    average-form and least-squares computations of the same matrix.
    """

    U_tilde: np.ndarray
    dictionary: ObservableDictionary
    sample_count: int
    route_disagreement: float = 0.0

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U_tilde, dtype=complex))
        N = len(self.dictionary)
        if U.shape != (N, N):
            raise UsageError(f"section shape {U.shape} does not match dictionary size {N}")
        if not np.all(np.isfinite(U.real)) or not np.all(np.isfinite(U.imag)):
            raise UsageError("section matrix contains non-finite entries")
        object.__setattr__(self, "U_tilde", U)

    @property
    def eigenmatrix(self) -> np.ndarray:
        """A with (f o T) = A f on the dictionary span: the transpose."""
        return self.U_tilde.T

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.U_tilde)

    def eigenfunction_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and right eigenvectors; column j expands phi_j in f."""
        lam, V = np.linalg.eig(self.U_tilde)
        return lam, V

    def to_csv(self, path) -> None:
        names = self.dictionary.names
        header = ",".join(f"re_{n},im_{n}" for n in names)
        out = np.empty((self.U_tilde.shape[0], 2 * self.U_tilde.shape[1]))
        out[:, 0::2] = self.U_tilde.real
        out[:, 1::2] = self.U_tilde.imag
        np.savetxt(path, out, delimiter=",", header=header, comments="")

    def to_json(self) -> dict:
        return {
            "dictionary": self.dictionary.to_json(),
            "sample_count": self.sample_count,
            "U_tilde": [
                [{"re": float(z.real), "im": float(z.imag)} for z in row]
                for row in self.U_tilde
            ],
        }


def finite_section_matrix(
    dictionary: ObservableDictionary, traj, weights=None
) -> FiniteSectionMatrix:
    """Fit the section from one orbit: columns expand each f_j after a step.

    Average form G @ F_next and the direct least-squares solve are both
    computed; the least-squares result is kept as U_tilde together with
    the disagreement between the two, and a warning fires if they differ
    beyond 1e-10 relative.
    """
    states = _states_of(traj)
    if states.shape[0] < 2:
        raise UsageError("need at least two states to fit a section")
    F = evaluate_dictionary(dictionary, states)
    F_head, F_next = F[:-1], F[1:]
    w = _check_weights(weights, F_head.shape[0])

    G = dual_basis(F_head, weights=w)
    U_avg = G @ F_next

    sw = None if w is None else np.sqrt(w)[:, None]
    A_ls = F_head if sw is None else F_head * sw
    B_ls = F_next if sw is None else F_next * sw
    U_lsq, *_ = np.linalg.lstsq(A_ls, B_ls, rcond=None)

    scale = max(np.max(np.abs(U_lsq)), 1.0)
    disagreement = float(np.max(np.abs(U_avg - U_lsq)) / scale)
    if disagreement > _ROUTE_TOL:
        warnings.warn(
            f"average-form and least-squares section disagree by {disagreement:.3g}; "
            "the dictionary is poorly conditioned on this data",
            RuntimeWarning,
            stacklevel=2,
        )
    return FiniteSectionMatrix(
        U_tilde=U_lsq,
        dictionary=dictionary,
        sample_count=states.shape[0],
        route_disagreement=disagreement,
    )


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


def compression(section: FiniteSectionMatrix, index_set) -> FiniteSectionMatrix:
    """Principal submatrix on index_set (positions or entry names)."""
    idx = _resolve_indices(section.dictionary, index_set)
    sub = section.U_tilde[np.ix_(idx, idx)]
    return FiniteSectionMatrix(
        U_tilde=sub,
        dictionary=section.dictionary.subset(idx),
        sample_count=section.sample_count,
        route_disagreement=section.route_disagreement,
    )


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
    if comp:
        leakage = float(max(np.linalg.norm(U[np.ix_(comp, [j])]) for j in idx))
    else:
        leakage = 0.0
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
