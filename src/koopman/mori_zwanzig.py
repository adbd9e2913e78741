"""Projection of observable evolution onto a chosen span, with memory terms.

mz_decompose splits U^k f into the part P U^k f captured by the span of a
dictionary on the data and the orthogonal remainder Q U^k f, where P is
the empirical least-squares projection onto the dictionary samples over a
fixed base window.  Alongside the exact split it tracks two model
sequences: the pure power of the one-step section (no memory) and the
iterated pure-orthogonal power (QU)^k f; whatever of U^k f is explained by
neither is reported as an aggregate cross (memory) norm per step rather
than term by term, because the term count grows exponentially with k.

circle_rotation_closure checks the one special case with no memory at all:
trigonometric polynomials under a circle rotation, where the orthogonal
step satisfies QUf = (1 - lambda) Uf mode by mode and lambda has a closed
form that an exact grid quadrature must reproduce.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .finite_section import dual_basis
from .observables import ObservableDictionary
from .systems import _states_of

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MzDecomposition:
    """Exact split of U^k f over a base window, k = 0..k_max.

    resolved[k] and orthogonal[k] are (window, N) sample blocks with
    resolved + orthogonal == U^k f exactly.  Aggregate norms are Frobenius
    over the window divided by sqrt(window), the l2 of the per-entry
    empirical function norms; orthogonal_norms_per_entry keeps the
    per-observable resolution for span-nesting comparisons.
    section_matrix is the one-step section used for the memoryless power
    model.  The k = 0 cross norm is zero by convention.
    """

    resolved: np.ndarray
    orthogonal: np.ndarray
    resolved_norms: np.ndarray
    orthogonal_norms: np.ndarray
    cross_norms: np.ndarray
    orthogonal_norms_per_entry: np.ndarray
    section_matrix: np.ndarray
    window: int
    dictionary: ObservableDictionary

    @property
    def norms(self) -> np.ndarray:
        """Orthogonal-part norm sequence, the primary diagnostic."""
        return self.orthogonal_norms

    @property
    def k_max(self) -> int:
        return len(self.resolved_norms) - 1

    def to_csv(self, path) -> None:
        header = "k,resolved_norm,orthogonal_norm,cross_norm"
        rows = np.column_stack(
            [
                np.arange(self.k_max + 1),
                self.resolved_norms,
                self.orthogonal_norms,
                self.cross_norms,
            ]
        )
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def _window_norm(block: np.ndarray) -> float:
    # Frobenius over the window, normalized so it reads as the l2 of the
    # per-entry empirical function norms
    return float(np.linalg.norm(block) / np.sqrt(block.shape[0]))


def mz_decompose(dict_span: ObservableDictionary, traj, k_max: int) -> MzDecomposition:
    """Decompose the evolution of the span observables over one orbit.

    The base window keeps the first m - k_max samples so that every shift
    U^k is available as data.  P projects onto the span of the dictionary
    samples over that window; projections of shifted blocks are extended
    back to full sample range through their dictionary coordinates when
    the iterated (QU)^k terms need them.
    """
    if k_max < 1:
        raise UsageError("k_max must be >= 1")
    states = _states_of(traj)
    m = states.shape[0]
    L = m - k_max
    if L < len(dict_span):
        raise UsageError(
            f"trajectory too short: window {L} for dictionary of size {len(dict_span)}"
        )
    Phi = dict_span.evaluate(states)
    base = Phi[:L]
    dual_basis(base)  # conditioning gate; raises DegenerateDictionaryError

    def project_coeffs(block):
        coeffs, *_ = np.linalg.lstsq(base, block, rcond=None)
        return coeffs

    section = project_coeffs(Phi[1 : 1 + L])

    N = len(dict_span)
    resolved = np.empty((k_max + 1, L, N), dtype=complex)
    orthogonal = np.empty_like(resolved)
    resolved_norms = np.empty(k_max + 1)
    orthogonal_norms = np.empty(k_max + 1)
    cross_norms = np.empty(k_max + 1)
    per_entry = np.empty((k_max + 1, N))

    # iterated pure-orthogonal power (QU)^k f, carried on shrinking sample
    # ranges; the projection is extended via dictionary coordinates
    qu = Phi.copy()
    qu_windows = [qu[:L]]
    for j in range(1, k_max + 1):
        shifted = qu[1:]
        # (QU)^1 f starts from the same block as the section
        coeffs = section if j == 1 else project_coeffs(shifted[:L])
        qu = shifted - Phi[: shifted.shape[0]] @ coeffs
        qu_windows.append(qu[:L])

    markov = np.eye(N, dtype=complex)
    for k in range(k_max + 1):
        total = Phi[k : k + L]
        res = base @ (section if k == 1 else project_coeffs(total))
        orth = total - res
        resolved[k] = res
        orthogonal[k] = orth
        resolved_norms[k] = _window_norm(res)
        orthogonal_norms[k] = _window_norm(orth)
        per_entry[k] = np.sqrt(np.mean(np.abs(orth) ** 2, axis=0))
        if k == 0:
            # no dynamics applied yet: the identity has a single term, so
            # the cross (memory) contribution is zero by convention
            cross_norms[0] = 0.0
        else:
            cross = total - base @ markov - qu_windows[k]
            cross_norms[k] = _window_norm(cross)
        markov = markov @ section

    return MzDecomposition(
        resolved=resolved,
        orthogonal=orthogonal,
        resolved_norms=resolved_norms,
        orthogonal_norms=orthogonal_norms,
        cross_norms=cross_norms,
        orthogonal_norms_per_entry=per_entry,
        section_matrix=section,
        window=L,
        dictionary=dict_span,
    )


@dataclass(frozen=True)
class FourierObservable:
    """Trigonometric polynomial sum_n c_n z^n, n = 0..N_max, on the circle."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise UsageError("coefficients must be a non-empty 1D sequence")
        if not np.any(c != 0):
            raise UsageError("observable is identically zero")
        object.__setattr__(self, "coefficients", c)

    @property
    def n_max(self) -> int:
        return self.coefficients.size - 1

    def unit_normalized(self) -> "FourierObservable":
        norm = np.linalg.norm(self.coefficients)
        return FourierObservable(self.coefficients / norm)

    def sample(self, theta) -> np.ndarray:
        z = np.exp(1j * np.asarray(theta))
        powers = np.arange(self.coefficients.size)
        return z[:, None] ** powers @ self.coefficients


def _looks_rational(omega: float, q_max: int = 100, tol: float = 1e-8) -> int:
    frac = omega / TWO_PI
    for q in range(1, q_max + 1):
        if abs(frac * q - round(frac * q)) < tol:
            return q
    return 0


def circle_rotation_closure(f: FourierObservable, omega: float, m_samples: int) -> dict:
    """Markov-closure diagnostic for rotations acting on mode expansions.

    lambda is computed in closed form from the unit-normalized mode
    coefficients and re-derived from grid inner products; the uniform grid
    integrates trigonometric polynomials exactly once m_samples exceeds
    the bandwidth, so the two must agree to 1e-10.  residual_markov
    measures the defect of the per-mode closure QUf = (1 - lambda) Uf.
    orthogonal_fraction reports ||Uf - lambda f|| / ||Uf||, the honest
    size of the component of Uf off the f direction.
    """
    if m_samples < 1:
        raise UsageError("m_samples must be positive")
    if m_samples <= f.n_max:
        warnings.warn(
            f"m_samples={m_samples} aliases modes up to {f.n_max}; grid "
            "quadrature is no longer exact (4x the bandwidth is comfortable)",
            RuntimeWarning,
            stacklevel=2,
        )
    q = _looks_rational(omega)
    if q:
        warnings.warn(
            f"omega/2pi is within 1e-8 of a rational with denominator {q}; "
            "rotation-average arguments assume an irrational angle",
            RuntimeWarning,
            stacklevel=2,
        )
    fu = f.unit_normalized()
    c = fu.coefficients
    n = np.arange(c.size)
    phases = np.exp(1j * n * omega)
    lam_analytic = complex(np.sum(np.abs(c) ** 2 * phases))

    theta = TWO_PI * np.arange(m_samples) / m_samples
    f_grid = fu.sample(theta)
    uf_grid = fu.sample(theta + omega)

    def inner(a, b):
        return np.mean(a * np.conj(b))

    lam_empirical = complex(inner(uf_grid, f_grid) / inner(f_grid, f_grid))
    gap = abs(lam_analytic - lam_empirical)
    if gap > 1e-10:
        warnings.warn(
            f"analytic and empirical lambda disagree by {gap:.3g}; "
            "the sampling grid does not integrate the modes exactly",
            RuntimeWarning,
            stacklevel=2,
        )

    # per-mode closure: each mode of Uf keeps the factor (1 - lambda)
    z = np.exp(1j * theta)
    qu_modewise = (z[:, None] ** n) @ (c * (1.0 - lam_analytic) * phases)
    uf_norm = np.linalg.norm(uf_grid)
    residual_markov = float(
        np.linalg.norm(qu_modewise - (1.0 - lam_analytic) * uf_grid) / uf_norm
    )
    orthogonal_fraction = float(
        np.linalg.norm(uf_grid - lam_analytic * f_grid) / uf_norm
    )
    return {
        "lambda": lam_analytic,
        "lambda_empirical": lam_empirical,
        "residual_markov": residual_markov,
        "orthogonal_fraction": orthogonal_fraction,
    }
