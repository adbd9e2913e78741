"""Scoring finite models of dynamics: does f(T m) = F(f(m)) hold on data,
does f separate states, are two models the same up to a change of variables.

A RepresentationModel packages the observables f together with the update
rule F in one of three forms: a linear matrix, coefficients over a
function library, or an arbitrary callable.  representation_residual
measures the one-step defect of the pair on a trajectory,
faithfulness_estimate measures injectivity of f on samples,
conjugacy_check compares two models through a supplied change of
variables, sindy_fit builds a sparse library model from data, and
stability_certificate checks the hypotheses under which a spectrum
certifies a globally attracting fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import SpectralTriple, _fit_residual, continuous_time_eigenvalues
from .embedding import _refuse_non_finite
from .errors import DegenerateFitError, PreconditionError, UsageError, warn
from .observables import REAL_KINDS, Observable, ObservableDictionary
from .systems import _states_of

MAP_KINDS = ("linear", "library_coeffs", "explicit")
STLSQ_MAX_ITERATIONS = 20
_FAITHFUL_MIN = 1e-6  # stability_certificate: a score at or below it glues states together
_ZERO_RTOL = 1e-3  # an eigenfunction reaches zero within this fraction of its peak magnitude


@dataclass(frozen=True)
class RepresentationModel:
    """Observables f plus an update rule F with f(T m) = F(f(m)).

    map_kind selects how F is applied to a block of observable values:
    "linear" multiplies by the coefficient matrix, "library_coeffs"
    evaluates the library on the values (sensible when f is the state
    itself) and combines columns by the coefficient matrix, "explicit"
    calls map_fn.  target records whether a fitted model predicts the
    next state or a time derivative; one-step residuals are only defined
    for next-state models.
    """

    observables: ObservableDictionary
    map_kind: str
    coefficients: np.ndarray | None = None
    library: ObservableDictionary | None = None
    map_fn: object = None
    residual: float = float("nan")
    target: str = "next_state"

    def __post_init__(self):
        n = len(self.observables)
        if self.map_kind not in MAP_KINDS:
            raise UsageError(f"unknown map_kind {self.map_kind!r}; use {MAP_KINDS}")
        if self.target not in ("next_state", "derivative"):
            raise UsageError("target must be 'next_state' or 'derivative'")
        if self.map_kind == "linear":
            A = np.atleast_2d(np.asarray(self.coefficients))
            if A.shape != (n, n):
                raise UsageError(
                    f"linear model needs an {n}x{n} matrix, got {A.shape}"
                )
            object.__setattr__(self, "coefficients", A)
        elif self.map_kind == "library_coeffs":
            if self.library is None:
                raise UsageError("library_coeffs model needs the library")
            C = np.atleast_2d(np.asarray(self.coefficients))
            want = (len(self.library), n)
            if C.shape != want:
                raise UsageError(
                    f"coefficient matrix must be {want} (library x observables), "
                    f"got {C.shape}"
                )
            object.__setattr__(self, "coefficients", C)
        elif not callable(self.map_fn):
            raise UsageError("explicit model needs a callable map_fn")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """One application of F to a block of observable values (rows)."""
        V = np.atleast_2d(np.asarray(values))
        if V.shape[1] != len(self.observables):
            raise UsageError(
                f"values have {V.shape[1]} columns, model has "
                f"{len(self.observables)} observables"
            )
        # an overflow stays inf (or nan): the residual or check that receives it names it
        with np.errstate(over="ignore", invalid="ignore"):
            if self.map_kind == "linear":
                return V @ self.coefficients.T
            if self.map_kind == "library_coeffs":
                theta = self.library.evaluate(np.real_if_close(V))
                return theta @ self.coefficients
            out = np.asarray(self.map_fn(V))
        if out.shape != V.shape:
            raise UsageError(
                f"explicit map returned shape {out.shape}, expected {V.shape}"
            )
        return out

    def to_json(self) -> dict:
        def num(z):
            z = complex(z)
            return z.real if z.imag == 0.0 else z

        obj = {
            "map_kind": self.map_kind,
            "observables": list(self.observables.names),
            "target": self.target,
        }
        if self.map_kind == "linear":
            names = self.observables.names
            obj["coefficients"] = {
                row: {col: num(self.coefficients[i, j]) for j, col in enumerate(names)}
                for i, row in enumerate(names)
            }
        elif self.map_kind == "library_coeffs":
            obj["library"] = list(self.library.names)
            obj["coefficients"] = {
                target: {
                    lib: num(self.coefficients[i, j])
                    for i, lib in enumerate(self.library.names)
                    if self.coefficients[i, j] != 0
                }
                for j, target in enumerate(self.observables.names)
            }
        else:
            obj["coefficients"] = None
        if np.isfinite(self.residual):
            obj["residual"] = float(self.residual)
        return obj


def representation_residual(model: RepresentationModel, traj) -> float:
    """Worst one-step defect max_k |f(x_{k+1}) - F(f(x_k))| / max_k |f(x_k)|."""
    if model.target != "next_state":
        raise UsageError(
            "model predicts a time derivative; one-step residuals are "
            "defined for next-state models"
        )
    states = _states_of(traj)
    if states.shape[0] < 2:
        raise UsageError("need at least two states to measure a step")
    values = model.observables.evaluate(states)
    _refuse_non_finite(values, "observable value")
    return _relative_defect(values[1:], model.apply(values[:-1]), values)


def _relative_defect(got, want, ref) -> float:
    """max_k |got_k - want_k| / max_k |ref_k| over rows; an all-zero ref counts as 1.

    A non-finite defect or norm raises PreconditionError naming its sample.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        defects = np.linalg.norm(got - want, axis=1)
        norms = np.linalg.norm(ref, axis=1)
    _refuse_non_finite(defects[:, None], "one-step defect")
    _refuse_non_finite(norms[:, None], "observable norm")
    scale = float(np.max(norms))
    return float(np.max(defects)) / (scale if scale > 0 else 1.0)


def faithfulness_estimate(f_samples, state_samples) -> dict:
    """Smallest normalized separation |f(m)-f(n)| / |m-n| over sample pairs.

    A score near zero means f glues distinct states together; the witness
    is the offending index pair.  Coincident states are excluded from the
    ratio (they carry no information about injectivity).  Non-finite
    values or states, a pair distance that overflows or underflows to 0.0
    between distinct rows, and a smallest ratio that overflows raise
    PreconditionError.
    """
    F = np.atleast_2d(np.asarray(f_samples))
    S = _states_of(state_samples)
    if F.shape[0] != S.shape[0]:
        raise UsageError("f_samples and state_samples must align row-wise")
    n = S.shape[0]
    if n < 2:
        raise UsageError("need at least two samples")
    _refuse_non_finite(F, "observable value")
    _refuse_non_finite(S, "state")
    # complex observable values: split the parts into real columns
    F_real = np.column_stack([F.real, F.imag]) if np.iscomplexobj(F) else F
    i, j = np.triu_indices(n, k=1)
    fd = _pair_distances(F_real, i, j, "observable value")
    sd = _pair_distances(S, i, j, "state")
    valid = sd > 0.0
    if not np.any(valid):
        raise UsageError("all states coincide; no pair constrains injectivity")
    ratio = np.full(sd.shape, np.inf)
    with np.errstate(over="ignore"):  # an overflowing smallest ratio is raised below
        np.divide(fd, sd, out=ratio, where=valid)
    flat = int(np.argmin(ratio))
    if np.isinf(ratio[flat]):  # every valid ratio overflowed
        flat = int(np.argmax(valid))
        raise PreconditionError(f"the ratio of observable value to state distance between "
                                f"samples {i[flat]} and {j[flat]} overflows; rescale the data")
    return {
        "score": float(ratio[flat]),
        "witness": (int(i[flat]), int(j[flat])),
    }


def _pair_distances(X, i, j, what: str) -> np.ndarray:
    """Euclidean distances between the rows i and j of X, with the bits of
    scipy's pdist: the squared differences summed over the columns in order.

    X must be finite; PreconditionError names the first pair whose distance
    overflows, or underflows to 0.0 although its rows differ.
    """
    X = np.asarray(X, dtype=float)
    total = np.zeros(i.size)
    with np.errstate(over="ignore"):  # an overflowing pair is raised below
        for col in X.T:
            d = col[i]
            d -= col[j]
            d *= d
            total += d
    dist = np.sqrt(total)
    overflow = np.isinf(dist)
    if overflow.any():
        flat = int(np.argmax(overflow))
        raise PreconditionError(f"the {what} distance between samples {i[flat]} and "
                                f"{j[flat]} overflows; rescale the data")
    zero = np.flatnonzero(dist == 0.0)
    differ = (X[i[zero]] != X[j[zero]]).any(axis=1)
    if differ.any():
        flat = zero[np.argmax(differ)]
        raise PreconditionError(f"the {what} distance between samples {i[flat]} and "
                                f"{j[flat]} underflows; rescale the data")
    return dist


def conjugacy_check(rep1, rep2, h, h_inv, samples) -> float:
    """Max defect of h(G(g(m))) = F(h(g(m))) over sample states.

    rep2 supplies (g, G), rep1 supplies F, and h carries g-values to
    rep1's variables.  h and h_inv must invert each other on the sampled
    values to 1e-8 before the defect is meaningful.
    """
    states = _states_of(samples)
    g_vals = rep2.observables.evaluate(states)
    w = np.atleast_2d(np.asarray(h(g_vals)))
    inv_defect = float(np.max(np.abs(np.atleast_2d(np.asarray(h(h_inv(w)))) - w)))
    w_scale = float(np.max(np.abs(w)))
    if inv_defect > 1e-8 * max(w_scale, 1.0):
        raise PreconditionError(
            f"h(h_inv(w)) differs from w by {inv_defect:.3g} on the data; "
            "h is not invertible on these samples"
        )
    lhs = np.atleast_2d(np.asarray(h(rep2.apply(g_vals))))
    return _relative_defect(lhs, rep1.apply(w), w)


def _derivatives_central(states: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order central differences; the two boundary points on each side drop."""
    if states.shape[0] < 5:
        raise UsageError("need at least five samples for 4th-order differences")
    s = states
    num = -s[4:] + 8.0 * s[3:-1] - 8.0 * s[1:-3] + s[:-4]
    return s[2:-2], num / (12.0 * dt)


def sindy_fit(traj, library: ObservableDictionary, threshold: float | None = None):
    """Sparse regression of the dynamics onto a function library.

    Maps regress the next state on the library at the current state;
    flows regress finite-difference derivatives.  Sequentially
    thresholded least squares: solve, zero small coefficients, re-solve
    on the surviving support until it stabilizes.  threshold None means
    0.05 * max |initial coefficients|; pass 0.0 to keep plain least
    squares.  A residual or target norm beyond the float range raises
    PreconditionError.  A library that is rank deficient on the data warns,
    once the thresholded fit and its residual exist.
    """
    states = _states_of(traj)
    dt = float(getattr(traj, "dt", 0.0) or 0.0)
    if dt > 0.0:
        inputs, targets = _derivatives_central(states, dt)
        target_kind = "derivative"
    else:
        if states.shape[0] < 2:
            raise UsageError("need at least two states")
        inputs, targets = states[:-1], states[1:]
        target_kind = "next_state"

    if all(entry.kind in REAL_KINDS for entry in library):
        theta = library.evaluate(inputs, dtype=float)
    else:
        theta = np.real_if_close(library.evaluate(inputs))
        if np.iscomplexobj(theta):
            raise UsageError("sindy_fit needs a real-valued library")
    _refuse_non_finite(theta, "library value")
    _refuse_non_finite(targets, "target value")

    # lstsq's rank counts singular values above eps * max(M, N) * s_max,
    # the rule of np.linalg.matrix_rank, without a second SVD
    C, _, rank, _ = np.linalg.lstsq(theta, targets, rcond=None)
    if threshold is None:
        threshold = 0.05 * float(np.max(np.abs(C)))
    if threshold < 0:
        raise UsageError("threshold must be nonnegative")

    support = np.abs(C) >= threshold
    for _ in range(STLSQ_MAX_ITERATIONS):
        C = np.zeros_like(C)
        for j in range(targets.shape[1]):
            keep = support[:, j]
            if not np.any(keep):
                continue
            C[keep, j], *_ = np.linalg.lstsq(theta[:, keep], targets[:, j], rcond=None)
        new_support = np.abs(C) >= threshold
        if np.array_equal(new_support, support):
            break
        support = new_support
    C[~support] = 0.0
    if not np.any(support):
        raise DegenerateFitError(
            "thresholding removed every library term; lower the threshold"
        )

    with np.errstate(over="ignore"):  # refused below
        scale = float(np.linalg.norm(targets))
    if not np.isfinite(scale):
        raise PreconditionError("fit residual exceeds the float range; rescale the data")
    residual = _fit_residual(targets, theta, C) / max(scale, np.finfo(float).tiny)
    if rank < len(library):
        warn("library is rank deficient on the data; coefficients are not identifiable")
    spec = getattr(traj, "spec", None)
    names = spec.coord_names if spec is not None else [f"x{i}" for i in range(states.shape[1])]
    coords = ObservableDictionary(
        tuple(
            Observable(name=nm, kind="coordinate", index=i)
            for i, nm in enumerate(names)
        )
    )
    return RepresentationModel(
        observables=coords,
        map_kind="library_coeffs",
        coefficients=C,
        library=library,
        residual=residual,
        target=target_kind,
    )


def stability_certificate(
    triple: SpectralTriple, faithful_score: float, dt: float | None = None
) -> str:
    """Check the hypotheses under which eigenfunctions certify stability.

    Certification needs every continuous-time eigenvalue in the open left
    half plane, a faithful observable set, and eigenfunction sample
    ranges that reach (near) zero; the first failed hypothesis is named
    in the verdict.  Eigenvalues are taken as continuous-time already
    unless dt is given, in which case the discrete spectrum is converted
    first.
    """
    lams = np.asarray(triple.eigenvalues)
    if dt is not None:
        lams = continuous_time_eigenvalues(lams, dt)
    if np.any(lams.real >= 0.0):
        return "not certified: spectrum"
    if not (faithful_score > _FAITHFUL_MIN):
        return "not certified: faithfulness"
    mags = np.abs(triple.eigenfunction_samples)
    reaches_zero = mags.min(axis=1) <= _ZERO_RTOL * np.maximum(mags.max(axis=1), 1e-300)
    if not np.all(reaches_zero):
        return "not certified: range"
    return "certified"
