"""One-step representation defects, injectivity scoring, conjugacy of
models, sparse library regression, and the stability certificate."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from koopman import _artifacts, cli
from koopman.dmd import SpectralTriple
from koopman.errors import DegenerateFitError, KoopmanError, PreconditionError, UsageError
from koopman.observables import REAL_KINDS, Observable, ObservableDictionary, monomial_library
from koopman.representation_eval import (
    RepresentationModel,
    _pair_distances,
    conjugacy_check,
    faithfulness_estimate,
    representation_residual,
    sindy_fit,
    stability_certificate,
)
from koopman.systems import SystemSpec, Trajectory, hamiltonian, integrate, step_map_batch


def coords(names):
    return ObservableDictionary(
        [Observable(name=n, kind="coordinate", index=i) for i, n in enumerate(names)]
    )


def make_triple(lams, samples):
    lams = np.asarray(lams, dtype=complex)
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    modes = np.zeros((lams.size, 1), dtype=complex)
    return SpectralTriple(
        eigenvalues=lams,
        eigenfunction_samples=samples,
        modes=modes,
        reconstruction_residual=0.0,
    )


# ---------------------------------------------------------------- residual


def test_torus_rotation_linear_representation_is_exact():
    spec = SystemSpec(kind="torus_rotation")
    traj = integrate(spec, (0.2, 0.9), dt=0.0, n_steps=60)
    f = ObservableDictionary(
        [
            Observable(name="z1", kind="phase", k=(1.0, 0.0)),
            Observable(name="z2", kind="phase", k=(0.0, 1.0)),
        ]
    )
    A = np.diag(np.exp(1j * np.array([1.0, np.sqrt(2.0)])))
    model = RepresentationModel(observables=f, map_kind="linear", coefficients=A)
    assert representation_residual(model, traj) <= 1e-10


_TORUS_PHASES = ObservableDictionary(
    [
        Observable(name="z1", kind="phase", k=(1.0, 0.0)),
        Observable(name="z2", kind="phase", k=(0.0, 1.0)),
    ]
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.floats(-2 * np.pi, 2 * np.pi), st.floats(-2 * np.pi, 2 * np.pi),
       st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi), st.integers(1, 150))
@example(1.0, np.sqrt(2.0), 0.2, 0.9, 60)  # the torus_rotation defaults
@example(2 * np.pi, -2 * np.pi, 2 * np.pi, 2 * np.pi, 150)  # the largest angles drawn
@example(0.0, 0.0, 0.0, 0.0, 1)
def test_exact_torus_phase_representation_has_rounding_residual(w1, w2, a, b, n):
    # z_j(T x) = exp(i w_j) z_j(x) holds exactly; the orbit's angles carry
    # half an ulp of |theta| <= 4 pi + 150 * 2 pi per step (about 6e-14),
    # and exp and the product a few eps more.  In 3000 draws the worst
    # residual was 5.3e-14.
    spec = SystemSpec("torus_rotation", {"omega1": w1, "omega2": w2})
    traj = integrate(spec, (a, b), dt=0.0, n_steps=n)
    A = np.diag(np.exp(1j * np.array([w1, w2])))
    model = RepresentationModel(observables=_TORUS_PHASES, map_kind="linear", coefficients=A)
    assert representation_residual(model, traj) < 1e-12


def test_position_only_representation_of_free_motion_fails_measurably():
    spec = SystemSpec(kind="free_particle")
    dt, n = 0.25, 20
    traj = integrate(spec, (0.0, 1.0), dt=dt, n_steps=n)
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="linear", coefficients=[[1.0]]
    )
    res = representation_residual(model, traj)
    # x advances by p dt each step while the model predicts no motion
    assert np.isclose(res, dt / (n * dt), atol=1e-12)
    assert res > 0


def test_exact_map_composed_with_observables_gives_zero():
    spec = SystemSpec(kind="standard_map")
    traj = integrate(spec, (0.12, 0.37), dt=0.0, n_steps=50)
    model = RepresentationModel(
        observables=coords(["x", "y"]),
        map_kind="explicit",
        map_fn=lambda V: step_map_batch(spec, np.real(V)),
    )
    assert representation_residual(model, traj) == 0.0


def test_residual_invariant_under_observable_permutation():
    rng = np.random.default_rng(4)
    B = np.array([[0.6, 0.2], [-0.1, 0.8]])
    spec = SystemSpec(kind="linear_map", params={"B": B.tolist()})
    traj = integrate(spec, (1.0, -0.5), dt=0.0, n_steps=25)
    A = B + rng.normal(scale=0.01, size=(2, 2))
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    m1 = RepresentationModel(observables=coords(["x", "y"]), map_kind="linear", coefficients=A)
    # permuted observable list with correspondingly permuted matrix
    obs_swapped = ObservableDictionary(
        [
            Observable(name="y", kind="coordinate", index=1),
            Observable(name="x", kind="coordinate", index=0),
        ]
    )
    m2 = RepresentationModel(observables=obs_swapped, map_kind="linear", coefficients=P @ A @ P.T)
    r1 = representation_residual(m1, traj)
    r2 = representation_residual(m2, traj)
    assert np.isclose(r1, r2, atol=1e-12)
    assert r1 > 1e-4


def test_residual_needs_two_states_and_next_state_target():
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="linear", coefficients=[[1.0]]
    )
    with pytest.raises(UsageError):
        representation_residual(model, np.zeros((1, 1)))
    deriv = RepresentationModel(
        observables=coords(["x"]),
        map_kind="library_coeffs",
        coefficients=[[1.0]],
        library=coords(["x"]),
        target="derivative",
    )
    with pytest.raises(UsageError):
        representation_residual(deriv, np.zeros((5, 1)))


def test_model_validation():
    with pytest.raises(UsageError):
        RepresentationModel(observables=coords(["x"]), map_kind="affine", coefficients=[[1.0]])
    with pytest.raises(UsageError):
        RepresentationModel(observables=coords(["x", "y"]), map_kind="linear", coefficients=[[1.0]])
    with pytest.raises(UsageError):
        RepresentationModel(
            observables=coords(["x"]), map_kind="library_coeffs", coefficients=[[1.0]]
        )
    with pytest.raises(UsageError):
        RepresentationModel(observables=coords(["x"]), map_kind="explicit")
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="linear", coefficients=[[2.0]]
    )
    with pytest.raises(UsageError):
        model.apply(np.zeros((3, 2)))


# ------------------------------------------------------------ faithfulness


def test_identity_observables_score_one():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(30, 3))
    res = faithfulness_estimate(states, states)
    assert res["score"] == 1.0


def test_position_only_collision_detected_with_witness():
    states = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.5]])
    res = faithfulness_estimate(states[:, [0]], states)
    assert res["score"] <= 1e-12
    assert res["witness"] == (0, 1)


def test_energy_observable_collapses_symmetric_pendulum_states():
    states = np.array([[0.7, 0.3], [0.7, -0.3], [0.2, 0.1], [1.1, -0.8]])
    H = hamiltonian(states, 9.81, 1.0)
    res = faithfulness_estimate(H[:, None], states)
    assert res["score"] <= 1e-12
    assert res["witness"] == (0, 1)


def test_appending_observables_never_lowers_score():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(25, 2))
    f1 = np.sin(states)
    f2 = np.column_stack([f1, states[:, 0] ** 2])
    s1 = faithfulness_estimate(f1, states)["score"]
    s2 = faithfulness_estimate(f2, states)["score"]
    assert s2 >= s1 - 1e-15


def test_coincident_states_are_excluded():
    states = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    f = np.array([[1.0], [2.0], [3.0]])
    res = faithfulness_estimate(f, states)
    assert np.isfinite(res["score"])
    with pytest.raises(UsageError):
        faithfulness_estimate(f[:2], states[:2] * 0.0)
    with pytest.raises(UsageError):
        faithfulness_estimate(f[:1], states[:1])


def test_complex_observable_values_supported():
    states = np.linspace(0.0, 1.5, 8)[:, None]
    f = np.exp(1j * states)
    res = faithfulness_estimate(f, states)
    assert res["score"] > 0.5


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.integers(2, 30),
    st.integers(1, 6),
    st.sampled_from(["real", "complex split", "coincident", "rounded"]),
    st.floats(-200.0, 150.0),
    st.integers(0, 2**32 - 1),
)
@example(5, 1, "real", 0.0, 0)  # one column
@example(7, 3, "complex split", 0.0, 1)  # the real and imaginary columns of complex values
@example(6, 2, "coincident", 0.0, 2)
@example(2, 4, "real", 0.0, 3)  # a single pair
@example(9, 3, "real", -160.0, 4)  # squares in the subnormal range
@example(9, 3, "real", 150.0, 5)  # squares near the top of the float range
@example(12, 6, "rounded", 0.0, 6)
@example(4, 2, "real", -200.0, 7)  # squares below the subnormal range: refused
def test_pair_distances_keep_the_bits_of_pdist(n, d, layout, exponent, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0**exponent
    if layout == "complex split":
        Z = X + 1j * rng.standard_normal((n, d)) * 10.0**exponent
        X = np.column_stack([Z.real, Z.imag])
    elif layout == "coincident":
        X[-1] = X[0]
    elif layout == "rounded":
        X = np.round(X / 10.0**exponent, 1) * 10.0**exponent
    i, j = np.triu_indices(n, k=1)
    want = pdist(X)
    if np.any((want == 0.0) & np.any(X[i] != X[j], axis=1)):  # distinct rows at distance 0.0
        with pytest.raises(PreconditionError, match="underflows; rescale the data"):
            _pair_distances(X, i, j, "state")
        return
    assert _pair_distances(X, i, j, "state").tobytes() == want.tobytes()


# -------------------------------------------------------------- conjugacy


def test_self_conjugacy_with_identity_is_exactly_zero():
    rng = np.random.default_rng(1)
    model = RepresentationModel(
        observables=coords(["x", "y"]),
        map_kind="linear",
        coefficients=rng.normal(size=(2, 2)),
    )
    samples = rng.normal(size=(40, 2))
    assert conjugacy_check(model, model, lambda v: v, lambda v: v, samples) == 0.0


def test_real_pair_and_complex_forms_of_harmonic_motion_are_conjugate():
    dt = 0.3
    G = np.array([[np.cos(dt), np.sin(dt)], [-np.sin(dt), np.cos(dt)]])
    rep2 = RepresentationModel(observables=coords(["x", "p"]), map_kind="linear", coefficients=G)
    z = Observable(name="z", kind="custom", fn=lambda s: s[:, 0] + 1j * s[:, 1])
    rep1 = RepresentationModel(
        observables=ObservableDictionary([z]),
        map_kind="linear",
        coefficients=[[np.exp(-1j * dt)]],
    )
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(100, 2))

    def h(v):
        return v[:, [0]] + 1j * v[:, [1]]

    def h_inv(w):
        return np.column_stack([w[:, 0].real, w[:, 0].imag])

    assert conjugacy_check(rep1, rep2, h, h_inv, samples) <= 1e-10


def test_conjugation_is_not_a_conjugacy_for_rotations():
    omega = 0.9
    z = Observable(name="z", kind="custom", fn=lambda s: np.exp(1j * s[:, 0]))
    model = RepresentationModel(
        observables=ObservableDictionary([z]),
        map_kind="linear",
        coefficients=[[np.exp(1j * omega)]],
    )
    theta = np.linspace(0.0, 2.0 * np.pi, 37)[:, None]
    res = conjugacy_check(model, model, np.conj, np.conj, theta)
    assert res >= abs(np.exp(1j * omega) - np.exp(-1j * omega)) * (1.0 - 1e-6)


def test_non_inverse_pair_is_rejected():
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="linear", coefficients=[[1.0]]
    )
    samples = np.linspace(1.0, 2.0, 9)[:, None]
    with pytest.raises(PreconditionError):
        conjugacy_check(model, model, lambda v: v, lambda v: v + 0.1, samples)


@st.composite
def _linear_conjugacies(draw):
    """(G, H): a 1-4-D matrix G and an invertible H with cond(H) <= 1e4."""
    dim = draw(st.integers(1, 4))
    entry = st.floats(-2.0, 2.0, allow_subnormal=False)
    G, H = (np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
            .reshape(dim, dim) for _ in range(2))
    assume(np.linalg.cond(H) <= 1e4)
    return G, H


_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])
_SHEAR = np.array([[1.0, 99.0], [0.0, 1.0]])  # cond about 9800, near the drawn limit


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_linear_conjugacies(), st.integers(0, 2**32 - 1))
@example((_ROTATION, np.eye(2)), 0)  # h the identity
@example((_ROTATION, _SHEAR), 1)
@example((np.zeros((3, 3)), np.diag([1.0, -2.0, 0.5])), 2)  # G = 0: no defect at all
def test_conjugacy_check_of_a_linear_conjugacy_is_rounding(maps, seed):
    # h(g) = H g carries G to F = H G H^-1 exactly, so the defect is
    # rounding: of order eps * ||F|| <= eps * cond(H) * ||G|| relative to
    # |h(g)|, per entry of the products.  In 20000 draws of this kind the
    # worst defect was 2.1 times dim * eps * cond(H) * ||G||.
    G, H = maps
    dim = G.shape[0]
    names = [f"x{i}" for i in range(dim)]
    rep2 = RepresentationModel(observables=coords(names), map_kind="linear", coefficients=G)
    F = H @ G @ np.linalg.inv(H)
    rep1 = RepresentationModel(observables=coords(names), map_kind="linear", coefficients=F)
    samples = np.random.default_rng(seed).normal(size=(30, dim))

    def h(g):
        return g @ H.T

    def h_inv(w):
        return np.linalg.solve(H, w.T).T

    defect = conjugacy_check(rep1, rep2, h, h_inv, samples)
    bound = 8 * dim * np.finfo(float).eps * np.linalg.cond(H) * np.linalg.norm(G, 2)
    assert defect <= bound


# ------------------------------------------------------------------ sindy


def test_linear_map_recovered_with_higher_terms_zeroed():
    B = 0.9 * np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    spec = SystemSpec(kind="linear_map", params={"B": B.tolist()})
    traj = integrate(spec, (1.3, -0.4), dt=0.0, n_steps=40)
    lib = monomial_library(("x", "y"), 2)
    model = sindy_fit(traj, lib, threshold=0.05)
    C = model.coefficients
    lin = [lib.names.index("x"), lib.names.index("y")]
    assert np.allclose(C[lin].T, B, atol=1e-10)
    others = [i for i in range(len(lib)) if i not in lin]
    assert np.all(C[others] == 0.0)
    assert model.residual <= 1e-10
    assert model.target == "next_state"


def test_next_state_sindy_model_has_a_rounding_one_step_residual():
    # representation_residual applies the library model to the coordinate values
    B = [[0.8, -0.3], [0.2, 0.7]]
    traj = integrate(SystemSpec(kind="linear_map", params={"B": B}), (1.0, 0.5), dt=0.0, n_steps=30)
    model = sindy_fit(traj, monomial_library(("x", "y"), 1), threshold=0.0)
    assert model.map_kind == "library_coeffs" and model.target == "next_state"
    assert representation_residual(model, traj) <= 1e-14


def test_zero_threshold_is_plain_least_squares():
    spec = SystemSpec(kind="standard_map")
    traj = integrate(spec, (0.21, 0.34), dt=0.0, n_steps=60)
    lib = monomial_library(("x", "y"), 2)
    model = sindy_fit(traj, lib, threshold=0.0)
    theta = np.real(lib.evaluate(traj.states[:-1]))
    direct, *_ = np.linalg.lstsq(theta, traj.states[1:], rcond=None)
    assert np.allclose(model.coefficients, direct, atol=1e-12)


def test_lorenz_equations_recovered_from_data():
    spec = SystemSpec(kind="lorenz")
    traj = integrate(spec, (1.0, 1.0, 20.0), dt=1e-3, n_steps=5000)
    lib = monomial_library(("x", "y", "z"), 2)
    model = sindy_fit(traj, lib, threshold=0.1)
    C = model.coefficients
    assert model.target == "derivative"
    idx = {n: i for i, n in enumerate(lib.names)}
    expected = {
        ("x", 0): -10.0,
        ("y", 0): 10.0,
        ("x", 1): 28.0,
        ("y", 1): -1.0,
        ("x*z", 1): -1.0,
        ("x*y", 2): 1.0,
        ("z", 2): -8.0 / 3.0,
    }
    for (name, col), want in expected.items():
        got = C[idx[name], col]
        assert abs(got - want) <= 1e-2 * abs(want), (name, col, got, want)
    assert np.count_nonzero(C) == len(expected)


def test_excessive_threshold_raises_degenerate_fit():
    spec = SystemSpec(kind="standard_map")
    traj = integrate(spec, (0.11, 0.52), dt=0.0, n_steps=30)
    with pytest.raises(DegenerateFitError):
        sindy_fit(traj, monomial_library(("x", "y"), 2), threshold=1e6)


def test_sindy_refuses_a_target_norm_beyond_the_float_range():
    # targets up to 1e170: the norm of the targets overflows, though the fit
    # and its residual are finite; the ratio used to read 0
    traj = integrate(SystemSpec("linear_map", {"B": [[1e100]]}), (1e-130,), dt=0.0, n_steps=3)
    library = ObservableDictionary([Observable("u2", "monomial", powers=(2.0,))])
    with pytest.raises(PreconditionError, match="fit residual exceeds the float range"):
        sindy_fit(traj, library, threshold=0.0)


def test_rank_deficient_library_warns():
    spec = SystemSpec(kind="linear_map", params={"B": [[0.5, 0.0], [0.0, 0.5]]})
    traj = integrate(spec, (1.0, 1.0), dt=0.0, n_steps=20)
    dup = ObservableDictionary(
        [
            Observable(name="x", kind="coordinate", index=0),
            Observable(name="x2", kind="monomial", powers=(1.0, 0.0)),
        ]
    )
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        sindy_fit(traj, dup, threshold=0.0)


def test_rank_deficient_library_that_thresholds_to_nothing_fails_without_a_warning():
    # a duplicate pair on states that never move: the fit is rank deficient,
    # and a threshold above every coefficient removes all of its terms
    spec = SystemSpec(kind="linear_map", params={"B": [[1.0, 0.0], [0.0, 1.0]]})
    traj = integrate(spec, (1.0, 1.0), dt=0.0, n_steps=20)
    dup = ObservableDictionary(
        [
            Observable(name="x", kind="coordinate", index=0),
            Observable(name="x2", kind="monomial", powers=(1.0, 0.0)),
        ]
    )
    with pytest.raises(DegenerateFitError):  # under the suite's error filter
        sindy_fit(traj, dup, threshold=10.0)


def test_rank_deficient_library_warns_on_the_complex_route():
    # the duplicate pair again, with a phase of k = 0 (exactly 1) that sends
    # the library through complex evaluation
    spec = SystemSpec(kind="linear_map", params={"B": [[0.5, 0.0], [0.0, 0.5]]})
    traj = integrate(spec, (1.0, 1.0), dt=0.0, n_steps=20)
    dup = ObservableDictionary(
        [
            Observable(name="x", kind="coordinate", index=0),
            Observable(name="x2", kind="monomial", powers=(1.0, 0.0)),
            Observable(name="1", kind="phase", k=(0.0, 0.0)),
        ]
    )
    assert "phase" not in REAL_KINDS
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        sindy_fit(traj, dup, threshold=0.0)


def _with_phase_one(library):
    """The library with its constant "1" as a phase of k = 0: exp(0j) is exactly 1."""
    dim = len(library.entries[-1].powers)
    return ObservableDictionary(
        tuple(
            Observable(name="1", kind="phase", k=(0.0,) * dim) if e.kind == "constant" else e
            for e in library
        )
    )


_ROTATION_09 = 0.9 * np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])


@pytest.mark.parametrize(
    "spec, start, dt, n, threshold",
    [
        (SystemSpec("lorenz"), (1.0, 1.0, 20.0), 1e-3, 5000, 0.1),
        (SystemSpec("linear_map", {"B": _ROTATION_09.tolist()}), (1.3, -0.4), 0.0, 40, 0.05),
    ],
    ids=["lorenz", "linear_map"],
)
def test_real_and_complex_library_routes_fit_the_same_bits(spec, start, dt, n, threshold):
    # an all-real library is evaluated straight into float64; with one complex
    # kind it goes through the complex matrix and real_if_close
    traj = integrate(spec, start, dt=dt, n_steps=n)
    real_lib = monomial_library(("x", "y", "z")[: len(start)], 2)
    complex_lib = _with_phase_one(real_lib)
    assert {e.kind for e in real_lib} <= REAL_KINDS
    assert not {e.kind for e in complex_lib} <= REAL_KINDS
    real = sindy_fit(traj, real_lib, threshold=threshold)
    other = sindy_fit(traj, complex_lib, threshold=threshold)
    assert np.array_equal(real.coefficients, other.coefficients)  # and so the support
    assert np.array_equal(real.residual, other.residual)
    assert np.count_nonzero(real.coefficients) < real.coefficients.size  # thresholding acted


def test_sindy_fit_on_a_real_library_allocates_less_than_its_complex_matrix():
    traj = integrate(SystemSpec("lorenz"), (1.0, 1.0, 20.0), dt=1e-3, n_steps=20_000)
    lib = monomial_library(("x", "y", "z"), 2)
    m = traj.states.shape[0] - 4  # central differences drop two states a side
    tracemalloc.start()
    try:
        sindy_fit(traj, lib, threshold=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The real (m, N) library (8 mN bytes), the derivatives and the residual
    # blocks peak at about 15 mN bytes; evaluating the complex (m, N) matrix
    # and viewing its real part peaked at about 27 mN.
    complex_theta, real_copy = 16 * m * len(lib), 8 * m * len(lib)
    assert peak < complex_theta + real_copy, (peak, m * len(lib))


# ------------------------------------------------------------ certificate


def test_stable_node_is_certified():
    t = np.linspace(0.0, 10.0, 200)
    triple = make_triple([-1.0, -2.0], np.vstack([np.exp(-t), np.exp(-2 * t)]))
    assert stability_certificate(triple, faithful_score=1.0) == "certified"


def test_positive_eigenvalue_blocks_certification():
    t = np.linspace(0.0, 10.0, 50)
    triple = make_triple([-1.0, 0.5], np.vstack([np.exp(-t), np.exp(-t)]))
    assert stability_certificate(triple, 1.0) == "not certified: spectrum"


def test_low_faithfulness_blocks_certification():
    spec = SystemSpec(kind="limit_cycle_polar")
    traj = integrate(spec, (2.0, 0.0), dt=0.05, n_steps=200)
    r = traj.states[:, 0]
    phi = 1.0 - 1.0 / r**2
    triple = make_triple([-2.0], phi[None, :])
    score = faithfulness_estimate(phi[:, None], traj.states)["score"]
    verdict = stability_certificate(triple, score)
    assert verdict == "not certified: faithfulness"


def test_range_without_zero_blocks_certification():
    t = np.linspace(0.0, 10.0, 50)
    triple = make_triple([-1.0], (1.0 + np.exp(-t))[None, :])
    assert stability_certificate(triple, 1.0) == "not certified: range"


def test_discrete_spectrum_converted_when_dt_given():
    t = np.linspace(0.0, 10.0, 50)
    lam_ct = -2.0
    triple = make_triple([np.exp(lam_ct * 0.1)], np.exp(-t)[None, :])
    assert stability_certificate(triple, 1.0, dt=0.1) == "certified"
    assert stability_certificate(triple, 1.0) == "not certified: spectrum"


def test_certificate_refuses_a_nan_step():
    # NaN exponents compared as not >= 0, so an unstable eigenvalue 2.0
    # (not certified at dt = 0.1) was certified at dt = NaN
    t = np.linspace(0.0, 10.0, 50)
    triple = make_triple([2.0], np.exp(-t)[None, :])
    assert stability_certificate(triple, 1.0, dt=0.1) == "not certified: spectrum"
    with pytest.raises(UsageError, match="dt must be positive"):
        stability_certificate(triple, 1.0, dt=float("nan"))


@pytest.mark.parametrize("dt", [-0.001, float("nan")])
def test_sindy_never_sees_a_trajectory_with_a_negative_or_nan_step(dt):
    # such a Trajectory was accepted, and sindy_fit then fitted the Lorenz
    # flow as a next_state map (residual 0.0036) instead of a derivative
    spec = SystemSpec("lorenz")
    states = integrate(spec, (1.0, 1.0, 1.0), dt=0.001, n_steps=200).states
    library = monomial_library(("x", "y", "z"), 2)
    with pytest.raises(UsageError, match="dt must be None, 0 or positive, got"):
        sindy_fit(Trajectory(states, dt=dt, spec=spec), library, threshold=0.1)


# ------------------------------------------------------------------ export


def test_model_json_roundtrip_values(tmp_path):
    A = np.array([[0.5, 0.0], [0.25, np.exp(1j * 0.3)]])
    model = RepresentationModel(
        observables=coords(["x", "y"]), map_kind="linear", coefficients=A, residual=0.125
    )
    path = tmp_path / "model.json"
    _artifacts.write_json(path, model.to_json())
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["map_kind"] == "linear"
    assert obj["coefficients"]["x"]["x"] == 0.5
    got = obj["coefficients"]["y"]["y"]
    assert np.isclose(got["re"], np.cos(0.3), atol=1e-12)
    assert obj["residual"] == 0.125
    assert "faithful_score" not in obj


def test_fits_and_scores_refuse_non_finite_values_by_entry_and_sample():
    # x^400 overflows from the sample where |x| first exceeds about 5.9
    states = np.column_stack([np.linspace(0.0, 10.0, 11), np.zeros(11)])
    big = ObservableDictionary([Observable("m", "monomial", powers=(0, 0)),
                                Observable("b", "monomial", powers=(400, 0))])
    model = RepresentationModel(observables=big, map_kind="linear", coefficients=np.eye(2))
    where = r".* in entry 1 at sample 6; rescale the data"
    with pytest.raises(PreconditionError, match="non-finite observable value" + where):
        representation_residual(model, states)
    with pytest.raises(PreconditionError, match="non-finite observable value" + where):
        faithfulness_estimate(big.evaluate(states), states)
    with pytest.raises(PreconditionError, match="non-finite library value" + where):
        sindy_fit(states, big)


def test_an_update_that_overflows_is_refused_by_sample_without_a_warning():
    # finite observable values that the model's update carries past the
    # float range: numpy's overflow warnings used to precede the refusal
    # (the suite turns warnings into errors)
    states = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    update = RepresentationModel(observables=coords(["x", "y"]), map_kind="linear",
                                 coefficients=np.array([[1e308, 1e308], [0.0, 1.0]]))
    identity = RepresentationModel(observables=coords(["x", "y"]), map_kind="linear",
                                   coefficients=np.eye(2))
    where = r"non-finite one-step defect .* in entry 0 at sample 0; rescale the data"
    with pytest.raises(PreconditionError, match=where):
        representation_residual(update, states)
    with pytest.raises(PreconditionError, match=where):
        conjugacy_check(identity, update, lambda v: v, lambda v: v, states)


def test_explicit_model_json_has_no_coefficients():
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="explicit", map_fn=lambda v: 2.0 * v
    )
    assert model.to_json() == {
        "map_kind": "explicit", "observables": ["x"], "target": "next_state",
        "coefficients": None,
    }


def test_run_model_json_holds_the_bytes_of_the_library_fit(tmp_path):
    path = Path(__file__).parents[1] / "configs" / "lorenz_sindy.json"
    config, n = json.loads(path.read_text()), 3000
    argv = ["run", str(path), "--set", f"sampling.n={n}", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    sampling = config["sampling"]
    spec = SystemSpec("lorenz", config["system"]["params"])
    traj = integrate(spec, sampling["initial_state"], sampling["dt"], n)
    library = monomial_library(("x", "y", "z"), 2)
    model = sindy_fit(traj, library, threshold=config["method_params"]["threshold"])
    _artifacts.write_json(tmp_path / "saved.json", model.to_json())
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "run" / "model.json").read_bytes()


def test_model_json_refuses_a_non_finite_coefficient(tmp_path):
    model = RepresentationModel(
        observables=coords(["x"]), map_kind="linear", coefficients=[[np.inf]]
    )
    with pytest.raises(KoopmanError,
                       match="model.json coefficients.x.x would hold a non-finite number"):
        _artifacts.write_json(tmp_path / "model.json", model.to_json())
    assert not (tmp_path / "model.json").exists()


def test_library_model_json_names_nonzero_terms_only():
    lib = monomial_library(("x",), 2)
    model = RepresentationModel(
        observables=coords(["x"]),
        map_kind="library_coeffs",
        coefficients=np.array([[0.0], [0.9], [0.0]]),
        library=lib,
    )
    obj = model.to_json()
    assert obj["coefficients"]["x"] == {"x": 0.9}
    assert obj["library"] == ["1", "x", "x^2"]


_LINE = np.linspace(0.0, 1.0, 10)[:, None]
_FOUR = np.arange(4.0)[:, None]
_APART = np.array([[1e300], [-1e300], [0.0], [1.0]])  # squared differences overflow
# one case per guard on malformed models and fit inputs: the call, its error and message
_GUARDS = {
    "model_target": (lambda: RepresentationModel(coords(["x"]), "linear", coefficients=[[1.0]],
                                                 target="rate"),
                     UsageError, "target must be 'next_state' or 'derivative'"),
    "library_coefficient_shape": (
        lambda: RepresentationModel(coords(["x"]), "library_coeffs", coefficients=np.ones((2, 1)),
                                    library=monomial_library(("x",), 2)),
        UsageError, r"coefficient matrix must be \(3, 1\) \(library x observables\), got \(2, 1\)"),
    "explicit_map_shape": (
        lambda: RepresentationModel(coords(["x"]), "explicit",
                                    map_fn=lambda v: v.ravel()).apply(np.ones((2, 1))),
        UsageError, r"explicit map returned shape \(2,\), expected \(2, 1\)"),
    "faithfulness_rows": (lambda: faithfulness_estimate(np.ones((3, 1)), np.ones((2, 1))),
                          UsageError, "f_samples and state_samples must align row-wise"),
    "faithfulness_inf_state": (
        lambda: faithfulness_estimate(_FOUR, np.array([[0.0], [1.0], [2.0], [np.inf]])),
        PreconditionError, "non-finite state inf in entry 0 at sample 3; rescale the data"),
    "faithfulness_nan_state": (
        lambda: faithfulness_estimate(_FOUR, np.array([[0.0], [np.nan], [2.0], [3.0]])),
        PreconditionError, "non-finite state nan in entry 0 at sample 1; rescale the data"),
    "faithfulness_state_distance_overflow": (
        lambda: faithfulness_estimate(_FOUR, _APART),
        PreconditionError,
        "the state distance between samples 0 and 1 overflows; rescale the data"),
    "faithfulness_value_distance_overflow": (
        lambda: faithfulness_estimate(_APART, _FOUR),
        PreconditionError,
        "the observable value distance between samples 0 and 1 overflows; rescale the data"),
    # squared differences below the smallest subnormal sum to 0.0, which
    # used to count as coincident states (or glued values) and drop the pair
    "faithfulness_state_distance_underflow": (
        lambda: faithfulness_estimate([[0.0], [1e150]], [[0.0], [1e-200]]),
        PreconditionError,
        "the state distance between samples 0 and 1 underflows; rescale the data"),
    "faithfulness_one_state_distance_underflows": (
        lambda: faithfulness_estimate(_FOUR, [[0.0], [1.0], [1e-200], [2e-200]]),
        PreconditionError,
        "the state distance between samples 0 and 2 underflows; rescale the data"),
    "faithfulness_value_distance_underflow": (
        lambda: faithfulness_estimate([[0.0], [1e-200], [1.0], [2.0]], _FOUR),
        PreconditionError,
        "the observable value distance between samples 0 and 1 underflows; rescale the data"),
    # used to print numpy's overflow warning and return a score of inf
    "faithfulness_ratio_overflow": (
        lambda: faithfulness_estimate([[0.0], [1e154]], [[0.0], [1e-160]]),
        PreconditionError,
        "the ratio of observable value to state distance between samples 0 and 1 overflows; "
        "rescale the data"),
    "sindy_flow_samples": (lambda: sindy_fit(Trajectory(_LINE[:4], dt=0.1),
                                             monomial_library(("x",), 1)),
                           UsageError, "need at least five samples for 4th-order differences"),
    "sindy_map_states": (lambda: sindy_fit(_LINE[:1], monomial_library(("x",), 1)),
                         UsageError, "need at least two states"),
    "sindy_complex_library": (
        lambda: sindy_fit(_LINE, ObservableDictionary((Observable("z", "phase", k=(1,)),))),
        UsageError, "sindy_fit needs a real-valued library"),
    "sindy_threshold": (lambda: sindy_fit(_LINE, monomial_library(("x",), 1), threshold=-1.0),
                        UsageError, "threshold must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, error, message = _GUARDS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the refusal fails
        with pytest.raises(error, match=message):
            call()
