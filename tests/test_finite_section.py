import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopman import detect_linear_subrepresentation, detect_nonlinear_representation
from koopman.dmd import continuous_time_eigenvalues, pseudoinverse_dmd
from koopman.embedding import SnapshotPair
from koopman.errors import DegenerateDictionaryError, PreconditionError, UsageError
from koopman.finite_section import (
    FiniteSectionMatrix,
    dual_basis,
    finite_section_matrix,
)
from koopman.observables import Observable, ObservableDictionary
from koopman.systems import SystemSpec, integrate, known_spectrum


def _dict(*entries):
    return ObservableDictionary(tuple(entries))


def _phase(name, k):
    return Observable(name, "phase", k=k)


def test_dual_basis_orthonormal_columns_self_dual():
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(10, 3)))
    G = dual_basis(Q)
    np.testing.assert_allclose(G, Q.conj().T, atol=1e-12)


def test_dual_basis_column_of_ones():
    F = np.ones((4, 1))
    G = dual_basis(F)
    np.testing.assert_allclose(G, np.full((1, 4), 0.25))
    assert (G @ F)[0, 0] == pytest.approx(1.0)


def test_dual_basis_duality_random():
    F = np.random.default_rng(1).normal(size=(50, 3))
    np.testing.assert_allclose(dual_basis(F) @ F, np.eye(3), atol=1e-10)


def test_dual_basis_degenerate_names_culprits():
    x = np.random.default_rng(3).normal(size=20)
    F = np.column_stack([x, 2.0 * x, x**2])
    with pytest.raises(DegenerateDictionaryError) as err:
        dual_basis(F)
    assert set(err.value.near_dependent) >= {0, 1}


def test_dual_basis_rejects_fewer_samples_than_entries():
    # svd returns only min(m, N) singular values, all nonzero here; the
    # N - m missing ones are zero, so no G with G F = I exists
    F = np.random.default_rng(4).normal(size=(3, 5))
    with pytest.raises(DegenerateDictionaryError, match=r"condition number inf \(3 samples for 5"):
        dual_basis(F)


def test_dual_basis_refuses_an_overflowing_largest_singular_value():
    # finite values whose SVD overflows: the condition number would read inf
    # and blame a dependence the data does not have
    with pytest.raises(PreconditionError, match="largest singular value overflows"):
        dual_basis([[1.5e308, 1.5e308], [1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("F", [(1.5 ** np.arange(1000.0))[:, None], [[1.4e154]]],
                         ids=["growing-orbit", "one-sample"])
def test_dual_basis_refuses_a_gram_matrix_that_overflows(F):
    # a finite largest singular value whose square overflows: F* F used to
    # overflow with a numpy warning and return G with G F = [[0.]]
    with pytest.raises(PreconditionError, match=r"the Gram matrix F\* F overflows: largest "
                                                r"singular value .*; rescale the dictionary"):
        dual_basis(F)


def test_dual_basis_keeps_the_identity_just_below_the_gram_overflow():
    F = np.array([[1.3e154], [1.0]])
    np.testing.assert_allclose(dual_basis(F) @ F, [[1.0]], rtol=1e-15)


def test_dual_basis_condition_number_beyond_the_float_range_reads_inf_without_warning():
    # singular values 1e160 and 1e-160: their ratio, let alone its square,
    # overflows; the suite turns numpy's overflow warning into an error
    F = np.array([[1e160, 0.0], [0.0, 1e-160], [0.0, 0.0]])
    with pytest.raises(DegenerateDictionaryError, match=r"condition number inf \(3 samples"):
        dual_basis(F)


def test_section_with_fewer_samples_than_entries_fails_once_naming_the_counts():
    # two states leave one sample for the fit: one error, no warning before it
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)), _phase("w", (1, 1)))
    states = np.array([[0.1, 0.2], [0.3, 0.5]])
    with pytest.raises(DegenerateDictionaryError, match=r"\(1 sample for 3 entries\)"):
        finite_section_matrix(d, states)


def test_dual_basis_refuses_non_finite_values_naming_the_sample():
    F = np.random.default_rng(5).normal(size=(6, 2)).astype(complex)
    F[3, 1] = F[4, 0] = complex(np.inf, 0.0)
    with pytest.raises(PreconditionError, match="non-finite .* in entry 1 at sample 3"):
        dual_basis(F)


def test_section_refuses_a_non_finite_value_in_the_last_sample():
    # the last sample enters only F_next, which the dual basis does not check
    d = _dict(Observable("u2", "monomial", powers=(2.0,)))
    states = np.array([[1.0], [2.0], [3.0], [1e200]])
    with pytest.raises(PreconditionError,
                       match=r"non-finite dictionary value \(inf\+0j\) in entry 0 at sample 3"):
        finite_section_matrix(d, states)


def test_overflowing_dictionary_section_is_refused_not_called_dependent():
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, (2.0, 0.0), 1e-3, 50)
    big = _dict(Observable("r^4000", "monomial", powers=(4000.0, 0.0)), _phase("z", (0.0, 1.0)))
    with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="at sample 0"):
        finite_section_matrix(big, traj)


def test_section_circle_rotation_single_mode():
    spec = SystemSpec("circle_rotation", {"omega": 0.9})
    traj = integrate(spec, [0.1], dt=0.0, n_steps=30)
    sec = finite_section_matrix(_dict(_phase("z", (1,))), traj)
    assert sec.U_tilde.shape == (1, 1)
    np.testing.assert_allclose(sec.U_tilde[0, 0], np.exp(0.9j), atol=1e-10)
    assert sec.route_disagreement <= 1e-10


def test_section_torus_rotation_diagonal():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.15, 0.85], dt=0.0, n_steps=60)
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)))
    sec = finite_section_matrix(d, traj)
    np.testing.assert_allclose(
        sec.U_tilde, np.diag(np.exp([0.3j, 0.7j])), atol=1e-10
    )


def test_section_scalar_linear_map_monomial_pair():
    a = 0.8
    spec = SystemSpec("linear_map", {"B": [[a]]})
    traj = integrate(spec, [1.3], dt=0.0, n_steps=40)
    d = _dict(
        Observable("x", "monomial", powers=(1,)),
        Observable("x3", "monomial", powers=(3,)),
    )
    sec = finite_section_matrix(d, traj)
    np.testing.assert_allclose(sec.U_tilde, np.diag([a, a**3]), atol=1e-10)


def test_section_spectral_consistency_map(assert_spectrum_close):
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.0, 0.25], dt=0.0, n_steps=80)
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)), _phase("z1z2", (1, 1)))
    sec = finite_section_matrix(d, traj)
    from koopman.systems import known_spectrum

    want = np.append(known_spectrum(spec), np.exp(1j * (0.3 + 0.7)))
    assert_spectrum_close(sec.eigenvalues(), want, atol=1e-8)


def test_section_spectral_consistency_flow(assert_spectrum_close):
    dt = 1e-3
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [0.5, 0.2], dt=dt, n_steps=4000)
    d = _dict(
        Observable("decay", "custom", fn=lambda s: 1.0 - s[:, 0] ** -2.0),
        Observable("z", "phase", k=(0, 1)),
    )
    sec = finite_section_matrix(d, traj)
    exps = continuous_time_eigenvalues(sec.eigenvalues(), dt)
    assert_spectrum_close(exps, [-2.0, 1.0j], atol=1e-3)


def test_section_route_agreement_on_benchmarks():
    spec = SystemSpec("torus_rotation")
    traj = integrate(spec, [0.4, 0.1], dt=0.0, n_steps=100)
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)), _phase("w", (2, 1)))
    assert finite_section_matrix(d, traj).route_disagreement <= 1e-10


def test_section_eigenfunction_coefficients_reproduce_samples():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.0, 0.3], dt=0.0, n_steps=50)
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)))
    sec = finite_section_matrix(d, traj)
    lam, V = sec.eigenfunction_coefficients()
    F = d.evaluate(traj.states)
    phi = F @ V
    # each recovered eigenfunction advances by its eigenvalue along the orbit
    for j in range(2):
        np.testing.assert_allclose(phi[1:, j], lam[j] * phi[:-1, j], atol=1e-9)


def test_detect_linear_torus_pair_closed():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.05, 0.6], dt=0.0, n_steps=80)
    d = _dict(_phase("z1", (1, 0)), _phase("z2", (0, 1)), _phase("z1z2", (1, 1)))
    sec = finite_section_matrix(d, traj)
    verdict = detect_linear_subrepresentation(sec, ["z1", "z2"], tol=1e-8)
    assert verdict["is_linear"]
    assert verdict["leakage"] <= 1e-10
    np.testing.assert_allclose(verdict["A"], np.diag(np.exp([0.3j, 0.7j])), atol=1e-9)


def test_detect_linear_shear_leaks():
    B = [[1.0, 1.0], [0.0, 1.0]]
    spec = SystemSpec("linear_map", {"B": B})
    traj = integrate(spec, [0.3, 0.9], dt=0.0, n_steps=2)
    d = _dict(
        Observable("x", "coordinate", index=0), Observable("y", "coordinate", index=1)
    )
    sec = finite_section_matrix(d, traj)
    verdict = detect_linear_subrepresentation(sec, ["x"], tol=1e-6)
    assert not verdict["is_linear"]
    assert verdict["leakage"] == pytest.approx(1.0, abs=1e-8)


def test_detect_linear_full_dictionary_trivially_closed():
    d = _dict(_phase("a", (1,)), _phase("b", (2,)))
    sec = FiniteSectionMatrix(np.ones((2, 2)), d)
    verdict = detect_linear_subrepresentation(sec, ["a", "b"])
    assert verdict["is_linear"] and verdict["leakage"] == 0.0


def test_detect_nonlinear_square_map_closure():
    # x' = x^2 on (0, 1): subset {x} closes through the declared entry x^2
    seq = [0.9]
    for _ in range(4):
        seq.append(seq[-1] ** 2)
    d = _dict(
        Observable("x", "monomial", powers=(1,)),
        Observable("x2", "monomial", powers=(2,)),
    )
    sec = finite_section_matrix(d, np.asarray(seq)[:, None])
    verdict = detect_nonlinear_representation(sec, ["x"], ["x2"], tol=1e-6)
    assert verdict["is_closed"]
    np.testing.assert_allclose(verdict["F_coeffs"], [[0.0, 1.0]], atol=1e-6)


def test_detect_nonlinear_logistic_coefficients():
    a = 3.9
    seq = [0.3]
    for _ in range(400):
        seq.append(a * seq[-1] * (1.0 - seq[-1]))
    states = np.asarray(seq)[:, None]
    d = _dict(
        Observable("x", "monomial", powers=(1,)),
        Observable("x2", "monomial", powers=(2,)),
        Observable("x3", "monomial", powers=(3,)),
        Observable("x4", "monomial", powers=(4,)),
    )
    sec = finite_section_matrix(d, states)
    verdict = detect_nonlinear_representation(sec, ["x"], ["x2"], tol=1e-6)
    assert verdict["is_closed"]
    np.testing.assert_allclose(verdict["F_coeffs"], [[a, -a]], atol=1e-6)
    # withholding the declaration reports the leak onto x^2
    bare = detect_nonlinear_representation(sec, ["x"], [], tol=1e-6)
    assert not bare["is_closed"]
    assert bare["undeclared"][0][0] == "x2"
    assert bare["undeclared"][0][1] == pytest.approx(a, abs=1e-6)


def test_detect_nonlinear_rejects_overlap():
    d = _dict(_phase("a", (1,)), _phase("b", (2,)))
    sec = FiniteSectionMatrix(np.eye(2), d)
    with pytest.raises(UsageError):
        detect_nonlinear_representation(sec, ["a"], ["a"])


def test_section_csv(tmp_path):
    d = _dict(_phase("z1", (1,)), _phase("z2", (2,)))
    U = np.array([[1 + 2j, 0.0], [0.5j, -1.0]])
    sec = FiniteSectionMatrix(U, d)
    path = tmp_path / "sec.csv"
    sec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2"
    vals = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(vals[0], [1.0, 2.0, 0.0, 0.0])


def _eigenvalue_error(truth, got):
    """Largest distance from a true eigenvalue to its nearest fitted one."""
    dist = np.abs(np.subtract.outer(truth, got))
    assert len(set(dist.argmin(axis=1))) == len(truth)  # a one-to-one matching
    return dist.min(axis=1).max()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=2),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    st.integers(8, 200),
)
def test_rotation_fits_on_phase_observables_recover_the_known_spectrum(omegas, start, n):
    # The phases z_j = exp(i theta_j) of a circle or torus rotation are
    # eigenfunctions, so pinv DMD and the finite section on them reproduce
    # known_spectrum up to rounding.  Multipliers at least 0.1 apart keep
    # the two phase series independent (away from resonance).  The orbit's
    # angles carry rounding of about eps * |theta| per step, so the error
    # scales as n * eps * max|theta| * cond(X); in 3000 examples the worst
    # was 0.25 of that, and the bound is four times it.
    dim = len(omegas)
    assume(dim == 1 or abs(np.exp(1j * omegas[0]) - np.exp(1j * omegas[1])) >= 0.1)
    if dim == 2:
        spec = SystemSpec("torus_rotation", {"omega1": omegas[0], "omega2": omegas[1]})
    else:
        spec = SystemSpec("circle_rotation", {"omega": omegas[0]})
    traj = integrate(spec, start[:dim], 0.0, n)
    phases = _dict(*(_phase(f"z{j}", tuple(np.eye(dim)[j])) for j in range(dim)))
    pair = SnapshotPair.from_series(phases.evaluate(traj.states))
    truth = known_spectrum(spec)
    bound = (4 * n * np.finfo(float).eps * max(np.abs(traj.states).max(), 1.0)
             * np.linalg.cond(pair.X))

    assert _eigenvalue_error(truth, np.linalg.eigvals(pseudoinverse_dmd(pair))) <= bound
    section = finite_section_matrix(phases, traj)
    assert _eigenvalue_error(truth, section.eigenvalues()) <= bound
    assert section.route_disagreement <= 1e-10


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2), st.integers(50, 500),
)
@example(1.0, np.sqrt(2.0), [0.2, 0.9], 200)  # the torus_rotation defaults
def test_closed_phase_pair_of_a_drawn_torus_rotation_is_detected(w1, w2, start, n):
    # z1, z2 and their product z3 are eigenfunctions, so the pair {z1, z2}
    # is closed with A = diag(exp(i w)) and puts nothing on z3, up to
    # rounding: the angles' (eps * |theta|) and exp's and the fit's (a few
    # eps), amplified by cond(F).  In 8000 draws the worst was 1.7 times
    # eps * max(|theta|, 1) * cond(F) (small angles) and the bound is 16
    # times it.  Multipliers at least 0.1 apart keep the phases independent.
    lams = np.exp(1j * np.array([w1, w2, w1 + w2]))
    assume(np.abs(np.subtract.outer(lams, lams))[np.triu_indices(3, 1)].min() >= 0.1)
    spec = SystemSpec("torus_rotation", {"omega1": w1, "omega2": w2})
    traj = integrate(spec, start, 0.0, n)
    phases = _dict(_phase("z1", (1.0, 0.0)), _phase("z2", (0.0, 1.0)), _phase("z3", (1.0, 1.0)))
    section = finite_section_matrix(phases, traj)
    bound = (16 * np.finfo(float).eps * max(np.abs(traj.states).max(), 1.0)
             * np.linalg.cond(phases.evaluate(traj.states)))
    found = detect_linear_subrepresentation(section, ["z1", "z2"])
    assert found["is_linear"] and found["leakage"] <= bound
    assert np.abs(found["A"] - np.diag(lams[:2])).max() <= bound


# configs/limit_cycle_edmd.json
_LIMIT_CYCLE_DICTIONARY = _dict(
    Observable("1", "constant"),
    Observable("r^-2", "monomial", powers=(-2.0, 0.0)),
    _phase("e^{i*theta}", (0.0, 1.0)),
    _phase("e^{-i*theta}", (0.0, -1.0)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(st.floats(1.5, 2.5), st.floats(0.0, 2.0 * np.pi), st.integers(2000, 100_000))
@example(2.0, 0.0, 100_000)  # the shipped config
def test_limit_cycle_edmd_eigenvalues_lie_on_the_lattice(r0, theta0, n):
    # u = r^-2 obeys u' = 2 - 2u on r' = r(1 - r^2), so {1, r^-2} and the two
    # phases span an invariant subspace, and EDMD on them gives the lattice
    # points 0, -2 (the entry's decay rate) and +-i omega, up to RK4 and
    # rounding error.  The bounds are the config's tolerances: real-axis
    # points within 1e-3, rotation points within 1e-6.  Below about 1000
    # steps (one radian of the cycle) the dictionary is nearly dependent on
    # the data and the section warns, so n starts at 2000.
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, (r0, theta0), 1e-3, n)
    section = finite_section_matrix(_LIMIT_CYCLE_DICTIONARY, traj)
    cont = continuous_time_eigenvalues(section.eigenvalues(), traj.dt)
    lattice = known_spectrum(spec, N=1, M=1)
    nearest = lattice[np.abs(np.subtract.outer(cont, lattice)).argmin(axis=1)]
    assert set(nearest.tolist()) == {0j, -2 + 0j, 1j, -1j}
    err = np.abs(cont - nearest)
    assert err[nearest.imag == 0].max() <= 1e-3
    assert err[nearest.imag != 0].max() <= 1e-6


_SECTION = FiniteSectionMatrix(np.eye(2), _dict(_phase("a", (1,)), _phase("b", (2,))))
# one case per UsageError guard on malformed sections and index sets
_GUARDS = {
    "section_shape": (lambda: FiniteSectionMatrix(np.eye(3), _dict(_phase("a", (1,)))),
                      r"section shape \(3, 3\) does not match dictionary size 1"),
    "section_non_finite": (lambda: FiniteSectionMatrix([[np.nan]], _dict(_phase("a", (1,)))),
                           "section matrix contains non-finite entries"),
    "section_one_state": (lambda: finite_section_matrix(_dict(_phase("a", (1,))),
                                                        np.zeros((1, 1))),
                          "need at least two states to fit a section"),
    "index_set_none": (lambda: detect_linear_subrepresentation(_SECTION, None),
                       "index set must not be None"),
    "index_set_empty": (lambda: detect_linear_subrepresentation(_SECTION, []),
                        "index set must not be empty"),
    "index_out_of_range": (lambda: detect_linear_subrepresentation(_SECTION, [5]),
                           "index 5 out of range for dictionary of size 2"),
    "index_set_duplicates": (lambda: detect_linear_subrepresentation(_SECTION, ["a", 0]),
                             "index set contains duplicates"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
