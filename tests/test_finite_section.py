import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopman.dmd import continuous_time_eigenvalues, pseudoinverse_dmd
from koopman.embedding import SnapshotPair
from koopman.errors import DegenerateDictionaryError, UsageError
from koopman.finite_section import (
    FiniteSectionMatrix,
    compression,
    detect_linear_subrepresentation,
    detect_nonlinear_representation,
    dual_basis,
    evaluate_dictionary,
    finite_section_matrix,
)
from koopman.observables import Observable, ObservableDictionary
from koopman.systems import SystemSpec, integrate, known_spectrum


def _dict(*entries):
    return ObservableDictionary(tuple(entries))


def _phase(name, k):
    return Observable(name, "phase", k=k)


def test_evaluate_dictionary_layout_and_warning():
    d = _dict(Observable("one", "constant"), Observable("x", "coordinate", index=0))
    states = np.array([[1.0], [2.0], [3.0]])
    F = evaluate_dictionary(d, states)
    np.testing.assert_allclose(F, [[1, 1], [1, 2], [1, 3]])
    with pytest.warns(RuntimeWarning, match="underdetermined"):
        evaluate_dictionary(d, np.array([[1.0]]))


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


def test_dual_basis_weighted_duality():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    w = rng.uniform(0.5, 2.0, size=30)
    np.testing.assert_allclose(dual_basis(F, weights=w) @ F, np.eye(4), atol=1e-10)
    with pytest.raises(UsageError):
        dual_basis(F, weights=-w)


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
    with pytest.raises(DegenerateDictionaryError, match="condition number inf"):
        dual_basis(F)


def test_section_circle_rotation_single_mode():
    spec = SystemSpec("circle_rotation", {"omega": 0.9})
    traj = integrate(spec, [0.1], dt=0.0, n_steps=30)
    sec = finite_section_matrix(_dict(_phase("z", (1,))), traj)
    assert sec.U_tilde.shape == (1, 1)
    np.testing.assert_allclose(sec.U_tilde[0, 0], np.exp(0.9j), atol=1e-10)
    assert sec.sample_count == 31
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
    F = evaluate_dictionary(d, traj)
    phi = F @ V
    # each recovered eigenfunction advances by its eigenvalue along the orbit
    for j in range(2):
        np.testing.assert_allclose(phi[1:, j], lam[j] * phi[:-1, j], atol=1e-9)


def test_compression_basics():
    d = _dict(_phase("a", (1,)), _phase("b", (2,)), _phase("c", (3,)))
    U = np.arange(9.0).reshape(3, 3)
    sec = FiniteSectionMatrix(U_tilde=U, dictionary=d, sample_count=10)
    full = compression(sec, ["a", "b", "c"])
    np.testing.assert_allclose(full.U_tilde, U)
    sub = compression(sec, [0, 2])
    np.testing.assert_allclose(sub.U_tilde, [[0, 2], [6, 8]])
    assert sub.dictionary.names == ("a", "c")
    with pytest.raises(UsageError):
        compression(sec, [])
    with pytest.raises(UsageError):
        compression(sec, [5])


def test_compression_composes_by_name_intersection():
    d = _dict(*(_phase(n, (i + 1,)) for i, n in enumerate("abcd")))
    U = np.random.default_rng(4).normal(size=(4, 4))
    sec = FiniteSectionMatrix(U_tilde=U, dictionary=d, sample_count=9)
    two_step = compression(compression(sec, ["a", "b", "c"]), ["b", "c"])
    direct = compression(sec, ["b", "c"])
    np.testing.assert_allclose(two_step.U_tilde, direct.U_tilde)
    assert two_step.dictionary.names == direct.dictionary.names


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
    sec = FiniteSectionMatrix(np.ones((2, 2)), d, sample_count=5)
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
    sec = FiniteSectionMatrix(np.eye(2), d, sample_count=4)
    with pytest.raises(UsageError):
        detect_nonlinear_representation(sec, ["a"], ["a"])


def test_section_csv_and_json(tmp_path):
    d = _dict(_phase("z1", (1,)), _phase("z2", (2,)))
    U = np.array([[1 + 2j, 0.0], [0.5j, -1.0]])
    sec = FiniteSectionMatrix(U, d, sample_count=7)
    path = tmp_path / "sec.csv"
    sec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2"
    vals = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(vals[0], [1.0, 2.0, 0.0, 0.0])
    obj = sec.to_json()
    assert obj["sample_count"] == 7
    assert obj["U_tilde"][1][0] == {"re": 0.0, "im": 0.5}


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
