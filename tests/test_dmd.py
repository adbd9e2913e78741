import warnings

import numpy as np
import pytest

from koopman.dmd import (
    CompanionModel,
    companion_dmd,
    continuous_time_eigenvalues,
    moore_penrose_pseudoinverse,
    pseudoinverse_dmd,
    spectral_triple,
)
from koopman.embedding import SnapshotPair, hankel_pair
from koopman.errors import DefectiveMatrixError, PreconditionError, UsageError
from koopman.systems import SystemSpec, integrate


def _penrose_ok(M, P, tol=1e-10):
    scale = max(np.linalg.norm(M), 1.0)
    assert np.linalg.norm(M @ P @ M - M) <= tol * scale
    assert np.linalg.norm(P @ M @ P - P) <= tol * max(np.linalg.norm(P), 1.0)
    assert np.linalg.norm((M @ P).conj().T - M @ P) <= tol * scale
    assert np.linalg.norm((P @ M).conj().T - P @ M) <= tol * scale


def test_pinv_identity_and_diag():
    np.testing.assert_allclose(moore_penrose_pseudoinverse(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(
        moore_penrose_pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0])
    )


def test_pinv_exact_zero_singular_value_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = moore_penrose_pseudoinverse(np.diag([2.0, 0.0, 0.0]))
    np.testing.assert_array_equal(P, np.diag([0.5, 0.0, 0.0]))


def test_pinv_left_inverse_full_rank():
    M = np.random.default_rng(5).normal(size=(5, 3))
    P = moore_penrose_pseudoinverse(M)
    np.testing.assert_allclose(P @ M, np.eye(3), atol=1e-10)


def test_pinv_penrose_identities_across_ranks():
    rng = np.random.default_rng(11)
    for n, m in [(4, 6), (6, 4), (5, 5)]:
        for r in range(1, min(n, m) + 1):
            M = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
            M = M + 1j * (rng.normal(size=(n, r)) @ rng.normal(size=(r, m)))
            _penrose_ok(M, moore_penrose_pseudoinverse(M))


def test_pinv_zero_matrix():
    P = moore_penrose_pseudoinverse(np.zeros((3, 2)))
    assert P.shape == (2, 3)
    np.testing.assert_allclose(P, 0.0)


def test_companion_exact_period_gives_unit_vector():
    rng = np.random.default_rng(2)
    base = rng.normal(size=7)
    series = np.tile(base, 3)
    pair = hankel_pair(series, rows=7)
    pair = SnapshotPair(X=pair.X[:, :7], Xp=pair.Xp[:, :7])
    model = companion_dmd(pair)
    e1 = np.zeros(7)
    e1[0] = 1.0
    np.testing.assert_allclose(model.c, e1, atol=1e-10)
    assert model.residual < 1e-10


def test_companion_scalar_single_column():
    pair = SnapshotPair(X=[[2.0]], Xp=[[1.2]])
    model = companion_dmd(pair)
    np.testing.assert_allclose(model.c, [0.6])
    np.testing.assert_allclose(model.C, [[0.6]])


def test_companion_fibonacci_recurrence():
    pair = SnapshotPair(X=[[1.0, 1.0]], Xp=[[1.0, 2.0]])
    model = companion_dmd(pair)
    np.testing.assert_allclose(model.c, [1.0, 1.0], atol=1e-12)
    golden = (1 + np.sqrt(5)) / 2
    np.testing.assert_allclose(
        sorted(model.eigenvalues.real), [1 - golden, golden], atol=1e-12
    )


def test_companion_structure_and_rank_warning():
    pair = SnapshotPair(X=np.ones((1, 3)), Xp=np.ones((1, 3)))
    with pytest.warns(RuntimeWarning, match="ill-posed"):
        model = companion_dmd(pair)
    np.testing.assert_allclose(model.C[1, 0], 1.0)
    np.testing.assert_allclose(model.C[2, 1], 1.0)
    np.testing.assert_allclose(model.C[:, -1], model.c)


def test_companion_matches_pinv_dmd_on_square_data(assert_spectrum_close):
    # same data, two algorithms: C is similar to A when X is invertible
    B = np.array([[0.6, 0.4, 0.0], [-0.3, 0.8, 0.1], [0.0, 0.2, 0.9]])
    x = np.array([1.0, -0.5, 0.7])
    cols = [x]
    for _ in range(3):
        cols.append(B @ cols[-1])
    X = np.column_stack(cols[:3])
    Xp = np.column_stack(cols[1:])
    pair = SnapshotPair(X=X, Xp=Xp)
    ev_c = companion_dmd(pair).eigenvalues
    ev_a = np.linalg.eigvals(pseudoinverse_dmd(pair))
    assert_spectrum_close(ev_c, ev_a, atol=1e-8)


def test_pinv_dmd_torus_rotation_diagonal():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.1, 0.9], dt=0.0, n_steps=20)
    Z = np.exp(1j * traj.states).T
    pair = SnapshotPair(X=Z[:, :-1], Xp=Z[:, 1:])
    A = pseudoinverse_dmd(pair)
    np.testing.assert_allclose(A, np.diag(np.exp([0.3j, 0.7j])), atol=1e-10)


def test_pinv_dmd_identity_dynamics():
    X = np.random.default_rng(8).normal(size=(3, 10))
    A = pseudoinverse_dmd(SnapshotPair(X=X, Xp=X))
    ev = np.linalg.eigvals(A)
    np.testing.assert_allclose(np.sort(ev.real), [1.0, 1.0, 1.0], atol=1e-10)


def test_pinv_dmd_recovers_linear_map():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(3, 3)) * 0.5
    X = rng.normal(size=(3, 12))
    pair = SnapshotPair(X=X, Xp=B @ X)
    np.testing.assert_allclose(pseudoinverse_dmd(pair), B, atol=1e-8)


def test_spectral_triple_diagonal_matrix():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(2, 30)) + 1j * rng.normal(size=(2, 30))
    A = np.diag([0.5, -0.25])
    trip = spectral_triple(A, SnapshotPair(X=X, Xp=A @ X))
    order = np.argsort(trip.eigenvalues.real)
    # phi_j is the j-th observable row up to normalization and phase
    for j, lam in zip(order, [-0.25, 0.5]):
        row = trip.eigenfunction_samples[j]
        src = X[0] if lam == 0.5 else X[1]
        ratio = row / src
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)
    assert trip.reconstruction_residual < 1e-10


def test_spectral_triple_normalization_and_phase():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(2, 25))
    A = np.array([[0.9, 0.1], [0.0, 0.4]])
    trip = spectral_triple(A, SnapshotPair(X=X, Xp=A @ X))
    for row in trip.eigenfunction_samples:
        assert np.sqrt(np.mean(np.abs(row) ** 2)) == pytest.approx(1.0, abs=1e-12)
        peak = row[np.argmax(np.abs(row))]
        assert abs(peak.imag) < 1e-12 and peak.real > 0


def test_spectral_triple_limit_cycle_eigenvalues():
    dt = 1e-3
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [0.5, 0.0], dt=dt, n_steps=3000)
    r, th = traj.states[:, 0], traj.states[:, 1]
    series = np.column_stack([(r**2 - 1) / r**2, np.exp(1j * th)])
    pair = SnapshotPair.from_series(series, dt=dt)
    trip = spectral_triple(pseudoinverse_dmd(pair), pair)
    got = np.sort_complex(trip.eigenvalues)
    want = np.sort_complex(np.array([np.exp(-2 * dt), np.exp(1j * dt)]))
    np.testing.assert_allclose(got, want, atol=1e-4)


def test_spectral_triple_torus_reconstruction_and_products():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.2, 0.5], dt=0.0, n_steps=40)
    Z = np.exp(1j * traj.states).T
    pair = SnapshotPair(X=Z[:, :-1], Xp=Z[:, 1:])
    trip = spectral_triple(pseudoinverse_dmd(pair), pair)
    assert trip.reconstruction_residual <= 1e-10
    prod = trip.eigenfunction_samples[0] * trip.eigenfunction_samples[1]
    lam12 = trip.eigenvalues[0] * trip.eigenvalues[1]
    np.testing.assert_allclose(prod[1:] / prod[:-1], lam12, atol=1e-8)


def test_spectral_triple_rejects_defective_matrix():
    X = np.random.default_rng(3).normal(size=(2, 10))
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DefectiveMatrixError):
        spectral_triple(A, SnapshotPair(X=X, Xp=A @ X))


def test_spectral_triple_json_shape():
    X = np.random.default_rng(6).normal(size=(2, 8))
    A = np.diag([0.5, 0.2])
    trip = spectral_triple(A, SnapshotPair(X=X, Xp=A @ X))
    obj = trip.to_json()
    assert set(obj) == {"eigenvalues", "modes", "eigenfunction_samples"}
    assert {"re", "im"} == set(obj["eigenvalues"][0])
    assert len(obj["modes"]) == 2 and len(obj["modes"][0]) == 2
    assert len(obj["eigenfunction_samples"][0]) == 8


def test_continuous_time_eigenvalues_values():
    np.testing.assert_allclose(continuous_time_eigenvalues([1.0], 0.37), [0.0])
    np.testing.assert_allclose(
        continuous_time_eigenvalues([np.exp(-2 * 0.001)], 0.001), [-2.0], atol=1e-12
    )
    np.testing.assert_allclose(
        continuous_time_eigenvalues([np.exp(0.5j * 0.01)], 0.01), [0.5j], atol=1e-12
    )


def test_continuous_time_eigenvalue_errors_and_warnings():
    with pytest.raises(PreconditionError):
        continuous_time_eigenvalues([0.0], 0.1)
    with pytest.raises(UsageError):
        continuous_time_eigenvalues([1.0], 0.0)
    with pytest.warns(RuntimeWarning, match="alias"):
        continuous_time_eigenvalues([-1.0], 0.1)


def test_companion_model_validates_shapes():
    with pytest.raises(UsageError):
        CompanionModel(c=np.ones(2), C=np.eye(3), residual=0.0)
