import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopman._artifacts import strict_json
from koopman.dmd import (
    CompanionModel,
    SpectralTriple,
    _pseudoinverse_and_rank,
    companion_dmd,
    continuous_time_eigenvalues,
    moore_penrose_pseudoinverse,
    pseudoinverse_dmd,
    spectral_triple,
)
from koopman.embedding import SnapshotPair, hankel_pair
from koopman.errors import DefectiveMatrixError, PreconditionError, UsageError
from koopman.systems import SystemSpec, integrate, known_spectrum


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


def test_pinv_rank_counts_the_kept_singular_values():
    # the rank companion DMD and fit_static_linear report comes from the
    # pseudoinverse's own SVD; on clear-cut ranks it is np.linalg.matrix_rank
    rng = np.random.default_rng(11)
    for n, m in [(4, 6), (6, 4), (5, 5)]:
        for r in range(1, min(n, m) + 1):
            M = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
            P, rank = _pseudoinverse_and_rank(M)
            assert rank == r == np.linalg.matrix_rank(M)
            assert P.tobytes() == moore_penrose_pseudoinverse(M).tobytes()
    assert _pseudoinverse_and_rank(np.zeros((3, 2)))[1] == 0


def test_pinv_zero_matrix():
    P = moore_penrose_pseudoinverse(np.zeros((3, 2)))
    assert P.shape == (2, 3)
    np.testing.assert_allclose(P, 0.0)


def test_pinv_of_subnormal_scale_data_is_refused_not_overflowed():
    # 1 / 5e-324 overflows to inf, which would turn the whole matrix into NaN
    with pytest.raises(PreconditionError, match="float range"):
        moore_penrose_pseudoinverse(np.array([[5e-324, 0.0], [0.0, 1e-323]]))


def test_pinv_of_data_whose_largest_singular_value_overflows_is_refused():
    # the cutoff would be inf and keep that value alone: a silent zero fit
    with pytest.raises(PreconditionError, match="largest singular value overflows"):
        _pseudoinverse_and_rank([[1.5e308, 1.5e308], [1.0, 2.0]])
    pair = SnapshotPair(X=np.full((1, 60), 1e308), Xp=np.full((1, 60), 1e308))
    for fit in (companion_dmd, pseudoinverse_dmd):
        with pytest.raises(PreconditionError, match="largest singular value overflows"):
            fit(pair)


def test_companion_fit_whose_residual_overflows_is_refused_without_numpy_warning():
    # finite data and a finite fit, but the residual's norm leaves the float range
    X = np.array([[1e300, -1e300, 2e300], [2e300, 1e300, -1e300]])
    pair = SnapshotPair(X=X, Xp=-X)
    with pytest.raises(PreconditionError, match="fit residual exceeds the float range"):
        companion_dmd(pair)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_pinv_of_non_finite_data_is_refused_naming_the_sample(bad):
    # an overflowed dictionary: its SVD gives NaN singular values, none kept
    X = np.ones((2, 6))
    X[1, 4] = X[0, 5] = bad
    with pytest.raises(PreconditionError, match=r"non-finite value .* in entry 1 at sample 4"):
        _pseudoinverse_and_rank(X)
    # a snapshot pair refuses such data before either fit can see it
    with pytest.raises(PreconditionError, match=r"non-finite X value .* in entry 1 at sample 4"):
        SnapshotPair(X=X, Xp=np.ones((2, 6)))
    with pytest.raises(PreconditionError, match=r"non-finite Xp value .* in entry 1 at sample 4"):
        SnapshotPair(X=np.ones((2, 6)), Xp=X)


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


def test_companion_eigenvalues_are_solved_once_and_read_only():
    model = companion_dmd(SnapshotPair(X=[[1.0, 1.0]], Xp=[[1.0, 2.0]]))
    assert model.eigenvalues is model.eigenvalues
    with pytest.raises(ValueError, match="read-only"):
        model.eigenvalues[0] = 0.0


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


def test_spectral_triple_leaves_an_eigenfunction_that_vanishes_on_the_data_unnormalized():
    # a zero observable row: the eigenfunction paired with it is zero on every sample
    X = np.vstack([np.random.default_rng(12).normal(size=20), np.zeros(20)])
    A = np.diag([0.5, -0.25])
    with pytest.warns(RuntimeWarning, match=r"eigenfunction \d vanishes on the data"):
        trip = spectral_triple(A, SnapshotPair(X=X, Xp=A @ X))
    zero = np.flatnonzero(~trip.eigenfunction_samples.any(axis=1))
    assert trip.eigenvalues[zero].tolist() == [-0.25]


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
    pair = SnapshotPair.from_series(series)
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
    # the eigenvalues of this real A are real, and still written as objects
    obj = json.loads(strict_json(trip.to_json(), "triple.json"))
    assert set(obj) == {"eigenvalues", "modes", "eigenfunction_samples"}
    assert obj["eigenvalues"] == [{"im": 0.0, "re": 0.5}, {"im": 0.0, "re": 0.2}]
    assert len(obj["modes"]) == 2 and len(obj["modes"][0]) == 2
    assert len(obj["eigenfunction_samples"]) == 2
    for row, samples in zip(obj["eigenfunction_samples"], trip.eigenfunction_samples):
        assert [complex(z["re"], z["im"]) for z in row] == samples.tolist()


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


def test_continuous_time_eigenvalues_refuse_a_nan_step():
    # a dt <= 0 guard let NaN through, to NaN exponents and a numpy warning
    with pytest.raises(UsageError, match="dt must be positive"):  # and no warning
        continuous_time_eigenvalues([np.exp(-0.2)], float("nan"))


def test_companion_model_validates_shapes():
    with pytest.raises(UsageError):
        CompanionModel(c=np.ones(2), C=np.eye(3), residual=0.0)


@st.composite
def _diagonalizable_maps(draw):
    """(B, V): a real 2-4-D B = V D V^-1 with separated eigenvalues, cond(V) <= 1e2.

    D holds real eigenvalues and rotation-scaling blocks r R(t), whose
    eigenvectors are unitary, so B's eigenvector matrix has the
    condition number of V.
    """
    dim = draw(st.integers(2, 4))
    blocks, lam = [], []
    for _ in range(draw(st.integers(0, dim // 2))):
        r, t = draw(st.floats(0.5, 1.0)), draw(st.floats(0.3, 2.8))
        blocks.append(r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]))
        lam += [r * np.exp(1j * t), r * np.exp(-1j * t)]
    while len(lam) < dim:
        lam.append(draw(st.floats(-1.0, 1.0)))
        blocks.append(np.array([[lam[-1].real]]))
    gaps = np.abs(np.subtract.outer(lam, lam)) + 9.0 * np.eye(dim)
    assume(gaps.min() >= 0.1)
    entry = st.floats(-1.0, 1.0)
    V = np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
    V = V.reshape(dim, dim)
    assume(np.linalg.cond(V) <= 1e2)
    V /= np.abs(V).max()  # B does not depend on the scale of V; V^-1 must not overflow
    D = np.zeros((dim, dim))
    at = 0
    for block in blocks:
        k = block.shape[0]
        D[at:at + k, at:at + k] = block
        at += k
    return V @ D @ np.linalg.inv(V), V


def _eigenvalue_error(truth, got):
    """Largest distance from a true eigenvalue to its nearest fitted one."""
    dist = np.abs(np.subtract.outer(truth, got))
    nearest = dist.argmin(axis=1)
    assert len(set(nearest)) == len(truth)  # a one-to-one matching
    return dist.min(axis=1).max()


_ROTATION = 0.9 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_diagonalizable_maps(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
# a subnormal start, which hypothesis draws in some runs and not in others
@example((_ROTATION, np.eye(2)), [0.0, 5e-324, 0.0, 0.0])
def test_square_krylov_fits_recover_the_known_spectrum(map_and_vectors, start):
    # X = [x0, B x0, ..., B^(d-1) x0] is square, so both fits reproduce B's
    # spectrum up to rounding.  By Bauer-Fike an eigenvalue moves by at most
    # the eigenvector condition number times the perturbation of the
    # matrix, and a fit from X perturbs it by about eps * cond(X) times its
    # norm; 16 * dim covers the constants of the SVD and the eigensolver.
    B, V = map_and_vectors
    dim = B.shape[0]
    spec = SystemSpec("linear_map", {"B": B})
    pair = SnapshotPair.from_series(integrate(spec, start[:dim], 0.0, dim).states)
    cond_x = np.linalg.cond(pair.X)
    assume(cond_x <= 1e8)
    if np.linalg.svd(pair.X, compute_uv=False)[-1] < np.finfo(float).tiny:
        # a start vector of subnormals: X+ would overflow, and both fits say so
        for fit in (pseudoinverse_dmd, companion_dmd):
            with pytest.raises(PreconditionError, match="float range"):
                fit(pair)
        return
    truth = known_spectrum(spec)
    scale = 16 * dim * np.finfo(float).eps * cond_x

    A = pseudoinverse_dmd(pair)
    pinv_bound = scale * np.linalg.cond(V) * np.linalg.norm(A, 2)
    assert _eigenvalue_error(truth, np.linalg.eigvals(A)) <= pinv_bound

    model = companion_dmd(pair)
    # the companion matrix's eigenvectors are the Vandermonde rows of its eigenvalues
    companion_bound = scale * np.linalg.cond(np.vander(truth)) * np.linalg.norm(model.C, 2)
    assert _eigenvalue_error(truth, model.eigenvalues) <= companion_bound


_PAIR = SnapshotPair(np.ones((1, 3)), np.ones((1, 3)))
# one case per UsageError guard on malformed shapes
_GUARDS = {
    "triple_count": (lambda: SpectralTriple(np.ones(2), np.ones((1, 3)), np.ones((2, 1)), 0.0),
                     "triple components disagree on eigenvalue count"),
    "eigenmatrix_square": (lambda: spectral_triple(np.ones((1, 2)), _PAIR),
                           "eigenmatrix must be square"),
    "eigenmatrix_size": (lambda: spectral_triple(np.eye(2), _PAIR),
                         "eigenmatrix size must match number of observable rows"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
