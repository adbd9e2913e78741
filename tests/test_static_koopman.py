"""Pullback regression between different spaces and fiber-mean projection."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopman.errors import PreconditionError, UsageError
from koopman.observables import Observable, ObservableDictionary
from koopman.static_koopman import (
    PairedSamples,
    conditional_expectation_projection,
    fiber_indicator_matrix,
    fiber_mean_matrix,
    fit_static_linear,
)


def coordinate_dictionary(dim, prefix="x"):
    obs = [
        Observable(name=f"{prefix}{i}", kind="coordinate", index=i)
        for i in range(dim)
    ]
    return ObservableDictionary(obs)


def test_linear_map_recovered_exactly():
    rng = np.random.default_rng(11)
    B = rng.normal(size=(3, 3))
    inputs = rng.normal(size=(50, 3))
    outputs = inputs @ B.T
    pairs = PairedSamples(inputs=inputs, outputs=outputs)
    fit = fit_static_linear(pairs, coordinate_dictionary(3), coordinate_dictionary(3, "y"))
    assert np.allclose(fit.A, B, atol=1e-8)
    assert fit.residual <= 1e-8
    assert not fit.rank_deficient


def test_constant_output_row_is_indicator():
    rng = np.random.default_rng(3)
    inputs = rng.normal(size=(40, 2))
    outputs = inputs @ np.array([[2.0, 1.0], [0.0, -1.0]])
    one = Observable(name="one", kind="constant")
    dict_M = ObservableDictionary([one] + list(coordinate_dictionary(2)))
    dict_N = ObservableDictionary(
        [Observable(name="one_n", kind="constant")]
        + list(coordinate_dictionary(2, "y"))
    )
    fit = fit_static_linear(PairedSamples(inputs, outputs), dict_M, dict_N)
    assert np.allclose(fit.A[0], [1.0, 0.0, 0.0], atol=1e-8)


def test_square_map_single_output_row():
    m = np.linspace(-2.0, 2.0, 30)
    pairs = PairedSamples(inputs=m, outputs=m**2)
    dict_M = ObservableDictionary(
        [
            Observable(name="one", kind="constant"),
            Observable(name="m", kind="coordinate", index=0),
            Observable(name="m2", kind="monomial", powers=(2,)),
        ]
    )
    dict_N = ObservableDictionary([Observable(name="n", kind="coordinate", index=0)])
    fit = fit_static_linear(pairs, dict_M, dict_N)
    assert fit.A.shape == (1, 3)
    assert np.allclose(fit.A[0], [0.0, 0.0, 1.0], atol=1e-8)
    assert fit.residual <= 1e-8


def test_rank_deficient_inputs_flagged_but_solved():
    inputs = np.tile([1.0, 2.0], (10, 1))
    outputs = np.tile([3.0], (10, 1))
    pairs = PairedSamples(inputs, outputs)
    with pytest.warns(RuntimeWarning, match="rank"):
        fit = fit_static_linear(
            pairs, coordinate_dictionary(2), coordinate_dictionary(1, "y")
        )
    assert fit.rank_deficient
    assert fit.rank == 1
    assert np.all(np.isfinite(fit.A))
    # minimum-norm solution still reproduces the data
    assert fit.residual <= 1e-10


def test_misaligned_pairs_rejected():
    with pytest.raises(UsageError):
        PairedSamples(inputs=np.zeros((3, 2)), outputs=np.zeros((4, 2)))


def test_paired_samples_csv_roundtrip_mixed_dims(tmp_path):
    rng = np.random.default_rng(7)
    pairs = PairedSamples(inputs=rng.normal(size=(7, 3)), outputs=rng.normal(size=(7, 1)))
    path = tmp_path / "pairs.csv"
    pairs.to_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (14, 4)
    np.testing.assert_array_equal(rows[:, 0], np.repeat([0.0, 1.0], 7))
    np.testing.assert_array_equal(rows[:7, 1:], pairs.inputs)
    np.testing.assert_array_equal(rows[7:, 1:2], pairs.outputs)
    # the narrower output rows are padded with nan to the common width
    assert np.isnan(rows[7:, 2:]).all()


def test_static_fit_csv_export(tmp_path):
    rng = np.random.default_rng(5)
    B = rng.normal(size=(2, 2))
    inputs = rng.normal(size=(20, 2))
    fit = fit_static_linear(
        PairedSamples(inputs, inputs @ B.T),
        coordinate_dictionary(2),
        coordinate_dictionary(2, "y"),
    )
    path = tmp_path / "A.csv"
    fit.to_csv(path)
    assert np.allclose(np.loadtxt(path, delimiter=","), B, atol=1e-8)


def test_static_fit_csv_of_a_complex_matrix_interleaves_re_and_im(tmp_path):
    rng = np.random.default_rng(6)
    inputs = rng.uniform(0.0, 1.0, size=(30, 2))
    phases = ObservableDictionary(
        [Observable(name=f"z{i}", kind="phase", k=k) for i, k in enumerate([(1, 0), (0, 1)])]
    )
    fit = fit_static_linear(PairedSamples(inputs, inputs), coordinate_dictionary(2), phases)
    assert np.any(fit.A.imag != 0)
    fit.to_csv(tmp_path / "A.csv")
    columns = [part[:, j] for j in range(2) for part in (fit.A.real, fit.A.imag)]
    np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",")
    assert (tmp_path / "A.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fit_whose_residual_overflows_is_refused():
    # finite inputs and outputs; A is zero, and |Y| leaves the float range
    inputs = np.array([[1e300], [-1e300], [1e300], [-1e300]])
    outputs = np.full((4, 1), 1.5e308)
    with pytest.raises(PreconditionError, match="fit residual exceeds the float range"):
        fit_static_linear(
            PairedSamples(inputs, outputs), coordinate_dictionary(1), coordinate_dictionary(1)
        )


def test_single_fiber_projects_to_global_mean():
    rng = np.random.default_rng(0)
    f = rng.normal(size=17)
    out = conditional_expectation_projection(f, np.zeros(17, dtype=int))
    assert np.allclose(out, np.mean(f), atol=1e-12)


def test_half_interval_fiber_means():
    m = np.linspace(-1.0, 1.0, 4001)
    labels = (m >= 0).astype(int)
    out = conditional_expectation_projection(m, labels)
    assert np.allclose(out[m < 0], -0.5, atol=1e-3)
    assert np.allclose(out[m >= 0], 0.5, atol=1e-3)
    # constant on each fiber
    assert np.unique(out[m < 0]).size == 1
    assert np.unique(out[m >= 0]).size == 1


def test_idempotence_is_exact():
    rng = np.random.default_rng(42)
    f = rng.normal(size=(200, 3))
    labels = rng.integers(0, 7, size=200)
    once = conditional_expectation_projection(f, labels)
    twice = conditional_expectation_projection(once, labels)
    assert np.array_equal(once, twice)


def test_fiber_constant_input_passes_through_bitwise():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 5, size=120)
    values = rng.normal(size=5)
    f = values[labels]
    out = conditional_expectation_projection(f, labels)
    assert np.array_equal(out, f)


def test_orthogonality_against_fiber_constant_observables():
    rng = np.random.default_rng(23)
    f = rng.normal(size=300)
    labels = rng.integers(0, 5, size=300)
    pf = conditional_expectation_projection(f, labels)
    for trial in range(5):
        h = rng.normal(size=5)[labels]
        inner = abs(np.dot(f - pf, h))
        assert inner <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(h)


def test_complex_samples_supported():
    f = np.array([1.0 + 1j, 3.0 - 1j, 2.0])
    out = conditional_expectation_projection(f, [0, 0, 1])
    assert np.allclose(out, [2.0, 2.0, 2.0], atol=1e-14)
    assert np.iscomplexobj(out)


def test_pushforward_pullback_matrices():
    rng = np.random.default_rng(31)
    labels = rng.integers(0, 4, size=60)
    E = fiber_indicator_matrix(labels)
    W = fiber_mean_matrix(labels)
    assert E.shape == (60, 4)
    assert W.shape == (4, 60)
    # pushforward of pullback is the identity on fiber space
    assert np.allclose(W @ E, np.eye(4), atol=1e-12)
    # with uniform weights the pullback is the pseudoinverse of the pushforward
    assert np.allclose(np.linalg.pinv(W), E, atol=1e-10)
    # their composition is the projection onto fiber-constant vectors
    P = E @ W
    assert np.allclose(P @ P, P, atol=1e-10)
    f = rng.normal(size=60)
    assert np.allclose(P @ f, conditional_expectation_projection(f, labels), atol=1e-12)


def test_projection_matrix_matches_the_fiber_mean_route():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=25)
    P = fiber_indicator_matrix(labels) @ fiber_mean_matrix(labels)
    f = rng.normal(size=25)
    assert np.allclose(P @ f, conditional_expectation_projection(f, labels), atol=1e-12)


@st.composite
def _fibered_samples(draw):
    """Fiber labels and two real sample vectors, all of one length."""
    labels = draw(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    n = len(labels)
    f, g = (draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)) for _ in range(2))
    return np.array(labels), np.array(f), np.array(g)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_fibered_samples())
@example((np.zeros(5, int), np.arange(5.0), -np.arange(5.0)))  # one fiber
@example((np.arange(4), np.array([1.0, -2.0, 3.0, 0.5]), np.ones(4)))  # singletons
@example((np.array([0, 1, 0, 1]),
          np.array([2.0, 3.0, 2.0, 3.0]), np.array([1.0, 0.0, -1.0, 0.0])))  # f fiber-constant
def test_fiber_projection_is_an_orthogonal_projection(samples):
    # E is idempotent (exactly: a fiber-constant input passes through) and
    # self-adjoint in <a, b> = sum a b, and it is E @ W.  Each sum has
    # rounding of order n * eps times its terms' magnitudes; in 20000 draws
    # both gaps stayed below a tenth of that.
    labels, f, g = samples
    n, eps = labels.size, np.finfo(float).eps

    def project(v):
        return conditional_expectation_projection(v, labels)

    Pf, Pg = project(f), project(g)
    assert np.array_equal(project(Pf), Pf)
    scale = n * np.abs(f).max() * np.abs(g).max()
    assert abs(np.sum(Pf * g) - np.sum(f * Pg)) <= 4 * n * eps * scale
    by_matrix = fiber_indicator_matrix(labels) @ fiber_mean_matrix(labels) @ f
    assert np.abs(by_matrix - Pf).max() <= 4 * n * eps * np.abs(f).max()


def _fiber_means_by_column(f, labels):
    """conditional_expectation_projection as one bincount per column, a
    complex column as two (its real and imaginary parts): the reference for
    the one-block accumulation."""
    F = f[:, None] if f.ndim == 1 else f
    _, inv = np.unique(labels, return_inverse=True)
    K = int(inv.max()) + 1
    counts = np.bincount(inv, minlength=K)
    means = np.empty((K, F.shape[1]), dtype=F.dtype)
    for c in range(F.shape[1]):
        col = F[:, c]
        if np.iscomplexobj(col):
            num = np.bincount(inv, weights=col.real, minlength=K) + 1j * np.bincount(
                inv, weights=col.imag, minlength=K
            )
        else:
            num = np.bincount(inv, weights=col, minlength=K)
        means[:, c] = num / counts
    _, first_idx = np.unique(inv, return_index=True)
    firsts = F[first_idx]
    same = ~np.isin(np.arange(K), inv[np.any(F != firsts[inv], axis=1)])
    means[same] = firsts[same]
    out = means[inv]
    return out[:, 0] if f.ndim == 1 else out


@st.composite
def _fiber_blocks(draw):
    """Fiber labels and a real or complex, 1-D or 2-D sample block drawn at
    a scale from 1e-5 to 1e4."""
    labels = np.array(draw(st.lists(st.integers(0, 5), min_size=1, max_size=40)))
    width = draw(st.integers(0, 3))  # 0: a 1-D block
    shape = (labels.size,) if width == 0 else (labels.size, width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.standard_normal(shape)
    if draw(st.booleans()):
        f = f + 1j * rng.standard_normal(shape)
    return labels, f * 10.0 ** draw(st.integers(-5, 4))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_fiber_blocks())
@example((np.arange(4), np.array([1.0, -2.0, 3.0, 0.5])))  # fibers of one sample
@example((np.array([2, 0, 2, 1]), np.array([[1.0 + 2j, 3.0], [-1j, 0.5], [7.0, -2.0],
                                            [0.25, 1j]])))  # one singleton, complex 2-D
def test_fiber_means_keep_the_bits_of_the_per_column_route(samples):
    labels, f = samples
    got = conditional_expectation_projection(f, labels)
    want = _fiber_means_by_column(f, labels)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _conditioned_maps(draw):
    """A 1-5-D real matrix B with normal-float entries and cond(B) <= 1e6."""
    dim = draw(st.integers(1, 5))
    entry = st.floats(-10.0, 10.0, allow_subnormal=False)
    B = np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
    B = B.reshape(dim, dim)
    assume(np.linalg.cond(B) <= 1e6)
    return B


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_conditioned_maps(), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_static_fit_recovers_a_drawn_linear_map(B, seed, extra):
    # A = Y X+ with Y = B X rounded, so A = (I + E) B with ||E|| of order
    # dim * eps * cond(X) * cond(B); in 3000 examples the worst ratio was 5.3.
    # E is formed from B / max|B|, since B^-1 of a tiny B overflows.
    dim = B.shape[0]
    inputs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(dim + 1 + extra, dim))
    cond_x = np.linalg.cond(inputs.T)
    assume(cond_x <= 1e8)
    pairs = PairedSamples(inputs=inputs, outputs=inputs @ B.T)
    fit = fit_static_linear(pairs, coordinate_dictionary(dim), coordinate_dictionary(dim, "y"))
    scale = np.abs(B).max()
    E = ((fit.A - B) / scale) @ np.linalg.inv(B / scale)
    bound = 32 * dim * np.finfo(float).eps * cond_x * np.linalg.cond(B)
    assert np.linalg.norm(E, 2) <= bound
    assert not fit.rank_deficient


# one case per UsageError guard on malformed samples and labels
_GUARDS = {
    "no_sample_pairs": (lambda: PairedSamples([], []), "need at least one sample pair"),
    "labels_not_one_dimensional": (
        lambda: conditional_expectation_projection(np.ones(4), np.zeros((2, 2))),
        "fiber labels must be one-dimensional"),
    "labels_samples_length": (lambda: conditional_expectation_projection(np.ones(4), [0, 1, 0]),
                              "labels and samples must have equal length"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
