"""Resolved/orthogonal splitting of observable evolution and the
no-memory closure for rotations acting on truncated mode expansions."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koopman.errors import DegenerateDictionaryError, PreconditionError, UsageError
from koopman.mori_zwanzig import (
    FourierObservable,
    circle_rotation_closure,
    mz_decompose,
)
from koopman.observables import Observable, ObservableDictionary, fourier_box
from koopman.systems import SystemSpec, integrate

GOLDEN_OMEGA = 2.0 * np.pi * (np.sqrt(5.0) - 1.0) / 2.0


def phase_pair():
    return ObservableDictionary(
        [
            Observable(name="z1", kind="phase", k=(1.0, 0.0)),
            Observable(name="z2", kind="phase", k=(0.0, 1.0)),
        ]
    )


def lorenz_traj(n=200):
    spec = SystemSpec(kind="lorenz")
    return integrate(spec, (1.0, 1.0, 20.0), dt=0.01, n_steps=n)


def coords(names):
    return ObservableDictionary(
        [Observable(name=n, kind="coordinate", index=i) for i, n in enumerate(names)]
    )


def test_invariant_span_has_zero_orthogonal_part():
    spec = SystemSpec(kind="torus_rotation")
    traj = integrate(spec, (0.3, 1.1), dt=0.0, n_steps=40)
    dec = mz_decompose(phase_pair(), traj, k_max=5)
    assert np.all(dec.orthogonal_norms <= 1e-10)
    assert np.all(dec.orthogonal_norms <= 1e-10)
    # the one-step section is the diagonal of rotation multipliers
    expected = np.diag(np.exp(1j * np.array([1.0, np.sqrt(2.0)])))
    assert np.allclose(dec.section_matrix, expected, atol=1e-10)


def test_full_sample_space_span_is_fully_resolved():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(5, 3))
    dec = mz_decompose(coords("abc"), states, k_max=2)
    assert dec.window == 3
    assert np.all(dec.orthogonal_norms <= 1e-10)


def _reference_decompose(dictionary, states, k_max):
    """The two-pass algorithm mz_decompose ran before its one-pass loop.

    It builds every (QU)^k window first and then every projection (it also
    kept the (k_max + 1, window, N) resolved and orthogonal blocks); the
    one-pass loop must give the same bits.
    """
    m = states.shape[0]
    L = m - k_max
    Phi = dictionary.evaluate(states)
    base = Phi[:L]

    def project_coeffs(block):
        coeffs, *_ = np.linalg.lstsq(base, block, rcond=None)
        return coeffs

    def window_norm(block):
        return float(np.linalg.norm(block) / np.sqrt(block.shape[0]))

    section = project_coeffs(Phi[1 : 1 + L])
    N = len(dictionary)
    out = {
        "resolved_norms": np.empty(k_max + 1),
        "orthogonal_norms": np.empty(k_max + 1),
        "cross_norms": np.empty(k_max + 1),
        "orthogonal_norms_per_entry": np.empty((k_max + 1, N)),
        "section_matrix": section,
    }
    qu = Phi.copy()
    qu_windows = [qu[:L]]
    for j in range(1, k_max + 1):
        shifted = qu[1:]
        coeffs = section if j == 1 else project_coeffs(shifted[:L])
        qu = shifted - Phi[: shifted.shape[0]] @ coeffs
        qu_windows.append(qu[:L])
    markov = np.eye(N, dtype=complex)
    for k in range(k_max + 1):
        total = Phi[k : k + L]
        res = base @ (section if k == 1 else project_coeffs(total))
        orth = total - res
        out["resolved_norms"][k] = window_norm(res)
        out["orthogonal_norms"][k] = window_norm(orth)
        out["orthogonal_norms_per_entry"][k] = np.sqrt(np.mean(np.abs(orth) ** 2, axis=0))
        if k == 0:
            out["cross_norms"][0] = 0.0
        else:
            out["cross_norms"][k] = window_norm(total - base @ markov - qu_windows[k])
        markov = markov @ section
    return out


def _monomials(*powers):
    return ObservableDictionary(
        [Observable(name=f"m{i}", kind="monomial", powers=p) for i, p in enumerate(powers)]
    )


def _trig(kind_k_pairs):
    return ObservableDictionary(
        [Observable(name=f"t{i}", kind=kind, k=k) for i, (kind, k) in enumerate(kind_k_pairs)]
    )


# family -> (system, dt, initial state from a generator, dictionaries drawn from)
_MZ_FAMILIES = {
    "lorenz": (SystemSpec("lorenz"), 0.01,
               lambda rng: rng.uniform(-10.0, 10.0, 3) + (0.0, 0.0, 25.0),
               [coords("x"), coords("xy"), coords("xyz"),
                _monomials((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                _monomials((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1))]),
    "limit_cycle": (SystemSpec("limit_cycle_polar"), 0.01,
                    lambda rng: (rng.uniform(0.2, 0.5), rng.uniform(0.0, 6.0)),
                    [coords("r"), coords(["r", "theta"]),
                     _monomials((0, 0), (1, 0), (2, 0)), _monomials((1, 0), (-2, 0), (1, 1))]),
    "duffing": (SystemSpec("duffing_cycle"), 0.01,
                lambda rng: (rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), 0.0),
                [coords("x"), coords("xy"), _monomials((1, 0, 0), (0, 1, 0), (3, 0, 0)),
                 _monomials((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 2, 0))]),
    "torus_phase_box": (SystemSpec("torus_rotation"), 0.0,
                        lambda rng: rng.uniform(0.0, 6.0, 2),
                        [fourier_box(2, 1, "phase")]),
    "standard_map_trig": (SystemSpec("standard_map"), 0.0,
                          lambda rng: rng.uniform(0.0, 1.0, 2),
                          [_trig([("sin", (0, 1)), ("cos", (0, 1))]),
                           _trig([("sin", (1, 0)), ("cos", (1, 0)), ("sin", (1, 1)),
                                  ("cos", (0, 2))])]),
}


@pytest.mark.parametrize("family", sorted(_MZ_FAMILIES))
def test_one_pass_matches_the_two_pass_reference_bit_for_bit(family):
    # 24 drawn orbits per family, one per k_max in 1..24: 120 cases
    spec, dt, draw_state, dictionaries = _MZ_FAMILIES[family]
    rng = np.random.default_rng(sorted(_MZ_FAMILIES).index(family))
    for k_max in range(1, 25):
        dictionary = dictionaries[rng.integers(len(dictionaries))]
        n = int(rng.integers(40, 160)) + k_max
        states = integrate(spec, draw_state(rng), dt=dt, n_steps=n).states
        dec = mz_decompose(dictionary, states, k_max)
        want = _reference_decompose(dictionary, states, k_max)
        assert dec.k_max == k_max and dec.window == n + 1 - k_max
        for name, value in want.items():
            got = getattr(dec, name)
            assert got.dtype == value.dtype and got.shape == value.shape, (k_max, name)
            assert got.tobytes() == value.tobytes(), (k_max, name)


def test_orthogonal_part_is_nonzero_off_an_invariant_span():
    dec = mz_decompose(coords("x"), lorenz_traj(), k_max=20)
    assert np.any(dec.orthogonal_norms > 1e-6)


def test_long_orbit_keeps_no_sample_blocks():
    # 20,020 samples of 8 complex phase entries at k_max = 20: the two-pass
    # algorithm held two (21, 20000, 8) blocks and peaked at 177 MB
    traj = integrate(SystemSpec("torus_rotation"), (0.3, 1.1), dt=0.0, n_steps=20_019)
    tracemalloc.start()
    try:
        dec = mz_decompose(fourier_box(2, 1, "phase"), traj, k_max=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.window == 20_000
    assert peak < 25e6, peak


def test_cross_term_vanishes_through_first_step():
    dec = mz_decompose(coords("xyz"), lorenz_traj(), k_max=6)
    assert dec.cross_norms[0] == 0.0
    scale = max(dec.resolved_norms.max(), 1.0)
    assert dec.cross_norms[1] <= 1e-10 * scale
    # beyond one step the mixed words contribute
    assert np.any(dec.cross_norms[2:] > 1e-8)


def test_enlarging_span_never_increases_orthogonal_norms():
    traj = lorenz_traj()
    nested = [coords("x"), coords("xy"), coords("xyz")]
    per_entry = [
        mz_decompose(d, traj, k_max=5).orthogonal_norms_per_entry for d in nested
    ]
    for small, large in zip(per_entry, per_entry[1:]):
        assert np.all(large[:, 0] <= small[:, 0] + 1e-12)


def test_degenerate_span_raises():
    dictionary = ObservableDictionary(
        [
            Observable(name="x", kind="coordinate", index=0),
            Observable(name="x_again", kind="monomial", powers=(1.0, 0.0, 0.0)),
        ]
    )
    with pytest.raises(DegenerateDictionaryError):
        mz_decompose(dictionary, lorenz_traj(50), k_max=2)


def test_window_norms_that_overflow_are_refused_without_warning():
    # the base window passes the dual-basis gate (largest singular value
    # 5.0e152), but later windows outgrow it by 1.5 per shift; the suite
    # turns numpy's overflow warnings into errors
    spec = SystemSpec("linear_map", {"B": [[1.5]]})
    states = integrate(spec, [1e-20], dt=0.0, n_steps=1000).states
    with pytest.raises(PreconditionError,
                       match="the window norms at k = 9 overflow; rescale the dictionary"):
        mz_decompose(coords("x"), states, k_max=20)


def test_usage_errors():
    with pytest.raises(UsageError):
        mz_decompose(coords("x"), lorenz_traj(50), k_max=0)
    with pytest.raises(UsageError):
        mz_decompose(coords("xyz"), np.zeros((4, 3)), k_max=2)


def test_norms_csv_export(tmp_path):
    dec = mz_decompose(coords("xy"), lorenz_traj(80), k_max=4)
    path = tmp_path / "mz.csv"
    dec.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "k,resolved_norm,orthogonal_norm,cross_norm"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 4)
    assert np.allclose(data[:, 2], dec.orthogonal_norms, atol=1e-12)


def test_fourier_observable_validation():
    with pytest.raises(UsageError):
        FourierObservable(np.zeros(3))
    with pytest.raises(UsageError):
        FourierObservable(np.zeros(0))
    f = FourierObservable([0.0, 3.0, 4.0]).unit_normalized()
    assert np.isclose(np.linalg.norm(f.coefficients), 1.0, atol=1e-14)
    assert f.n_max == 2


@pytest.mark.parametrize(
    "coeffs, unit",
    [
        ([1.7e-163], [1.0]),  # |c|^2 underflows to 0
        ([0.0, 5e-324j], [0.0, 1.0j]),  # subnormal
        ([3e-160, 4e-160], [0.6, 0.8]),  # |c|^2 subnormal, so imprecise
        ([3e200, -4e200j], [0.6, -0.8j]),  # |c|^2 overflows
    ],
)
def test_unit_normalization_holds_at_the_ends_of_the_float_range(coeffs, unit):
    f = FourierObservable(coeffs).unit_normalized()
    np.testing.assert_allclose(f.coefficients, unit, rtol=1e-15, atol=0)


def test_single_mode_is_eigenfunction():
    res = circle_rotation_closure(FourierObservable([0.0, 1.0]), GOLDEN_OMEGA, 64)
    assert abs(res["lambda"] - np.exp(1j * GOLDEN_OMEGA)) <= 1e-12
    assert res["residual_markov"] <= 1e-10
    assert res["orthogonal_fraction"] <= 1e-10


def test_constant_observable_is_fixed():
    res = circle_rotation_closure(FourierObservable([1.0]), GOLDEN_OMEGA, 16)
    assert abs(res["lambda"] - 1.0) <= 1e-14
    assert res["residual_markov"] <= 1e-14
    assert res["orthogonal_fraction"] <= 1e-14


def test_two_mode_example():
    f = FourierObservable(np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0))
    res = circle_rotation_closure(f, GOLDEN_OMEGA, 10_000)
    lam = (np.exp(1j * GOLDEN_OMEGA) + np.exp(2j * GOLDEN_OMEGA)) / 2.0
    assert abs(res["lambda"] - lam) <= 1e-10
    assert res["residual_markov"] <= 1e-10
    # f is genuinely not an eigenfunction, and the diagnostic says so
    assert res["orthogonal_fraction"] > 0.1


def test_lambda_two_routes_agree_at_four_times_bandwidth():
    rng = np.random.default_rng(17)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    f = FourierObservable(c)
    res = circle_rotation_closure(f, GOLDEN_OMEGA, 4 * f.n_max)
    assert abs(res["lambda"] - res["lambda_empirical"]) <= 1e-10


def test_closure_identity_for_random_truncations():
    rng = np.random.default_rng(5)
    for trial in range(5):
        c = rng.normal(size=rng.integers(2, 9)) + 1j * rng.normal(size=1)
        res = circle_rotation_closure(FourierObservable(c), 1.0, 256)
        assert res["residual_markov"] <= 1e-10


@pytest.mark.parametrize("omega", [1e308, -1e308, np.inf, np.nan])
def test_closure_refuses_a_mode_phase_that_is_not_finite(omega):
    # 2 * 1e308 used to overflow in exp's argument, after the rational-angle
    # warning and with numpy's overflow and invalid-value warnings
    with pytest.raises(PreconditionError, match=r"the mode phase 2 \* omega is not finite for "
                                                r"omega = .*; reduce omega modulo 2 pi"):
        circle_rotation_closure(FourierObservable([0.0, 1.0, 1.0]), omega, 64)


def test_rational_angle_warns():
    with pytest.warns(RuntimeWarning, match="rational"):
        circle_rotation_closure(
            FourierObservable([0.0, 1.0]), 2.0 * np.pi * 3.0 / 7.0, 64
        )


def test_irrational_angle_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        circle_rotation_closure(FourierObservable([0.0, 1.0]), GOLDEN_OMEGA, 64)


def test_undersampled_grid_warns():
    f = FourierObservable([0.0, 0.0, 0.0, 1.0])
    with pytest.warns(RuntimeWarning, match="alias"):
        circle_rotation_closure(f, GOLDEN_OMEGA, 3)
    with pytest.raises(UsageError):
        circle_rotation_closure(f, GOLDEN_OMEGA, 0)


def test_aliased_grid_warns_that_the_two_lambda_routes_disagree():
    # two grid points for modes up to 2: the grid route misses lambda by 0.061
    with pytest.warns(RuntimeWarning) as record:
        res = circle_rotation_closure(FourierObservable([1.0, 1.0, 1.0]), 1.0, 2)
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert "aliases modes up to 2" in messages[0]
    assert "analytic and empirical lambda disagree by 0.0613" in messages[1]
    assert abs(res["lambda"] - res["lambda_empirical"]) == pytest.approx(0.0613, abs=1e-4)


def _far_from_rational(omega, q_max=100, gap=1e-6):
    """omega / 2pi is at least gap from every fraction with denominator <= q_max."""
    frac = omega / (2.0 * np.pi)
    return all(abs(frac * q - round(frac * q)) >= gap for q in range(1, q_max + 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=8),
    st.floats(-6.0, 6.0),
    st.integers(0, 64),
)
def test_closure_lambda_is_the_weighted_mean_of_the_mode_phases(coeffs, omega, extra):
    # lambda = sum |c_n|^2 e^{i n omega} / sum |c_n|^2 whatever the scale of
    # c, subnormal coefficients included; the weights are formed from |c| / max|c|
    # so that the oracle itself does not underflow.  An angle near a
    # rational is a different (warned-about) case, and m_samples is kept
    # past 4x the bandwidth, where the grid quadrature is exact.
    c = np.array(coeffs, dtype=complex)
    assume(np.any(c != 0) and _far_from_rational(omega))
    result = circle_rotation_closure(FourierObservable(c), omega, 4 * c.size + extra)
    a = np.abs(c)
    weights = (a / a.max()) ** 2
    want = np.sum(weights * np.exp(1j * np.arange(c.size) * omega)) / np.sum(weights)
    # in 3000 examples the worst error was 2 * c.size * eps
    assert abs(result["lambda"] - want) <= 8 * c.size * np.finfo(float).eps
    assert abs(result["lambda_empirical"] - want) <= 8 * c.size * np.finfo(float).eps


# one case per UsageError guard no other test reaches
_GUARDS = {
    "fourier_non_finite": (lambda: FourierObservable([1.0, np.nan]),
                           "coefficients must be finite"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
