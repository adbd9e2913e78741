import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman.errors import DivergenceError, UsageError
from koopman.systems import (
    SYSTEM_KINDS,
    SystemSpec,
    Trajectory,
    duffing_fixed_point_eigenvalues,
    hamiltonian,
    integrate,
    known_spectrum,
    rk4_step_batch,
    spectral_lattice,
    step_map,
    step_map_batch,
    vector_field,
)

SQRT7 = math.sqrt(7.0)


def test_standard_map_zero_kick():
    spec = SystemSpec("standard_map", {"eps": 0.0})
    np.testing.assert_allclose(step_map(spec, [0.25, 0.5]), [0.75, 0.5], atol=1e-15)


def test_standard_map_kick_formula():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    x, y = 0.3, 0.41
    kick = 0.12 * math.sin(2.0 * math.pi * x)
    got = step_map(spec, [x, y])
    np.testing.assert_allclose(got, [(x + y + kick) % 1.0, (y + kick) % 1.0], atol=1e-15)
    assert np.all(got >= 0.0) and np.all(got < 1.0)


def test_standard_map_area_preservation():
    # det(Jacobian) = 1; finite differences with wrap-aware deltas
    spec = SystemSpec("standard_map", {"eps": 0.12})
    rng = np.random.default_rng(7)
    pts = rng.random((10_000, 2))
    h = 1e-6

    def wrapped_delta(a, b):
        return ((a - b + 0.5) % 1.0) - 0.5

    fx_p = step_map_batch(spec, pts + [h, 0.0])
    fx_m = step_map_batch(spec, pts - [h, 0.0])
    fy_p = step_map_batch(spec, pts + [0.0, h])
    fy_m = step_map_batch(spec, pts - [0.0, h])
    j11 = wrapped_delta(fx_p[:, 0], fx_m[:, 0]) / (2 * h)
    j21 = wrapped_delta(fx_p[:, 1], fx_m[:, 1]) / (2 * h)
    j12 = wrapped_delta(fy_p[:, 0], fy_m[:, 0]) / (2 * h)
    j22 = wrapped_delta(fy_p[:, 1], fy_m[:, 1]) / (2 * h)
    det = j11 * j22 - j12 * j21
    np.testing.assert_allclose(det, 1.0, atol=1e-6)


def test_torus_rotation_is_rigid_translation():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    traj = integrate(spec, [0.1, 0.2], dt=0.0, n_steps=5)
    expected = np.array([0.1, 0.2]) + np.outer(np.arange(6), [0.3, 0.7])
    np.testing.assert_allclose(traj.states, expected, atol=1e-12)
    assert traj.dt == 0.0


def test_lorenz_field_point_value():
    spec = SystemSpec("lorenz")
    np.testing.assert_allclose(
        vector_field(spec, [1.0, 1.0, 1.0]), [0.0, 26.0, 1.0 - 8.0 / 3.0], atol=1e-14
    )


def test_limit_cycle_field_on_cycle():
    spec = SystemSpec("limit_cycle_polar", {"omega": 2.0})
    np.testing.assert_allclose(vector_field(spec, [1.0, 0.4]), [0.0, 2.0], atol=1e-14)


def test_limit_cycle_radius_attracts():
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [0.2, 0.0], dt=0.01, n_steps=2000)
    assert abs(traj.states[-1, 0] - 1.0) < 1e-6


def test_pendulum_hamiltonian_values():
    assert hamiltonian([0.0, 0.0], 1.0, 1.0) == pytest.approx(1.0)
    assert hamiltonian([math.pi / 3.0, 1.0], 9.81, 1.0) == pytest.approx(0.5 + 9.81 * 0.5)
    assert hamiltonian([math.pi / 2.0, 0.0], 9.81, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_pendulum_energy_conserved_medium_run():
    spec = SystemSpec("pendulum", {"g": 1.0, "l": 1.0})
    traj = integrate(spec, [math.pi + 1.0, 0.0], dt=0.01, n_steps=20_000)
    H = hamiltonian(traj.states, 1.0, 1.0)
    assert np.max(np.abs(H - H[0])) < 1e-9


def test_rk4_order_ratio():
    # halving h must shrink the error ~16x; reference from quarter steps
    spec = SystemSpec("pendulum", {"g": 1.0, "l": 1.0})
    s0 = [math.pi + 1.0, 0.0]
    T, h = 6.5, 0.01

    def endpoint(step):
        return integrate(spec, s0, dt=step, n_steps=int(round(T / step))).states[-1]

    ref = endpoint(h / 4.0)
    e_h = np.linalg.norm(endpoint(h) - ref)
    e_h2 = np.linalg.norm(endpoint(h / 2.0) - ref)
    assert 12.0 < e_h / e_h2 < 20.0


def test_duffing_fixed_point_eigenvalues():
    lam1, lam2 = duffing_fixed_point_eigenvalues(SQRT7)
    assert lam1 == pytest.approx(complex(-SQRT7 / 2.0, 0.5), abs=1e-12)
    assert lam2 == pytest.approx(complex(-SQRT7 / 2.0, -0.5), abs=1e-12)
    assert lam1.real == pytest.approx(-1.3228756555322954, abs=1e-12)


def test_duffing_cycle_converges_to_circle_factor():
    # (x, y) spirals into (1, 0) or (-1, 0); theta keeps rotating
    spec = SystemSpec("duffing_cycle")
    traj = integrate(spec, [0.5, 0.5, 0.0], dt=0.01, n_steps=4000)
    x, y = traj.states[-1, 0], traj.states[-1, 1]
    assert min(abs(x - 1.0), abs(x + 1.0)) < 1e-6 and abs(y) < 1e-6
    assert traj.states[-1, 2] == pytest.approx(40.0, rel=1e-10)


def test_free_particle_is_exact_under_rk4():
    spec = SystemSpec("free_particle", {"mass": 2.0})
    traj = integrate(spec, [0.5, 3.0], dt=0.1, n_steps=100)
    t = traj.times
    np.testing.assert_allclose(traj.states[:, 0], 0.5 + 1.5 * t, atol=1e-12)
    np.testing.assert_allclose(traj.states[:, 1], 3.0, atol=1e-15)


def test_coupled_system_radius_locks_to_one():
    spec = SystemSpec("coupled_lc_lorenz")
    s0 = [0.4, 0.0, 1.0, 1.0, 1.0]
    traj = integrate(spec, s0, dt=0.005, n_steps=8000)
    assert abs(traj.states[-1, 0] - 1.0) < 1e-6


def test_linear_map_identity_is_constant():
    spec = SystemSpec("linear_map", {"B": [[1.0, 0.0], [0.0, 1.0]]})
    traj = integrate(spec, [0.3, -0.7], dt=0.0, n_steps=10)
    np.testing.assert_allclose(traj.states, np.tile([0.3, -0.7], (11, 1)), atol=0)


def test_linear_map_matches_matrix_power():
    B = np.array([[0.0, 1.0], [-0.5, 1.0]])
    spec = SystemSpec("linear_map", {"B": B.tolist()})
    traj = integrate(spec, [1.0, 0.0], dt=0.0, n_steps=6)
    expected = [np.linalg.matrix_power(B, k) @ [1.0, 0.0] for k in range(7)]
    np.testing.assert_allclose(traj.states, expected, atol=1e-12)


def test_known_spectrum_rotations():
    spec = SystemSpec("torus_rotation", {"omega1": 0.3, "omega2": 0.7})
    np.testing.assert_allclose(
        known_spectrum(spec), [np.exp(0.3j), np.exp(0.7j)], atol=1e-15
    )
    circ = SystemSpec("circle_rotation", {"omega": 2.0})
    np.testing.assert_allclose(known_spectrum(circ), [np.exp(2.0j)], atol=1e-15)


def test_known_spectrum_duffing_principal():
    spec = SystemSpec("duffing_cycle")
    vals = known_spectrum(spec)
    assert complex(-SQRT7 / 2.0, 0.5) in [pytest.approx(v, abs=1e-12) for v in vals]
    assert 1j in [pytest.approx(v, abs=1e-12) for v in vals]


def test_spectral_lattice_structure():
    lat = spectral_lattice(1.0, [-2.0], N=1, M=2)
    expected = {
        complex(0, n) + m * (-2.0) for n in (-1, 0, 1) for m in (0, 1, 2)
    }
    assert len(lat) == 9
    for v in expected:
        assert min(abs(lat - v)) < 1e-12


def test_spectral_lattice_dedupes_coincident_points():
    # betas i and -i collide with the rotation multiples
    lat = spectral_lattice(1.0, [1j, -1j], N=1, M=1)
    assert len(lat) == len(np.unique(np.round(lat * 1e9)))


def test_divergence_error_reports_step():
    spec = SystemSpec("lorenz")
    with pytest.raises(DivergenceError) as err:
        integrate(spec, [1.0, 1.0, 1.0], dt=50.0, n_steps=100)
    assert err.value.step >= 1
    assert str(err.value.step) in str(err.value)


def test_trajectory_csv_roundtrip(tmp_path):
    spec = SystemSpec("lorenz")
    traj = integrate(spec, [1.0, 1.0, 1.0], dt=0.01, n_steps=50)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,coord_0,coord_1,coord_2"
    back = Trajectory.from_csv(path, spec=spec)
    np.testing.assert_allclose(back.states, traj.states, atol=1e-10)
    assert back.dt == pytest.approx(0.01)


def test_map_trajectory_csv_keeps_step_index(tmp_path):
    spec = SystemSpec("circle_rotation", {"omega": 0.5})
    traj = integrate(spec, [0.0], dt=0.0, n_steps=5)
    path = tmp_path / "m.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.dt == 0.0
    np.testing.assert_allclose(back.times, np.arange(6.0))


def test_system_spec_json_roundtrip():
    spec = SystemSpec("linear_map", {"B": [[0.0, 1.0], [1.0, 1.0]]})
    back = SystemSpec.from_json(spec.to_json())
    np.testing.assert_allclose(back.params["B"], spec.params["B"])
    spec2 = SystemSpec("pendulum", {"g": 1.0})
    back2 = SystemSpec.from_json(spec2.to_json())
    assert back2.params == {"g": 1.0, "l": 1.0}


def test_spec_rejects_bad_input():
    with pytest.raises(UsageError):
        SystemSpec("harmonic_oszillator")
    with pytest.raises(UsageError):
        SystemSpec("pendulum", {"gee": 1.0})
    with pytest.raises(UsageError):
        SystemSpec("linear_map")
    with pytest.raises(UsageError):
        SystemSpec("linear_map", {"B": [[1.0, 2.0, 3.0]]})
    with pytest.raises(UsageError):
        step_map(SystemSpec("lorenz"), [1.0, 1.0, 1.0])
    with pytest.raises(UsageError):
        vector_field(SystemSpec("circle_rotation"), [0.0])


_MAP_SPECS = [
    SystemSpec("torus_rotation"),
    SystemSpec("circle_rotation", {"omega": 0.77}),
    SystemSpec("standard_map", {"eps": 0.12}),
    SystemSpec("linear_map", {"B": [[0.2, 0.9], [-0.4, 0.1]]}),
]
_FLOW_SPECS = [
    SystemSpec("lorenz"),
    SystemSpec("limit_cycle_polar"),
    SystemSpec("pendulum", {"g": 1.0, "l": 1.0}),
    SystemSpec("duffing_cycle"),
    SystemSpec("coupled_lc_lorenz"),
    SystemSpec("free_particle"),
]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scalar_and_batch_paths_agree(seed):
    # integrate() runs on python floats, grids on numpy; must match
    rng = np.random.default_rng(seed)
    for spec in _MAP_SPECS:
        pts = rng.uniform(-0.9, 0.9, size=(4, spec.dim)) + 1.0
        batch = step_map_batch(spec, pts)
        for i in range(4):
            single = integrate(spec, pts[i], dt=0.0, n_steps=1).states[1]
            np.testing.assert_allclose(single, batch[i], rtol=1e-12, atol=1e-12)
    for spec in _FLOW_SPECS:
        pts = rng.uniform(0.2, 1.5, size=(4, spec.dim))
        batch = rk4_step_batch(spec, pts, 0.01)
        for i in range(4):
            single = integrate(spec, pts[i], dt=0.01, n_steps=1).states[1]
            np.testing.assert_allclose(single, batch[i], rtol=1e-12, atol=1e-12)


# Exact bits of every system on both paths, recorded before the systems were
# folded into one definition table.  A rewrite of systems.py must keep them.
# standard_map and pendulum call sin, so like perfbench/digests.json these
# values pin this machine's libm (math.sin) and numpy (np.sin) as well.
_GOLDEN_B = [[0.2, 0.9, -0.3], [-0.4, 0.1, 0.7], [0.5, -0.6, 0.35]]
_GOLDEN_RUNS = {
    "torus_rotation": ({}, [0.1, 0.2], 0.0, 50),
    "circle_rotation": ({"omega": 0.77}, [0.3], 0.0, 50),
    "standard_map": ({"eps": 0.12}, [0.3, 0.41], 0.0, 50),
    "linear_map": ({"B": _GOLDEN_B}, [1.0, -0.5, 0.25], 0.0, 50),
    "lorenz": ({}, [1.0, 1.0, 1.0], 0.01, 200),
    "limit_cycle_polar": ({}, [0.2, 0.0], 0.01, 200),
    "pendulum": ({"g": 9.81, "l": 0.7}, [4.0, 0.0], 0.01, 200),
    "duffing_cycle": ({}, [0.5, 0.5, 0.0], 0.01, 200),
    "coupled_lc_lorenz": ({}, [0.4, 0.0, 1.0, 1.0, 1.0], 0.01, 200),
    "free_particle": ({"mass": 2.0}, [0.5, 3.0], 0.1, 200),
}
# float.hex of the last state of integrate(spec, s0, dt, n)
_GOLDEN_SCALAR = {
    "torus_rotation": ("0x1.90ccccccccccdp+5", "0x1.1ba488ce03380p+6"),
    "circle_rotation": ("0x1.3666666666668p+5",),
    "standard_map": ("0x1.2657a0e0854f0p-2", "0x1.a4da7e7a56aa2p-2"),
    "linear_map": ("0x1.c07b3507d3a0ap-2", "-0x1.13729ff975236p-4", "-0x1.7419cbce10da0p-2"),
    "lorenz": ("-0x1.058cd743f8c4bp+3", "-0x1.31fbde8a3b9bep+3", "0x1.89ede3011f9a4p+4"),
    "limit_cycle_polar": ("0x1.aabac6ae8bb84p-1", "0x1.0000000000003p+1"),
    "pendulum": ("0x1.da70d3e839898p+1", "-0x1.2820c320830edp+1"),
    "duffing_cycle": ("0x1.c629cc502c4e5p-1", "0x1.74f34edc73a3dp-4", "0x1.0000000000003p+1"),
    "coupled_lc_lorenz": (
        "0x1.e9afb47af78afp-1",
        "0x1.0000000000003p+1",
        "-0x1.058cd743f8c4bp+3",
        "-0x1.31fbde8a3b9bep+3",
        "0x1.89ede3011f9a4p+4",
    ),
    "free_particle": ("0x1.e7fffffffffe1p+4", "0x1.8000000000000p+1"),
}
# sha256 prefix of one step_map_batch / rk4_step_batch call on a (32, d) batch
# spread over [-1.3, 1.7], which takes the standard map's wrap below zero
_GOLDEN_BATCH = {
    "torus_rotation": "07911552c791e0b4",
    "circle_rotation": "020fd8b08de17f3b",
    "standard_map": "21d34e23df2b7e7c",
    "linear_map": "45287993cc374591",
    "lorenz": "e8e23c1d28fab3fd",
    "limit_cycle_polar": "377294110f090e7e",
    "pendulum": "a6f7ff27fa9dd484",
    "duffing_cycle": "bd8d8d03fc5d7378",
    "coupled_lc_lorenz": "37963938a6cee32d",
    "free_particle": "de8ca77f9baeb26e",
}


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_golden_bits(kind):
    params, s0, dt, n = _GOLDEN_RUNS[kind]
    spec = SystemSpec(kind, params)
    last = integrate(spec, s0, dt, n).states[-1]
    assert tuple(float(v).hex() for v in last) == _GOLDEN_SCALAR[kind]
    pts = np.linspace(-1.3, 1.7, 32 * spec.dim).reshape(32, spec.dim)
    out = step_map_batch(spec, pts) if spec.is_map else rk4_step_batch(spec, pts, dt)
    assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == _GOLDEN_BATCH[kind]
