"""End-to-end acceptance benchmarks on analytically solvable systems.

Each test exercises one headline guarantee of the library at its
contractual tolerance and prints a single ``criterion NN PASS/FAIL``
line with the measured quantity next to its bound.  The tolerances are
part of the public contract: loosening them here is a regression, not a
fix.  All tests are deterministic (fixed seeds, full-grid scoring).
"""

import hashlib
import math
import time

import numpy as np

from koopman.cli import emit_lattice
from koopman.dmd import companion_dmd, continuous_time_eigenvalues, pseudoinverse_dmd
from koopman.embedding import SnapshotPair, hankel_pair
from koopman.finite_section import finite_section_matrix
from koopman.mori_zwanzig import FourierObservable, circle_rotation_closure
from koopman.observables import Observable, ObservableDictionary, monomial_library
from koopman.partitions import (
    RegularGrid,
    ergodic_partition_approx,
    partition_invariance_score,
    time_average,
)
from koopman.representation_eval import faithfulness_estimate, sindy_fit
from koopman.static_koopman import (
    PairedSamples,
    conditional_expectation_projection,
    fit_static_linear,
)
from koopman.systems import (
    SystemSpec,
    duffing_fixed_point_eigenvalues,
    hamiltonian,
    integrate,
    known_spectrum,
    step_map_batch,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _matched_error(found, truth) -> float:
    """Largest distance from a true eigenvalue to its nearest computed one."""
    found = np.asarray(found, dtype=complex)
    return float(max(np.min(np.abs(found - t)) for t in truth))


def test_c01_torus_rotation_spectrum_two_routes():
    spec = SystemSpec(
        kind="torus_rotation", params={"omega1": 1.0, "omega2": math.sqrt(2.0)}
    )
    dictionary = ObservableDictionary(
        (
            Observable(name="z1", kind="phase", k=(1.0, 0.0)),
            Observable(name="z2", kind="phase", k=(0.0, 1.0)),
        )
    )
    t0 = time.perf_counter()
    traj = integrate(spec, (0.3, 1.1), dt=0.0, n_steps=200)
    series = dictionary.evaluate(traj.states)  # 201 states -> 200 snapshot pairs
    pair = SnapshotPair.from_series(series, dt=0.0)
    eig_pinv = np.linalg.eigvals(pseudoinverse_dmd(pair))
    eig_section = finite_section_matrix(dictionary, traj).eigenvalues()
    runtime = time.perf_counter() - t0

    truth = np.exp(1j * np.array([1.0, math.sqrt(2.0)]))
    err = max(_matched_error(eig_pinv, truth), _matched_error(eig_section, truth))
    ok = err <= 1e-10 and runtime < 1.0
    _report(1, ok, f"max eigenvalue error {err:.3e} (tol 1e-10), runtime {runtime:.2f}s (< 1s)")
    assert err <= 1e-10
    assert runtime < 1.0


def test_c02_period_seven_orbit_companion_is_unit_vector():
    spec = SystemSpec(kind="circle_rotation", params={"omega": 2.0 * math.pi / 7.0})
    traj = integrate(spec, (0.4,), dt=0.0, n_steps=21)
    z = np.exp(1j * traj.states[:, 0])
    # a pure exponential spans a rank-1 Krylov space; an observable with
    # all seven harmonics makes the companion fit well-posed
    weights = np.arange(1, 8, dtype=float)
    g = np.vander(z, 7, increasing=True) @ weights
    pair = hankel_pair(g, rows=7)
    pair = SnapshotPair(X=pair.X[:, :7], Xp=pair.Xp[:, :7])
    model = companion_dmd(pair)

    e1 = np.zeros(7)
    e1[0] = 1.0
    err = float(np.linalg.norm(model.c - e1))
    ok = err <= 1e-10
    _report(2, ok, f"||c - e1|| = {err:.3e} (tol 1e-10)")
    assert err <= 1e-10


def test_c03_limit_cycle_edmd_eigenvalues_and_eigenfunction():
    spec = SystemSpec(kind="limit_cycle_polar", params={"omega": 1.0})
    traj = integrate(spec, (2.0, 0.0), dt=1e-3, n_steps=100_000)
    dictionary = ObservableDictionary(
        (
            Observable(name="one", kind="constant"),
            Observable(name="r^-2", kind="monomial", powers=(-2.0, 0.0)),
            Observable(name="e^{i.theta}", kind="phase", k=(0.0, 1.0)),
            Observable(name="e^{-i.theta}", kind="phase", k=(0.0, -1.0)),
        )
    )
    section = finite_section_matrix(dictionary, traj)
    lam, vectors = section.eigenfunction_coefficients()
    cont = continuous_time_eigenvalues(lam, traj.dt)

    err_decay = float(np.min(np.abs(cont - (-2.0))))
    err_rot = float(max(np.min(np.abs(cont - 1.0j)), np.min(np.abs(cont + 1.0j))))

    j = int(np.argmin(np.abs(cont - (-2.0))))
    phi = dictionary.evaluate(traj.states) @ vectors[:, j]
    r = traj.states[:, 0]
    psi = (r**2 - 1.0) / r**2
    corr = float(abs(np.vdot(phi, psi)) / (np.linalg.norm(phi) * np.linalg.norm(psi)))

    ok = err_decay <= 1e-3 and err_rot <= 1e-6 and corr >= 0.999
    _report(
        3,
        ok,
        f"|eig-(-2)| = {err_decay:.3e} (tol 1e-3), |eig-(+-i)| = {err_rot:.3e} "
        f"(tol 1e-6), |corr| = {corr:.6f} (>= 0.999)",
    )
    assert err_decay <= 1e-3
    assert err_rot <= 1e-6
    assert corr >= 0.999


def test_c04_spiral_eigenvalues_and_lattice_closure():
    c = math.sqrt(7.0)
    beta, beta_conj = duffing_fixed_point_eigenvalues(c)
    err_oracle = max(
        abs(beta - (-1.3228756 + 0.5j)), abs(beta_conj - (-1.3228756 - 0.5j))
    )

    values = emit_lattice(c, 1.0, 4, 4)
    by_index = {(n, m): values[n * 5 + m] for n in range(5) for m in range(5)}
    n_unique = len(np.unique(np.round(values, 9)))

    closure_err = 0.0
    for (n1, m1), v1 in by_index.items():
        for (n2, m2), v2 in by_index.items():
            if n1 + n2 <= 4 and m1 + m2 <= 4:
                closure_err = max(
                    closure_err, abs(v1 + v2 - by_index[(n1 + n2, m1 + m2)])
                )

    lattice_truth = known_spectrum(
        SystemSpec(kind="duffing_cycle", params={"c": c, "omega": 1.0}), N=4, M=4
    )
    err_subset = _matched_error(lattice_truth, values)

    ok = (
        err_oracle <= 1e-6
        and n_unique == 25
        and closure_err <= 1e-12
        and err_subset <= 1e-9
    )
    _report(
        4,
        ok,
        f"oracle error {err_oracle:.3e} (tol 1e-6), {n_unique}/25 distinct values, "
        f"additive closure defect {closure_err:.3e} (tol 1e-12)",
    )
    assert err_oracle <= 1e-6
    assert n_unique == 25
    assert closure_err <= 1e-12
    assert err_subset <= 1e-9


def test_c05_rotation_markov_closure_two_routes():
    f = FourierObservable(
        coefficients=(0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    )
    omega = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0
    out = circle_rotation_closure(f, omega, 4096)

    gap = abs(out["lambda"] - out["lambda_empirical"])
    residual = out["residual_markov"]
    ok = gap <= 1e-10 and residual <= 1e-10
    _report(
        5,
        ok,
        f"analytic/empirical lambda gap {gap:.3e} (tol 1e-10), "
        f"markov residual {residual:.3e} (tol 1e-10)",
    )
    assert gap <= 1e-10
    assert residual <= 1e-10


C06_FIELD0 = {
    "values": "798770fb85afb52b52cf70c5920fb92da3524d432fd3a6b5626ccc3cfee26282",
    "cesaro": "1c5da6fe30e5edf5cb84d2098ad65d7afe3a0b5b35c380536322f1ea2b5d61d5",
    "diverged": "2887f7defd62c1c1e557443d76e0d9a8c45bea47d0ac2b8cb44e2ffb1b35f60b",
}
C06_FIELD1 = {
    "values": "b80f26608faffc91bcb415f8abf347875bfd0c870f7595674c7b876ea3c91783",
    "cesaro": "32a099225d3d48b9e02ecb8164b3c5b715ce05ca899e45bf1ae9dc894f4af8be",
    "diverged": "cc96a8f6ea7100b133d8059f63e308d31a04f71c793c1ccbf6920d9f1ce9b8b9",
}


def test_c06_ergodic_partition_invariance_scores_and_runtime():
    t0 = time.perf_counter()

    spec0 = SystemSpec(kind="standard_map", params={"eps": 0.0})
    g_sin = ObservableDictionary(
        (Observable(name="sin_2pi_y", kind="sin", k=(0.0, 1.0)),)
    )
    field0 = time_average(g_sin, spec0, RegularGrid.unit_square(200), n=5000)
    lab0 = ergodic_partition_approx(field0, bins_per_obs=8)
    score0 = partition_invariance_score(lab0, spec0, n_test=1, seed=0)

    spec1 = SystemSpec(kind="standard_map", params={"eps": 0.12})
    g_pair = ObservableDictionary(
        (
            Observable(name="cos_2pi_y", kind="cos", k=(0.0, 1.0)),
            Observable(name="cos_4pi_y", kind="cos", k=(0.0, 2.0)),
        )
    )
    grid1 = RegularGrid(
        axes=((np.arange(320) + 0.5) / 320, (np.arange(500) + 0.5) / 500),
        periods=(1.0, 1.0),
    )
    field1 = time_average(g_pair, spec1, grid1, n=5000)
    lab1 = ergodic_partition_approx(field1, bins_per_obs=3)
    score1 = partition_invariance_score(lab1, spec1, n_test=1, seed=0)
    runtime = time.perf_counter() - t0

    # SHA-256 (dtype tag, then the raw bytes) of both fields, recorded at
    # 05cc532, before any change to how time_average steps its blocks
    for field, digests in ((field0, C06_FIELD0), (field1, C06_FIELD1)):
        for attr, digest in digests.items():
            a = getattr(field, attr)
            assert hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest() == digest, attr

    k_cells = lab1.n_cells
    baseline = 1.0 / k_cells
    ok = (
        score0 >= 0.99
        and score1 >= 0.95
        and score1 > 5.0 * baseline
        and runtime < 60.0
    )
    _report(
        6,
        ok,
        f"integrable score {score0:.4f} (>= 0.99), mixed-phase-space score "
        f"{score1:.4f} (>= 0.95, > 5/K = {5.0 * baseline:.3f} with K = {k_cells}), "
        f"runtime {runtime:.1f}s (< 60s)",
    )
    assert score0 >= 0.99
    assert score1 >= 0.95
    assert score1 > 5.0 * baseline
    assert runtime < 60.0


def test_c07_pendulum_energy_is_invariant_along_orbits():
    spec = SystemSpec(kind="pendulum", params={"g": 9.81, "l": 1.0})
    traj = integrate(spec, (2.5, 0.0), dt=1e-3, n_steps=1_000_000)
    energy = hamiltonian(traj.states, g=9.81, l=1.0)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    ok = drift <= 1e-7
    _report(7, ok, f"max relative energy drift {drift:.3e} (tol 1e-7)")
    assert drift <= 1e-7


def test_c08_static_linear_recovery_and_projection_laws():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(4, 4))
    spec = SystemSpec(kind="linear_map", params={"B": B.tolist()})
    inputs = rng.uniform(-1.0, 1.0, size=(50, 4))
    outputs = step_map_batch(spec, inputs)
    coords = ObservableDictionary(
        tuple(
            Observable(name=n, kind="coordinate", index=i)
            for i, n in enumerate("abcd")
        )
    )
    fit = fit_static_linear(PairedSamples(inputs=inputs, outputs=outputs), coords, coords)
    rel = float(np.linalg.norm(fit.A - B) / np.linalg.norm(B))

    f = rng.normal(size=240)
    labels = rng.integers(0, 7, size=240)
    once = conditional_expectation_projection(f, labels)
    twice = conditional_expectation_projection(once, labels)
    idempotent = bool(np.array_equal(once, twice))
    orthogonality = float(abs(np.dot(f - once, once)))

    ok = rel <= 1e-8 and idempotent and orthogonality <= 1e-10
    _report(
        8,
        ok,
        f"matrix recovery error {rel:.3e} (tol 1e-8), idempotence exact: "
        f"{idempotent}, orthogonality defect {orthogonality:.3e} (tol 1e-10)",
    )
    assert rel <= 1e-8
    assert idempotent
    assert orthogonality <= 1e-10


def test_c09_sparse_regression_recovers_lorenz():
    spec = SystemSpec(kind="lorenz", params={})
    traj = integrate(spec, (1.0, 1.0, 1.0), dt=1e-3, n_steps=200_000)
    library = monomial_library(("x", "y", "z"), 2)
    model = sindy_fit(traj, library, threshold=0.1)
    C = model.coefficients

    truth = {
        ("x", 0): -10.0,
        ("y", 0): 10.0,
        ("x", 1): 28.0,
        ("y", 1): -1.0,
        ("x*z", 1): -1.0,
        ("x*y", 2): 1.0,
        ("z", 2): -8.0 / 3.0,
    }
    names = library.names
    true_support = {(names.index(nm), col) for (nm, col) in truth}
    found_support = {tuple(ij) for ij in np.argwhere(C != 0.0)}
    rel_err = max(
        abs(C[names.index(nm), col] - val) / abs(val)
        for (nm, col), val in truth.items()
    )
    ok = found_support == true_support and rel_err <= 1e-2
    _report(
        9,
        ok,
        f"support {len(found_support)}/7 terms, exact match: "
        f"{found_support == true_support}, max relative coefficient error "
        f"{rel_err:.3e} (tol 1e-2)",
    )
    assert found_support == true_support
    assert rel_err <= 1e-2


def test_c10_faithfulness_scores_and_witness():
    spec = SystemSpec(kind="free_particle", params={"mass": 1.0})
    right = integrate(spec, (0.0, 1.0), dt=1e-3, n_steps=100)
    left = integrate(spec, (0.0, -1.0), dt=1e-3, n_steps=100)
    states = np.vstack([right.states, left.states])

    position_only = faithfulness_estimate(states[:, :1], states)
    i, j = position_only["witness"]
    witness_valid = (
        abs(states[i, 0] - states[j, 0]) <= 1e-12
        and float(np.linalg.norm(states[i] - states[j])) > 0.0
    )
    full = faithfulness_estimate(states, states)

    ok = (
        position_only["score"] <= 1e-12
        and witness_valid
        and full["score"] >= 0.5
    )
    _report(
        10,
        ok,
        f"position-only score {position_only['score']:.3e} (tol 1e-12) with "
        f"witness states {tuple(states[i])} / {tuple(states[j])}, full-state "
        f"score {full['score']:.3f} (>= 0.5)",
    )
    assert position_only["score"] <= 1e-12
    assert witness_valid
    assert full["score"] >= 0.5
