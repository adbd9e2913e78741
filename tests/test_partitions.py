import numpy as np
import pytest

from koopman.errors import UsageError
from koopman.observables import Observable, ObservableDictionary
from koopman.partitions import (
    HarmonicAverage,
    PartitionLabeling,
    RegularGrid,
    eigenfunction_partition,
    ergodic_partition_approx,
    gla_eigenfunction,
    partition_invariance_score,
    time_average,
)
from koopman.systems import SystemSpec, integrate


def _dict(*entries):
    return ObservableDictionary(tuple(entries))


def test_regular_grid_points_and_lookup():
    g = RegularGrid.unit_square(10)
    pts = g.points
    assert pts.shape == (100, 2)
    np.testing.assert_allclose(pts[0], [0.05, 0.05])
    # wrap-around: 1.02 is nearest to the 0.05 row after mod 1
    idx = g.nearest_index(np.array([[1.02, 0.05], [0.99, 0.01], [np.nan, 0.5]]))
    assert idx[0] == 0
    np.testing.assert_allclose(pts[idx[1]], [0.95, 0.05])
    assert idx[2] == -1


@pytest.mark.parametrize(
    "axis, points, nearest",
    [
        ([0.0, 0.3, 0.6, 0.9], [0.9, 0.97, -0.04, 1.3], [0.9, 0.0, 0.0, 0.3]),
        ([0.0, 0.25, 0.5], [0.8, 0.7, -0.2], [0.0, 0.5, 0.0]),
    ],
)
def test_nearest_index_wraps_axes_that_do_not_tile_their_period(axis, points, nearest):
    # period 1 leaves a gap after the last point: 0.97 is nearer the
    # wrapped 1.0 than 0.9, and 0.8 nearer the wrapped 1.0 than 0.5
    grid = RegularGrid(axes=(np.array(axis),), periods=(1.0,))
    idx = grid.nearest_index(np.array(points)[:, None])
    np.testing.assert_allclose(grid.points[idx, 0], nearest)


def test_grid_axes_need_distinct_points_and_positive_periods():
    with pytest.raises(UsageError, match="distinct"):
        RegularGrid(axes=(np.full(3, 0.5),))
    axis = np.array([0.0, 0.5])
    for period in (0.0, -1.0):
        with pytest.raises(UsageError, match="positive"):
            RegularGrid(axes=(axis,), periods=(period,))
    grid = RegularGrid(axes=(axis,), periods=(1e308,))  # period / step overflows
    np.testing.assert_array_equal(grid.nearest_index(np.array([[0.4], [2.0]])), [1, 1])


def test_time_average_is_bit_identical_in_any_block_size(monkeypatch):
    from koopman import partitions

    spec = SystemSpec("standard_map", {"eps": 0.3})
    grid = RegularGrid.unit_square(30)
    d = _dict(Observable("sy", "sin", k=(0, 1)), Observable("f", "fourier", k=(1, 2)))
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 10**9)
    whole = time_average(d, spec, grid, n=101)
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(partitions, "_WORKERS", 2)
    blocked = time_average(d, spec, grid, n=101)
    for name in ("values", "cesaro", "diverged"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()


def test_time_average_gives_custom_observables_the_whole_grid(monkeypatch):
    from koopman import partitions

    seen = []

    def rows(states):
        seen.append(states.shape[0])
        return states[:, 0]

    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(partitions, "_WORKERS", 2)
    grid = RegularGrid.unit_square(10)
    time_average(_dict(Observable("x", "custom", fn=rows)), SystemSpec("standard_map"), grid, n=5)
    assert seen == [100] * 5


@pytest.mark.parametrize("blocked", [False, True])
def test_time_average_domain_error_names_the_grid_row(monkeypatch, blocked):
    from koopman import partitions
    from koopman.errors import ObservableDomainError

    if blocked:
        monkeypatch.setattr(partitions, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(partitions, "_WORKERS", 2)
    pts = np.full((50, 2), 0.5)
    pts[37, 0] = 0.0
    with pytest.raises(ObservableDomainError, match="sample 37"):
        time_average(_dict(Observable("inv", "monomial", powers=(-1, 0))),
                     SystemSpec("standard_map"), pts, n=1)


@pytest.mark.parametrize(
    "bad_rows, message",
    [
        # row 3 (first block) fails at iteration 1, row 40 (second) at 0
        ({3: (1.0, 1.0), 40: (0.0, 5.0)}, "'inv_x' undefined at sample 40"),
        ({3: (0.0, 5.0), 40: (1.0, 1.0)}, "'inv_x' undefined at sample 3"),
        # both fail at iteration 0: the earlier entry wins over the earlier row
        ({3: (0.5, 0.0), 40: (0.0, 0.5)}, "'inv_x' undefined at sample 40"),
        # same iteration and entry: the earlier row wins
        ({3: (0.0, 0.5), 40: (0.0, 0.5)}, "'inv_x' undefined at sample 3"),
    ],
)
def test_time_average_domain_error_is_the_one_a_single_block_raises(
    monkeypatch, bad_rows, message
):
    from koopman import partitions
    from koopman.errors import ObservableDomainError

    d = _dict(Observable("inv_x", "monomial", powers=(-1, 0)),
              Observable("inv_y", "monomial", powers=(0, -1)))
    spec = SystemSpec("linear_map", {"B": [[1.0, -1.0], [0.0, 1.0]]})  # (x, y) -> (x - y, y)
    pts = np.tile([0.5, -0.5], (50, 1))
    for row, point in bad_rows.items():
        pts[row] = point
    with pytest.raises(ObservableDomainError) as whole:
        time_average(d, spec, pts, n=4)
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 25)
    monkeypatch.setattr(partitions, "_WORKERS", 2)
    assert partitions._row_blocks(50, d) == [slice(0, 25), slice(25, 50)]
    with pytest.raises(ObservableDomainError) as blocked:
        time_average(d, spec, pts, n=4)
    assert str(whole.value) == str(blocked.value) == f"observable {message}"


def test_row_blocks_are_even_and_a_multiple_of_the_workers(monkeypatch):
    from koopman import partitions

    d = _dict(Observable("sy", "sin", k=(0, 1)))
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 100)
    monkeypatch.setattr(partitions, "_WORKERS", 2)
    assert partitions._row_blocks(100, d) == [slice(0, 100)]
    assert partitions._row_blocks(250, d) == [
        slice(0, 62), slice(62, 125), slice(125, 187), slice(187, 250)
    ]
    custom = _dict(Observable("x", "custom", fn=lambda s: s[:, 0]))
    assert partitions._row_blocks(250, custom) == [slice(0, 250)]
    monkeypatch.setattr(partitions, "_WORKERS", 1)
    assert partitions._row_blocks(250, d) == [slice(0, 250)]


def test_time_average_constant_observable():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    field = time_average(_dict(Observable("one", "constant")), spec,
                         RegularGrid.unit_square(5), n=50)
    np.testing.assert_allclose(field.values.real, 1.0, atol=1e-14)
    np.testing.assert_allclose(field.cesaro, 0.0, atol=1e-14)
    assert not field.diverged.any()


def test_time_average_integrable_map_keeps_y():
    spec = SystemSpec("standard_map", {"eps": 0.0})
    grid = RegularGrid.unit_square(8)
    d = _dict(Observable("sy", "sin", k=(0, 1)))
    field = time_average(d, spec, grid, n=400)
    np.testing.assert_allclose(
        field.values[:, 0].real, np.sin(2 * np.pi * grid.points[:, 1]), atol=1e-12
    )


def test_time_average_rotation_decays_like_1_over_n():
    omega = 1.0
    spec = SystemSpec("circle_rotation", {"omega": omega})
    d = _dict(Observable("z", "phase", k=(1,)))
    grid = np.linspace(0.0, 5.0, 7)[:, None]
    lam = np.exp(1j * omega)
    for n in (200, 400):
        field = time_average(d, spec, grid, n=n)
        bound = 5.0 / (n * abs(1 - lam))
        assert np.all(np.abs(field.values[:, 0]) <= bound)


def test_time_average_flags_divergence():
    spec = SystemSpec("linear_map", {"B": [[2.0, 0.0], [0.0, 2.0]]})
    grid = np.array([[1.0, 1.0], [0.0, 0.0]])
    d = _dict(Observable("x", "coordinate", index=0))
    field = time_average(d, spec, grid, n=1500)
    assert field.diverged[0] and not field.diverged[1]
    lab = ergodic_partition_approx(field, bins_per_obs=3)
    assert lab.cell_id[0] == -1 and lab.cell_id[1] >= 0


def test_time_average_flow_needs_dt():
    spec = SystemSpec("lorenz")
    d = _dict(Observable("z", "coordinate", index=2))
    with pytest.raises(UsageError):
        time_average(d, spec, np.array([[1.0, 1.0, 1.0]]), n=10)
    field = time_average(d, spec, np.array([[1.0, 1.0, 1.0]]), n=10, dt=0.01)
    assert field.values.shape == (1, 1)


def test_channels_split_complex_observables():
    spec = SystemSpec("standard_map", {"eps": 0.0})
    d = _dict(
        Observable("f", "fourier", k=(0, 1)),
        Observable("c", "cos", k=(1, 0)),
    )
    field = time_average(d, spec, RegularGrid.unit_square(4), n=20)
    chan, names = field.channels()
    assert chan.shape == (16, 3)
    assert names == ["re(f)", "im(f)", "c"]


def test_gla_exact_eigenfunction_is_reproduced():
    spec = SystemSpec("circle_rotation", {"omega": 0.9})
    traj = integrate(spec, [0.3], dt=0.0, n_steps=400)
    z = Observable("z", "phase", k=(1,))
    out = gla_eigenfunction(traj, np.exp(0.9j), z, window=100)
    expect = np.exp(1j * traj.states[: out.samples.size, 0])
    np.testing.assert_allclose(out.samples, expect, atol=1e-10)
    assert out.residual < 1e-10


def test_gla_strips_contamination_at_one_over_n():
    omega = 1.3
    spec = SystemSpec("circle_rotation", {"omega": omega})
    traj = integrate(spec, [0.0], dt=0.0, n_steps=6000)
    g = Observable("g", "custom", fn=lambda s: np.exp(1j * s[:, 0]) + np.exp(2j * s[:, 0]))
    z_true = np.exp(1j * traj.states[:, 0])
    residuals = {}
    for n in (500, 1000, 2000):
        out = gla_eigenfunction(traj, np.exp(1j * omega), g, window=n)
        bound = 2.0 / (n * abs(1 - np.exp(1j * omega)))
        err = np.max(np.abs(out.samples - z_true[: out.samples.size]))
        assert err <= bound * 1.01
        residuals[n] = out.residual
    assert residuals[2000] < residuals[1000] < residuals[500]


def test_gla_limit_cycle_on_attractor():
    dt = 0.05
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [1.0, 0.0], dt=dt, n_steps=150_000)
    g = Observable(
        "g", "custom",
        fn=lambda s: np.exp(1j * s[:, 1]) + 0.3 * np.exp(2j * s[:, 1]),
    )
    out = gla_eigenfunction(traj, 1.0j, g, window=100_000)
    target = np.exp(1j * traj.states[: out.samples.size, 1])
    assert np.max(np.abs(out.samples - target)) < 1e-2
    assert out.multiplier == pytest.approx(np.exp(1j * dt))


def test_gla_off_circle_warns():
    traj = integrate(SystemSpec("circle_rotation"), [0.0], dt=0.0, n_steps=50)
    z = Observable("z", "phase", k=(1,))
    with pytest.warns(RuntimeWarning, match="unit circle"):
        gla_eigenfunction(traj, 0.5, z, window=10)


def test_partition_constant_field_single_cell():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    field = time_average(_dict(Observable("one", "constant")), spec,
                         RegularGrid.unit_square(6), n=30)
    lab = ergodic_partition_approx(field, bins_per_obs=7)
    assert lab.n_cells == 1
    assert np.all(lab.cell_id == 0)


def test_partition_integrable_map_gives_bands():
    spec = SystemSpec("standard_map", {"eps": 0.0})
    grid = RegularGrid.unit_square(20)
    d = _dict(Observable("sy", "sin", k=(0, 1)))
    field = time_average(d, spec, grid, n=300)
    lab = ergodic_partition_approx(field, bins_per_obs=10)
    # cells are unions of grid rows: every (cell, y) pair is row-complete
    y = grid.points[:, 1]
    for cell in range(lab.n_cells):
        ys = np.unique(y[lab.cell_id == cell])
        for yv in ys:
            row = lab.cell_id[y == yv]
            assert np.all(row == cell)


def test_partition_monotone_rescaling_keeps_cells():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    grid = RegularGrid.unit_square(15)
    base = Observable("c", "cos", k=(0, 1))
    scaled = Observable("c", "custom", fn=lambda s: 2.0 * np.cos(2 * np.pi * s[:, 1]) + 1.0)
    f1 = time_average(_dict(base), spec, grid, n=200)
    f2 = time_average(_dict(scaled), spec, grid, n=200)
    l1 = ergodic_partition_approx(f1, bins_per_obs=5)
    l2 = ergodic_partition_approx(f2, bins_per_obs=5)
    np.testing.assert_array_equal(l1.cell_id, l2.cell_id)


def test_invariance_score_integrable_bands():
    spec = SystemSpec("standard_map", {"eps": 0.0})
    grid = RegularGrid.unit_square(30)
    d = _dict(Observable("sy", "sin", k=(0, 1)))
    field = time_average(d, spec, grid, n=200)
    lab = ergodic_partition_approx(field, bins_per_obs=8)
    score = partition_invariance_score(lab, spec, n_test=5)
    assert score >= 0.99


def test_invariance_score_random_labels_near_chance():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    grid = RegularGrid.unit_square(40)
    rng = np.random.default_rng(12)
    K = 5
    lab = PartitionLabeling(
        cell_id=rng.integers(0, K, size=1600),
        bin_edges=(np.array([]),),
        channel_names=("noise",),
        channel_values=rng.random((1600, 1)),
        grid=grid,
    )
    score = partition_invariance_score(lab, spec, n_test=4)
    assert abs(score - 1.0 / K) < 0.05


def test_invariance_score_single_cell_is_perfect():
    spec = SystemSpec("standard_map", {"eps": 0.3})
    grid = RegularGrid.unit_square(10)
    lab = PartitionLabeling(
        cell_id=np.zeros(100, dtype=int),
        bin_edges=(np.array([]),),
        channel_names=("c",),
        channel_values=np.zeros((100, 1)),
        grid=grid,
    )
    assert partition_invariance_score(lab, spec, n_test=3) == 1.0


# a labeling over a raw point array (no RegularGrid) looks points up in a k-d tree


def test_invariance_score_single_cell_on_point_array_is_perfect():
    spec = SystemSpec("standard_map", {"eps": 0.3})
    pts = RegularGrid.unit_square(20).points
    lab = PartitionLabeling(
        cell_id=np.zeros(400, dtype=int),
        bin_edges=(np.array([]),),
        channel_names=("c",),
        channel_values=np.zeros((400, 1)),
        grid=pts,
    )
    assert partition_invariance_score(lab, spec, n_test=3) == 1.0


def test_invariance_score_random_labels_on_point_array_near_chance():
    spec = SystemSpec("standard_map", {"eps": 0.12})
    pts = RegularGrid.unit_square(40).points
    rng = np.random.default_rng(12)
    K = 5
    lab = PartitionLabeling(
        cell_id=rng.integers(0, K, size=1600),
        bin_edges=(np.array([]),),
        channel_names=("noise",),
        channel_values=rng.random((1600, 1)),
        grid=pts,
    )
    score = partition_invariance_score(lab, spec, n_test=4)
    assert abs(score - 1.0 / K) < 0.05


def test_eigenfunction_partition_decay_labels():
    dt = 0.01
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [0.4, 0.0], dt=dt, n_steps=600)
    r = traj.states[:, 0]
    phi = (r**2 - 1.0) / r**2
    part = eigenfunction_partition(phi, -2.0, bins=4, dt=dt)
    assert part.multiplier == pytest.approx(np.exp(-2 * dt))
    assert part.mismatch_rate <= 0.02
    assert part.labeling.n_cells >= 3


def test_eigenfunction_partition_eigenvalue_one_fixed():
    phi = np.full(50, 0.7 + 0.1j)
    part = eigenfunction_partition(phi, 1.0, bins=5)
    assert part.mismatch_rate == 0.0
    assert part.labeling.n_cells == 1


def test_eigenfunction_partition_rotation_phases():
    dt = 0.02
    spec = SystemSpec("limit_cycle_polar", {"omega": 1.0})
    traj = integrate(spec, [1.0, 0.3], dt=dt, n_steps=3000)
    phi = np.exp(1j * traj.states[:, 1])
    part = eigenfunction_partition(phi, 1.0j, bins=6, dt=dt)
    assert part.mismatch_rate <= 0.02


def test_labeling_csv_layout(tmp_path):
    spec = SystemSpec("standard_map", {"eps": 0.0})
    grid = RegularGrid.unit_square(4)
    d = _dict(Observable("sy", "sin", k=(0, 1)))
    field = time_average(d, spec, grid, n=50)
    lab = ergodic_partition_approx(field, bins_per_obs=3)
    path = tmp_path / "part.csv"
    lab.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,g*_1,cell_id"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (16, 4)
    field.to_csv(tmp_path / "field.csv")
    fh = (tmp_path / "field.csv").read_text().splitlines()[0]
    assert fh == "x,y,g*_1"
    assert lab.to_json(0.97) == {"cells": lab.n_cells, "invariance_score": 0.97}
