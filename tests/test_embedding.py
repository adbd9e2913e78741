import numpy as np
import pytest

from koopman.embedding import SnapshotPair, delay_embed, hankel_pair
from koopman.errors import PreconditionError, UsageError
from koopman.systems import SystemSpec, integrate


def test_delay_embed_zero_delays_is_identity():
    s = np.array([5.0, 6.0, 7.0])
    np.testing.assert_allclose(delay_embed(s, N=0), s[:, None])


def test_delay_embed_definition():
    out = delay_embed(np.array([1.0, 2.0, 3.0, 4.0]), N=2, stride=1)
    np.testing.assert_allclose(out, [[1, 2, 3], [2, 3, 4]])


def test_delay_embed_stride():
    out = delay_embed(np.arange(7.0), N=2, stride=2)
    np.testing.assert_allclose(out, [[0, 2, 4], [1, 3, 5], [2, 4, 6]])


def test_delay_embed_first_block_recovers_series():
    s = np.random.default_rng(1).random(30)
    out = delay_embed(s, N=4, stride=2)
    np.testing.assert_allclose(out[:, 0], s[: out.shape[0]])


def test_delay_embed_rotation_acts_diagonally():
    spec = SystemSpec("circle_rotation", {"omega": 0.7})
    traj = integrate(spec, [0.0], dt=0.0, n_steps=40)
    z = np.exp(1j * traj.states[:, 0])
    emb = delay_embed(z, N=2)
    ratios = emb[1:] / emb[:-1]
    np.testing.assert_allclose(ratios, np.exp(0.7j), atol=1e-12)


def test_delay_embed_too_short():
    with pytest.raises(UsageError):
        delay_embed(np.arange(4.0), N=4, stride=1)


def test_hankel_pair_definition():
    pair = hankel_pair(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), rows=2)
    np.testing.assert_allclose(pair.X, [[1, 2, 3], [2, 3, 4]])
    np.testing.assert_allclose(pair.Xp, [[2, 3, 4], [3, 4, 5]])


def test_hankel_pair_constant_series():
    pair = hankel_pair(np.full(6, 2.5), rows=3)
    np.testing.assert_allclose(pair.X, pair.Xp)
    np.testing.assert_allclose(pair.X, 2.5)


def test_hankel_pair_periodic_series_cyclic_shift():
    s = np.array([1.0, 2.0, 3.0] * 4)
    pair = hankel_pair(s, rows=3)
    # advancing one step permutes the period-3 columns cyclically
    np.testing.assert_allclose(pair.Xp[:, 0], pair.X[:, 1])
    np.testing.assert_allclose(pair.Xp[:, 3], pair.X[:, 4])


def test_hankel_pair_linear_recurrence_blockwise():
    B = np.array([[0.9, 0.1], [-0.2, 0.8]])
    spec = SystemSpec("linear_map", {"B": B.tolist()})
    traj = integrate(spec, [1.0, 0.5], dt=0.0, n_steps=30)
    emb = delay_embed(traj.states, N=2)
    # each delay block obeys the same recurrence v' = B v
    blockB = np.kron(np.eye(3), B)
    np.testing.assert_allclose(emb[1:], emb[:-1] @ blockB.T, atol=1e-10)


def test_snapshot_pair_from_series():
    series = np.arange(8.0).reshape(4, 2)
    pair = SnapshotPair.from_series(series)
    assert pair.X.shape == pair.Xp.shape == (2, 3)
    np.testing.assert_allclose(pair.X[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(pair.Xp[:, -1], [6.0, 7.0])


def test_snapshot_pair_from_a_one_dimensional_series_has_one_observable():
    pair = SnapshotPair.from_series(np.arange(5.0))
    assert pair.n_observables == 1
    np.testing.assert_array_equal(pair.X, [[0.0, 1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(pair.Xp, [[1.0, 2.0, 3.0, 4.0]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_snapshot_pair_from_series_names_the_non_finite_series_sample(bad):
    # the last sample enters only Xp; it is named by its place in the series
    series = np.ones((5, 2))
    series[4, 1] = bad
    with pytest.raises(PreconditionError, match=rf"non-finite value {bad} in entry 1 at sample 4;"):
        SnapshotPair.from_series(series)
    # a delay pair names the delay vector: vector 3 holds series[4] as its entry 1
    with pytest.raises(PreconditionError, match=r"in entry 1 at sample 3;"):
        hankel_pair(series[:, 1], rows=2)


# one case per UsageError guard on malformed counts and shapes
_GUARDS = {
    "pair_shapes_differ": (lambda: SnapshotPair(X=np.ones((2, 3)), Xp=np.ones((2, 4))),
                           r"snapshot shapes differ: \(2, 3\) vs \(2, 4\)"),
    "pair_without_columns": (lambda: SnapshotPair(np.ones((2, 0)), np.ones((2, 0))),
                             "snapshot pair needs at least one column"),
    "series_of_one_sample": (lambda: SnapshotPair.from_series([1.0]),
                             "need at least two samples to form a snapshot pair"),
    "negative_delays": (lambda: delay_embed(np.arange(5.0), N=-1),
                        "number of delays must be >= 0"),
    "zero_stride": (lambda: delay_embed(np.arange(5.0), N=1, stride=0), "stride must be >= 1"),
    "hankel_rows": (lambda: hankel_pair(np.arange(5.0), rows=0), "rows must be >= 1"),
    "hankel_short_series": (lambda: hankel_pair(np.arange(3.0), rows=3),
                            "series of length 3 too short for rows=3"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
