import hashlib

import numpy as np
import pytest

from koopman.errors import ObservableDomainError, UsageError
from koopman.observables import (
    REAL_KINDS,
    Observable,
    ObservableDictionary,
    _matrix,
    fourier_box,
    monomial_library,
)


def test_constant_and_coordinate():
    states = np.array([[0.1, 0.2], [0.3, 0.4]])
    one = Observable("one", "constant")
    np.testing.assert_allclose(one(states), [1.0, 1.0])
    y = Observable("y", "coordinate", index=1)
    np.testing.assert_allclose(y(states), [0.2, 0.4])


def test_fourier_unit_box_convention():
    states = np.array([[0.25, 0.0], [0.5, 0.5]])
    z1 = Observable("z1", "fourier", k=(1, 0))
    np.testing.assert_allclose(z1(states), [np.exp(0.5j * np.pi), -1.0], atol=1e-15)
    assert np.allclose(np.abs(z1(states)), 1.0)


def test_phase_uses_radians():
    states = np.array([[np.pi]])
    z = Observable("z", "phase", k=(1,))
    np.testing.assert_allclose(z(states), [-1.0], atol=1e-15)


def test_sin_cos_match_fourier_parts():
    rng = np.random.default_rng(3)
    states = rng.random((20, 2))
    k = (2, -1)
    f = Observable("f", "fourier", k=k)(states)
    np.testing.assert_allclose(Observable("c", "cos", k=k)(states), f.real, atol=1e-14)
    np.testing.assert_allclose(Observable("s", "sin", k=k)(states), f.imag, atol=1e-14)


def test_monomial_values_and_negative_powers():
    states = np.array([[2.0, 3.0], [-1.0, 2.0]])
    m = Observable("m", "monomial", powers=(2, 1))
    np.testing.assert_allclose(m(states), [12.0, 2.0])
    inv = Observable("inv", "monomial", powers=(-2, 0))
    np.testing.assert_allclose(inv(states), [0.25, 1.0])


def test_monomial_domain_errors_name_observable_and_step():
    states = np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
    inv = Observable("rinv", "monomial", powers=(-1, 0))
    with pytest.raises(ObservableDomainError) as err:
        inv(states)
    assert "rinv" in str(err.value)
    assert err.value.step == 1
    half = Observable("sq", "monomial", powers=(0.5, 0))
    with pytest.raises(ObservableDomainError):
        half(np.array([[-1.0, 0.0]]))


def test_dictionary_matrix_layout():
    states = np.array([[0.0, 0.0], [0.25, 0.5]])
    d = ObservableDictionary(
        (
            Observable("one", "constant"),
            Observable("z1", "fourier", k=(1, 0)),
        )
    )
    F = d.evaluate(states)
    assert F.shape == (2, 2)
    assert F.dtype == complex
    np.testing.assert_allclose(F[:, 0], [1.0, 1.0])
    np.testing.assert_allclose(F[1, 1], np.exp(0.5j * np.pi))


def test_dictionary_indexes_its_entries():
    entries = (Observable("one", "constant"), Observable("x", "coordinate", index=0))
    d = ObservableDictionary(entries)
    assert d[0] is entries[0] and d[1] is entries[1] and d[-1] is entries[1]
    with pytest.raises(IndexError):
        d[2]


def test_dictionary_rejects_duplicate_names():
    with pytest.raises(UsageError):
        ObservableDictionary(
            (Observable("a", "constant"), Observable("a", "coordinate", index=0))
        )


def test_dictionary_from_json():
    d = ObservableDictionary(
        (
            Observable("z1", "fourier", k=(1, 0)),
            Observable("r2", "monomial", powers=(2, 0)),
            Observable("x", "coordinate", index=0),
        )
    )
    back = ObservableDictionary.from_json([
        {"name": "z1", "type": "fourier", "k": [1, 0]},
        {"name": "r2", "type": "monomial", "powers": [2, 0]},
        {"name": "x", "type": "coordinate", "index": 0},
    ])
    assert back == d
    states = np.random.default_rng(0).random((5, 2)) + 0.5
    np.testing.assert_allclose(back.evaluate(states), d.evaluate(states), atol=1e-15)


def test_custom_observable_not_serializable():
    c = Observable("norm", "custom", fn=lambda s: np.linalg.norm(s, axis=1))
    states = np.array([[3.0, 4.0]])
    np.testing.assert_allclose(c(states), [5.0])
    with pytest.raises(UsageError, match="custom needs a callable fn"):
        Observable.from_json({"name": "norm", "type": "custom"})


def test_dimension_mismatch_is_usage_error():
    z = Observable("z", "fourier", k=(1, 0))
    with pytest.raises(UsageError):
        z(np.array([[1.0, 2.0, 3.0]]))
    x = Observable("x", "coordinate", index=5)
    with pytest.raises(UsageError):
        x(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize(
    "kind, params",
    [
        ("coordinate", {"index": 1.5}),
        ("coordinate", {"index": "1"}),
        ("coordinate", {"index": True}),
        ("coordinate", {"index": -1}),
        ("coordinate", {}),
        ("phase", {"k": "1"}),
        ("phase", {"k": 5}),
        ("phase", {"k": ["a"]}),
        ("phase", {"k": []}),
        ("phase", {"k": [True, 0]}),
        ("phase", {"k": [1j]}),
        ("phase", {"k": np.zeros((2, 2))}),
        ("phase", {"k": {1, 2}}),
        ("monomial", {"powers": "12"}),
        ("monomial", {"powers": None}),
        ("custom", {"fn": 3}),
        (["phase"], {"k": (1.0,)}),
    ],
)
def test_invalid_parameter_is_usage_error(kind, params):
    with pytest.raises(UsageError):
        Observable("o", kind, **params)


def test_valid_parameters_are_stored_as_before():
    assert Observable("x", "coordinate", index=np.int64(2)).index == 2
    assert type(Observable("x", "coordinate", index=np.int64(2)).index) is int
    for k in ((1, -2), [1, -2], np.array([1, -2]), (np.int64(1), np.float64(-2.0))):
        stored = Observable("z", "phase", k=k).k
        assert stored == (1.0, -2.0) and all(type(v) is float for v in stored)
    assert Observable("m", "monomial", powers=[0.5, np.float32(2)]).powers == (0.5, 2.0)


def test_fourier_box_contents():
    d = fourier_box(2, 1)
    assert len(d) == 8  # 3x3 integer box minus origin
    assert all(e.kind == "fourier" for e in d)
    ks = {e.k for e in d}
    assert (0.0, 0.0) not in ks
    assert (1.0, -1.0) in ks



# SHA-256 of each kind's output (dtype tag, then the raw value bytes) on a
# fixed batch of states, recorded before the kind table replaced the
# per-kind if-chain: evaluation must stay bit for bit the same.
GOLDEN_STATES = np.linspace(0.05, 2.4, 96).reshape(32, 3)
GOLDEN = {
    "constant": (
        Observable("one", "constant"),
        "c7cbe4c68e70622f98be4ecb3c2d7231e5a2481671769e49aaeb9479ed3df13b",
    ),
    "coordinate": (
        Observable("y", "coordinate", index=1),
        "2e3a9783d0fc238b10cb0be99101785ec6f518bdf855e035ab0620ba95ec3024",
    ),
    "monomial": (
        Observable("m", "monomial", powers=(2, -1, 0.5)),
        "1caea051d02750f67dacb5641853e410922f5c6fc4278a7d3ad6894b7b73582e",
    ),
    "fourier": (
        Observable("f", "fourier", k=(1, -2, 3)),
        "e753c49f02f49ee76aa6a4728cb5ddb6278305c71d1c85c7e97da02941ee5b82",
    ),
    "phase": (
        Observable("p", "phase", k=(1, 0.5, -1)),
        "978d05e7fedf1d83c12122fdd407c46d850b8e16b32542efee4b1b505b169e6a",
    ),
    "sin": (
        Observable("s", "sin", k=(2, 1, 0)),
        "934a43b9c8984fd8bbc82af70585089a2de4309385daa64465d593beeac57276",
    ),
    "cos": (
        Observable("c", "cos", k=(0, -1, 4)),
        "e3f6467192d12378c0b4fbb301c1e1ba2d340be0ca76c59b6f5d5ca58399d6c0",
    ),
    "custom": (
        Observable("n", "custom", fn=lambda s: np.sqrt(np.sum(s * s, axis=1))),
        "8cf29856f0060abd8f1148fc7038dc3461dcec2d1b50d72f0e28a80bc16197a4",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_bits_of_every_kind(kind):
    obs, digest = GOLDEN[kind]
    values = obs(GOLDEN_STATES)
    assert hashlib.sha256(values.dtype.str.encode() + values.tobytes()).hexdigest() == digest



def test_real_evaluation_gives_the_bits_of_the_complex_real_part():
    # every real kind is a JSON kind; each column of the float64 matrix must
    # hold the bits of the real part of the default complex matrix
    assert REAL_KINDS < set(GOLDEN) - {"custom"}
    d = ObservableDictionary(tuple(GOLDEN[kind][0] for kind in sorted(REAL_KINDS)))
    F = d.evaluate(GOLDEN_STATES)
    real = d.evaluate(GOLDEN_STATES, dtype=float)
    assert F.dtype == complex and real.dtype == np.float64
    assert real.tobytes() == np.ascontiguousarray(F.real).tobytes()
    assert not np.any(F.imag)


@pytest.mark.parametrize(
    "entry",
    [GOLDEN[kind][0] for kind in sorted(set(GOLDEN) - REAL_KINDS)]
    # real values, complex kind: real evaluation goes by kind
    + [Observable("1", "phase", k=(0.0, 0.0, 0.0))],
    ids=lambda entry: entry.name,
)
def test_real_evaluation_refuses_complex_and_custom_entries(entry):
    d = ObservableDictionary((GOLDEN["constant"][0], entry))
    with pytest.raises(UsageError, match="real observable kinds"):
        d.evaluate(GOLDEN_STATES, dtype=float)


def test_evaluate_refuses_other_dtypes():
    d = ObservableDictionary((GOLDEN["constant"][0],))
    with pytest.raises(UsageError, match="dtype"):
        d.evaluate(GOLDEN_STATES, dtype=int)

@pytest.mark.parametrize("kind", ["fourier", "phase", "sin", "cos"])
@pytest.mark.parametrize("k", [(0.0, 1.0), (0.0, -1.0), (2.0, 0.0), (-3.0, 0.0), (0.5, -0.0)])
def test_one_nonzero_k_gives_the_bits_of_the_matrix_product(kind, k):
    # k_j * x_j is evaluated on the column; with +-0.0 coordinates it must
    # still give the +0.0 the matrix product gives (sin(-0.0) is -0.0)
    states = np.random.default_rng(2).uniform(-5.0, 5.0, (4000, 2))
    states[::5, 0] = 0.0
    states[1::5, 0] = -0.0
    states[2::5, 1] = 0.0
    states[3::5, 1] = -0.0
    dot = states @ np.asarray(k)
    expected = {
        "fourier": lambda: np.exp(1j * 2.0 * np.pi * dot),
        "phase": lambda: np.exp(1j * dot),
        "sin": lambda: np.sin(2.0 * np.pi * dot),
        "cos": lambda: np.cos(2.0 * np.pi * dot),
    }[kind]()
    obs = Observable("o", kind, k=k)
    assert obs(states).tobytes() == expected.tobytes()
    columns = (states[:, 0].copy(), states[:, 1].copy())
    assert obs(columns).tobytes() == expected.tobytes()


def test_a_tuple_of_columns_evaluates_like_its_array():
    states = np.linspace(-2.0, 3.0, 45).reshape(15, 3)
    block = tuple(states.T.copy())
    # the (m, d) matrix the general-k product and custom read
    assert np.array_equal(_matrix(block), states)
    view = _matrix(states.T)  # an array's own layout, not a copy
    assert np.shares_memory(view, states) and view.strides == states.strides
    d = ObservableDictionary((
        Observable("c", "constant"),
        Observable("m", "monomial", powers=(2, 0, 1)),
        Observable("f", "fourier", k=(1, -2, 3)),
        Observable("x", "coordinate", index=2),
        Observable("n", "custom", fn=lambda s: s[:, 0] * s[:, 1]),
    ))
    for entry in d:
        assert entry(block).tobytes() == entry(states).tobytes()
    with pytest.raises(UsageError, match="dimension"):
        Observable("s", "sin", k=(1, 0))(block)


_ONE = ObservableDictionary((Observable("a", "constant"),))
# one case per UsageError guard on malformed observables and dictionaries
_GUARDS = {
    "custom_shape": (
        lambda: Observable("bad", "custom", fn=lambda s: np.ones(2))(np.zeros((3, 1))),
        r"bad: custom observable returned shape \(2,\), expected \(3,\)"),
    "empty_name": (lambda: Observable("", "constant"), "observable needs a non-empty string name"),
    "json_without_type": (lambda: Observable.from_json({"name": "a"}),
                          "observable JSON needs 'name' and 'type' fields"),
    "empty_dictionary": (lambda: ObservableDictionary(()),
                         "observable dictionary must not be empty"),
    "unknown_name": (lambda: _ONE.index_of("b"), "no observable named 'b'"),
    "dictionary_json_object": (lambda: ObservableDictionary.from_json({"name": "a"}),
                               "dictionary JSON must be a list of observable objects"),
    "fourier_box_dim": (lambda: fourier_box(0, 1), "fourier_box needs dim >= 1 and kmax >= 1"),
    "monomials_without_coords": (lambda: monomial_library((), 2),
                                 "monomial_library needs coordinates and max_degree >= 0"),
    # a parameter field the kind does not read is refused, not stored unread
    "phase_with_index": (lambda: Observable("z", "phase", k=(1.0, 0.0), index=1),
                         "z: phase takes no index"),
    "constant_with_k": (lambda: Observable("c", "constant", k=(1.0,)), "c: constant takes no k"),
    "coordinate_with_fn": (lambda: Observable("x", "coordinate", index=0, fn=len),
                           "x: coordinate takes no fn"),
    "custom_with_powers": (lambda: Observable("f", "custom", powers=(1.0,), fn=len),
                           "f: custom takes no powers"),
    "json_phase_with_powers": (
        lambda: Observable.from_json({"name": "z", "type": "phase", "k": [0, 1], "powers": [3, 3]}),
        "z: phase takes no powers"),
    # the schema refuses any other field of a config entry, and so does from_json
    "json_unknown_field": (
        lambda: Observable.from_json({"name": "z", "type": "phase", "k": [1.0], "kk": [2.0]}),
        "z: unknown observable JSON field 'kk'"),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_usage_guard_raises_its_message(case):
    call, message = _GUARDS[case]
    with pytest.raises(UsageError, match=message):
        call()
