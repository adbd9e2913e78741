"""The package's warnings: one class, KoopmanWarning, issued only through
koopman.errors.warn, each naming the line that called the public function
whose result it qualifies."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import koopman
from koopman import (
    FourierObservable,
    KoopmanWarning,
    Observable,
    ObservableDictionary,
    PairedSamples,
    SnapshotPair,
    SystemSpec,
    circle_rotation_closure,
    companion_dmd,
    continuous_time_eigenvalues,
    finite_section_matrix,
    fit_static_linear,
    gla_eigenfunction,
    integrate,
    monomial_library,
    sindy_fit,
    spectral_triple,
)

SOURCES = sorted(Path(koopman.__file__).parent.glob("*.py"))


def _warning_calls(tree) -> list:
    """Line of each use of the warnings module in tree: an import of it, or
    a call of warnings.warn or warnings.warn_explicit."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("warn", "warn_explicit")
              and getattr(node.func.value, "id", None) == "warnings"):
            found.append(node.lineno)
    return found


def test_only_the_errors_module_issues_warnings():
    calls = {path.name: _warning_calls(ast.parse(path.read_text())) for path in SOURCES}
    assert calls.pop("errors.py")  # the owner does warn
    assert {name: found for name, found in calls.items() if found} == {}


_Z = Observable("z", "phase", k=(1,))
_ROTATION = integrate(SystemSpec("circle_rotation"), [0.0], dt=0.0, n_steps=50)
_SPIRAL = integrate(SystemSpec("limit_cycle_polar"), [1.0, 0.0], dt=0.01, n_steps=400)
_DECAY = integrate(SystemSpec("linear_map", params={"B": [[0.99]]}), [1.0], dt=0.0,
                   n_steps=200)
_STILL = integrate(SystemSpec("linear_map", params={"B": [[1.0, 0.0], [0.0, 1.0]]}),
                   (1.0, 1.0), dt=0.0, n_steps=20)
_TWICE_X = ObservableDictionary((Observable("x", "coordinate", index=0),
                                 Observable("x2", "monomial", powers=(1.0, 0.0))))
_ZERO_ROW = np.vstack([np.random.default_rng(12).normal(size=20), np.zeros(20)])
_DIAGONAL = np.diag([0.5, -0.25])
_Y = ObservableDictionary((Observable("y", "coordinate", index=0),))
_REPEATED = PairedSamples(np.tile([1.0, 2.0], (10, 1)), np.tile([3.0], (10, 1)))

# site -> (a one-line call that makes it warn, a part of each message)
SITES = {
    "dmd.companion_dmd": (
        lambda: companion_dmd(SnapshotPair(X=np.ones((1, 3)), Xp=np.ones((1, 3)))), "ill-posed"),
    "dmd.spectral_triple": (
        lambda: spectral_triple(_DIAGONAL, SnapshotPair(X=_ZERO_ROW, Xp=_DIAGONAL @ _ZERO_ROW)),
        "vanishes on the data"),
    "dmd.continuous_time_eigenvalues": (
        lambda: continuous_time_eigenvalues([-1.0], 0.1), "aliased"),
    "finite_section.finite_section_matrix": (
        lambda: finite_section_matrix(monomial_library(("x",), 6), _DECAY), "disagree"),
    "mori_zwanzig.circle_rotation_closure": (
        lambda: circle_rotation_closure(FourierObservable([1.0, 1.0, 1.0]), 1.0, 2),
        "aliases|lambda"),
    "partitions.gla_eigenfunction.real_part": (
        lambda: gla_eigenfunction(_SPIRAL, -0.1 + 1j, Observable("z", "phase", k=(0, 1)), 100),
        "real part|unit circle"),
    "partitions.gla_eigenfunction.off_circle": (
        lambda: gla_eigenfunction(_ROTATION, 0.5, _Z, window=10), "unit circle"),
    "representation_eval.sindy_fit": (
        lambda: sindy_fit(_STILL, _TWICE_X, threshold=0.0), "rank deficient"),
    "static_koopman.fit_static_linear": (
        lambda: fit_static_linear(_REPEATED, _TWICE_X, _Y), "rank"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_site_issues_a_koopman_warning_naming_its_caller_line(site):
    call, match = SITES[site]
    with pytest.warns(KoopmanWarning, match=match) as record:
        call()
    assert {(w.category, w.filename, w.lineno) for w in record} == {
        (KoopmanWarning, __file__, call.__code__.co_firstlineno)}
    with warnings.catch_warnings():  # a caller can make the package's caveats errors
        warnings.simplefilter("error", koopman.KoopmanWarning)
        with pytest.raises(KoopmanWarning):
            call()
