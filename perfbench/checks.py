"""Reference checks on a config's artifacts, made from outside the program.

Each check reads what ``koopman run`` wrote and compares it with a
reference the program does not use to produce it: the closed-form
spectra of ``koopman.systems.known_spectrum``, the true coefficients of
the system, an independent formula, or the limits in the config's own
``tolerances`` block (which the CLI copies into summary.json but does not
enforce).  A tolerance key without a check here is itself a failure, so a
new tolerance cannot go unchecked.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from koopman.systems import SystemSpec, known_spectrum

# Limits for configs whose file declares none.  Each quantity is exact in
# exact arithmetic, so the limit only absorbs rounding.
EXACT_ABS = 1e-10
# The companion fit on the 8-entry Fourier box is rank deficient
# (rank 8 < m - 1); the true multipliers are still roots of its polynomial.
COMPANION_ABS = 1e-6


def _matched_error(found, truth) -> float:
    """Largest distance from a true eigenvalue to its nearest computed one."""
    found = np.asarray(found, dtype=complex).ravel()
    return float(max(np.min(np.abs(found - t)) for t in np.ravel(truth)))


def _eigen_csv(path) -> np.ndarray:
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return data[:, 0] + 1j * data[:, 1]


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _limit(errors, label, value, tol, below=True):
    ok = value <= tol if below else value >= tol
    if not (ok and np.isfinite(value)):
        errors.append(f"{label} = {value:.3e} ({'<=' if below else '>='} {tol:.3e} expected)")


def _lorenz_truth(params) -> dict:
    """Nonzero Lorenz coefficients by (library term, state coordinate)."""
    sigma, rho, beta = params["sigma"], params["rho"], params["beta"]
    return {
        ("x", "x"): -sigma,
        ("y", "x"): sigma,
        ("x", "y"): rho,
        ("y", "y"): -1.0,
        ("x*z", "y"): -1.0,
        ("x*y", "z"): 1.0,
        ("z", "z"): -beta,
    }


def _closure_lambda(closure) -> complex:
    """Rayleigh quotient sum |c_n|^2 e^{i n omega} / sum |c_n|^2 of a rotation."""
    c = np.array([complex(v.get("re", 0.0), v.get("im", 0.0)) if isinstance(v, dict) else v
                  for v in closure["coefficients"]])
    weights = np.abs(c) ** 2
    phases = np.exp(1j * np.arange(c.size) * closure["omega"])
    return complex(np.sum(weights * phases) / np.sum(weights))


def check(name: str, config: dict, out_dir) -> list[str]:
    """Failure messages for one finished config run; empty when it passes."""
    out = Path(out_dir)
    summary = _json(out / "summary.json")
    residuals = summary["residuals"]
    spec = SystemSpec(kind=config["system"]["kind"], params=config["system"].get("params", {}))
    tolerances = dict(config.get("tolerances", {}))
    errors: list[str] = []

    def tol(key, default):
        return tolerances.pop(key, default)

    if name == "torus_companion_dmd":
        err = _matched_error(_eigen_csv(out / "eigenvalues.csv"), known_spectrum(spec))
        _limit(errors, "known-spectrum error", err, COMPANION_ABS)
    elif name == "torus_pinv_dmd":
        eigs = _eigen_csv(out / "eigenvalues.csv")
        truth = known_spectrum(spec)
        err = max(_matched_error(eigs, truth), _matched_error(truth, eigs))
        _limit(errors, "known-spectrum error", err, tol("eigenvalue_abs", EXACT_ABS))
    elif name == "torus_repr_check":
        report = _json(out / "report.json")
        _limit(errors, "representation residual", report["residual"], EXACT_ABS)
    elif name == "circle_gla":
        mu = complex(summary["eigenvalues"][0]["re"], summary["eigenvalues"][0]["im"])
        _limit(errors, "multiplier error", _matched_error([mu], known_spectrum(spec)), EXACT_ABS)
        _limit(errors, "harmonic residual", residuals["harmonic_residual"], EXACT_ABS)
    elif name == "circle_mz_closure":
        closure = _json(out / "closure.json")
        lam = complex(closure["lambda"]["re"], closure["lambda"]["im"])
        ref = _closure_lambda(config["method_params"]["closure"])
        _limit(errors, "lambda vs Rayleigh quotient", abs(lam - ref), EXACT_ABS)
        _limit(errors, "lambda_route_gap", residuals["lambda_route_gap"],
               tol("lambda_route_gap", EXACT_ABS))
        _limit(errors, "residual_markov", closure["residual_markov"],
               tol("residual_markov", EXACT_ABS))
    elif name == "lorenz_mz_memory":
        rows = np.loadtxt(out / "mz.csv", delimiter=",", skiprows=1)
        if not np.all(np.isfinite(rows)):
            errors.append("mz.csv holds non-finite norms")
        # P f = f for f in the span: nothing is orthogonal before a step
        _limit(errors, "orthogonal norm at k=0 / resolved", rows[0, 2] / rows[0, 1], EXACT_ABS)
    elif name == "linear_static":
        A = np.atleast_2d(np.loadtxt(out / "A.csv", delimiter=","))
        B = spec.params["B"]
        rel = float(np.linalg.norm(A - B) / np.linalg.norm(B))
        _limit(errors, "matrix relative error", rel, tol("matrix_rel", EXACT_ABS))
    elif name == "lorenz_sindy":
        coefficients = _json(out / "model.json")["coefficients"]
        truth = _lorenz_truth(spec.params)
        found = {(term, coord) for coord, row in coefficients.items()
                 for term, value in row.items() if value != 0.0}
        if found != set(truth):
            errors.append(f"support {sorted(found)} != {sorted(truth)}")
        else:
            rel = max(abs(coefficients[coord][term] - value) / abs(value)
                      for (term, coord), value in truth.items())
            _limit(errors, "coefficient relative error", rel, tol("coefficient_rel", 1e-2))
    elif name == "limit_cycle_edmd":
        cont = _eigen_csv(out / "eigenvalues_continuous.csv")
        truth = known_spectrum(spec)
        decay = truth[truth.real != 0.0]
        rotation = truth[truth.real == 0.0]
        _limit(errors, "decay-rate error", _matched_error(cont, decay), tol("decay_rate_abs", 1e-3))
        _limit(errors, "frequency error", _matched_error(cont, rotation),
               tol("frequency_abs", 1e-6))
    elif name.startswith("standard_map_partition"):
        score = _json(out / "labeling.json")["invariance_score"]
        _limit(errors, "invariance score", score, tol("invariance_score_min", 0.0), below=False)
        _limit(errors, "diverged fraction", residuals["diverged_fraction"], 0.0)
    else:
        errors.append(f"no reference check for config {name!r}")
    errors.extend(f"tolerance {key!r} has no check" for key in tolerances)
    return errors
