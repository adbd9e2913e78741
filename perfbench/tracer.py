"""Span tracer that wraps the public functions of each koopman module.

Nothing inside ``src/`` is edited: the tracer replaces each public
function with a timing wrapper in its defining module *and* in every
``koopman`` module that imported it by name (``cli`` imports layer
functions that way, and so do ``partitions`` and ``mori_zwanzig``), so
calls such as ``partitions._advance -> step_map_batch`` or
``mz_decompose -> dual_basis`` are seen.  A few methods that carry the hot
loops are wrapped on their classes.

Spans (name, start, end, parent span, run id) are kept in memory and
written out once, when the run ends.  A layer's self time is its span
time minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np
from koopman.partitions import _REAL_KINDS  # kinds with a real accumulator

LAYERS = (
    "cli",
    "systems",
    "observables",
    "embedding",
    "dmd",
    "finite_section",
    "partitions",
    "static_koopman",
    "mori_zwanzig",
    "representation_eval",
)

# (module, class, attribute, span name): methods that do a layer's work.
METHODS = (
    ("observables", "Observable", "__call__", "observables.Observable"),
    ("observables", "ObservableDictionary", "evaluate", "observables.ObservableDictionary.evaluate"),
    ("embedding", "SnapshotPair", "from_series", "embedding.SnapshotPair.from_series"),
    ("partitions", "TimeAverageField", "to_csv", "partitions.to_csv"),
    ("partitions", "PartitionLabeling", "to_csv", "partitions.to_csv"),
)

# Spans whose self time and call count the benchmark reports.
REPORTED_SPANS = (
    "systems.step_map_batch",
    "systems.integrate",
    "observables.Observable",
    "observables.ObservableDictionary.evaluate",
    "partitions.time_average",
    "partitions.ergodic_partition_approx",
    "partitions.partition_invariance_score",
    "partitions.to_csv",
    "partitions.gla_eigenfunction",
    "finite_section.finite_section_matrix",
    "finite_section.dual_basis",
    "representation_eval.sindy_fit",
    "representation_eval.representation_residual",
    "representation_eval.faithfulness_estimate",
    "mori_zwanzig.mz_decompose",
    "mori_zwanzig.circle_rotation_closure",
    "dmd.companion_dmd",
    "dmd.pseudoinverse_dmd",
    "dmd.spectral_triple",
    "static_koopman.fit_static_linear",
    "embedding.SnapshotPair.from_series",
    "cli.main",
    "cli.run",
)

# Work counters recorded at the span boundary: name, how it aggregates.
COUNTERS = {
    "systems.step_map_batch.point_steps": "sum",
    "systems.integrate.steps": "sum",
    "observables.Observable.values": "sum",
    "partitions.time_average.working_set_bytes": "max",
    "cli.artifact_bytes": "sum",
}

def _rows(states) -> int:
    shape = np.shape(states)
    return shape[0] if len(shape) >= 2 else 1


def _time_average_bytes(args, kwargs, result) -> int:
    """Computed bytes of the state array plus accumulators of one time_average."""
    dictionary, spec = args[0], args[1]
    points = result.values.shape[0]
    accum = sum(1 if e.kind in _REAL_KINDS else 2 for e in dictionary)
    return points * 8 * (spec.dim + accum)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (counter, amount from (args, kwargs, result))
_COUNT_AT = {
    "systems.step_map_batch": (
        "systems.step_map_batch.point_steps", lambda a, k, r: _rows(_arg(a, k, 1, "pts"))),
    "systems.integrate": ("systems.integrate.steps", lambda a, k, r: _arg(a, k, 3, "n_steps")),
    "observables.Observable": (
        "observables.Observable.values", lambda a, k, r: _rows(_arg(a, k, 1, "states"))),
    "partitions.time_average": ("partitions.time_average.working_set_bytes", _time_average_bytes),
}


class Tracer:
    """Records spans while enabled; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def count(self, counter: str, amount) -> None:
        if not self.enabled:
            return
        if COUNTERS[counter] == "max":
            self.counts[counter] = max(self.counts[counter], amount)
        else:
            self.counts[counter] += amount

    def wrap(self, name: str, fn):
        counter = _COUNT_AT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer and rebind its imports."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"koopman.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        importers = [m for n, m in sys.modules.items() if n == "koopman" or n.startswith("koopman.")]
        for module in importers:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, originals[obj])
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(f"koopman.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__))
            else:
                wrapped = self.wrap(span, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def per_pass(self, passes: int) -> dict[str, float]:
        """Self time and calls of each reported span per pass, plus the counters."""
        self_s, calls = self_times(self.spans), self.calls()
        out = {}
        for span in REPORTED_SPANS:
            out[f"{span}.self_s"] = self_s.get(span, 0.0) / passes
            out[f"{span}.calls"] = calls.get(span, 0) / passes
        for counter, how in COUNTERS.items():
            value = self.counts.get(counter, 0)
            out[counter] = value if how == "max" else value / passes
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans}, fh)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the union of its children."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return totals
