"""Benchmark child process: set up one workload, then run it and report.

``run.py`` starts this file as a fresh interpreter.  It imports koopman
from the checkout's ``src/``, generates and schema-validates the
workload's configs, and prints ``READY`` (the parent times set-up up to
that line).  With ``--role setup`` it stops there.  With ``--role measure``
it runs passes over the workload, one config at a time through
``koopman.cli.main`` from this single process, until ``--seconds`` have
passed, checks every result, and prints ``RESULT <json>``.

A pass runs every config of the workload once (config_sweep moves to the
next seeded variant of each config on every pass).  With ``--trace 0`` the
passes give the end-to-end numbers: after each pass a calibration helper
(``calibrate.py``, a process that never imports koopman) measures the host
speed, and each pass's times are scaled by the speed measured around it.
The raw times are kept in the result too.  With ``--trace 1`` untraced and
traced passes alternate over the same variants; the traced ones give the
per-layer numbers and, against their untraced twins, the tracer's
overhead.  End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

DIGESTS_FILE = HERE / "digests.json"
MIN_PASSES = {"full": 3, "tiny": 1}

CAL_SHARE = 0.1  # calibration time as a share of pass time
CAL_WINDOW = 5  # fewest helper samples behind one config run's speed factor
CAL_CHECK_EVERY = 8  # one in-process kernel sample per this many helper samples


def import_koopman():
    """Import koopman from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "koopman" / "__init__.py").is_file():
        raise SystemExit(f"bench: no koopman package under {src}")
    sys.path.insert(0, str(src))
    import koopman

    if Path(koopman.__file__).resolve().parent != (src / "koopman").resolve():
        raise SystemExit(f"bench: imported koopman from {koopman.__file__}, not {src}")
    import koopman.cli

    return koopman.cli


def machine() -> dict:
    import ctypes
    import glob

    import scipy

    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas_threads = getattr(handle, symbol)()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


def digest_artifacts(out_dir: Path, artifacts) -> dict:
    """SHA-256 of every artifact but summary.json, which holds run times."""
    digests = {}
    for name in artifacts:
        if name != "summary.json":
            digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


def tail(latencies: dict):
    """Tail latency of the slowest config as (label, value).

    For each config, the highest listed percentile of its own samples with
    at least ten of them beyond it, or its median when it has too few
    samples for any (the heavy workloads); the largest over configs.
    Pooling the configs instead lets a host stall of a few hundred
    milliseconds, caught by 1 % of a config_sweep run, move the tail by half.
    """
    best = (None, -1.0)
    for name, samples in latencies.items():
        ordered = sorted(samples)
        label, value = f"median of {name}'s {len(ordered)} runs", statistics.median(ordered)
        for p in (99.9, 99, 95, 90, 75):
            if len(ordered) * (100 - p) / 100 >= 10:
                label, value = f"p{p:g} of {name}'s {len(ordered)} runs", percentile(ordered, p)
                break
        if value > best[1]:
            best = (label, value)
    return best


def summarise(passes: list[dict]) -> dict:
    """End-to-end times of a list of passes, each {config name: latency}."""
    latencies = {name: [p[name] for p in passes] for name in passes[0]}
    config_medians = {name: statistics.median(v) for name, v in latencies.items()}
    tail_label, tail_s = tail(latencies)
    return {
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        # median of per-config medians: the pooled median of a mix of
        # configs falls in the gap between fast and slow ones and jumps
        "config_s.p50": statistics.median(config_medians.values()),
        "config_s.tail": tail_s,
        "tail_label": tail_label,
        "config_medians": config_medians,
        "config_samples": sum(map(len, latencies.values())),
    }


def window_factors(batches: list[list[float]], window: int = CAL_WINDOW) -> list[float]:
    """Speed factor of each config run from the helper samples taken after it.

    A run with fewer than ``window`` samples of its own (short runs)
    borrows those of its neighbours, one run each side at a time.
    """
    factors = []
    for i in range(len(batches)):
        lo, hi, samples = i, i, list(batches[i])
        while len(samples) < window and (lo > 0 or hi < len(batches) - 1):
            if lo > 0:
                lo -= 1
                samples += batches[lo]
            if hi < len(batches) - 1:
                hi += 1
                samples += batches[hi]
        factors.append(calibrate.REFERENCE_S / statistics.median(samples))
    return factors


def run_for(seconds, min_passes, step) -> None:
    """Call step(index) until ``seconds`` have passed.

    ``step`` returns how long its pass took; the loop stops before a pass
    that would end more than half a pass past the deadline.
    """
    start, last, count = time.perf_counter(), 0.0, 0
    while count < min_passes or time.perf_counter() - start + last / 2 < seconds:
        last = step(count)
        count += 1


class Runner:
    """Runs passes over one workload's cases and checks every result."""

    def __init__(self, cli, cases, work: Path, reference: dict | None):
        import checks  # needs koopman on the path

        self.cli = cli
        self.check = checks.check
        self.cases = cases
        self.work = work
        self.reference = reference  # recorded digests for these exact configs
        self.by_name: dict[str, list] = {}
        for case in cases:
            self.by_name.setdefault(case.name, []).append(case)
        self.paths = {case.key: work / "configs" / f"{case.key}.json" for case in cases}
        self.seen: dict[str, dict] = {}  # case key -> first digests
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.unstable: set = set()
        self.changed: set = set()
        self.tracer = None

    def write_configs(self, validator) -> None:
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        for case in self.cases:
            errors = list(validator.iter_errors(case.config))
            if errors:
                raise SystemExit(f"bench: generated config {case.key} invalid: {errors[0].message}")
            with open(self.paths[case.key], "w") as fh:
                json.dump(case.config, fh, indent=2, sort_keys=True)

    def run_case(self, case, sink) -> float:
        self.attempted += 1
        # A fresh directory per run, removed once checked: no artifact can be
        # left over from an earlier run, and no run rewrites an existing
        # file, which ext4 flushes on close (auto_da_alloc).  On a shared
        # host that made a five-file write 4x slower at the median and 10x
        # at p99, and put other tenants' disk traffic into config latencies.
        out_dir = self.work / "out" / f"{case.key}-{self.attempted}"
        argv = ["run", str(self.paths[case.key]), "--out", str(out_dir)]
        for item in case.overrides:
            argv += ["--set", item]
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed config, not a dead benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                summary = json.loads((out_dir / "summary.json").read_text())
                if self.tracer is not None:
                    self.tracer.count("cli.artifact_bytes", sum(
                        (out_dir / a).stat().st_size for a in summary["artifacts"]))
                problems = self.compare_digests(case, digest_artifacts(out_dir, summary["artifacts"]))
                problems += self.check(case.name, case.config, out_dir)
            except Exception as exc:  # unreadable or missing artifacts fail the config
                problems = [f"reading artifacts: {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            self.failed += 1
            self.failures.setdefault(case.key, error)
        return elapsed

    def compare_digests(self, case, digests) -> list[str]:
        """Artifacts that differ from the first pass or from the recorded digests."""
        problems = []
        first = self.seen.setdefault(case.key, digests)
        for name in sorted(set(digests) | set(first)):
            if digests.get(name) != first.get(name):
                self.unstable.add(f"{case.key}/{name}")
                problems.append(f"{name} differs from the first pass")
        if self.reference is not None:
            recorded = self.reference.get(case.key, {})
            for name in sorted(set(digests) | set(recorded)):
                if digests.get(name) != recorded.get(name):
                    self.changed.add(f"{case.key}/{name}")
                    problems.append(f"{name} differs from its recorded digest")
        return problems

    def run_pass(self, index, sink, after=None) -> dict[str, float]:
        """Run every config once; return each config's latency.

        ``after(latency)`` is called after each config run, untimed.
        """
        latencies = {}
        for name, variants in self.by_name.items():
            latencies[name] = self.run_case(variants[index % len(variants)], sink)
            if after is not None:
                after(latencies[name])
        return latencies


def measure(runner: Runner, seconds, min_passes, sink) -> dict:
    """Untraced passes; a host-speed calibration follows every config run."""
    kernel = calibrate.Kernel()
    passes, batches, local_over_helper = [], [], []
    samples = 0

    def calibrate_after(elapsed):
        nonlocal samples
        batch = []
        for _ in range(max(1, round(CAL_SHARE * elapsed / calibrate.REFERENCE_S))):
            batch += helper.samples(1)
            samples += 1
            if samples % CAL_CHECK_EVERY == 1:  # paired with the helper sample just before
                local_over_helper.append(kernel.sample() / batch[-1])
        batches.append(batch)

    def step(index):
        passes.append(runner.run_pass(index, sink, after=calibrate_after))
        return sum(passes[-1].values())

    with calibrate.Helper() as helper:
        run_for(seconds, min_passes, step)
    factors = window_factors(batches)  # one per config run, in run order
    each = iter(factors)
    scaled = summarise([{name: t * next(each) for name, t in p.items()} for p in passes])
    raw = summarise(passes)
    helper_median = statistics.median(x for batch in batches for x in batch)
    return {
        **scaled,
        "raw": {name: raw[name] for name in ("wall_s", "config_s.p50", "config_s.tail")},
        "raw_config_medians": raw["config_medians"],
        "speed": calibrate.REFERENCE_S / helper_median,
        "speed_factors": factors,
        "calibration_s": batches,
        # > 1: the measuring process runs the kernel slower than a clean one
        "in_process_over_helper": statistics.median(local_over_helper),
        "passes": len(passes),
        "pass_s_raw": [sum(p.values()) for p in passes],
    }


def trace_layers(runner: Runner, seconds, min_passes, sink, spans_file) -> dict:
    """Untraced and traced passes in turn over the same variants."""
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, traced, cpu = [], [], []

    def step(index):
        cpu0 = time.process_time()
        untraced.append(sum(runner.run_pass(index, sink).values()))
        cpu.append(time.process_time() - cpu0)
        tracer.install()
        tracer.enabled = True
        try:
            traced.append(sum(runner.run_pass(index, sink).values()))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        return untraced[-1] + traced[-1]

    runner.tracer = tracer
    try:
        run_for(seconds, min_passes, step)
    finally:
        runner.tracer = None
    tracer.write(spans_file)
    layers = tracer.per_pass(len(traced))
    layers["process.cpu_s"] = sum(cpu) / len(cpu)
    layers["process.cpu_per_wall"] = sum(cpu) / sum(untraced)
    layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return {"layers": layers, "passes": len(traced), "pass_s_raw": untraced,
            "traced_pass_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    cli = import_koopman()
    import jsonschema

    work = Path(args.work)
    cases = workloads.generate(args.workload, args.seed, args.size)
    reference = None
    if args.seed is None and args.size == "full" and DIGESTS_FILE.is_file():
        reference = json.loads(DIGESTS_FILE.read_text()).get(args.workload)
    runner = Runner(cli, cases, work, reference)
    runner.write_configs(jsonschema.Draft7Validator(cli.CONFIG_SCHEMA))
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    min_passes = MIN_PASSES[args.size]
    with open(os.devnull, "w") as sink:
        if args.trace:
            result = trace_layers(runner, args.seconds, min_passes, sink, work / "spans.json")
        else:
            result = measure(runner, args.seconds, min_passes, sink)
    result.update(
        machine=machine(),
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        artifacts_unstable=sorted(runner.unstable),
        artifacts_changed=None if reference is None else sorted(runner.changed),
        digests=runner.seen,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    shutil.rmtree(work / "out", ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
