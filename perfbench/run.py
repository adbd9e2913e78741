"""koopman benchmark: end-to-end and per-layer metrics of `koopman run`.

    python3 perfbench/run.py --workload grid_partition --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The parent (this file, standard library
only) starts fresh interpreters running ``bench.py``: several that only
set up, to time set-up, then one that measures.  After each set-up child
a calibration helper (``calibrate.py``) measures the host speed that
child's time is scaled by.  It prints what it found
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units come from
BENCHMARK.json (``end_to_end`` with ``--trace 0``, ``per_layer`` with
``--trace 1``).  Without ``--seed`` the workload runs the shipped configs
exactly; that is the seed the recorded artifact digests belong to.

Exits 1 without a result when the program cannot be imported or a child
fails or hangs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = {"full": 5, "tiny": 1}
SETUP_CAL_SAMPLES = 30
# flag a run whose measuring process ran the calibration kernel this much
# slower or faster than the clean helper did
CAL_MISMATCH = 0.1
TIME_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(role: str, args, work: Path, deadline: float) -> tuple[float, dict]:
    """Start bench.py; return seconds until it printed READY, and what it reported."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--role", role,
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work", str(work)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    ready, result = None, {}
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready is None or (role == "measure" and not result):
        raise ChildFailed(f"bench.py --role {role} exited {proc.returncode} without "
                          f"{'READY' if ready is None else 'RESULT'}")
    return ready, result


def time_setup(args, work: Path, deadline: float) -> list[list[float]]:
    """(set-up seconds, host speed right after it) of each set-up child."""
    samples = []
    with calibrate.Helper() as helper:
        for _ in range(SETUP_SAMPLES[args.size]):
            ready, _ = run_child("setup", args, work, deadline)
            cal = statistics.median(helper.samples(SETUP_CAL_SAMPLES))
            samples.append([ready, calibrate.REFERENCE_S / cal])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; omit to run the shipped configs unchanged")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' is the smoke-test profile")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    # a terminated parent still kills and reaps its child (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "koopman").is_dir() or not spec_file.is_file():
        print(f"run.py: {ROOT} holds no koopman checkout", file=sys.stderr)
        return 1
    spec = json.loads(spec_file.read_text())
    seed = "default" if args.seed is None else args.seed
    work = ROOT / ".perfbench_out" / f"{args.workload}-{seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup = [] if args.trace else time_setup(args, work, deadline)
        result = run_child("measure", args, work, deadline)[1]
    except (ChildFailed, RuntimeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if setup:
        # each child's set-up time, scaled by the host speed measured right after it
        result["setup_s"] = statistics.median(ready * speed for ready, speed in setup)
    result["setup_samples"] = setup

    shutil.rmtree(work / "configs")
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    if args.trace:
        print(f"{args.workload} seed {seed}: {result['passes']} traced passes, each after an "
              f"untraced one over the same variants")
    else:
        print(f"{args.workload} seed {seed}: {result['passes']} passes, config_s.tail is the "
              f"{result['tail_label']}, setup median of {len(setup)}")
        factors = result["speed_factors"]
        print(f"host speed {result['speed']:.4f} of reference (per pass {min(factors):.4f} to "
              f"{max(factors):.4f}); raw medians: "
              + ", ".join(f"{k} {v:.6g} s" for k, v in result["raw"].items()))
        ratio = result["in_process_over_helper"]
        flag = " FLAGGED: the program changes its own process's speed" if abs(
            ratio - 1.0) > CAL_MISMATCH else ""
        print(f"calibration kernel in the measuring process over the helper: {ratio:.4f}{flag}")
    print(f"failed_fraction: {failed / attempted:.6g} ({failed} of {attempted} config runs)")
    for key, error in sorted(result["failures"].items()):
        print(f"  failed {key}: {error}")
    changed = result["artifacts_changed"]
    print("artifacts_changed: " + ("not recorded for this seed" if changed is None else
                                   f"{len(changed)} vs digests recorded for the default seed"))
    for item in changed or ():
        print(f"  changed {item}")
    print(f"artifacts_unstable: {len(result['artifacts_unstable'])} differing between passes")

    source = result["layers"] if args.trace else result
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    # a changed or unstable artifact also fails its config run
    correct = failed == 0 and not result["artifacts_unstable"] and not changed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
