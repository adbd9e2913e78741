"""Host-speed calibration, measured in a process that never imports koopman.

A shared host can drift in speed by +-20 % over minutes (seen on a 2-core
VM), which no amount of repetition inside one run removes.  So the
benchmark times a fixed kernel next to the work it measures and reports
times scaled by ``REFERENCE_S / median kernel time``: seconds on a host
running at the reference speed.

The kernel runs in a helper process started from this file, so that
nothing the program leaves behind in the measuring process (heap and
cache state, its own threads) changes the factor by which its times are
scaled.  The helper reads a sample count per line on stdin and answers
with that many kernel times on one line; it ends at end of input.

    python3 perfbench/calibrate.py     # the helper; Helper() starts it

Standard library only at import: ``run.py`` uses ``Helper`` without numpy.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Median kernel time on a quiet 2-core host (Python 3.11, numpy 2.4): the
# unit that makes reported times "seconds at reference speed".
REFERENCE_S = 3.0e-3
HELPER_TIMEOUT_S = 10.0


class Kernel:
    """A fixed mix of interpreter and numpy work, as the program does."""

    def __init__(self):
        import numpy as np

        self._sin = np.sin
        self._points = np.linspace(0.0, 1.0, 160_000)  # 1.3 MB in and out: beyond a 2 MiB L2
        self._out = np.empty_like(self._points)  # no allocation inside the timed part

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        self._sin(self._points, out=self._out)
        return time.perf_counter() - start


class Helper:
    """A running calibration process; use as a context manager."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def samples(self, n: int) -> list[float]:
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited {self.proc.poll()}")
        return [float(x) for x in line.split()]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the helper already died; its exit is reported by samples()
            pass
        try:
            self.proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    kernel = Kernel()
    for line in sys.stdin:
        print(" ".join(repr(kernel.sample()) for _ in range(int(line))), flush=True)


if __name__ == "__main__":
    serve()
