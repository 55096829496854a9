"""One repetition of a workload in a fresh interpreter.

Started by run.py from the root of a checkout.  Imports qwhitney from the
checkout's ``src``, generates the requests from the seed, reports its set-up
time, then sends the requests one at a time (closed loop, one client) through
``qwhitney.cli.main``.  Writes to stdout, per request, one JSON header line
followed by the request's raw output, and last a summary line.  Nothing is
written while a request is being timed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from array import array
from bisect import bisect_left

import workloads


def _emit(header: dict, payload: bytes = b""):
    """Write one record to stdout.  os.write, looping over partial writes:
    a SIGALRM during a large pipe write makes the write partial."""
    data = memoryview(json.dumps(header).encode() + b"\n" + payload)
    while data:
        data = data[os.write(1, data):]


class SpeedSampler:
    """Samples how fast the host runs Python while requests run: every
    50 ms, SIGALRM runs a fixed loop in the main thread and records when
    and for how long.  The loop's time is taken out of request latencies."""

    PERIOD_S = 0.05

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.at, self.took = array("d"), array("d")

    @staticmethod
    def probe() -> float:
        """Seconds the fixed loop takes now (about 0.2 ms uncontended)."""
        t0 = time.perf_counter()
        d = {}
        for i in range(1500):
            d[i & 63] = d.get(i & 63, 0) + i * 7
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.took.append(self.probe())
        self.at.append(t0)

    def within(self, t0: float, t1: float) -> float:
        """Seconds spent probing between perf_counter readings t0 and t1.
        The handler runs in the main thread, so a probe is wholly inside
        or wholly outside."""
        return sum(self.took[bisect_left(self.at, t0):bisect_left(self.at, t1)])

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import qwhitney
    from qwhitney import cli
    if not os.path.abspath(qwhitney.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported qwhitney from {qwhitney.__file__}, not {src}")
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(qwhitney)
    reqs = workloads.requests(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    _emit({"setup_s": setup_s, "setup_probe_s": statistics.median(
        SpeedSampler.probe() for _ in range(5))})
    if args.setup_only:
        return 0

    wall = 0.0
    out_bytes = 0
    # Probes outside the requests, for traced and untraced workers alike.
    bracket = [SpeedSampler.probe() for _ in range(5)]
    # Probing would land inside traced spans, so traced workers do not probe.
    with SpeedSampler(enabled=tracer is None) as sampler:
        for argv in reqs:
            buf = io.StringIO()
            err = None
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv, out=buf)
            except Exception as exc:  # a crash is a failed request, not ours
                rc, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            dt = t1 - t0 - sampler.within(t0, t1)
            wall += dt
            payload = buf.getvalue().encode()
            out_bytes += len(payload)
            _emit({"argv": argv, "rc": rc, "err": err, "dt": dt, "t0": t0,
                   "t1": t1, "nbytes": len(payload)}, payload)
            del buf, payload
    bracket += [SpeedSampler.probe() for _ in range(5)]
    summary = {"wall_s": wall,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "speed": [list(sampler.at), list(sampler.took)],
               "bracket_probe_s": statistics.median(bracket)}
    if tracer is not None:
        summary["layers"] = tracer.metrics(wall, out_bytes)
        summary["missing"] = tracer.missing
        os.makedirs(".perfbench", exist_ok=True)
        tracer.write(os.path.join(".perfbench", f"{args.workload}.spans"))
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
