"""qwhitney benchmark.

    python3 perfbench/run.py --workload {verify-all,triangle,queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``./src``.
Every repetition of the workload runs in a fresh interpreter (worker.py), so
the triangle cache starts cold as it does for a CLI user.  Repetitions run
one after another, each in one process with one client, until ``--seconds``
is used up (at least one).  The answers are checked against oracle.py after
all timing is done.

``--trace 0`` prints the end-to-end metrics, measured untraced and scaled to
a reference host speed by the workers' speed probe (NOTES.md says why and
how).  ``--trace 1`` alternates untraced and traced repetitions and prints
the per-layer metrics of the traced ones (spans.py), with the tracing
overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Exit status
is 0 when a result was printed, whether or not it is correct; anything else
means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4  # extra set-up-only interpreters per untraced run
WORKER_TIMEOUT_S = 150
# Latencies are scaled to a host on which one speed probe (worker.py) takes
# PROBE_REF_MS, about its time on an uncontended 2-vCPU Intel Xeon VM.
PROBE_REF_MS = 0.2
PROBE_WINDOW_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
OP_NAME = {"verify-all": "verified cell", "triangle": "emitted table entry",
           "queries": "answered request"}


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, trace: int, outputs: dict,
          setup_only=False) -> dict:
    """Run worker.py once; its set-up time, request records and summary.

    Request outputs are interned in `outputs`, so repetitions that print the
    same text share one copy."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        data, code = exc.stdout or b"", "timeout"
    else:
        data, code = proc.stdout, proc.returncode
    records, pos = [], 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        try:
            rec = json.loads(data[pos:nl]) if nl >= 0 else None
        except json.JSONDecodeError:
            rec = None
        if rec is None:  # cut short; the missing requests count as failed
            break
        pos = nl + 1
        if "nbytes" in rec:
            text = data[pos:pos + rec["nbytes"]].decode()
            rec["out"] = outputs.setdefault(text, text)
            pos += rec["nbytes"]
        records.append(rec)
    if not records or "setup_s" not in records[0]:
        raise HarnessError(f"worker did not start (exit {code})")
    rep = {"setup_s": _at_ref(records[0]["setup_s"],
                              records[0]["setup_probe_s"]), "exit": code,
           "requests": [r for r in records[1:] if "argv" in r],
           "summary": records[-1] if "wall_s" in records[-1] else None}
    return rep


def _proc_stat_cpu():
    """(steal ticks, total ticks) of the whole machine, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def machine_facts() -> dict:
    """What identifies the code and the machine a result came from."""
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk("src")):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha or None, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def check(reqs: list, reps: list) -> tuple:
    """(attempted ops, failed ops) over every repetition's answers.

    Identical outputs of repeated requests are checked once."""
    orc, verdicts = oracle.Oracle(), {}
    attempted = failed = 0
    for rep in reps:
        got = rep["requests"]
        for i, argv in enumerate(reqs):
            n = workloads.ops(argv)
            attempted += n
            rec = got[i] if i < len(got) else None
            if rec is None or rec["argv"] != argv:
                failed += n
                continue
            key = (tuple(argv), rec["rc"], rec["out"])
            if key not in verdicts:
                verdicts[key] = orc.check(argv, rec["rc"], rec["out"])
            failed += verdicts[key]
            if rec["err"]:
                print(f"request {argv} raised {rec['err']}", file=sys.stderr)
    return attempted, failed


def _at_ref(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the speed probe took `probe_s`, scaled to
    reference host speed."""
    return seconds * PROBE_REF_MS / 1000 / probe_s


def _scaled(rep: dict) -> list:
    """A repetition's request latencies at reference host speed, each scaled
    by the mean probe time within PROBE_WINDOW_S of the request."""
    at, took = rep["summary"]["speed"]
    overall = statistics.fmean(took) if took else PROBE_REF_MS / 1000
    out = []
    for r in rep["requests"]:
        near = took[bisect_left(at, r["t0"] - PROBE_WINDOW_S):
                    bisect_right(at, r["t1"] + PROBE_WINDOW_S)]
        out.append(_at_ref(r["dt"], statistics.fmean(near) if near else overall))
    return out


def end_to_end(reqs: list, reps: list, setups: list) -> dict:
    """Each request's latency is its median over the run's repetitions, at
    reference host speed; see NOTES.md for why."""
    scaled = [_scaled(rep) for rep in reps]
    lat_ms = [statistics.median(s[i] for s in scaled) * 1000
              for i in range(len(reqs))]
    wall = sum(lat_ms) / 1000
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": sum(map(workloads.ops, reqs)) / wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": _p90(lat_ms),
        "peak_rss_mb": statistics.median(rep["summary"]["rss_mb"]
                                         for rep in reps),
    }


def per_layer(reps: list, traced: list) -> dict:
    layers = [rep["summary"]["layers"] for rep in traced]
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}

    def wall(group):
        return statistics.median(_at_ref(rep["summary"]["wall_s"],
                                         rep["summary"]["bracket_probe_s"])
                                 for rep in group)

    out["trace.overhead_ratio"] = wall(traced) / wall(reps)
    missing = traced[0]["summary"]["missing"]
    if missing:
        print(f"not traced (absent from the program): {missing}",
              file=sys.stderr)
    return out


def measure(args) -> list:
    """Run the workload and check it; the lines to print, result last."""
    facts = machine_facts()
    stat0 = _proc_stat_cpu()
    reqs = workloads.requests(args.workload, args.seed)
    outputs = {}
    setups = [] if args.trace else [
        spawn(args.workload, args.seed, 0, outputs, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)]
    reps, traced = [], []
    t0 = time.monotonic()
    while True:
        reps.append(spawn(args.workload, args.seed, 0, outputs))
        if args.trace:
            traced.append(spawn(args.workload, args.seed, 1, outputs))
        elapsed = time.monotonic() - t0
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    stat1 = _proc_stat_cpu()
    if stat0 and stat1:
        facts["steal_ticks"] = stat1[0] - stat0[0]
        facts["cpu_ticks"] = stat1[1] - stat0[1]

    attempted, failed = check(reqs, reps + traced)
    complete = all(rep["summary"] and rep["exit"] == 0 for rep in reps + traced)
    # Timings come from the repetitions that ran to the end.
    reps = [rep for rep in reps if rep["summary"]]
    traced = [rep for rep in traced if rep["summary"]]
    if not reps or (args.trace and not traced):
        raise HarnessError("no repetition ran to the end")
    probes = [t for rep in reps for t in rep["summary"]["speed"][1]]
    if len(probes) > 1:  # 10th, 50th and 90th percentile
        facts["speed_probe_ms"] = [round(1000 * q, 4) for q in
                                   statistics.quantiles(probes, n=10)[::4]]
    if args.trace:
        values, units = per_layer(reps, traced), spans.PER_LAYER
    else:
        setups += [rep["setup_s"] for rep in reps]
        values, units = end_to_end(reqs, reps, setups), END_TO_END

    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}: "
             f"{len(reps)} untraced + {len(traced)} traced repetitions of "
             f"{len(reqs)} request(s); {len(setups)} set-up samples",
             "machine: " + json.dumps(facts)]
    lines += [f"  {name:34} {values[name]:>16.6g} {unit}"
              for name, unit in units.items()]
    lines.append(f"  {'fail_ratio':34} {failed / attempted:>16.6g} ratio "
                 f"({failed} failed / {attempted} attempted; "
                 f"op = {OP_NAME[args.workload]})")
    lines.append(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "qwhitney", "cli.py")):
        print("error: run from the root of a qwhitney checkout (no src/qwhitney)",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        lines = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
