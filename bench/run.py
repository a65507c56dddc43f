"""Benchmark of ``slpdist distance`` on seeded workloads.

    python3 bench/run.py --workload fib-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` and run as ``python -m slpdist.cli``.  Scratch files go under
``.bench_work/``.

``--trace 0`` times whole ``distance`` processes, one at a time (a single
closed-loop client), on one core, and reports the end-to-end metrics, with
each time scaled by the core's speed of the moment (see ``PROBE_REF_S``).
``--trace 1``
calls ``slpdist.cli.main`` in-process with every layer boundary wrapped in a
span and reports the per-layer metrics.  Either way every distance printed
is checked against a Wagner-Fischer reference computed on the expanded
inputs.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CALL_TIMEOUT_S,
    SRC,
    WORK,
    BenchError,
    child_env,
    cli_argv,
    reference,
    setup,
)

# end-to-end metrics, as named in BENCHMARK.json
UNITS = {"distance_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
MIN_SAMPLES = 3
# The speed of a core drifts by tens of percent over seconds to minutes on
# shared machines, and the program's time follows it.  A fixed pure-Python
# loop on the same core, run before and after each timed step, measures the
# speed of the moment; each time is scaled by PROBE_REF_S over the mean of
# its two probes, so times read as seconds on a core that runs the probe in
# PROBE_REF_S (about an uncontended 2 GHz Xeon core).
PROBE_LOOPS = 2_000_000
PROBE_REF_S = 0.2


def probe():
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


class Speed:
    """Scales the times of steps run back to back, each between two probes."""

    def __init__(self):
        self.last = probe()

    def scale(self, elapsed):
        now = probe()
        scaled = elapsed * PROBE_REF_S / ((self.last + now) / 2)
        self.last = now
        return scaled


def spawn_distance(args, workdir):
    """One ``distance`` process from spawn to exit: (seconds, peak RSS in
    MB, exit code, stdout)."""
    out_path = workdir / "distance.out"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cli_argv() + ["distance"] + args,
            cwd=workdir,
            env=child_env(),
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return elapsed, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text()


def timed_run(workload, seed, seconds):
    """Median time of repeated set-ups, then ``distance`` processes
    back to back until ``seconds`` would be exceeded."""
    workdir = WORK / "run" / workload.name
    setups, raw_setups = [], []
    speed = Speed()
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        inputs, elapsed = setup(workload, seed, workdir)
        raw_setups.append(elapsed)
        setups.append(speed.scale(elapsed))
    expected, _ = reference(inputs)
    times, raw_times, rss = [], [], []
    failed = 0
    speed = Speed()
    start = time.perf_counter()
    while len(times) < MIN_SAMPLES or (
        time.perf_counter() - start + statistics.median(raw_times) <= seconds
    ):
        elapsed, peak, code, out = spawn_distance(inputs.args, workdir)
        raw_times.append(elapsed)
        times.append(speed.scale(elapsed))
        rss.append(peak)
        if code != 0 or out.strip() != expected:
            failed += 1
    print(
        f"{workload.name} seed {seed}: {len(times)} distance runs, expected {expected}, "
        f"error_rate {failed / len(times)} ratio"
    )
    print("distance wall seconds: " + " ".join(f"{t:.4f}" for t in raw_times))
    print("distance_s (scaled):   " + " ".join(f"{t:.4f}" for t in times))
    print(
        f"setup: {len(setups)} set-ups, median {statistics.median(raw_setups):.6f} s wall, "
        f"{statistics.median(setups):.6f} s scaled"
    )
    metrics = {
        "distance_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, UNITS, len(times), failed, []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one core for this process, its children and the speed probe, so the
    # probe measures the core the timed process runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "slpdist" / "cli.py").is_file():
        raise BenchError(f"no slpdist sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # byte-compile once so no timed process pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    if args.trace:
        from traced import traced_run

        run = traced_run
    else:
        run = timed_run
    metrics, units, attempted, failed, problems = run(workload, args.seed, args.seconds)
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
