"""Run the benchmark over several seeds and summarise its steadiness.

    python3 bench/sweep.py --seeds 1-10 --sets 2 --out bench/trajectory/NAME.json

Runs ``bench/run.py`` once per (set, workload, seed), one process at a
time, with the ``run_seconds`` of BENCHMARK.json; each set ends with one
traced run per workload on the first seed.  For each set, workload and
end-to-end metric it reports the median and the quartile spread,
(Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives them; with two sets, also the
ratio of the second median to the first.  Writes every run's result line
to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} was not correct:\n{proc.stdout}")
    result.update(workload=workload, seed=seed, trace=trace, wall_s=time.perf_counter() - t0)
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = [], {}
    for s in range(args.sets):
        for w in workloads:
            for seed in args.seeds:
                result = bench_run(w, seed, spec["run_seconds"], 0)
                result["set"] = s
                runs.append(result)
                print(json.dumps(result), flush=True)
            mine = [r for r in runs if r["workload"] == w and r["set"] == s]
            for metric in bounds:
                values = [r["metrics"][metric]["value"] for r in mine]
                summary.setdefault(w, {}).setdefault(metric, []).append(summarise(values))
        # one traced run per workload and set; a second set's run also
        # checks that every count repeats exactly
        for w in workloads:
            result = bench_run(w, args.seeds[0], spec["run_seconds"], 1)
            result["set"] = s
            runs.append(result)
            print(json.dumps(result), flush=True)
    for w, metrics in summary.items():
        for metric, sets in metrics.items():
            line = "  ".join(f"median {x['median']:.4g} spread {x['spread']:.3f}" for x in sets)
            if len(sets) > 1:
                line += f"  second/first {sets[1]['median'] / sets[0]['median']:.3f}"
            print(f"{w:14} {metric:12} {line}  (bound {bounds[metric]})")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
