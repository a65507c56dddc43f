"""The traced run: per-layer metrics from in-process ``slpdist.cli.main``
calls with every layer boundary wrapped in a span.

Traced and untraced calls alternate until the run's time is up.  The
untraced calls write a ``--stats`` file, and the traced counts must equal
its counters; they must also repeat exactly between calls and between runs
of the same seed, because a count that moves is a bug, not noise.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

from slpdist import cli

from common import WORK, BenchError, read_json, reference, setup, source_digest, write_json
from tracing import Recorder, check_against_stats, coverage, layer_metrics, self_times

# per-layer metrics, as named in BENCHMARK.json.  Unit "s" is a time; the
# other metrics of one call are counts or ratios of counts, which must
# repeat exactly.  The last two are ratios of times.
UNITS = {
    "monge.minplus_row_s.sweep": "s",
    "monge.minplus_row_calls.sweep": "count",
    "monge.queries.sweep": "count",
    "monge.minplus_row_s.merge": "s",
    "monge.minplus_row_calls.merge": "count",
    "monge.queries.merge": "count",
    "monge.substitute_s": "s",
    "monge.queries_per_entry": "ratio",
    "dist.merge_s": "s",
    "dist.merge_calls": "count",
    "dist.build_repository_s": "s",
    "dist.build_direct_s": "s",
    "dist.build_direct_calls": "count",
    "dist.tables": "count",
    "dist.table_entries": "count",
    "dist.blocks_per_table": "ratio",
    "dist.tables_used_ratio": "ratio",
    "dist.apply_inputs_s": "s",
    "dist.apply_inputs_calls": "count",
    "block_edit.distance_s": "s",
    "block_edit.sweep_s": "s",
    "block_edit.sweep_self_s": "s",
    "block_edit.boundary_cells": "count",
    "block_edit.wagner_fischer_s": "s",
    "block_edit.speedup_vs_wf": "ratio",
    "partition.partition_s": "s",
    "partition.block_size": "count",
    "partition.parts": "count",
    "partition.blocks": "count",
    "slp.grammar_vars": "count",
    "slp.compress_s": "s",
    "slp.expand_s": "s",
    "slp.expand_calls": "count",
    "cli.parse_slp_s": "s",
    "bench.tracing_overhead": "ratio",
}
# documented SMAWK bound: element queries <= 4 * (rows + cols) per call
QUERIES_PER_ENTRY_BOUND = 4
# the wrapped layers must hold at least this share of a traced call's time
MIN_COVERAGE = 0.9
MIN_PAIRS = 2


def call_cli(argv, workdir):
    """In-process ``slpdist.cli.main``: (seconds, exit code, stdout)."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return elapsed, code, out.getvalue()


def read_stats(path):
    stats = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        stats[key] = value
    return stats


def traced_run(workload, seed, seconds):
    workdir = WORK / "trace" / workload.name
    inputs, _ = setup(workload, seed, workdir)
    expected, wf_s = reference(inputs, fresh=True)
    compress_s = workload.front_end(workdir)
    argv = ["distance"] + inputs.args
    stats_path = workdir / "stats.txt"
    spans_path = WORK / "trace" / f"{workload.name}.spans.tsv"
    spans_path.unlink(missing_ok=True)

    problems = []
    failed = 0
    plain, traced, block_s, layers, pairs, covered = [], [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or (
        time.perf_counter() - start + statistics.median(pairs) <= seconds
    ):
        pair_start = time.perf_counter()
        elapsed, code, out = call_cli(argv + ["--stats", str(stats_path)], workdir)
        if code != 0:
            # no stats and no spans to check against
            raise BenchError(f"in-process slpdist distance exited {code}")
        if out.strip() != expected:
            failed += 1
        plain.append(elapsed)
        stats = read_stats(stats_path)
        block_s.append(sum(float(v) for k, v in stats.items() if k.startswith("elapsed_")))

        recorder = Recorder(run=len(traced))
        with recorder.patched():
            elapsed, code, out = call_cli(argv, workdir)
        if code != 0 or out.strip() != expected:
            failed += 1
        traced.append(elapsed)
        report = self_times(recorder.spans)
        covered.append(coverage(recorder.spans, elapsed))
        metrics = layer_metrics(recorder.spans)
        problems += check_against_stats(metrics, stats)
        layers.append(metrics)
        recorder.write(spans_path)
        pairs.append(time.perf_counter() - pair_start)

    counts = {k: v for k, v in layers[0].items() if UNITS[k] != "s"}
    for other in layers[1:]:
        moved = {k for k in counts if other[k] != counts[k]}
        if moved:
            problems.append(f"counts differ between calls: {sorted(moved)}")
    counts_path = WORK / "counts" / f"{workload.name}-{seed}-{source_digest()}.json"
    before = read_json(counts_path)
    if before is None:
        write_json(counts_path, counts)
    else:
        moved = {k for k in counts if before.get(k) != counts[k]}
        if moved:
            problems.append(f"counts differ from an earlier run of seed {seed}: {sorted(moved)}")
    if counts["monge.queries_per_entry"] > QUERIES_PER_ENTRY_BOUND:
        problems.append("SMAWK queries exceed 4 per matrix row and column")
    if min(covered) < MIN_COVERAGE:
        problems.append(
            f"the wrapped layers cover only {min(covered):.1%} of a traced call's wall time"
        )

    metrics = {
        k: (statistics.median(m[k] for m in layers) if UNITS[k] == "s" else counts[k])
        for k in layers[0]
    }
    metrics["block_edit.wagner_fischer_s"] = wf_s
    metrics["block_edit.speedup_vs_wf"] = wf_s / statistics.median(block_s)
    metrics["slp.compress_s"] = compress_s
    # adjacent calls share the machine's speed of the moment, so the ratio
    # is taken per pair
    metrics["bench.tracing_overhead"] = statistics.median(
        t / p for t, p in zip(traced, plain)
    )

    print(f"{workload.name} seed {seed}: {len(traced)} traced and {len(plain)} untraced calls")
    print("share of traced wall time inside wrapped layers: "
          + " ".join(f"{c:.4f}" for c in covered))
    print("self time of the last traced call:")
    print(f"{'span':34} {'calls':>8} {'total_s':>9} {'self_s':>9}")
    for name, (calls, total, own) in sorted(report.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34} {calls:8d} {total:9.4f} {own:9.4f}")
    return {k: metrics[k] for k in UNITS}, UNITS, len(plain) + len(traced), failed, problems
