"""Span recorder for the traced run.

The package's modules import the functions they call by name, so each
binding is replaced where it is used, for the length of one in-process
``slpdist.cli.main`` call, and restored afterwards.  Nothing in the package
is edited.  A span is ``[name, start, end, parent, run, counts]``; spans stay
in memory and are written out when the traced call ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from slpdist import block_edit, cli, dist, slp

from common import BenchError

# (module or class, attribute, span name).  Span names say which module
# owns the code, not where the binding lives.
PATCHES = [
    (cli, "parse_slp", "cli.parse_slp"),
    (slp, "expand", "slp.expand"),
    (block_edit, "block_edit_distance", "block_edit.block_edit_distance"),
    (block_edit, "expand", "slp.expand"),
    (block_edit, "partition_string", "partition.partition_string"),
    (block_edit, "build_repository", "dist.build_repository"),
    (block_edit, "apply_inputs", "dist.apply_inputs"),
    (dist, "minplus_row", "monge.minplus_row"),
    (dist, "substitute_infinities", "monge.substitute_infinities"),
    (dist, "merge_horizontal", "dist.merge_horizontal"),
    (dist, "merge_vertical", "dist.merge_vertical"),
    (dist, "build_direct", "dist.build_direct"),
    # per-variable expansions for direct builds, inside the repository
    (dist, "expand", "dist.expand"),
    (dist.Repository, "lookup", "dist.lookup"),
]

NAME, START, END, PARENT, RUN, COUNTS = range(6)
MERGES = ("dist.merge_horizontal", "dist.merge_vertical")


class Recorder:
    def __init__(self, run=0):
        self.spans = []
        self.stack = []
        self.run = run

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, counts=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNTS] = counts
        self.stack.pop()

    def wrap(self, name, fn):
        if name == "monge.minplus_row":
            return self._wrap_kernel(fn)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, _counts(name, args, result))
            return result

        return traced

    def _wrap_kernel(self, fn):
        # the program counts queries only in the sweep; a merge's kernel
        # calls get a counter of their own here
        def traced(u, rows, jlo, jhi, counter=None):
            if counter is None:
                counter = [0]
            before = counter[0]
            idx = self.open("monge.minplus_row")
            try:
                result = fn(u, rows, jlo, jhi, counter)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, (counter[0] - before, len(u) + max(jhi - jlo, 0)))
            return result

        return traced

    @contextmanager
    def patched(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path):
        """Append the spans as tab-separated lines, header first."""
        new = not path.exists()
        with open(path, "a", encoding="utf-8") as fh:
            if new:
                fh.write("run\tid\tparent\tname\tstart\tend\n")
            for idx, s in enumerate(self.spans):
                fh.write(f"{s[RUN]}\t{idx}\t{s[PARENT]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\n")


def _counts(name, args, result):
    """What a layer hands back, kept for the counters: the partition, the
    repository's tables, a lookup's key and the boundary cells produced."""
    if name == "partition.partition_string":
        return (len(result.parts), result.block_size)
    if name == "dist.build_repository":
        tables = {id(t): t.s for t in result.memo.values()}
        return (len(result.memo), sum(s * s for s in tables.values()))
    if name == "dist.lookup":
        return (args[1], args[2])
    if name == "dist.apply_inputs":
        return len(result)
    if name == "cli.parse_slp":
        return result.size
    return None


class TraceError(BenchError):
    """The spans do not account for the traced call: it did not run the
    layers it should, or a kernel call sits outside a merge or the sweep."""


def self_times(spans):
    """Per span name: (calls, total seconds, self seconds), where self time is
    a span's duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    report = {}
    for idx, s in enumerate(spans):
        calls, total, own = report.get(s[NAME], (0, 0.0, 0.0))
        dur = s[END] - s[START]
        report[s[NAME]] = (calls + 1, total + dur, own + dur - child[idx])
    return report


def layer_metrics(spans):
    """Per-layer times and counts of one traced ``distance`` call."""
    m = {
        "monge.minplus_row_s.sweep": 0.0,
        "monge.minplus_row_calls.sweep": 0,
        "monge.queries.sweep": 0,
        "monge.minplus_row_s.merge": 0.0,
        "monge.minplus_row_calls.merge": 0,
        "monge.queries.merge": 0,
        "monge.substitute_s": 0.0,
        "dist.merge_s": 0.0,
        "dist.merge_calls": 0,
        "dist.build_repository_s": 0.0,
        "dist.build_direct_s": 0.0,
        "dist.build_direct_calls": 0,
        "dist.apply_inputs_s": 0.0,
        "dist.apply_inputs_calls": 0,
        "block_edit.boundary_cells": 0,
        "partition.partition_s": 0.0,
        "partition.parts": 0,
        "slp.expand_s": 0.0,
        "slp.expand_calls": 0,
        "cli.parse_slp_s": 0.0,
        "slp.grammar_vars": 0,
    }
    entries = 0
    parts = []
    looked_up = set()
    distance = repository = None
    for s in spans:
        name, dur, counts = s[NAME], s[END] - s[START], s[COUNTS]
        if name == "monge.minplus_row":
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if parent == "dist.apply_inputs":
                side = "sweep"
            elif parent in MERGES:
                side = "merge"
            else:
                raise TraceError(f"kernel call under {parent}")
            m[f"monge.minplus_row_s.{side}"] += dur
            m[f"monge.minplus_row_calls.{side}"] += 1
            m[f"monge.queries.{side}"] += counts[0]
            entries += counts[1]
        elif name == "monge.substitute_infinities":
            m["monge.substitute_s"] += dur
        elif name in MERGES:
            m["dist.merge_s"] += dur
            m["dist.merge_calls"] += 1
        elif name == "dist.build_direct":
            m["dist.build_direct_s"] += dur
            m["dist.build_direct_calls"] += 1
        elif name == "dist.apply_inputs":
            m["dist.apply_inputs_s"] += dur
            m["dist.apply_inputs_calls"] += 1
            m["block_edit.boundary_cells"] += counts
        elif name == "dist.lookup":
            looked_up.add(counts)
        elif name == "dist.build_repository":
            m["dist.build_repository_s"] += dur
            repository = (s, counts)
        elif name == "partition.partition_string":
            m["partition.partition_s"] += dur
            parts.append(counts)
        elif name == "slp.expand":
            m["slp.expand_s"] += dur
            m["slp.expand_calls"] += 1
        elif name == "cli.parse_slp":
            m["cli.parse_slp_s"] += dur
            m["slp.grammar_vars"] += counts
        elif name == "block_edit.block_edit_distance":
            distance = s
    if distance is None or repository is None or len(parts) != 2:
        raise TraceError("the traced call did not run the block algorithm once")
    (repo_span, (tables, table_entries)) = repository
    m["partition.parts"] = parts[0][0] + parts[1][0]
    m["partition.block_size"] = parts[0][1]
    m["partition.blocks"] = parts[0][0] * parts[1][0]
    m["dist.tables"] = tables
    m["dist.table_entries"] = table_entries
    m["dist.blocks_per_table"] = m["partition.blocks"] / tables
    m["dist.tables_used_ratio"] = len(looked_up) / tables
    m["monge.queries_per_entry"] = (
        m["monge.queries.sweep"] + m["monge.queries.merge"]
    ) / entries
    m["block_edit.distance_s"] = distance[END] - distance[START]
    # everything block_edit_distance does after the repository is built
    m["block_edit.sweep_s"] = distance[END] - repo_span[END]
    m["block_edit.sweep_self_s"] = m["block_edit.sweep_s"] - m["monge.minplus_row_s.sweep"]
    return m


def coverage(spans, wall):
    """Share of a traced call's wall time spent inside the wrapped layers:
    the outermost spans' durations over the call's own time.  A low share
    means work moved into code no wrapper sees."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0) / wall


# RunStats field each traced count must equal
STATS_CHECKS = {
    "dist.apply_inputs_calls": "block_count",
    "partition.blocks": "block_count",
    "dist.merge_calls": "merges",
    "dist.build_direct_calls": "direct_builds",
    "block_edit.boundary_cells": "boundary_cells_propagated",
    "monge.queries.sweep": "sweep_queries",
    "dist.tables": "memo_size",
    "partition.block_size": "block_size",
}


def check_against_stats(metrics, stats):
    """Disagreements between traced counts and the program's counters."""
    return [
        f"traced {metric} = {metrics[metric]} but --stats {field} = {stats[field]}"
        for metric, field in STATS_CHECKS.items()
        if metrics[metric] != int(stats[field])
    ]
