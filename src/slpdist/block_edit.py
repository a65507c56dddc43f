"""Edit distance drivers: the plain quadratic baseline and the accelerated
block sweep over grammar-compressed inputs."""

from __future__ import annotations

import time
from decimal import Decimal

from .dist import apply_inputs, build_repository
from .partition import InvariantViolation, partition_string
from .scoring import ScoringError, ScoringFunction, scaled_to_ints
from .slp import Slp, expand


class RunStats:
    """Counters and timings for one accelerated run.

    ``boundary_cells_propagated`` counts the boundary values produced by the
    block sweep (one per output vertex per block); ``sweep_queries`` counts
    the matrix element lookups the sweep's SMAWK passes performed.  Both
    scale as N^2/x while the table-building counters scale as n^2, which is
    the trade the block parameter x tunes; ``merge_queries`` counts the
    element lookups the repository's merges performed.  ``table_entries``
    is the sum of s^2 over the distinct tables the repository holds, the
    driver of peak memory: an 8-byte list slot each, since equal values
    within one merge share one int object.  ``elapsed`` maps each phase to
    its seconds.
    """

    COUNTERS = (
        "n_chars_a",
        "n_chars_b",
        "n_vars_a",
        "n_vars_b",
        "block_size",
        "parts_a",
        "parts_b",
        "block_count",
        "memo_size",
        "table_entries",
        "direct_builds",
        "merges",
        "boundary_cells_propagated",
        "sweep_queries",
        "sweep_memo_hits",
        "merge_queries",
    )
    __slots__ = COUNTERS + ("elapsed",)

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.elapsed = {}

    def as_record(self) -> list:
        """Flat key=value lines, one per counter, in ``COUNTERS`` order."""
        lines = [f"{name}={getattr(self, name)}" for name in self.COUNTERS]
        for phase, seconds in self.elapsed.items():
            lines.append(f"elapsed_{phase}={seconds:.6f}")
        return lines


def _unscaled(cost: int, sf, scaled, e):
    """The int result of a run on ``scaled_to_ints(sf) == (scaled, e)`` in
    the number type of ``sf``: as it is for an int table, else the Decimal
    with exponent e (built from a string, so no context rounds it)."""
    return cost if scaled is sf else Decimal(f"{cost}E{e}")


def wagner_fischer(a: str, b: str, sf: ScoringFunction):
    """Textbook edit-distance dynamic program, O(|a| * |b|) time and
    O(min(|a|, |b|)) extra space.  The correctness oracle for everything
    else in this package."""
    missing = sf.missing_chars(a) | sf.missing_chars(b)
    if missing:
        raise ScoringError(f"characters outside the scoring alphabet: {sorted(missing)!r}")
    scaled, e = scaled_to_ints(sf)
    ins, dele, sub = scaled.insert, scaled.delete, scaled.substitute
    if len(b) > len(a):
        # transpose the problem so the rolling row is the short side
        a, b = b, a
        ins, dele = dele, ins
        sub = {(y, x): c for (x, y), c in sub.items()}
    prev = [0] * (len(b) + 1)
    for j, cb in enumerate(b, start=1):
        prev[j] = prev[j - 1] + ins[cb]
    cur = [0] * (len(b) + 1)
    for ca in a:
        cur[0] = prev[0] + dele[ca]
        dc = dele[ca]
        for j, cb in enumerate(b, start=1):
            best = prev[j - 1] + sub[ca, cb]
            v = prev[j] + dc
            if v < best:
                best = v
            v = cur[j - 1] + ins[cb]
            if v < best:
                best = v
            cur[j] = best
        prev, cur = cur, prev
    return _unscaled(prev[-1], sf, scaled, e)


def default_block_size(total_chars: int, total_vars: int) -> int:
    """x = (N/n)^(2/3), clamped to [2, N]: balances the n^2 x^2 table work
    against the N^2/x sweep work."""
    x = round((total_chars / total_vars) ** (2.0 / 3.0))
    return max(2, min(x, total_chars))


def block_edit_distance(
    slp_a: Slp, slp_b: Slp, sf: ScoringFunction, block_size: int | None = None
):
    """Edit distance between the strings two grammars derive.

    Partitions both strings, builds the repository of boundary distance
    tables, then sweeps the grid block by block, carrying only the frontier
    row and the current block column.  Returns ``(cost, RunStats)``; the
    cost is exactly what ``wagner_fischer`` returns on the expanded
    strings, for every valid block size, as the same printed string.
    """
    scaled, e = scaled_to_ints(sf)
    stats = RunStats()
    t0 = time.perf_counter()
    text_a = expand(slp_a)
    text_b = expand(slp_b)
    missing = sf.missing_chars(text_a) | sf.missing_chars(text_b)
    if missing:
        raise ScoringError(f"characters outside the scoring alphabet: {sorted(missing)!r}")
    stats.n_chars_a, stats.n_chars_b = len(text_a), len(text_b)
    stats.n_vars_a, stats.n_vars_b = slp_a.size, slp_b.size
    if block_size is None:
        block_size = default_block_size(
            len(text_a) + len(text_b), slp_a.size + slp_b.size
        )
    elif block_size < 2:
        raise ValueError("block size must be >= 2")
    stats.block_size = block_size
    stats.elapsed["expand"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    part_a = partition_string(slp_a, block_size, text_a)
    part_b = partition_string(slp_b, block_size, text_b)
    stats.parts_a, stats.parts_b = len(part_a.parts), len(part_b.parts)
    stats.block_count = stats.parts_a * stats.parts_b
    stats.elapsed["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    repo = build_repository(slp_a, slp_b, part_a, part_b, scaled)
    stats.memo_size = repo.memo_size
    stats.table_entries = repo.table_entries
    stats.direct_builds = repo.direct_builds
    stats.merges = repo.merges
    stats.merge_queries = repo.merge_queries
    stats.elapsed["repository"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # base-case values along the grid's first column and row
    del_prefix = [0] * (len(text_a) + 1)
    for i, c in enumerate(text_a, start=1):
        del_prefix[i] = del_prefix[i - 1] + scaled.delete[c]
    frontier = [0] * (len(text_b) + 1)
    for j, c in enumerate(text_b, start=1):
        frontier[j] = frontier[j - 1] + scaled.insert[c]
    # blocks with the same table and input shape share outputs up to a
    # shift (see ``apply_inputs``)
    memo = {}
    counter = [0, 0]  # kernel queries, memo hits
    cells = 0
    r0 = 0
    for pa in part_a.parts:
        h = pa.length
        r1 = r0 + h
        # values on the block row's left edge, bottom to top (input order)
        left = [del_prefix[r1 - t] for t in range(h + 1)]
        new_frontier = [0] * (len(text_b) + 1)
        new_frontier[0] = del_prefix[r1]
        c0 = 0
        for pb in part_b.parts:
            w = pb.length
            c1 = c0 + w
            if frontier[c0] != left[-1]:
                raise InvariantViolation("frontier and left edge disagree at a corner")
            table = repo.lookup((pa.var, pa.kind), (pb.var, pb.kind))
            inputs = left + frontier[c0 + 1 : c1 + 1]
            outputs = apply_inputs(table, inputs, counter, repo.ceiling, memo)
            cells += len(outputs)
            new_frontier[c0 : c1 + 1] = outputs[: w + 1]
            left = outputs[w:]
            c0 = c1
        frontier = new_frontier
        r0 = r1
    stats.boundary_cells_propagated = cells
    stats.sweep_queries, stats.sweep_memo_hits = counter
    stats.elapsed["sweep"] = time.perf_counter() - t0
    return _unscaled(frontier[-1], sf, scaled, e), stats
