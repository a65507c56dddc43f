"""Edit distance drivers: the plain quadratic baseline and the accelerated
block sweep over grammar-compressed inputs."""

from __future__ import annotations

import time
from decimal import Decimal

from .dist import Sweep, apply_inputs, build_repository
from .partition import InvariantViolation, partition_string
from .scoring import ScoringFunction, scaled_to_ints
from .slp import Slp, expand, expandable_length, letters


class RunStats:
    """Counters and timings for one accelerated run.

    ``boundary_cells_propagated`` counts the boundary values produced by the
    block sweep (one per output vertex per block); ``sweep_queries`` counts
    the matrix element lookups the sweep's SMAWK passes performed.  Both
    scale as N^2/x while the table-building counters scale as n^2, which is
    the trade the block parameter x tunes.  The sweep builds tables on
    demand (see ``dist.Unbuilt``), so the repository's counters are read
    when it ends.  ``merges`` counts the tables the sweep built by
    merging, and ``merge_queries`` the element lookups those merges
    performed.  A table holds s^2 entries, an 8-byte list slot
    each, since equal values within one merge share one int object.
    ``unbuilt_keys`` counts the keys still records when the sweep ends,
    and ``unbuilt_pairs`` the part pairs among them.  ``table_entries``
    then sums the entries over the distinct tables the repository holds:
    its part pairs' tables, and in place of an unbuilt one the tables its
    record holds, at any depth.  ``peak_table_entries`` is the most that
    distinct tables held at once over the whole run, intermediate
    operands included, the driver of peak memory.
    ``sweep_memo_hits`` counts the blocks the sweep memo answered from a
    record (a record of an unbuilt record's operand is not a block's),
    ``sweep_edges`` the distinct edges the sweep interned (see
    ``dist.Sweep``), and ``sweep_memo_resets`` how often those edges'
    steps and the memo's records reached the entries the part pairs'
    tables would hold, built or not, and both were cleared.  ``elapsed``
    maps each phase to its seconds, and no phase holds another's time:
    ``partition`` (the length and alphabet checks, then both partitions),
    ``repository`` (the direct builds), ``merge`` (the calls of
    ``Repository.build``, all made during the sweep) and ``sweep`` (the
    rest of it: the first row's and column's edges, each distinct part
    variable expanded once, and the blocks).
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
        "peak_table_entries",
        "direct_builds",
        "merges",
        "unbuilt_pairs",
        "unbuilt_keys",
        "boundary_cells_propagated",
        "sweep_queries",
        "sweep_memo_hits",
        "sweep_edges",
        "sweep_memo_resets",
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
    scaled, e = scaled_to_ints(sf, a, b)
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
    tables (the sweep merges the rest of them on demand), then sweeps the
    grid block by block, carrying only the frontier row and the current
    block column.  Neither string is derived whole: lengths and letters
    come from the grammars, and each distinct part variable is expanded
    once, for the steps of its first-row or first-column edge.  Returns
    ``(cost, RunStats)``; the cost is exactly what ``wagner_fischer``
    returns on the expanded strings, for every valid block size, as the
    same printed string.
    """
    stats = RunStats()
    t0 = time.perf_counter()
    # an over-long string is refused before the scoring check, as the
    # baseline's ``expand`` refuses it
    n_a = expandable_length(slp_a, slp_a.root)
    n_b = expandable_length(slp_b, slp_b.root)
    scaled, e = scaled_to_ints(sf, letters(slp_a), letters(slp_b))
    stats.n_chars_a, stats.n_chars_b = n_a, n_b
    stats.n_vars_a, stats.n_vars_b = slp_a.size, slp_b.size
    if block_size is None:
        block_size = default_block_size(n_a + n_b, slp_a.size + slp_b.size)
    stats.block_size = block_size
    # refuses a block size below 2
    part_a = partition_string(slp_a, block_size)
    part_b = partition_string(slp_b, block_size)
    stats.parts_a, stats.parts_b = len(part_a.parts), len(part_b.parts)
    stats.block_count = stats.parts_a * stats.parts_b
    stats.elapsed["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    repo = build_repository(part_a, part_b, scaled)
    stats.memo_size = repo.memo_size
    stats.direct_builds = repo.direct_builds
    merge_s = repo.merge_s
    stats.elapsed["repository"] = time.perf_counter() - t0 - merge_s

    t0 = time.perf_counter()
    # Boundaries travel in difference form (see ``apply_inputs``), as
    # interned edges: each block column keeps the value at its top-left
    # corner and the edge along its top, and the block row keeps the edge up
    # its current left side.  A block's outputs hold its bottom-left value
    # relative to its base and its bottom and right edges, which pass on as
    # they are.  Blocks with the same table and input edges share outputs.
    # The interned edges' steps and the memo's records together may number
    # as many as the part pairs' tables would hold entries, built or not,
    # which keeps the sweep's memory within that of the tables it reads.
    sweep = Sweep(sum(v.s * v.s for v in repo.memo.values()), repo)
    vars_b = [pb.var for pb in part_b.parts]
    # the first row's steps, per distinct column part variable
    top_steps = {
        vb: tuple([scaled.insert[c] for c in expand(part_b.slp, vb)])
        for vb in dict.fromkeys(vars_b)
    }
    corners, tops = [], []
    for vb in vars_b:
        corners.append(corners[-1] + tops[-1].total if tops else 0)
        tops.append(sweep.intern(top_steps[vb]))
    # per distinct row part variable: the first column's steps, bottom to
    # top (input order), and the row's tables (a record built in place
    # stays its key's value)
    rows = {}
    bottom = 0  # the grid's value at the current row's top-left corner
    for pa in part_a.parts:
        row = rows.get(pa.var)
        if row is None:
            text = expand(part_a.slp, pa.var)
            row = rows[pa.var] = (
                tuple([-scaled.delete[c] for c in reversed(text)]),
                [repo.lookup(pa.var, vb) for vb in vars_b],
            )
        left_steps, tables = row
        left = sweep.intern(left_steps)
        base = bottom = bottom - left.total
        for k, table in enumerate(tables):
            if base + left.total != corners[k]:
                raise InvariantViolation("frontier and left edge disagree at a corner")
            out = apply_inputs(table, base, left, tops[k], sweep)
            corners[k] = base = base + out.first
            tops[k] = top = out.bottom
            left = out.right
            base += top.total
    # every block outputs h + w + 1 boundary values
    stats.boundary_cells_propagated = (
        stats.parts_b * (n_a + stats.parts_a) + stats.parts_a * n_b
    )
    stats.sweep_queries, stats.sweep_memo_hits = sweep.queries[0], sweep.hits
    stats.sweep_edges, stats.sweep_memo_resets = sweep.interned, sweep.resets
    # the sweep builds records on demand, so the repository's counters are
    # read once it is done
    stats.table_entries = repo.table_entries
    stats.peak_table_entries = repo.peak_table_entries
    stats.merges = repo.merges
    stats.unbuilt_pairs = repo.unbuilt_pairs
    stats.unbuilt_keys = repo.unbuilt_keys
    stats.merge_queries = repo.merge_queries
    stats.elapsed["merge"] = repo.merge_s
    stats.elapsed["sweep"] = time.perf_counter() - t0 - (repo.merge_s - merge_s)
    return _unscaled(corners[-1] + tops[-1].total, sf, scaled, e), stats
