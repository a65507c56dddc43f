"""Boundary-to-boundary distance tables for grid blocks, and the memoized
repository that builds one table per distinct substring pair.

A block of the edit-distance grid spans h characters of A (rows) and w
characters of B (columns).  Its boundary has s = h + w + 1 input vertices
(first column bottom-to-top, then first row left-to-right) and s output
vertices (last row left-to-right, then last column bottom-to-top); both
orders start at the bottom-left corner and end at the top-right corner, so
input 0 coincides with output 0 and input s-1 with output s-1.

``table.rows[i][j]`` holds the cheapest monotone (down/right) path weight
from input i to output j, at most the table's ``ceiling``, or a stand-in
above it when no such path exists.  These matrices are Monge on their
reachable entries, which is what lets two tables sharing a boundary be
merged with SMAWK in O(s^2) instead of rebuilt in O(s^3).  A monotone path
only goes down or right, so each merge row hands the kernel just the
shared vertices and outputs its input can reach: a contiguous block of a
totally monotone matrix, which leaves out only rows that cannot win.  Of
those vertices it also drops each one that its input reaches as cheaply
through its left neighbour and one step along the shared row: that path
is never worse, for any output, so the rows left out still cannot win,
and what remains is still totally monotone.

All tables of one grid share one ceiling, picked once by the grid's owner:
a bound on every path weight in the grid and on every boundary value the
sweep carries.  ``build_direct`` is given it; the merges and
``apply_inputs`` read it off their tables.  Each refuses, with
``ValueError``, what that ceiling cannot hold.

``apply_inputs`` pushes boundary values through one block, in difference
form: the value at vertex 0, then each value minus the one before it.  A
constant added to every input moves only element 0 of the outputs, so each
other element depends only on the table and the input steps.  The steps
travel as interned ``Edge`` objects, so a block the sweep has seen before
costs one dict lookup by identity, and its bottom and right edges pass on
as they are.

The repository builds only the direct tables before the sweep.  Every
merge key starts as an ``Unbuilt`` record of its two operands, and
``apply_inputs`` pushes its blocks through the operands, each through the
sweep memo.  An operand may be unbuilt in turn, so records nest.  That is
exact because a merged table is by definition the composition of its
operands.  One loop drives the pushes over an explicit stack, so records
nest to any depth.  The sweep builds a record on demand, at the miss
where what its misses filled beyond what its table would have first
reaches what its merge would fill (rent or buy, see ``Unbuilt``); that
build is the only route to a merged table.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import accumulate, chain, compress
from operator import ne, sub

from .monge import SCAN_CELLS, fill_stand_ins, minplus_row
from .monge import substitute_infinities  # noqa: F401 - bench/tracing.py patches it here
from .partition import InvariantViolation
from .scoring import max_cost
from .slp import Slp, expand


class DistTable:
    """The boundary distance table of the block (a, b), stored once.

    ``rows`` is the s x s matrix the min-plus kernel reads, finite
    throughout: reachable entries are exact path weights, at most
    ``ceiling``, and unreachable ones are stand-ins above it (see
    ``fill_stand_ins``), shared objects from one ladder per table.  The
    constructor takes rows that hold some value above ``ceiling`` wherever
    no path exists, and puts the stand-ins there in place.
    """

    __slots__ = ("a", "b", "rows", "ceiling")

    def __init__(self, a: str, b: str, rows: list, ceiling):
        self.a = a  # substring of A spanned by the block's rows
        self.b = b  # substring of B spanned by the block's columns
        self.ceiling = ceiling
        self.rows = fill_stand_ins(rows, ceiling)

    @property
    def h(self) -> int:
        return len(self.a)

    @property
    def w(self) -> int:
        return len(self.b)

    @property
    def s(self) -> int:
        return len(self.a) + len(self.b) + 1


def input_position(h: int, w: int, k: int):
    """Grid coordinates (row, col) of input vertex k, 0-based."""
    return (h - k, 0) if k <= h else (0, k - h)


def output_position(h: int, w: int, k: int):
    return (h, k) if k <= w else (h - (k - w), w)


def build_direct(a: str, b: str, sf, ceiling) -> DistTable:
    """Table by direct dynamic programming: one sweep of the block per input
    vertex, O(s^3) overall.  Base-case builder for terminal blocks and the
    correctness oracle every merge is tested against.  ``sf`` is a table
    the scoring prologue (``scoring.scaled_to_ints``) accepted for a and b,
    so every cost the block reads is there.  The table is stored against
    the grid's ``ceiling`` (see ``DistTable``), which must be at least
    ``(h + w)`` times the largest cost the block reads, a bound on every
    path in the block: a monotone path takes at most h + w steps, and each
    step costs a deletion of a character of a, an insertion of one of b or
    a substitution between the two.  Costs of other characters are
    never read, so no build scans the whole table."""
    h, w = len(a), len(b)
    s = h + w + 1
    delete_costs = [None] + [sf.delete[c] for c in a]
    insert_costs = [None] + [sf.insert[c] for c in b]
    sub_rows = [None] + [[None] + [sf.substitute[ca, cb] for cb in b] for ca in a]
    read = chain(delete_costs[1:], insert_costs[1:], *(row[1:] for row in sub_rows[1:]))
    bound = (h + w) * max(read, default=0)
    if ceiling < bound:
        raise ValueError(f"ceiling {ceiling} is below {bound}, the path bound of a {h}x{w} block")
    outputs = [output_position(h, w, j) for j in range(s)]
    rows = []
    for k in range(s):
        r0, c0 = input_position(h, w, k)
        # cheapest monotone path weight from (r0, c0) to every grid vertex;
        # exactly the quadrant below and right of the source is reachable
        dist = [[ceiling + 1] * (w + 1) for _ in range(h + 1)]
        row = dist[r0]
        row[c0] = 0
        for c in range(c0 + 1, w + 1):
            row[c] = row[c - 1] + insert_costs[c]
        for r in range(r0 + 1, h + 1):
            above = row
            row = dist[r]
            dcost = delete_costs[r]
            subs = sub_rows[r]
            left = row[c0] = above[c0] + dcost
            for c in range(c0 + 1, w + 1):
                best = above[c] + dcost
                v = left + insert_costs[c]
                if v < best:
                    best = v
                v = above[c - 1] + subs[c]
                if v < best:
                    best = v
                row[c] = left = best
        rows.append([dist[r][c] for r, c in outputs])
    return DistTable(a, b, rows, ceiling)


def _mirrored(d: DistTable) -> DistTable:
    """The table of (b, a) read off the table of (a, b): input k becomes
    input s - 1 - k and output j becomes output s - 1 - j.

    Sound because transposing the block maps each boundary onto the other
    in reverse order and each monotone path onto a monotone path: the
    result is the table of (b, a) under the same costs with DEL and INS
    swapped and SUB transposed.  The merges never read costs, so they may
    work on mirrored tables and mirror the result back.

    The constructor is skipped: mirrored, d's stand-ins are already the
    ones ``fill_stand_ins`` would put there, as a stand-in depends only on
    its distance from its row's reachable range.  Filling them again, three
    times per horizontal merge, made the ``fib-repo`` benchmark about 6%
    slower (``BENCH_15.json``).
    """
    mirror = DistTable.__new__(DistTable)
    mirror.a, mirror.b, mirror.ceiling = d.b, d.a, d.ceiling
    mirror.rows = [row[::-1] for row in reversed(d.rows)]
    return mirror


def merge_horizontal(d1: DistTable, d2: DistTable, counter=None) -> DistTable:
    """Table of the side-by-side block (a, b1 + b2) from the tables of
    (a, b1) and (a, b2): the mirror of the vertical merge of (b1, a) over
    (b2, a), which shares what ``merge_vertical`` says of the ceiling, the
    refusals, the counter and the shared values."""
    if d1.a != d2.a:
        raise ValueError("horizontal merge needs a common row substring")
    return _mirrored(_merge_vertical(_mirrored(d1), _mirrored(d2), counter))


def merge_vertical(d1: DistTable, d2: DistTable, counter=None) -> DistTable:
    """Table of the stacked block (a1 + a2, b) from the tables of (a1, b)
    and (a2, b); d1 is the upper block (earlier characters of A are
    earlier grid rows).

    Entries whose paths stay inside one sub-block are copies; paths that
    cross the shared row are the min-plus product of d1's rows on that
    boundary with d2's rows, one kernel pass per d1 input over only what
    that input can reach.  d1's top-row input at column c reaches only the
    shared vertices c..w and, through them, d2's outputs from column c on;
    left-column inputs reach everything.  Total cost O(s^2).

    A shared vertex t > c whose value equals that of t - 1 plus the step
    from t - 1 to t along the shared row is dropped as well: by the
    triangle inequality in d2, going through t - 1 and then along d2's top
    row to t is never worse than going through t, for every output.  The
    steps are read off d1's row of input 0, the bottom-left corner, which
    holds their sums, so the merge reads no costs.  A row small enough
    for the kernel to scan (``SCAN_CELLS``) keeps every reachable vertex,
    as checking would cost more than it saves.

    Both operands must be stored against the same ceiling, the grid's, and
    the result is stored against it too; a merge that computes a path
    weight above it raises ``ValueError``.  ``counter[0]``, when given,
    accumulates the kernel's element queries.  Copied entries share the
    operands' objects, and the values the kernel returns pass through one
    dict per call, so the result holds one int object per distinct path
    weight it computed.
    """
    if d1.b != d2.b:
        raise ValueError("vertical merge needs a common column substring")
    ceiling = d1.ceiling
    if d2.ceiling != ceiling:
        raise ValueError(f"tables stored against ceilings {ceiling} and {d2.ceiling}")
    w = d1.w
    h1 = d1.h
    h2 = d2.h
    s1, s2 = d1.s, d2.s
    s = h1 + h2 + w + 1
    m1, m2 = d1.rows, d2.rows
    m2_shifted = m2[h2:]
    # d1's input 0 is its bottom-left corner, so its row holds the sums of
    # the steps along the shared row: steps[t - 1] is the step into vertex t
    steps = list(map(sub, m1[0][1 : w + 1], m1[0][:w]))
    # no path from d2's lower inputs reaches d1's outputs
    unreachable = [ceiling + 1] * (s - s2)
    out = [m2[i] + unreachable for i in range(h2)]
    out.append(m2[h2] + m1[0][s2 - h2 :])
    values = {}  # one object per distinct computed path weight
    for k in range(1, s1):
        row1 = m1[k]
        c = max(k - h1, 0)
        # a top-row input at column c reaches no output left of column c
        row_out = [ceiling + 1] * c
        u, rows = row1[c : w + 1], m2_shifted[c:]
        if len(u) * (s2 - c) > SCAN_CELLS:
            # drop each vertex t > c that ties t - 1 plus one step
            keep = [True, *map(ne, map(sub, u[1:], u), steps[c:])]
            u, rows = list(compress(u, keep)), list(compress(rows, keep))
        res = minplus_row(u, rows, c, s2, counter)
        row_out.extend(map(values.setdefault, res, res))
        row_out.extend(row1[s2 - h2 :])
        out.append(row_out)
    if max(values, default=0) > ceiling:
        raise ValueError(f"a merged path weight exceeds the ceiling {ceiling}")
    return DistTable(d1.a + d2.a, d1.b, out, ceiling)


# bound once, so that patching ``merge_vertical`` (bench/tracing.py does)
# never nests one merge inside another
_merge_vertical = merge_vertical


class Edge:
    """The steps along one block edge and their sum.  The sweep interns its
    edges (``Sweep``), so equal steps share one Edge, and an Edge hashes
    and compares by identity, in O(1)."""

    __slots__ = ("steps", "total")

    def __init__(self, steps: tuple):
        self.steps = steps
        self.total = sum(steps)


class Sweep:
    """One block sweep's state: the repository ``repo`` whose records it
    builds on demand, its ``memo`` of block outputs (``apply_inputs``) and
    its intern ``table``, one ``Edge`` per distinct step tuple.

    The memo and the table are charged together against ``budget``: one
    unit per step of an edge the table holds and one per memo record.  A
    charge that would take ``held`` past the budget first clears both and
    counts one reset; edges the caller still holds stay exact, only no
    longer shared.  ``interned`` counts the edges made, over all resets,
    ``queries[0]`` the kernel's element queries and ``hits`` the blocks
    the memo answered.
    """

    __slots__ = ("repo", "memo", "table", "budget", "held", "resets", "interned", "queries", "hits")

    def __init__(self, budget: int, repo: Repository | None):
        self.repo = repo
        self.memo = {}
        self.table = {}
        self.budget = budget
        self.held = self.resets = self.interned = self.hits = 0
        self.queries = [0]  # a list, as ``minplus_row`` adds to element 0

    def charge(self, units: int) -> None:
        if self.held + units > self.budget:
            self.memo.clear()
            self.table.clear()
            self.held = 0
            self.resets += 1
        self.held += units

    def intern(self, steps: tuple) -> Edge:
        edge = self.table.get(steps)
        if edge is None:
            self.charge(len(steps))
            edge = self.table[steps] = Edge(steps)
            self.interned += 1
        return edge


class Outputs:
    """A block's outputs relative to the value at its input vertex 0:
    ``first`` at output 0, the edges ``bottom`` (along the last row) and
    ``right`` (up the last column), and ``peak``, the largest output.  Its
    length is the table's s, and it iterates over the s outputs in
    difference form: ``first``, then the steps of both edges."""

    __slots__ = ("first", "bottom", "right", "peak")

    def __init__(self, first, bottom: Edge, right: Edge, peak):
        self.first = first
        self.bottom = bottom
        self.right = right
        self.peak = peak

    def __len__(self) -> int:
        return 1 + len(self.bottom.steps) + len(self.right.steps)

    def __iter__(self):
        return chain((self.first,), self.bottom.steps, self.right.steps)


class Unbuilt:
    """A merge key's record (see ``build_repository``): the ``key`` it
    stands for, the merge ``op`` it would be, its operands ``d1`` (upper
    or left) and ``d2``, each a built table or itself a record, and the h,
    w, s and ceiling of its table.  While ``table`` is None the record is
    unbuilt, and ``apply_inputs`` pushes a block through the two operands,
    which is exact because the merged table is by definition their
    composition.

    The record rents until buying pays (Karlin et al., "Competitive snoopy
    caching", 1988).  Its ``price`` is the kernel entries its merge would
    fill, ``(s1 - 1) * (shared + s2)``, ``shared`` being the shared
    boundary's vertices (d1's w + 1 for a vertical merge, its h + 1 for a
    horizontal one).  Its ``rent`` grows by ``2 * shared``, what a block
    pushed through the operands fills beyond one through the table, at
    each sweep miss through it.  At the miss where rent first reaches
    price, the sweep's ``Repository.build`` merges ``table``, and the
    record holds it in place of its operands.  The record stays the memo
    key, so the sweep's earlier records of it stay valid.
    """

    __slots__ = (
        "key", "op", "d1", "d2", "h", "w", "s", "ceiling", "shared", "price", "rent", "table",
    )

    def __init__(self, key, op: str, d1, d2):
        self.key, self.op, self.d1, self.d2 = key, op, d1, d2
        if op == "vmerge":
            self.h, self.w = d1.h + d2.h, d1.w
        else:
            self.h, self.w = d1.h, d1.w + d2.w
        self.s = self.h + self.w + 1
        self.ceiling = d1.ceiling
        self.shared = d1.s + d2.s - self.s
        self.price = (d1.s - 1) * (self.shared + d2.s)
        self.rent = 0
        self.table = None


def apply_inputs(d: DistTable | Unbuilt, base, left: Edge, top: Edge, sweep: Sweep) -> Outputs:
    """Output boundary values from input boundary values, both in
    difference form: the value at vertex 0, then each value minus the one
    before it.  The inputs are ``base``, the steps of ``left`` (up the
    first column, h of them) and those of ``top`` (along the first row, w
    of them).  In absolute values, ``out[j] = min_i in[i] + d.rows[i][j]``.

    Min-plus is shift-equivariant: adding c to every input adds c to every
    output.  In difference form only element 0 carries the shift, so the
    outputs relative to ``base`` depend only on the table and the two
    edges, and the caller hands the bottom and right edges on as they are.

    ``sweep.memo`` maps ``(d, left, top)`` to those outputs; as edges are
    interned, a hit is one lookup by identity and an O(1) ceiling check,
    runs no kernel and adds one to ``sweep.hits``.  It is exact for any
    base.  A miss rebuilds the absolute inputs and runs one min-plus row
    product over the table's stored rows (``minplus_row``: a scan or a
    SMAWK pass, O(s) element queries, added to ``sweep.queries``), then
    interns the output edges and stores the record, charged one unit
    against the sweep's budget.  The product leaves out each input that
    ties its neighbour towards the top-left corner plus the step between
    them, read off the table's first or last column: that neighbour is
    never worse, for any output, as in the merges.  ``d`` may also be an
    ``Unbuilt`` record.  A miss adds to its rent, and at the miss where
    the rent first reaches the price, ``sweep.repo`` builds its table; the
    kernel then runs on that table as on any other.  While the record is
    unbuilt, a miss pushes the block through its two operands, one after
    the other, each through the memo (see ``_miss`` and ``_push``), and
    stores one record for the block besides theirs; a hit on an operand is
    not a block, so it adds nothing to ``sweep.hits``.

    Absolute inputs must be non-negative, as a stand-in plus a negative
    input could win a column: the kernel is not run on them
    (``ValueError``).  The table's ceiling bounds every boundary value of
    the grid, and every column of a distance table has a reachable entry,
    so an output above it raises ``InvariantViolation``.
    ``block_edit_distance`` sweeps int costs only (see
    ``scoring.scaled_to_ints``), so every shift is exact.
    """
    key = d, left, top
    out = sweep.memo.get(key)
    if out is None:
        out = _miss(key, base, sweep)
    else:
        sweep.hits += 1
    if base + out.peak > d.ceiling:
        raise InvariantViolation("unreachable output vertex in a grid block")
    return out


def _miss(key, base, sweep: Sweep) -> Outputs:
    """A memo miss of ``apply_inputs``: the outputs of ``key``'s block,
    with a record stored for it and for every operand block it was pushed
    through.

    Each block is one ``_push``, a generator.  A push through an unbuilt
    record yields each operand's key and base in turn; the answer comes
    from the memo or from a new push on an explicit stack, so records nest
    to any depth without recursion.  A finished push's record is charged
    one unit and stored.  An operand answered by the memo is not a block:
    it counts no hit and checks no ceiling, as its outputs on the shared
    boundary are not outputs of the block."""
    stack = [(key, _push(*key, base, sweep))]
    out = None
    while stack:
        key, push = stack[-1]
        try:
            operand, operand_base = push.send(out)
        except StopIteration as done:
            stack.pop()
            out = done.value
            sweep.charge(1)  # one unit for the record
            sweep.memo[key] = out
            continue
        out = sweep.memo.get(operand)
        if out is None:
            stack.append((operand, _push(*operand, operand_base, sweep)))
    return out


def _push(d, left: Edge, top: Edge, base, sweep: Sweep):
    """One block's push for ``_miss``: check the inputs, add the rent of
    an unbuilt record and build it once the rent reaches the price, then
    return the outputs, from the kernel over a built table or through an
    unbuilt record's operands.

    Vertical: the upper table d1 takes the upper left steps and the top
    edge; the lower table d2 takes the lower left steps and d1's bottom
    edge, the shared row.  The block's bottom edge is d2's, and its right
    edge is d2's right steps followed by d1's: at the shared corner d2
    adds nothing, as d1's value there already takes every path along the
    shared row.  The vertex where the shared row meets the left edge is an
    input of both: d1's output there, never above the input, is the one d2
    reads, so the last lower left step takes the difference (0 for the
    grid values the sweep carries).  Horizontal is the mirror: d1 takes
    the left edge and the left top steps, d2 takes d1's right edge and the
    right top steps, and the bottom edge joins d1's and d2's.  ``peak`` is
    the largest of the block's outputs only, relative to ``base``; the
    shared boundary is not among them.  Each operand's outputs are what
    ``_miss`` sends back for the operand's key and base the push yields.
    """
    h, w = d.h, d.w
    if len(left.steps) != h or len(top.steps) != w:
        raise ValueError(
            f"expected {h} left and {w} top steps, "
            f"got {len(left.steps)} and {len(top.steps)}"
        )
    values = list(accumulate(chain((base,), left.steps, top.steps)))
    if min(values) < 0:
        raise ValueError("input values must be non-negative")
    table = d
    if type(d) is Unbuilt:
        if d.table is None:
            d.rent += 2 * d.shared
            if d.rent >= d.price:
                sweep.repo.build(d)
        table = d.table
    if table is not None:
        rows = table.rows
        # an input whose value ties its neighbour towards the top-left
        # corner plus the step between them is never better than that
        # neighbour, for any output; the steps are the differences down the
        # table's first column and along its last one
        first = [row[0] for row in rows[: h + 1]]
        last = [row[-1] for row in rows[h:]]
        keep = [*map(ne, left.steps, map(sub, first, first[1:])), True]
        keep += map(ne, top.steps, map(sub, last, last[1:]))
        values = minplus_row(
            list(compress(values, keep)), list(compress(rows, keep)), 0, len(values), sweep.queries
        )
        steps = tuple(map(sub, values[1:], values))
        bottom = sweep.intern(steps[:w])
        right = sweep.intern(steps[w:])
        return Outputs(values[0] - base, bottom, right, max(values) - base)
    d1, d2 = d.d1, d.d2
    if d.op == "vmerge":
        lower, upper = left.steps[: d2.h], left.steps[d2.h :]
        out1 = yield (d1, sweep.intern(upper), top), base + sum(lower)
        if out1.first:
            lower = lower[:-1] + (lower[-1] + out1.first,)
        out2 = yield (d2, sweep.intern(lower), out1.bottom), base
        corner = out2.first + out2.bottom.total + out2.right.total
        right = sweep.intern(out2.right.steps + out1.right.steps)
        peak = max(out2.peak, max(accumulate(out1.right.steps, initial=corner)))
        return Outputs(out2.first, out2.bottom, right, peak)
    w1 = d1.w
    head, rest = top.steps[:w1], top.steps[w1:]
    out1 = yield (d1, left, sweep.intern(head)), base
    base2 = out1.first + out1.bottom.total
    shared_top = base2 + out1.right.total - left.total - sum(head)
    if shared_top:
        rest = (rest[0] - shared_top,) + rest[1:]
    out2 = yield (d2, out1.right, sweep.intern(rest)), base + base2
    bottom = sweep.intern(out1.bottom.steps + out2.bottom.steps)
    peak = max(base2 + out2.peak, max(accumulate(out1.bottom.steps, initial=out1.first)))
    return Outputs(out1.first, bottom, out2.right, peak)


class Repository:
    """Distance tables for the grid's block pairs, keyed by (row variable,
    column variable) pairs and filled by ``build_repository``.

    The variables are those of the partitions' grammars, where every part
    is one variable (see ``partition_string``).  A key's table is a direct
    construction for terminal x terminal; otherwise the side whose
    variable derives the longer string (A on a tie) is split, and the
    tables of its two children against the whole other side are merged,
    so the shared boundary is the shorter side.  Dependencies are listed
    in grid order (left before right, upper before lower), so each merge
    takes its operands as listed.

    Every repeated occurrence of a pair reuses its table, which is where
    the grammar's repetitiveness pays off.  A direct key is built when it
    is planned; every merge key is an ``Unbuilt`` record, built at most
    once, by one merge (``build``) during the sweep: when its rent reaches
    its price, or as an unbuilt operand of a record being built.  ``memo``
    holds only the part pairs, what the sweep reads: a table or a record.
    ``unbuilt_keys`` counts the records not built yet, at any depth, and
    ``unbuilt_pairs`` the part pairs among them.  ``holders`` counts, for
    each live table or record, the memo keys and records that hold it, and
    ``table_entries`` the entries of the live tables;
    ``peak_table_entries`` is the most they held at once, before and
    during the sweep.  ``merge_s`` sums the seconds spent in ``build``.
    """

    def __init__(self, slp_a: Slp, slp_b: Slp, sf):
        self.sf = sf
        self.memo = {}
        self.holders = Counter()
        self.direct_builds = 0
        self.merges = 0
        self.merge_s = 0.0
        self.table_entries = 0
        self.peak_table_entries = 0
        self._queries = [0]  # kernel element queries spent in merges
        self._slps = (slp_a, slp_b)
        # One unreachable-detection bound that dominates every finite value
        # the grid can produce: every table is stored against it, so merges
        # and the sweep read the stored rows as they are.
        n = slp_a.lengths[slp_a.root] + slp_b.lengths[slp_b.root]
        self.ceiling = n * max_cost(sf)

    @property
    def memo_size(self) -> int:
        return len(self.memo)

    @property
    def merge_queries(self) -> int:
        return self._queries[0]

    @property
    def unbuilt_keys(self) -> int:
        return sum(type(v) is Unbuilt and v.table is None for v in self.holders)

    @property
    def unbuilt_pairs(self) -> int:
        return sum(type(v) is Unbuilt and v.table is None for v in self.memo.values())

    def lookup(self, key_a, key_b) -> DistTable | Unbuilt:
        """Table, or unbuilt record, for an already-planned pair."""
        return self.memo[key_a, key_b]

    def hold(self, value) -> None:
        """Count one more holder of a table or record; a table's first
        holder adds its entries to ``table_entries``."""
        if not self.holders[value] and type(value) is DistTable:
            self.table_entries += value.s * value.s
            self.peak_table_entries = max(self.peak_table_entries, self.table_entries)
        self.holders[value] += 1

    def release(self, *values) -> None:
        """Count one holder fewer of each table or built record (``build``
        builds every operand before it releases it, so no unbuilt record is
        released).  A table left without one leaves ``table_entries``; a
        record left without one releases its table and drops it: the sweep
        memo's keys may still hold the record, but no sweep reaches it
        again."""
        for value in values:
            self.holders[value] -= 1
            if self.holders[value]:
                continue
            del self.holders[value]
            if type(value) is DistTable:
                self.table_entries -= value.s * value.s
            else:
                self.release(value.table)
                value.table = None

    def build(self, record: Unbuilt) -> DistTable:
        """Merge an unbuilt record's table, building its unbuilt operands
        first the same way, d1's before d2's, over an explicit stack so
        that nesting depth never hits the Python recursion limit.  Each
        record then holds its table in place of its operands."""
        t0 = time.perf_counter()
        stack = [record]
        while stack:
            top = stack[-1]
            operands = top.d1, top.d2
            unbuilt = [o for o in operands if type(o) is Unbuilt and o.table is None]
            if unbuilt:
                stack.append(unbuilt[0])
                continue
            stack.pop()
            tables = [o if type(o) is DistTable else o.table for o in operands]
            top.table = self._combine(top.key, top.op, tables)
            self.hold(top.table)
            top.d1 = top.d2 = None
            self.release(*operands)
        self.merge_s += time.perf_counter() - t0
        return record.table

    def _plan(self, pairs) -> dict:
        """``key -> (operands, op)`` for the part pairs and every key they
        need, each after its operands: one walk of the dependency DAG, over
        an explicit stack so that grammar depth never hits the Python
        recursion limit."""
        plan = {}
        stack = pairs[::-1]
        while stack:
            key = stack[-1]
            if key in plan:
                stack.pop()
                continue
            deps, op = self._dependencies(*key)
            missing = [d for d in deps if d not in plan]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            plan[key] = deps, op
        return plan

    def _dependencies(self, va, vb):
        slp_a, slp_b = self._slps
        len_a, len_b = slp_a.lengths[va], slp_b.lengths[vb]
        # a variable derives one character exactly when it is a terminal
        if len_a == len_b == 1:
            return [], "direct"
        # split the side that derives the longer string (A on a tie), so the
        # shared boundary, and with it each kernel call, is the shorter side;
        # a terminal is never the longer side of a pair with a non-terminal
        if len_a >= len_b:
            p, q = slp_a.productions[va]
            return [(p, vb), (q, vb)], "vmerge"
        r, t = slp_b.productions[vb]
        return [(va, r), (va, t)], "hmerge"

    def _combine(self, key, op, tables):
        if op == "direct":
            self.direct_builds += 1
            a = expand(self._slps[0], key[0])
            b = expand(self._slps[1], key[1])
            return build_direct(a, b, self.sf, self.ceiling)
        self.merges += 1
        merge = merge_horizontal if op == "hmerge" else merge_vertical
        return merge(*tables, self._queries)


def build_repository(part_a, part_b, sf) -> Repository:
    """Tables or records for every (row part, column part) pair the grid
    can contain, over the grammars the partitions extended
    (``StringPartition.slp``).

    The partitions must have been built with the same block parameter.  One
    walk of the dependency DAG (``Repository._plan``) orders the keys:
    every key after its operands.  In that order each direct key, terminal
    x terminal, is built, and each merge key becomes an ``Unbuilt`` record
    holding its two operands, tables or records.  Nothing is merged here:
    the sweep builds each record on demand, with its unbuilt operands,
    once its misses have cost as much as its merge would (see ``Unbuilt``
    and ``Repository.build``).  Only the holder counts keep a table alive,
    so an operand is freed once no record and no part pair holds it.

    Rent or buy bounds the waste: a record pays at most its price in rent
    before its one merge, so in kernel entries the repository costs at
    most twice what building every key before the sweep would.  Each
    partition adds at most n variables to a grammar of n, so at most
    4 * n_A * n_B keys are planned, each built by at most one direct build
    or one merge, which is where the overall O(n^2 x^2) table-building
    bound comes from.
    """
    if part_a.block_size != part_b.block_size:
        raise ValueError("partitions built with different block parameters")
    repo = Repository(part_a.slp, part_b.slp, sf)
    vars_a = sorted({p.var for p in part_a.parts})
    vars_b = sorted({p.var for p in part_b.parts})
    pairs = {(ka, kb) for ka in vars_a for kb in vars_b}
    plan = repo._plan(sorted(pairs))
    made = {}  # key -> its direct table or its record
    for key, (deps, op) in plan.items():
        if op == "direct":
            made[key] = repo._combine(key, op, ())
        else:
            made[key] = Unbuilt(key, op, *(made[d] for d in deps))
            for d in deps:
                repo.hold(made[d])
        if key in pairs:
            repo.memo[key] = made[key]
            repo.hold(made[key])
    return repo
