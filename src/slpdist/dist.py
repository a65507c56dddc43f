"""Boundary-to-boundary distance tables for grid blocks, and the memoized
repository that builds one table per distinct substring pair.

A block of the edit-distance grid spans h characters of A (rows) and w
characters of B (columns).  Its boundary has s = h + w + 1 input vertices
(first column bottom-to-top, then first row left-to-right) and s output
vertices (last row left-to-right, then last column bottom-to-top); both
orders start at the bottom-left corner and end at the top-right corner, so
input 0 coincides with output 0 and input s-1 with output s-1.

``table.m[i][j]`` holds the cheapest monotone (down/right) path weight from
input i to output j, or ``None`` when no such path exists (a view of the
finite ``rows`` a table is stored as).  These matrices are Monge on their
finite entries, which is what lets two tables sharing a boundary be merged
with SMAWK in O(s^2) instead of rebuilt in O(s^3).  A monotone path only
goes down or right, so each merge row hands the kernel just the shared
vertices and outputs its input can reach: a contiguous block of a totally
monotone matrix, which leaves out only rows that cannot win.
"""

from __future__ import annotations

from .monge import fill_stand_ins, minplus_row, substitute_infinities
from .partition import COMPOSITE, EXACT, InvariantViolation, StringPartition
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
    def m(self) -> list:
        """s x s rows with ``None`` for no monotone path; derived from
        ``rows`` on every access."""
        ceiling = self.ceiling
        return [[None if v > ceiling else v for v in row] for row in self.rows]

    @property
    def h(self) -> int:
        return len(self.a)

    @property
    def w(self) -> int:
        return len(self.b)

    @property
    def s(self) -> int:
        return len(self.a) + len(self.b) + 1

    def finite_rows(self, ceiling):
        """Rows that keep results up to ``ceiling`` apart from unreachable
        ones: the stored rows when they were built against at least that
        bound, else a copy built for this call only."""
        if ceiling <= self.ceiling:
            return self.rows
        return substitute_infinities(self.m, ceiling)[0]


def input_position(h: int, w: int, k: int):
    """Grid coordinates (row, col) of input vertex k, 0-based."""
    return (h - k, 0) if k <= h else (0, k - h)


def output_position(h: int, w: int, k: int):
    return (h, k) if k <= w else (h - (k - w), w)


def build_direct(a: str, b: str, sf, ceiling=None) -> DistTable:
    """Table by direct dynamic programming: one sweep of the block per input
    vertex, O(s^3) overall.  Base-case builder for terminal blocks and the
    correctness oracle every merge is tested against.  The table is stored
    against ``ceiling`` (see ``DistTable``), by default ``(h + w)`` times
    the largest cost, a bound on every path in the block."""
    h, w = len(a), len(b)
    s = h + w + 1
    if ceiling is None:
        ceiling = (h + w) * max_cost(sf)
    del_costs = [None] + [sf.del_cost(c) for c in a]
    ins_costs = [None] + [sf.ins_cost(c) for c in b]
    sub_rows = [None] + [[None] + [sf.sub_cost(ca, cb) for cb in b] for ca in a]
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
            row[c] = row[c - 1] + ins_costs[c]
        for r in range(r0 + 1, h + 1):
            above = row
            row = dist[r]
            dcost = del_costs[r]
            subs = sub_rows[r]
            left = row[c0] = above[c0] + dcost
            for c in range(c0 + 1, w + 1):
                best = above[c] + dcost
                v = left + ins_costs[c]
                if v < best:
                    best = v
                v = above[c - 1] + subs[c]
                if v < best:
                    best = v
                row[c] = left = best
        rows.append([dist[r][c] for r, c in outputs])
    return DistTable(a, b, rows, ceiling)


def merge_horizontal(d1: DistTable, d2: DistTable, ceiling=None, counter=None) -> DistTable:
    """Table of the side-by-side block (a, b1 + b2) from the tables of
    (a, b1) and (a, b2).

    Entries whose paths stay inside one sub-block are copies; paths that
    cross the shared column are the min-plus product of d1's columns on
    that boundary with d2's rows, one kernel pass per input vertex over
    only what that input can reach.  Input i <= h sits on the left column
    at row h - i, so it reaches the lowest i + 1 shared vertices and,
    through them, d2's outputs up to w2 + i; the outputs above get no
    path.  Top-row inputs reach everything.  Total cost O(s^2).
    ``ceiling`` is the unreachable-detection bound; it must be at least
    the largest finite entry either operand can contribute to (defaults to
    the sum of the operands' ceilings).  The result is stored against it.
    ``counter[0]``, when given, accumulates the kernel's element queries.
    Copied entries share the operands' objects, and the values the kernel
    returns pass through one dict per call, so the result holds one int
    object per distinct path weight it computed.
    """
    if d1.a != d2.a:
        raise ValueError("horizontal merge needs a common row substring")
    h = d1.h
    w1 = d1.w
    s1, s2 = d1.s, d2.s
    s = h + w1 + d2.w + 1
    if ceiling is None:
        ceiling = d1.ceiling + d2.ceiling
    m1 = d1.finite_rows(ceiling)
    m2 = d2.finite_rows(ceiling)
    unreachable = [ceiling + 1] * h
    values = {}  # one object per distinct computed path weight
    out = []
    for i in range(s1):
        row_out = m1[i][: w1 + 1]
        # cross region: route through the shared column (d1 columns
        # w1..s1-1 are its vertices bottom-to-top, as are d2 rows 0..h);
        # input i reaches its lowest r + 1 vertices and d2's outputs 1..w2 + r
        r = min(i, h)
        res = minplus_row(m1[i][w1 : w1 + r + 1], m2, 1, s2 - h + r, counter)
        row_out.extend(map(values.setdefault, res, res))
        row_out.extend(unreachable[r:])
        out.append(row_out)
    # no path from d2's inputs reaches d1's outputs
    unreachable = [ceiling + 1] * (w1 + 1)
    out.extend(unreachable + m2[i - w1][1:] for i in range(s1, s))
    return DistTable(d1.a, d1.b + d2.b, out, ceiling)


def merge_vertical(d1: DistTable, d2: DistTable, ceiling=None, counter=None) -> DistTable:
    """Table of the stacked block (a1 + a2, b); d1 is the upper block
    (earlier characters of A are earlier grid rows).  Mirror image of
    ``merge_horizontal`` across the shared boundary row: d1's top-row input
    at column c reaches only the shared vertices c..w and, through them,
    d2's outputs from c on; left-column inputs reach everything.  Computed
    values are shared per distinct weight, as there."""
    if d1.b != d2.b:
        raise ValueError("vertical merge needs a common column substring")
    w = d1.w
    h1 = d1.h
    h2 = d2.h
    s1, s2 = d1.s, d2.s
    s = h1 + h2 + w + 1
    if ceiling is None:
        ceiling = d1.ceiling + d2.ceiling
    m1 = d1.finite_rows(ceiling)
    m2 = d2.finite_rows(ceiling)
    m2_shifted = m2[h2:]
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
        res = minplus_row(row1[c : w + 1], m2_shifted[c:], c, s2, counter)
        row_out.extend(map(values.setdefault, res, res))
        row_out.extend(row1[s2 - h2 :])
        out.append(row_out)
    return DistTable(d1.a + d2.a, d1.b, out, ceiling)


def merge_quad(d11, d12, d21, d22, ceiling=None, counter=None) -> DistTable:
    """Table of the 2x2 block arrangement::

        (a1, b1) (a1, b2)
        (a2, b1) (a2, b2)

    Two horizontal merges followed by one vertical merge, each with the
    given unreachable-detection ``ceiling`` and query ``counter`` (see
    ``merge_horizontal``).  A public helper only: the repository does not
    call it, because it discards the two horizontal results, the tables of
    (a1, b) and (a2, b), which other pairs need."""
    if d11.a != d12.a or d21.a != d22.a or d11.b != d21.b or d12.b != d22.b:
        raise ValueError("quad merge given inconsistent substring references")
    return merge_vertical(
        merge_horizontal(d11, d12, ceiling, counter),
        merge_horizontal(d21, d22, ceiling, counter),
        ceiling,
        counter,
    )


SWEEP_MEMO_SIZE = 64


def apply_inputs(d: DistTable, inputs, _counter=None, _ceiling=None, _memo=None):
    """Output boundary values from input boundary values:
    ``out[j] = min_i inputs[i] + m[i][j]``.

    One min-plus row product over the table's stored rows (``minplus_row``:
    a scan or a SMAWK pass, O(s) element queries).  Inputs must be finite;
    every column of a distance table has a reachable entry, so the outputs
    are finite too.

    ``_memo``, a dict owned by the caller, reuses earlier answers.  Min-plus
    is shift-equivariant, so the outputs minus ``inputs[0]`` depend only on
    the table and the inputs minus ``inputs[0]`` (the input shape).  The
    memo maps the ``SWEEP_MEMO_SIZE`` most recently used (table, shape)
    pairs to their output shapes; a hit runs no kernel, adds no queries to
    ``_counter[0]`` and adds one to ``_counter[1]``.  ``block_edit_distance``
    passes a memo for every table, since it sweeps int costs only (see
    ``scoring.scaled_to_ints``).
    """
    s = d.s
    if len(inputs) != s:
        raise ValueError(f"expected {s} input values, got {len(inputs)}")
    ceiling = _ceiling
    if ceiling is None:
        ceiling = d.ceiling + max(inputs)
    if _memo is None:
        values = minplus_row(inputs, d.finite_rows(ceiling), 0, s, _counter)
    else:
        base = inputs[0]
        key = (d, tuple([v - base for v in inputs]))
        shape = _memo.pop(key, None)
        if shape is None:
            values = minplus_row(inputs, d.finite_rows(ceiling), 0, s, _counter)
            shape = tuple([v - base for v in values])
            if len(_memo) >= SWEEP_MEMO_SIZE:
                del _memo[next(iter(_memo))]
        else:
            values = [base + v for v in shape]
            if _counter is not None:
                _counter[1] += 1
        _memo[key] = shape  # most recently used last
    if max(values) > ceiling:
        raise InvariantViolation("unreachable output vertex in a grid block")
    return values


_TERMINAL = "__terminal__"


class Repository:
    """Memoized distance tables, one per distinct (variable, kind) pair.

    Keys pair a row-side descriptor with a column-side descriptor, each
    ``(var, kind)`` with kind ``exact`` (the variable's full derivation) or
    ``composite`` (the accumulated gap substring attached to a partition
    path variable).  Construction works bottom-up over an explicit
    worklist, so grammar depth never hits the Python recursion limit:

    * exact x exact   -- direct construction for terminal x terminal;
      otherwise split the side whose variable derives the longer string
      (A on a tie) and merge the tables of its two children against the
      whole other side, so the shared boundary is the shorter side;
    * composite sides -- peel the accumulation chain one hanging child at a
      time, merging the previous accumulated table with the child's exact
      table (column side first, so composite x composite reduces to
      composite x exact).

    Dependencies are listed in grid order (left before right, upper before
    lower), so each merge takes its operands as listed.

    Every repeated occurrence of a pair reuses its table, which is where
    the grammar's repetitiveness pays off.  Each entry that is not an alias
    costs exactly one direct build or one merge.
    """

    def __init__(self, slp_a: Slp, slp_b: Slp, part_a, part_b, sf):
        self.sf = sf
        self.memo = {}
        self.direct_builds = 0
        self.merges = 0
        self._queries = [0]  # kernel element queries spent in merges
        self._sides = (_SideInfo(slp_a, part_a), _SideInfo(slp_b, part_b))
        # One unreachable-detection bound that dominates every finite value
        # the grid can produce: every table is stored against it, so merges
        # and the sweep read the stored rows as they are.
        self.ceiling = (len(part_a.text) + len(part_b.text)) * max_cost(sf)

    @property
    def memo_size(self) -> int:
        return len(self.memo)

    @property
    def merge_queries(self) -> int:
        return self._queries[0]

    @property
    def table_entries(self) -> int:
        """Entries held by the distinct tables (aliased keys share one)."""
        tables = {id(t): t for t in self.memo.values()}
        return sum(t.s * t.s for t in tables.values())

    def lookup(self, key_a, key_b) -> DistTable:
        """Table for an already-built pair."""
        return self.memo[key_a, key_b]

    def ensure(self, key_a, key_b) -> DistTable:
        """Build (and memoize) the table for a pair and its dependencies."""
        memo = self.memo
        stack = [(key_a, key_b)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            deps, op = self._dependencies(*key)
            missing = [d for d in deps if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[key] = self._combine(key, op, [memo[d] for d in deps])
            stack.pop()
        return memo[key_a, key_b]

    def _dependencies(self, key_a, key_b):
        va, kind_a = key_a
        vb, kind_b = key_b
        if kind_b == COMPOSITE:
            prev, hang, grows = self._sides[1].chain_link(vb)
            if prev is None:
                return [(key_a, (hang, EXACT))], "alias"
            deps = [(key_a, (prev, COMPOSITE)), (key_a, (hang, EXACT))]
            return (deps if grows == "suffix" else deps[::-1]), "hmerge"
        if kind_a == COMPOSITE:
            prev, hang, grows = self._sides[0].chain_link(va)
            if prev is None:
                return [((hang, EXACT), key_b)], "alias"
            deps = [((prev, COMPOSITE), key_b), ((hang, EXACT), key_b)]
            return (deps if grows == "suffix" else deps[::-1]), "vmerge"
        prod_a = self._sides[0].production(va)
        prod_b = self._sides[1].production(vb)
        if prod_a is _TERMINAL and prod_b is _TERMINAL:
            return [], "direct"
        # split the side that derives the longer string (A on a tie), so the
        # shared boundary, and with it each kernel call, is the shorter side;
        # a terminal is never the longer side of a pair with a non-terminal
        if self._sides[0].slp.lengths[va] >= self._sides[1].slp.lengths[vb]:
            p, q = prod_a
            return [((p, EXACT), key_b), ((q, EXACT), key_b)], "vmerge"
        r, t = prod_b
        return [(key_a, (r, EXACT)), (key_a, (t, EXACT))], "hmerge"

    def _combine(self, key, op, tables):
        if op == "direct":
            # direct is only issued for terminal x terminal exact keys
            self.direct_builds += 1
            (va, _), (vb, _) = key
            a = expand(self._sides[0].slp, va)
            b = expand(self._sides[1].slp, vb)
            return build_direct(a, b, self.sf, self.ceiling)
        if op == "alias":
            return tables[0]
        self.merges += 1
        merge = merge_horizontal if op == "hmerge" else merge_vertical
        return merge(*tables, self.ceiling, self._queries)


class _SideInfo:
    """Per-string lookup structures the repository recursion needs."""

    def __init__(self, slp: Slp, part: StringPartition):
        self.slp = slp
        self._chains = {}
        for p in part.parts:
            if p.kind != COMPOSITE:
                continue
            prev = None
            for path_var, hang_var, _ in p.chain:
                link = (prev, hang_var, p.grows)
                seen = self._chains.get(path_var)
                if seen is not None and seen != link:
                    raise InvariantViolation(
                        f"variable {path_var} accumulates two different substrings"
                    )
                self._chains[path_var] = link
                prev = path_var

    def production(self, var: int):
        prod = self.slp.productions[var]
        return _TERMINAL if isinstance(prod, str) else prod

    def chain_link(self, var: int):
        return self._chains[var]


def build_repository(slp_a, slp_b, part_a, part_b, sf) -> Repository:
    """Tables for every (row part, column part) pair the grid can contain.

    The partitions must have been built with the same block parameter.  The
    number of memo entries is bounded by 4 * n_A * n_B (two kinds per
    variable per side), and each distinct table costs one direct build or
    one merge, which is where the overall O(n^2 x^2) table-building bound
    comes from.
    """
    if part_a.block_size != part_b.block_size:
        raise ValueError("partitions built with different block parameters")
    repo = Repository(slp_a, slp_b, part_a, part_b, sf)
    keys_a = {(p.var, p.kind) for p in part_a.parts}
    keys_b = {(p.var, p.kind) for p in part_b.parts}
    for ka in sorted(keys_a):
        for kb in sorted(keys_b):
            repo.ensure(ka, kb)
    return repo
