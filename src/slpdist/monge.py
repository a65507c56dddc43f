"""Column minima of totally monotone matrices, and min-plus products.

Matrices are lists of row lists of exact numbers.  The kernels
(``minplus_row``, ``smawk_column_minima``) read finite matrices only, with
unreachable entries held as stand-ins (``fill_stand_ins``).  ``None``, for
an unreachable entry, appears only in the matrices of the oracles
(``brute_column_minima``, ``is_monge``) and in what
``substitute_infinities`` replaces by stand-ins.  A matrix is Monge
(concave form) when for all i < i', j < j' with all four entries finite::

    m[i][j] + m[i'][j'] <= m[i][j'] + m[i'][j]

Column minima of such matrices move weakly down as the column index grows,
which is what the SMAWK algorithm exploits to find all of them with only
O(rows + cols) element queries.  Everything here is stateless and leaves
its arguments unchanged, except ``fill_stand_ins``, which writes its rows
in place; callers may run independent computations concurrently.
"""

from __future__ import annotations


def _smawk(rows, cols, best, best_row, base):
    """The SMAWK recursion both public kernels share: REDUCE, recurse on
    the odd columns, then interpolate between their argmins.

    ``rows`` are ``(u, row, t)`` triples in increasing t; the element in
    column c is ``u + row[c]``, read once per query.  Writes column c's
    minimum and the smallest t attaining it to ``best[c - base]`` and
    ``best_row[c - base]``, and returns the number of element queries.

    Query bound, for R rows and C columns: at most ``4 * R + 7 * C``.
    REDUCE makes at most 2R - 1 - F comparisons of two queries each when it
    leaves F rows; interpolation reads at most F - 1 + ceil(C / 2)
    elements; the floors read C or F * C <= 2F.  Induction on C then gives
    at most 5F + 4C for a call that starts with F <= C rows, so 5R + 4C
    when R <= C and 4R - 2 - 2F + 5F + 4C <= 4R + 7C - 2 when R > C.
    All-zero matrices of shape n x (n - 1) with n a power of two approach
    4.5 * (R + C).
    """
    queries = 0
    ncl = len(cols)
    if len(rows) > ncl:
        # REDUCE: drop rows that cannot hold any column minimum
        kept = []
        for tr in rows:
            ut, rowt, _ = tr
            while kept:
                c = cols[len(kept) - 1]
                uk, rowk, _ = kept[-1]
                queries += 2
                if uk + rowk[c] > ut + rowt[c]:
                    kept.pop()
                else:
                    break
            if len(kept) < ncl:
                kept.append(tr)
        rows = kept
    if len(rows) == 1:
        ut, rowt, t = rows[0]
        for c in cols:
            best[c - base] = ut + rowt[c]
            best_row[c - base] = t
        return queries + ncl
    if ncl <= 2:
        # the constant-size floor of the recursion: scan directly
        for c in cols:
            bv = None
            bt = 0
            for ut, rowt, t in rows:
                v = ut + rowt[c]
                if bv is None or v < bv:
                    bv, bt = v, t
            best[c - base] = bv
            best_row[c - base] = bt
        return queries + len(rows) * ncl
    queries += _smawk(rows, cols[1::2], best, best_row, base)
    # Fill the even-position columns; their argmin rows are bracketed by
    # the already-final argmins of the neighbouring odd columns.
    ri = 0
    for ci in range(0, ncl, 2):
        c = cols[ci]
        stop = best_row[cols[ci + 1] - base] if ci + 1 < ncl else rows[-1][2]
        bv = None
        bt = 0
        while True:
            ut, rowt, t = rows[ri]
            queries += 1
            v = ut + rowt[c]
            if bv is None or v < bv:
                bv, bt = v, t
            if t == stop:
                break
            ri += 1
        best[c - base] = bv
        best_row[c - base] = bt
    return queries


class _EntryRow:
    """Row i of an implicit matrix: ``row[j]`` calls ``entry(i, j)``."""

    __slots__ = ("entry", "i")

    def __init__(self, entry, i):
        self.entry = entry
        self.i = i

    def __getitem__(self, j):
        return self.entry(self.i, j)


def smawk_column_minima(nrows: int, ncols: int, entry):
    """All column minima of an implicit totally monotone matrix.

    ``entry(i, j)`` returns the element at 0-based row i, column j; it must
    be finite (run ``substitute_infinities`` first if the source matrix has
    unreachable entries).  Returns ``(values, rows)`` where ``rows[j]`` is
    the smallest row index attaining ``values[j]``.  Ties always break to
    the smallest row so results are reproducible.  Each element query is
    one ``entry`` call, at most ``4 * nrows + 7 * ncols`` of them.
    """
    if ncols <= 0:
        return [], []
    if nrows <= 0:
        raise ValueError("matrix must have at least one row")
    best = [None] * ncols
    best_row = [0] * ncols
    rows = [(0, _EntryRow(entry, i), i) for i in range(nrows)]
    _smawk(rows, range(ncols), best, best_row, 0)
    return best, best_row


def minplus_row(u, rows, jlo, jhi, counter=None):
    """Column minima of the implicit matrix ``u[t] + rows[t][j]`` for j in
    [jlo, jhi), as a list of jhi - jlo values.

    The inner loop of every table merge and of the block sweep: single rows
    and tiny matrices are scanned, everything else goes through the shared
    SMAWK recursion.  ``u`` and ``rows`` must be fully finite, and the
    matrix totally monotone over [jlo, jhi); nothing checks that at run
    time, only the tests' oracles do.  ``counter[0]``, when given,
    accumulates the element evaluation count.
    """
    ncols = jhi - jlo
    if ncols <= 0:
        return []
    nrows = len(u)
    if nrows == 1:
        u0 = u[0]
        row = rows[0]
        if counter is not None:
            counter[0] += ncols
        return [u0 + row[j] for j in range(jlo, jhi)]
    if nrows * ncols <= 32:
        # below this size the recursion costs more than it saves
        if counter is not None:
            counter[0] += nrows * ncols
        out = []
        for j in range(jlo, jhi):
            best = u[0] + rows[0][j]
            for t in range(1, nrows):
                v = u[t] + rows[t][j]
                if v < best:
                    best = v
            out.append(best)
        return out

    best = [None] * ncols
    best_row = [0] * ncols
    # each row travels as a (u[t], rows[t], t) triple: one indexing per query
    triples = [(u[t], rows[t], t) for t in range(nrows)]
    queries = _smawk(triples, range(jlo, jhi), best, best_row, jlo)
    if counter is not None:
        counter[0] += queries
    return best


def brute_column_minima(matrix):
    """Full-scan column minima; the oracle SMAWK is checked against.

    Unreachable (``None``) entries never win; a column with no reachable
    entry reports ``(None, None)``.  Ties break to the smallest row, the
    same rule SMAWK uses.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    values = [None] * ncols
    rows = [None] * ncols
    for j in range(ncols):
        for i, row in enumerate(matrix):
            v = row[j]
            if v is None:
                continue
            if values[j] is None or v < values[j]:
                values[j] = v
                rows[j] = i
    return values, rows


def fill_stand_ins(rows, ceiling):
    """Replace, in place, every entry of ``rows`` above ``ceiling`` (an
    unreachable one) by a finite stand-in that keeps the matrix totally
    monotone, and return ``rows``.

    The reachable entries of a boundary distance table form a staircase:
    each row covers a contiguous column range whose ends move weakly right
    on lower rows.  An entry ``d`` columns past its row's range becomes
    ``K * d`` with ``K = (ceiling + 1) * (rows + cols)``, so no stand-in can
    beat a reachable entry in its column and any result above ``ceiling``
    marks an unreachable one.  Equal stand-ins are one shared object.  A row
    with no reachable entry gets the synthetic one-past range after the
    previous row's, so the matrix stays monotone at the edges.
    """
    ncols = len(rows[0]) if rows else 0
    big = (ceiling + 1) * (len(rows) + ncols)
    ladder = [big * d for d in range(ncols + 1)]
    hi = -1
    for row in rows:
        lo = 0
        while lo < ncols and row[lo] > ceiling:
            lo += 1
        if lo == ncols:
            lo = hi + 1
        else:
            hi = ncols - 1
            while row[hi] > ceiling:
                hi -= 1
        row[:lo] = ladder[lo:0:-1]
        row[hi + 1 :] = ladder[1 : ncols - hi]
    return rows


def substitute_infinities(matrix, ceiling):
    """Finite copy of a matrix with ``None`` for unreachable entries, each
    replaced by its stand-in (see ``fill_stand_ins``).  ``ceiling`` must be
    at least every finite entry and every result read off the copy."""
    above = ceiling + 1
    rows = [[above if v is None else v for v in row] for row in matrix]
    return fill_stand_ins(rows, ceiling)


def is_monge(matrix, finite_only: bool = True) -> bool:
    """Monge check.  With ``finite_only`` the inequality is only required
    when all four corners are reachable.

    A fully finite matrix is Monge exactly when every adjacent 2x2 cell is,
    because the cross-difference of any row/column quadruple is the sum of
    the adjacent cells' cross-differences it spans; that check is
    O(rows * cols).  Matrices with ``None`` entries get the exhaustive scan.
    """
    for row in matrix:
        if None in row:
            return _is_monge_exhaustive(matrix, finite_only)
    for upper, lower in zip(matrix, matrix[1:]):
        for j in range(len(upper) - 1):
            if upper[j] + lower[j + 1] > upper[j + 1] + lower[j]:
                return False
    return True


def _is_monge_exhaustive(matrix, finite_only: bool = True) -> bool:
    """Monge check over all row/column quadruples; quadratic in the entry
    count, for matrices with unreachable entries."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for i in range(nrows - 1):
        for i2 in range(i + 1, nrows):
            row_a, row_c = matrix[i], matrix[i2]
            for j in range(ncols - 1):
                a, c = row_a[j], row_c[j]
                for j2 in range(j + 1, ncols):
                    b, d = row_a[j2], row_c[j2]
                    if a is None or b is None or c is None or d is None:
                        if finite_only:
                            continue
                        return False
                    if a + d > b + c:
                        return False
    return True


def is_totally_monotone(matrix) -> bool:
    """2x2 total monotonicity on a fully finite matrix (what SMAWK needs)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for i in range(nrows - 1):
        for i2 in range(i + 1, nrows):
            for j in range(ncols - 1):
                if matrix[i][j] <= matrix[i2][j]:
                    continue
                for j2 in range(j + 1, ncols):
                    if matrix[i][j2] <= matrix[i2][j2]:
                        return False
    return True

