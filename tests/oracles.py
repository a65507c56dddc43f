"""Checks the tests hold the program to: full-scan column minima, the Monge
and total-monotonicity conditions the kernel relies on, the grammar
invariants, and the partition's substrings and association map.  None of
them runs in the program itself."""

from __future__ import annotations

from slpdist import InvariantViolation
from slpdist.slp import Slp, _compute_lengths


def with_none(table):
    """A distance table's rows with ``None`` wherever no monotone path
    exists: every stored entry above the table's ceiling is a stand-in."""
    ceiling = table.ceiling
    return [[None if v > ceiling else v for v in row] for row in table.rows]


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


def validate(slp: Slp) -> list:
    """Check the grammar invariants; return a list of violations (empty = ok)."""
    problems = []
    prods = slp.productions
    if len(prods) < 2 or prods[0] is not None:
        return ["production list must start with the unused 0 sentinel"]
    for i in range(1, len(prods)):
        prod = prods[i]
        if isinstance(prod, str):
            if len(prod) != 1:
                problems.append(f"variable {i}: terminal is not a single character")
        elif isinstance(prod, tuple) and len(prod) == 2:
            p, q = prod
            if not (isinstance(p, int) and isinstance(q, int)):
                problems.append(f"variable {i}: non-integer pair {prod!r}")
            elif not (1 <= p < i and 1 <= q < i):
                problems.append(f"variable {i}: forward or out-of-range reference {prod!r}")
        else:
            problems.append(f"variable {i}: production must be a character or an index pair")
    if problems:
        return problems
    expected = _compute_lengths(prods)
    if tuple(slp.lengths) != expected:
        problems.append("length mismatch: cached lengths disagree with the productions")
    return problems


def contents(partition, text: str) -> list:
    """The substrings of ``text`` that a partition of it names, in order."""
    return [text[p.start : p.start + p.length] for p in partition.parts]


def association_map(partition, text: str) -> dict:
    """Deduplicated variable -> (start, length) association of a partition
    of ``text``.

    Raises when two occurrences of the same association disagree on their
    substring content, which would mean the partition is broken.
    """
    mapping = {}
    for p in partition.parts:
        key = p.var
        content = text[p.start : p.start + p.length]
        seen = mapping.get(key)
        if seen is None:
            mapping[key] = (p.start, p.length)
        elif text[seen[0] : seen[0] + seen[1]] != content:
            raise InvariantViolation(
                f"variable {p.var} carries two different substrings"
            )
    return mapping
