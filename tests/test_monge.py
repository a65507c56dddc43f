import warnings

import pytest

from conftest import grid_ceiling, random_monge_matrix, random_text
from slpdist import (
    brute_column_minima,
    build_direct,
    is_monge,
    levenshtein,
    smawk_column_minima,
    substitute_infinities,
)
from slpdist.monge import _is_monge_exhaustive, is_totally_monotone, minplus_row


def counting(matrix, counter):
    def entry(i, j):
        counter[0] += 1
        return matrix[i][j]

    return entry


def test_smawk_two_by_two():
    values, rows = smawk_column_minima(2, 2, lambda i, j: [[1, 2], [2, 1]][i][j])
    assert values == [1, 1]
    assert rows == [0, 1]


def test_smawk_single_cell():
    values, rows = smawk_column_minima(1, 1, lambda i, j: 5)
    assert values == [5]
    assert rows == [0]


def test_smawk_tie_breaks_to_smallest_row():
    m = [[3, 3], [3, 3], [3, 3]]
    values, rows = smawk_column_minima(3, 2, lambda i, j: m[i][j])
    assert values == [3, 3]
    assert rows == [0, 0]


def test_brute_single_row_ties():
    values, rows = brute_column_minima([[4, 4, 4, 4]])
    assert values == [4, 4, 4, 4]
    assert rows == [0, 0, 0, 0]


def test_brute_reports_unreachable_column():
    values, rows = brute_column_minima([[None, 1], [None, 2]])
    assert values == [None, 1]
    assert rows == [None, 0]


def test_smawk_matches_brute_on_random_monge(rng):
    for _ in range(400):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        m = random_monge_matrix(rng, nrows, ncols)
        assert is_monge(m)
        counter = [0]
        values, rows = smawk_column_minima(nrows, ncols, counting(m, counter))
        bvalues, brows = brute_column_minima(m)
        assert values == bvalues
        assert rows == brows


def test_is_monge_adjacent_check_matches_exhaustive(rng):
    # fully finite matrices take the adjacent-cell path; the quadruple scan
    # must give the same answer on Monge and non-Monge ones
    seen = {True: 0, False: 0}
    for _ in range(400):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        if rng.random() < 0.5:
            m = random_monge_matrix(rng, nrows, ncols)
            if rng.random() < 0.5:
                m[rng.randrange(nrows)][rng.randrange(ncols)] += rng.choice((-5, -1, 1, 5))
        else:
            m = [[rng.randint(0, 9) for _ in range(ncols)] for _ in range(nrows)]
        want = _is_monge_exhaustive(m)
        assert is_monge(m) == want
        seen[want] += 1
    assert min(seen.values()) > 50, seen


def test_smawk_query_count_linear(rng):
    # documented kernel bound: queries <= 4 * rows + 7 * cols
    for _ in range(200):
        nrows, ncols = rng.randint(1, 64), rng.randint(1, 64)
        m = random_monge_matrix(rng, nrows, ncols)
        counter = [0]
        smawk_column_minima(nrows, ncols, counting(m, counter))
        assert counter[0] <= 4 * (nrows + ncols)


def test_smawk_query_bound_on_ties(rng):
    # documented kernel bound: queries <= 4 * rows + 7 * cols.  Ties make
    # the last even column of every level scan all kept rows, so all-zero
    # n x (n - 1) matrices exceed 4 * (rows + cols) and approach 4.5.
    shapes = [(n, n - 1) for n in (4, 8, 16, 32, 64, 128, 256)]
    shapes += [(r, c) for r in range(1, 40, 2) for c in range(1, 40, 2)]
    matrices = [[[0] * c for _ in range(r)] for r, c in shapes]
    for hi in (0, 1):
        for _ in range(200):
            nrows, ncols = rng.randint(1, 64), rng.randint(1, 64)
            matrices.append(random_monge_matrix(rng, nrows, ncols, hi=hi))
    for m in matrices:
        nrows, ncols = len(m), len(m[0])
        counter = [0]
        values, rows = smawk_column_minima(nrows, ncols, counting(m, counter))
        assert (values, rows) == brute_column_minima(m)
        assert counter[0] <= 4 * nrows + 7 * ncols, (counter[0], nrows, ncols)


def test_minplus_row_matches_brute(rng):
    for _ in range(200):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        m = random_monge_matrix(rng, nrows, ncols)
        u = [rng.randint(0, 9) for _ in range(nrows)]
        got = minplus_row(u, m, 0, ncols)
        want = [min(u[i] + m[i][j] for i in range(nrows)) for j in range(ncols)]
        assert got == want


def test_substitute_identity_when_finite():
    m = [[1, 2], [3, 4]]
    out = substitute_infinities(m, 4)
    assert out == m


def test_substitute_small_example():
    m = [[0, 1, None], [1, 1, 1], [None, 1, 0]]
    ceiling = 1
    out = substitute_infinities(m, ceiling)
    assert all(v is not None for row in out for v in row)
    assert brute_column_minima(out)[0] == [0, 1, 0]
    assert is_monge(out, finite_only=False)
    # stand-ins exceed the detection bound
    assert out[0][2] > ceiling and out[2][0] > ceiling


def test_substitute_random_tables_stay_monge_and_preserve_minima(rng):
    sf = levenshtein("ab")
    for _ in range(200):
        a = random_text(rng, "ab", rng.randint(0, 6))
        b = random_text(rng, "ab", rng.randint(0, 6))
        ceiling = grid_ceiling(sf, a, b)
        d = build_direct(a, b, sf, ceiling)
        out = substitute_infinities(d.m, ceiling)
        assert is_monge(out, finite_only=False)
        assert is_totally_monotone(out)
        bvalues, brows = brute_column_minima(d.m)
        svalues, srows = brute_column_minima(out)
        s = d.s
        smawk_values, smawk_rows = smawk_column_minima(
            s, s, lambda i, j, _m=out: _m[i][j]
        )
        for j in range(s):
            if bvalues[j] is not None:
                assert svalues[j] == bvalues[j] and srows[j] == brows[j]
                assert smawk_values[j] == bvalues[j] and smawk_rows[j] == brows[j]
            else:
                assert svalues[j] > ceiling


def brute_minplus(m1, m2):
    cols = range(len(m2[0]))
    return [[min(x + m2[k][j] for k, x in enumerate(u)) for j in cols] for u in m1]


def minplus_rows(m1, m2):
    """The product m1 * m2, one ``minplus_row`` call per row of m1."""
    return [minplus_row(u, m2, 0, len(m2[0])) for u in m1]


def test_strict_mode_still_correct(rng, monkeypatch):
    monkeypatch.setenv("SLPDIST_STRICT", "1")
    for _ in range(20):
        m1 = random_monge_matrix(rng, 5, 5)
        m2 = random_monge_matrix(rng, 5, 5)
        assert minplus_rows(m1, m2) == brute_minplus(m1, m2)


def test_strict_mode_checks_and_falls_back_past_the_plain_scan(rng, monkeypatch):
    # 8 x 8 operands: 64 entries per row product, so every row goes through
    # the SMAWK recursion and then the strict cross-check
    monkeypatch.setenv("SLPDIST_STRICT", "1")
    for _ in range(20):
        m1 = random_monge_matrix(rng, 8, 8)
        m2 = random_monge_matrix(rng, 8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minplus_rows(m1, m2) == brute_minplus(m1, m2)
    # not totally monotone: the interpolation walks past the last kept row
    m1 = [
        [1, 3, 1, 3, 7, 3, 5, 3],
        [7, 9, 9, 0, 7, 5, 1, 1],
        [6, 3, 7, 2, 6, 5, 1, 6],
        [7, 6, 1, 2, 2, 2, 0, 2],
        [9, 7, 2, 9, 9, 7, 5, 2],
        [8, 8, 2, 0, 0, 1, 8, 2],
        [6, 3, 3, 0, 4, 3, 4, 8],
        [3, 9, 5, 4, 8, 6, 2, 0],
    ]
    m2 = [
        [5, 7, 9, 8, 6, 8, 2, 8],
        [2, 8, 8, 0, 7, 2, 9, 0],
        [2, 2, 2, 7, 9, 1, 8, 0],
        [5, 8, 8, 8, 7, 1, 8, 0],
        [3, 3, 4, 0, 1, 8, 7, 8],
        [0, 1, 7, 5, 9, 8, 9, 8],
        [3, 4, 7, 8, 8, 7, 8, 3],
        [8, 4, 8, 3, 7, 2, 6, 1],
    ]
    with pytest.warns(RuntimeWarning, match="not totally monotone"):
        assert minplus_rows(m1, m2) == brute_minplus(m1, m2)
    for _ in range(100):
        m1 = [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)]
        m2 = [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert minplus_rows(m1, m2) == brute_minplus(m1, m2)
