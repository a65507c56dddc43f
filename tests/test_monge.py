from conftest import (
    CountingRow,
    grid_ceiling,
    random_monge_matrix,
    random_text,
    smawk,
)
from oracles import (
    _is_monge_exhaustive,
    brute_column_minima,
    is_monge,
    is_totally_monotone,
    with_none,
)
from slpdist import build_direct, levenshtein
from slpdist.monge import minplus_row, substitute_infinities


def test_smawk_two_by_two():
    values, rows, _, _ = smawk([[1, 2], [2, 1]])
    assert values == [1, 1]
    assert rows == [0, 1]


def test_smawk_single_cell():
    values, rows, _, _ = smawk([[5]])
    assert values == [5]
    assert rows == [0]


def test_smawk_tie_breaks_to_smallest_row():
    values, rows, _, _ = smawk([[3, 3], [3, 3], [3, 3]])
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
        values, rows, _, _ = smawk(m)
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
        _, _, _, reads = smawk(m)
        assert reads <= 4 * (nrows + ncols)


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
        values, rows, _, reads = smawk(m)
        assert (values, rows) == brute_column_minima(m)
        assert reads <= 4 * nrows + 7 * ncols, (reads, nrows, ncols)


def test_minplus_row_matches_brute(rng):
    for _ in range(200):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        m = random_monge_matrix(rng, nrows, ncols)
        u = [rng.randint(0, 9) for _ in range(nrows)]
        # the full width, and a sub-range [jlo, jhi) as the merges ask for
        jlo = rng.randint(1, ncols - 1) if ncols > 1 else 0
        jhi = rng.randint(jlo + 1, ncols)
        for lo, hi in ((0, ncols), (jlo, jhi)):
            got = minplus_row(u, m, lo, hi)
            want = [min(u[i] + m[i][j] for i in range(nrows)) for j in range(lo, hi)]
            assert got == want


def test_kernel_query_count_equals_element_reads(rng):
    # merge_queries, sweep_queries and the traced kernel queries all add up
    # the count the kernel reports, so it must be the number of elements it
    # read: in the SMAWK recursion, and on each of minplus_row's paths (one
    # row, the small scan, SMAWK) over full widths and [jlo, jhi) sub-ranges
    shapes = [(n, n - 1) for n in (4, 8, 16, 32, 64)]
    shapes += [(r, c) for r in range(1, 40, 3) for c in range(1, 40, 3)]
    cases = [([[0] * c for _ in range(r)], [0] * r) for r, c in shapes]
    for _ in range(300):
        nrows, ncols = rng.randint(1, 64), rng.randint(1, 64)
        m = random_monge_matrix(rng, nrows, ncols, hi=rng.choice((0, 1, 9)))
        cases.append((m, [rng.randint(0, 9) for _ in range(nrows)]))
    paths = {"row": 0, "scan": 0, "smawk": 0}
    for m, u in cases:
        nrows, ncols = len(m), len(m[0])
        _, _, queries, reads = smawk(m)
        assert queries == reads, (nrows, ncols)
        jlo = rng.randint(1, ncols - 1) if ncols > 1 else 0
        jhi = rng.randint(jlo + 1, ncols)
        for lo, hi in ((0, ncols), (jlo, jhi)):
            reads, counter = [0], [0]
            rows = [CountingRow(row, reads) for row in m]
            minplus_row(u, rows, lo, hi, counter)
            assert counter == reads, (nrows, lo, hi)
            if nrows == 1:
                paths["row"] += 1
            else:
                paths["scan" if nrows * (hi - lo) <= 32 else "smawk"] += 1
    assert min(paths.values()) > 20, paths


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
        out = substitute_infinities(with_none(d), ceiling)
        assert is_monge(out, finite_only=False)
        assert is_totally_monotone(out)
        bvalues, brows = brute_column_minima(with_none(d))
        svalues, srows = brute_column_minima(out)
        smawk_values, smawk_rows, _, _ = smawk(out)
        for j in range(d.s):
            if bvalues[j] is not None:
                assert svalues[j] == bvalues[j] and srows[j] == brows[j]
                assert smawk_values[j] == bvalues[j] and smawk_rows[j] == brows[j]
            else:
                assert svalues[j] > ceiling
