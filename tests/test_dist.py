from itertools import accumulate

import pytest

from conftest import (
    block_outputs_by_grid_dp,
    dist_by_path_enumeration,
    grid_ceiling,
    random_scoring,
    random_text,
)
from oracles import brute_column_minima, is_monge, with_none
from slpdist import (
    InvariantViolation,
    ScoringFunction,
    Repository,
    apply_inputs,
    build_direct,
    from_plain,
    levenshtein,
    merge_horizontal,
    merge_vertical,
)
from slpdist import dist
from slpdist.dist import DistTable, Sweep, Unbuilt, input_position, output_position
from slpdist.monge import SCAN_CELLS


def test_boundary_orderings():
    # h=1, w=1: inputs climb the left column then walk the top row
    assert [input_position(1, 1, k) for k in range(3)] == [(1, 0), (0, 0), (0, 1)]
    assert [output_position(1, 1, k) for k in range(3)] == [(1, 0), (1, 1), (0, 1)]


def test_build_direct_single_mismatch():
    d = build_direct("a", "b", levenshtein("ab"), 2)
    assert with_none(d) == [[0, 1, None], [1, 1, 1], [None, 1, 0]]


def test_build_direct_single_match_diagonal():
    d = build_direct("a", "a", levenshtein("ab"), 2)
    assert d.rows[1][1] == 0


def test_build_direct_refuses_a_ceiling_below_its_longest_path():
    # with ceiling 2, the paths of weight 3 and 4 would read as unreachable
    sf = levenshtein("ab")
    assert build_direct("a", "bbb", sf, 4).rows[1] == [1, 1, 2, 3, 3]
    with pytest.raises(ValueError, match="ceiling"):
        build_direct("a", "bbb", sf, 2)
    with pytest.raises(ValueError, match="ceiling"):
        build_direct("a", "bbb", sf, 3)


def test_build_direct_bounds_paths_by_the_costs_its_block_reads():
    # DEL c = 9 is the table's largest cost, but block ("a", "bb") never
    # deletes a c: its paths take at most 3 steps of at most 3 each
    chars = ("a", "b", "c")
    sub = {(x, y): (0 if x == y else 3) for x in chars for y in chars}
    sf = ScoringFunction(chars, {"a": 2, "b": 1, "c": 9}, {"a": 1, "b": 1, "c": 1}, sub)
    at_grid = build_direct("a", "bb", sf, grid_ceiling(sf, "a", "bb"))
    assert grid_ceiling(sf, "a", "bb") == 27
    assert with_none(build_direct("a", "bb", sf, 9)) == with_none(at_grid)
    with pytest.raises(ValueError, match="ceiling 8 is below 9"):
        build_direct("a", "bb", sf, 8)


def test_corner_entries_are_zero(rng):
    sf = levenshtein("ab")
    for _ in range(30):
        a = random_text(rng, "ab", rng.randint(0, 5))
        b = random_text(rng, "ab", rng.randint(0, 5))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        assert d.rows[0][0] == 0
        assert d.rows[d.s - 1][d.s - 1] == 0


def test_build_direct_matches_path_enumeration(rng):
    for _ in range(60):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 3))
        b = random_text(rng, sigma, rng.randint(0, 3))
        got = with_none(build_direct(a, b, sf, grid_ceiling(sf, a, b)))
        assert got == dist_by_path_enumeration(a, b, sf)


def test_staircase_reachability(rng):
    sf = levenshtein("ab")
    for _ in range(40):
        a = random_text(rng, "ab", rng.randint(0, 6))
        b = random_text(rng, "ab", rng.randint(0, 6))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        h, w = d.h, d.w
        for i, row in enumerate(with_none(d)):
            finite = [j for j in range(d.s) if row[j] is not None]
            lo, hi = max(0, i - h), min(d.s - 1, i + w)
            assert finite == list(range(lo, hi + 1))


def test_tables_are_monge_on_finite(rng):
    for _ in range(40):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        assert is_monge(with_none(build_direct(a, b, sf, grid_ceiling(sf, a, b))))


def test_merge_horizontal_example():
    sf = levenshtein("abc")
    C = grid_ceiling(sf, "a", "bc")
    merged = merge_horizontal(build_direct("a", "b", sf, C), build_direct("a", "c", sf, C))
    assert merged.rows == build_direct("a", "bc", sf, C).rows
    assert merged.a == "a" and merged.b == "bc"


def test_merge_vertical_example():
    sf = levenshtein("abc")
    C = grid_ceiling(sf, "ac", "b")
    merged = merge_vertical(build_direct("a", "b", sf, C), build_direct("c", "b", sf, C))
    assert merged.rows == build_direct("ac", "b", sf, C).rows


def test_merge_with_empty_side_is_identity():
    sf = levenshtein("ab")
    C = grid_ceiling(sf, "ab", "ba")
    d = build_direct("ab", "ba", sf, C)
    right = merge_horizontal(d, build_direct("ab", "", sf, C))
    assert right.rows == d.rows
    left = merge_horizontal(build_direct("ab", "", sf, C), d)
    assert left.rows == d.rows
    below = merge_vertical(d, build_direct("", "ba", sf, C))
    assert below.rows == d.rows
    above = merge_vertical(build_direct("", "ba", sf, C), d)
    assert above.rows == d.rows


def test_merge_requires_shared_substring():
    sf = levenshtein("ab")
    with pytest.raises(ValueError):
        merge_horizontal(build_direct("a", "b", sf, 4), build_direct("b", "b", sf, 4))
    with pytest.raises(ValueError):
        merge_vertical(build_direct("a", "b", sf, 4), build_direct("a", "a", sf, 4))
    # and a shared ceiling: tables of one grid are stored against one
    for merge in (merge_horizontal, merge_vertical):
        with pytest.raises(ValueError, match="ceilings 4 and 5"):
            merge(build_direct("a", "b", sf, 4), build_direct("a", "b", sf, 5))


def test_merge_refuses_path_weights_above_the_ceiling():
    # every path in (a, bb) and (aa, b) weighs at most 2, but (a, bbb) and
    # (aaa, b) hold paths of weight 3, which a ceiling of 2 would turn into
    # unreachable entries
    sf = levenshtein("ab")
    d, d3 = build_direct("a", "b", sf, 2), build_direct("a", "b", sf, 3)
    for merge, text in ((merge_horizontal, ("a", "bbb")), (merge_vertical, ("aaa", "b"))):
        twice = merge(d, d)
        assert with_none(twice) == with_none(merge(d3, d3))
        with pytest.raises(ValueError, match="exceeds the ceiling 2"):
            merge(twice, d)
        assert with_none(merge(merge(d3, d3), d3)) == with_none(build_direct(*text, sf, 4))


def _quad(d11, d12, d21, d22):
    """The 2x2 arrangement (a1, b1) (a1, b2) over (a2, b1) (a2, b2)."""
    return merge_vertical(merge_horizontal(d11, d12), merge_horizontal(d21, d22))


def test_merge_quad_single_characters():
    sf = levenshtein("ab")
    C = grid_ceiling(sf, "ab", "ba")
    quad = _quad(
        build_direct("a", "b", sf, C),
        build_direct("a", "a", sf, C),
        build_direct("b", "b", sf, C),
        build_direct("b", "a", sf, C),
    )
    assert quad.rows == build_direct("ab", "ba", sf, C).rows


def test_merge_quad_equal_characters():
    sf = levenshtein("ab")
    C = grid_ceiling(sf, "aa", "aa")
    d = build_direct("a", "a", sf, C)
    quad = _quad(d, d, d, d)
    assert quad.rows == build_direct("aa", "aa", sf, C).rows
    assert quad.rows[quad.s - 1][quad.s - 1] == 0


def test_merge_quad_random(rng):
    for _ in range(100):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a1, a2, b1, b2 = (
            random_text(rng, sigma, rng.randint(0, 6)) for _ in range(4)
        )
        C = grid_ceiling(sf, a1, a2, b1, b2)
        quad = _quad(
            build_direct(a1, b1, sf, C),
            build_direct(a1, b2, sf, C),
            build_direct(a2, b1, sf, C),
            build_direct(a2, b2, sf, C),
        )
        assert quad.rows == build_direct(a1 + a2, b1 + b2, sf, C).rows


def _merge_operands(rng):
    """Random texts for a horizontal merge (a | b1 b2) and a vertical one
    (a over a2, both over b1), each empty one time in four, a scoring
    table, and one ceiling that bounds every path in either merged block."""
    sigma = rng.choice(("ab", "abc"))
    sf = random_scoring(rng, sigma)
    a, a2, b1, b2 = (
        random_text(rng, sigma, 0 if rng.random() < 0.25 else rng.randint(1, 8))
        for _ in range(4)
    )
    ceiling = grid_ceiling(sf, a, a2, b1, b2) + rng.randint(0, 3)
    return sf, a, a2, b1, b2, ceiling


def test_merges_match_direct_random(rng):
    for _ in range(160):
        sf, a, a2, b1, b2, C = _merge_operands(rng)
        got = merge_horizontal(build_direct(a, b1, sf, C), build_direct(a, b2, sf, C))
        want = build_direct(a, b1 + b2, sf, C)
        assert (got.rows, got.ceiling) == (want.rows, want.ceiling)
        got = merge_vertical(build_direct(a, b1, sf, C), build_direct(a2, b1, sf, C))
        want = build_direct(a + a2, b1, sf, C)
        assert (got.rows, got.ceiling) == (want.rows, want.ceiling)


def _kernel_calls(d1, d2, steps):
    """The kernel calls a vertical merge of d1 over d2 must make, as
    ``(u, rows, jlo, jhi)``, one per input k > 0 of d1 (row 0 is copied).
    Input k reaches the shared vertices from c = max(k - h1, 0) on; its
    call gets c and every t > c that beats the path through t - 1 plus one
    step along the shared row (``steps[t - 1]``, read off the costs), and
    all of d2's outputs from column c on.  A call the kernel would scan
    keeps every reachable vertex."""
    h1, h2, w = d1.h, d2.h, d1.w
    calls = []
    for k in range(1, d1.s):
        c = max(k - h1, 0)
        row = d1.rows[k]
        ts = [t for t in range(c, w + 1) if t == c or row[t] < row[t - 1] + steps[t - 1]]
        if (w + 1 - c) * (d2.s - c) <= SCAN_CELLS:
            ts = list(range(c, w + 1))
        calls.append(([row[t] for t in ts], [d2.rows[h2 + t] for t in ts], c, d2.s))
    return calls


def _dropped(d1, calls):
    """Shared vertices reachable in a vertical merge of d1 that its kernel
    calls left out."""
    return sum(d1.w + 1 - c - len(u) for u, _, c, _ in calls)


def test_merges_hand_the_kernel_only_reachable_vertices(rng, monkeypatch):
    calls = []
    real = dist.minplus_row

    def recording(u, rows, jlo, jhi, counter=None):
        calls.append((list(u), list(rows), jlo, jhi))
        return real(u, rows, jlo, jhi, counter)

    monkeypatch.setattr(dist, "minplus_row", recording)
    dropped = 0
    for _ in range(160):
        sf, a, a2, b1, b2, C = _merge_operands(rng)
        d1 = build_direct(a, b1, sf, C)
        d2 = build_direct(a, b2, sf, C)
        calls.clear()
        merge_horizontal(d1, d2)
        # the vertical merge of the mirrored tables (b1, a) over (b2, a),
        # whose shared row steps through a's deletions
        mirrored = dist._mirrored(d1), dist._mirrored(d2)
        assert calls == _kernel_calls(*mirrored, [sf.delete[ch] for ch in a])
        assert all(v <= C for u, *_ in calls for v in u)
        dropped += _dropped(mirrored[0], calls)
        d2 = build_direct(a2, b1, sf, C)
        calls.clear()
        merge_vertical(d1, d2)
        assert calls == _kernel_calls(d1, d2, [sf.insert[ch] for ch in b1])
        assert all(v <= C for u, *_ in calls for v in u)
        dropped += _dropped(d1, calls)
    assert dropped > 0


def _tying_scoring(rng, kind):
    """Scoring tables under which many shared vertices tie their left
    neighbour plus one step: free indels, one indel cost for every
    character, a one-letter alphabet, or Decimal costs scaled to ints."""
    from decimal import Decimal

    from slpdist.scoring import scaled_to_ints

    sigma = "a" if kind == "one letter" else rng.choice(("ab", "abc"))
    sf = random_scoring(rng, sigma)
    if kind in ("free indels", "uniform indels"):
        k = 0 if kind == "free indels" else rng.randint(1, 4)
        sf = sf._replace(delete=dict.fromkeys(sigma, k), insert=dict.fromkeys(sigma, k))
    if kind == "decimal":
        costs = [Decimal(t) for t in ("0.5", "1.25", "2", "0.75", "1.0", "3.50")]
        sf = ScoringFunction(
            tuple(sigma),
            {c: rng.choice(costs) for c in sigma},
            {c: rng.choice(costs) for c in sigma},
            {(x, y): 0 if x == y else rng.choice(costs) for x in sigma for y in sigma},
        )
        sf = scaled_to_ints(sf)[0]
    return sf, sigma


@pytest.mark.parametrize("kind", ["free indels", "uniform indels", "one letter", "decimal"])
def test_merges_stay_exact_where_vertices_are_dropped(rng, monkeypatch, kind):
    calls = []
    real = dist.minplus_row

    def recording(u, rows, jlo, jhi, counter=None):
        calls.append((u, rows, jlo, jhi))
        return real(u, rows, jlo, jhi, counter)

    monkeypatch.setattr(dist, "minplus_row", recording)
    dropped = 0
    for _ in range(40):
        sf, sigma = _tying_scoring(rng, kind)
        a, a2, b1, b2 = (random_text(rng, sigma, rng.randint(1, 10)) for _ in range(4))
        C = grid_ceiling(sf, a, a2, b1, b2)
        d1 = build_direct(a, b1, sf, C)
        calls.clear()
        got = merge_horizontal(d1, build_direct(a, b2, sf, C))
        assert got.rows == build_direct(a, b1 + b2, sf, C).rows
        dropped += _dropped(dist._mirrored(d1), calls)
        calls.clear()
        got = merge_vertical(d1, build_direct(a2, b1, sf, C))
        assert got.rows == build_direct(a + a2, b1, sf, C).rows
        dropped += _dropped(d1, calls)
    assert dropped > 0


def test_mirrored_table_is_the_table_of_the_transposed_block(rng):
    for _ in range(200):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        # DEL and INS swapped, SUB transposed
        sf_t = ScoringFunction(
            sf.alphabet,
            sf.insert,
            sf.delete,
            {(y, x): cost for (x, y), cost in sf.substitute.items()},
        )
        a, b = (random_text(rng, sigma, rng.randint(0, 8)) for _ in range(2))
        C = grid_ceiling(sf, a, b) + rng.randint(0, 3)
        d = build_direct(a, b, sf, C)
        mirrored = dist._mirrored(d)
        assert (mirrored.a, mirrored.b) == (b, a)
        assert mirrored.rows == build_direct(b, a, sf_t, C).rows
        assert dist._mirrored(mirrored).rows == d.rows


def test_merges_share_one_object_per_computed_value(rng):
    # costs above 256, so path weights are not CPython's shared small ints
    for _ in range(60):
        sigma = rng.choice(("ab", "abc"))
        sf = ScoringFunction(
            tuple(sigma),
            {c: rng.randint(300, 700) for c in sigma},
            {c: rng.randint(300, 700) for c in sigma},
            {(x, y): 0 if x == y else rng.randint(300, 700) for x in sigma for y in sigma},
        )
        a, a2, b1, b2 = (random_text(rng, sigma, rng.randint(1, 8)) for _ in range(4))
        C = grid_ceiling(sf, a, a2, b1, b2)
        d1 = build_direct(a, b1, sf, C)
        for merge, d2 in (
            (merge_horizontal, build_direct(a, b2, sf, C)),
            (merge_vertical, build_direct(a2, b1, sf, C)),
        ):
            merged = merge(d1, d2)
            operand_ids = {id(v) for d in (d1, d2) for row in d.rows for v in row}
            objects = {}
            for row in merged.rows:
                for v in row:
                    if v <= C and id(v) not in operand_ids:
                        objects.setdefault(v, set()).add(id(v))
            assert all(len(ids) == 1 for ids in objects.values())


def _steps(values):
    """An absolute boundary vector in the difference form of
    ``apply_inputs``: the value at vertex 0, then each value minus the one
    before it."""
    return [values[0]] + [v - u for u, v in zip(values, values[1:])]


def _absolute(steps):
    return list(accumulate(steps))


class _Sweep(Sweep):
    """What the sweep hands ``apply_inputs``, kept across calls, with a
    budget no test reaches and ``repo`` to build the records it meets."""

    def __init__(self, repo=None):
        super().__init__(10**6, repo)

    def apply(self, d, steps, h=None):
        """``apply_inputs`` on a difference-form vector, its first h steps
        (the table's h by default) up the left edge and the rest along the
        top, read back as a tuple with element 0 absolute."""
        h = d.h if h is None else h
        left, top = (self.intern(tuple(e)) for e in (steps[1 : h + 1], steps[h + 1 :]))
        out = apply_inputs(d, steps[0], left, top, self)
        # the traced bench counts boundary cells as len(out)
        assert len(out) == d.s
        first, *rest = out
        return (steps[0] + first, *rest)


def _apply(d, steps):
    return _Sweep().apply(d, steps)


def test_apply_inputs_example():
    # ceiling 1: the corner entries 2 stand for "no path"
    d = DistTable("a", "b", [[0, 1, 2], [1, 1, 1], [2, 1, 0]], 1)
    assert with_none(d) == [[0, 1, None], [1, 1, 1], [None, 1, 0]]
    # absolute outputs [0, 1, 0]
    assert _apply(d, (0, 0, 0)) == (0, 1, -1)


def test_apply_inputs_zero_vector_gives_column_minima(rng):
    sf = levenshtein("ab")
    for _ in range(20):
        a = random_text(rng, "ab", rng.randint(0, 5))
        b = random_text(rng, "ab", rng.randint(0, 5))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        # all zeros in either form
        out = _apply(d, (0,) * d.s)
        assert _absolute(out) == brute_column_minima(with_none(d))[0]


def test_apply_inputs_length_check():
    d = build_direct("a", "b", levenshtein("ab"), 2)
    for steps, h in (((0, 0), 1), ((0, 0, 0, 0), 1), ((0, 0, 0), 2), ((0, 0, 0), 0)):
        with pytest.raises(ValueError, match="expected 1 left and 1 top steps"):
            _Sweep().apply(d, steps, h)
    # and the sign of the absolute inputs: brute force gives [-100, -99, 0]
    # on [-100, 0, 0] here, but a stand-in plus -100 would win the last
    # column, so the kernel never sees it; [0, -1, 0] starts non-negative
    d = DistTable("a", "b", [[0, 1, 2], [1, 1, 1], [2, 1, 0]], 1)
    sweep = _Sweep()
    for absolute in ([-100, 0, 0], [0, -1, 0]):
        with pytest.raises(ValueError, match="non-negative"):
            sweep.apply(d, _steps(absolute))
    # a refusal stores nothing and interns only its four input edges
    assert not sweep.memo and sweep.interned == 4
    # a memo hit is exact for any base, by shift-equivariance, and returns
    # the stored outputs as they are
    assert sweep.apply(d, (0, 0, 0)) == (0, 1, -1)
    queries = sweep.queries[0]
    assert sweep.apply(d, (-1, 0, 0)) == (-1, 1, -1)
    assert (sweep.queries[0], sweep.hits) == (queries, 1)
    table = sweep.table
    ((key, out),) = sweep.memo.items()
    assert key == (d, table[(0,)], table[(0,)])
    assert out.bottom is table[(1,)] and out.right is table[(-1,)]
    assert apply_inputs(d, -1, *key[1:], sweep) is out


def test_apply_inputs_checks_the_ceiling_on_hits_too():
    # the ceiling bounds every boundary value of the grid, so an output
    # above it means a boundary the grid cannot hold, memo hit or not
    d = DistTable("a", "b", [[0, 1, 2], [1, 1, 1], [2, 1, 0]], 1)
    hit, miss = _Sweep(), _Sweep()
    assert hit.apply(d, (0, 0, 0)) == (0, 1, -1)
    for sweep in (hit, miss):
        with pytest.raises(InvariantViolation, match="unreachable"):
            sweep.apply(d, (1, 0, 0))
    assert hit.hits == 1 and miss.hits == 0


def test_edges_are_interned_within_their_budget():
    # equal steps give one Edge; an edge that would take the table past its
    # budget clears the table and the memo first, and edges made before
    # stay exact
    sweep = Sweep(4, None)
    memo = sweep.memo
    memo["key"] = "value"
    a = sweep.intern((1, 2))
    assert sweep.intern((1, 2)) is a and (a.steps, a.total) == ((1, 2), 3)
    b = sweep.intern((0, -1))
    assert (sweep.held, sweep.interned, sweep.resets, len(memo)) == (4, 2, 0, 1)
    c = sweep.intern((5,))
    assert (sweep.held, sweep.interned, sweep.resets, memo) == (1, 3, 1, {})
    assert sweep.table == {(5,): c}
    assert sweep.intern((1, 2)) is not a and a.total == 3 and b.total == -1
    # a memo record is charged one unit, against the same budget
    memo["key"] = "value"
    sweep.charge(1)
    assert (sweep.held, sweep.resets, len(memo)) == (4, 1, 1)
    sweep.charge(1)
    assert (sweep.held, sweep.resets, memo, sweep.table) == (1, 2, {}, {})


def test_apply_inputs_matches_grid_dp(rng):
    for _ in range(80):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        # a ceiling that bounds the boundary values too, as a grid's does
        d = build_direct(a, b, sf, 30 + grid_ceiling(sf, a, b))
        inputs = [rng.randint(0, 30) for _ in range(d.s)]
        out = _apply(d, tuple(_steps(inputs)))
        assert _absolute(out) == block_outputs_by_grid_dp(a, b, inputs, sf)


def test_apply_inputs_offset_equivariance(rng):
    # adding 7 to every absolute input moves only element 0 of the outputs
    sf = levenshtein("ab")
    for _ in range(20):
        a = random_text(rng, "ab", rng.randint(1, 5))
        b = random_text(rng, "ab", rng.randint(1, 5))
        d = build_direct(a, b, sf, 9 + 7 + grid_ceiling(sf, a, b))
        steps = tuple(_steps([rng.randint(0, 9) for _ in range(d.s)]))
        base = _apply(d, steps)
        shifted = _apply(d, (steps[0] + 7,) + steps[1:])
        assert shifted == (base[0] + 7,) + base[1:]


def test_apply_inputs_matches_brute_column_minima(rng):
    # the outputs are the steps of the column minima of the absolute
    # product, with a memo and without; a hit at another base shifts only
    # element 0
    for _ in range(60):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        d = build_direct(a, b, sf, 40 + grid_ceiling(sf, a, b))
        inputs = [rng.randint(0, 30) for _ in range(d.s)]
        product = [
            [None if v is None else u + v for v in row] for u, row in zip(inputs, with_none(d))
        ]
        want = tuple(_steps(brute_column_minima(product)[0]))
        steps = tuple(_steps(inputs))
        sweep = _Sweep()
        assert sweep.apply(d, steps) == want
        shift = rng.randint(-inputs[0], 10)
        hit = sweep.apply(d, (steps[0] + shift,) + steps[1:])
        assert hit == (want[0] + shift,) + want[1:]
        assert sweep.hits == 1 and len(sweep.memo) == 1


def _tied_inputs(rng, d, top):
    """Absolute inputs of d, about half of which tie their neighbour
    towards the top-left corner plus the step between them, read off the
    table's first column below the corner and its last one right of it,
    as the grid values the sweep carries often do; the others lie below
    or above that."""
    h, s, rows = d.h, d.s, d.rows
    values = [0] * s
    values[h] = rng.randint(0, top)
    for i in [*range(h - 1, -1, -1), *range(h + 1, s)]:
        j, col = (i + 1, 0) if i < h else (i - 1, -1)
        step = rows[j][col] - rows[i][col]
        values[i] = values[j] + step - (rng.randint(-step, step) if rng.random() < 0.5 else 0)
    return values


def test_sweep_misses_hand_the_kernel_only_undominated_inputs(rng, monkeypatch):
    # a miss drops each input below the corner whose value is the value
    # above it plus the step down, and each input right of it whose value is
    # the value on its left plus the step along: that neighbour is never
    # worse, for any output.  The corner stays, the kernel gets the kept
    # values and stored rows in order, and the outputs are the column
    # minima over every input
    calls = []
    real = dist.minplus_row

    def kernel(u, rows, jlo, jhi, counter=None):
        calls.append((list(u), list(rows), jlo, jhi))
        return real(u, rows, jlo, jhi, counter)

    monkeypatch.setattr(dist, "minplus_row", kernel)
    dropped = 0
    for _ in range(80):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 7))
        b = random_text(rng, sigma, rng.randint(0, 7))
        d = build_direct(a, b, sf, 30 + 3 * grid_ceiling(sf, a, b))
        inputs = _tied_inputs(rng, d, 30)
        rows, h = d.rows, d.h
        product = [
            [None if v is None else u + v for v in row] for u, row in zip(inputs, with_none(d))
        ]
        calls.clear()
        assert _apply(d, tuple(_steps(inputs))) == tuple(_steps(brute_column_minima(product)[0]))
        down = {i: inputs[i + 1] + rows[i + 1][0] - rows[i][0] for i in range(h)}
        along = {i: inputs[i - 1] + rows[i - 1][-1] - rows[i][-1] for i in range(h + 1, d.s)}
        ties = {i for i, tie in (down | along).items() if inputs[i] == tie}
        keep = [i for i in range(d.s) if i not in ties]
        ((u, handed, jlo, jhi),) = calls
        assert h in keep and (jlo, jhi) == (0, d.s)
        assert u == [inputs[i] for i in keep]
        assert [id(row) for row in handed] == [id(rows[i]) for i in keep]
        dropped += len(ties)
    assert dropped > 0


def _outcome(d, steps, h=None, sweep=None, repo=None):
    """What applying ``steps`` to d gives: the outputs and their peak, or
    the error's type and message.  ``repo`` builds a record on demand."""
    sweep = sweep or _Sweep(repo)
    try:
        out = sweep.apply(d, steps, h)
    except (ValueError, InvariantViolation) as exc:
        return type(exc), str(exc)
    (peak,) = [record.peak for key, record in sweep.memo.items() if key[0] is d]
    return out, peak


def _shared_boundary_above_the_ceiling(op, d1, d2):
    """Absolute inputs under which every output of the merged block is at
    most the ceiling, while d1's outputs on the shared boundary are above
    it: the inputs that reach the shared boundary are all above the
    ceiling, and the rest are 0."""
    high = d1.ceiling + 1
    if op == "vmerge":
        # lower left column 0, upper left column and top row high but for
        # the top-right corner
        return [0] * d2.h + [high] * (d1.h + d1.w) + [0]
    # bottom-left corner 0, the rest of the left column and d1's top row
    # high, d2's top row 0
    return [0] + [high] * (d1.h + d1.w) + [0] * d2.w


def _hand_made(op, d1, d2, sf):
    """An unbuilt record of d1 and d2 made by hand, with the table it
    stands for, held in a repository of its own that builds it."""
    table = (merge_vertical if op == "vmerge" else merge_horizontal)(d1, d2)
    repo = Repository(from_plain(table.a), from_plain(table.b), sf)
    record = Unbuilt(None, op, d1, d2)
    repo.hold(d1)
    repo.hold(d2)
    return record, table, repo


@pytest.mark.parametrize("kind", ["random", "free indels", "uniform indels", "one letter", "decimal"])
def test_unbuilt_pairs_apply_inputs_as_their_merged_table(rng, kind):
    # pushing a block through the two operands gives the merged table's
    # outputs and peak, for any inputs: grid values or not, so the vertex
    # both operands read may be cheaper through d1; and the same refusals,
    # for step counts, negative inputs and the ceiling, which bounds the
    # block's outputs and not the shared boundary.  Records are swept over
    # and over, so some are built part way through, on demand or by hand,
    # and the rest stay unbuilt (records were made as ``Unbuilt(op, d1,
    # d2)`` and never built while the repository decided before the sweep)
    seen = {"ok": 0, "ceiling": 0, "built": 0, "unbuilt": 0}
    for _ in range(40):
        if kind == "random":
            sigma = rng.choice(("ab", "abc"))
            sf = random_scoring(rng, sigma)
        else:
            sf, sigma = _tying_scoring(rng, kind)
        a, a2, b1, b2 = (random_text(rng, sigma, rng.randint(1, 7)) for _ in range(4))
        C = grid_ceiling(sf, a, a2, b1, b2) + rng.randint(0, 20)
        d1 = build_direct(a, b1, sf, C)
        for op, d2 in (("vmerge", build_direct(a2, b1, sf, C)), ("hmerge", build_direct(a, b2, sf, C))):
            record, table, repo = _hand_made(op, d1, d2, sf)
            assert (record.h, record.w, record.s) == (table.h, table.w, table.s)
            inputs = [[rng.randint(0, top) for _ in range(table.s)] for top in (20, C // 2)]
            inputs += [[C + 1] * table.s, _shared_boundary_above_the_ceiling(op, d1, d2)]
            # built on demand or not, a record may also be built by hand
            built_at = rng.randrange(len(inputs) + 1)
            for i, values in enumerate(inputs):
                if i == built_at and record.table is None:
                    repo.build(record)
                steps = tuple(_steps(values))
                want = _outcome(table, steps)
                assert _outcome(record, steps, repo=repo) == want
                seen["ok" if want[0] is not InvariantViolation else "ceiling"] += 1
            assert want[0] is not InvariantViolation
            # a hit at another base is exact, and counts one block
            sweep = _Sweep(repo)
            steps = tuple(_steps(inputs[0]))
            first = sweep.apply(record, steps)
            queries = sweep.queries[0]
            again = sweep.apply(record, (steps[0] + 3,) + steps[1:])
            assert again == (first[0] + 3,) + first[1:]
            assert (sweep.queries[0], sweep.hits) == (queries, 1)
            # refusals: step counts, then negative absolute inputs
            for h in (table.h - 1, table.h + 1):
                assert _outcome(record, steps, h, repo=repo) == _outcome(table, steps, h)
            assert _outcome(record, steps[:-1], repo=repo) == _outcome(table, steps[:-1])
            values = list(inputs[0])
            values[rng.randrange(len(values))] = -1
            sweep = _Sweep(repo)
            assert _outcome(record, tuple(_steps(values)), sweep=sweep)[0] is ValueError
            assert _outcome(table, tuple(_steps(values)))[0] is ValueError
            assert not sweep.memo
            seen["unbuilt" if record.table is None else "built"] += 1
    assert all(seen.values()), seen
