import pytest

from conftest import (
    block_outputs_by_grid_dp,
    dist_by_path_enumeration,
    grid_ceiling,
    random_scoring,
    random_text,
)
from slpdist import (
    ScoringFunction,
    apply_inputs,
    build_direct,
    is_monge,
    levenshtein,
    merge_horizontal,
    merge_vertical,
)
from slpdist import dist
from slpdist.dist import DistTable, input_position, output_position


def test_boundary_orderings():
    # h=1, w=1: inputs climb the left column then walk the top row
    assert [input_position(1, 1, k) for k in range(3)] == [(1, 0), (0, 0), (0, 1)]
    assert [output_position(1, 1, k) for k in range(3)] == [(1, 0), (1, 1), (0, 1)]


def test_build_direct_single_mismatch():
    d = build_direct("a", "b", levenshtein("ab"), 2)
    assert d.m == [[0, 1, None], [1, 1, 1], [None, 1, 0]]


def test_build_direct_single_match_diagonal():
    d = build_direct("a", "a", levenshtein("ab"), 2)
    assert d.m[1][1] == 0


def test_build_direct_refuses_a_ceiling_below_its_longest_path():
    # with ceiling 2, the paths of weight 3 and 4 would read as unreachable
    sf = levenshtein("ab")
    assert build_direct("a", "bbb", sf, 4).m[1] == [1, 1, 2, 3, 3]
    with pytest.raises(ValueError, match="ceiling"):
        build_direct("a", "bbb", sf, 2)
    with pytest.raises(ValueError, match="ceiling"):
        build_direct("a", "bbb", sf, 3)


def test_corner_entries_are_zero(rng):
    sf = levenshtein("ab")
    for _ in range(30):
        a = random_text(rng, "ab", rng.randint(0, 5))
        b = random_text(rng, "ab", rng.randint(0, 5))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        assert d.m[0][0] == 0
        assert d.m[d.s - 1][d.s - 1] == 0


def test_build_direct_matches_path_enumeration(rng):
    for _ in range(60):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 3))
        b = random_text(rng, sigma, rng.randint(0, 3))
        got = build_direct(a, b, sf, grid_ceiling(sf, a, b)).m
        assert got == dist_by_path_enumeration(a, b, sf)


def test_staircase_reachability(rng):
    sf = levenshtein("ab")
    for _ in range(40):
        a = random_text(rng, "ab", rng.randint(0, 6))
        b = random_text(rng, "ab", rng.randint(0, 6))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        h, w = d.h, d.w
        for i in range(d.s):
            finite = [j for j in range(d.s) if d.m[i][j] is not None]
            lo, hi = max(0, i - h), min(d.s - 1, i + w)
            assert finite == list(range(lo, hi + 1))


def test_tables_are_monge_on_finite(rng):
    for _ in range(40):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        assert is_monge(build_direct(a, b, sf, grid_ceiling(sf, a, b)).m)


def test_merge_horizontal_example():
    sf = levenshtein("abc")
    C = grid_ceiling(sf, "a", "bc")
    merged = merge_horizontal(build_direct("a", "b", sf, C), build_direct("a", "c", sf, C))
    assert merged.m == build_direct("a", "bc", sf, C).m
    assert merged.a == "a" and merged.b == "bc"


def test_merge_vertical_example():
    sf = levenshtein("abc")
    C = grid_ceiling(sf, "ac", "b")
    merged = merge_vertical(build_direct("a", "b", sf, C), build_direct("c", "b", sf, C))
    assert merged.m == build_direct("ac", "b", sf, C).m


def test_merge_with_empty_side_is_identity():
    sf = levenshtein("ab")
    C = grid_ceiling(sf, "ab", "ba")
    d = build_direct("ab", "ba", sf, C)
    right = merge_horizontal(d, build_direct("ab", "", sf, C))
    assert right.m == d.m
    left = merge_horizontal(build_direct("ab", "", sf, C), d)
    assert left.m == d.m
    below = merge_vertical(d, build_direct("", "ba", sf, C))
    assert below.m == d.m
    above = merge_vertical(build_direct("", "ba", sf, C), d)
    assert above.m == d.m


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
        assert twice.m == merge(d3, d3).m
        with pytest.raises(ValueError, match="exceeds the ceiling 2"):
            merge(twice, d)
        assert merge(merge(d3, d3), d3).m == build_direct(*text, sf, 4).m


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
    assert quad.m == build_direct("ab", "ba", sf, C).m


def test_merge_quad_equal_characters():
    sf = levenshtein("ab")
    C = grid_ceiling(sf, "aa", "aa")
    d = build_direct("a", "a", sf, C)
    quad = _quad(d, d, d, d)
    assert quad.m == build_direct("aa", "aa", sf, C).m
    assert quad.m[quad.s - 1][quad.s - 1] == 0


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
        assert quad.m == build_direct(a1 + a2, b1 + b2, sf, C).m


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


def test_merges_hand_the_kernel_only_reachable_vertices(rng, monkeypatch):
    calls = []
    real = dist.minplus_row

    def recording(u, rows, jlo, jhi, counter=None):
        calls.append((list(u), jhi - jlo))
        return real(u, rows, jlo, jhi, counter)

    monkeypatch.setattr(dist, "minplus_row", recording)
    for _ in range(160):
        sf, a, a2, b1, b2, C = _merge_operands(rng)
        h, w1, w2 = len(a), len(b1), len(b2)
        d1 = build_direct(a, b1, sf, C)
        calls.clear()
        merge_horizontal(d1, build_direct(a, b2, sf, C))
        # the vertical merge of the mirrored tables (b1, a) over (b2, a):
        # their input k > w1 sits on the top row at column k - w1, and row 0
        # is copied
        cols = [max(k - w1, 0) for k in range(1, d1.s)]
        assert [(len(u), n) for u, n in calls] == [
            (h + 1 - c, w2 + h + 1 - c) for c in cols
        ]
        assert all(v <= C for u, _ in calls for v in u)
        h1, h2 = len(a), len(a2)
        calls.clear()
        merge_vertical(d1, build_direct(a2, b1, sf, C))
        # d1's input k > h1 sits on the top row at column k - h1: it reaches
        # the shared vertices from that column on, and d2's outputs too
        cols = [max(k - h1, 0) for k in range(1, d1.s)]
        assert [(len(u), n) for u, n in calls] == [
            (w1 + 1 - c, h2 + w1 + 1 - c) for c in cols
        ]
        assert all(v <= C for u, _ in calls for v in u)


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


def test_apply_inputs_example():
    # ceiling 1: the corner entries 2 stand for "no path"
    d = DistTable("a", "b", [[0, 1, 2], [1, 1, 1], [2, 1, 0]], 1)
    assert d.m == [[0, 1, None], [1, 1, 1], [None, 1, 0]]
    assert apply_inputs(d, [0, 0, 0]) == [0, 1, 0]


def test_apply_inputs_zero_vector_gives_column_minima(rng):
    sf = levenshtein("ab")
    for _ in range(20):
        a = random_text(rng, "ab", rng.randint(0, 5))
        b = random_text(rng, "ab", rng.randint(0, 5))
        d = build_direct(a, b, sf, grid_ceiling(sf, a, b))
        from slpdist import brute_column_minima

        assert apply_inputs(d, [0] * d.s) == brute_column_minima(d.m)[0]


def test_apply_inputs_length_check():
    d = build_direct("a", "b", levenshtein("ab"), 2)
    with pytest.raises(ValueError):
        apply_inputs(d, [0, 0])
    # and the sign: brute force gives [-100, -99, 0] here, but a stand-in
    # plus -100 would win the last column, so the kernel never sees it
    d = DistTable("a", "b", [[0, 1, 2], [1, 1, 1], [2, 1, 0]], 1)
    for memo in (None, {}):
        with pytest.raises(ValueError, match="non-negative"):
            apply_inputs(d, [-100, 0, 0], [0, 0], memo)
    # a memo hit is exact for any inputs, by shift-equivariance
    memo, counter = {}, [0, 0]
    assert apply_inputs(d, [0, 0, 0], counter, memo) == [0, 1, 0]
    assert apply_inputs(d, [-1, -1, -1], counter, memo) == [-1, 0, -1]
    assert counter[1] == 1


def test_apply_inputs_matches_grid_dp(rng):
    for _ in range(80):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        # a ceiling that bounds the boundary values too, as a grid's does
        d = build_direct(a, b, sf, 30 + grid_ceiling(sf, a, b))
        inputs = [rng.randint(0, 30) for _ in range(d.s)]
        assert apply_inputs(d, inputs) == block_outputs_by_grid_dp(a, b, inputs, sf)


def test_apply_inputs_offset_equivariance(rng):
    sf = levenshtein("ab")
    for _ in range(20):
        a = random_text(rng, "ab", rng.randint(1, 5))
        b = random_text(rng, "ab", rng.randint(1, 5))
        d = build_direct(a, b, sf, 9 + 7 + grid_ceiling(sf, a, b))
        inputs = [rng.randint(0, 9) for _ in range(d.s)]
        base = apply_inputs(d, inputs)
        shifted = apply_inputs(d, [v + 7 for v in inputs])
        assert shifted == [v + 7 for v in base]
