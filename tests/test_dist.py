import pytest

from conftest import (
    block_outputs_by_grid_dp,
    dist_by_path_enumeration,
    random_scoring,
    random_text,
)
from slpdist import (
    apply_inputs,
    build_direct,
    is_monge,
    levenshtein,
    merge_horizontal,
    merge_quad,
    merge_vertical,
)
from slpdist.dist import DistTable, input_position, output_position


def test_boundary_orderings():
    # h=1, w=1: inputs climb the left column then walk the top row
    assert [input_position(1, 1, k) for k in range(3)] == [(1, 0), (0, 0), (0, 1)]
    assert [output_position(1, 1, k) for k in range(3)] == [(1, 0), (1, 1), (0, 1)]


def test_build_direct_single_mismatch():
    d = build_direct("a", "b", levenshtein("ab"))
    assert d.m == [[0, 1, None], [1, 1, 1], [None, 1, 0]]


def test_build_direct_single_match_diagonal():
    d = build_direct("a", "a", levenshtein("ab"))
    assert d.m[1][1] == 0


def test_corner_entries_are_zero(rng):
    sf = levenshtein("ab")
    for _ in range(30):
        a = random_text(rng, "ab", rng.randint(0, 5))
        b = random_text(rng, "ab", rng.randint(0, 5))
        d = build_direct(a, b, sf)
        assert d.m[0][0] == 0
        assert d.m[d.s - 1][d.s - 1] == 0


def test_build_direct_matches_path_enumeration(rng):
    for _ in range(60):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 3))
        b = random_text(rng, sigma, rng.randint(0, 3))
        assert build_direct(a, b, sf).m == dist_by_path_enumeration(a, b, sf)


def test_staircase_reachability(rng):
    sf = levenshtein("ab")
    for _ in range(40):
        a = random_text(rng, "ab", rng.randint(0, 6))
        b = random_text(rng, "ab", rng.randint(0, 6))
        d = build_direct(a, b, sf)
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
        assert is_monge(build_direct(a, b, sf).m)


def test_merge_horizontal_example():
    sf = levenshtein("abc")
    merged = merge_horizontal(build_direct("a", "b", sf), build_direct("a", "c", sf))
    assert merged.m == build_direct("a", "bc", sf).m
    assert merged.a == "a" and merged.b == "bc"


def test_merge_vertical_example():
    sf = levenshtein("abc")
    merged = merge_vertical(build_direct("a", "b", sf), build_direct("c", "b", sf))
    assert merged.m == build_direct("ac", "b", sf).m


def test_merge_with_empty_side_is_identity():
    sf = levenshtein("ab")
    d = build_direct("ab", "ba", sf)
    right = merge_horizontal(d, build_direct("ab", "", sf))
    assert right.m == d.m
    left = merge_horizontal(build_direct("ab", "", sf), d)
    assert left.m == d.m
    below = merge_vertical(d, build_direct("", "ba", sf))
    assert below.m == d.m
    above = merge_vertical(build_direct("", "ba", sf), d)
    assert above.m == d.m


def test_merge_requires_shared_substring():
    sf = levenshtein("ab")
    with pytest.raises(ValueError):
        merge_horizontal(build_direct("a", "b", sf), build_direct("b", "b", sf))
    with pytest.raises(ValueError):
        merge_vertical(build_direct("a", "b", sf), build_direct("a", "a", sf))


def test_merge_quad_single_characters():
    sf = levenshtein("ab")
    quad = merge_quad(
        build_direct("a", "b", sf),
        build_direct("a", "a", sf),
        build_direct("b", "b", sf),
        build_direct("b", "a", sf),
    )
    assert quad.m == build_direct("ab", "ba", sf).m


def test_merge_quad_equal_characters():
    sf = levenshtein("ab")
    d = build_direct("a", "a", sf)
    quad = merge_quad(d, d, d, d)
    assert quad.m == build_direct("aa", "aa", sf).m
    assert quad.m[quad.s - 1][quad.s - 1] == 0


def test_merge_quad_inconsistent_references():
    sf = levenshtein("ab")
    with pytest.raises(ValueError):
        merge_quad(
            build_direct("a", "b", sf),
            build_direct("b", "a", sf),
            build_direct("b", "b", sf),
            build_direct("b", "a", sf),
        )


def test_merge_quad_random(rng):
    for _ in range(100):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a1, a2, b1, b2 = (
            random_text(rng, sigma, rng.randint(0, 6)) for _ in range(4)
        )
        quad = merge_quad(
            build_direct(a1, b1, sf),
            build_direct(a1, b2, sf),
            build_direct(a2, b1, sf),
            build_direct(a2, b2, sf),
        )
        assert quad.m == build_direct(a1 + a2, b1 + b2, sf).m


def test_merges_match_direct_random(rng):
    for _ in range(120):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 8))
        b1 = random_text(rng, sigma, rng.randint(0, 8))
        b2 = random_text(rng, sigma, rng.randint(0, 8))
        got = merge_horizontal(build_direct(a, b1, sf), build_direct(a, b2, sf))
        assert got.m == build_direct(a, b1 + b2, sf).m
        a2 = random_text(rng, sigma, rng.randint(0, 8))
        got = merge_vertical(build_direct(a, b1, sf), build_direct(a2, b1, sf))
        assert got.m == build_direct(a + a2, b1, sf).m


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
        d = build_direct(a, b, sf)
        from slpdist import brute_column_minima

        assert apply_inputs(d, [0] * d.s) == brute_column_minima(d.m)[0]


def test_apply_inputs_length_check():
    d = build_direct("a", "b", levenshtein("ab"))
    with pytest.raises(ValueError):
        apply_inputs(d, [0, 0])


def test_apply_inputs_matches_grid_dp(rng):
    for _ in range(80):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 6))
        b = random_text(rng, sigma, rng.randint(0, 6))
        d = build_direct(a, b, sf)
        inputs = [rng.randint(0, 30) for _ in range(d.s)]
        assert apply_inputs(d, inputs) == block_outputs_by_grid_dp(a, b, inputs, sf)


def test_apply_inputs_offset_equivariance(rng):
    sf = levenshtein("ab")
    for _ in range(20):
        a = random_text(rng, "ab", rng.randint(1, 5))
        b = random_text(rng, "ab", rng.randint(1, 5))
        d = build_direct(a, b, sf)
        inputs = [rng.randint(0, 9) for _ in range(d.s)]
        base = apply_inputs(d, inputs)
        shifted = apply_inputs(d, [v + 7 for v in inputs])
        assert shifted == [v + 7 for v in base]
