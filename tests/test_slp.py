import pytest

from conftest import random_text
from slpdist import (
    SlpError,
    expand,
    from_plain,
    lz78_parse,
    lz78_to_slp,
    var_length,
)
from slpdist.slp import Slp, slp_from_productions, validate


def test_worked_grammar_is_valid(fib7_slp):
    assert validate(fib7_slp) == []


def test_worked_grammar_expansion(fib7_slp):
    assert expand(fib7_slp) == "abaababaabaab"
    assert expand(fib7_slp, 4) == "aba"
    assert expand(fib7_slp, 5) == "abaab"


def test_worked_grammar_lengths(fib7_slp):
    assert var_length(fib7_slp, 7) == 13
    assert var_length(fib7_slp, 5) == 5
    assert list(fib7_slp.lengths[1:]) == [1, 1, 2, 3, 5, 8, 13]


def test_single_terminal():
    g = slp_from_productions(["a"])
    assert expand(g, 1) == "a"
    assert var_length(g, 1) == 1


def test_forward_reference_rejected():
    with pytest.raises(SlpError):
        slp_from_productions(["a", (3, 1), (1, 1)])


def test_self_reference_rejected():
    with pytest.raises(SlpError):
        slp_from_productions(["a", (2, 1)])


def test_tampered_length_cache_detected(fib7_slp):
    lengths = list(fib7_slp.lengths)
    lengths[5] = 99
    tampered = Slp(fib7_slp.productions, tuple(lengths))
    problems = validate(tampered)
    assert any("length mismatch" in p for p in problems)


def test_var_length_out_of_range(fib7_slp):
    with pytest.raises(SlpError):
        var_length(fib7_slp, 8)
    with pytest.raises(SlpError):
        expand(fib7_slp, 0)


def test_from_plain_two_chars():
    g = from_plain("ab")
    assert g.size == 3
    assert expand(g) == "ab"


def test_from_plain_rejects_empty():
    with pytest.raises(SlpError):
        from_plain("")


def test_from_plain_roundtrip(rng):
    for _ in range(60):
        text = random_text(rng, rng.choice(("ab", "abcXYZ")), rng.randint(1, 200))
        assert expand(from_plain(text)) == text


def test_from_plain_balanced_depth_with_sharing():
    g = from_plain("a" * 8)
    # one terminal plus one pair per doubling level
    assert g.size == 4
    depth = {1: 0}
    for i in range(2, g.size + 1):
        p, q = g.productions[i]
        depth[i] = 1 + max(depth[p], depth[q])
    assert depth[g.root] == 3


def test_lz78_parse_examples():
    assert lz78_parse("aaabbb") == [(0, "a"), (1, "a"), (0, "b"), (3, "b")]
    assert lz78_parse("a") == [(0, "a")]
    assert lz78_parse("abab") == [(0, "a"), (0, "b"), (1, "b")]


def test_lz78_parse_rejects_empty():
    with pytest.raises(SlpError):
        lz78_parse("")


def test_lz78_final_partial_phrase():
    # "aa" ends inside the match of phrase 1
    assert lz78_parse("aa") == [(0, "a"), (1, None)]
    assert expand(lz78_to_slp(lz78_parse("aa"))) == "aa"


def test_lz78_to_slp_size_bounds():
    phrases = lz78_parse("aaabbb")
    g = lz78_to_slp(phrases)
    assert expand(g) == "aaabbb"
    assert g.size <= 2 * len(phrases) + 2


def test_lz78_to_slp_single_phrase():
    g = lz78_to_slp([(0, "a")])
    assert g.size == 1
    assert expand(g) == "a"


def test_lz78_to_slp_rejects_bad_reference():
    with pytest.raises(SlpError):
        lz78_to_slp([(1, "a")])


def test_lz78_roundtrip_and_size_factor(rng):
    for _ in range(60):
        text = random_text(rng, rng.choice(("ab", "abcd")), rng.randint(1, 300))
        phrases = lz78_parse(text)
        g = lz78_to_slp(phrases)
        assert expand(g) == text
        assert g.size <= 3 * len(phrases)


def test_var_length_matches_expansion_everywhere(rng):
    from conftest import random_slp

    for _ in range(40):
        g = random_slp(rng)
        assert validate(g) == []
        for v in range(1, g.size + 1):
            assert var_length(g, v) == len(expand(g, v))


def test_exponential_compression_without_expanding():
    # doubling grammar: 30 variables derive a string of 2**29 characters
    prods = ["a"] + [(i, i) for i in range(1, 30)]
    g = slp_from_productions(prods)
    assert g.size == 30
    assert var_length(g, g.root) == 2 ** 29


def test_expand_longer_than_one_join_chunk():
    from slpdist.slp import _EXPAND_CHUNK

    # Fibonacci words, built by plain concatenation as the reference
    words = ["b", "a"]
    prods = ["b", "a"]
    while len(words[-1]) <= 2 * _EXPAND_CHUNK:
        words.append(words[-1] + words[-2])
        prods.append((len(prods), len(prods) - 1))
    g = slp_from_productions(prods)
    assert len(words[-1]) % _EXPAND_CHUNK  # the last chunk is a partial one
    assert expand(g) == words[-1]
    assert expand(g, g.root - 1) == words[-2]
