import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import mutated_periodic, random_text
from oracles import validate
from slpdist import (
    SlpError,
    expand,
    from_plain,
    lz78_parse,
    lz78_to_slp,
    repair,
    var_length,
)
from slpdist.cli import dump_slp
from slpdist.slp import Slp, _Builder, _join_balanced, letters, slp_from_productions


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


def test_letters_are_those_the_root_derives(rng):
    from conftest import random_slp

    for _ in range(40):
        g = random_slp(rng)
        assert letters(g) == set(expand(g))
    # variable 2 ('z') is in no derivation; 30 more doublings derive 2**30
    # characters, found without deriving them
    g = slp_from_productions(["a", "z", "b", (1, 3)] + [(i, i) for i in range(4, 34)])
    assert letters(g) == {"a", "b"}


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


def repair_by_recount(text):
    """RePair with a full recount every round: quadratic, but plainly the
    definition.  Counts skip a pair that overlaps the counted pair before it
    (``cc`` inside a run of ``c``), replacements go left to right, and ties
    go to the smallest (left, right) pair."""
    b = _Builder()
    seq = [b.terminal(c) for c in text]
    while True:
        counts = {}
        overlapped = False
        for i in range(len(seq) - 1):
            pair = (seq[i], seq[i + 1])
            if not overlapped and i and pair[0] == pair[1] == seq[i - 1]:
                overlapped = True
                continue
            overlapped = False
            counts[pair] = counts.get(pair, 0) + 1
        best = min(((-c, pair) for pair, c in counts.items() if c > 1), default=None)
        if best is None:
            return _join_balanced(b, seq)
        pair = best[1]
        x = b.pair(*pair)
        out, i = [], 0
        while i < len(seq):
            if tuple(seq[i : i + 2]) == pair:
                out.append(x)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out


def _repair_inputs(rng):
    texts = ["a", "aa", "aaa", "aaaa", "aaaaa", "ab" * 20, "abc" * 15 + "ab"]
    texts.append(mutated_periodic(rng, "abcd", 300, 7, 4))
    for _ in range(40):
        texts.append(random_text(rng, rng.choice(("ab", "abcd", "abcXYZ")), rng.randint(1, 200)))
        # runs of one letter, where counted pairs must not overlap
        texts.append("".join(rng.choice("abc") * rng.randint(1, 9) for _ in range(rng.randint(1, 20))))
    return texts


def test_repair_round_trips_and_validates(rng):
    for text in _repair_inputs(rng):
        g = repair(text)
        assert validate(g) == []
        assert expand(g) == text


def test_repair_on_runs():
    # "aaaa" holds two non-overlapping "aa"; "aaa" holds only one
    assert repair("aaaa").productions == (None, "a", (1, 1), (2, 2))
    assert repair("aaa").size == 3
    assert expand(repair("a")) == "a" and repair("a").size == 1


def test_repair_matches_the_recount_definition(rng):
    for text in _repair_inputs(rng):
        assert dump_slp(repair(text)) == dump_slp(repair_by_recount(text))


def test_repair_shrinks_periodic_text(rng):
    text = mutated_periodic(rng, "abcd", 1024, 7, 4)
    g = repair(text)
    assert g.size < 100
    assert g.size < lz78_to_slp(lz78_parse(text)).size / 3


def test_repair_rejects_empty():
    with pytest.raises(SlpError):
        repair("")


def test_repair_is_deterministic_across_processes(rng):
    text = mutated_periodic(rng, "ab\tc\u00e9", 500, 11, 6)
    assert dump_slp(repair(text)) == dump_slp(repair(text))
    # str hashes are salted per process; the grammar must not depend on them
    code = (
        "import sys; from slpdist import repair; from slpdist.cli import dump_slp;"
        "sys.stdout.write(dump_slp(repair(sys.stdin.read())))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    dumps = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], input=text, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        dumps.add(out)
    assert dumps == {dump_slp(repair(text))}


def test_repair_large_random_text_in_n_log_n_time():
    # a recount per round needs about 40 s here; O(N log N) needs about 1 s
    text = random_text(random.Random(16), "abcd", 1 << 16)
    t0 = time.perf_counter()
    g = repair(text)
    elapsed = time.perf_counter() - t0
    assert expand(g) == text
    assert elapsed < 20, f"repair took {elapsed:.1f} s on 2**16 characters"
