import pytest

from conftest import (
    edit_distance_by_recursion,
    mutated_periodic,
    random_scoring,
    random_slp,
    random_text,
)
from slpdist import (
    ScoringError,
    ScoringFunction,
    block_edit,
    block_edit_distance,
    default_block_size,
    dist,
    expand,
    fibonacci_prefix_slp,
    from_plain,
    levenshtein,
    lz78_parse,
    lz78_to_slp,
    repair,
    wagner_fischer,
)


def test_wagner_fischer_kitten():
    assert wagner_fischer("kitten", "sitting", levenshtein("kitensg")) == 3


def test_wagner_fischer_identity(rng):
    sf = levenshtein("ab")
    for _ in range(10):
        s = random_text(rng, "ab", rng.randint(0, 20))
        assert wagner_fischer(s, s, sf) == 0


def test_wagner_fischer_empty_side():
    sf = levenshtein("abc")
    assert wagner_fischer("", "abc", sf) == 3
    assert wagner_fischer("abc", "", sf) == 3
    assert wagner_fischer("", "", sf) == 0


def test_wagner_fischer_asymmetric_costs():
    sf = levenshtein("ab")
    costly_delete = type(sf)(
        sf.alphabet, {c: 5 for c in sf.alphabet}, sf.insert, sf.substitute
    )
    # deleting from "aa" to reach "a" costs 5; inserting to go the other way 1
    assert wagner_fischer("aa", "a", costly_delete) == 5
    assert wagner_fischer("a", "aa", costly_delete) == 1


def test_wagner_fischer_matches_recursion(rng):
    for _ in range(40):
        sigma = rng.choice(("ab", "abc"))
        sf = random_scoring(rng, sigma)
        a = random_text(rng, sigma, rng.randint(0, 9))
        b = random_text(rng, sigma, rng.randint(0, 9))
        assert wagner_fischer(a, b, sf) == edit_distance_by_recursion(a, b, sf)


def test_wagner_fischer_unknown_character():
    with pytest.raises(ScoringError):
        wagner_fischer("ax", "a", levenshtein("a"))


def _both_algorithms_refuse(sf, message):
    a, b = "abab", "baba"
    with pytest.raises(ScoringError, match=message):
        wagner_fischer(a, b, sf)
    for x in (2, 3, None):
        with pytest.raises(ScoringError, match=message):
            block_edit_distance(repair(a), repair(b), sf, x)


def test_both_algorithms_refuse_negative_costs():
    # SUB(a, b) = SUB(b, a) = -1: Wagner-Fischer would return -4, and the
    # block algorithm either -4 or a refusal of negative boundary values
    sf = levenshtein("ab")
    sf = sf._replace(substitute={**sf.substitute, ("a", "b"): -1, ("b", "a"): -1})
    _both_algorithms_refuse(sf, "negative cost")


def test_both_algorithms_refuse_incomplete_tables():
    # no DEL('b'): Wagner-Fischer would fail on a bare KeyError
    sf = levenshtein("ab")
    _both_algorithms_refuse(sf._replace(delete={"a": 1}), r"missing DEL\('b'\)")


def test_default_block_size_clamps():
    assert default_block_size(10, 10) == 2
    assert default_block_size(4, 4) == 2
    assert default_block_size(10 ** 6, 10) == round((10 ** 5) ** (2 / 3))


def test_block_distance_kitten():
    sf = levenshtein("kitensg")
    got, stats = block_edit_distance(
        from_plain("kitten"), from_plain("sitting"), sf, 2
    )
    assert got == 3
    assert stats.block_count == stats.parts_a * stats.parts_b


def test_block_distance_identity(fib7_slp):
    sf = levenshtein("ab")
    got, _ = block_edit_distance(fib7_slp, fib7_slp, sf)
    assert got == 0


def test_worked_grammar_vs_plain_every_block_size(fib7_slp):
    sf = levenshtein("ab")
    plain = from_plain("abaababaabaab")
    for x in range(2, 14):
        got, _ = block_edit_distance(fib7_slp, plain, sf, x)
        assert got == 0


def test_block_size_independence(rng):
    sf = levenshtein("ab")
    a = random_text(rng, "ab", 30)
    b = random_text(rng, "ab", 25)
    ga, gb = from_plain(a), lz78_to_slp(lz78_parse(b))
    want = wagner_fischer(a, b, sf)
    for x in list(range(2, 12)) + [20, 64, None]:
        got, stats = block_edit_distance(ga, gb, sf, x)
        assert got == want
        if x is not None:
            assert stats.block_size == x


def test_block_distance_rejects_bad_block_size(fib7_slp):
    with pytest.raises(ValueError):
        block_edit_distance(fib7_slp, fib7_slp, levenshtein("ab"), 1)


def test_block_distance_unknown_character(fib7_slp):
    with pytest.raises(ScoringError):
        block_edit_distance(fib7_slp, fib7_slp, levenshtein("a"))


def test_oracle_equivalence_random(rng):
    for _ in range(60):
        sigma = rng.choice(("ab", "abcd", "abcdefghijklmnopqrstuvwxyz"))
        a = random_text(rng, sigma, rng.randint(1, 36))
        b = random_text(rng, sigma, rng.randint(1, 36))
        sf = random_scoring(rng, sigma) if rng.random() < 0.5 else levenshtein(sigma)
        ga = from_plain(a) if rng.random() < 0.5 else lz78_to_slp(lz78_parse(a))
        gb = from_plain(b) if rng.random() < 0.5 else lz78_to_slp(lz78_parse(b))
        want = wagner_fischer(a, b, sf)
        for x in (2, 5, None):
            got, _ = block_edit_distance(ga, gb, sf, x)
            assert got == want


def test_oracle_equivalence_compressible(rng):
    sf = levenshtein("ab")
    a = mutated_periodic(rng, "ab", 160, 6, 5)
    b = mutated_periodic(rng, "ab", 150, 6, 5)
    want = wagner_fischer(a, b, sf)
    for x in (2, 8, 16, None):
        got, _ = block_edit_distance(from_plain(a), from_plain(b), sf, x)
        assert got == want


def test_stats_record_roundtrip(fib7_slp):
    sf = levenshtein("ab")
    _, stats = block_edit_distance(fib7_slp, fib7_slp, sf, 4)
    record = stats.as_record()
    fields = dict(line.split("=", 1) for line in record)
    assert fields["n_chars_a"] == "13"
    assert fields["block_size"] == "4"
    assert int(fields["block_count"]) == 9
    assert int(fields["memo_size"]) <= 4 * 7 * 7
    assert any(k.startswith("elapsed_") for k in fields)


def test_decimal_costs_end_to_end():
    from decimal import Decimal

    chars = ("a", "b")
    half = Decimal("0.5")
    quarter = Decimal("0.25")
    sf = ScoringFunction(
        chars,
        {c: half for c in chars},
        {c: half for c in chars},
        {(x, y): (Decimal(0) if x == y else quarter) for x in chars for y in chars},
    )
    a, b = "abab" * 6, "bbab" * 5
    want = wagner_fischer(a, b, sf)
    for x in (2, 4, None):
        got, _ = block_edit_distance(from_plain(a), from_plain(b), sf, x)
        assert got == want
    assert isinstance(want, Decimal)


def test_all_zero_costs():
    chars = ("a", "b")
    sf = ScoringFunction(
        chars,
        {c: 0 for c in chars},
        {c: 0 for c in chars},
        {(x, y): 0 for x in chars for y in chars},
    )
    got, _ = block_edit_distance(from_plain("abba"), from_plain("bb"), sf, 2)
    assert got == 0


def test_deep_chain_grammar():
    # left-deep concatenation chains exercise the iterative traversals
    from slpdist.slp import slp_from_productions

    prods = ["a", "b"]
    for i in range(2, 400):
        prods.append((i, 1 + (i % 2)))
    g = slp_from_productions(prods)
    sf = levenshtein("ab")
    text = expand(g)
    want = wagner_fischer(text, text[::-1], sf)
    got, _ = block_edit_distance(g, from_plain(text[::-1]), sf, 8)
    assert got == want


def test_single_character_alphabet(rng):
    sf = levenshtein("a")
    for _ in range(5):
        a = "a" * rng.randint(1, 64)
        b = "a" * rng.randint(1, 64)
        want = abs(len(a) - len(b))
        got, _ = block_edit_distance(from_plain(a), from_plain(b), sf, rng.choice((2, 5, None)))
        assert got == want


def test_memo_counters_consistent(rng):
    sf = levenshtein("ab")
    a = random_text(rng, "ab", 40)
    ga = from_plain(a)
    _, stats = block_edit_distance(ga, ga, sf, 4)
    assert stats.boundary_cells_propagated > 0
    assert stats.sweep_queries > 0


def test_sweep_memo_is_exact_and_bounded(rng, monkeypatch):
    # integer and unit cost tables run the sweep through the memo; it never
    # holds more than its cap, also when a small cap makes it evict
    from decimal import Decimal

    real = block_edit.apply_inputs
    sizes = []

    def apply(d, inputs, counter, memo):
        out = real(d, inputs, counter, memo)
        sizes.append(len(memo))
        return out

    monkeypatch.setattr(block_edit, "apply_inputs", apply)
    evicting = 0
    for cap in (dist.SWEEP_MEMO_SIZE, 2):
        monkeypatch.setattr(dist, "SWEEP_MEMO_SIZE", cap)
        for _ in range(40):
            ga, gb = random_slp(rng), random_slp(rng)
            text_a, text_b = expand(ga), expand(gb)
            chars = "".join(sorted(set(text_a) | set(text_b)))
            sf = random_scoring(rng, chars) if rng.random() < 0.5 else levenshtein(chars)
            sizes.clear()
            got, stats = block_edit_distance(ga, gb, sf, rng.randint(2, 5))
            assert got == wagner_fischer(text_a, text_b, sf)
            assert max(sizes) <= cap
            assert 0 <= stats.sweep_memo_hits < stats.block_count
            # more kernel calls than the cap: the memo had to evict
            evicting += max(sizes) == cap < stats.block_count - stats.sweep_memo_hits
    assert evicting > 0
    # a repetitive pair: nearly every block repeats an earlier shape, with
    # unit costs and Decimal costs alike
    monkeypatch.setattr(dist, "SWEEP_MEMO_SIZE", 64)
    ga = fibonacci_prefix_slp(300)
    gb = fibonacci_prefix_slp(300, alphabet=("b", "a"))
    d1, d2 = Decimal("1.5"), Decimal("2.125")
    decimal = ScoringFunction(
        ("a", "b"),
        {"a": d1, "b": d2},
        {"a": 1, "b": d1},
        {("a", "a"): 0, ("a", "b"): d2, ("b", "a"): d1, ("b", "b"): 0},
    )
    for sf in (levenshtein("ab"), decimal):
        got, stats = block_edit_distance(ga, gb, sf, 5)
        assert str(got) == str(wagner_fischer(expand(ga), expand(gb), sf))
        assert stats.sweep_memo_hits > stats.block_count // 2


def test_sweep_memo_leaves_decimal_results_unchanged(rng, monkeypatch):
    # Decimal runs sweep their table scaled to ints, so the memo's shifts
    # are exact: a run prints what the sweep without a memo prints, with the
    # table's smallest exponent whichever equal-cost path it follows.
    from decimal import Decimal

    costs = [Decimal(t) for t in ("1.5", "2.25", "3", "0.75", "1.0", "2.50")]
    real = block_edit.apply_inputs

    def without_memo(d, inputs, counter, memo):
        return real(d, inputs, counter)

    for _ in range(300):
        text_a = mutated_periodic(rng, "ab", rng.randint(10, 40), rng.randint(2, 5), 2)
        text_b = mutated_periodic(rng, "ab", rng.randint(10, 40), rng.randint(2, 5), 2)
        chars = ("a", "b")
        sf = ScoringFunction(
            chars,
            {c: rng.choice(costs) for c in chars},
            {c: rng.choice(costs) for c in chars},
            {(x, y): (Decimal(0) if x == y else rng.choice(costs)) for x in chars for y in chars},
        )
        x = rng.randint(2, 5)
        ga, gb = from_plain(text_a), from_plain(text_b)
        got, _ = block_edit_distance(ga, gb, sf, x)
        monkeypatch.setattr(block_edit, "apply_inputs", without_memo)
        plain, _ = block_edit_distance(ga, gb, sf, x)
        monkeypatch.setattr(block_edit, "apply_inputs", real)
        assert str(got) == str(plain)
        assert got == wagner_fischer(text_a, text_b, sf)
