import pytest

from slpdist import ScoringError, ScoringFunction, levenshtein
from slpdist.scoring import validate


def test_levenshtein_costs():
    sf = levenshtein("ab")
    assert sf.substitute["a", "a"] == 0
    assert sf.substitute["a", "b"] == 1
    assert sf.delete["a"] == 1
    assert sf.insert["b"] == 1


def test_levenshtein_extra_char():
    sf = levenshtein("xyz")
    assert sf.delete["x"] == 1


def test_levenshtein_rejects_empty_alphabet():
    with pytest.raises(ScoringError):
        levenshtein("")


def test_levenshtein_is_symmetric():
    sf = levenshtein("abcd")
    for a in sf.alphabet:
        for b in sf.alphabet:
            assert sf.substitute[a, b] == sf.substitute[b, a]


def test_validate_accepts_levenshtein():
    assert validate(levenshtein("ab")) == []


def test_validate_flags_negative_cost():
    sf = levenshtein("ab")
    bad = ScoringFunction(sf.alphabet, {**sf.delete, "a": -1}, sf.insert, sf.substitute)
    problems = validate(bad)
    assert any("negative cost" in p for p in problems)


def test_validate_flags_missing_entry():
    sf = levenshtein("ab")
    table = dict(sf.substitute)
    del table[("a", "b")]
    problems = validate(ScoringFunction(sf.alphabet, sf.delete, sf.insert, table))
    assert any("incomplete table" in p for p in problems)


def test_validate_flags_non_finite():
    sf = levenshtein("ab")
    bad = ScoringFunction(
        sf.alphabet, {**sf.delete, "b": float("inf")}, sf.insert, sf.substitute
    )
    assert any("non-finite" in p for p in validate(bad))


def test_validate_flags_keys_outside_the_alphabet():
    from decimal import Decimal

    sf = levenshtein("ab")
    for delete, insert, substitute, flagged in (
        ({**sf.delete, "zz": Decimal("0.5")}, sf.insert, sf.substitute, "DEL'zz'"),
        (sf.delete, {**sf.insert, "c": 1}, sf.substitute, "INS'c'"),
        (sf.delete, sf.insert, {**sf.substitute, ("a", "q"): 7}, "SUB('a', 'q')"),
        (sf.delete, sf.insert, {**sf.substitute, ("q", "a"): 7}, "SUB('q', 'a')"),
    ):
        problems = validate(ScoringFunction(sf.alphabet, delete, insert, substitute))
        assert problems == [f"character outside the alphabet: {flagged}"]


def test_lookups_finite_and_nonnegative_after_validation(rng):
    from conftest import random_scoring

    for _ in range(20):
        sf = random_scoring(rng, "abc")
        assert validate(sf) == []
        for a in sf.alphabet:
            assert sf.delete[a] >= 0
            assert sf.insert[a] >= 0
            for b in sf.alphabet:
                assert sf.substitute[a, b] >= 0


def _table(*costs):
    # DEL a, DEL b, INS a, INS b, SUB(a, b), SUB(b, a); SUB(x, x) = 0
    d_a, d_b, i_a, i_b, s_ab, s_ba = costs
    return ScoringFunction(
        ("a", "b"),
        {"a": d_a, "b": d_b},
        {"a": i_a, "b": i_b},
        {("a", "a"): 0, ("a", "b"): s_ab, ("b", "a"): s_ba, ("b", "b"): 0},
    )


def test_scaled_to_ints_passes_int_tables_through():
    from slpdist.scoring import scaled_to_ints

    for sf in (levenshtein("abc"), _table(1, 2, 3, 4, 5, 10 ** 27)):
        assert scaled_to_ints(sf) == (sf, 0)
        assert scaled_to_ints(sf)[0] is sf


def test_scaled_to_ints_is_exact():
    from decimal import Decimal, localcontext

    from slpdist.scoring import scaled_to_ints

    D = Decimal
    sf = _table(D("1.5"), D("2.25"), 3, D("1E+2"), D("0.000"), D("0.5"))
    with localcontext() as ctx:
        ctx.prec = 2  # a rounding context must not touch the scaling
        scaled, e = scaled_to_ints(sf)
    assert e == -3
    assert scaled.delete == {"a": 1500, "b": 2250}
    assert scaled.insert == {"a": 3000, "b": 100000}
    assert scaled.substitute[("a", "b")] == 0
    assert scaled.substitute[("b", "a")] == 500
    assert scaled.substitute[("a", "a")] == 0
    # exponents above 0 never make e positive
    scaled, e = scaled_to_ints(_table(D("1E+3"), 1, 1, 1, 1, 1))
    assert e == 0 and scaled.delete["a"] == 1000


def test_scaled_to_ints_refuses_floats_non_finite_and_long_costs():
    from decimal import Decimal

    from slpdist.scoring import MAX_COST_DIGITS, scaled_to_ints

    fits = Decimal("9" * (MAX_COST_DIGITS - 2) + ".01")
    assert scaled_to_ints(_table(fits, 1, 1, 1, 1, 1))[0].delete["a"] == int(
        "9" * (MAX_COST_DIGITS - 2) + "01"
    )
    for bad in (
        1.5,
        float("inf"),
        Decimal("NaN"),
        Decimal("sNaN"),
        Decimal("Infinity"),
        Decimal("1e999999"),
        10 ** MAX_COST_DIGITS,
        Decimal("9" * (MAX_COST_DIGITS - 1) + ".01"),  # one digit too many
        Decimal("-0.5"),
    ):
        with pytest.raises(ScoringError):
            scaled_to_ints(_table(Decimal("0.01"), bad, 1, 1, 1, 1))


def test_scaled_to_ints_refuses_characters_outside_the_alphabet():
    from slpdist import block_edit_distance, from_plain, wagner_fischer
    from slpdist.scoring import scaled_to_ints

    sf = levenshtein("ab")
    message = "alphabet does not cover input characters ['z']"
    with pytest.raises(ScoringError) as prologue:
        scaled_to_ints(sf, "ab", "az")
    with pytest.raises(ScoringError) as baseline:
        wagner_fischer("ab", "az", sf)
    with pytest.raises(ScoringError) as block:
        block_edit_distance(from_plain("ab"), from_plain("az"), sf)
    assert str(prologue.value) == str(baseline.value) == str(block.value) == message
