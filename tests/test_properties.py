"""Property test: the block algorithm against Wagner-Fischer, on random
grammars, block sizes and cost tables, int and Decimal alike."""

import random
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_distance_by_recursion, random_slp
from slpdist import (
    ScoringFunction,
    block_edit_distance,
    expand,
    from_plain,
    levenshtein,
    lz78_parse,
    lz78_to_slp,
    repair,
    wagner_fischer,
)

SIGMA = "abcd"


@st.composite
def grammars(draw):
    style = draw(st.sampled_from(("plain", "lz78", "repair", "random_slp")))
    if style == "random_slp":
        return random_slp(random.Random(draw(st.integers(0, 2**32))), max_len=40)
    sigma = SIGMA[: draw(st.integers(1, 4))]
    text = draw(st.text(alphabet=sigma, min_size=1, max_size=40))
    if style == "repair":
        return repair(text)
    return from_plain(text) if style == "plain" else lz78_to_slp(lz78_parse(text))


# ints, and Decimals with from zero to three digits after the point
costs = st.one_of(
    st.integers(0, 9),
    st.builds(lambda n, k: Decimal(f"{n}E-{k}"), st.integers(0, 999), st.integers(0, 3)),
)


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(("unit", "int", "decimal")))
    if kind == "unit":
        return levenshtein(SIGMA)
    cost = costs if kind == "decimal" else st.integers(0, 9)
    chars = tuple(SIGMA)
    return ScoringFunction(
        chars,
        {c: draw(cost) for c in chars},
        {c: draw(cost) for c in chars},
        {(a, b): (0 if a == b else draw(cost)) for a in chars for b in chars},
    )


@settings(max_examples=150, deadline=None)
@given(grammars(), grammars(), tables(), st.sampled_from((2, 3, 4, 5, 8, None)))
def test_block_algorithm_matches_wagner_fischer(ga, gb, sf, block_size):
    text_a, text_b = expand(ga), expand(gb)
    want = wagner_fischer(text_a, text_b, sf)
    got, _ = block_edit_distance(ga, gb, sf, block_size)
    assert str(got) == str(want)
    # an oracle that adds the costs as they are, not scaled to ints
    assert got == edit_distance_by_recursion(text_a, text_b, sf)
    table = (*sf.delete.values(), *sf.insert.values(), *sf.substitute.values())
    if all(type(c) is int for c in table):
        assert type(got) is int
    else:
        exponents = [Decimal(c).as_tuple().exponent for c in table]
        assert got.as_tuple().exponent == min(exponents + [0])
