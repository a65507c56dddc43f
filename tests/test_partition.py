import math

import pytest

from conftest import random_slp, random_text
from oracles import association_map, contents
from slpdist import (
    InvariantViolation,
    SlpError,
    expand,
    from_plain,
    key_variables,
    lz78_parse,
    lz78_to_slp,
    partition_string,
    repair,
    var_length,
)
from slpdist.slp import MAX_EXPAND_LENGTH, slp_from_productions


def test_key_variables_fib7_x4(fib7_slp):
    assert key_variables(fib7_slp, 4) == {5}


def test_key_variables_fib7_x2(fib7_slp):
    assert key_variables(fib7_slp, 2) == {3}


def test_key_variables_fallback_to_root():
    g = slp_from_productions(["a"])
    assert key_variables(g, 2) == {1}


def test_key_variables_rejects_small_x(fib7_slp):
    with pytest.raises(ValueError):
        key_variables(fib7_slp, 1)


def test_partition_worked_example(fib7_slp):
    p = partition_string(fib7_slp, 4)
    # while parts had a kind, (var, kind, start, length): (5, exact, 0, 5),
    # (6, composite, 5, 3), (5, exact, 8, 5)
    shape = [(q.var, q.start, q.length) for q in p.parts]
    assert shape == [(5, 0, 5), (4, 5, 3), (5, 8, 5)]
    assert contents(p, expand(fib7_slp)) == ["abaab", "aba", "abaab"]
    # the composite part hangs variable 4 off path variable 6; a one-piece
    # part is its hanging child, so the grammar gains no variable (while
    # parts recorded their grouping, its chain read ((6, 4, 3),))
    assert fib7_slp.productions[6] == (5, 4)
    assert p.slp.productions == fib7_slp.productions


def test_partition_single_block_when_x_exceeds_length(fib7_slp):
    p = partition_string(fib7_slp, 14)
    assert p.parts == ((7, 0, 13),)
    p = partition_string(fib7_slp, 13)
    assert p.parts == ((7, 0, 13),)


def test_partition_rejects_small_x(fib7_slp):
    with pytest.raises(ValueError):
        partition_string(fib7_slp, 1)


def test_partition_refuses_what_expand_refuses():
    # a doubling grammar of 2**25 characters: at x = 2**20 it has only 32
    # parts, so the refusal must come from the length check, not from memory
    g = slp_from_productions(["a"] + [(i, i) for i in range(1, 26)])
    assert var_length(g, g.root) == 2**25 > MAX_EXPAND_LENGTH
    with pytest.raises(SlpError) as refused:
        expand(g)
    with pytest.raises(SlpError, match="expansion limit") as partition_refused:
        partition_string(g, 2**20)
    assert str(partition_refused.value) == str(refused.value)


def test_association_map_fib7(fib7_slp):
    text = expand(fib7_slp)
    p = partition_string(fib7_slp, 4)
    m = association_map(p, text)
    # {(5, exact), (6, composite)} while parts had a kind
    assert set(m) == {5, 4}
    p1 = partition_string(fib7_slp, 13)
    assert set(association_map(p1, text)) == {7}


def test_association_map_refuses_two_substrings_for_one_association(fib7_slp):
    # the oracle the partition tests lean on must catch a broken partition:
    # here one variable names both "abaab" and "abaabaab"
    p = partition_string(fib7_slp, 4)
    first = p.parts[0]
    broken = p._replace(parts=(first, first._replace(start=5, length=8)))
    with pytest.raises(InvariantViolation, match="two different substrings"):
        association_map(broken, expand(fib7_slp))


def _check_partition(g, x):
    text = expand(g)
    p = partition_string(g, x)
    assert "".join(contents(p, text)) == text
    assert all(1 <= q.length <= 2 * x for q in p.parts)
    assert len(p.parts) <= 3 * math.ceil(len(text) / x) + 2
    keys = key_variables(g, x) if len(text) >= x else set()
    for q, content in zip(p.parts, contents(p, text)):
        assert expand(p.slp, q.var) == content
        # a part of a key variable is that variable's whole string; any
        # other part is one hanging child, shorter than x, or folds several
        if q.var in keys:
            assert q.length == var_length(g, q.var)
            assert x <= q.length < 2 * x
        else:
            assert q.length < x or q.var > g.size
    # determinism across runs and across occurrences
    again = partition_string(g, x)
    assert again.parts == p.parts
    association_map(p, text)
    return p


def test_partition_invariants_random(rng):
    for _ in range(60):
        g = random_slp(rng, max_len=50)
        n = var_length(g, g.root)
        for x in range(2, n + 1):
            _check_partition(g, x)


def test_partition_invariants_all_x_fib7(fib7_slp):
    for x in range(2, 14):
        _check_partition(fib7_slp, x)


def test_association_count_bounds(rng):
    for _ in range(30):
        g = random_slp(rng, max_len=40)
        for x in (2, 3, 5, 8):
            p = partition_string(g, x)
            m = association_map(p, expand(g))
            assert len(m) <= len(p.parts)
            assert len(m) <= 2 * g.size


def _added(g, p):
    """The pair productions the partition folded into g, by variable: all
    it added but the last, the copy of the root that keeps the root last."""
    return {v: p.slp.productions[v] for v in range(g.size + 1, p.slp.size)}


def test_composite_chains_are_consistent(rng):
    # while parts recorded their grouping, every chain link named a hanging
    # child shorter than x, and the part's variable derived the children
    # joined on the side it grows.  Restated on the added productions: each
    # joins a fold of pieces shorter than x with one more piece, so both
    # children derive fewer than x characters, and every added variable is
    # a part's or folds into one
    folded = 0
    for _ in range(30):
        g = random_slp(rng, max_len=50)
        for x in (2, 4, 7):
            p = partition_string(g, x)
            added = _added(g, p)
            if p.slp.size > g.size:
                assert p.slp.productions[p.slp.root] == g.productions[g.root]
            for v, (left, right) in added.items():
                assert p.slp.lengths[left] < x and p.slp.lengths[right] < x
                assert p.slp.lengths[v] < 2 * x
            used = {q.var for q in p.parts} & added.keys()
            stack = list(used)
            while stack:
                for child in added[stack.pop()]:
                    if child in added and child not in used:
                        used.add(child)
                        stack.append(child)
            assert used == added.keys()
            folded += len(added)
    assert folded > 0


def test_power_grammar_partition():
    # a**16 via doubling; every x must tile exactly
    g = from_plain("a" * 16)
    for x in range(2, 17):
        p = _check_partition(g, x)
        assert "".join(contents(p, expand(g))) == "a" * 16


def _composite_runs(parts, keys):
    """The maximal runs of consecutive parts not of a key variable (a
    composite part that folds into a key variable ends a run)."""
    runs, run = [], []
    for q in parts:
        if q.var not in keys:
            run.append(q)
        elif run:
            runs.append(run)
            run = []
    return runs + [run] if run else runs


def test_grouping_rule(rng):
    # upward-path pieces accumulate left to right, downward-path pieces
    # right to left; a run stops at x, and only the run that meets the
    # other side, or the gap's end, may fall short
    for _ in range(120):
        style = rng.randrange(4)
        if style == 0:
            g = random_slp(rng, max_len=80)
        else:
            sigma = rng.choice(("ab", "abc"))
            text = random_text(rng, sigma, rng.randint(1, 120))
            g = (repair, lambda t: lz78_to_slp(lz78_parse(t)), from_plain)[style - 1](text)
        for x in (2, 3, 4, 5, 7, 9, 11):
            if var_length(g, g.root) < x:
                continue
            p = partition_string(g, x)
            # upward parts come first and only the last of them may fall
            # short; downward parts follow and only the first may: so at
            # most two parts of a run are shorter than x, next to each other
            # (while parts recorded ``grows``, the run's suffix parts were
            # checked to come before its prefix parts)
            for run in _composite_runs(p.parts, key_variables(g, x)):
                short = [i for i, q in enumerate(run) if q.length < x]
                assert len(short) <= 2 and (len(short) < 2 or short[1] == short[0] + 1)
            # each fold but a part's last joins pieces totalling fewer than x
            for left, right in _added(g, p).values():
                assert p.slp.lengths[left] < x and p.slp.lengths[right] < x


def _grammars(rng, count):
    """Random, RePair, LZ78 and balanced grammars, in turn."""
    for i in range(count):
        style = i % 4
        if style == 0:
            yield random_slp(rng, max_len=80)
            continue
        sigma = rng.choice(("ab", "abc"))
        text = random_text(rng, sigma, rng.randint(1, 160))
        yield (repair, lambda t: lz78_to_slp(lz78_parse(t)), from_plain)[style - 1](text)


def test_partition_extends_the_grammar(rng):
    # every part is one variable of the partition's grammar, which keeps
    # the input's variables as they are, adds at most one per input
    # variable and still derives the text from its last variable
    added = 0
    for g in _grammars(rng, 160):
        text = expand(g)
        for x in (2, 3, 4, 5, 7, 9, 12):
            p = partition_string(g, x)
            ext = p.slp
            assert ext.productions[: g.size + 1] == g.productions
            assert ext.productions[ext.root] == g.productions[g.root]
            assert expand(ext) == text
            assert ext.size - g.size <= g.size
            for q, content in zip(p.parts, contents(p, text)):
                assert expand(ext, q.var) == content
            # equal pairs share one variable
            pairs = ext.productions[g.size + 1 : ext.root]
            assert len(set(pairs)) == len(pairs)
            assert set(pairs).isdisjoint(g.productions)
            again = partition_string(g, x)
            assert again.slp == ext and again.parts == p.parts
            added += ext.size - g.size
    assert added > 0
