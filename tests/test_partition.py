import math

import pytest

from conftest import random_slp, random_text
from slpdist import (
    COMPOSITE,
    EXACT,
    association_map,
    expand,
    from_plain,
    key_variables,
    lz78_parse,
    lz78_to_slp,
    partition_string,
    repair,
    var_length,
)
from slpdist.slp import slp_from_productions


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
    shape = [(q.var, q.kind, q.start, q.length) for q in p.parts]
    assert shape == [(5, EXACT, 0, 5), (6, COMPOSITE, 5, 3), (5, EXACT, 8, 5)]
    assert p.contents() == ["abaab", "aba", "abaab"]
    # the composite part hangs variable 4 off path variable 6
    assert p.parts[1].chain == ((6, 4, 3),)


def test_partition_single_block_when_x_exceeds_length(fib7_slp):
    p = partition_string(fib7_slp, 14)
    assert [(q.var, q.kind) for q in p.parts] == [(7, EXACT)]
    p = partition_string(fib7_slp, 13)
    assert [(q.var, q.kind) for q in p.parts] == [(7, EXACT)]


def test_partition_rejects_small_x(fib7_slp):
    with pytest.raises(ValueError):
        partition_string(fib7_slp, 1)


def test_association_map_fib7(fib7_slp):
    p = partition_string(fib7_slp, 4)
    m = association_map(p)
    assert set(m) == {(5, EXACT), (6, COMPOSITE)}
    p1 = partition_string(fib7_slp, 13)
    assert set(association_map(p1)) == {(7, EXACT)}


def _check_partition(g, x):
    text = expand(g)
    p = partition_string(g, x)
    assert "".join(p.contents()) == text
    assert all(1 <= q.length <= 2 * x for q in p.parts)
    assert len(p.parts) <= 3 * math.ceil(len(text) / x) + 2
    for q in p.parts:
        if q.kind == EXACT and len(text) >= x:
            assert q.length == var_length(g, q.var)
            assert x <= q.length < 2 * x
    # determinism across runs and across occurrences
    again = partition_string(g, x)
    assert again.parts == p.parts
    association_map(p)
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
            m = association_map(p)
            assert len(m) <= len(p.parts)
            assert len(m) <= 2 * g.size


def test_composite_chains_are_consistent(rng):
    # every chain link of a composite part names a hanging child whose
    # derivation length matches the recorded length
    for _ in range(30):
        g = random_slp(rng, max_len=50)
        for x in (2, 4, 7):
            p = partition_string(g, x)
            for q in p.parts:
                if q.kind != COMPOSITE:
                    continue
                assert q.grows in ("suffix", "prefix")
                total = 0
                for path_var, hang_var, length in q.chain:
                    assert var_length(g, hang_var) == length
                    assert length < x
                    total += length
                assert total == q.length
                assert q.var == q.chain[-1][0]


def test_power_grammar_partition():
    # a**16 via doubling; every x must tile exactly
    g = from_plain("a" * 16)
    for x in range(2, 17):
        p = _check_partition(g, x)
        assert "".join(p.contents()) == "a" * 16


def _composite_runs(parts):
    """The maximal runs of consecutive composite parts."""
    runs, run = [], []
    for q in parts:
        if q.kind == COMPOSITE:
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
            for run in _composite_runs(partition_string(g, x).parts):
                grows = [q.grows for q in run]
                suffixes = grows.count("suffix")
                assert grows == ["suffix"] * suffixes + ["prefix"] * (len(run) - suffixes)
                assert all(q.length >= x for q in run[: max(suffixes - 1, 0)])
                assert all(q.length >= x for q in run[suffixes + 1 :])
                for q in run:
                    assert sum(length for _, _, length in q.chain[:-1]) < x
