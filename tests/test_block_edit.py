import random
from collections import Counter

import pytest

from conftest import (
    chain_slp,
    edit_distance_by_recursion,
    mutated_periodic,
    random_scoring,
    random_slp,
    random_text,
)
from slpdist import (
    InvariantViolation,
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
    partition_string,
    repair,
    wagner_fischer,
)
from slpdist.slp import slp_from_productions


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


def test_phases_are_disjoint_and_time_the_merges(fib7_slp):
    # the phases partition one call's time: the bench sums them, and a
    # merge made during the sweep counts as merge time only
    import time

    rng = random.Random(31)
    texts = [mutated_periodic(rng, "abcd", 1024, 7, 4) for _ in "ab"]
    cases = [
        (repair(texts[0]), repair(texts[1]), random_scoring(rng, "abcd"), None),
        (fib7_slp, fib7_slp, levenshtein("ab"), 4),
        # one terminal against another: a direct table and no merge
        (slp_from_productions(["a"]), slp_from_productions(["b"]), levenshtein("ab"), 2),
    ]
    merged = 0
    for ga, gb, sf, x in cases:
        t0 = time.perf_counter()
        _, stats = block_edit_distance(ga, gb, sf, x)
        wall = time.perf_counter() - t0
        assert set(stats.elapsed) == {"partition", "repository", "merge", "sweep"}
        assert min(stats.elapsed.values()) >= 0
        assert sum(stats.elapsed.values()) <= wall
        assert (stats.elapsed["merge"] > 0) == (stats.merges > 0)
        merged += stats.merges
    assert merged


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


def _decimal_ab():
    from decimal import Decimal

    d1, d2 = Decimal("1.5"), Decimal("2.125")
    return ScoringFunction(
        ("a", "b"),
        {"a": d1, "b": d2},
        {"a": 1, "b": d1},
        {("a", "a"): 0, ("a", "b"): d2, ("b", "a"): d1, ("b", "b"): 0},
    )


def _pair_entries(ga, gb, x):
    """The entries the distinct part pairs' tables would hold, read off
    the partitions' grammars."""
    pa, pb = partition_string(ga, x), partition_string(gb, x)
    la, lb = pa.slp.lengths, pb.slp.lengths
    vars_a, vars_b = {p.var for p in pa.parts}, {p.var for p in pb.parts}
    return sum((la[va] + lb[vb] + 1) ** 2 for va in vars_a for vb in vars_b)


def test_sweep_memo_is_exact_and_bounded(rng, monkeypatch):
    # integer and unit cost tables run the sweep through the memo; its
    # interned edges' steps and its records are charged together and never
    # number more than the part pairs' tables would hold entries, built or
    # not (than the tables held entries, ``table_entries``, while the
    # repository built them all before the sweep), and each block's
    # outputs have the table's length, hit or miss
    real = block_edit.apply_inputs
    held = []

    def apply(d, base, left, top, sweep):
        out = real(d, base, left, top, sweep)
        assert len(out) == len(tuple(out)) == d.s
        assert sweep.held == sum(map(len, sweep.table)) + len(sweep.memo)
        held.append((sweep.held, sweep.budget))
        return out

    monkeypatch.setattr(block_edit, "apply_inputs", apply)
    for _ in range(40):
        ga, gb = random_slp(rng), random_slp(rng)
        text_a, text_b = expand(ga), expand(gb)
        chars = "".join(sorted(set(text_a) | set(text_b)))
        sf = random_scoring(rng, chars) if rng.random() < 0.5 else levenshtein(chars)
        held.clear()
        x = rng.randint(2, 5)
        got, stats = block_edit_distance(ga, gb, sf, x)
        assert got == wagner_fischer(text_a, text_b, sf)
        assert all(steps <= budget == _pair_entries(ga, gb, x) for steps, budget in held)
        assert 0 <= stats.sweep_memo_hits < stats.block_count
    # a repetitive pair: nearly every block repeats an earlier shape, with
    # unit costs and Decimal costs alike
    ga = fibonacci_prefix_slp(300)
    gb = fibonacci_prefix_slp(300, alphabet=("b", "a"))
    for sf in (levenshtein("ab"), _decimal_ab()):
        got, stats = block_edit_distance(ga, gb, sf, 5)
        assert str(got) == str(wagner_fischer(expand(ga), expand(gb), sf))
        assert stats.sweep_memo_hits > stats.block_count // 2


def test_sweep_memo_budget_does_not_depend_on_what_is_built(rng, monkeypatch):
    # the same budget whether the sweep builds records on demand or every
    # record is built before the sweep: the part pairs' sizes fix it
    budgets = []
    real_build = block_edit.build_repository

    def recorded(budget, repo):
        budgets.append(budget)
        return dist.Sweep(budget, repo)

    def built_first(*args):
        repo = real_build(*args)
        for record in repo.memo.values():
            if type(record) is dist.Unbuilt and record.table is None:
                repo.build(record)
        return repo

    monkeypatch.setattr(block_edit, "Sweep", recorded)
    built_before = 0
    for _ in range(20):
        ga, gb = random_slp(rng), random_slp(rng)
        chars = "".join(sorted(set(expand(ga)) | set(expand(gb))))
        sf = random_scoring(rng, chars)
        x = rng.randint(2, 5)
        on_demand, lazy = block_edit_distance(ga, gb, sf, x)
        monkeypatch.setattr(block_edit, "build_repository", built_first)
        first, eager = block_edit_distance(ga, gb, sf, x)
        monkeypatch.setattr(block_edit, "build_repository", real_build)
        assert on_demand == first == wagner_fischer(expand(ga), expand(gb), sf)
        assert eager.unbuilt_keys == 0 and eager.merges >= lazy.merges
        assert budgets[-2] == budgets[-1] == _pair_entries(ga, gb, x)
        built_before += eager.merges > lazy.merges
    assert built_before > 0


def test_sweep_memo_resets_keep_results_exact(rng, monkeypatch):
    # a budget far below the tables' entries makes the interned edges
    # overflow it: each reset clears the memo with them, and the results
    # stay exactly those of WF
    monkeypatch.setattr(block_edit, "Sweep", lambda budget, repo: dist.Sweep(budget // 16, repo))
    resets = 0
    for _ in range(30):
        ga, gb = random_slp(rng), random_slp(rng)
        text_a, text_b = expand(ga), expand(gb)
        chars = "".join(sorted(set(text_a) | set(text_b)))
        sf = random_scoring(rng, chars) if rng.random() < 0.5 else levenshtein(chars)
        got, stats = block_edit_distance(ga, gb, sf, rng.randint(2, 5))
        assert got == wagner_fischer(text_a, text_b, sf)
        resets += stats.sweep_memo_resets
    assert resets > 0
    ga = fibonacci_prefix_slp(300)
    gb = fibonacci_prefix_slp(300, alphabet=("b", "a"))
    for sf in (levenshtein("ab"), _decimal_ab()):
        got, stats = block_edit_distance(ga, gb, sf, 5)
        assert str(got) == str(wagner_fischer(expand(ga), expand(gb), sf))
        assert stats.sweep_memo_resets > 0
        assert stats.sweep_memo_hits > 0
    # records alone: a budget that holds every step the sweep interns, but
    # not every memo record as well, still resets.  The records are those
    # the memo stored: one per block it did not answer, and one per
    # operand of an unbuilt pair it did not answer
    made = []

    def recorded(budget, repo):
        made.append(dist.Sweep(budget, repo))
        return made[-1]

    for sf in (levenshtein("ab"), _decimal_ab()):
        monkeypatch.setattr(block_edit, "Sweep", recorded)
        _, stats = block_edit_distance(ga, gb, sf, 5)
        steps = sum(map(len, made[-1].table))
        records = len(made[-1].memo)
        assert stats.unbuilt_pairs > 0 and records > stats.block_count - stats.sweep_memo_hits
        assert stats.sweep_memo_resets == 0 and made[-1].held == steps + records > steps + 1
        monkeypatch.setattr(
            block_edit, "Sweep", lambda budget, repo: dist.Sweep(steps + records // 2, repo)
        )
        got, stats = block_edit_distance(ga, gb, sf, 5)
        assert str(got) == str(wagner_fischer(expand(ga), expand(gb), sf))
        assert stats.sweep_memo_resets > 0


def test_sweep_memo_leaves_decimal_results_unchanged(rng, monkeypatch):
    # Decimal runs sweep their table scaled to ints, so the memo's shifts
    # are exact: a run prints what the sweep without a memo prints, with the
    # table's smallest exponent whichever equal-cost path it follows.
    from decimal import Decimal

    costs = [Decimal(t) for t in ("1.5", "2.25", "3", "0.75", "1.0", "2.50")]
    real = block_edit.apply_inputs

    def without_memo(d, base, left, top, sweep):
        # an empty memo at every block: every block runs the kernel
        sweep.memo.clear()
        return real(d, base, left, top, sweep)

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
        plain, stats = block_edit_distance(ga, gb, sf, x)
        monkeypatch.setattr(block_edit, "apply_inputs", real)
        assert stats.sweep_memo_hits == 0
        assert str(got) == str(plain)
        assert got == wagner_fischer(text_a, text_b, sf)


def test_sweep_counters_on_the_fibonacci_pair():
    # the benchmark's fib-sweep pair (unit costs, default x), pinned so that
    # a change to the sweep cannot move its counters unnoticed
    ga = fibonacci_prefix_slp(4096)
    gb = fibonacci_prefix_slp(4096, alphabet=("b", "a"))
    _, stats = block_edit_distance(ga, gb, levenshtein("ab"))
    assert stats.block_size == 31
    assert stats.block_count == 19881
    # 19,812 hits, 24,378 sweep queries and 54 edges while the repository
    # built every table before the sweep: now 18 merges of 59 are made, on
    # demand, and the sweep's records of an unbuilt pair's operands answer
    # some blocks of the operands' own part pairs (32,220 sweep queries
    # while a miss handed the kernel every input, dominated or not)
    assert stats.sweep_memo_hits == 19823
    assert stats.sweep_queries == 3987
    assert stats.boundary_cells_propagated == 1174953
    assert stats.sweep_edges == 210
    assert stats.sweep_memo_resets == 0
    assert (stats.merges, stats.merge_queries) == (18, 2290)
    assert (stats.unbuilt_pairs, stats.unbuilt_keys) == (9, 41)


# the benchmark's seed-1 weighted costs over "ab" (bench/workloads.py)
_SEED_1_AB = ScoringFunction(
    ("a", "b"),
    {"a": 3, "b": 4},
    {"a": 6, "b": 1},
    {("a", "a"): 0, ("a", "b"): 5, ("b", "a"): 2, ("b", "b"): 0},
)


def test_repository_counters_on_the_weighted_fibonacci_pair():
    # the benchmark's fib-repo shape scaled down as tests/test_bench_tracing.py
    # scales it: the Fibonacci 1024 pair under the seed-1 weighted costs at
    # x = 48, pinned so that a change to the merges cannot move its
    # counters unnoticed
    ga = fibonacci_prefix_slp(1024)
    gb = fibonacci_prefix_slp(1024, alphabet=("b", "a"))
    got, stats = block_edit_distance(ga, gb, _SEED_1_AB, 48)
    assert got == 968
    # while composite parts were not grammar variables: 47 merges, 169,812
    # merge queries and no part pair left unbuilt (222,864 merge queries
    # when every merge row handed the kernel all reachable vertices).
    # While only part pairs no key consumes could be left unbuilt: 44
    # merges, 129,274 merge queries and 3 unbuilt pairs.  While the
    # repository decided which keys to leave unbuilt before the sweep: 39
    # merges, 105,376 merge queries, 5 unbuilt pairs and 8 unbuilt keys
    assert stats.merges == 13
    assert stats.memo_size == 9
    assert stats.merge_queries == 802
    assert (stats.unbuilt_pairs, stats.unbuilt_keys) == (9, 34)


def test_unbuilt_pairs_on_the_benchmark_weighted_fibonacci_pair():
    # the benchmark's fib-repo pair itself, the Fibonacci 4096 pair at
    # x = 192 under the seed-1 weighted costs: the sweep memo answers 380
    # of its 441 blocks, so few misses pass through each record that only
    # 14 small keys are ever merged, and every part pair stays unbuilt
    ga = fibonacci_prefix_slp(4096)
    gb = fibonacci_prefix_slp(4096, alphabet=("b", "a"))
    got, stats = block_edit_distance(ga, gb, _SEED_1_AB, 192)
    assert got == 3872
    assert (stats.memo_size, stats.block_count) == (16, 441)
    # with every part pair built: 0 unbuilt pairs, 94 merges, 3,938,201
    # merge queries, 228,360 sweep queries, 2,169,722 table entries and a
    # peak of 2,216,313.  While composite parts were not grammar variables:
    # 7 unbuilt pairs, 87 merges, 1,846,675 merge queries, 168,503 sweep
    # queries, 925,746 table entries and a peak of 1,058,186.  While only
    # part pairs no key consumes could be left unbuilt, and a miss handed
    # the kernel every input: 9 unbuilt pairs, 67 merges, 1,579,178 merge
    # queries, 153,491 sweep queries, 723,262 table entries and a peak of
    # 779,140.  While the repository decided which keys to leave unbuilt
    # before the sweep: 14 unbuilt pairs and 19 unbuilt keys, 57 merges,
    # 674,917 merge queries, 51,131 sweep queries, 229,549 table entries
    # and a peak of 246,286
    assert (stats.unbuilt_pairs, stats.unbuilt_keys) == (16, 62)
    assert stats.merges == 14
    assert stats.merge_queries == 816
    assert stats.sweep_queries == 1227
    assert (stats.table_entries, stats.peak_table_entries) == (610, 666)
    assert stats.sweep_memo_hits == 380
    assert stats.sweep_memo_resets == 0


def test_repository_counters_of_a_chain_pair():
    # left-deep chains nest records as deep as their parts; pinned so that
    # how nested records are built cannot move the counters unnoticed
    rng = random.Random(7)
    ga, gb = (chain_slp("".join(rng.choice("ab") for _ in range(80))) for _ in "ab")
    got, stats = block_edit_distance(ga, gb, levenshtein("ab"), 30)
    assert got == wagner_fischer(expand(ga), expand(gb), levenshtein("ab"))
    assert (
        stats.merges,
        stats.direct_builds,
        stats.unbuilt_keys,
        stats.table_entries,
        stats.peak_table_entries,
        stats.merge_queries,
    ) == (96, 4, 645, 9_204, 9_204, 3_990)


def _built_nesting_first(real_build, cap):
    """``build_repository``, then ``Repository.build`` in plan order on each
    merge key with ``cap`` unbuilt records above it and on its operands, so
    the sweep finds those keys built and nests records at most ``cap``
    deep (every merge key is built at 0)."""
    plans = []
    real_plan = dist.Repository._plan

    def plan(repo, pairs):
        plans.append(real_plan(repo, pairs))
        return plans[-1]

    def build(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dist.Repository, "_plan", plan)
            repo = real_build(*args)
        records, stack = {}, list(repo.memo.values())
        while stack:
            value = stack.pop()
            if type(value) is dist.Unbuilt and value.key not in records:
                records[value.key] = value
                stack += value.d1, value.d2
        nesting, built = Counter(), set()  # most unbuilt records above each key
        for key, (deps, op) in reversed(plans[-1].items()):
            if op == "direct" or key in built or nesting[key] == cap:
                built.add(key)
                built.update(deps)
            else:
                for d in deps:
                    nesting[d] = max(nesting[d], nesting[key] + 1)
        for key in plans[-1]:
            if key in built and key in records and records[key].table is None:
                repo.build(records[key])
        return repo

    return build


@pytest.mark.parametrize(
    "cap, counters",
    [
        (2, (719, 4, 22, 32_726, 60_519, 911_487)),
        (0, (741, 4, 0, 26_969, 60_301, 1_016_612)),
    ],
)
def test_repository_counters_where_nesting_is_capped(monkeypatch, cap, counters):
    # building the keys nested more than ``cap`` records deep before the
    # sweep, as ``Repository.build`` does at a miss, gives the counters the
    # chain pair had when the repository capped nesting; pinned so that
    # building records outside the sweep cannot move them unnoticed
    real_build = block_edit.build_repository
    monkeypatch.setattr(block_edit, "build_repository", _built_nesting_first(real_build, cap))
    rng = random.Random(7)
    ga, gb = (chain_slp("".join(rng.choice("ab") for _ in range(80))) for _ in "ab")
    got, stats = block_edit_distance(ga, gb, levenshtein("ab"), 30)
    assert got == wagner_fischer(expand(ga), expand(gb), levenshtein("ab"))
    assert (
        stats.merges,
        stats.direct_builds,
        stats.unbuilt_keys,
        stats.table_entries,
        stats.peak_table_entries,
        stats.merge_queries,
    ) == counters


@pytest.mark.parametrize("index", [1, -1])
def test_sweep_refuses_edges_that_disagree_at_a_corner(fib7_slp, monkeypatch, index):
    # one wrong step, on a block's bottom edge or at the top of its right
    # edge, puts the next block's left edge off its top-left corner
    real = block_edit.apply_inputs

    def perturbed(d, base, left, top, sweep):
        out = real(d, base, left, top, sweep)
        values = list(out)
        values[index] += 1
        w = len(out.bottom.steps)
        bottom, right = (dist.Edge(tuple(steps)) for steps in (values[1 : w + 1], values[w + 1 :]))
        return dist.Outputs(out.first, bottom, right, out.peak)

    monkeypatch.setattr(block_edit, "apply_inputs", perturbed)
    with pytest.raises(InvariantViolation, match="disagree at a corner"):
        block_edit_distance(fib7_slp, fib7_slp, levenshtein("ab"), 2)
