import gc
import inspect
import random
import sys
import weakref
from collections import Counter
from operator import sub

import pytest

from conftest import chain_slp, mutated_periodic, random_slp, random_scoring
from slpdist import (
    block_edit,
    block_edit_distance,
    build_direct,
    build_repository,
    dist,
    expand,
    from_plain,
    key_variables,
    levenshtein,
    lz78_parse,
    lz78_to_slp,
    merge_horizontal,
    merge_vertical,
    partition_string,
    repair,
    wagner_fischer,
)
from slpdist.dist import DistTable, Unbuilt
from slpdist.scoring import ScoringFunction, max_cost, scaled_to_ints
from slpdist.slp import fibonacci_prefix_slp, slp_from_productions


def _repo_for(slp_a, slp_b, sf, x):
    pa = partition_string(slp_a, x)
    pb = partition_string(slp_b, x)
    return build_repository(pa, pb, sf), pa, pb


@pytest.fixture
def built(monkeypatch):
    """Every table the repository builds, in build order, the intermediate
    operands it frees included: the direct builds and merges, recorded as
    they return.  The list keeps each table alive."""
    tables = []

    def recording(build):
        def wrapped(*args):
            tables.append(build(*args))
            return tables[-1]

        return wrapped

    for name in ("build_direct", "merge_vertical", "merge_horizontal"):
        monkeypatch.setattr(dist, name, recording(getattr(dist, name)))
    return tables


@pytest.fixture
def combined(monkeypatch):
    """``(key, table)`` for every key the repository combines, in order."""
    calls = []
    real = dist.Repository._combine

    def wrapped(self, key, op, tables):
        table = real(self, key, op, tables)
        calls.append((key, table))
        return table

    monkeypatch.setattr(dist.Repository, "_combine", wrapped)
    return calls


def _tables(*values):
    """The distinct built tables memo values hold: each table itself, a
    built record's table, and those an unbuilt record's operands hold, at
    any depth."""
    tables, seen = {}, set()
    stack = list(values)
    while stack:
        value = stack.pop()
        if type(value) is not Unbuilt:
            tables[id(value)] = value
        elif id(value) not in seen:
            seen.add(id(value))
            stack += (value.d1, value.d2) if value.table is None else (value.table,)
    return list(tables.values())


def _held(repo):
    """The distinct built tables the memo holds, those its records hold at
    any depth included."""
    return _tables(*repo.memo.values())


def _unbuilt(repo):
    """The part pairs' records not built yet."""
    return [v for v in repo.memo.values() if type(v) is Unbuilt and v.table is None]


def _records(repo):
    """Every distinct unbuilt record the memo holds, at any depth."""
    return _records_under(*repo.memo.values())


def _records_under(*values):
    """Every distinct unbuilt record among values, at any depth."""
    records, stack = {}, list(values)
    while stack:
        value = stack.pop()
        if type(value) is Unbuilt and value.table is None and id(value) not in records:
            records[id(value)] = value
            stack += value.d1, value.d2
    return list(records.values())


def _nested(repo):
    """The unbuilt records that hold an unbuilt record."""
    return [r for r in _records(repo) if Unbuilt in (type(r.d1), type(r.d2))]


def _merged(record):
    """The table a memo value stands for: itself if a table, a built
    record's table, else its operands' tables merged, at any depth."""
    if type(record) is not Unbuilt:
        return record
    if record.table is not None:
        return record.table
    merge = merge_vertical if record.op == "vmerge" else merge_horizontal
    table = merge(_merged(record.d1), _merged(record.d2))
    assert (record.h, record.w, record.s) == (table.h, table.w, table.s)
    assert record.ceiling == table.ceiling
    return table


def _build_all(repo):
    """Build every record the memo holds, as the sweep would on demand."""
    for value in repo.memo.values():
        if type(value) is Unbuilt and value.table is None:
            repo.build(value)


def _part_pairs(pa, pb):
    return {(p.var, q.var) for p in pa.parts for q in pb.parts}


def test_worked_grammar_repository_keys(fib7_slp):
    # the keys were ((5, exact), (6, composite)) squared while parts had a
    # kind; the composite part is now variable 4, its one hanging child
    sf = levenshtein("ab")
    repo, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, 4)
    assert repo.memo.keys() == {(5, 5), (5, 4), (4, 5), (4, 4)}


def test_every_memo_table_matches_direct(fib7_slp, rng, built):
    # the stored rows too, stand-ins included, against the repository
    # ceiling, for the freed operands as well as the tables the memo holds;
    # an unbuilt record holds two operands, built tables or records, and
    # their merge is the table it stands for
    def check(repo, sf):
        assert {id(t) for t in _held(repo)} <= {id(t) for t in built}
        for table in built:
            direct = build_direct(table.a, table.b, sf, repo.ceiling)
            assert table.rows == direct.rows
        for record in _records(repo):
            table = _merged(record)
            assert table.rows == build_direct(table.a, table.b, sf, repo.ceiling).rows
        return len(_unbuilt(repo))

    sf = levenshtein("ab")
    unbuilt = check(_repo_for(fib7_slp, fib7_slp, sf, 4)[0], sf)
    for _ in range(10):
        ga = random_slp(rng, max_len=30)
        gb = random_slp(rng, max_len=30)
        sf = random_scoring(rng, sorted(set(expand(ga)) | set(expand(gb))))
        for x in (2, 3, 5):
            built.clear()
            unbuilt += check(_repo_for(ga, gb, sf, x)[0], sf)
    assert unbuilt > 0


def test_two_terminal_grammars():
    sf = levenshtein("ab")
    ga = slp_from_productions(["a"])
    gb = slp_from_productions(["b"])
    repo, _, _ = _repo_for(ga, gb, sf, 2)
    assert repo.memo_size == 1
    table = repo.memo[1, 1]
    assert table.rows == build_direct("a", "b", sf, 2).rows
    assert repo.direct_builds == 1 and repo.merges == 0


def test_memo_size_bound_and_oracle_random(rng, built, combined):
    for _ in range(25):
        ga = random_slp(rng, max_len=30)
        gb = random_slp(rng, max_len=30)
        sigma = sorted(set(expand(ga)) | set(expand(gb)))
        sf = random_scoring(rng, sigma)
        for x in (2, 4, 7):
            built.clear()
            combined.clear()
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            # every key is combined once or left unbuilt
            keys = len(combined) + repo.unbuilt_pairs
            assert repo.memo_size <= keys <= 4 * ga.size * gb.size
            for table in built:
                assert table.rows == build_direct(table.a, table.b, sf, repo.ceiling).rows


def test_work_counter_bound(rng):
    # documented repository constant: direct builds + merges <= 2 * nA * nB
    for _ in range(15):
        ga = random_slp(rng, max_len=40)
        gb = random_slp(rng, max_len=40)
        sigma = sorted(set(expand(ga)) | set(expand(gb)))
        sf = levenshtein(sigma)
        for x in (2, 4, 8):
            repo, _, _ = _repo_for(ga, gb, sf, x)
            assert repo.direct_builds + repo.merges <= 2 * ga.size * gb.size


def test_repeated_builds_identical_and_lookup_counts_hits(fib7_slp):
    sf = levenshtein("ab")
    repo1, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, 4)
    repo2, _, _ = _repo_for(fib7_slp, fib7_slp, sf, 4)
    assert repo1.memo.keys() == repo2.memo.keys()
    assert _unbuilt(repo1)
    for key in repo1.memo:
        first, second = (_tables(repo.memo[key]) for repo in (repo1, repo2))
        assert type(repo1.memo[key]) is type(repo2.memo[key])
        assert [t.rows for t in first] == [t.rows for t in second]
    first = repo1.lookup(5, 5)
    second = repo1.lookup(5, 5)
    assert first is second


def test_composite_chain_tables(fib7_slp, rng, built):
    # composite parts are variables of the partitions' grammars, those of
    # multi-link chains variables the partition added; their tables are
    # built as any other's
    sf = levenshtein("ab")
    repo, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, 2)
    composites = [p for p in pa.parts if p.var not in key_variables(fib7_slp, 2)]
    assert composites, "expected composite parts at block size 2"
    for table in built:
        assert table.rows == build_direct(table.a, table.b, sf, repo.ceiling).rows
    added = 0
    for ga, gb, sf in _random_pairs(rng, 10):
        for x in (2, 3, 5):
            built.clear()
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            added += sum(p.var > ga.size for p in pa.parts) + sum(p.var > gb.size for p in pb.parts)
            for table in built:
                assert table.rows == build_direct(table.a, table.b, sf, repo.ceiling).rows
    assert added > 0


def test_each_table_is_stored_once_in_finite_form(rng, monkeypatch, built):
    # one finite matrix per table, built against the repository's ceiling,
    # a direct one before the sweep and a merged one by the sweep on
    # demand; the sweep reads those very rows, and stand-ins are shared
    # objects
    real_build, real_kernel = block_edit.build_repository, dist.minplus_row
    real_push = dist._push
    repos, swept, merging, misses = [], [], [], Counter()

    def build(*args):
        repos.append(real_build(*args))
        swept.clear()
        misses.clear()
        return repos[-1]

    def kernel(u, rows, jlo, jhi, counter=None):
        if not merging:
            swept.append(rows)
        return real_kernel(u, rows, jlo, jhi, counter)

    def merge_flagged(merge):
        def wrapped(*args):
            merging.append(merge)
            try:
                return merge(*args)
            finally:
                merging.pop()

        return wrapped

    def push(d, *args):
        misses["stored"] += 1
        out = yield from real_push(d, *args)
        # a record is built at the start of its own push or not during it
        misses["through"] += type(d) is Unbuilt and d.table is None
        return out

    monkeypatch.setattr(block_edit, "build_repository", build)
    monkeypatch.setattr(dist, "minplus_row", kernel)
    monkeypatch.setattr(dist, "_push", push)
    for name in ("merge_vertical", "merge_horizontal"):
        monkeypatch.setattr(dist, name, merge_flagged(getattr(dist, name)))
    unbuilt = on_demand = 0
    for _ in range(10):
        ga = random_slp(rng, max_len=40)
        gb = random_slp(rng, max_len=40)
        text_a, text_b = expand(ga), expand(gb)
        sf = random_scoring(rng, sorted(set(text_a) | set(text_b)))
        repos.clear()
        built.clear()
        cost, stats = block_edit_distance(ga, gb, sf, 3)
        assert cost == wagner_fischer(text_a, text_b, sf)
        (repo,) = repos
        assert repo.unbuilt_pairs == len(_unbuilt(repo))
        unbuilt += repo.unbuilt_pairs
        on_demand += stats.merges
        for t in built:
            assert not hasattr(t, "__dict__")
            assert t.ceiling == repo.ceiling
            assert all(v is not None for row in t.rows for v in row)
            stand_ins = [v for row in t.rows for v in row if v > t.ceiling]
            shared = {id(v) for v in stand_ins}
            assert len(shared) == len(set(stand_ins)) <= 2 * t.s
        assert stats.table_entries == sum(t.s * t.s for t in _held(repo))
        # one sweep kernel call per record the sweep memo stored, but for
        # those pushed through an unbuilt record's operands, memo resets or
        # not (while the repository built its tables before the sweep: one
        # per record it stored for a built table, counted in a memo that
        # did not reset)
        assert len(swept) == misses["stored"] - misses["through"]
        # each call hands over stored row objects of one table, in order and
        # the top-left corner's among them (while a miss handed the kernel
        # every input, it handed over the table's own row list)
        stored = {id(row): (id(t), i, t.h) for t in built for i, row in enumerate(t.rows)}
        for rows in swept:
            owners = [stored[id(row)] for row in rows]
            assert len({table for table, _, _ in owners}) == 1
            indices = [i for _, i, _ in owners]
            assert indices == sorted(set(indices)) and owners[0][2] in indices
    assert unbuilt > 0 and on_demand > 0


def _random_pairs(rng, count, max_len=40):
    for _ in range(count):
        ga = random_slp(rng, max_len=max_len)
        gb = random_slp(rng, max_len=max_len)
        yield ga, gb, random_scoring(rng, sorted(set(expand(ga)) | set(expand(gb))))


def test_each_distinct_table_costs_one_build(rng, built):
    # every table built, freed or held, is one direct build or one merge,
    # and no table object comes out of two builds
    for ga, gb, sf in _random_pairs(rng, 15):
        for x in (2, 3, 5, 8):
            built.clear()
            repo, _, _ = _repo_for(ga, gb, sf, x)
            assert repo.direct_builds + repo.merges == len(built)
            assert len({id(t) for t in built}) == len(built)


def test_exact_pairs_split_the_longer_side(fib7_slp, rng, monkeypatch, combined):
    # a table of two variables not both terminals merges the tables of the
    # longer side's children (A on a tie) with the whole shorter side, in
    # the grammars the partitions extended; every record is built, as the
    # sweep builds records on demand
    made = {}

    def recording(kind, merge):
        def wrapped(d1, d2, *args):
            table = merge(d1, d2, *args)
            made[id(table)] = (kind, d1, d2)
            return table

        return wrapped

    monkeypatch.setattr(dist, "merge_vertical", recording("v", dist.merge_vertical))
    monkeypatch.setattr(dist, "merge_horizontal", recording("h", dist.merge_horizontal))
    grammars = [(fib7_slp, fib7_slp, levenshtein("ab"))] + list(_random_pairs(rng, 10))
    splits = {"v": 0, "h": 0, "tie": 0}
    for ga, gb, sf in grammars:
        for x in (2, 3, 5):
            made.clear()
            combined.clear()
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            _build_all(repo)
            ea, eb = pa.slp, pb.slp
            for (va, vb), table in combined:
                prod_a, prod_b = ea.productions[va], eb.productions[vb]
                if isinstance(prod_a, str) and isinstance(prod_b, str):
                    assert id(table) not in made
                    continue
                kind, d1, d2 = made[id(table)]
                if ea.lengths[va] >= eb.lengths[vb]:
                    p, q = prod_a
                    assert kind == "v"
                    assert (d1.a, d1.b) == (expand(ea, p), table.b)
                    assert (d2.a, d2.b) == (expand(ea, q), table.b)
                    splits["tie"] += ea.lengths[va] == eb.lengths[vb]
                else:
                    r, t = prod_b
                    assert kind == "h"
                    assert (d1.a, d1.b) == (table.a, expand(eb, r))
                    assert (d2.a, d2.b) == (table.a, expand(eb, t))
                splits[kind] += 1
    assert all(splits.values()), splits


def test_memo_holds_exactly_the_part_pairs(fib7_slp, rng):
    # every intermediate operand leaves the memo once its last consumer is
    # built; the sweep reads only the part pairs
    sf = levenshtein("ab")
    for x in (2, 4):
        repo, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, x)
        assert repo.memo.keys() == _part_pairs(pa, pb)
    for ga, gb, sf in _random_pairs(rng, 10):
        for x in (2, 3, 5):
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            assert repo.memo.keys() == _part_pairs(pa, pb)


def test_no_key_is_combined_twice(fib7_slp, rng, combined):
    # a key is dropped only after its last consumer is built, so dropping
    # never forces a rebuild; an unbuilt pair is never combined, and its
    # operands are
    grammars = [(fib7_slp, fib7_slp, levenshtein("ab"))] + list(_random_pairs(rng, 10))
    unbuilt = 0
    for ga, gb, sf in grammars:
        for x in (2, 3, 5):
            combined.clear()
            repo, _, _ = _repo_for(ga, gb, sf, x)
            keys = [key for key, _ in combined]
            assert len(set(keys)) == len(keys)
            left = {key for key, value in repo.memo.items() if type(value) is Unbuilt}
            assert repo.memo.keys() - left <= set(keys) and left.isdisjoint(keys)
            made = {id(table) for _, table in combined}
            assert all(id(t) in made for key in left for t in _tables(repo.memo[key]))
            unbuilt += len(left)
    assert unbuilt > 0


def _balanced_pair():
    text = "".join("abcd"[(i * i + i // 3) % 4] for i in range(96))
    return from_plain(text), from_plain(text[::-1])


def test_balanced_grammars_hold_fewer_entries_than_they_build(built):
    # balanced grammars reuse few of the operands the exact pairs split
    # into, so most of what the repository builds is freed once the records
    # that hold it are built
    ga, gb = _balanced_pair()
    sf = levenshtein("abcd")
    for x in (4, 8):
        built.clear()
        cost, stats = block_edit_distance(ga, gb, sf, x)
        assert cost == wagner_fischer(expand(ga), expand(gb), sf)
        made = sum(t.s * t.s for t in built)
        assert stats.table_entries <= stats.peak_table_entries < made
        assert stats.table_entries < made / 2


def test_peak_table_entries_counts_the_tables_alive(fib7_slp, rng, monkeypatch):
    # replay the build: as each table is stored, add up the entries of
    # every DistTable still alive, so a freed operand that lingers counts;
    # the largest sum is the counter.  An unbuilt record stores no table
    # but keeps its operands alive, records among them, so once built the
    # tables alive are those ``table_entries`` counts
    real = dist.Repository._combine
    before = []
    seen = []

    def alive():
        old = {id(t) for t in before}
        tables = [o for o in gc.get_objects() if type(o) is DistTable and id(o) not in old]
        return sum(t.s * t.s for t in tables)

    def wrapped(self, key, op, tables):
        table = real(self, key, op, tables)
        seen.append(alive())
        return table

    monkeypatch.setattr(dist.Repository, "_combine", wrapped)
    grammars = [(fib7_slp, fib7_slp, levenshtein("ab"))]
    grammars += list(_random_pairs(rng, 3, max_len=24))
    grammars.append((*_balanced_pair(), levenshtein("abcd")))
    unbuilt = nested = built = 0
    for ga, gb, sf in grammars:
        for x in (2, 4):
            before[:] = [o for o in gc.get_objects() if type(o) is DistTable]
            seen.clear()
            repo, _, _ = _repo_for(ga, gb, sf, x)
            assert max(seen) == repo.peak_table_entries
            assert alive() == repo.table_entries
            unbuilt += repo.unbuilt_pairs
            nested += len(_nested(repo))
            # records built in any order, as the sweep builds them on
            # demand: each holds its table in place of its operands, and a
            # table or record no record or part pair holds any more is
            # freed (a freed record holds nothing)
            records = _records(repo)
            rng.shuffle(records)
            for record in records:
                if record not in repo.holders:
                    assert record.d1 is record.d2 is record.table is None
                elif record.table is None:
                    repo.build(record)
                    assert max(seen) == repo.peak_table_entries
                    assert alive() == repo.table_entries
                    built += 1
            assert repo.unbuilt_keys == 0
    assert unbuilt > 0 and nested > 0 and built > 0


def test_a_finished_run_frees_its_repository_without_the_cycle_collector(monkeypatch):
    # no table, record or sweep state points back at the repository, so
    # reference counting alone frees it, with everything it holds, as soon
    # as the run returns
    real = block_edit.build_repository
    repos = []

    def build(*args):
        repo = real(*args)
        repos.append(weakref.ref(repo))
        return repo

    monkeypatch.setattr(block_edit, "build_repository", build)
    ga = fibonacci_prefix_slp(1024)
    gb = fibonacci_prefix_slp(1024, alphabet=("b", "a"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, stats = block_edit_distance(ga, gb, levenshtein("ab"), 48)
        (repo,) = repos
        assert repo() is None
    finally:
        if enabled:
            gc.enable()
    # records were built on demand and others left unbuilt
    assert stats.merges > 0 and stats.unbuilt_keys > 0


def _grammar_pairs(fib7_slp, rng):
    grammars = [(fib7_slp, fib7_slp, levenshtein("ab"))] + list(_random_pairs(rng, 12))
    fib = fibonacci_prefix_slp(300)
    grammars += [(fib, fibonacci_prefix_slp(300, alphabet=("b", "a")), levenshtein("ab"))]
    grammars.append((*_balanced_pair(), levenshtein("abcd")))
    # compressor grammars of periodic text, where an operand that an
    # unbuilt key holds can be the operand of a later key as well
    for compress in (repair, lambda text: lz78_to_slp(lz78_parse(text))):
        texts = [mutated_periodic(rng, "ab", 90, 5, 3) for _ in "ab"]
        grammars.append((*map(compress, texts), levenshtein("ab")))
    return grammars


def test_a_record_is_built_exactly_when_its_rent_reaches_its_price(
    fib7_slp, rng, monkeypatch, combined
):
    # replay the sweep's misses: a record's price is what its merge would
    # fill, (s1 - 1) * (shared + s2); its rent grows by 2 * shared at each
    # miss through it, and the miss where the rent first reaches the price
    # builds its table.  A record built before that is an unbuilt operand
    # of a record being built, and is built first.  No key is combined
    # twice.  (While the repository decided before the sweep, a replay of
    # its reverse pass over sizes and part counts checked which keys it
    # left unbuilt.)
    real_push, real_build = dist._push, dist.Repository.build
    misses = Counter()  # misses through each record while it is unbuilt
    events = Counter()

    def push(d, *args):
        if type(d) is not Unbuilt or d.table is not None:
            return (yield from real_push(d, *args))
        if not misses[d]:
            s1, s2 = d.d1.s, d.d2.s
            assert d.shared == s1 + s2 - d.s and d.price == (s1 - 1) * (d.shared + s2)
        assert d.rent == 2 * d.shared * misses[d]
        misses[d] += 1
        out = yield from real_push(d, *args)
        reached = 2 * d.shared * misses[d] >= d.price
        assert (d.table is not None) == reached
        events["rent"] += reached
        return out

    def build(self, record):
        # entered once per build on demand; the operands it merges first
        # are records below it whose rent has not reached their price
        assert record.table is None
        assert record.rent >= record.price > record.rent - 2 * record.shared
        below = {r.key: r for r in _records_under(record)}
        start = len(combined)
        table = real_build(self, record)
        *operands, last = (key for key, _ in combined[start:])
        assert last == record.key
        for key in operands:
            assert below[key].rent < below[key].price
        events["operand"] += len(operands)
        return table

    monkeypatch.setattr(dist, "_push", push)
    monkeypatch.setattr(dist.Repository, "build", build)
    for ga, gb, sf in _grammar_pairs(fib7_slp, rng):
        for x in (2, 3, 5, 8, 13):
            combined.clear()
            cost, stats = block_edit_distance(ga, gb, sf, x)
            assert cost == wagner_fischer(expand(ga), expand(gb), sf)
            keys = [key for key, _ in combined]
            assert len(set(keys)) == len(keys)
            events["unbuilt"] += stats.unbuilt_keys
    assert events["rent"] and events["operand"] and events["unbuilt"], events


def test_no_built_key_has_an_unbuilt_operand(fib7_slp, rng, combined):
    # a merge reads two built tables: every operand of a combined key was
    # combined before it
    nested = 0
    for ga, gb, sf in _grammar_pairs(fib7_slp, rng):
        for x in (2, 3, 5, 8):
            combined.clear()
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            plan = repo._plan(sorted(repo.memo))
            done = set()
            for key, _ in combined:
                assert all(d in done for d in plan[key][0])
                done.add(key)
            nested += len(_nested(repo))
    assert nested > 0


def test_nested_records_hold_each_table_once(fib7_slp, rng):
    # a record that holds a record holds that record's tables: the memo's
    # values hold the tables reachable through their operands at any depth,
    # each counted once by ``_held`` and ``table_entries``
    seen = 0
    for ga, gb, sf in _grammar_pairs(fib7_slp, rng):
        for x in (2, 3, 5, 8, 13):
            repo, _, _ = _repo_for(ga, gb, sf, x)
            reached = {}

            def walk(value):
                if type(value) is Unbuilt:
                    walk(value.d1)
                    walk(value.d2)
                else:
                    reached[id(value)] = value

            for value in repo.memo.values():
                walk(value)
                held = _tables(value)
                assert len({id(t) for t in held}) == len(held)
                assert all(type(t) is DistTable for t in held)
            assert {id(t) for t in _tables(*repo.memo.values())} == reached.keys()
            assert repo.table_entries == sum(t.s * t.s for t in reached.values())
            for record in _nested(repo):
                inner = [v for v in (record.d1, record.d2) if type(v) is Unbuilt]
                tables = {id(t) for v in inner for t in _tables(v)}
                assert tables <= {id(t) for t in _tables(record)}
                seen += 1
    assert seen > 0


def _short(rng, sigma, n):
    """A random grammar of a random text over sigma, at most n long."""
    return from_plain("".join(rng.choice(sigma) for _ in range(rng.randint(1, n))))


def _grid_cases(rng, grid, count=16):
    """``(ga, gb, sf, x)`` for random grammars, or for grids of one block
    row ("1 x k") or one block column ("k x 1"), with int costs and, in
    every other case, Decimal costs."""
    from decimal import Decimal

    costs = [Decimal(t) for t in ("1.5", "2.25", "3", "0.75", "1.0", "2.50")]
    for i in range(count):
        x = rng.choice((2, 3, 5))
        if grid == "random":
            ga, gb = random_slp(rng, max_len=40), random_slp(rng, max_len=40)
        else:
            ga, gb = _short(rng, "ab", x - 1), random_slp(rng, max_len=60)
            if grid == "k x 1":
                ga, gb = gb, ga
        sigma = sorted(set(expand(ga)) | set(expand(gb)))
        sf = random_scoring(rng, sigma)
        if i % 2:
            sf = ScoringFunction(
                sigma,
                {c: rng.choice(costs) for c in sigma},
                {c: rng.choice(costs) for c in sigma},
                {(a, b): Decimal(0) if a == b else rng.choice(costs) for a in sigma for b in sigma},
            )
        if grid != "random":
            parts = len(partition_string(ga, x).parts), len(partition_string(gb, x).parts)
            assert min(parts) == 1
        yield ga, gb, sf, x


GRIDS = ["random", "1 x k", "k x 1"]


@pytest.mark.parametrize("grid", GRIDS)
def test_nested_records_are_exact(rng, grid):
    # the distance through nested records is Wagner-Fischer's, with int
    # and Decimal costs, and every record's merged operands are the direct
    # table of its strings; a grid of one block row or one block column
    # nests records down one side only
    nested = 0
    for ga, gb, sf, x in _grid_cases(rng, grid):
        text_a, text_b = expand(ga), expand(gb)
        got, stats = block_edit_distance(ga, gb, sf, x)
        assert str(got) == str(wagner_fischer(text_a, text_b, sf))
        scaled, _ = scaled_to_ints(sf, text_a, text_b)
        repo = build_repository(partition_string(ga, x), partition_string(gb, x), scaled)
        # the sweep builds some records on demand, so fewer keys are
        # unbuilt once it ends than when the repository was built (equal
        # while the repository decided before the sweep)
        assert repo.unbuilt_keys >= stats.unbuilt_keys >= stats.unbuilt_pairs
        for record in _records(repo):
            table = _merged(record)
            assert table.rows == build_direct(table.a, table.b, scaled, repo.ceiling).rows
        nested += len(_nested(repo))
    assert nested > 0


@pytest.mark.parametrize("grid", GRIDS)
def test_tables_built_on_demand_are_exact(rng, grid, monkeypatch, built):
    # every table the sweep builds on demand is the direct table of its
    # strings, stand-ins included, and the distance stays Wagner-Fischer's
    real = dist.Repository.build
    on_demand = []

    def build(self, record):
        on_demand.append(real(self, record))
        return on_demand[-1]

    monkeypatch.setattr(dist.Repository, "build", build)
    swept = 0
    for ga, gb, sf, x in _grid_cases(rng, grid):
        text_a, text_b = expand(ga), expand(gb)
        built.clear()
        on_demand.clear()
        got, stats = block_edit_distance(ga, gb, sf, x)
        assert str(got) == str(wagner_fischer(text_a, text_b, sf))
        scaled, _ = scaled_to_ints(sf, text_a, text_b)
        ceiling = (len(text_a) + len(text_b)) * max_cost(scaled)
        assert stats.direct_builds + stats.merges == len(built)
        for table in built:
            assert table.rows == build_direct(table.a, table.b, scaled, ceiling).rows
        swept += len(on_demand)
    assert swept > 0


@pytest.mark.parametrize("grid", GRIDS)
def test_a_record_gives_the_same_outputs_once_built(rng, grid):
    # a block pushed through a record's operands and through the table it
    # is then built into gives the same outputs, for any non-negative
    # inputs, each on a memo of its own
    compared = 0
    for ga, gb, sf, x in _grid_cases(rng, grid):
        text_a, text_b = expand(ga), expand(gb)
        scaled, _ = scaled_to_ints(sf, text_a, text_b)
        repo = build_repository(partition_string(ga, x), partition_string(gb, x), scaled)
        records = _records(repo)
        rng.shuffle(records)
        for record in records:
            if record.table is not None or record not in repo.holders:
                continue
            values = [rng.randint(0, 30) for _ in range(record.s)]
            outputs = []
            for _ in "before", "after":
                sweep = dist.Sweep(10**6, repo)
                left, top = (
                    sweep.intern(tuple(map(sub, e[1:], e)))
                    for e in (values[: record.h + 1], values[record.h :])
                )
                out = dist._miss((record, left, top), values[0], sweep)
                outputs.append((out.first, out.bottom.steps, out.right.steps, out.peak))
                if record.table is None:
                    repo.build(record)
                    compared += 1
            assert outputs[0] == outputs[1]
    assert compared > 0


def _depth(value):
    """How many unbuilt records nest down from a memo value, itself
    included; a built record counts as its table, as in the sweep."""
    if type(value) is not Unbuilt or value.table is not None:
        return 0
    return 1 + max(_depth(value.d1), _depth(value.d2))


def test_records_nest_deeper_than_the_stack():
    # the sweep pushes blocks through nested records, and builds them,
    # over explicit stacks: records nested deeper than the frames left
    # under the recursion limit stay exact
    rng = random.Random(7)
    ga, gb = (chain_slp("".join(rng.choice("ab") for _ in range(80))) for _ in "ab")
    sf = levenshtein("ab")
    repo, _, _ = _repo_for(ga, gb, sf, 30)
    assert max(_depth(v) for v in repo.memo.values()) == 58
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        cost, _ = block_edit_distance(ga, gb, sf, 30)
    finally:
        sys.setrecursionlimit(limit)
    assert cost == wagner_fischer(expand(ga), expand(gb), sf)
