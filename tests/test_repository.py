from conftest import random_slp, random_scoring
from slpdist import (
    COMPOSITE,
    EXACT,
    block_edit,
    block_edit_distance,
    build_direct,
    build_repository,
    dist,
    expand,
    levenshtein,
    partition_string,
    wagner_fischer,
)
from slpdist.slp import slp_from_productions


def _repo_for(slp_a, slp_b, sf, x):
    pa = partition_string(slp_a, x)
    pb = partition_string(slp_b, x)
    return build_repository(slp_a, slp_b, pa, pb, sf), pa, pb


def test_worked_grammar_repository_keys(fib7_slp):
    sf = levenshtein("ab")
    repo, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, 4)
    for part_key in ((5, EXACT), (6, COMPOSITE)):
        for other in ((5, EXACT), (6, COMPOSITE)):
            assert (part_key, other) in repo.memo


def test_every_memo_table_matches_direct(fib7_slp, rng):
    # the stored rows too, stand-ins included, against the repository ceiling
    sf = levenshtein("ab")
    repo, _, _ = _repo_for(fib7_slp, fib7_slp, sf, 4)
    for (ka, kb), table in repo.memo.items():
        direct = build_direct(table.a, table.b, sf, repo.ceiling)
        assert table.m == direct.m
        assert table.rows == direct.rows
    for _ in range(10):
        ga = random_slp(rng, max_len=30)
        gb = random_slp(rng, max_len=30)
        sf = random_scoring(rng, sorted(set(expand(ga)) | set(expand(gb))))
        for x in (2, 3, 5):
            repo, _, _ = _repo_for(ga, gb, sf, x)
            for table in repo.memo.values():
                direct = build_direct(table.a, table.b, sf, repo.ceiling)
                assert table.rows == direct.rows


def test_two_terminal_grammars():
    sf = levenshtein("ab")
    ga = slp_from_productions(["a"])
    gb = slp_from_productions(["b"])
    repo, _, _ = _repo_for(ga, gb, sf, 2)
    assert repo.memo_size == 1
    table = repo.memo[(1, EXACT), (1, EXACT)]
    assert table.m == build_direct("a", "b", sf, 2).m
    assert repo.direct_builds == 1 and repo.merges == 0


def test_memo_size_bound_and_oracle_random(rng):
    for _ in range(25):
        ga = random_slp(rng, max_len=30)
        gb = random_slp(rng, max_len=30)
        sigma = sorted(set(expand(ga)) | set(expand(gb)))
        sf = random_scoring(rng, sigma)
        for x in (2, 4, 7):
            repo, pa, pb = _repo_for(ga, gb, sf, x)
            assert repo.memo_size <= 4 * ga.size * gb.size
            for table in repo.memo.values():
                assert table.m == build_direct(table.a, table.b, sf, repo.ceiling).m


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
    for key in repo1.memo:
        assert repo1.memo[key].m == repo2.memo[key].m
    first = repo1.lookup((5, EXACT), (5, EXACT))
    second = repo1.lookup((5, EXACT), (5, EXACT))
    assert first is second


def test_composite_chain_tables(fib7_slp):
    # block size 2 exercises multi-link accumulation chains
    sf = levenshtein("ab")
    repo, pa, pb = _repo_for(fib7_slp, fib7_slp, sf, 2)
    composites = [p for p in pa.parts if p.kind == COMPOSITE]
    assert composites, "expected composite parts at block size 2"
    for (ka, kb), table in repo.memo.items():
        assert table.m == build_direct(table.a, table.b, sf, repo.ceiling).m


def test_each_table_is_stored_once_in_finite_form(rng, monkeypatch):
    # one finite matrix per table, built against the repository's ceiling;
    # the sweep reads those very rows, and stand-ins are shared objects
    real_build, real_kernel = block_edit.build_repository, dist.minplus_row
    built, swept = [], []

    def build(*args):
        built.append(real_build(*args))
        swept.clear()
        return built[-1]

    def kernel(u, rows, jlo, jhi, counter=None):
        swept.append(rows)
        return real_kernel(u, rows, jlo, jhi, counter)

    monkeypatch.setattr(block_edit, "build_repository", build)
    monkeypatch.setattr(dist, "minplus_row", kernel)
    for _ in range(10):
        ga = random_slp(rng, max_len=40)
        gb = random_slp(rng, max_len=40)
        text_a, text_b = expand(ga), expand(gb)
        sf = random_scoring(rng, sorted(set(text_a) | set(text_b)))
        built.clear()
        cost, stats = block_edit_distance(ga, gb, sf, 3)
        assert cost == wagner_fischer(text_a, text_b, sf)
        (repo,) = built
        tables = {id(t): t for t in repo.memo.values()}.values()
        for t in tables:
            assert not hasattr(t, "__dict__")
            assert t.ceiling == repo.ceiling
            assert all(v is not None for row in t.rows for v in row)
            stand_ins = [v for row in t.rows for v in row if v > t.ceiling]
            shared = {id(v) for v in stand_ins}
            assert len(shared) == len(set(stand_ins)) <= 2 * t.s
        assert stats.table_entries == sum(t.s * t.s for t in tables)
        # one kernel call per block the sweep memo did not answer
        assert len(swept) == stats.block_count - stats.sweep_memo_hits
        stored = {id(t.rows) for t in tables}
        assert all(id(rows) in stored for rows in swept)


def _random_pairs(rng, count, max_len=40):
    for _ in range(count):
        ga = random_slp(rng, max_len=max_len)
        gb = random_slp(rng, max_len=max_len)
        yield ga, gb, random_scoring(rng, sorted(set(expand(ga)) | set(expand(gb))))


def test_each_distinct_table_costs_one_build(rng):
    # every memo entry that is not an alias is one direct build or one merge
    for ga, gb, sf in _random_pairs(rng, 15):
        for x in (2, 3, 5, 8):
            repo, _, _ = _repo_for(ga, gb, sf, x)
            distinct = len({id(t) for t in repo.memo.values()})
            assert repo.direct_builds + repo.merges == distinct


def test_exact_pairs_split_the_longer_side(fib7_slp, rng, monkeypatch):
    # an exact x exact table of two non-terminals merges the tables of the
    # longer side's children (A on a tie) with the whole shorter side
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
            repo, _, _ = _repo_for(ga, gb, sf, x)
            for (ka, kb), table in repo.memo.items():
                (va, kind_a), (vb, kind_b) = ka, kb
                prod_a, prod_b = ga.productions[va], gb.productions[vb]
                if kind_a != EXACT or kind_b != EXACT:
                    continue
                if isinstance(prod_a, str) or isinstance(prod_b, str):
                    continue
                kind, d1, d2 = made[id(table)]
                if ga.lengths[va] >= gb.lengths[vb]:
                    p, q = prod_a
                    assert kind == "v"
                    assert d1 is repo.memo[(p, EXACT), kb]
                    assert d2 is repo.memo[(q, EXACT), kb]
                    splits["tie"] += ga.lengths[va] == gb.lengths[vb]
                else:
                    r, t = prod_b
                    assert kind == "h"
                    assert d1 is repo.memo[ka, (r, EXACT)]
                    assert d2 is repo.memo[ka, (t, EXACT)]
                splits[kind] += 1
    assert all(splits.values()), splits
