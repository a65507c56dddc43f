"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Documented constants (see README): SMAWK element queries <= 4 * rows +
7 * cols; repository work (direct builds + merges) <= 2 * nA * nB.
"""

import math
import random
import time

from conftest import (
    grid_ceiling,
    mutated_periodic,
    random_monge_matrix,
    random_scoring,
    random_slp,
    smawk,
)
from oracles import association_map, brute_column_minima, contents
from slpdist import (
    block_edit_distance,
    build_direct,
    build_repository,
    expand,
    fibonacci_prefix_slp,
    from_plain,
    key_variables,
    levenshtein,
    lz78_parse,
    lz78_to_slp,
    merge_horizontal,
    merge_vertical,
    partition_string,
    wagner_fischer,
)
from slpdist.cli import dump_slp, parse_slp
from slpdist.dist import Unbuilt

SIGMAS = ("ab", "abcd", "abcdefghijklmnopqrstuvwxyz")


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _strings_of(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in alphabet]
        out.extend(frontier)
    return out


def _ingest(text, use_lz78):
    return lz78_to_slp(lz78_parse(text)) if use_lz78 else from_plain(text)


def test_criterion_1_oracle_equivalence():
    rng = random.Random(101)
    tables = {
        sigma: [random_scoring(rng, sigma) for _ in range(20)] for sigma in SIGMAS
    }

    def make_texts(i):
        if i < 164:
            sigma = SIGMAS[i % 3]
            pick = lambda: "".join(
                rng.choice(sigma) for _ in range(rng.randint(1, 44))
            )
        elif i < 182:
            sigma = SIGMAS[i % 3]
            cap = 96 if len(sigma) < 26 else 56
            pick = lambda: "".join(
                rng.choice(sigma) for _ in range(rng.randint(45, cap))
            )
        elif i < 196:
            sigma = SIGMAS[i % 2]
            pick = lambda: mutated_periodic(
                rng, sigma, rng.randint(129, 320), rng.randint(3, 8), 4
            )
        else:
            sigma = SIGMAS[i % 2]
            length = 512 if i >= 198 else rng.randint(321, 511)
            pick = lambda: mutated_periodic(rng, sigma, length, rng.randint(4, 9), 5)
        return sigma, pick(), pick()

    started = time.perf_counter()
    checked = 0
    for i in range(200):
        sigma, text_a, text_b = make_texts(i)
        sf = levenshtein(sigma) if i % 2 == 0 else tables[sigma][i % 20]
        slp_a = _ingest(text_a, use_lz78=bool(i % 2))
        slp_b = _ingest(text_b, use_lz78=not i % 2)
        want = wagner_fischer(text_a, text_b, sf)
        for x in (2, 4, 8, 16, None):
            got, _ = block_edit_distance(slp_a, slp_b, sf, x)
            assert got == want, (i, x, text_a[:40], text_b[:40], got, want)
            checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        checked == 1000 and elapsed < 60.0,
        f"200 cases x 5 block sizes matched Wagner-Fischer exactly in {elapsed:.1f}s",
    )


def test_criterion_2_merge_soundness():
    sf = levenshtein("ab")
    strings = _strings_of("ab", 4)
    # one grid ceiling for every cached table: the longest pair's
    ceiling = grid_ceiling(sf, strings[-1], strings[-1])
    cache = {}

    def direct(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = build_direct(a, b, sf, ceiling)
        return cache[key]

    count = 0
    for a in strings:
        for b in strings:
            target = direct(a, b).rows
            for cut in range(len(b) + 1):
                got = merge_horizontal(direct(a, b[:cut]), direct(a, b[cut:]))
                assert got.rows == target, ("h", a, b, cut)
                count += 1
            for cut in range(len(a) + 1):
                got = merge_vertical(direct(a[:cut], b), direct(a[cut:], b))
                assert got.rows == target, ("v", a, b, cut)
                count += 1
            for acut in range(len(a) + 1):
                for bcut in range(len(b) + 1):
                    got = merge_vertical(
                        merge_horizontal(direct(a[:acut], b[:bcut]), direct(a[:acut], b[bcut:])),
                        merge_horizontal(direct(a[acut:], b[:bcut]), direct(a[acut:], b[bcut:])),
                    )
                    assert got.rows == target, ("q", a, b, acut, bcut)
                    count += 1
    rng = random.Random(202)
    for _ in range(300):
        sigma = rng.choice(("ab", "abc"))
        sfr = random_scoring(rng, sigma)
        a = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
        acut = rng.randint(0, len(a))
        bcut = rng.randint(0, len(b))
        C = grid_ceiling(sfr, a, b)
        target = build_direct(a, b, sfr, C).rows
        assert (
            merge_horizontal(
                build_direct(a, b[:bcut], sfr, C), build_direct(a, b[bcut:], sfr, C)
            ).rows
            == target
        )
        assert (
            merge_vertical(
                build_direct(a[:acut], b, sfr, C), build_direct(a[acut:], b, sfr, C)
            ).rows
            == target
        )
        count += 2
    _report(2, True, f"{count} merges equal direct construction entry-for-entry")


def test_criterion_3_smawk_kernel():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(1000):
        nrows, ncols = rng.randint(1, 64), rng.randint(1, 64)
        m = random_monge_matrix(rng, nrows, ncols)
        values, rows, _, reads = smawk(m)
        bvalues, brows = brute_column_minima(m)
        assert values == bvalues and rows == brows, (nrows, ncols)
        assert reads <= 4 * (nrows + ncols), (reads, nrows, ncols)
        worst = max(worst, reads / (nrows + ncols))
    _report(
        3,
        True,
        f"1000 Monge matrices matched brute force; worst query ratio {worst:.2f} <= 4",
    )


def test_criterion_4_partition_invariants():
    rng = random.Random(404)
    checked = 0
    for _ in range(100):
        g = random_slp(rng, max_len=44)
        text = expand(g)
        n = len(text)
        for x in range(2, n + 1):
            p = partition_string(g, x)
            assert "".join(contents(p, text)) == text, (g.productions, x)
            assert all(q.length <= 2 * x for q in p.parts)
            assert len(p.parts) <= 3 * math.ceil(n / x) + 2
            assert partition_string(g, x).parts == p.parts
            association_map(p, text)
            checked += 1
    _report(4, True, f"{checked} partitions tiled exactly within every bound")


def _built_rows(repo):
    """Every part pair's table rows, once each record is built as the
    sweep would build it on demand."""
    rows = {}
    for key, value in repo.memo.items():
        if type(value) is Unbuilt:
            value = value.table or repo.build(value)
        rows[key] = value.rows
    return rows


def test_criterion_5_repository_counting():
    # the bound holds with every record built, as if each part pair's
    # table were needed; the sweep builds only some of them
    rng = random.Random(505)
    worst = 0.0
    for i in range(30):
        ga = random_slp(rng, max_len=48)
        gb = random_slp(rng, max_len=48)
        sigma = sorted(set(expand(ga)) | set(expand(gb)))
        sf = levenshtein(sigma)
        for x in (2, 4, 8):
            pa = partition_string(ga, x)
            pb = partition_string(gb, x)
            repo = build_repository(pa, pb, sf)
            rows = _built_rows(repo)
            work = repo.direct_builds + repo.merges
            assert work <= 2 * ga.size * gb.size, (work, ga.size, gb.size)
            worst = max(worst, work / (ga.size * gb.size))
            if i == 0 and x == 2:
                again = build_repository(pa, pb, sf)
                assert _built_rows(again) == rows
    _report(
        5,
        True,
        f"repository work stayed within 2 * nA * nB (worst ratio {worst:.2f}); "
        "rebuilds bit-identical",
    )


def test_criterion_6_scaling_trend():
    sf = levenshtein("ab")
    cells = []
    details = []
    for power in (10, 11, 12, 13, 14):
        half = 2 ** (power - 1)
        slp_a = fibonacci_prefix_slp(half)
        slp_b = fibonacci_prefix_slp(half, alphabet=("b", "a"))
        _, stats = block_edit_distance(slp_a, slp_b, sf)
        cells.append(stats.boundary_cells_propagated)
        details.append(f"2^{power}: x={stats.block_size} cells={cells[-1]}")
    factors = [cells[i + 1] / cells[i] for i in range(len(cells) - 1)]
    half = 2 ** 13
    baseline_cells = (half + 1) * (half + 1)
    work_ratio = baseline_cells / cells[-1]
    detail = (
        f"growth per doubling {['%.2f' % f for f in factors]} (bound 2.7); "
        f"counted work {work_ratio:.1f}x below the baseline cell count (bound 3x)"
    )
    ok = work_ratio >= 3.0 and all(f <= 2.7 for f in factors)
    print("; ".join(details))
    _report(6, ok, detail)


def test_criterion_7_worked_example():
    grammar_text = (
        "SLP 7\n1 -> 'b'\n2 -> 'a'\n3 -> 2 1\n4 -> 3 2\n"
        "5 -> 4 3\n6 -> 5 4\n7 -> 6 5\n"
    )
    g = parse_slp(grammar_text)
    assert dump_slp(g) == grammar_text
    assert parse_slp(dump_slp(g)).productions == g.productions
    text = expand(g)
    assert text == "abaababaabaab"
    assert len(text) == 13
    assert key_variables(g, 4) == {5}
    p = partition_string(g, 4)
    # while parts had a kind, (var, kind, start, length): (5, exact, 0, 5),
    # (6, composite, 5, 3), (5, exact, 8, 5); the composite part is now
    # variable 4, its one hanging child
    assert [(q.var, q.start, q.length) for q in p.parts] == [(5, 0, 5), (4, 5, 3), (5, 8, 5)]
    assert contents(p, text) == ["abaab", "aba", "abaab"]
    _report(7, True, "worked grammar round-trips, keys and 3-part partition reproduced")
