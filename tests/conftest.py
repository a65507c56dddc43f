"""Shared fixtures: the worked grammar example, random generators, and
independent oracles the implementation is checked against."""

from __future__ import annotations

import random

import pytest

from slpdist import ScoringFunction, from_plain, lz78_parse, lz78_to_slp, repair
from slpdist.monge import _smawk
from slpdist.scoring import max_cost
from slpdist.slp import slp_from_productions


@pytest.fixture
def fib7_slp():
    """The seven-variable grammar deriving "abaababaabaab"."""
    return slp_from_productions(["b", "a", (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_text(rng, sigma, length):
    return "".join(rng.choice(sigma) for _ in range(length))


def grid_ceiling(sf, *texts):
    """The one ceiling of a grid whose sides are ``texts`` together, as the
    repository picks it: the longest path through that grid."""
    return sum(map(len, texts)) * max_cost(sf)


def random_scoring(rng, sigma, hi=9) -> ScoringFunction:
    """Arbitrary non-negative integer costs with zero-cost identity."""
    chars = tuple(sigma)
    return ScoringFunction(
        chars,
        {c: rng.randint(0, hi) for c in chars},
        {c: rng.randint(0, hi) for c in chars},
        {(a, b): (0 if a == b else rng.randint(0, hi)) for a in chars for b in chars},
    )


def random_slp(rng, max_len=60):
    """Mixed-shape grammars: compressor outputs plus hand-rolled trees."""
    style = rng.randrange(6)
    sigma = rng.choice(("ab", "abc", "abcd"))
    if style == 0:
        return from_plain(random_text(rng, sigma, rng.randint(1, max_len)))
    if style == 1:
        return lz78_to_slp(lz78_parse(random_text(rng, sigma, rng.randint(1, max_len))))
    if style == 2:
        return repair(random_text(rng, sigma, rng.randint(1, max_len)))
    if style == 3:
        # power-style doubling grammar, truncated to the length budget
        prods = [sigma[0], (1, 1)]
        length = 2
        while length * 2 <= max_len and rng.random() < 0.8:
            prods.append((len(prods), len(prods)))
            length *= 2
        return slp_from_productions(prods)
    if style == 4:
        # fibonacci-style grammar
        prods = [sigma[0], sigma[1]]
        lengths = [1, 1]
        while lengths[-1] + lengths[-2] <= max_len:
            prods.append((len(prods), len(prods) - 1))
            lengths.append(lengths[-1] + lengths[-2])
        if len(prods) == 2:
            prods.append((1, 2))
        return slp_from_productions(prods)
    # random DAG: pair random earlier variables under a length budget
    prods = [c for c in sigma]
    lengths = [1] * len(prods)
    target = rng.randint(2, max_len)
    while True:
        candidates = [
            (p, q)
            for p in range(1, len(prods) + 1)
            for q in range(1, len(prods) + 1)
            if lengths[p - 1] + lengths[q - 1] <= target
        ]
        if not candidates:
            break
        p, q = rng.choice(candidates)
        prods.append((p, q))
        lengths.append(lengths[p - 1] + lengths[q - 1])
        if lengths[-1] == target or (lengths[-1] > target // 2 and rng.random() < 0.4):
            break
    return slp_from_productions(prods)


def chain_slp(text):
    """A left-deep chain grammar of text: its letters, then one variable
    per further character, the one before it followed by that letter."""
    letters = sorted(set(text))
    var = {c: i for i, c in enumerate(letters, start=1)}
    prods, last = list(letters), var[text[0]]
    for c in text[1:]:
        prods.append((last, var[c]))
        last = len(prods)
    return slp_from_productions(prods)


def edit_distance_by_recursion(a, b, sf):
    """Memoized prefix recursion; independent of the iterative table code."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0 and j == 0:
            return 0
        options = []
        if i > 0:
            options.append(go(i - 1, j) + sf.delete[a[i - 1]])
        if j > 0:
            options.append(go(i, j - 1) + sf.insert[b[j - 1]])
        if i > 0 and j > 0:
            options.append(go(i - 1, j - 1) + sf.substitute[a[i - 1], b[j - 1]])
        return min(options)

    return go(len(a), len(b))


def dist_by_path_enumeration(a, b, sf):
    """Boundary table by enumerating every monotone path; tiny blocks only."""
    from slpdist.dist import input_position, output_position

    h, w = len(a), len(b)
    s = h + w + 1

    def paths_from(r, c):
        # weight of the cheapest path from (r, c) to every vertex, by
        # explicit enumeration of all step sequences
        best = {(r, c): 0}
        frontier = [((r, c), 0)]
        while frontier:
            (cr, cc), cost = frontier.pop()
            steps = []
            if cr < h:
                steps.append(((cr + 1, cc), cost + sf.delete[a[cr]]))
            if cc < w:
                steps.append(((cr, cc + 1), cost + sf.insert[b[cc]]))
            if cr < h and cc < w:
                steps.append(((cr + 1, cc + 1), cost + sf.substitute[a[cr], b[cc]]))
            for vertex, ncost in steps:
                if vertex not in best or ncost < best[vertex]:
                    best[vertex] = ncost
                    frontier.append((vertex, ncost))
        return best

    table = []
    for i in range(s):
        reach = paths_from(*input_position(h, w, i))
        table.append([reach.get(output_position(h, w, j)) for j in range(s)])
    return table


def block_outputs_by_grid_dp(a, b, inputs, sf):
    """Block output values by a plain grid DP seeded with the input values:
    every vertex gets min over (input vertex, monotone path to here).  The
    oracle for boundary propagation, valid for arbitrary input vectors."""
    h, w = len(a), len(b)
    seeds = {}
    for k in range(h + 1):
        seeds[h - k, 0] = inputs[k]
    for k in range(h + 1, h + w + 1):
        seeds[0, k - h] = inputs[k]
    grid = [[None] * (w + 1) for _ in range(h + 1)]
    for r in range(h + 1):
        for c in range(w + 1):
            best = seeds.get((r, c))
            if r > 0 and grid[r - 1][c] is not None:
                v = grid[r - 1][c] + sf.delete[a[r - 1]]
                if best is None or v < best:
                    best = v
            if c > 0 and grid[r][c - 1] is not None:
                v = grid[r][c - 1] + sf.insert[b[c - 1]]
                if best is None or v < best:
                    best = v
            if r > 0 and c > 0 and grid[r - 1][c - 1] is not None:
                v = grid[r - 1][c - 1] + sf.substitute[a[r - 1], b[c - 1]]
                if best is None or v < best:
                    best = v
            grid[r][c] = best
    out = [grid[h][k] for k in range(w + 1)]
    out.extend(grid[h - k][w] for k in range(1, h + 1))
    return out


def random_monge_matrix(rng, nrows, ncols, hi=9):
    """Monge by construction: row/column offsets minus a 2-D prefix sum of
    non-negative noise (the cross-difference of the sum term is then always
    non-positive)."""
    acc = [[0] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            acc[i][j] = (
                rng.randint(0, hi)
                + (acc[i - 1][j] if i else 0)
                + (acc[i][j - 1] if j else 0)
                - (acc[i - 1][j - 1] if i and j else 0)
            )
    top = max(max(row) for row in acc)
    row_off = [rng.randint(0, hi) for _ in range(nrows)]
    col_off = [rng.randint(0, hi) for _ in range(ncols)]
    return [
        [row_off[i] + col_off[j] + top - acc[i][j] for j in range(ncols)]
        for i in range(nrows)
    ]


class CountingRow:
    """A matrix row that adds one to ``counter[0]`` per element read."""

    __slots__ = ("row", "counter")

    def __init__(self, row, counter):
        self.row = row
        self.counter = counter

    def __getitem__(self, j):
        self.counter[0] += 1
        return self.row[j]


def smawk(matrix):
    """Column minima of a finite totally monotone matrix by the kernel's
    SMAWK recursion, driven directly with ``(0, row, i)`` triples.

    Returns ``(values, rows, queries, reads)``: ``rows[j]`` is the smallest
    row attaining ``values[j]``, ``queries`` the count the kernel returns,
    and ``reads`` the element reads it made.
    """
    ncols = len(matrix[0])
    reads = [0]
    values = [None] * ncols
    rows = [0] * ncols
    triples = [(0, CountingRow(row, reads), i) for i, row in enumerate(matrix)]
    queries = _smawk(triples, range(ncols), values, rows, 0)
    return values, rows, queries, reads[0]


def mutated_periodic(rng, sigma, length, period, flips):
    """Highly compressible text with a few random edits sprinkled in."""
    seed = random_text(rng, sigma, period)
    out = list((seed * (length // period + 1))[:length])
    for _ in range(flips):
        out[rng.randrange(length)] = rng.choice(sigma)
    return "".join(out)
