"""Partition of a string into grammar-associated substrings.

Given a grammar and a block parameter x, the string splits into an ordered
sequence of parts, each of length at most 2x, with O(N/x) parts overall.
Anchor parts are the derivations of key variables: variables whose string
has length at least x while both children derive strings shorter than x.
The stretches between consecutive key-variable occurrences are covered by
composite parts: concatenations of the short strings hanging off the parse
tree path that connects the occurrences.

The partition extends the grammar so that every part is the derivation of
one variable: a composite part folds its hanging pieces into pair
variables, deduplicated against the grammar's own productions and each
other.  The same path variable always accumulates the same pieces, no
matter where in the parse tree it occurs, because everything the grouping
looks at lies inside its own subtree.  So equal parts get equal variables,
and that is what lets distance tables be shared across occurrences.
"""

from __future__ import annotations

from collections import namedtuple

from .slp import Slp, _Builder, expandable_length


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee failed; indicates a bug."""


class Part(namedtuple("Part", "var start length")):
    """One substring of the partition, the full derivation of ``var`` in the
    partition's grammar, ``length`` characters from ``start`` on.  A
    composite part's ``var`` folds its hanging children into pair
    variables, in the order they accumulate (see ``_group``); a one-piece
    composite's ``var`` is its hanging child."""

    __slots__ = ()


class StringPartition(namedtuple("StringPartition", "block_size parts slp")):
    """The parts in string order and ``slp``, the input grammar extended
    with the composite parts' pair variables, its root still last."""

    __slots__ = ()


def key_variables(slp: Slp, block_size: int) -> set:
    """Variables deriving a string of length >= block_size whose children
    both derive strings shorter than block_size.  When nothing qualifies
    (the whole string is shorter than block_size) the root stands in."""
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    lengths = slp.lengths
    found = set()
    for i in range(1, slp.root + 1):
        prod = slp.productions[i]
        if isinstance(prod, str):
            continue
        p, q = prod
        if lengths[i] >= block_size and lengths[p] < block_size and lengths[q] < block_size:
            found.add(i)
    return found or {slp.root}


def _events(slp: Slp, x: int):
    """Left-to-right stream of key-variable occurrences and hanging pieces.

    Yields ("key", var, offset) for each key-variable occurrence and
    ("right" | "left", path_var, hang_var, offset, length) for each subtree
    hanging off the connecting paths.  Iterative: parse trees are as deep
    as the grammar is large.
    """
    prods = slp.productions
    lengths = slp.lengths
    # the root derives at least x characters here, so some variable
    # qualifies and key_variables never falls back to the root
    keys = key_variables(slp, x)
    out = []
    stack = [("visit", slp.root, 0)]
    while stack:
        action, v, off = stack.pop()
        if action == "emit":
            out.append(v)  # v holds a prepared event here
            continue
        if lengths[v] < x:
            raise InvariantViolation("descended into a subtree shorter than x")
        if v in keys:
            out.append(("key", v, off))
            continue
        p, q = prods[v]
        lp, lq = lengths[p], lengths[q]
        if lp >= x and lq >= x:
            stack.append(("visit", q, off + lp))
            stack.append(("visit", p, off))
        elif lp >= x:
            # right child hangs off the upward path that follows the key
            # occurrences inside the left subtree
            stack.append(("emit", ("right", v, q, off + lp, lq), None))
            stack.append(("visit", p, off))
        else:
            # left child hangs off the downward path toward the key
            # occurrences inside the right subtree
            out.append(("left", v, p, off, lp))
            stack.append(("visit", q, off + lp))
    return out


def _group(pieces, x, grows, builder: _Builder):
    """Composite parts from consecutive hanging pieces, which come in the
    order they accumulate.

    A run keeps consuming while its total is shorter than x; only the last
    run may fall short.  Each part folds its pieces into ``builder``'s pair
    variables in that order and starts at the smallest offset among them.
    Upward-path pieces accumulate left to right, by appending (``grows ==
    "suffix"``).  Downward-path pieces accumulate right to left, by
    prepending (``"prefix"``): the grouping must depend only on each path
    variable's own subtree, which grows bottom-up.
    """
    parts = []
    run, total = [], 0
    last = len(pieces) - 1
    for i, piece in enumerate(pieces):
        run.append(piece)
        total += piece[4]
        if total >= x or i == last:
            start = min(p[3] for p in run)
            var = run[0][2]
            for p in run[1:]:
                var = builder.pair(var, p[2]) if grows == "suffix" else builder.pair(p[2], var)
            parts.append(Part(var, start, total))
            run, total = [], 0
    return parts


def partition_string(slp: Slp, block_size: int) -> StringPartition:
    """Split the derived string into parts of length at most 2 * block_size,
    each the derivation of one variable of the returned grammar, which
    extends ``slp`` by at most ``slp.size`` variables.  Runs in time linear
    in the string length and the grammar size, on the grammar's productions
    and cached lengths alone.  A string longer than ``MAX_EXPAND_LENGTH`` is
    refused as ``expand`` refuses it.
    """
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    n = expandable_length(slp, slp.root)
    if n < block_size:
        return StringPartition(block_size, (Part(slp.root, 0, n),), slp)
    builder = _Builder(slp.productions)
    parts = []
    gap = []  # hanging pieces since the previous key occurrence

    def flush(gap_pieces):
        if not gap_pieces:
            return
        switch = len(gap_pieces)
        for idx, piece in enumerate(gap_pieces):
            if piece[0] == "left":
                switch = idx
                break
        ascending = gap_pieces[:switch]
        descending = gap_pieces[switch:]
        if any(p[0] != "right" for p in ascending) or any(
            p[0] != "left" for p in descending
        ):
            raise InvariantViolation("gap pieces out of path order")
        parts.extend(_group(ascending, block_size, "suffix", builder))
        parts.extend(_group(descending[::-1], block_size, "prefix", builder)[::-1])

    for event in _events(slp, block_size):
        if event[0] == "key":
            flush(gap)
            gap = []
            _, var, off = event
            parts.append(Part(var, off, slp.lengths[var]))
        else:
            gap.append(event)
    flush(gap)
    pos = 0
    for p in parts:
        if p.start != pos or p.length < 1:
            raise InvariantViolation("partition does not tile the string")
        pos += p.length
    if pos != n:
        raise InvariantViolation("partition does not cover the string")
    return StringPartition(block_size, tuple(parts), builder.finish(slp.root))
