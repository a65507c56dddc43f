"""Partition of a string into grammar-associated substrings.

Given a grammar and a block parameter x, the string splits into an ordered
sequence of parts, each of length at most 2x, with O(N/x) parts overall.
Anchor parts are the derivations of key variables: variables whose string
has length at least x while both children derive strings shorter than x.
The stretches between consecutive key-variable occurrences are covered by
composite parts: concatenations of the short strings hanging off the parse
tree path that connects the occurrences.

The same variable always receives the same substring, no matter where in
the parse tree it occurs, because everything the grouping looks at lies
inside the variable's own subtree.  That determinism is what lets distance
tables be shared across occurrences.
"""

from __future__ import annotations

from collections import namedtuple

from .slp import Slp, expand, var_length

EXACT = "exact"
COMPOSITE = "composite"


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee failed; indicates a bug."""


class Part(namedtuple("Part", "var kind start length chain grows", defaults=((), None))):
    """One substring of the partition.

    ``kind == EXACT``: the substring is the full derivation of ``var``.
    ``kind == COMPOSITE``: the substring accumulates the hanging children
    recorded in ``chain`` (tuples of (path variable, hanging child variable,
    length)), growing by appending when ``grows == "suffix"`` and by
    prepending when ``grows == "prefix"``; ``var`` is the last chain link's
    path variable.
    """

    __slots__ = ()


class StringPartition(namedtuple("StringPartition", "block_size text parts")):
    __slots__ = ()

    def contents(self):
        return [self.text[p.start : p.start + p.length] for p in self.parts]


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


def _group_ascending(pieces, x):
    """Runs over upward-path pieces, accumulating left to right (appending).

    A run keeps consuming while shorter than x; only the side's last run
    may fall short.  Each emitted part is associated with the last path
    variable consumed.
    """
    parts = []
    i = 0
    while i < len(pieces):
        _, path_var, hang_var, off, length = pieces[i]
        chain = [(path_var, hang_var, length)]
        start, total = off, length
        while total < x and i + 1 < len(pieces):
            i += 1
            _, path_var, hang_var, _, length = pieces[i]
            chain.append((path_var, hang_var, length))
            total += length
        parts.append(
            Part(path_var, COMPOSITE, start, total, tuple(chain), "suffix")
        )
        i += 1
    return parts


def _group_descending(pieces, x):
    """Runs over downward-path pieces.

    The grouping must depend only on each path variable's own subtree, so
    runs accumulate bottom-up, i.e. right to left, prepending each next
    piece.  Emitted parts are then reported left to right.
    """
    parts = []
    j = len(pieces) - 1
    while j >= 0:
        _, path_var, hang_var, off, length = pieces[j]
        chain = [(path_var, hang_var, length)]
        start, total = off, length
        while total < x and j > 0:
            j -= 1
            _, path_var, hang_var, off, length = pieces[j]
            chain.append((path_var, hang_var, length))
            start = off
            total += length
        parts.append(
            Part(path_var, COMPOSITE, start, total, tuple(chain), "prefix")
        )
        j -= 1
    parts.reverse()
    return parts


def partition_string(slp: Slp, block_size: int, text: str | None = None) -> StringPartition:
    """Split the derived string into grammar-associated parts of length at
    most 2 * block_size.  Runs in time linear in the string length.

    ``text`` lets a caller that already expanded the grammar skip the
    second expansion; it must equal the root's derivation.
    """
    if block_size < 2:
        raise ValueError("block size must be >= 2")
    if text is None:
        text = expand(slp)
    if len(text) < block_size:
        part = Part(slp.root, EXACT, 0, len(text))
        return StringPartition(block_size, text, (part,))
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
        parts.extend(_group_ascending(ascending, block_size))
        parts.extend(_group_descending(descending, block_size))

    for event in _events(slp, block_size):
        if event[0] == "key":
            flush(gap)
            gap = []
            _, var, off = event
            parts.append(Part(var, EXACT, off, var_length(slp, var)))
        else:
            gap.append(event)
    flush(gap)
    pos = 0
    for p in parts:
        if p.start != pos or p.length < 1:
            raise InvariantViolation("partition does not tile the string")
        pos += p.length
    if pos != len(text):
        raise InvariantViolation("partition does not cover the string")
    return StringPartition(block_size, text, tuple(parts))


def association_map(partition: StringPartition) -> dict:
    """Deduplicated (variable, kind) -> (start, length) association.

    Raises when two occurrences of the same association disagree on their
    substring content, which would mean the partition is broken.
    """
    text = partition.text
    mapping = {}
    for p in partition.parts:
        key = (p.var, p.kind)
        content = text[p.start : p.start + p.length]
        seen = mapping.get(key)
        if seen is None:
            mapping[key] = (p.start, p.length)
        elif text[seen[0] : seen[0] + seen[1]] != content:
            raise InvariantViolation(
                f"association ({p.var}, {p.kind}) carries two different substrings"
            )
    return mapping
