"""Straight-line programs (SLPs) and the front-ends that produce them.

An SLP is a context-free grammar that derives exactly one string.  Each
variable either derives a single character or the ordered concatenation of
two earlier variables, so the grammar doubles as a compressed
representation: a grammar of n variables can derive a string of length
2**(n-1).

Variables are numbered 1..n and the last variable is the root.  Instances
are immutable after construction and safe for concurrent readers.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from heapq import heapify, heappop, heappush

# Longest string ``expand`` derives, in characters (2**24).  A grammar can
# derive a string exponentially longer than itself (a doubling grammar of 64
# variables derives 2**63 characters), so the length is checked against
# this limit before anything is allocated.
MAX_EXPAND_LENGTH = 1 << 24

# ``expand`` joins its output in pieces of this many characters, so it never
# holds one list entry per character of a long string.
_EXPAND_CHUNK = 1 << 16


class SlpError(ValueError):
    """Structurally invalid grammar or malformed compressed input."""


# The package's records are named tuples, not dataclasses: importing
# dataclasses (and inspect with it) took about 15 ms of the 85 ms start-up
# of every ``slpdist`` command.
class Slp(namedtuple("Slp", "productions lengths")):
    # productions[0] is an unused sentinel so that variables are 1-based.
    # productions[i] is a one-character string (terminal) or an (p, q) pair
    # of earlier variable indices.  lengths[i] caches the length of the
    # string variable i derives.
    __slots__ = ()

    @property
    def root(self) -> int:
        return len(self.productions) - 1

    @property
    def size(self) -> int:
        """Number of grammar variables."""
        return len(self.productions) - 1


def _compute_lengths(productions) -> tuple:
    lengths = [0] * len(productions)
    for i in range(1, len(productions)):
        prod = productions[i]
        if isinstance(prod, str):
            lengths[i] = 1
        else:
            p, q = prod
            if not (1 <= p < i and 1 <= q < i):
                raise SlpError(f"variable {i} refers to {prod}, not both below {i}")
            lengths[i] = lengths[p] + lengths[q]
    return tuple(lengths)


def slp_from_productions(productions) -> Slp:
    """Build an Slp from a 1-based-reference production list.

    ``productions`` is a sequence whose k-th element (0-based) defines
    variable k+1: either a one-character string or an (p, q) index pair.
    """
    prods = (None,) + tuple(
        p if isinstance(p, str) else (int(p[0]), int(p[1])) for p in productions
    )
    if len(prods) < 2:
        raise SlpError("grammar needs at least one production")
    for i in range(1, len(prods)):
        if isinstance(prods[i], str) and len(prods[i]) != 1:
            raise SlpError(f"terminal of variable {i} must be a single character")
    return Slp(prods, _compute_lengths(prods))


def var_length(slp: Slp, var: int) -> int:
    """Length of the string ``var`` derives, from the O(1) cache."""
    if not (1 <= var <= slp.root):
        raise SlpError(f"variable {var} out of range 1..{slp.root}")
    return slp.lengths[var]


def expandable_length(slp: Slp, var: int) -> int:
    """Length of the string ``var`` derives, refused with ``SlpError`` when
    it is longer than ``MAX_EXPAND_LENGTH``: the one check of the limit,
    made from the cached lengths before anything is allocated."""
    n = var_length(slp, var)
    if n > MAX_EXPAND_LENGTH:
        raise SlpError(
            f"variable {var} derives {n} characters, more than "
            f"the expansion limit of {MAX_EXPAND_LENGTH}"
        )
    return n


def letters(slp: Slp) -> set:
    """The letters of the string the root derives, without deriving it:
    the terminals of the variables reachable from the root, found in one
    walk of the productions from the root down (every variable refers only
    to earlier ones)."""
    prods = slp.productions
    reached = bytearray(len(prods))
    reached[slp.root] = 1
    found = set()
    for v in range(slp.root, 0, -1):
        if reached[v]:
            prod = prods[v]
            if isinstance(prod, str):
                found.add(prod)
            else:
                reached[prod[0]] = reached[prod[1]] = 1
    return found


def expand(slp: Slp, var: int | None = None) -> str:
    """Derive the string of ``var`` (default: the whole string).

    Iterative with an explicit work stack: parse trees of chain-shaped
    grammars are as deep as the grammar is large, so recursion is not an
    option.  Strings longer than ``MAX_EXPAND_LENGTH`` are refused.
    """
    if var is None:
        var = slp.root
    expandable_length(slp, var)
    prods = slp.productions
    chunks = []
    out = []
    stack = [var]
    while stack:
        v = stack.pop()
        prod = prods[v]
        if isinstance(prod, str):
            out.append(prod)
            if len(out) == _EXPAND_CHUNK:
                chunks.append("".join(out))
                out = []
        else:
            p, q = prod
            stack.append(q)
            stack.append(p)
    chunks.append("".join(out))
    return "".join(chunks)


class _Builder:
    """Accumulates productions with terminal and pair deduplication, after
    ``productions``, a grammar's own (sentinel included), when given."""

    def __init__(self, productions=(None,)):
        self.productions = list(productions)
        self.terminal_index = {}
        self.pair_index = {}
        for v in range(len(self.productions) - 1, 0, -1):
            prod = self.productions[v]
            index = self.terminal_index if isinstance(prod, str) else self.pair_index
            index[prod] = v

    def terminal(self, c: str) -> int:
        v = self.terminal_index.get(c)
        if v is None:
            self.productions.append(c)
            v = len(self.productions) - 1
            self.terminal_index[c] = v
        return v

    def pair(self, p: int, q: int) -> int:
        v = self.pair_index.get((p, q))
        if v is None:
            self.productions.append((p, q))
            v = len(self.productions) - 1
            self.pair_index[p, q] = v
        return v

    def finish(self, root: int) -> Slp:
        # The root must be the last variable; append a copy when sharing
        # left an older variable on top.
        if root != len(self.productions) - 1:
            self.productions.append(self.productions[root])
        prods = tuple(self.productions)
        return Slp(prods, _compute_lengths(prods))


def _join_balanced(b: _Builder, level: list) -> Slp:
    """Join a sequence of variables under a balanced pairing tree of depth
    ceil(log2 len(level)); identical subtree pairs are reused."""
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(b.pair(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return b.finish(level[0])


def from_plain(text: str) -> Slp:
    """Grammar for an arbitrary string: shared terminals under a balanced
    pairing tree of depth ceil(log2 N).  Identical subtree pairs are reused,
    so repetitive inputs come out smaller than 2N."""
    if not text:
        raise SlpError("cannot build a grammar for the empty string")
    b = _Builder()
    return _join_balanced(b, [b.terminal(c) for c in text])


def repair(text: str) -> Slp:
    """RePair grammar (Larsson & Moffat, DCC 1999).

    Repeatedly replaces every occurrence of the most frequent adjacent pair
    by a new variable, until no pair occurs twice, then joins what is left
    under a balanced pairing tree.  Occurrences are counted without overlap:
    in a run ``cccc`` the pair ``cc`` counts at the first and third
    position only, as a left-to-right replacement would take them.

    Total work is O(N log N).  The sequence is a doubly linked list over
    the positions of the text.  Each pair keeps its number of counted
    occurrences and an ``array('i')`` of the positions where it was
    counted (4 bytes a position, where a list holds an 8-byte slot and an
    int object), some of which may since have gone stale; a replacement
    updates the counts of its neighbouring pairs in O(1), and the array is
    checked position by position when the pair's turn comes.  A heap with
    lazy deletion yields the most frequent pair.  Ties go to the smallest
    (left, right) variable pair, and no step iterates over a hash-ordered
    container, so one text always gives the same grammar.
    """
    if not text:
        raise SlpError("cannot build a grammar for the empty string")
    b = _Builder()
    n = len(text)
    code = {c: b.terminal(c) for c in dict.fromkeys(text)}
    sym = array("i", map(code.__getitem__, text))
    # linked sequence; -1 marks the ends
    nxt = array("i", range(1, n + 1))
    nxt[-1] = -1
    prv = array("i", range(-1, n - 1))
    # The pair at p is (sym[p], sym[nxt[p]]), keyed as one int.  counted[p]
    # says whether p counts towards its pair; count and occ hold, per pair,
    # the number of counted positions and a superset of them.
    counted = bytearray(n)
    count = {}
    occ = {}
    # pairs whose count rose during the current round; the heap is only read
    # between rounds, so they are pushed once, at the round's end
    grown = {}

    def link(p):
        key = sym[p] << 32 | sym[nxt[p]]
        counted[p] = 1
        c = count.get(key)
        if c is None:
            count[key] = 1
            occ[key] = array("i", (p,))
        else:
            count[key] = c + 1
            occ[key].append(p)
        grown[key] = None

    def unlink(p):
        if counted[p]:
            counted[p] = 0
            key = sym[p] << 32 | sym[nxt[p]]
            c = count[key] - 1
            if c:
                count[key] = c
            else:
                del count[key], occ[key]

    def settle(p):
        # Recount p after its pair or its left neighbour changed.  In a run
        # of equal symbols a pair counts unless the one before it counts, so
        # a change walks on along the run until a position keeps its status.
        while True:
            r = nxt[p]
            if r == -1:
                return
            s = sym[p]
            run = s == sym[r]
            q = prv[p]
            want = not (run and q != -1 and sym[q] == s and counted[q])
            if want == counted[p]:
                return
            if want:
                link(p)
            else:
                unlink(p)
            if not run:
                return
            p = r

    for p in range(n - 1):
        s, r = sym[p], sym[p + 1]
        if not (s == r and p and sym[p - 1] == s and counted[p - 1]):
            counted[p] = 1
            key = s << 32 | r
            ps = occ.get(key)
            if ps is None:
                occ[key] = array("i", (p,))
            else:
                ps.append(p)
    count.update((key, len(ps)) for key, ps in occ.items())
    # (-count, key) entries, popped most frequent first and, on equal
    # counts, smallest key first.  Every pair counted twice or more has an
    # entry at least as high as its count; an entry whose count is stale is
    # skipped, or pushed again with the lower count.
    heap = [(-c, key) for key, c in count.items() if c > 1]
    heapify(heap)
    while True:
        for key in grown:
            c = count.get(key, 0)
            if c > 1:
                heappush(heap, (-c, key))
        grown.clear()
        while heap:
            negc, key = heappop(heap)
            c = count.get(key, 0)
            if c == -negc:
                break
            if 1 < c < -negc:
                heappush(heap, (-c, key))
        else:
            break
        left, right = key >> 32, key & 0xFFFFFFFF
        x = b.pair(left, right)
        # Left to right: every x then lies left of the occurrence being
        # replaced, so (x, sym[k]) below is never a run.
        for i in sorted(occ[key]):
            j = nxt[i]
            if not counted[i] or sym[i] != left or j == -1 or sym[j] != right:
                continue
            h, k = prv[i], nxt[j]
            if h != -1:
                unlink(h)
            unlink(i)
            if k != -1:
                unlink(j)
            sym[i] = x
            nxt[i] = k
            if k != -1:
                prv[k] = i
            if h != -1:
                if sym[h] == x:
                    # (x, x) in a run of x; settling h settles i too
                    settle(h)
                else:
                    link(h)
            if k != -1:
                if not counted[i]:
                    link(i)
                # k's left neighbour was a ``right`` and is now an x, which
                # matters only within a run of ``right``
                if sym[k] == right:
                    settle(k)
    level = []
    p = 0
    while p != -1:
        level.append(sym[p])
        p = nxt[p]
    return _join_balanced(b, level)


def lz78_parse(text: str):
    """LZ78 factorization: each phrase is the longest previously seen phrase
    plus one fresh character, encoded as (phrase index, character).  Phrase 0
    is the empty phrase.  When the input ends in the middle of a match the
    final phrase repeats an existing one and is encoded as (index, None).
    """
    if not text:
        raise SlpError("cannot factorize the empty string")
    # trie over phrases: node id -> {char: node id}; node ids are phrase ids
    children = [{}]
    phrases = []
    node = 0
    for c in text:
        nxt = children[node].get(c)
        if nxt is not None:
            node = nxt
            continue
        phrases.append((node, c))
        children.append({})
        children[node][c] = len(children) - 1
        node = 0
    if node != 0:
        phrases.append((node, None))
    return phrases


def lz78_to_slp(phrases) -> Slp:
    """Grammar derived phrase-by-phrase from an LZ78 factorization.

    Each phrase variable pairs the referenced phrase's variable with the
    extension terminal; a left-deep chain concatenates the phrases.  Output
    size is at most 3x the phrase count (shared terminals included).
    """
    if not phrases:
        raise SlpError("empty phrase list")
    b = _Builder()
    phrase_vars = [None]  # phrase 0 derives the empty string
    for k, (ref, ext) in enumerate(phrases, start=1):
        if not (0 <= ref < k):
            raise SlpError(f"phrase {k} references {ref}, out of range")
        if ext is None:
            if ref == 0:
                raise SlpError(f"phrase {k} is empty")
            v = phrase_vars[ref]
        elif ref == 0:
            v = b.terminal(ext)
        else:
            v = b.pair(phrase_vars[ref], b.terminal(ext))
        phrase_vars.append(v)
    root = phrase_vars[1]
    for v in phrase_vars[2:]:
        root = b.pair(root, v)
    return b.finish(root)


def fibonacci_prefix_slp(length: int, alphabet=("a", "b")) -> Slp:
    """Grammar for the prefix of the infinite Fibonacci word of an exact
    length.  The prefix decomposes greedily into O(log length) whole
    Fibonacci-word pieces which are then chained together."""
    if length < 1:
        raise SlpError("length must be >= 1")
    fib = [0, 1, 1]
    while fib[-1] < length:
        fib.append(fib[-1] + fib[-2])
    order = len(fib) - 1
    b = _Builder()
    var_of = {1: b.terminal(alphabet[1])}
    if order >= 2:
        var_of[2] = b.terminal(alphabet[0])
    for k in range(3, order + 1):
        var_of[k] = b.pair(var_of[k - 1], var_of[k - 2])
    pieces = []
    k, m = order, length
    while m:
        if m == fib[k]:
            pieces.append(var_of[k])
            break
        if k <= 2:
            raise AssertionError("prefix decomposition ran out of pieces")
        if m <= fib[k - 1]:
            k -= 1
        else:
            pieces.append(var_of[k - 1])
            m -= fib[k - 1]
            k -= 2
    root = pieces[0]
    for v in pieces[1:]:
        root = b.pair(root, v)
    return b.finish(root)
