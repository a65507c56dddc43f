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

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Slp:
    # productions[0] is an unused sentinel so that variables are 1-based.
    # productions[i] is a one-character string (terminal) or an (p, q) pair
    # of earlier variable indices.
    productions: tuple
    lengths: tuple = field(default=())

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


def validate(slp: Slp) -> list:
    """Check the grammar invariants; return a list of violations (empty = ok)."""
    problems = []
    prods = slp.productions
    if len(prods) < 2 or prods[0] is not None:
        return ["production list must start with the unused 0 sentinel"]
    for i in range(1, len(prods)):
        prod = prods[i]
        if isinstance(prod, str):
            if len(prod) != 1:
                problems.append(f"variable {i}: terminal is not a single character")
        elif isinstance(prod, tuple) and len(prod) == 2:
            p, q = prod
            if not (isinstance(p, int) and isinstance(q, int)):
                problems.append(f"variable {i}: non-integer pair {prod!r}")
            elif not (1 <= p < i and 1 <= q < i):
                problems.append(f"variable {i}: forward or out-of-range reference {prod!r}")
        else:
            problems.append(f"variable {i}: production must be a character or an index pair")
    if problems:
        return problems
    expected = _compute_lengths(prods)
    if tuple(slp.lengths) != expected:
        problems.append("length mismatch: cached lengths disagree with the productions")
    return problems


def var_length(slp: Slp, var: int) -> int:
    """Length of the string ``var`` derives, from the O(1) cache."""
    if not (1 <= var <= slp.root):
        raise SlpError(f"variable {var} out of range 1..{slp.root}")
    return slp.lengths[var]


def expand(slp: Slp, var: int | None = None) -> str:
    """Derive the string of ``var`` (default: the whole string).

    Iterative with an explicit work stack: parse trees of chain-shaped
    grammars are as deep as the grammar is large, so recursion is not an
    option.  Strings longer than ``MAX_EXPAND_LENGTH`` are refused.
    """
    if var is None:
        var = slp.root
    if not (1 <= var <= slp.root):
        raise SlpError(f"variable {var} out of range 1..{slp.root}")
    if slp.lengths[var] > MAX_EXPAND_LENGTH:
        raise SlpError(
            f"variable {var} derives {slp.lengths[var]} characters, more than "
            f"the expansion limit of {MAX_EXPAND_LENGTH}"
        )
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
    """Accumulates productions with terminal and pair deduplication."""

    def __init__(self):
        self.productions = [None]
        self.terminal_index = {}
        self.pair_index = {}

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

    def fresh_pair(self, p: int, q: int) -> int:
        self.productions.append((p, q))
        return len(self.productions) - 1

    def finish(self, root: int) -> Slp:
        # The root must be the last variable; append a copy when sharing
        # left an older variable on top.
        if root != len(self.productions) - 1:
            self.productions.append(self.productions[root])
        prods = tuple(self.productions)
        return Slp(prods, _compute_lengths(prods))


def from_plain(text: str) -> Slp:
    """Grammar for an arbitrary string: shared terminals under a balanced
    pairing tree of depth ceil(log2 N).  Identical subtree pairs are reused,
    so repetitive inputs come out smaller than 2N."""
    if not text:
        raise SlpError("cannot build a grammar for the empty string")
    b = _Builder()
    level = [b.terminal(c) for c in text]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(b.pair(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return b.finish(level[0])


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
