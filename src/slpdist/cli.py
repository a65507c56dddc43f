"""Command-line front-end: compress, expand, distance, selftest.

File formats
------------

Grammar files: first line ``SLP <n>``, then one production per line, either
``<i> -> '<char>'`` (terminal, one character between single quotes) or
``<i> -> <p> <q>`` (concatenation of two earlier variables).  Variable n is
the root.  Blank lines and lines starting with ``#`` are ignored.  Newline,
tab, carriage return and backslash terminals are written escaped (``\n``,
``\t``, ``\r``, ``\\``); every other character appears literally.

Scoring files: tab-separated.  A header line ``ALPHABET<TAB><chars>``, then
``DEL<TAB><char><TAB><cost>``, ``INS<TAB><char><TAB><cost>`` and
``SUB<TAB><a><TAB><b><TAB><cost>`` lines.  A missing SUB(a, a) defaults to
0; any other omission is an error, and so is a character outside the
alphabet.  Costs are non-negative integers or finite decimals.  Both
algorithms compute on the table scaled to integers by 10**-e, e the
smallest exponent among its costs, and print the distance with exponent e;
a cost of more than ``scoring.MAX_COST_DIGITS`` digits once scaled is
refused.  The name ``lev`` selects built-in unit costs.

Lines in both formats end with LF or CRLF.

Plain-text inputs are read as they are, ``\r`` included, with one trailing
``\n`` stripped; ``expand`` writes one back, so compress -> expand
round-trips newline-terminated files exactly.  No grammar derives the empty
text, so ``compress`` refuses it; ``distance`` takes it and prints the
other text's insertion or deletion costs summed, as ``--algorithm
baseline`` prints them.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from decimal import Decimal, InvalidOperation

from . import block_edit, scoring, slp
from .partition import InvariantViolation


class CliError(Exception):
    """Bad invocation or malformed input file; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# newline, tab and carriage return would break the line-based format, and a
# bare backslash would make unescaping ambiguous
_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}


def dump_slp(grammar: slp.Slp) -> str:
    lines = [f"SLP {grammar.size}"]
    for i in range(1, grammar.size + 1):
        prod = grammar.productions[i]
        if isinstance(prod, str):
            lines.append(f"{i} -> '{_ESCAPES.get(prod, prod)}'")
        else:
            lines.append(f"{i} -> {prod[0]} {prod[1]}")
    return "\n".join(lines) + "\n"


def _lines(text: str) -> list:
    """Lines ended by LF or CRLF.  ``str.splitlines`` would also break at
    characters such as form feed or U+2028, which ``dump_slp`` writes
    literally."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def parse_slp(text: str, source: str = "<input>") -> slp.Slp:
    lines = [
        (no, line.strip())
        for no, line in enumerate(_lines(text), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or not lines[0][1].startswith("SLP "):
        raise CliError(f"{source}: expected an 'SLP <n>' header line")
    try:
        count = int(lines[0][1].split()[1])
    except (IndexError, ValueError):
        raise CliError(f"{source}: malformed SLP header {lines[0][1]!r}") from None
    # the header sizes an allocation, so check it against the file first
    if count > len(lines) - 1:
        raise CliError(
            f"{source}: missing productions: the header declares {count} "
            f"variables but only {len(lines) - 1} production lines follow"
        )
    productions = [None] * (count + 1)
    for no, line in lines[1:]:
        head, sep, rhs = line.partition("->")
        if not sep:
            raise CliError(f"{source}:{no}: expected '<i> -> ...'")
        try:
            idx = int(head.strip())
        except ValueError:
            raise CliError(f"{source}:{no}: bad variable index {head.strip()!r}") from None
        if not (1 <= idx <= count):
            raise CliError(f"{source}:{no}: variable {idx} outside 1..{count}")
        if productions[idx] is not None:
            raise CliError(f"{source}:{no}: duplicate production for variable {idx}")
        rhs = rhs.strip()
        if rhs.startswith("'") and rhs.endswith("'") and len(rhs) >= 3:
            char = rhs[1:-1]
            char = _UNESCAPES.get(char, char)
            if len(char) != 1:
                raise CliError(f"{source}:{no}: terminal must be a single character")
            productions[idx] = char
        else:
            fields = rhs.split()
            if len(fields) != 2:
                raise CliError(f"{source}:{no}: expected \"'<char>'\" or '<p> <q>'")
            try:
                productions[idx] = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise CliError(f"{source}:{no}: bad variable references {rhs!r}") from None
    missing = [i for i in range(1, count + 1) if productions[i] is None]
    if missing:
        raise CliError(f"{source}: missing productions for variables {missing}")
    try:
        return slp.slp_from_productions(productions[1:])
    except slp.SlpError as exc:
        raise CliError(f"{source}: {exc}") from None


# A cost is a decimal numeral in ASCII digits, with an optional sign,
# fraction and exponent.  The names of the special values pass too, so that
# the scoring check refuses them by name.  int() and Decimal() alone would
# also take "1_0" for 10, non-ASCII digits and surrounding blanks.
_INT_COST = re.compile(r"[+-]?[0-9]+")
_DECIMAL_COST = re.compile(
    r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?"
    r"|[+-]?(inf|infinity|s?nan[0-9]*)",
    re.IGNORECASE,
)


def _parse_cost(token: str, source: str, no: int):
    if _INT_COST.fullmatch(token):
        return int(token)
    if _DECIMAL_COST.fullmatch(token):
        try:
            return Decimal(token)
        except InvalidOperation:  # an exponent beyond the decimal module's range
            pass
    raise CliError(f"{source}:{no}: bad cost {token!r}")


def parse_scoring(text: str, source: str = "<scoring>") -> scoring.ScoringFunction:
    """The table a scoring file describes.  Its costs and keys are checked
    by the algorithms, which both start with ``scoring.scaled_to_ints``."""
    alphabet = None
    delete, insert, substitute = {}, {}, {}
    for no, raw in enumerate(_lines(text), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        tag = fields[0]
        if tag == "ALPHABET" and len(fields) == 2:
            if alphabet is not None:
                raise CliError(f"{source}:{no}: duplicate ALPHABET line")
            alphabet = tuple(dict.fromkeys(fields[1]))
        elif tag in ("DEL", "INS") and len(fields) == 3:
            table = delete if tag == "DEL" else insert
            if fields[1] in table:
                raise CliError(f"{source}:{no}: duplicate {tag} entry for {fields[1]!r}")
            table[fields[1]] = _parse_cost(fields[2], source, no)
        elif tag == "SUB" and len(fields) == 4:
            key = (fields[1], fields[2])
            if key in substitute:
                raise CliError(f"{source}:{no}: duplicate SUB entry for {key!r}")
            substitute[key] = _parse_cost(fields[3], source, no)
        else:
            raise CliError(f"{source}:{no}: unrecognized line {raw!r}")
    if alphabet is None:
        raise CliError(f"{source}: missing ALPHABET line")
    for a in alphabet:
        substitute.setdefault((a, a), 0)
    return scoring.ScoringFunction(alphabet, delete, insert, substitute)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from None


def _write(path: str, payload: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(str(exc)) from None


_COMPRESSORS = {
    "repair": slp.repair,
    "lz78": lambda text: slp.lz78_to_slp(slp.lz78_parse(text)),
    "balanced": slp.from_plain,
}


def _compress(text: str, path: str, method: str = "repair") -> slp.Slp:
    """Grammar for the plain text read from ``path``, one trailing newline
    stripped.  A text longer than the expansion limit is refused before the
    compressor builds anything per character: ``expand`` and ``distance``
    would refuse its grammar anyway."""
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise CliError(f"{path}: empty input")
    if len(text) > slp.MAX_EXPAND_LENGTH:
        raise CliError(
            f"{path}: {len(text)} characters, more than the expansion limit "
            f"of {slp.MAX_EXPAND_LENGTH}"
        )
    return _COMPRESSORS[method](text)


def _read_input(path: str) -> slp.Slp | None:
    """Grammar file or plain text, told apart by the SLP header; plain text
    goes through ``compress``'s default method, except the empty text,
    which no grammar derives: it is None."""
    text = _read(path)
    if text.startswith("SLP "):
        return parse_slp(text, path)
    if text in ("", "\n"):
        return None
    return _compress(text, path)


def _resolve_scoring(choice: str, grammars):
    """``lev`` over the grammars' terminals, or the table of a scoring file.
    A terminal no derivation reaches only adds a letter neither text reads,
    and so does the one letter of ``lev`` when both texts are empty (None)."""
    if choice == "lev":
        chars = {p for g in grammars if g for p in g.productions[1:] if isinstance(p, str)}
        return scoring.levenshtein(sorted(chars) or "a")
    return parse_scoring(_read(choice), choice)


def _cmd_compress(args) -> int:
    grammar = _compress(_read(args.input), args.input, args.method)
    payload = dump_slp(grammar)
    if args.output:
        _write(args.output, payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_expand(args) -> int:
    grammar = parse_slp(_read(args.input), args.input)
    sys.stdout.write(slp.expand(grammar) + "\n")
    return 0


def _cmd_distance(args) -> int:
    if args.stats and args.algorithm == "baseline":
        raise CliError("--stats requires the block algorithm")
    slp_a = _read_input(args.a)
    slp_b = _read_input(args.b)
    # an empty text leaves no grid of blocks, only the other text's indels
    empty = slp_a is None or slp_b is None
    if args.stats and empty:
        path = args.a if slp_a is None else args.b
        raise CliError(f"{path}: empty input: --stats needs two non-empty inputs")
    sf = _resolve_scoring(args.scoring, (slp_a, slp_b))
    if args.stats:
        # an unwritable path fails before the run; appending nothing leaves
        # a path that names an input, or a run that fails, as it was
        _write(args.stats, "", "a")
    try:
        if args.algorithm == "baseline" or empty:
            texts = ("" if g is None else slp.expand(g) for g in (slp_a, slp_b))
            cost = block_edit.wagner_fischer(*texts, sf)
        else:
            cost, stats = block_edit.block_edit_distance(slp_a, slp_b, sf, args.block_size)
    except scoring.ScoringError as exc:
        # the algorithms check the table against the texts; only the file
        # name is added here
        raise CliError(f"{args.scoring}: {exc}") from None
    print(cost)
    if args.stats:
        _write(args.stats, "\n".join(stats.as_record()) + "\n")
    return 0


def _random_cost(rng, hi: int, decimal: bool):
    """An int in [0, hi], or a multiple of 0.5 in [0, hi] written with one to
    three decimals, so that paths of equal cost can sum to different
    exponents."""
    if not decimal:
        return rng.randint(0, hi)
    k = rng.randint(1, 3)
    return Decimal(f"{rng.randint(0, 2 * hi) * 5 * 10 ** (k - 1)}E-{k}")


def _cmd_selftest(args) -> int:
    if args.cases < 1:
        raise CliError(f"--cases must be at least 1, got {args.cases}")
    rng = random.Random(args.seed)
    bad = 0
    for case in range(args.cases):
        sigma = rng.choice(("ab", "abcd", "abcdefghijklmnopqrstuvwxyz"))
        text_a = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 40)))
        text_b = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 40)))
        kind = rng.choice(("lev", "int", "decimal"))
        if kind == "lev":
            sf = scoring.levenshtein(sigma)
        else:
            chars = tuple(sigma)
            dec = kind == "decimal"
            sf = scoring.ScoringFunction(
                chars,
                {c: _random_cost(rng, 5, dec) for c in chars},
                {c: _random_cost(rng, 5, dec) for c in chars},
                {
                    (a, b): (0 if a == b else _random_cost(rng, 9, dec))
                    for a in chars
                    for b in chars
                },
            )
        make = _COMPRESSORS[rng.choice(tuple(_COMPRESSORS))]
        slp_a, slp_b = make(text_a), make(text_b)
        want = block_edit.wagner_fischer(text_a, text_b, sf)
        x = rng.choice((2, 3, 5, None))
        got, _ = block_edit.block_edit_distance(slp_a, slp_b, sf, x)
        # the printed strings must agree too, not only the values
        if str(got) != str(want):
            bad += 1
            print(
                f"MISMATCH case {case}: got {got}, expected {want} "
                f"(a={text_a!r}, b={text_b!r}, x={x})",
                file=sys.stderr,
            )
    if bad:
        print(f"selftest: {bad}/{args.cases} cases failed", file=sys.stderr)
        return 2
    print(f"selftest: {args.cases} cases, accelerated distance printed as the baseline")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="slpdist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="plain text file -> grammar file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--method", choices=tuple(_COMPRESSORS), default="repair")
    p.set_defaults(run=_cmd_compress)

    p = sub.add_parser("expand", help="grammar file -> text on stdout")
    p.add_argument("input")
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("distance", help="edit distance between two inputs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--scoring", default="lev", help="'lev' or a scoring file path")
    p.add_argument("--block-size", type=int, default=None, dest="block_size")
    p.add_argument("--algorithm", choices=("block", "baseline"), default="block")
    p.add_argument("--stats", default=None, help="write run counters to this path")
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("selftest", help="oracle equivalence at small scale")
    p.add_argument("--cases", type=int, default=60)
    p.add_argument("--seed", type=int, default=20240901)
    p.set_defaults(run=_cmd_selftest)
    return parser


_parser = None  # built on the first call of ``main``, then reused


def main(argv=None) -> int:
    """Run one command and return its exit status.  Parsing leaves no
    state in the parser, so repeated in-process calls share one."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.run(args)
    except (CliError, ValueError) as exc:
        print(f"slpdist: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"slpdist: internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
