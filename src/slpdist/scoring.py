"""Cost model for weighted edit distance over a fixed alphabet."""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal

# Most decimal digits a cost may take once its table is scaled to ints (see
# ``scaled_to_ints``), the precision of the decimal module's default context.
# Checked before the ints are built, so a cost such as 1e999999, or a table
# mixing 1e20 with 1e-10, is refused without allocating its digits.
MAX_COST_DIGITS = 28


class ScoringError(ValueError):
    """Malformed scoring table, or a character outside the alphabet."""


def _exact(cost) -> bool:
    """Whether the algorithms take ``cost``: an int or a finite Decimal."""
    return isinstance(cost, int) or (isinstance(cost, Decimal) and cost.is_finite())


class ScoringFunction(namedtuple("ScoringFunction", "alphabet delete insert substitute")):
    """Per-character deletion/insertion costs and pairwise replacement costs.

    Costs are ints, or finite ``decimal.Decimal`` values; floats are
    refused.  The algorithms compute on ints only: they check and scale a
    table once (``scaled_to_ints``) and give the result back with the
    table's smallest exponent.  Instances are immutable after construction
    and safe to share between concurrent readers.

    Replacing a character with itself usually costs 0, but that is a
    convention of the common tables, not an enforced invariant.
    ``alphabet`` is a tuple of characters, ``delete`` and ``insert`` map a
    character to its cost, and ``substitute`` maps an (a, b) pair.
    """

    __slots__ = ()


def levenshtein(alphabet) -> ScoringFunction:
    """Uniform unit-cost scoring: every edit costs 1, keeping a character 0."""
    chars = tuple(dict.fromkeys(alphabet))
    if not chars:
        raise ScoringError("alphabet must be non-empty")
    delete = {c: 1 for c in chars}
    insert = {c: 1 for c in chars}
    substitute = {(a, b): (0 if a == b else 1) for a in chars for b in chars}
    return ScoringFunction(chars, delete, insert, substitute)


def validate(sf: ScoringFunction) -> list:
    """Check the scoring invariants; return a list of violations (empty = ok)."""
    problems = []
    if not sf.alphabet:
        problems.append("empty alphabet")
    if len(set(sf.alphabet)) != len(sf.alphabet):
        problems.append("duplicate characters in alphabet")
    for c in sf.alphabet:
        for table, name in ((sf.delete, "DEL"), (sf.insert, "INS")):
            if c not in table:
                problems.append(f"incomplete table: missing {name}({c!r})")
    for a in sf.alphabet:
        for b in sf.alphabet:
            if (a, b) not in sf.substitute:
                problems.append(f"incomplete table: missing SUB({a!r},{b!r})")
    chars = set(sf.alphabet)
    for label, key, cost in _costs(sf):
        # a stray entry would still move the scaling exponent
        if not chars.issuperset(key if label == "SUB" else (key,)):
            problems.append(f"character outside the alphabet: {label}{key!r}")
        # a NaN cannot be compared with 0, so this check comes first
        if not _exact(cost):
            problems.append(f"non-finite or inexact cost: {label}{key!r} = {cost!r}")
        elif cost < 0:
            problems.append(f"negative cost: {label}{key!r} = {cost!r}")
    return problems


def _costs(sf: ScoringFunction):
    for table, label in (
        (sf.delete, "DEL"),
        (sf.insert, "INS"),
        (sf.substitute, "SUB"),
    ):
        for key, cost in table.items():
            yield label, key, cost


def max_cost(sf: ScoringFunction):
    """The largest single-edit cost; a path of k edits weighs at most k times it."""
    return max([cost for _, _, cost in _costs(sf)])


def scaled_to_ints(sf: ScoringFunction, *letters) -> tuple:
    """The scoring prologue both algorithms start with: ``(table, e)``, the
    table with every cost an int, and the exponent e such that each cost of
    ``sf`` equals its int times 10**e.

    ``letters`` holds, per input, its characters: the text itself, or the
    set of letters its grammar derives (``slp.letters``).  Raises
    ``ScoringError`` for the first fault ``validate`` lists, then for
    characters outside the alphabet, then for a scaled cost of more than
    ``MAX_COST_DIGITS`` digits; so both algorithms refuse the same tables
    and texts, with the same message.  An all-int table comes back
    as it is (the same object) with e = 0.  Otherwise e is the smallest
    exponent among the costs, and never above 0.  The scaling is exact: it
    works on each cost's digits and exponent, never under a rounding
    context.
    """
    problems = validate(sf)
    if problems:
        raise ScoringError(f"invalid scoring: {problems[0]}")
    missing = set().union(*letters) - set(sf.alphabet)
    if missing:
        raise ScoringError(f"alphabet does not cover input characters {sorted(missing)!r}")
    costs = list(_costs(sf))
    parts = [Decimal(cost).as_tuple() for _, _, cost in costs]
    e = min([0] + [exp for _, _, exp in parts])
    scaled = {}
    for (label, key, cost), (_, digits, exp) in zip(costs, parts):
        value = 0
        if any(digits):
            if len(digits) + exp - e > MAX_COST_DIGITS:
                raise ScoringError(
                    f"cost {label}{key!r} = {cost} takes {len(digits) + exp - e} "
                    f"digits as a multiple of 1E{e}, more than the limit of "
                    f"{MAX_COST_DIGITS}"
                )
            value = int("".join(map(str, digits))) * 10 ** (exp - e)
        scaled[label, key] = value
    if all(type(cost) is int for _, _, cost in costs):
        return sf, 0
    return (
        ScoringFunction(
            sf.alphabet,
            {c: scaled["DEL", c] for c in sf.delete},
            {c: scaled["INS", c] for c in sf.insert},
            {pair: scaled["SUB", pair] for pair in sf.substitute},
        ),
        e,
    )
