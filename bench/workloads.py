"""Seeded inputs for the benchmark's three workloads.

Each workload turns a seed into the files ``slpdist distance`` reads (two
grammar files and, for weighted costs, a scoring file) plus the argv that
compares them.  The program only ever sees those files.  The Fibonacci
grammars are seed-independent by construction; the seed draws the cost
tables and the periodic text.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from slpdist import cli
from slpdist.slp import fibonacci_prefix_slp

from common import BenchError

FIB_LENGTH = 4096
PERIODIC_ALPHABET = "abcd"
PERIODIC_LENGTH = 1024
PERIODIC_PERIOD = 7
PERIODIC_FLIPS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (seed, workdir, run_cli) -> Inputs
    # (workdir) -> seconds the grammar front-end takes in-process
    front_end: object


@dataclass(frozen=True)
class Inputs:
    args: list  # arguments after ``distance``
    texts: tuple  # (text_a, text_b) the grammars derive
    scoring: str  # "lev" or the scoring file's contents


def write_scoring(path: Path, alphabet: str, rng: random.Random) -> str:
    """A weighted cost table in the CLI's tab-separated format.

    The seed shuffles the costs 1..k over the k indel and substitution
    entries; identity costs 0.  Every seed thus gets the same cost values,
    so the table sizes and magnitudes the program holds (and its memory)
    do not depend on the seed."""
    slots = [("DEL", c) for c in alphabet] + [("INS", c) for c in alphabet]
    slots += [("SUB", a, b) for a in alphabet for b in alphabet if a != b]
    costs = list(range(1, len(slots) + 1))
    rng.shuffle(costs)
    lines = [f"ALPHABET\t{alphabet}"]
    lines += ["\t".join(slot + (str(cost),)) for slot, cost in zip(slots, costs)]
    payload = "\n".join(lines) + "\n"
    path.write_text(payload, encoding="utf-8")
    return payload


def _fibonacci_pair(workdir: Path):
    """Writes the two grammar files; returns the seconds spent building and
    dumping the grammars."""
    t0 = time.perf_counter()
    a = cli.dump_slp(fibonacci_prefix_slp(FIB_LENGTH))
    b = cli.dump_slp(fibonacci_prefix_slp(FIB_LENGTH, alphabet=("b", "a")))
    elapsed = time.perf_counter() - t0
    (workdir / "a.slp").write_text(a, encoding="utf-8")
    (workdir / "b.slp").write_text(b, encoding="utf-8")
    return elapsed


def fibonacci_word(length: int, alphabet: str = "ab") -> str:
    """Prefix of the infinite Fibonacci word, built without the package so
    the reference does not depend on the grammar code under test."""
    shorter, longer = "a", "ab"
    while len(longer) < length:
        shorter, longer = longer, longer + shorter
    return longer[:length].translate(str.maketrans("ab", alphabet))


def _fibonacci_texts():
    return fibonacci_word(FIB_LENGTH), fibonacci_word(FIB_LENGTH, "ba")


def make_fib_sweep(seed: int, workdir: Path, run_cli) -> Inputs:
    _fibonacci_pair(workdir)
    return Inputs(["a.slp", "b.slp", "--scoring", "lev"], _fibonacci_texts(), "lev")


def make_fib_repo(seed: int, workdir: Path, run_cli) -> Inputs:
    _fibonacci_pair(workdir)
    costs = write_scoring(workdir / "costs.tsv", "ab", random.Random(seed))
    args = ["a.slp", "b.slp", "--scoring", "costs.tsv", "--block-size", "192"]
    return Inputs(args, _fibonacci_texts(), costs)


def mutated_periodic(rng: random.Random, base: str) -> str:
    out = list(base)
    for _ in range(PERIODIC_FLIPS):
        out[rng.randrange(len(out))] = rng.choice(PERIODIC_ALPHABET)
    return "".join(out)


def make_periodic_lz78(seed: int, workdir: Path, run_cli) -> Inputs:
    rng = random.Random(seed)
    period = "".join(rng.choice(PERIODIC_ALPHABET) for _ in range(PERIODIC_PERIOD))
    base = (period * (PERIODIC_LENGTH // PERIODIC_PERIOD + 1))[:PERIODIC_LENGTH]
    texts = tuple(mutated_periodic(rng, base) for _ in "ab")
    costs = write_scoring(workdir / "costs.tsv", PERIODIC_ALPHABET, rng)
    for name, text in zip("ab", texts):
        (workdir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        # the CLI's default compress method, whatever it is at this commit
        run_cli(["compress", f"{name}.txt", "-o", f"{name}.slp"], workdir)
    return Inputs(["a.slp", "b.slp", "--scoring", "costs.tsv"], texts, costs)


def compress_in_process(workdir: Path) -> float:
    """Seconds ``slpdist compress`` takes on both texts, without process
    start-up."""
    t0 = time.perf_counter()
    for name in "ab":
        code = cli.main(
            ["compress", str(workdir / f"{name}.txt"), "-o", str(workdir / f"{name}.slp")]
        )
        if code != 0:
            raise BenchError(f"slpdist compress exited {code}")
    return time.perf_counter() - t0


WORKLOADS = {
    w.name: w
    for w in (
        # why each was chosen: BENCHMARK.json
        Workload("fib-sweep", make_fib_sweep, _fibonacci_pair),
        Workload("fib-repo", make_fib_repo, _fibonacci_pair),
        Workload("periodic-lz78", make_periodic_lz78, compress_in_process),
    )
}
