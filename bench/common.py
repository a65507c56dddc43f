"""Paths, the CLI under test, input set-up and the Wagner-Fischer reference,
shared by the timed and the traced run."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# the benchmark runs from the root of a source checkout
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CALL_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run or its own checks broke; exits non-zero
    without a result."""


def source_digest():
    """Hash of the package sources, so cached counts are only compared
    between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "slpdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SLPDIST_STRICT", None)
    return env


def cli_argv():
    return [sys.executable, "-m", "slpdist.cli"]


def run_cli(args, cwd):
    subprocess.run(
        cli_argv() + args,
        cwd=cwd,
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=CALL_TIMEOUT_S,
    )


def setup(workload, seed, workdir):
    """Turn the seed into the input files in a fresh ``workdir``; returns
    (Inputs, seconds)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    inputs = workload.make(seed, workdir, run_cli)
    return inputs, time.perf_counter() - t0


def reference(inputs, fresh=False):
    """Wagner-Fischer distance on the expanded inputs, as the CLI prints it,
    and the seconds it took (None when read from the cache).  Cached by
    content, because it takes seconds at 4096 x 4096; ``fresh`` recomputes."""
    from slpdist import scoring
    from slpdist.block_edit import wagner_fischer
    from slpdist.cli import parse_scoring

    key = hashlib.sha256("\0".join(inputs.texts + (inputs.scoring,)).encode()).hexdigest()
    path = WORK / "reference" / f"{key}.json"
    if path.exists() and not fresh:
        return json.loads(path.read_text())["distance"], None
    if inputs.scoring == "lev":
        sf = scoring.levenshtein(sorted(set("".join(inputs.texts))))
    else:
        sf = parse_scoring(inputs.scoring)
    t0 = time.perf_counter()
    distance = str(wagner_fischer(*inputs.texts, sf))
    elapsed = time.perf_counter() - t0
    write_json(path, {"distance": distance})
    return distance, elapsed


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def read_json(path):
    return json.loads(path.read_text()) if path.exists() else None
