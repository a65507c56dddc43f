"""The traced benchmark replaces package bindings by name; each one it
names must exist where it looks, or ``bench/run.py --trace 1`` stops with a
``KeyError``."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for owner, attr, _ in tracing.PATCHES:
        assert attr in owner.__dict__, (owner, attr)
        assert callable(owner.__dict__[attr]), (owner, attr)


def test_traced_call_meets_the_bench_gates(tmp_path, monkeypatch, capsys):
    """One traced ``distance`` call on ``fib-repo``'s shape, scaled down to
    a Fibonacci 1024 pair at x = 48: its counts must agree with ``--stats``
    and its SMAWK queries stay within the traced bench's bound."""
    from random import Random

    from slpdist import cli
    from slpdist.slp import fibonacci_prefix_slp

    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    traced = importlib.import_module("traced")
    workloads = importlib.import_module("workloads")
    a, b, costs, stats = (tmp_path / name for name in ("a.slp", "b.slp", "costs.tsv", "stats.txt"))
    a.write_text(cli.dump_slp(fibonacci_prefix_slp(1024)), encoding="utf-8")
    b.write_text(cli.dump_slp(fibonacci_prefix_slp(1024, alphabet=("b", "a"))), encoding="utf-8")
    workloads.write_scoring(costs, "ab", Random(1))
    argv = ["distance", str(a), str(b), "--scoring", str(costs), "--block-size", "48"]
    recorder = tracing.Recorder()
    with recorder.patched():
        assert cli.main(argv + ["--stats", str(stats)]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(recorder.spans)
    fields = traced.read_stats(stats)
    assert tracing.check_against_stats(metrics, fields) == []
    assert metrics["monge.queries.merge"] == int(fields["merge_queries"]) > 0
    assert metrics["monge.queries_per_entry"] <= traced.QUERIES_PER_ENTRY_BOUND
