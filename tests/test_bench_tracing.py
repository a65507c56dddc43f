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


def _traced_distance(tmp_path, monkeypatch, capsys, n, flags):
    """One traced ``distance`` call on a Fibonacci n pair, the second with
    its alphabet swapped: the traced metrics and the ``--stats`` fields."""
    from slpdist import cli
    from slpdist.slp import fibonacci_prefix_slp

    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    traced = importlib.import_module("traced")
    a, b, stats = (tmp_path / name for name in ("a.slp", "b.slp", "stats.txt"))
    a.write_text(cli.dump_slp(fibonacci_prefix_slp(n)), encoding="utf-8")
    b.write_text(cli.dump_slp(fibonacci_prefix_slp(n, alphabet=("b", "a"))), encoding="utf-8")
    recorder = tracing.Recorder()
    with recorder.patched():
        assert cli.main(["distance", str(a), str(b), *flags, "--stats", str(stats)]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(recorder.spans)
    fields = traced.read_stats(stats)
    assert tracing.check_against_stats(metrics, fields) == []
    assert metrics["monge.queries_per_entry"] <= traced.QUERIES_PER_ENTRY_BOUND
    return metrics, fields


def _weighted_flags(tmp_path, monkeypatch, x):
    from random import Random

    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    costs = tmp_path / "costs.tsv"
    workloads.write_scoring(costs, "ab", Random(1))
    return ["--scoring", str(costs), "--block-size", str(x)]


def test_traced_call_meets_the_bench_gates(tmp_path, monkeypatch, capsys):
    """One traced ``distance`` call on ``fib-repo``'s shape, scaled down to
    a Fibonacci 1024 pair at x = 48: its counts must agree with ``--stats``
    and its SMAWK queries stay within the traced bench's bound."""
    flags = _weighted_flags(tmp_path, monkeypatch, 48)
    metrics, fields = _traced_distance(tmp_path, monkeypatch, capsys, 1024, flags)
    assert metrics["monge.queries.merge"] == int(fields["merge_queries"]) > 0


def test_traced_unbuilt_pairs_meet_the_bench_gates(tmp_path, monkeypatch, capsys):
    """The same on ``fib-repo``'s own shape, the Fibonacci 4096 pair at
    x = 192, where part pairs are left unbuilt: the sweep's kernel calls
    through their operands stay inside the traced ``apply_inputs`` call of
    their block."""
    flags = _weighted_flags(tmp_path, monkeypatch, 192)
    metrics, fields = _traced_distance(tmp_path, monkeypatch, capsys, 4096, flags)
    assert int(fields["unbuilt_pairs"]) > 0
    assert metrics["monge.queries.merge"] == int(fields["merge_queries"]) > 0


def test_traced_sweep_meets_the_bench_gates(tmp_path, monkeypatch, capsys):
    """The same on ``fib-sweep``'s shape (unit costs, default x), scaled
    down to a Fibonacci 1024 pair, where the sweep memo answers most
    blocks: one traced ``apply_inputs`` call per block, and ``len`` of its
    result counts that block's boundary cells."""
    _, fields = _traced_distance(tmp_path, monkeypatch, capsys, 1024, ["--scoring", "lev"])
    assert int(fields["sweep_memo_hits"]) > int(fields["block_count"]) // 2
