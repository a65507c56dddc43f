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
