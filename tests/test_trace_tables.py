"""The benchmark's trace tables name entry points of this package by module
and name: every one of them must still exist, so that renaming a function or
moving a method off its class fails here rather than silently dropping the
per-layer metrics that need it."""

import sys
from pathlib import Path

import pytest

from guttstar import pbw
from guttstar.liealg import sl2
from guttstar.sym import SymElement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers():
    """The benchmark's ``layers`` module, imported from ``perfbench``."""
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in ("layers", "tracer")}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers

        yield layers
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_trace_tables_find_every_entry_point(layers):
    from tracer import Tracer

    patcher = layers.install(Tracer())
    try:
        assert patcher.missing == []
    finally:
        patcher.restore()


def test_memo_count_reads_the_one_context_per_algebra(layers, monkeypatch):
    """Both PBW-based routes share one context per algebra, and the memo
    count the benchmark reports is the size of its star and q memos."""
    monkeypatch.setattr(pbw, "_contexts", {})
    L = sl2()
    x = SymElement(L, {(1, 1, 0): 2, (0, 0, 1): 1})
    y = SymElement(L, {(0, 2, 1): -1})
    pbw.star_pbw(x, y)
    pbw.star_graded(x, y)
    assert list(pbw._contexts) == [L]
    ctx = pbw._contexts[L]
    entries = layers._star_memo_entries()
    assert isinstance(entries, int) and entries > 0
    assert entries == len(ctx.star_cache) + len(ctx.q_cache)


@pytest.mark.parametrize("scale", [1, 3])
def test_a_cold_star_product_runs_the_traced_star_path_once(monkeypatch, scale):
    """The benchmark times ``q_z^{-1}`` as ``_Context.q_inv_raw`` and counts
    memo hits at ``_Context.star_monomials``: a cold product of one pair,
    of unit or scaled monomials, goes through each exactly once."""
    monkeypatch.setattr(pbw, "_contexts", {})
    calls = {"star_monomials": 0, "q_inv_raw": 0}
    for name in calls:
        method = getattr(pbw._Context, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(pbw._Context, name, counted)
    L = sl2()
    x = SymElement.monomial(L, (1, 2, 0), scale)
    y = SymElement.monomial(L, (0, 1, 2))
    assert not pbw.star_pbw(x, y).is_zero
    assert calls == {"star_monomials": 1, "q_inv_raw": 1}
