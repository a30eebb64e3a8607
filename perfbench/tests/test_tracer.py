import sys
import types

import pytest

from tracer import Patcher, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 4), (1, 2)]) == 4.0
    assert union_length([(3, 3), (5, 4)]) == 0.0


def test_self_time_with_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4]
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0]
    assert self_times(starts, ends, parents, [0.0] * 3) == [5.0, 3.0, 3.0]


def test_self_time_with_nested_children():
    # grandchild [2, 3] sits inside child [1, 5]: only direct children count
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 5.0, 3.0], [-1, 0, 1]
    assert self_times(starts, ends, parents, [0.0] * 3) == [6.0, 3.0, 1.0]


def test_self_time_clips_children_and_subtracts_leaf_time():
    starts, ends, parents = [0.0, 8.0], [10.0, 12.0], [-1, 0]
    assert self_times(starts, ends, parents, [1.5, 0.0]) == [6.5, 4.0]


def test_live_spans_account_for_the_whole_call():
    tracer = Tracer()
    leaf = tracer.leaf("leaf", "zpoly", lambda x: sum(range(x)))

    def inner_impl(n):
        return leaf(20000) + (inner(n - 1) if n else 0)

    inner = tracer.span("inner", "sym", inner_impl)  # recursion: counted only
    outer = tracer.span("outer", "pbw", lambda: inner(3) + leaf(20000))
    tracer.op = 7
    outer()
    assert list(tracer.span_parent) == [-1, 0]
    assert list(tracer.span_op) == [7, 7]
    assert tracer.calls["inner"] == 4 and tracer.calls["leaf"] == 5
    summary = tracer.summary()
    layer = summary["layer_self_s"]
    total = tracer.span_end[0] - tracer.span_start[0]
    assert layer["pbw"] + layer["sym"] + layer["zpoly"] == pytest.approx(total, rel=1e-9)
    assert summary["root_s"] == total
    assert min(layer.values()) >= 0


def test_hot_span_inside_same_layer_is_only_counted():
    tracer = Tracer()
    construct = tracer.span("construct", "sym", lambda: 1, hot=True)
    mul = tracer.span("mul", "sym", lambda: construct() + construct(), hot=True)
    caller = tracer.span("caller", "bch", lambda: mul() + construct())
    caller()
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["caller", "mul", "construct"]
    assert tracer.calls["construct"] == 3


def test_hit_ratio_counts_distinct_keys():
    tracer = Tracer()
    f = tracer.span("f", "pbw", lambda k: k, key=lambda args: args[0])
    for k in (1, 2, 1, 1):
        f(k)
    assert tracer.hit_ratio("f") == 0.5
    assert tracer.hit_ratio("never") == 0.0


def test_dump_writes_header_and_columns(tmp_path):
    tracer = Tracer()
    tracer.span("a", "pbw", lambda: None)()
    tracer.dump(tmp_path / "spans")
    assert (tmp_path / "spans.json").read_text().startswith("{")
    assert (tmp_path / "spans.bin").stat().st_size == 4 + 2 * 8 + 3 * 8


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Thing:
        def add(self, x):
            return x + 2

        radd = add

    core.work, core.Thing = work, Thing
    user.work = work  # imported by name elsewhere
    pkg.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    yield core, user, pkg
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name)


def test_patcher_replaces_every_lookup_and_restores(fake_package):
    core, user, pkg = fake_package
    original = core.work
    tracer = Tracer()
    patcher = Patcher("fakepkg")
    assert patcher.function("fakepkg.core", "work", lambda fn: tracer.counter("work", fn))
    assert patcher.method("fakepkg.core", "Thing", "add", lambda fn: tracer.counter("add", fn))
    assert core.work(1) == user.work(1) == pkg.work(1) == 2
    thing = core.Thing()
    assert thing.add(1) == thing.radd(1) == 3
    assert tracer.calls["work"] == 3 and tracer.calls["add"] == 2
    patcher.restore()
    assert core.work is original and user.work is original
    assert core.Thing.radd is core.Thing.add


def test_patcher_reports_missing_targets_without_failing(fake_package):
    patcher = Patcher("fakepkg")
    assert not patcher.function("fakepkg.core", "gone", lambda fn: fn)
    assert not patcher.method("fakepkg.core", "Gone", "add", lambda fn: fn)
    assert not patcher.function("fakepkg.nomodule", "work", lambda fn: fn)
    assert not patcher.method("builtins", "int", "bit_length", lambda fn: fn)  # compiled type
    assert patcher.missing == [
        "fakepkg.core.gone",
        "fakepkg.core.Gone.add",
        "fakepkg.nomodule.work",
        "builtins.int.bit_length",
    ]
