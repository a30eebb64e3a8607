"""The benchmark's trace tables name entry points of this package by module
and name: every one of them must still exist, so that renaming a function or
moving a method off its class fails here rather than silently dropping the
per-layer metrics that need it."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_tables_find_every_entry_point():
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in ("layers", "tracer")}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer

        patcher = layers.install(Tracer())
        try:
            assert patcher.missing == []
        finally:
            patcher.restore()
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
