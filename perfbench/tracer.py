"""In-memory span tracer used by the traced benchmark run.

Three kinds of wrapper are installed around a library's entry points:

* a *span* times one call of a coarse entry point and records its name,
  start, end, parent span and the id of the benchmark operation it belongs
  to.  A call made while the innermost open span has the same name (plain
  recursion), or, for entry points marked ``hot``, the same layer, is only
  counted: its time already belongs to the open span's layer.
* a *counter* only counts calls.
* a *leaf* timer is for a layer that calls no other traced layer and whose
  calls are too many to record one by one.  It adds each outermost call's
  duration to the layer's total and to the enclosing span's ``leaf`` time,
  so that the enclosing span's self time excludes it.

Spans live in flat arrays while the run lasts and are written out once, at
the end (``Tracer.dump``).  Self time is computed afterwards from the spans
alone: a span's duration minus the part of it that its child spans cover
(children may overlap or nest; the union is taken) minus its leaf time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")
        # open spans: [span index, name id, layer, leaf seconds]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.sizes: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.leaf_outside_s = 0.0
        self.op = -1
        self._in_leaf = [False]

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    # wrappers ---------------------------------------------------------------

    def span(
        self,
        name: str,
        layer: str,
        fn: Callable,
        hot: bool = False,
        key: Optional[Callable] = None,
        size: Optional[Callable] = None,
    ) -> Callable:
        nid = self._name_id(name, layer)
        stack, calls = self.stack, self.calls
        keys = self.keys[name] if key is not None else None
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, leafs = self.span_start, self.span_end, self.span_leaf
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keys is not None:
                keys.add(key(args))
            if stack:
                top = stack[-1]
                if top[1] == nid or (hot and top[2] == layer):
                    return fn(*args, **kwargs)
                parent = top[0]
            else:
                parent = -1
            idx = len(starts)
            entry = [idx, nid, layer, 0.0]
            names.append(nid)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            leafs.append(0.0)
            stack.append(entry)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
                leafs[idx] = entry[3]
            if size is not None:
                tracer.sizes[name] += size(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def leaf(self, name: str, layer: str, fn: Callable) -> Callable:
        calls, stack, in_leaf, leaf_s = self.calls, self.stack, self._in_leaf, self.leaf_s
        tracer = self

        def wrapper(*args, **kwargs):
            if in_leaf[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            in_leaf[0] = True
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                in_leaf[0] = False
                leaf_s[layer] += dt
                if stack:
                    stack[-1][3] += dt
                else:
                    tracer.leaf_outside_s += dt

        return wrapper

    # results ----------------------------------------------------------------

    def hit_ratio(self, name: str) -> float:
        """1 - distinct keys / calls, as counted at the wrapper."""
        calls = self.calls[name]
        return 1.0 - len(self.keys[name]) / calls if calls else 0.0

    def summary(self) -> dict:
        """Per-layer self time, per-name span time and the root span time."""
        selfs = self_times(self.span_start, self.span_end, self.span_parent, self.span_leaf)
        layer_self: Counter = Counter(self.leaf_s)
        name_s: Counter = Counter()
        root_s = 0.0
        for i, own in enumerate(selfs):
            nid = self.span_name[i]
            layer_self[self.layers[nid]] += own
            name_s[self.names[nid]] += self.span_end[i] - self.span_start[i]
            if self.span_parent[i] < 0:
                root_s += self.span_end[i] - self.span_start[i]
        return {"layer_self_s": layer_self, "span_s": name_s, "root_s": root_s}

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header beside a file of packed columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("op", self.span_op),
            ("start", self.span_start),
            ("end", self.span_end),
            ("leaf_s", self.span_leaf),
        ]
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "layers": self.layers,
            "columns": [[col, arr.typecode] for col, arr in columns],
        }
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, arr in columns:
                arr.tofile(handle)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals that may overlap."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    leafs: Sequence[float],
) -> list[float]:
    """Each span's duration minus what its children cover and its leaf time.

    Child intervals are clipped to the parent's and merged, so overlapping or
    nested children are not subtracted twice.
    """
    children: defaultdict = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(starts[c], start), min(ends[c], end)) for c in kids
            )
        out.append(end - start - covered - leafs[i])
    return out


class Patcher:
    """Replaces entry points with wrappers, everywhere the package looks them up.

    A module-level function is replaced in every loaded module of the package
    that holds it under any name (``guttstar.bch.bracket`` as well as
    ``guttstar.liealg.bracket``).  A method is replaced on its class, under
    every name the class binds it to (``__radd__ = __add__``).  A target that
    no longer exists, or a class that refuses new attributes (a compiled
    type), is recorded in ``missing`` and left alone.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def function(self, module: str, attr: str, make: Callable) -> bool:
        target = f"{module}.{attr}"
        try:
            orig = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        if not callable(orig):
            self.missing.append(target)
            return False
        wrapper = make(orig)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, orig))
        return True

    def method(self, module: str, cls_name: str, attr: str, make: Callable) -> bool:
        target = f"{module}.{cls_name}.{attr}"
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        orig = vars(cls).get(attr)
        if orig is None or not callable(orig) or isinstance(orig, (staticmethod, classmethod)):
            self.missing.append(target)
            return False
        wrapper = make(orig)
        for name in [name for name, value in vars(cls).items() if value is orig]:
            try:
                setattr(cls, name, wrapper)
            except TypeError:
                self.missing.append(target)
                return False
            self._restore.append((cls, name, orig))
        return True

    def restore(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
