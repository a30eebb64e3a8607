"""Which guttstar entry points the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Coarse entry points are timed as spans;
the hot ones (recursive ``insert``, element construction inside another
``sym`` call, ``as_vector``) are only counted, and ``zpoly`` arithmetic,
which calls no other layer, gets a leaf timer.  ``cli`` and ``exprs`` are
not wrapped: no workload spends measurable time in them.

A metric whose entry points are gone (renamed, deleted or compiled) is left
out of the result and listed as absent; it never stops the run.
"""

from __future__ import annotations

import sys

from tracer import Patcher, Tracer

LAYERS = ("kernel", "pbw", "sym", "zpoly", "bch", "liealg", "hopf", "experiments")


def _ctx_key(args):
    return (id(args[0]), args[1], args[2])


def _bch_ab_key(args):
    L, a, b, xi, eta = args
    return (L, a, b, tuple(xi), tuple(eta))


# (layer, module, class or None, attribute, options)
SPANS = [
    ("kernel", "guttstar.kernel", "PbwKernel", "insert", {"hot": True, "key": _ctx_key, "size": len}),
    ("kernel", "guttstar.kernel", "PbwKernel", "word_mul", {"hot": True, "size": len}),
    ("kernel", "guttstar.kernel", "PbwKernel", "normal_order", {"hot": True, "size": len}),
    ("pbw", "guttstar.pbw", None, "star_pbw", {}),
    ("pbw", "guttstar.pbw", None, "lift_hom", {}),
    ("pbw", "guttstar.pbw", "_Context", "star_monomials", {"key": _ctx_key}),
    ("pbw", "guttstar.pbw", "_Context", "q_monomial", {}),
    ("pbw", "guttstar.pbw", "_Context", "q_raw", {}),
    ("pbw", "guttstar.pbw", "_Context", "multiply_raw", {}),
    ("pbw", "guttstar.pbw", "_Context", "q_inv_raw", {}),
    ("sym", "guttstar.sym", "SymElement", "__init__", {"hot": True}),
    ("sym", "guttstar.sym", "SymElement", "__add__", {"hot": True}),
    ("sym", "guttstar.sym", "SymElement", "scale", {"hot": True}),
    ("sym", "guttstar.sym", "SymElement", "project", {"hot": True}),
    ("sym", "guttstar.sym", "SymElement", "evaluate_z", {"hot": True}),
    ("sym", "guttstar.sym", "SymElement", "z_coefficient", {"hot": True}),
    ("sym", "guttstar.sym", None, "sym_mul", {"hot": True}),
    ("sym", "guttstar.sym", None, "pR_norm", {"hot": True}),
    ("sym", "guttstar.sym", None, "pn_norm", {"hot": True}),
    ("bch", "guttstar.bch", None, "star_bch", {}),
    ("bch", "guttstar.bch", None, "star_linear", {}),
    ("bch", "guttstar.bch", None, "bch_ab", {"key": _bch_ab_key}),
    ("bch", "guttstar.bch", None, "dynkin_bracket", {}),
    ("liealg", "guttstar.liealg", None, "bracket", {"hot": True}),
    ("hopf", "guttstar.hopf", None, "coproduct", {}),
    ("hopf", "guttstar.hopf", None, "antipode", {}),
    ("hopf", "guttstar.hopf", None, "tensor_pR", {}),
    ("experiments", "guttstar.experiments", None, "run_experiment", {}),
]

COUNTERS = [
    ("guttstar.liealg", None, "as_vector"),
    ("guttstar.experiments", "EstimateReport", "add"),
]

LEAVES = [
    ("zpoly", "guttstar.zpoly", "PolyZ", name)
    for name in ("__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "evaluate")
] + [
    ("zpoly", "guttstar.zpoly", None, name)
    for name in ("zp_add_into", "zp_mul", "zp_scale", "zp_eval")
]


def _label(cls, attr):
    return f"{cls}.{attr}" if cls else attr


def install(tracer: Tracer) -> Patcher:
    """Wrap every entry point in the tables above; returns the patcher."""
    patcher = Patcher("guttstar")

    def patch(module, cls, attr, make):
        if cls is None:
            patcher.function(module, attr, make)
        else:
            patcher.method(module, cls, attr, make)

    for layer, module, cls, attr, opts in SPANS:
        name = _label(cls, attr)
        patch(module, cls, attr, lambda fn, n=name, l=layer, o=opts: tracer.span(n, l, fn, **o))
    for module, cls, attr in COUNTERS:
        name = _label(cls, attr)
        patch(module, cls, attr, lambda fn, n=name: tracer.counter(n, fn))
    for layer, module, cls, attr in LEAVES:
        name = _label(cls, attr)
        patch(module, cls, attr, lambda fn, n=name, l=layer: tracer.leaf(n, l, fn))
    return patcher


def _targets(*labels):
    """Fully qualified targets of the given entry-point labels."""
    entries = [(m, c, a) for _, m, c, a, _ in SPANS] + COUNTERS
    return [f"{m}.{_label(c, a)}" for m, c, a in entries if _label(c, a) in labels]


def _layer_targets(layer):
    targets = [f"{m}.{_label(c, a)}" for l, m, c, a, _ in SPANS if l == layer]
    return targets + [f"{m}.{_label(c, a)}" for l, m, c, a in LEAVES if l == layer]


def _star_memo_entries():
    """Entries in the pbw memo tables (star products and q images)."""
    contexts = getattr(sys.modules.get("guttstar.pbw"), "_contexts", None)
    if not isinstance(contexts, dict):
        return None
    total = 0
    for ctx in contexts.values():
        for table in ("star_cache", "q_cache"):
            entries = getattr(ctx, table, None)
            if not isinstance(entries, dict):
                return None
            total += len(entries)
    return total


def layer_metrics(tracer: Tracer, wall_s: float, missing: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced rep, and the names of absent ones.

    ``X_s`` metrics are the total duration of the spans of entry point X
    (outermost calls only, and for hot entry points only calls entered from
    another layer); ``self_s`` is the layer's self time.
    """
    s = tracer.summary()
    self_s, span_s, calls = s["layer_self_s"], s["span_s"], tracer.calls
    m = {}  # name -> (value, unit, targets it needs)

    def put(name, value, unit, targets):
        m[name] = (value, unit, targets)

    gone = set(missing)

    def any_of(targets):
        """Needed targets of a metric that stays meaningful while any remain."""
        return targets if gone.issuperset(targets) else []

    for layer in LAYERS:
        needs = any_of(_layer_targets(layer))
        put(f"{layer}.self_s", self_s[layer], "s", needs)
        put(f"{layer}.share", self_s[layer] / wall_s if wall_s else 0.0, "ratio", needs)
    put("kernel.insert_calls", calls["PbwKernel.insert"], "count", _targets("PbwKernel.insert"))
    put("kernel.insert_hit_ratio", tracer.hit_ratio("PbwKernel.insert"), "ratio", _targets("PbwKernel.insert"))
    put("kernel.word_mul_calls", calls["PbwKernel.word_mul"], "count", _targets("PbwKernel.word_mul"))
    kernel_entry = ("PbwKernel.insert", "PbwKernel.word_mul", "PbwKernel.normal_order")
    put("kernel.terms_out", sum(tracer.sizes[n] for n in kernel_entry), "count", any_of(_targets(*kernel_entry)))
    put("pbw.q_s", span_s["_Context.q_monomial"] + span_s["_Context.q_raw"], "s",
        _targets("_Context.q_monomial", "_Context.q_raw"))
    put("pbw.multiply_s", span_s["_Context.multiply_raw"], "s", _targets("_Context.multiply_raw"))
    put("pbw.q_inv_s", span_s["_Context.q_inv_raw"], "s", _targets("_Context.q_inv_raw"))
    put("pbw.star_calls", calls["star_pbw"], "count", _targets("star_pbw"))
    put("pbw.star_cache_hit_ratio", tracer.hit_ratio("_Context.star_monomials"), "ratio",
        _targets("_Context.star_monomials"))
    entries = _star_memo_entries()
    put("pbw.cache_entries", entries or 0, "count", [] if entries is not None else ["guttstar.pbw._contexts"])
    put("sym.constructions", calls["SymElement.__init__"], "count", _targets("SymElement.__init__"))
    put("sym.construct_s", span_s["SymElement.__init__"], "s", _targets("SymElement.__init__"))
    put("sym.sym_mul_calls", calls["sym_mul"], "count", _targets("sym_mul"))
    put("sym.sym_mul_s", span_s["sym_mul"], "s", _targets("sym_mul"))
    put("sym.add_calls", calls["SymElement.__add__"], "count", _targets("SymElement.__add__"))
    put("sym.norm_s", span_s["pR_norm"], "s", _targets("pR_norm"))
    put("sym.norm_calls", calls["pR_norm"], "count", _targets("pR_norm"))
    leaf_names = [_label(c, a) for _, _, c, a in LEAVES]
    put("zpoly.polyz_ops", sum(calls[n] for n in leaf_names), "count", any_of(_layer_targets("zpoly")))
    put("bch.bch_ab_s", span_s["bch_ab"], "s", _targets("bch_ab"))
    put("bch.bch_ab_calls", calls["bch_ab"], "count", _targets("bch_ab"))
    put("bch.bch_ab_cache_hit_ratio", tracer.hit_ratio("bch_ab"), "ratio", _targets("bch_ab"))
    put("bch.star_bch_s", span_s["star_bch"], "s", _targets("star_bch"))
    put("bch.star_linear_s", span_s["star_linear"], "s", _targets("star_linear"))
    put("liealg.bracket_calls", calls["bracket"], "count", _targets("bracket"))
    put("liealg.bracket_s", span_s["bracket"], "s", _targets("bracket"))
    put("liealg.as_vector_calls", calls["as_vector"], "count", _targets("as_vector"))
    put("hopf.coproduct_s", span_s["coproduct"], "s", _targets("coproduct"))
    put("hopf.tensor_pR_s", span_s["tensor_pR"], "s", _targets("tensor_pR"))
    put("experiments.rows", calls["EstimateReport.add"], "count", _targets("EstimateReport.add"))
    put("trace.spans", len(tracer.span_start), "count", [])
    put("trace.outside_s", wall_s - s["root_s"] - tracer.leaf_outside_s, "s", [])

    present = {n: (v, u) for n, (v, u, t) in m.items() if not gone.intersection(t)}
    return present, sorted(set(m) - set(present))
