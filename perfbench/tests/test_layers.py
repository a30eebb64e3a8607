import guttstar.bch
import guttstar.liealg
import guttstar.pbw
import guttstar.sym
from guttstar.liealg import heisenberg
from guttstar.sym import SymElement

import layers
from tracer import Tracer


def test_install_traces_each_layer_and_restores():
    original = guttstar.liealg.bracket
    tracer = Tracer()
    patcher = layers.install(tracer)
    try:
        assert patcher.missing == []
        assert guttstar.sym.bracket is guttstar.liealg.bracket is not original
        L = heisenberg()
        P, Q = SymElement.basis(L, 0), SymElement.basis(L, 1)
        # looked up after wrapping, as the worker does
        guttstar.pbw.star_pbw(P**2, Q**2)
        guttstar.bch.star_bch(L, (1, 0, 0), 2, (0, 1, 0), 2)
    finally:
        patcher.restore()
    assert guttstar.sym.bracket is guttstar.liealg.bracket is original
    metrics, absent = layers.layer_metrics(tracer, 1.0, patcher.missing)
    assert absent == []
    values = {name: value for name, (value, _) in metrics.items()}
    assert values["pbw.star_calls"] == 1
    assert values["kernel.insert_calls"] > 0 and values["kernel.self_s"] > 0
    assert values["bch.bch_ab_calls"] > 0 and values["liealg.bracket_calls"] > 0
    assert values["hopf.self_s"] == 0.0


def test_missing_entry_points_make_their_metrics_absent():
    missing = ["guttstar.bch.bch_ab"] + layers._layer_targets("kernel")
    metrics, absent = layers.layer_metrics(Tracer(), 1.0, missing)
    assert {"bch.bch_ab_s", "bch.bch_ab_calls", "bch.bch_ab_cache_hit_ratio"} <= set(absent)
    assert {"kernel.self_s", "kernel.insert_calls", "kernel.terms_out"} <= set(absent)
    assert "bch.self_s" in metrics and "bch.star_bch_s" in metrics
    assert not set(absent) & set(metrics)
