"""The tracer patches every binding of a traced name and counts spans right."""

import sys

import pytest

import run
import spans
import workloads
from cgalgebra import cli, fock, invariance, linalg, weyl
from cgalgebra.ring import Coefficient


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_reaches_names_imported_elsewhere(tracer):
    package = sys.modules["cgalgebra"]
    assert cli.commutator is weyl.commutator is package.commutator
    assert invariance.nullspace is fock.nullspace is linalg.nullspace
    assert getattr(weyl.multiply, "__wrapped__", None) is not None
    assert Coefficient.__radd__ is Coefficient.__add__
    assert getattr(Coefficient.__add__, "__wrapped__", None) is not None


def test_aliases_are_wrapped_once():
    add, mul = Coefficient.__add__, Coefficient.__mul__
    t = spans.Tracer()
    t.install()
    try:
        assert Coefficient.__add__.__wrapped__ is add
        assert Coefficient.__radd__.__wrapped__ is add
        assert Coefficient.__mul__.__wrapped__ is mul
        assert Coefficient.__rmul__.__wrapped__ is mul
    finally:
        t.uninstall()


def test_uninstall_restores_the_originals():
    before = (weyl.multiply, cli.multiply, Coefficient.__add__, Coefficient.__radd__)
    t = spans.Tracer()
    t.install()
    t.uninstall()
    assert (weyl.multiply, cli.multiply, Coefficient.__add__, Coefficient.__radd__) == before
    assert not hasattr(weyl.multiply, "__wrapped__")


def test_reentry_into_one_name_counts_once(tracer):
    x = Coefficient.of(3) - Coefficient.of(1)  # __sub__ calls __add__: both ring.add
    assert x == Coefficient.of(2)
    assert tracer.calls["ring.add"] == 1
    m = tracer.metrics()
    assert m["ring.busy_s"] == pytest.approx(m["ring.self_s"])


def test_self_time_excludes_other_layers(tracer):
    a, b, c = workloads.tier1_triples(1)[0]
    tracer.reset()
    weyl.commutator(a, weyl.multiply(b, c))
    m = tracer.metrics()
    assert m["weyl.multiply.calls"] == 3 and m["weyl.commutator.calls"] == 1
    assert m["ring.mul.calls"] > 0
    assert m["weyl.self_s"] + m["ring.self_s"] == pytest.approx(m["weyl.busy_s"])


def test_traced_runs_repeat_their_call_counts():
    wl = workloads.WeylProducts()
    wl.trace_ops = 3
    counts = []
    for _ in range(2):
        tally = run.Tally()
        metrics = run.traced(wl, seed=4, seconds=0, tally=tally)
        assert tally.failed == 0 and not tally.problems
        counts.append({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")})
        assert all(counts[-1][f"{layer}.{fn}.calls"] == 0
                   for layer, fns in spans._FUNCS.items() if layer != "weyl" for fn in fns)
    assert counts[0] == counts[1]
