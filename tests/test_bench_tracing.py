"""The bench tracer finds its targets by name, so a refactor that removes or
renames one would only crash a traced bench run; this catches it here."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    rebinds = list(tracer._rebinds)
    tracer.uninstall()
    rebound = {id(original) for _target, _attr, original in rebinds}
    missing = [original.__qualname__ for _ns, original, _wrapper in tracer._wrappers
               if id(original) not in rebound]
    assert not missing
    assert all(vars(target)[attr] is original for target, attr, original in rebinds)
