"""The benchmark under perfbench/ imports, and its tracer wraps and restores
the module attributes it rebinds, so a renamed or deleted name fails here."""

import pathlib

from hxproof import kernel, search

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_installs_its_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    prove, nominals_of = search.prove, kernel.nominals_of
    tr = spans.Tracer()
    try:
        workloads.install(tr)
        assert search.prove is not prove
        assert kernel.nominals_of is not nominals_of
    finally:
        tr.unpatch()
    assert search.prove is prove and kernel.nominals_of is nominals_of
