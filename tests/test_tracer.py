"""The benchmark's tracer still finds every name it patches in canex."""

from pathlib import Path

import canex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    patched = [(module, attr) for module, attr, _ in spans.TIMED] + [
        ("experiment", "random_canonical"), ("experiment", "classify"),
        ("experiment", "_classify_chunk")]
    before = {key: getattr(getattr(canex, key[0]), key[1]) for key in patched}
    tracer = spans.Tracer(canex, tmp_path)
    tracer.install()
    try:
        assert all(getattr(getattr(canex, m), a) is not before[m, a] for m, a in patched)
    finally:
        tracer.restore()
    assert all(getattr(getattr(canex, m), a) is before[m, a] for m, a in patched)
