"""The benchmark's tracer still finds every name it patches in canex."""

from pathlib import Path

import canex
from canex.experiment import ExperimentConfig

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


def test_traced_runs_match_untraced_ones(tmp_path, monkeypatch):
    # The tracer as the benchmark's traced rounds use it, in process and on a
    # pool: every name it wraps must still be on the path a run takes, and
    # tracing must not move an output byte.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    def run(workers, dump):
        cfg = ExperimentConfig(n=25, count=300, seed=5, workers=workers, dump_jsonl=dump)
        return canex.experiment.emit_report(canex.experiment.run_experiment(cfg),
                                            dump_jsonl=dump)

    plain = [run(1, None), run(2, str(tmp_path / "plain.jsonl"))]
    tracer = spans.Tracer(canex, tmp_path)
    tracer.install()
    try:
        traced = [run(1, None), run(2, str(tmp_path / "traced.jsonl"))]
        chunks = tracer.merge_spool()
        canex.experiment.classify(canex.terms.parse("((a0->a1)->a0)->a0"))
    finally:
        tracer.restore()
    assert traced == plain
    assert (tmp_path / "traced.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
    assert chunks > 0
    for span in ("sampling.tree", "sampling.partition", "intuition.clean",
                 "classical.status", "experiment.classify", "terms.parse"):
        assert tracer.calls[span], span
