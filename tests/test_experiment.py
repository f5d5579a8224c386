import concurrent.futures
import json
import os
from collections import Counter

import pytest
from conftest import evaluate, left_chain, simple_rate

from canex import classical, experiment, intuition, sampling
from canex.classical import CERT_ANTILOGY, CERT_VALUATION, NOT_TAUTOLOGY, TAUTOLOGY
from canex.counting import stam_table
from canex.experiment import (CSV_COLUMNS, Classification, ExperimentConfig,
                              ExperimentReport, classify, emit_report, rn_table,
                              run_experiment)
from canex.intuition import clean
from canex.sampling import SplitMix64, mix64, random_canonical, stream_for_sample
from canex.terms import (canonical_form, decode_labelled_vector, parse, render,
                         term_filters)

RECORD_KEYS = ["simple", "mp", "easy", "minorAfterClean", "cheap", "cleanedSize",
               "status", "certificate", "gkzSimpleNonTaut"]


class TestClassify:
    def test_simple_theorem(self):
        cls = classify(parse("a1->a0->a0"))
        assert cls.verdict.simple and cls.verdict.cheap
        assert cls.taut.status == TAUTOLOGY
        assert not cls.simple_non_taut

    def test_peirce(self):
        cls = classify(parse("((a0->a1)->a0)->a0"))
        assert not cls.verdict.cheap
        assert cls.taut.status == TAUTOLOGY

    def test_simple_non_tautology(self):
        cls = classify(parse("a1->a0"))
        assert not cls.verdict.cheap
        assert cls.taut.status == NOT_TAUTOLOGY
        assert cls.taut.certificate == CERT_ANTILOGY
        assert cls.simple_non_taut

    def test_record_keys(self):
        record = classify(parse("a1->a0")).as_record()
        assert list(record) == RECORD_KEYS
        assert record["cleanedSize"] == 2

    def test_unknown_record_puts_reason_before_gkz(self, monkeypatch):
        monkeypatch.setattr(classical, "SEARCH_BUDGET", 1)
        record = classify(parse("((a0->a1)->a0)->a0")).as_record()
        assert record["status"] == "unknown"
        assert list(record) == RECORD_KEYS[:-1] + ["reason", "gkzSimpleNonTaut"]
        assert record["reason"].startswith("falsifier search exhausted")

    @pytest.mark.parametrize("text", [
        "((a0->a0)->a1)->a1",  # cleaned to a simple term: cheap
        "((a0->a0)->a1->a0)->a0",  # cleaned, then refuted by the search
        "((a0->a1)->a0)->a0",  # nothing dropped: the cleaned term is the term
    ])
    def test_each_fact_read_once(self, monkeypatch, text):
        term = parse(text, canonical=False)
        cleans, filters = [], []

        def counting_clean(t):
            cleans.append(t)
            return clean(t)

        def counting_filters(t):
            filters.append(t)
            return term_filters(t)

        for module in (experiment, intuition, classical):
            if hasattr(module, "clean"):
                monkeypatch.setattr(module, "clean", counting_clean)
            if hasattr(module, "term_filters"):
                monkeypatch.setattr(module, "term_filters", counting_filters)
        cleaned = classify(term).verdict.cleaned
        assert len(cleans) == 1 and cleans[0] is term
        assert sorted(map(id, filters)) == sorted([id(term), id(cleaned)])


class TestDeepInput:
    def test_left_chain_ten_thousand_deep(self):
        # Compared as text: tuple equality at this depth raises
        # RecursionError inside the interpreter.
        depth = 10 ** 4
        text = render(left_chain(depth))
        term = parse(text)
        assert render(term) == text
        cls = classify(term)
        assert cls.taut.status == NOT_TAUTOLOGY
        assert cls.taut.certificate == CERT_ANTILOGY
        assert cls.taut.witness == {0: False, 1: True}
        # The innermost premise a1 -> a1 is simple, so clean drops it: the
        # chain then starts from its conclusion a0.
        assert render(cls.verdict.cleaned) == render(left_chain(depth, start=0, skip=2))
        assert cls.verdict.cleaned_size == depth - 1

    def test_eleven_hundred_deferred_implications(self):
        # Every premise a1 -> a0 shares the goal and is not easy, so neither
        # the antilogy filter nor clean settles the term: the search defers
        # all 1100 implications and refutes them one choice point at a time.
        premises = 1100
        term = 0
        for _ in range(premises):
            term = ((1, 0), term)
        cls = classify(term)
        assert cls.taut.status == NOT_TAUTOLOGY
        assert cls.taut.certificate == CERT_VALUATION
        assert cls.taut.witness == {0: False, 1: False}
        assert evaluate(term, cls.taut.witness) is False
        assert render(cls.verdict.cleaned) == render(term)
        assert not cls.verdict.cheap

    def test_premise_equal_to_a_deep_tail(self):
        # (D -> a0) -> D -> a0 with D 2000 deep: minor, so cheap, and the
        # comparison of the two distinct copies of D raises nothing.
        chain = left_chain(2000)
        term = parse(render(canonical_form(((chain, 0), (chain, 0)))))
        cls = classify(term)
        assert cls.verdict.minor_after_clean and cls.verdict.cheap
        assert not cls.verdict.easy
        assert cls.taut.status == TAUTOLOGY


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0, count=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1, count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1, count=1, workers=0)

    def test_config_and_verdicts_are_read_only(self):
        cls = classify(parse("(a0->a1)->a0"))
        for obj, name in [(ExperimentConfig(n=5, count=1), "n"), (cls, "simple_non_taut"),
                          (cls.verdict, "cheap"), (cls.taut, "status")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


class TestReport:
    COUNTS = ("n_simple", "n_mp", "n_easy", "n_cheap", "n_tautology", "n_cheap_and_taut",
              "n_cheap_unknown", "n_simple_non_taut", "n_antilogy", "n_unknown")

    def test_defaults(self):
        report = ExperimentReport(n=5, count=10, seed=1)
        assert [getattr(report, name) for name in self.COUNTS] == [0] * len(self.COUNTS)
        assert report.records is None
        assert report.csv_row() == "5,10,1,0,0,0,0,0,0,0,0,0,0.0,0.0,0.0,0"

    def test_counts_from_a_counter(self):
        report = ExperimentReport(n=5, count=10, seed=1, **Counter(n_simple=3))
        assert report.n_simple == 3


class TestRunExperiment:
    def test_worker_count_independence(self, tmp_path):
        reports = [
            run_experiment(ExperimentConfig(n=8, count=240, seed=20240917,
                                            workers=w,
                                            dump_jsonl=str(tmp_path / f"{w}.jsonl")))
            for w in (1, 2, 3)
        ]
        rows = {r.csv_row() for r in reports}
        assert len(rows) == 1
        assert reports[0].records == reports[1].records == reports[2].records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_only_path_matches_dump_path(self, tmp_path, workers):
        # Without a dump, raw antilogies skip clean and the classifiers; the
        # dump path classifies every sample in full.
        for n in (8, 30, 100):
            for seed in (3, 12358, 2 ** 64 - 1):
                base = dict(n=n, count=300, seed=seed, workers=workers)
                fast = run_experiment(ExperimentConfig(**base))
                full = run_experiment(ExperimentConfig(
                    **base, dump_jsonl=str(tmp_path / "dump.jsonl")))
                assert fast.csv_row() == full.csv_row()
                assert fast.n_cheap_unknown == full.n_cheap_unknown

    def test_count_consistency(self):
        report = run_experiment(ExperimentConfig(n=10, count=400, seed=7))
        assert report.n_simple <= report.n_easy <= report.n_cheap
        assert report.n_mp <= report.n_easy
        assert report.n_cheap_and_taut <= min(report.n_cheap, report.n_tautology)
        assert report.n_cheap_and_taut == report.n_cheap - report.n_cheap_unknown
        for value in (report.n_simple, report.n_tautology, report.n_antilogy,
                      report.n_unknown, report.n_simple_non_taut):
            assert 0 <= value <= report.count

    def test_single_sample(self):
        report = run_experiment(ExperimentConfig(n=5, count=1, seed=3))
        text = emit_report(report)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_COLUMNS
        cells = lines[1].split(",")
        assert cells[0] == "5" and cells[1] == "1"
        for cell in cells[3:12]:
            assert cell in {"0", "1"}

    def test_records_indexed_once_and_sorted(self, tmp_path):
        cfg = ExperimentConfig(n=6, count=50, seed=11,
                               dump_jsonl=str(tmp_path / "dump.jsonl"))
        report = run_experiment(cfg)
        emit_report(report, dump_jsonl=cfg.dump_jsonl)
        lines = (tmp_path / "dump.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == list(range(50))

    def test_dump_round_trip_reclassifies_identically(self, tmp_path):
        cfg = ExperimentConfig(n=9, count=80, seed=5,
                               dump_jsonl=str(tmp_path / "dump.jsonl"))
        report = run_experiment(cfg)
        emit_report(report, dump_jsonl=cfg.dump_jsonl)
        for line in (tmp_path / "dump.jsonl").read_text().strip().split("\n"):
            record = json.loads(line)
            term = parse(record["expr"])
            cls = classify(term)
            redo = cls.as_record()
            for key, value in redo.items():
                assert record[key] == value, key

    def test_ratios_recomputed_from_counts(self):
        report = run_experiment(ExperimentConfig(n=12, count=300, seed=2))
        if report.n_tautology:
            assert report.ratio_cheap_over_taut == report.n_cheap_and_taut / report.n_tautology
        assert report.simple_rate == report.n_simple / 300
        rest = 300 - report.n_simple_non_taut
        if rest:
            assert report.gkz_ratio == report.n_simple / rest


class TestEmitReport:
    def test_csv_written(self, tmp_path):
        report = run_experiment(ExperimentConfig(n=4, count=20, seed=1))
        text = emit_report(report, out_csv=str(tmp_path / "out.csv"))
        assert (tmp_path / "out.csv").read_text() == text
        assert text.splitlines()[0] == CSV_COLUMNS

    def test_timing_off_by_default(self):
        report = run_experiment(ExperimentConfig(n=4, count=10, seed=1))
        row = report.csv_row()
        assert row.endswith(",0")
        timed = report.csv_row(timing=True)
        assert not timed.endswith(",0")

    def test_dump_refused_for_a_report_run_without_one(self, tmp_path):
        report = run_experiment(ExperimentConfig(n=20, count=50, seed=3))
        assert report.records is None
        with pytest.raises(ValueError, match="no per-sample records"):
            emit_report(report, out_csv=str(tmp_path / "out.csv"),
                        dump_jsonl=str(tmp_path / "dump.jsonl"))
        assert list(tmp_path.iterdir()) == []


class TestSimpleRateAndTable:
    def test_matches_full_experiment(self):
        cfg = ExperimentConfig(n=7, count=500, seed=13)
        report = run_experiment(cfg)
        assert simple_rate(7, 500, 13) == report.n_simple / 500

    def test_worker_independence(self):
        assert simple_rate(6, 300, 5, workers=1) == simple_rate(6, 300, 5, workers=2)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            simple_rate(5, 0)

    def test_rn_table_layout(self):
        text = rn_table([5, 10], count=200, seed=3)
        lines = text.strip().split("\n")
        assert lines[0] == "n,count,seed,lognOverN,simpleRate,rateOverLognOverN"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "200" and first[2] == "3"

    def test_rn_table_one_pool_for_all_sizes(self, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        text = rn_table([5, 10, 20], count=150, seed=4, workers=2)
        assert len(opened) == 1
        assert text == rn_table([5, 10, 20], count=150, seed=4, workers=1)

    def test_simple_rate_is_its_rn_table_cell(self):
        sizes = [3, 8, 21]
        rows = rn_table(sizes, count=120, seed=6).strip().split("\n")[1:]
        for n, row in zip(sizes, rows):
            assert float(row.split(",")[4]) == simple_rate(n, 120, 6)


def stand_in_pool(monkeypatch, on_open, cpus=2):
    """Replace the runner's pool with one that maps in this process.

    It starts no process: a real pool with a large worker count would, under
    fork, start them all at the first submit.  ``on_open(max_workers)`` is
    called as it opens.  ``os.cpu_count()`` reads ``cpus``: with one usable
    CPU a run opens no pool.
    """
    class StandInPool:
        def __init__(self, max_workers=None):
            on_open(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)


class TestPoolSize:
    def test_pool_capped_at_chunks_and_cpus(self, monkeypatch):
        sizes = []
        stand_in_pool(monkeypatch, sizes.append)
        report = run_experiment(ExperimentConfig(n=6, count=3, seed=2, workers=10 ** 6))
        assert report.csv_row() == run_experiment(
            ExperimentConfig(n=6, count=3, seed=2)).csv_row()
        text = rn_table([5, 9], count=2, seed=4, workers=10 ** 6)
        assert text == rn_table([5, 9], count=2, seed=4)
        # 3 chunks of one sample each, then 2 sizes of 2 chunks.
        cpus = os.cpu_count() or 1
        assert sizes == [min(3, cpus), min(4, cpus)]

    def test_tables_built_before_the_pool_opens(self, monkeypatch):
        # Forked workers inherit the parent's tables; built after the fork,
        # each worker would build its own.
        cached = []
        stand_in_pool(monkeypatch, lambda _: cached.append(stam_table.cache_info().currsize))
        stam_table.cache_clear()
        run_experiment(ExperimentConfig(n=37, count=8, workers=2))
        stam_table.cache_clear()
        rn_table([11, 13], count=8, workers=2)
        assert cached == [1, 2]

    def test_no_pool_with_one_usable_cpu(self, monkeypatch):
        # Two workers on one CPU would fork a one-process pool and pickle
        # every chunk back, for no parallelism.
        def refuse(max_workers):
            raise AssertionError("a pool opened with one usable CPU")

        stand_in_pool(monkeypatch, refuse, cpus=1)
        base = dict(n=25, count=60, seed=2, dump_jsonl="unused.jsonl")
        one, two = (run_experiment(ExperimentConfig(**base, workers=w)) for w in (1, 2))
        assert (one.csv_row(), one.records) == (two.csv_row(), two.records)
        assert rn_table([5, 9], count=20, seed=4, workers=2) == rn_table([5, 9], count=20, seed=4)


class TestCountPathBuildsOnlyUnsettledTerms:
    def test_terms_built(self, monkeypatch):
        built = []

        def counting_build(vector, labels):
            built.append(len(labels))
            return decode_labelled_vector(vector, labels)

        def no_sample(rng, n):
            raise AssertionError("a run drew through random_canonical")

        monkeypatch.setattr(experiment, "decode_labelled_vector", counting_build)
        monkeypatch.setattr(experiment, "random_canonical", no_sample)
        rn_table([2, 3, 25, 100, 1000], count=40, seed=5)
        assert built == []

        n, count, seed = 25, 400, 5
        run_experiment(ExperimentConfig(n=n, count=count, seed=seed))
        settled = sum(term_filters(random_canonical(stream_for_sample(seed, i), n))[1]
                      for i in range(count))
        assert 0 < settled < count
        assert built == [n] * (count - settled)

        # A dump run builds every term, from the same draw.
        built.clear()
        report = run_experiment(ExperimentConfig(n=n, count=count, seed=seed,
                                                 dump_jsonl="unused.jsonl"))
        assert built == [n] * count
        assert [r["expr"] for r in report.records] == [
            render(random_canonical(stream_for_sample(seed, i), n)) for i in range(count)]


class TestCountPathReadsLabelsOnDemand:
    @staticmethod
    def words_per_sample(monkeypatch, run) -> list[int]:
        """Words each sample of ``run()`` computes, counted from one stream to the next."""
        words = [0]
        marks = []

        def counting_mix64(z):
            words[0] += 1
            return mix64(z)

        take = SplitMix64.take

        def counting_take(self, k):
            words[0] += k
            return take(self, k)

        stream = experiment.stream_for_sample

        def marking(*args):
            marks.append(words[0])
            return stream(*args)

        monkeypatch.setattr(sampling, "mix64", counting_mix64)
        monkeypatch.setattr(SplitMix64, "take", counting_take)
        monkeypatch.setattr(experiment, "stream_for_sample", marking)
        run()
        marks.append(words[0])
        return [b - a for a, b in zip(marks, marks[1:])]

    def test_words_computed_per_sample(self, monkeypatch):
        # Each sample computes its stream seed, n - 1 tree words, the class
        # count and the labels the filters read: about 4 on average, at most
        # a few dozen.  A reader that computed all n labels would double it.
        n, count = 3000, 10
        per_sample = self.words_per_sample(
            monkeypatch, lambda: rn_table([n], count=count, seed=5))
        assert len(per_sample) == count
        assert all(n + 1 < w < n + 100 for w in per_sample), per_sample

    def test_words_computed_per_dump_sample(self, monkeypatch):
        # A dump run builds every term: its stream seed, n - 1 tree words,
        # the class count and all n labels, each computed once.
        n, count = 100, 20
        per_sample = self.words_per_sample(monkeypatch, lambda: run_experiment(
            ExperimentConfig(n=n, count=count, seed=5, dump_jsonl="unused.jsonl")))
        assert per_sample == [2 * n + 1] * count


class TestChunkPlan:
    def test_chunks_planned_from_the_usable_workers(self, monkeypatch):
        # No pool is started: the chunks are mapped in this process.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        planned = []

        def in_process(chunk_fn, chunks, workers):
            planned.append(chunks)
            return [chunk_fn(c) for c in chunks]

        monkeypatch.setattr(experiment, "_map_chunks", in_process)
        wide = run_experiment(ExperimentConfig(n=5, count=4000, seed=3, workers=64))
        narrow = run_experiment(ExperimentConfig(n=5, count=4000, seed=3, workers=2))
        assert wide.csv_row() == narrow.csv_row()
        assert planned[0] == planned[1]
        assert len(planned[0]) == 8
        assert rn_table([5, 9], 4000, seed=3, workers=64) == \
            rn_table([5, 9], 4000, seed=3, workers=2)
        assert planned[2] == planned[3]
        assert len(planned[2]) == 16
