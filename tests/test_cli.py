import decimal
import json
import os
import subprocess
import sys

import pytest
from conftest import left_chain

from canex.cli import main
from canex import counting, experiment
from canex.terms import canonical_form, parse, render, to_json_obj


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_row_values(self, capsys):
        code, out, _ = run_cli(["count", "--n", "9"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "n,catalan,bell,total,log10Estimate"
        cells = row.split(",")
        assert cells[:4] == ["9", "1430", "21147", "30240210"]
        assert float(cells[4]) > 0

    def test_n_one_has_no_estimate(self, capsys):
        code, out, _ = run_cli(["count", "--n", "1"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1] == "1,1,1,1,"

    def test_n_zero_rejected(self, capsys):
        code, out, err = run_cli(["count", "--n", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: expressions have at least one leaf\n"

    def test_bell_computed_once(self, capsys, monkeypatch):
        calls = []
        bell = counting.bell

        def counted(n):
            calls.append(n)
            return bell(n)

        monkeypatch.setattr(counting, "bell", counted)
        code, out, _ = run_cli(["count", "--n", "40"], capsys)
        assert code == 0
        assert calls == [40]
        assert out.split("\n")[1].split(",")[2] == str(bell(40))

    def test_cap_refusal_computes_no_count(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("a Bell number was computed")

        monkeypatch.setattr(counting, "bell", refuse)
        for n in (5001, 30000):
            code, out, err = run_cli(["count", "--n", str(n)], capsys)
            assert (code, out) == (2, "")
            assert err == "error: count is capped at n=5000\n"

    def test_exact_past_the_int_to_str_limit(self, capsys):
        # bell(1598) has more than 4300 digits; int() and str() refuse it.
        code, out, err = run_cli(["count", "--n", "1598"], capsys)
        assert (code, err) == (0, "")
        cells = out.split("\n")[1].split(",")
        catalan, bell = counting.catalan(1597), counting.bell(1598)
        assert cells[1:4] == [str(decimal.Decimal(x))
                              for x in (catalan, bell, catalan * bell)]


class TestSample:
    def test_deterministic_lines(self, capsys):
        code, first, _ = run_cli(["sample", "--n", "12", "--count", "3", "--seed", "5"], capsys)
        assert code == 0
        code, second, _ = run_cli(["sample", "--n", "12", "--count", "3", "--seed", "5"], capsys)
        assert first == second
        assert len(first.strip().split("\n")) == 3

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "9", "--count", "2", "--seed", "8", "--format", "json"], capsys)
        assert code == 0
        code, text_out, _ = run_cli(
            ["sample", "--n", "9", "--count", "2", "--seed", "8"], capsys)
        json_lines = out.strip().split("\n")
        text_lines = text_out.strip().split("\n")
        assert len(json_lines) == len(text_lines) == 2
        for json_line, text_line in zip(json_lines, text_lines):
            assert json.loads(json_line) == to_json_obj(parse(text_line))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_rejected(self, capsys, count):
        code, out, err = run_cli(["sample", "--n", "5", "--count", count], capsys)
        assert (code, out) == (2, "")
        assert err == "error: count must be at least 1\n"


class TestClassify:
    def test_plain_output(self, capsys):
        code, out, _ = run_cli(["classify", "--expr", "a1->a0->a0"], capsys)
        assert code == 0
        assert "simple: True" in out
        assert "status: tautology" in out
        assert "cleaned:" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["classify", "--expr", "a1->a0", "--json", "--witness"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "not-tautology"
        assert payload["certificate"] == "antilogy"
        assert payload["witness"] == {"a0": False, "a1": True}

    def test_non_canonical_rejected(self, capsys):
        code, out, err = run_cli(["classify", "--expr", "a0->a1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: variable numbering is not canonical")
        assert err.endswith("or pass --canonicalize\n")  # the flag, not only the function

    def test_canonicalize_flag(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--expr", "((a1->a0)->a1)->a1", "--canonicalize"], capsys)
        assert code == 0
        assert "expr: ((a0->a1)->a0)->a0" in out
        assert "status: tautology" in out
        assert "cheap: False" in out

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(["classify", "--expr", "a1->"], capsys)
        assert code == 2
        assert "position" in err

    def test_long_variable_index(self, capsys):
        code, out, err = run_cli(["classify", "--expr", "a" + "1" * 5000 + "->a0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: variable index too long (position 0)\n"

    def test_non_ascii_digit(self, capsys):
        code, out, err = run_cli(["classify", "--expr", "(a\u0661->a0)->a0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: expected digits after 'a' (position 1)\n"


class TestEnumerate:
    def test_two_leaves(self, capsys):
        code, out, _ = run_cli(["enumerate", "--n", "2"], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["expr"] for r in records] == ["a0->a0", "a1->a0"]
        assert [r["index"] for r in records] == [0, 1]

    def test_classify_columns(self, capsys):
        code, out, _ = run_cli(["enumerate", "--n", "2", "--classify"], capsys)
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert records[0]["status"] == "tautology"
        assert records[1]["status"] == "not-tautology"

    def test_cap_refusal(self, capsys):
        code, _, err = run_cli(["enumerate", "--n", "10"], capsys)
        assert code == 2
        assert "capped" in err

    def test_cap_refusal_computes_no_count(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("a Bell number was computed")

        monkeypatch.setattr(counting, "bell", refuse)
        code, out, err = run_cli(["enumerate", "--n", "3000"], capsys)
        assert (code, out) == (2, "")
        assert "capped" in err


class TestExperiment:
    def test_stdout_matches_file(self, capsys, tmp_path):
        out_csv = tmp_path / "row.csv"
        code, out, _ = run_cli(
            ["experiment", "--n", "8", "--count", "60", "--seed", "4",
             "--out-csv", str(out_csv)], capsys)
        assert code == 0
        assert out == out_csv.read_text()

    def test_dump_jsonl(self, capsys, tmp_path):
        dump = tmp_path / "dump.jsonl"
        code, _, _ = run_cli(
            ["experiment", "--n", "6", "--count", "25", "--seed", "9",
             "--dump-jsonl", str(dump)], capsys)
        assert code == 0
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == 25

    @pytest.mark.parametrize("option", ["--out-csv", "--dump-jsonl"])
    def test_bad_output_path_rejected_before_sampling(self, capsys, monkeypatch,
                                                      tmp_path, option):
        def no_run(cfg):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(experiment, "run_experiment", no_run)
        path = tmp_path / "missing" / "out"
        code, out, err = run_cli(
            ["experiment", "--n", "5", "--count", "10", option, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("existed", [False, True])
    def test_same_path_for_csv_and_dump_rejected(self, capsys, monkeypatch, tmp_path,
                                                 existed):
        def no_run(cfg):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(experiment, "run_experiment", no_run)
        path = tmp_path / "out"
        if existed:
            path.write_text("kept\n")
        same = f"{tmp_path}/./out"
        code, out, err = run_cli(
            ["experiment", "--n", "5", "--count", "10", "--out-csv", str(path),
             "--dump-jsonl", same], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --out-csv and --dump-jsonl name the same file: {same}\n"
        assert list(tmp_path.iterdir()) == ([path] if existed else [])
        assert not existed or path.read_text() == "kept\n"

    def test_rejected_run_leaves_no_empty_file(self, capsys, tmp_path):
        out_csv = tmp_path / "row.csv"
        dump = tmp_path / "missing" / "dump.jsonl"
        code, _, _ = run_cli(
            ["experiment", "--n", "5", "--count", "10", "--out-csv", str(out_csv),
             "--dump-jsonl", str(dump)], capsys)
        assert code == 2
        assert list(tmp_path.iterdir()) == []


class TestRnTable:
    def test_csv_written(self, capsys, tmp_path):
        out_csv = tmp_path / "rn.csv"
        code, out, _ = run_cli(
            ["rntable", "--sizes", "4,6", "--count", "50", "--seed", "2",
             "--out-csv", str(out_csv)], capsys)
        assert code == 0
        assert out == out_csv.read_text()
        assert len(out.strip().split("\n")) == 3

    def test_bad_output_path_rejected_before_sampling(self, capsys, monkeypatch,
                                                      tmp_path):
        def no_run(*args):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(experiment, "rn_table", no_run)
        path = tmp_path / "missing" / "rn.csv"
        code, out, err = run_cli(
            ["rntable", "--sizes", "4", "--count", "5", "--out-csv", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "1"], "rntable sizes must be at least 2"),
        (["--sizes", "4,1", "--count", "5"], "rntable sizes must be at least 2"),
        (["--sizes", "4", "--count", "0"], "count must be at least 1"),
        (["--sizes", "4", "--workers", "0"], "workers must be at least 1"),
        (["--sizes", "1", "--count", "0"], "count must be at least 1"),
        (["--sizes", ""], "rntable needs at least one size"),
        (["--sizes", ","], "rntable needs at least one size"),
    ])
    def test_bad_sizes_and_counts_rejected(self, capsys, args, message):
        code, out, err = run_cli(["rntable", *args], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [["--sizes", "1"], ["--count", "0"],
                                      ["--workers", "0"]])
    def test_rejected_run_leaves_output_files_as_they_were(self, capsys, tmp_path,
                                                           args):
        new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
        kept.write_text("earlier run\n")
        for path in (new, kept):
            code, _, _ = run_cli(["rntable", "--sizes", "4", *args,
                                  "--out-csv", str(path)], capsys)
            assert code == 2
        assert not new.exists()
        assert kept.read_text() == "earlier run\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["experiment", "--n", "5", "--count", "5", "--out-csv", "/dev/full"],
    ["experiment", "--n", "5", "--count", "5", "--dump-jsonl", "/dev/full"],
    ["rntable", "--sizes", "4", "--count", "5", "--out-csv", "/dev/full"],
])
def test_failed_write_is_one_error_line(capsys, args):
    # The probe opens /dev/full; the write after sampling is what fails.
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 28] No space left on device\n"


def test_broken_pipe_exits_zero(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenPipeError

    monkeypatch.setattr(experiment, "emit_report", broken)
    code, _, err = run_cli(["experiment", "--n", "5", "--count", "5"], capsys)
    assert (code, err) == (0, "")


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "canex.cli", "count", "--n", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().split("\n")[1].startswith("3,2,5,10")

    def test_classify_premise_equal_to_a_deep_tail(self):
        # (D -> a0) -> D -> a0 with D 2000 deep: the premise is compared with
        # the tail D -> a0 without recursion.
        chain = left_chain(2000)
        text = render(canonical_form(((chain, 0), (chain, 0))))
        proc = subprocess.run(
            [sys.executable, "-m", "canex.cli", "classify", "--expr", text],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert "cheap: True" in proc.stdout.split("\n")

    def test_no_numpy_at_runtime(self):
        # numpy would add ~12 MB of peak memory to every run; the sampler
        # and the experiment runner are pure Python.
        script = (
            "import sys, canex, canex.cli\n"
            "from canex.experiment import ExperimentConfig, run_experiment\n"
            "from canex.sampling import random_canonical, stream_for_sample\n"
            "random_canonical(stream_for_sample(1, 0), 100)\n"
            "run_experiment(ExperimentConfig(n=100, count=20, seed=1))\n"
            "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_one_worker_run_loads_no_pool_and_no_dataclasses(self, tmp_path):
        # A run that opens no pool pays for no pool modules, nor for
        # dataclasses (which imports inspect): tens of milliseconds of every
        # fresh interpreter's start-up.  Modules loaded before canex (by
        # site, say) do not count.
        script = (
            "import os, sys\n"
            "before = set(sys.modules)\n"
            "import canex, canex.cli\n"
            "from canex.experiment import (ExperimentConfig, classify, emit_report,\n"
            "                              rn_table, run_experiment)\n"
            "from canex.terms import parse\n"
            "row = run_experiment(ExperimentConfig(n=100, count=40, seed=1)).csv_row()\n"
            f"dump = {str(tmp_path / 'dump.jsonl')!r}\n"
            "emit_report(run_experiment(ExperimentConfig(n=25, count=20, seed=1,\n"
            "                                            dump_jsonl=dump)), dump_jsonl=dump)\n"
            "rn_table([5, 25], count=20, seed=1)\n"
            "classify(parse('((a0->a1)->a0)->a0'))\n"
            "canex.cli.main(['sample', '--n', '10', '--count', '2'])\n"
            "loaded = set(sys.modules) - before\n"
            "for name in ('concurrent.futures', 'multiprocessing', 'dataclasses'):\n"
            "    assert name not in loaded, name\n"
            "os.cpu_count = lambda: 2  # so that two workers open a pool on any host\n"
            "two = run_experiment(ExperimentConfig(n=100, count=40, seed=1, workers=2))\n"
            "assert two.csv_row() == row\n"
            "assert 'concurrent.futures.process' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
