import json
import subprocess
import sys

import pytest
from conftest import left_chain

from canex.cli import main
from canex.terms import canonical_form, render


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


class TestSample:
    def test_deterministic_lines(self, capsys):
        code, first, _ = run_cli(["sample", "--n", "12", "--count", "3", "--seed", "5"], capsys)
        assert code == 0
        code, second, _ = run_cli(["sample", "--n", "12", "--count", "3", "--seed", "5"], capsys)
        assert first == second
        assert len(first.strip().split("\n")) == 3

    def test_json_format_round_trips(self, capsys):
        from canex.terms import from_json_obj, render
        code, out, _ = run_cli(
            ["sample", "--n", "9", "--count", "2", "--seed", "8", "--format", "json"], capsys)
        assert code == 0
        code, text_out, _ = run_cli(
            ["sample", "--n", "9", "--count", "2", "--seed", "8"], capsys)
        for json_line, text_line in zip(out.strip().split("\n"),
                                        text_out.strip().split("\n")):
            assert render(from_json_obj(json.loads(json_line))) == text_line


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
        code, _, err = run_cli(["classify", "--expr", "a0->a1"], capsys)
        assert code == 2
        assert "canonical" in err

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


class TestRnTable:
    def test_csv_written(self, capsys, tmp_path):
        out_csv = tmp_path / "rn.csv"
        code, out, _ = run_cli(
            ["rntable", "--sizes", "4,6", "--count", "50", "--seed", "2",
             "--out-csv", str(out_csv)], capsys)
        assert code == 0
        assert out == out_csv.read_text()
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "1"], "rntable sizes must be at least 2"),
        (["--sizes", "4,1", "--count", "5"], "rntable sizes must be at least 2"),
        (["--sizes", "4", "--count", "0"], "count must be at least 1"),
        (["--sizes", "4", "--workers", "0"], "workers must be at least 1"),
        (["--sizes", "1", "--count", "0"], "count must be at least 1"),
    ])
    def test_bad_sizes_and_counts_rejected(self, capsys, args, message):
        code, out, err = run_cli(["rntable", *args], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


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
