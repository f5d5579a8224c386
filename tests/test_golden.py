"""Byte-level regression pins for the determinism contract.

The digests are SHA-256 over the concatenated outputs of ``emit_report``
for the released seed 12358 and the four after it, with one worker.  Any
change to sampling, classification or formatting that moves a published
count or a dumped record moves a digest.
"""

import hashlib

from canex.experiment import ExperimentConfig, emit_report, run_experiment

SEEDS = range(12358, 12363)

# CSV text (header and row) for n = 25 then n = 100, each seed in turn,
# 2000 samples per run, no dump.
CSV_SHA256 = "a6c330fa5bb14bb4bf23aabbfae1e07764100e0763c53642bc930f2be77bd2cb"
# JSONL dump bytes at n = 25, 300 samples per run, each seed in turn.
JSONL_SHA256 = "86129ddb5212eda03b7f03cc8fec6ef36427e89524db3d3c186a50e6d33be275"


def test_csv_rows():
    digest = hashlib.sha256()
    for n in (25, 100):
        for seed in SEEDS:
            report = run_experiment(ExperimentConfig(n=n, count=2000, seed=seed))
            digest.update(emit_report(report).encode())
    assert digest.hexdigest() == CSV_SHA256


def test_jsonl_dump(tmp_path):
    digest = hashlib.sha256()
    for seed in SEEDS:
        path = tmp_path / f"{seed}.jsonl"
        report = run_experiment(ExperimentConfig(n=25, count=300, seed=seed,
                                                 dump_jsonl=str(path)))
        emit_report(report, dump_jsonl=str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == JSONL_SHA256
