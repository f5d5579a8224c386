"""Byte-level regression pins for the determinism contract.

The digests are SHA-256 over the concatenated outputs of ``emit_report``
(or ``rn_table``) for the released seed 12358 and the four after it, with
one worker.  Any
change to sampling, classification or formatting that moves a published
count or a dumped record moves a digest.
"""

import hashlib

from canex.experiment import ExperimentConfig, emit_report, rn_table, run_experiment
from canex.sampling import random_canonical, stream_for_sample
from canex.terms import render

SEEDS = range(12358, 12363)

# CSV text (header and row) for n = 25 then n = 100, each seed in turn,
# 2000 samples per run, no dump.
CSV_SHA256 = "95b6e1b59b30146252c14096d97e4a3195d358c325c53a4416cc8226b5e6b7e0"
# CSV text of count-only runs at the smallest sizes and at n = 1000, where
# nearly every sample is an antilogy: (n, count) in turn, each seed in turn.
SMALL_AND_LARGE_CSV = ((1, 50), (2, 2000), (3, 2000), (1000, 200))
SMALL_AND_LARGE_CSV_SHA256 = "eace36ee37b4dc2466637b6f1002d91fd424b8eb7eeb17e0a27a6146a320a7b1"
# rn_table text over sizes 2, 3, 25, 100, 1000 and 3000, 60 samples each, for
# each seed in turn, with one worker.
RNTABLE_SIZES = [2, 3, 25, 100, 1000, 3000]
RNTABLE_SHA256 = "71b82f951d990b4b4c058d5094b977f6a4c2e412fd815fca39107fe4fec36604"
# JSONL dump bytes at n = 25, 300 samples per run, each seed in turn.
JSONL_SHA256 = "86129ddb5212eda03b7f03cc8fec6ef36427e89524db3d3c186a50e6d33be275"

# Sampler bytes at seed 4242: for each (n, count) and each i < count, the
# rendered random_canonical(stream_for_sample(4242, i), n) and then the
# stream's next word, so a sample that consumed one word too many or too
# few moves the digest even where the term does not.
SAMPLER_SIZES = ((1, 50), (2, 200), (3, 200), (25, 3000), (100, 2000), (1000, 200),
                 (3000, 40))
SAMPLER_SHA256 = "7a589cda6988461611106cfed1583c4a1ea5dfcf78842fa2d2c4b8faa2082a06"


def test_csv_rows():
    digest = hashlib.sha256()
    for n in (25, 100):
        for seed in SEEDS:
            report = run_experiment(ExperimentConfig(n=n, count=2000, seed=seed))
            digest.update(emit_report(report).encode())
    assert digest.hexdigest() == CSV_SHA256


def test_csv_rows_small_and_large_n():
    digest = hashlib.sha256()
    for n, count in SMALL_AND_LARGE_CSV:
        for seed in SEEDS:
            report = run_experiment(ExperimentConfig(n=n, count=count, seed=seed))
            digest.update(emit_report(report).encode())
    assert digest.hexdigest() == SMALL_AND_LARGE_CSV_SHA256


def test_rn_table():
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(rn_table(RNTABLE_SIZES, 60, seed).encode())
    assert digest.hexdigest() == RNTABLE_SHA256


def test_jsonl_dump(tmp_path):
    digest = hashlib.sha256()
    for seed in SEEDS:
        path = tmp_path / f"{seed}.jsonl"
        report = run_experiment(ExperimentConfig(n=25, count=300, seed=seed,
                                                 dump_jsonl=str(path)))
        emit_report(report, dump_jsonl=str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == JSONL_SHA256


def test_sampler_terms_and_stream_ends():
    digest = hashlib.sha256()
    for n, count in SAMPLER_SIZES:
        for i in range(count):
            rng = stream_for_sample(4242, i)
            digest.update(render(random_canonical(rng, n)).encode())
            digest.update(str(rng.next_u64()).encode())
    assert digest.hexdigest() == SAMPLER_SHA256
