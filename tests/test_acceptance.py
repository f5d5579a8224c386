"""Release acceptance gate.

Each test prints one `[acceptance] ...: PASS/FAIL` line (run with `-s` to see
them live).  Reference figures that are internally inconsistent with the exact
combinatorics are asserted as published and are expected to fail; the
accompanying comments state the exact values.  Everything here is driven by
the released default seed.
"""

import math
import subprocess
import sys
import time

import pytest
from conftest import antilogy_valuation, evaluate, random_tree, simple_rate

from canex.classical import falsify_search
from canex.counting import count_canonical, log10_count_estimate
from canex.experiment import DEFAULT_SEED, ExperimentConfig, run_experiment
from canex.intuition import cheap_verdict, clean, is_simple
from canex.reference import (chi_square, enumerate_canonical,
                             prove_intuitionistic, truth_table_tautology)
from canex.sampling import (random_canonical, random_partition, stream_for_sample,
                            to_growth_string)
from canex.terms import distinct_vars, term_filters

CHI2_001 = {4: 18.467, 9: 27.877, 14: 36.123}


def check(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# -- 1. exact enumeration counts ---------------------------------------------

def test_criterion_1_enumeration_counts():
    expected = [1, 2, 10, 75, 728, 8526, 115764, 1776060]
    started = time.perf_counter()
    got = [sum(1 for _ in enumerate_canonical(n)) for n in range(1, 9)]
    elapsed = time.perf_counter() - started
    check("1 enumeration counts n=1..8", got == expected,
          f"{got} in {elapsed:.0f}s")
    for n in range(1, 9):
        assert got[n - 1] == count_canonical(n)


# -- 2. asymptotics ------------------------------------------------------------

def test_criterion_2a_estimate_at_100_reference_target():
    # The 168.98 target is inconsistent with the exact count: the product
    # catalan(99) * bell(100) is ~1.083e172 (log10 = 172.03), and the
    # log-domain estimate lands within 0.005 of that.  Asserted as published.
    value = log10_count_estimate(100)
    check("2a log10 estimate at n=100 vs 168.98", abs(value - 168.98) <= 0.01,
          f"estimate {value:.4f}, exact log10 {math.log10(count_canonical(100)):.4f}")


def test_criterion_2b_exact_count_at_100_reference_target():
    # Same inconsistency as 2a: the exact integer rounds to 1.08e172, not
    # 9.62e168.  Asserted as published.
    exact = count_canonical(100)
    check("2b exact count at n=100 rounds to 9.62e168",
          f"{exact:.2e}" == "9.62e+168", f"exact is {exact:.2e}")


def test_criterion_2c_estimate_at_400():
    value = log10_count_estimate(400)
    check("2c log10 estimate at n=400 vs 880.18", abs(value - 880.18) <= 0.01,
          f"estimate {value:.4f}")


def test_criterion_2d_estimate_converges_to_exact():
    def log10_exact(n):
        x = count_canonical(n)
        shift = max(0, x.bit_length() - 600)
        return math.log10(x >> shift) + shift * math.log10(2)

    errors = {n: abs(log10_count_estimate(n) - log10_exact(n))
              for n in (50, 100, 200, 400)}
    ordered = [errors[n] for n in (50, 100, 200, 400)]
    check("2d estimate error shrinks over n=50..400",
          ordered == sorted(ordered, reverse=True) and abs(errors[100] - 0) < 0.01,
          ", ".join(f"n={n}: {e:.5f}" for n, e in errors.items()))


# -- 3. headline ratio ---------------------------------------------------------

HEADLINE_SEEDS = [DEFAULT_SEED + k for k in range(5)]
_headline_cache = {}


def headline_report(seed):
    if seed not in _headline_cache:
        _headline_cache[seed] = run_experiment(
            ExperimentConfig(n=100, count=20000, seed=seed))
    return _headline_cache[seed]


def test_criterion_3_headline_ratio():
    started = time.perf_counter()
    report = headline_report(DEFAULT_SEED)
    fraction = report.n_tautology / report.count
    ok_fraction = abs(fraction - 0.0380) <= 0.005
    ratio = report.ratio_cheap_over_taut
    ok_ratio = ratio >= 0.94
    ratios = [headline_report(seed).ratio_cheap_over_taut for seed in HEADLINE_SEEDS]
    mean_ratio = sum(ratios) / len(ratios)
    ok_mean = 0.95 <= mean_ratio <= 0.98
    elapsed = time.perf_counter() - started
    check("3 tautology fraction at n=100",
          ok_fraction, f"{fraction:.4f} vs 0.0380 +/- 0.005")
    check("3 cheap-over-tautology ratio", ok_ratio, f"{ratio:.4f} >= 0.94")
    check("3 five-seed mean ratio", ok_mean,
          f"{mean_ratio:.4f} in [0.95, 0.98]; seeds took {elapsed:.0f}s total")


# -- 4. restricted-class comparison --------------------------------------------

_gkz_cache = {}


def gkz_report():
    if "report" not in _gkz_cache:
        _gkz_cache["report"] = run_experiment(
            ExperimentConfig(n=100, count=10000, seed=DEFAULT_SEED))
    return _gkz_cache["report"]


def test_criterion_4a_simple_count_reference_target():
    # The 238 +/- 45 target conflicts with the exact simple rate of the
    # uniform model at n=100 (0.033170, expectation ~332 per 10000; verified
    # against exhaustive enumeration at small sizes).  Asserted as published.
    report = gkz_report()
    check("4a simple count in 238 +/- 45", abs(report.n_simple - 238) <= 45,
          f"n_simple={report.n_simple}")


def test_criterion_4b_non_restricted_count_reference_target():
    # Same situation as 4a: the complement of the restricted non-tautology
    # class has an exact rate near 0.094 at n=100 (~940 per 10000), not 685.
    report = gkz_report()
    rest = report.count - report.n_simple_non_taut
    check("4b non-restricted count in 685 +/- 75", abs(rest - 685) <= 75,
          f"count - nGKZ = {rest}")


def test_criterion_4c_ratio_window():
    report = gkz_report()
    check("4c restricted-class ratio in [0.30, 0.42]",
          0.30 <= report.gkz_ratio <= 0.42, f"ratio {report.gkz_ratio:.4f}")


# -- 5. simple-rate table -------------------------------------------------------

RN_TARGETS = {25: 0.2214, 50: 0.1248, 100: 0.0506, 500: 0.0119, 1000: 0.006}
_rn_cache = {}


def rn_rate(n):
    if n not in _rn_cache:
        _rn_cache[n] = simple_rate(n, 10000, DEFAULT_SEED)
    return _rn_cache[n]


@pytest.mark.parametrize("n", sorted(RN_TARGETS))
def test_criterion_5_simple_rate_reference_targets(n):
    # The published column is inconsistent with the exact rates of the
    # uniform model at the smaller sizes (exact values 0.08958 at n=25,
    # 0.05533 at n=50, 0.03317 at n=100, cross-checked by exhaustive
    # enumeration at n <= 8); asserted as published.
    target = RN_TARGETS[n]
    sigma3 = 3 * math.sqrt(target * (1 - target) / 10000)
    rate = rn_rate(n)
    check(f"5 simple rate at n={n}", abs(rate - target) <= sigma3,
          f"rate {rate:.4f} vs {target} +/- {sigma3:.4f}")


def test_criterion_5_ratio_trend():
    ratios = [rn_rate(n) / (math.log(n) / n) for n in sorted(RN_TARGETS)]
    gaps = [abs(1 - r) for r in ratios]
    check("5 rate over log(n)/n approaches 1 monotonically",
          gaps == sorted(gaps, reverse=True),
          ", ".join(f"{r:.3f}" for r in ratios))


# -- 6. classifier soundness ----------------------------------------------------

def _soundness_violations(term):
    verdict = cheap_verdict(term, clean(term), is_simple(term))
    provable = prove_intuitionistic(term)
    cleaned_provable = prove_intuitionistic(verdict.cleaned)
    if len(distinct_vars(term)) <= 20:
        taut = truth_table_tautology(term)
    else:
        taut = falsify_search(term) is None
    out = []
    if verdict.simple and not verdict.easy:
        out.append("simple but not easy")
    if verdict.easy and not verdict.cheap:
        out.append("easy but not cheap")
    if verdict.minor_after_clean and not verdict.cheap:
        out.append("minor after cleaning but not cheap")
    if verdict.cheap and not provable:
        out.append("cheap but unprovable")
    if provable and not taut:
        out.append("provable but falsifiable")
    if term_filters(term)[1]:
        if taut:
            out.append("antilogy but tautology")
        if evaluate(term, antilogy_valuation(term)):
            out.append("antilogy valuation fails to falsify")
    if provable != cleaned_provable:
        out.append("cleaning changed provability")
    return out


def test_criterion_6_soundness_exhaustive_and_sampled():
    started = time.perf_counter()
    violations = []
    for n in range(1, 8):
        for term in enumerate_canonical(n):
            violations.extend(_soundness_violations(term))
        if violations:
            break
    exhaustive_elapsed = time.perf_counter() - started
    for index in range(10000):
        term = random_canonical(stream_for_sample(DEFAULT_SEED, index), 25)
        violations.extend(_soundness_violations(term))
        if violations:
            break
    elapsed = time.perf_counter() - started
    check("6 soundness (sizes <= 7 exhaustive + 10000 size-25 samples)",
          not violations,
          f"{violations[:3] or 'zero violations'}; exhaustive {exhaustive_elapsed:.0f}s, "
          f"total {elapsed:.0f}s")


# -- 7. uniformity ---------------------------------------------------------------

def test_criterion_7_tree_uniformity():
    from canex.reference import all_shapes
    draws = 50000
    bins = {shape: 0 for shape in all_shapes(4)}
    for i in range(draws):
        bins[random_tree(stream_for_sample(DEFAULT_SEED, i), 4)] += 1
    stat = chi_square(list(bins.values()), [draws / 5] * 5)
    check("7 tree shapes n=4 (50000 draws)", stat < CHI2_001[4],
          f"chi2 {stat:.2f} < {CHI2_001[4]}")


def test_criterion_7_partition_uniformity():
    draws = 75000
    bins = {}
    for i in range(draws):
        key = to_growth_string(random_partition(stream_for_sample(DEFAULT_SEED, i), 4))
        bins[key] = bins.get(key, 0) + 1
    assert len(bins) == 15
    stat = chi_square(list(bins.values()), [draws / 15] * 15)
    check("7 partitions n=4 (75000 draws)", stat < CHI2_001[14],
          f"chi2 {stat:.2f} < {CHI2_001[14]}")


def test_criterion_7_joint_uniformity():
    draws = 100000
    population = list(enumerate_canonical(3))
    bins = {term: 0 for term in population}
    for i in range(draws):
        bins[random_canonical(stream_for_sample(DEFAULT_SEED, i), 3)] += 1
    stat = chi_square(list(bins.values()), [draws / 10] * 10)
    check("7 joint expressions n=3 (100000 draws)", stat < CHI2_001[9],
          f"chi2 {stat:.2f} < {CHI2_001[9]}")


# -- 8. determinism ---------------------------------------------------------------

def test_criterion_8_csv_bytes_identical(tmp_path):
    def run(tag, workers):
        out = tmp_path / f"{tag}.csv"
        dump = tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "canex.cli", "experiment", "--n", "100",
             "--count", "400", "--seed", str(DEFAULT_SEED),
             "--workers", str(workers), "--out-csv", str(out),
             "--dump-jsonl", str(dump)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes(), dump.read_bytes()

    csv_w1, dump_w1 = run("w1", 1)
    csv_w4, dump_w4 = run("w4", 4)
    csv_w8, dump_w8 = run("w8", 8)
    csv_again, dump_again = run("w1-again", 1)
    ok = csv_w1 == csv_w4 == csv_w8 == csv_again
    check("8 CSV bytes across workers {1,4,8} and reruns", ok,
          f"{len(csv_w1)} bytes each")
    assert dump_w1 == dump_w4 == dump_w8 == dump_again
