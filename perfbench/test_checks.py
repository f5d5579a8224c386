"""Self-tests of the benchmark's own checkers.

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402


def record(text, **fields):
    term = checks.parse(text)
    base = {"expr": text, "simple": checks.is_simple(term), "mp": checks.is_mp(term),
            "easy": checks.is_simple(term) or checks.is_mp(term), "cheap": False,
            "cleanedSize": len(checks.leaves(term)), "status": "not-tautology",
            "certificate": "valuation", "gkzSimpleNonTaut": checks.is_gkz_simple_non_taut(term)}
    base.update(fields)
    return base, term


def rejects(text, **fields) -> bool:
    rec, term = record(text, **fields)
    try:
        checks.check_verdicts(rec, term, random.Random(0))
    except checks.CheckError:
        return True
    return False


def test_peirce_is_a_tautology_but_not_easy():
    term = checks.parse("((a0->a1)->a0)->a0")
    assert checks.truth_table_tautology(term, 2)
    assert checks.holds_on_random_valuations(term, 2, random.Random(1))
    assert not checks.is_simple(term) and not checks.is_mp(term)
    assert not checks.is_raw_antilogy(term)
    assert not rejects("((a0->a1)->a0)->a0", status="tautology", certificate=None)
    assert rejects("((a0->a1)->a0)->a0", status="not-tautology", cheap=True)


def test_a1_implies_a0_is_an_antilogy():
    term = checks.parse("a1->a0")
    assert checks.is_raw_antilogy(term) and checks.is_gkz_simple_non_taut(term)
    assert not checks.holds_under(term, {0: False, 1: True})
    assert not checks.truth_table_tautology(term, 2)
    assert not rejects("a1->a0", certificate="antilogy")
    assert rejects("a1->a0", status="tautology", certificate=None)


def test_a0_implies_a0_is_simple():
    term = checks.parse("a0->a0")
    assert checks.is_simple(term) and not checks.is_mp(term)
    assert checks.truth_table_tautology(term, 1)
    assert not checks.is_raw_antilogy(term)
    assert not rejects("a0->a0", easy=True, cheap=True, status="tautology", certificate=None)
    assert rejects("a0->a0", simple=False, easy=False, cheap=True, status="tautology",
                   certificate=None)


def test_modus_ponens_pattern():
    assert checks.is_mp(checks.parse("a1->(a1->a0)->a0"))
    assert not checks.is_mp(checks.parse("a1->(a2->a0)->a0"))


def test_antilogy_certificate_must_falsify():
    # Bare goal premise: the goal-false valuation makes the premise false.
    assert rejects("a0->a1->a0", certificate="antilogy", simple=True, easy=True)


def test_exact_simple_rate_matches_enumeration():
    for n in range(1, 8):
        hits, total = checks.brute_force_simple_count(n)
        assert abs(hits / total - checks.exact_simple_rate(n)) < 1e-12, n
    assert checks.brute_force_simple_count(3) == (3, 10)


def test_exact_simple_rate_reference_values():
    assert round(checks.exact_simple_rate(25), 6) == 0.089583
    assert round(checks.exact_simple_rate(100), 6) == 0.033166


def test_class_distribution_sums_to_one():
    for n in (1, 7, 100, 3000):
        assert abs(sum(p for _, p in checks.partition_class_distribution(n)) - 1) < 1e-12


def test_parse_render_round_trip_and_sampler():
    rng = random.Random(5)
    for n in (1, 2, 9, 60):
        classes = checks.partition_class_distribution(n)
        for _ in range(20):
            term = checks.random_term(rng, n, classes)
            labels = checks.leaves(term)
            assert len(labels) == n and checks.is_growth_string(labels)
            assert checks.parse(checks.render(term)) == term


def test_truth_table_agrees_with_random_valuations_on_non_tautologies():
    term = checks.parse("(a2->a1)->a0")
    assert not checks.truth_table_tautology(term, 3)
    assert not checks.holds_on_random_valuations(term, 3, random.Random(2))


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
