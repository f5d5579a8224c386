import itertools

import pytest

from canex.classical import (CERT_ANTILOGY, CERT_VALUATION, NOT_TAUTOLOGY,
                             TAUTOLOGY, UNKNOWN, _full_witness,
                             antilogy_valuation,
                             collapse_high_vars, evaluate, falsify_search,
                             is_simple_antilogy, is_simple_non_tautology,
                             tautology_status)
from canex.counting import stam_table
from canex.intuition import clean
from canex.reference import enumerate_canonical, prove_intuitionistic, \
    truth_table_tautology
from canex.sampling import random_canonical, stream_for_sample
from canex.terms import distinct_vars, leaf_vars, parse

PEIRCE = parse("((a0->a1)->a0)->a0")


def all_valuations(term):
    variables = sorted(distinct_vars(term))
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


class TestEvaluate:
    def test_identity_always_true(self):
        term = parse("a0->a0")
        assert all(evaluate(term, rho) for rho in all_valuations(term))

    def test_peirce_all_four(self):
        assert all(evaluate(PEIRCE, rho) for rho in all_valuations(PEIRCE))

    def test_two_variable_falsified(self):
        assert evaluate(parse("a1->a0"), {0: False, 1: True}) is False

    def test_missing_variable(self):
        with pytest.raises(ValueError):
            evaluate(parse("a1->a0"), {0: False})


class TestSimpleAntilogy:
    def test_premise_with_other_goal(self):
        term = parse("a1->a0")
        assert is_simple_antilogy(term)
        assert evaluate(term, {0: False, 1: True}) is False

    def test_bare_variable_vacuous(self):
        assert is_simple_antilogy(parse("a0"))

    def test_simple_premise_with_same_goal(self):
        term = parse("(a1->a0->a0)->a0")
        assert is_simple_antilogy(term)
        assert evaluate(term, {0: False, 1: True}) is False

    def test_theorem_is_not_antilogy(self):
        assert not is_simple_antilogy(parse("a1->a0->a0"))
        assert not is_simple_antilogy(PEIRCE)

    def test_soundness_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if is_simple_antilogy(term):
                    assert evaluate(term, antilogy_valuation(term)) is False
                    assert not truth_table_tautology(term)


class TestAntilogyWitness:
    @pytest.mark.parametrize("n", [25, 100])
    def test_raw_valuation_equals_cleaned_one_filled(self, n):
        # The witness is the raw term's antilogy valuation; it must equal the
        # cleaned term's valuation filled with True on the dropped variables.
        table = stam_table(n)
        antilogies = 0
        for i in range(300):
            term = random_canonical(stream_for_sample(12358, i), n, table)
            status = tautology_status(term)
            if status.certificate != CERT_ANTILOGY:
                continue
            antilogies += 1
            assert status.witness == _full_witness(term, antilogy_valuation(clean(term)))
            assert evaluate(term, status.witness) is False
        assert antilogies > 100


class TestSimpleNonTautology:
    def test_examples(self):
        assert is_simple_non_tautology(parse("a1->a0"))
        assert not is_simple_non_tautology(parse("(a1->a0->a0)->a0"))
        assert not is_simple_non_tautology(parse("a1->a0->a0"))

    def test_subset_of_antilogies_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if is_simple_non_tautology(term):
                    assert is_simple_antilogy(term)


class TestCollapse:
    def test_indices_above_bound_merge(self):
        # Chain over indices 0..40; everything above 31 becomes 31.
        term = parse("->".join(f"a{i}" for i in range(40, -1, -1)), canonical=False)
        collapsed = collapse_high_vars(term, 31)
        assert max(leaf_vars(collapsed)) == 31
        assert leaf_vars(collapsed) == [min(i, 31) for i in range(40, -1, -1)]

    def test_unchanged_when_within_bound(self):
        term = parse("a1->a0->a0")
        assert collapse_high_vars(term, 5) is term

    def test_falsifier_lifts(self):
        term = parse("a2->a1->a0", canonical=False)
        collapsed = collapse_high_vars(term, 1)
        found = falsify_search(collapsed)
        assert found is not None
        lifted = {v: found.get(min(v, 1), True) for v in distinct_vars(term)}
        assert evaluate(term, lifted) is False

    def test_tautology_preserved_downward_exhaustive(self):
        # Collapsing merges variables, and merged instances of tautologies
        # stay tautologies.
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if truth_table_tautology(term):
                    for bound in (0, 1, 2):
                        assert truth_table_tautology(collapse_high_vars(term, bound))

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            collapse_high_vars(parse("a0"), -1)


class TestFalsifySearch:
    def test_peirce_none(self):
        assert falsify_search(PEIRCE) is None

    def test_two_variable_witness(self):
        found = falsify_search(parse("a1->a0"))
        assert found == {0: False, 1: True}

    def test_agreement_with_truth_table_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                found = falsify_search(term)
                assert (found is None) == truth_table_tautology(term)
                if found is not None:
                    total = {v: found.get(v, True) for v in distinct_vars(term)}
                    assert evaluate(term, total) is False


class TestTautologyStatus:
    def test_peirce(self):
        status = tautology_status(PEIRCE)
        assert status.status == TAUTOLOGY
        assert status.is_tautology

    def test_antilogy_certificate(self):
        status = tautology_status(parse("a1->a0"))
        assert status.status == NOT_TAUTOLOGY
        assert status.certificate == CERT_ANTILOGY
        assert evaluate(parse("a1->a0"), status.witness) is False

    def test_brute_forced_example(self):
        term = parse("(a0->a1)->(a1->a0)->a0")
        oracle = truth_table_tautology(term)
        status = tautology_status(term)
        assert status.is_tautology == oracle
        if status.status == NOT_TAUTOLOGY:
            assert evaluate(term, status.witness) is False

    def test_pipeline_matches_oracle_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                status = tautology_status(term, 32)
                assert status.status != UNKNOWN
                assert status.is_tautology == truth_table_tautology(term)
                if status.status == NOT_TAUTOLOGY:
                    assert evaluate(term, status.witness) is False
                    assert set(status.witness) == distinct_vars(term)

    def test_cleaning_cannot_hide_a_falsifier(self):
        # A dropped premise is a theorem, so the witness found on the cleaned
        # term falsifies the original too.
        term = parse("((a0->a0)->a1->a0)->a0", canonical=False)
        cleaned = clean(term)
        assert cleaned == parse("(a1->a0)->a0")
        status = tautology_status(term)
        assert status.status == NOT_TAUTOLOGY
        assert status.certificate == CERT_VALUATION
        assert evaluate(term, status.witness) is False

    def test_unknown_on_wide_tautology(self):
        # Simple, hence a tautology, but 6 distinct variables exceed
        # max_vars=4 and the collapsed search cannot falsify it.
        term = parse("a5->a4->a3->a2->a1->a0->a0", canonical=False)
        status = tautology_status(term, max_vars=4)
        assert status.status == UNKNOWN
        assert status.reason

    def test_wide_non_tautology_refuted_through_collapse(self):
        chain = "->".join(f"a{i}" for i in range(9, 1, -1))
        term = parse(f"(a1->a0)->{chain}->a0", canonical=False)
        assert not truth_table_tautology(term)
        status = tautology_status(term, max_vars=4)
        assert status.status == NOT_TAUTOLOGY
        assert status.certificate == CERT_VALUATION
        assert evaluate(term, status.witness) is False

    def test_logic_hierarchy_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if prove_intuitionistic(term):
                    assert tautology_status(term).is_tautology

    def test_max_vars_validation(self):
        with pytest.raises(ValueError):
            tautology_status(parse("a0"), 0)
