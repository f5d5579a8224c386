import itertools

import pytest
from hypothesis import given, strategies as st

from canex.classical import (CERT_ANTILOGY, CERT_VALUATION, NOT_TAUTOLOGY,
                             SEARCH_BUDGET, TAUTOLOGY, UNKNOWN, _full_witness,
                             antilogy_valuation, evaluate, falsify_search,
                             is_simple_antilogy, is_simple_non_tautology,
                             tautology_status)
from canex.intuition import clean
from canex.reference import enumerate_canonical, prove_intuitionistic, \
    truth_table_tautology
from canex.sampling import random_canonical, stream_for_sample
from canex.terms import distinct_vars, leaf_count, parse

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
        antilogies = 0
        for i in range(300):
            term = random_canonical(stream_for_sample(12358, i), n)
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
                status = tautology_status(term)
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

    def test_logic_hierarchy_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if prove_intuitionistic(term):
                    assert tautology_status(term).is_tautology


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes) as a tautology, with variable 0 as falsum.

    Pigeon i sits in hole j when variable 1 + i*holes + j holds.  Premises:
    each pigeon is in some hole, written ~p_i0 -> ... -> ~p_i(h-2) -> p_i(h-1),
    and no hole holds two pigeons, written p_ij -> p_kj -> falsum.
    """
    def p(i, j):
        return 1 + i * holes + j

    premises = []
    for i in range(pigeons):
        clause = p(i, holes - 1)
        for j in reversed(range(holes - 1)):
            clause = ((p(i, j), 0), clause)
        premises.append(clause)
    for j in range(holes):
        for i, k in itertools.combinations(range(pigeons), 2):
            premises.append((p(i, j), (p(k, j), 0)))
    term = 0
    for premise in reversed(premises):
        term = (premise, term)
    return term


WIDE_CHAIN = "->".join(f"a{i}" for i in range(33, 1, -1))


class TestCompleteSearch:
    @pytest.mark.parametrize("text", [WIDE_CHAIN + "->a1->a0->a0",
                                      WIDE_CHAIN + "->((a0->a1)->a0)->a0"])
    def test_wide_tautology(self, text):
        term = parse(text)
        assert len(distinct_vars(term)) == 34
        assert tautology_status(term).status == TAUTOLOGY

    def test_wide_non_tautology_witness(self):
        chain = "->".join(f"a{i}" for i in range(39, 1, -1))
        term = parse(f"(a1->a0)->{chain}->a0", canonical=False)
        assert len(distinct_vars(term)) == 40
        status = tautology_status(term)
        assert status.status == NOT_TAUTOLOGY
        assert status.certificate == CERT_VALUATION
        assert evaluate(term, status.witness) is False

    def test_pigeonhole_within_budget(self):
        assert tautology_status(pigeonhole(4, 3)).status == TAUTOLOGY

    def test_pigeonhole_exhausts_budget(self):
        term = pigeonhole(5, 4)
        assert len(distinct_vars(term)) == 21
        assert leaf_count(term) == 156
        status = tautology_status(term)
        assert status.status == UNKNOWN
        assert str(SEARCH_BUDGET) in status.reason
        assert "budget" in status.reason


@st.composite
def terms_up_to_20_vars(draw):
    """Up to 40 leaves labelled from 20 variables, split at drawn points."""
    size = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 19), min_size=size, max_size=size))

    def build(lo, hi):
        if hi - lo == 1:
            return labels[lo]
        mid = draw(st.integers(lo + 1, hi - 1))
        return (build(lo, mid), build(mid, hi))

    return build(0, len(labels))


@given(terms_up_to_20_vars())
def test_search_agrees_with_truth_table(term):
    oracle = truth_table_tautology(term)
    found = falsify_search(term)
    assert (found is None) == oracle
    if found is not None:
        assert evaluate(term, {v: found.get(v, True) for v in distinct_vars(term)}) is False
    status = tautology_status(term)
    assert status.status != UNKNOWN
    assert status.is_tautology == oracle
    if status.status == NOT_TAUTOLOGY:
        assert evaluate(term, status.witness) is False
