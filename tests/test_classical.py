import itertools

import pytest
from conftest import ScriptedDraws, left_chain, terms_up_to_20_vars
from hypothesis import given, strategies as st

from canex import classical
from canex.classical import (CERT_ANTILOGY, CERT_VALUATION, NOT_TAUTOLOGY,
                             SEARCH_BUDGET, TAUTOLOGY, UNKNOWN,
                             SearchBudgetExceeded, antilogy_valuation,
                             evaluate, falsify_search, is_simple_antilogy,
                             is_simple_non_tautology, tautology_status)
from canex.intuition import clean, is_simple
from canex.reference import enumerate_canonical, prove_intuitionistic, \
    truth_table_tautology
from canex.sampling import (random_canonical, random_partition,
                            random_tree_vector, stream_for_sample)
from canex.terms import (canonicalize, decode_labelled_vector, distinct_vars,
                         leaf_count, parse, spine_filters)

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

    def test_hundred_thousand_deep_left_chain(self):
        # ((a0->a0)->a0)->...: the innermost implication is true and each
        # further level negates, as its conclusion a0 is false.
        term = 0
        for _ in range(10 ** 5):
            term = (term, 0)
        assert evaluate(term, {0: False}) is False
        assert evaluate((term, 0), {0: False}) is True
        assert evaluate(term, {0: True}) is True


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


def insertion_vectors(n):
    """Every insertion vector of an n-leaf tree: one per sequence of accepted draws."""
    bounds = [range(4 * size - 2) for size in range(1, n)]
    return [random_tree_vector(ScriptedDraws(xs), n) for xs in itertools.product(*bounds)]


def built_filters(vector, labels):
    """The three spine filters on the term the sampler builds from ``labels``."""
    term = decode_labelled_vector(vector, canonicalize(labels))
    return is_simple(term), is_simple_antilogy(term), is_simple_non_tautology(term)


class TestSpineFilters:
    """``spine_filters`` on the vector and raw labels, against the built term."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_vector_and_growth_string(self, n):
        growths = sorted(set(map(canonicalize, itertools.product(range(n), repeat=n))))
        vectors = insertion_vectors(n)
        assert len(vectors) == len(set(map(tuple, vectors)))
        for vector in vectors:
            for growth in growths:
                expected = built_filters(vector, growth)
                m = max(growth) + 1
                # The same partition under other class names: reversed with
                # gaps, and rotated onto negative names.
                reversed_gapped = [10 * (m - c) + 3 for c in growth]
                rotated = [-7 * ((c + 1) % m) - 1 for c in growth]
                assert spine_filters(vector, growth) == expected
                assert spine_filters(vector, reversed_gapped) == expected
                assert spine_filters(vector, rotated) == expected

    def test_every_vector_at_six(self):
        labels = [[0] * 6, list(range(6))] + [
            list(random_partition(stream_for_sample(6, i), 6).labels) for i in range(3)]
        vectors = insertion_vectors(6)
        assert len(vectors) == 2 * 6 * 10 * 14 * 18
        for vector in vectors:
            for raw in labels:
                assert spine_filters(vector, raw) == built_filters(vector, raw)

    @pytest.mark.parametrize("n,count", [(7, 1500), (25, 800), (100, 400), (300, 150),
                                         (1000, 40), (3000, 12)])
    def test_sampled_raw_labels(self, n, count):
        # The term built from the growth string is random_canonical's.
        for i in range(count):
            rng = stream_for_sample(2718, i)
            vector = random_tree_vector(rng, n)
            labels = random_partition(rng, n).labels
            term = decode_labelled_vector(vector, canonicalize(labels))
            assert term == random_canonical(stream_for_sample(2718, i), n)
            assert spine_filters(vector, labels) == (
                is_simple(term), is_simple_antilogy(term), is_simple_non_tautology(term))

    def test_label_count_must_fit_the_vector(self):
        with pytest.raises(ValueError):
            spine_filters([1, 2, 0], [0])


@st.composite
def vectors_and_labels(draw, max_leaves=40):
    """An insertion vector from drawn insertions, and labels from four names."""
    n = draw(st.integers(1, max_leaves))
    draws = [draw(st.integers(0, 4 * size - 3)) for size in range(1, n)]
    labels = draw(st.lists(st.sampled_from([0, 5, -2, 9]), min_size=n, max_size=n))
    return random_tree_vector(ScriptedDraws(draws), n), labels


@given(vectors_and_labels())
def test_spine_filters_agree_with_the_built_term(case):
    vector, labels = case
    assert spine_filters(vector, labels) == built_filters(vector, labels)


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
            cleaned_valuation = antilogy_valuation(clean(term))
            assert status.witness == {v: cleaned_valuation.get(v, True)
                                      for v in distinct_vars(term)}
            assert evaluate(term, status.witness) is False
        assert antilogies > 100


def eager_witness(term):
    """The witness as ``tautology_status`` once built it for every status.

    The raw term's antilogy valuation for an antilogy, the search's assignment
    filled with True for a refutation, and None otherwise.
    """
    cleaned = clean(term)
    if is_simple_antilogy(cleaned):
        return antilogy_valuation(term)
    try:
        found = falsify_search(cleaned)
    except SearchBudgetExceeded:
        return None
    if found is None:
        return None
    return {v: bool(found.get(v, True)) for v in distinct_vars(term)}


class TestLazyWitness:
    def test_built_only_when_read(self, monkeypatch):
        term = random_canonical(stream_for_sample(9191, 0), 1000)
        calls = []

        def counting_distinct_vars(t):
            calls.append(t)
            return distinct_vars(t)

        monkeypatch.setattr(classical, "distinct_vars", counting_distinct_vars)
        status = tautology_status(term)
        assert status.certificate == CERT_ANTILOGY
        assert calls == []
        witness = status.witness
        assert len(calls) == 1
        assert witness == antilogy_valuation(term)

    def test_deep_status_compares_and_prints(self):
        # Two equal chains that are distinct objects: tuple equality on them
        # would raise RecursionError, so the status must not compare terms.
        status = tautology_status(left_chain(3000))
        assert status.certificate == CERT_ANTILOGY
        assert status == status == tautology_status(left_chain(3000))
        assert "antilogy" in repr(status)
        hash(status)

    def test_matches_eager_builder_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                assert tautology_status(term).witness == eager_witness(term)

    @pytest.mark.parametrize("n,count", [(25, 600), (100, 400), (1000, 60)])
    def test_matches_eager_builder_sampled(self, n, count):
        refuted = 0
        for i in range(count):
            term = random_canonical(stream_for_sample(4242, i), n)
            status = tautology_status(term)
            refuted += status.certificate == CERT_VALUATION
            assert status.witness == eager_witness(term)
        assert n == 1000 or refuted > 0


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


def recursive_search(term):
    """The recursive tableau that falsify_search's loop replaced: the oracle.

    Returns the falsifier it finds (or None) and the choice points it tried.
    It has no budget and recurses once per deferred implication, so callers
    give it only inputs it decides quickly.
    """
    rho = {}
    calls = 0

    def attempt(pending):
        nonlocal calls
        calls += 1
        trail = []
        stack = list(pending)
        deferred = []
        while stack:
            sign, node = stack.pop()
            if isinstance(node, int):
                known = rho.get(node)
                if known is None:
                    rho[node] = sign
                    trail.append(node)
                elif known is not sign:
                    for v in trail:
                        del rho[v]
                    return False
            elif sign:
                deferred.append(node)
            else:
                stack.append((True, node[0]))
                stack.append((False, node[1]))
        if deferred:
            first, rest = deferred[0], deferred[1:]
            rest_true = [(True, node) for node in rest]
            if attempt(rest_true + [(True, first[1])]):
                return True
            if attempt(rest_true + [(False, first[0])]):
                return True
            for v in trail:
                del rho[v]
            return False
        return True

    found = dict(rho) if attempt([(False, term)]) else None
    return found, calls


def sampled_search_inputs(n, count, seed=4242):
    """Cleaned samples that the antilogy filter leaves to the search."""
    cleaned = (clean(random_canonical(stream_for_sample(seed, i), n))
               for i in range(count))
    return [c for c in cleaned if not is_simple_antilogy(c)]


class TestSearchMatchesRecursiveReference:
    """Same witness, in the same order, after the same number of choice points."""

    @staticmethod
    def assert_same_search(term, monkeypatch):
        expected, calls = recursive_search(term)
        found = falsify_search(term)
        assert found == expected
        if found is not None:
            assert list(found.items()) == list(expected.items())
        monkeypatch.setattr(classical, "SEARCH_BUDGET", calls)
        assert falsify_search(term) == expected
        monkeypatch.setattr(classical, "SEARCH_BUDGET", calls - 1)
        with pytest.raises(SearchBudgetExceeded):
            falsify_search(term)
        monkeypatch.undo()

    def test_exhaustive_raw_and_cleaned(self, monkeypatch):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                self.assert_same_search(term, monkeypatch)
                self.assert_same_search(clean(term), monkeypatch)

    @pytest.mark.parametrize("n,count", [(25, 600), (100, 1000), (300, 800)])
    def test_sampled_search_inputs(self, n, count, monkeypatch):
        inputs = sampled_search_inputs(n, count)
        assert len(inputs) > 20
        for term in inputs:
            self.assert_same_search(term, monkeypatch)


class TestTautologyStatus:
    def test_peirce(self):
        status = tautology_status(PEIRCE)
        assert status.status == TAUTOLOGY

    def test_antilogy_certificate(self):
        status = tautology_status(parse("a1->a0"))
        assert status.status == NOT_TAUTOLOGY
        assert status.certificate == CERT_ANTILOGY
        assert evaluate(parse("a1->a0"), status.witness) is False

    def test_brute_forced_example(self):
        term = parse("(a0->a1)->(a1->a0)->a0")
        oracle = truth_table_tautology(term)
        status = tautology_status(term)
        assert (status.status == TAUTOLOGY) == oracle
        if status.status == NOT_TAUTOLOGY:
            assert evaluate(term, status.witness) is False

    def test_pipeline_matches_oracle_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                status = tautology_status(term)
                assert status.status != UNKNOWN
                assert (status.status == TAUTOLOGY) == truth_table_tautology(term)
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
                    assert tautology_status(term).status == TAUTOLOGY


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


@given(terms_up_to_20_vars())
def test_search_agrees_with_truth_table(term):
    oracle = truth_table_tautology(term)
    found = falsify_search(term)
    assert (found is None) == oracle
    if found is not None:
        assert evaluate(term, {v: found.get(v, True) for v in distinct_vars(term)}) is False
    status = tautology_status(term)
    assert status.status != UNKNOWN
    assert (status.status == TAUTOLOGY) == oracle
    if status.status == NOT_TAUTOLOGY:
        assert evaluate(term, status.witness) is False
