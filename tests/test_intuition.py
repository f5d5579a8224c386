import itertools
import time

import pytest
from conftest import evaluate, left_chain, spine, terms_up_to_20_vars
from hypothesis import given, strategies as st

from canex import intuition
from canex.classical import CERT_ANTILOGY, TAUTOLOGY, tautology_status
from canex.experiment import classify
from canex.intuition import cheap_verdict, clean, is_minor, is_mp, is_simple
from canex.reference import enumerate_canonical, prove_intuitionistic, \
    truth_table_tautology
from canex.sampling import random_canonical, stream_for_sample
from canex.terms import (canonical_form, distinct_vars, leaf_count, parse,
                         render, term_filters)

PEIRCE = parse("((a0->a1)->a0)->a0")

# A term met during cleaning (not canonical): the top spine carries both the
# bare variable a28 and the premise a28->a0 with goal a0.
MP_CLEANED_TEXT = ("a28->(a22->(a26->(a14->a2)->(a11->a8))->a28)"
                   "->(a28->a9->a13)->a14->(a28->a0)->a0")


def verdict_of(term):
    """``cheap_verdict`` given what ``classify`` reads once and hands it."""
    return cheap_verdict(term, clean(term), is_simple(term))


# References: the spine()-based patterns and the hashing is_minor that the
# in-place walks replaced.  The tests below check that they agree.

def reference_is_simple(term):
    premises, goal = spine(term)
    return any(p == goal for p in premises if isinstance(p, int))


def reference_is_mp(term):
    premises, goal = spine(term)
    variables = {p for p in premises if isinstance(p, int)}
    return any(
        isinstance(p, tuple) and p[1] == goal
        and isinstance(p[0], int) and p[0] in variables
        for p in premises)


def reference_is_minor(term):
    seen = set()
    node = term
    while isinstance(node, tuple):
        seen.add(node[0])
        node = node[1]
        if node in seen:
            return True
    return False


def is_easy(term):
    return is_simple(term) or is_mp(term)


def reference_clean(term):
    """The node-by-node clean that tests is_easy on every compound left child."""
    done = []
    work = [term]
    while work:
        node = work.pop()
        if node is None:  # both children are cleaned: join them
            node = work.pop()
            right = done.pop()
            left = done.pop()
            if isinstance(left, tuple) and is_easy(left):
                done.append(right)
            elif left is node[0] and right is node[1]:
                done.append(node)
            else:
                done.append((left, right))
        elif isinstance(node, int):
            done.append(node)
        else:
            work += (node, None, node[1], node[0])
    return done[0]


def assert_matches_references(term):
    # The top spine and every premise met below it, on the raw term and on
    # the cleaned one: the spines that clean and the cascade read.
    work = [term]
    while work:
        node = work.pop()
        if isinstance(node, tuple):
            assert is_simple(node) == reference_is_simple(node), render(node)
            assert is_mp(node) == reference_is_mp(node), render(node)
            assert is_minor(node) == reference_is_minor(node), render(node)
            work += node


class TestSimple:
    def test_goal_among_premises(self):
        assert is_simple(parse("a1->a0->a0"))

    def test_peirce_not_simple(self):
        assert not is_simple(PEIRCE)
        assert not is_simple(parse("((a1->a0)->a1)->a1", canonical=False))

    def test_bare_variable(self):
        assert not is_simple(parse("a0"))

    def test_compound_premise_equal_to_goal_side(self):
        # The premise must be the goal variable itself, not merely end in it.
        assert not is_simple(parse("(a1->a0)->a0"))


class TestMP:
    def test_direct_modus_ponens(self):
        assert is_mp(parse("(a1->a0)->a1->a0"))

    def test_cleaned_example_from_experiments(self):
        term = parse(MP_CLEANED_TEXT, canonical=False)
        premises, goal = spine(term)
        assert goal == 0
        assert 28 in premises and (28, 0) in premises
        assert is_mp(term)

    def test_two_leaves_not_mp(self):
        assert not is_mp(parse("a1->a0"))

    def test_premise_order_insensitive(self):
        assert is_mp(parse("a1->(a1->a0)->a0"))

    def test_nested_spines_not_searched(self):
        # The v premise sits inside another premise, not on the top spine.
        assert not is_mp(parse("((a1->a0)->a1->a0)->a0", canonical=False))

    def test_compound_pattern_not_mp(self):
        term = parse("((a1->a0)->a0)->(a1->a0)->a0")
        assert not is_mp(term)


class TestEasy:
    def test_simple_is_easy(self):
        assert is_easy(parse("a1->a0->a0"))

    def test_mp_is_easy(self):
        assert is_easy(parse("(a1->a0)->a1->a0"))

    def test_peirce_not_easy(self):
        assert not is_easy(PEIRCE)
        assert not prove_intuitionistic(PEIRCE)


class TestClean:
    def test_inner_easy_premise_removed(self):
        term = parse("((a0->a0)->a1)->a1", canonical=False)
        cleaned = clean(term)
        assert cleaned == parse("a1->a1", canonical=False)
        assert prove_intuitionistic(term) and prove_intuitionistic(cleaned)

    def test_peirce_unchanged(self):
        assert clean(PEIRCE) == PEIRCE

    def test_leaf_fixpoint(self):
        assert clean(0) == 0

    def test_idempotent_and_never_grows(self):
        # clean is a single pass, so idempotence is the fixpoint claim.
        sampled = [random_canonical(stream_for_sample(9, i), n)
                   for n in (100, 300) for i in range(300)]
        exhaustive = (t for n in range(1, 7) for t in enumerate_canonical(n))
        for term in itertools.chain(exhaustive, sampled):
            cleaned = clean(term)
            assert leaf_count(cleaned) <= leaf_count(term)
            assert clean(cleaned) == cleaned

    def test_preserves_provability_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                assert prove_intuitionistic(term) == prove_intuitionistic(clean(term))

    @staticmethod
    def assert_matches_reference_clean(term):
        expected = reference_clean(term)
        cleaned = clean(term)
        assert cleaned == expected, render(term)
        assert (cleaned is term) == (expected is term), render(term)

    def test_matches_reference_exhaustive(self):
        for n in range(1, 8):
            for term in enumerate_canonical(n):
                self.assert_matches_reference_clean(term)

    @pytest.mark.parametrize("n, count", [(100, 600), (300, 300), (1000, 150)])
    def test_matches_reference_sampled(self, n, count):
        for i in range(count):
            self.assert_matches_reference_clean(random_canonical(stream_for_sample(31, i), n))

    def test_reads_each_spine_once(self, monkeypatch):
        # Simple comes up the walk, and is_mp runs only on a cleaned premise
        # that has a premise v -> goal of its own: rarely, not once per
        # compound premise.
        calls = []

        def refuse(term):
            raise AssertionError("is_simple walked a spine clean had read")

        def counted(term):
            calls.append(term)
            return is_mp(term)

        monkeypatch.setattr(intuition, "is_simple", refuse)
        monkeypatch.setattr(intuition, "is_mp", counted)
        per_term = []
        for i in range(200):
            term = random_canonical(stream_for_sample(4242, i), 1000)
            before = len(calls)
            clean(term)
            per_term.append(len(calls) - before)
        assert max(per_term) <= 10
        assert sum(per_term) <= 2 * len(per_term)

    @pytest.mark.parametrize("shape", ["left chain", "right spine"])
    def test_deep_inputs(self, shape):
        # 10^5 levels either way; texts are compared, since == on deep tuples
        # recurses.
        if shape == "left chain":
            term = left_chain(10 ** 5)
        else:
            term = 0
            for i in range(10 ** 5):
                term = (i % 7 + 1, term)
        cleaned, expected = clean(term), reference_clean(term)
        assert render(cleaned) == render(expected)
        assert (cleaned is term) == (expected is term)
        # Neither spine has a premise with the goal a0 as its goal.
        assert term_filters(term) == term_filters(cleaned) == (False, True, True)
        assert tautology_status(term, cleaned).certificate == CERT_ANTILOGY


class TestMinor:
    def test_premise_equals_tail(self):
        assert is_minor(parse("a2->(a1->a0)->a1->a0"))

    def test_simple_case(self):
        assert is_minor(parse("a1->a0->a0"))

    def test_two_leaves(self):
        assert not is_minor(parse("a1->a0"))

    def test_simple_implies_minor_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if is_simple(term):
                    assert is_minor(term)

    def test_premise_equal_to_a_deep_tail(self):
        # (D -> a0) -> D -> a0 with D 2000 deep; the two copies of D are
        # distinct objects, so the comparison walks all of D.
        chain = left_chain(2000)
        term = parse(render(canonical_form(((chain, 0), (chain, 0)))))
        assert term[0][0] is not term[1][0]
        assert is_minor(term) and not is_simple(term)

    def test_deep_near_miss(self):
        # The premise and the tail agree down to their innermost leaf.
        premise, tail = left_chain(2000, start=1), left_chain(2000, start=2)
        term = parse(render(canonical_form(((premise, 0), (tail, 0)))))
        assert not is_minor(term)
        assert not verdict_of(term).minor_after_clean

    def test_linear_in_the_spine(self):
        # 10^5 premises a1 -> a0 before a0: each is compared with one tail.
        term = 0
        for _ in range(10 ** 5):
            term = ((1, 0), term)
        started = time.perf_counter()
        assert not is_minor(term)
        assert not verdict_of(term).cheap
        assert time.perf_counter() - started < 5.0


class TestMatchesReferences:
    def test_exhaustive_raw_and_cleaned(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                assert_matches_references(term)
                assert_matches_references(clean(term))

    @pytest.mark.parametrize("n, count", [(25, 1000), (100, 800), (300, 400), (1000, 200)])
    def test_sampled_raw_and_cleaned(self, n, count):
        for i in range(count):
            term = random_canonical(stream_for_sample(4242, i), n)
            assert_matches_references(term)
            assert_matches_references(clean(term))


class TestCheap:
    def test_cleaned_to_simple(self):
        term = parse("((a0->a0)->a1)->a1", canonical=False)
        verdict = verdict_of(term)
        assert verdict.cheap
        assert verdict.cleaned == parse("a1->a1", canonical=False)
        assert verdict.cleaned_size == 2
        assert prove_intuitionistic(term)

    def test_cleaned_size_is_counted_when_read(self, monkeypatch):
        calls = []

        def counting_leaf_count(term):
            calls.append(term)
            return leaf_count(term)

        monkeypatch.setattr(intuition, "leaf_count", counting_leaf_count)
        verdict = verdict_of(parse("((a0->a0)->a1)->a1", canonical=False))
        assert calls == []
        assert verdict.cleaned_size == 2
        assert len(calls) == 1

    def test_peirce_not_cheap(self):
        verdict = verdict_of(PEIRCE)
        assert not verdict.cheap
        assert verdict.cleaned == PEIRCE
        assert not prove_intuitionistic(PEIRCE)

    def test_simple_is_cheap(self):
        verdict = verdict_of(parse("a1->a0->a0"))
        assert verdict.cheap and verdict.simple

    def test_cascade_monotone_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                verdict = verdict_of(term)
                assert verdict.easy == (verdict.simple or verdict.mp)
                if verdict.simple:
                    assert verdict.easy
                if verdict.easy:
                    assert verdict.cheap
                if verdict.minor_after_clean:
                    assert verdict.cheap


@given(terms_up_to_20_vars(), st.lists(st.booleans(), min_size=20, max_size=20))
def test_clean_preserves_truth(term, bits):
    cleaned = clean(term)
    valuation = dict(enumerate(bits))
    assert evaluate(cleaned, valuation) == evaluate(term, valuation)
    assert distinct_vars(cleaned) <= distinct_vars(term)
    assert truth_table_tautology(cleaned) == truth_table_tautology(term)


@given(terms_up_to_20_vars(max_leaves=20))
def test_clean_preserves_provability_and_cheap_is_provable(term):
    provable = prove_intuitionistic(term)
    assert prove_intuitionistic(clean(term)) == provable
    if verdict_of(term).cheap:
        assert provable


class TestExactShare:
    # (terms, tautologies, cheap, intuitionistic) over every canonical term of
    # each size.  Intuitionistic counts the cheap tautologies and the others
    # the reference prover proves after cleaning.  Exact references for the
    # sampled share at larger n.
    EXPECTED = {4: (75, 25, 24, 24), 5: (728, 206, 195, 201),
                6: (8526, 2298, 2114, 2201), 7: (115764, 28504, 26084, 27406)}

    def test_counts_by_enumeration(self):
        for n, expected in self.EXPECTED.items():
            terms = tautologies = cheap = intuitionistic = 0
            for term in enumerate_canonical(n):
                cls = classify(term)
                terms += 1
                cheap += cls.verdict.cheap
                if cls.taut.status == TAUTOLOGY:
                    tautologies += 1
                    intuitionistic += (cls.verdict.cheap
                                       or prove_intuitionistic(cls.verdict.cleaned))
                else:
                    assert not cls.verdict.cheap
            assert (terms, tautologies, cheap, intuitionistic) == expected
