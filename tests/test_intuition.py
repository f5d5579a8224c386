import itertools

import pytest

from canex.counting import stam_table
from canex.intuition import (cheap_verdict, clean, is_cheap, is_easy, is_minor,
                             is_mp, is_simple)
from canex.reference import enumerate_canonical, prove_intuitionistic
from canex.sampling import random_canonical, stream_for_sample
from canex.terms import leaf_count, parse, spine

PEIRCE = parse("((a0->a1)->a0)->a0")

# A term met during cleaning (not canonical): the top spine carries both the
# bare variable a28 and the premise a28->a0 with goal a0.
MP_CLEANED_TEXT = ("a28->(a22->(a26->(a14->a2)->(a11->a8))->a28)"
                   "->(a28->a9->a13)->a14->(a28->a0)->a0")


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

    def test_compound_pattern_only_with_flag(self):
        term = parse("((a1->a0)->a0)->(a1->a0)->a0")
        assert not is_mp(term)
        assert is_mp(term, include_compound=True)


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
        sampled = [random_canonical(stream_for_sample(9, i), n, stam_table(n))
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


class TestCheap:
    def test_cleaned_to_simple(self):
        term = parse("((a0->a0)->a1)->a1", canonical=False)
        verdict = cheap_verdict(term)
        assert verdict.cheap
        assert verdict.cleaned == parse("a1->a1", canonical=False)
        assert verdict.cleaned_size == 2
        assert prove_intuitionistic(term)

    def test_peirce_not_cheap(self):
        verdict = cheap_verdict(PEIRCE)
        assert not verdict.cheap
        assert verdict.cleaned == PEIRCE
        assert not prove_intuitionistic(PEIRCE)

    def test_simple_is_cheap(self):
        verdict = cheap_verdict(parse("a1->a0->a0"))
        assert verdict.cheap and verdict.simple

    def test_is_cheap_shortcut(self):
        assert is_cheap(parse("a1->a0->a0"))
        assert not is_cheap(PEIRCE)

    def test_cascade_monotone_exhaustive(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                verdict = cheap_verdict(term)
                assert verdict.easy == (verdict.simple or verdict.mp)
                if verdict.simple:
                    assert verdict.easy
                if verdict.easy:
                    assert verdict.cheap
                if verdict.minor_after_clean:
                    assert verdict.cheap

    def test_verdict_dict_keys(self):
        verdict = cheap_verdict(parse("a1->a0->a0"))
        assert set(verdict.as_dict()) == {
            "simple", "mp", "easy", "minorAfterClean", "cheap", "cleanedSize"}
