import itertools
import random

import pytest
from conftest import evaluate, spine

from canex.counting import bell, catalan, count_canonical
from canex import reference
from canex.reference import (all_growth_strings, all_shapes, chi_square,
                             enumerate_canonical, prove_intuitionistic,
                             truth_table_tautology)
from canex.terms import (distinct_vars, is_valid_growth_string, leaf_count,
                         leaf_vars, parse, render)

PEIRCE = parse("((a0->a1)->a0)->a0")

# (not tautology, tautology and intuitionistic, tautology only classically),
# frozen from a deterministic enumeration pass; n=2 and n=3 verified by hand.
CLASSIFICATION_TRIPLES = {
    1: (1, 0, 0),
    2: (1, 1, 0),
    3: (7, 3, 0),
    4: (50, 24, 1),
    5: (522, 201, 5),
    6: (6228, 2201, 97),
}


class TestEnumeration:
    def test_counts_match_exact_formula(self):
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_canonical(n)) == count_canonical(n)

    def test_single_expression_at_one(self):
        assert [render(t) for t in enumerate_canonical(1)] == ["a0"]

    def test_ten_at_three(self):
        texts = [render(t) for t in enumerate_canonical(3)]
        assert len(texts) == 10

    def test_no_repeats_and_all_canonical(self):
        for n in range(1, 6):
            seen = set()
            for term in enumerate_canonical(n):
                assert leaf_count(term) == n
                assert is_valid_growth_string(leaf_vars(term))
                assert term not in seen
                seen.add(term)

    def test_order_is_stable(self):
        first = [render(t) for t in itertools.islice(enumerate_canonical(4), 8)]
        second = [render(t) for t in itertools.islice(enumerate_canonical(4), 8)]
        assert first == second

    def test_cap_refused(self):
        with pytest.raises(ValueError, match="capped"):
            next(enumerate_canonical(10))

    def test_shape_and_string_pools(self):
        for n in range(1, 8):
            assert len(all_shapes(n)) == catalan(n - 1)
            strings = all_growth_strings(n)
            assert len(strings) == bell(n)
            assert list(strings) == sorted(strings)
            assert all(is_valid_growth_string(s) for s in strings)


def nd_provable(term, depth=24):
    """Independent naive natural-deduction search with a depth bound.

    Backward chaining: an implication goal assumes its premise; an atomic
    goal is proved by picking a hypothesis whose spine ends in it and proving
    all its premises.
    """

    def prove(context, goal, budget):
        while isinstance(goal, tuple):
            context = context | {goal[0]}
            goal = goal[1]
        if goal in context:
            return True
        if budget == 0:
            return False
        for hyp in context:
            if isinstance(hyp, tuple):
                premises, head = spine(hyp)
                if head == goal and all(
                        prove(context, p, budget - 1) for p in premises):
                    return True
        return False

    return prove(frozenset(), term, depth)


class TestProver:
    def test_identity(self):
        assert prove_intuitionistic(parse("a0->a0"))

    def test_peirce_rejected(self):
        assert not prove_intuitionistic(PEIRCE)

    def test_modus_ponens(self):
        assert prove_intuitionistic(parse("(a1->a0)->a1->a0"))

    def test_composition_theorem(self):
        assert prove_intuitionistic(parse("(a2->a0)->(a1->a2)->a1->a0"))
        assert prove_intuitionistic(parse("(a1->a0)->(a2->a1)->a2->a0", canonical=False))

    def test_weakening_theorem(self):
        assert prove_intuitionistic(parse("a0->a1->a0", canonical=False))

    def test_double_negation_shift_not_provable(self):
        # ((a0 -> bottomless analogue) ...) stand-in: Peirce variants.
        assert not prove_intuitionistic(parse("((a0->a1)->a0)->a0"))
        assert not prove_intuitionistic(parse("((a1->a0)->a1)->a1", canonical=False))

    def test_agrees_with_bounded_nd_search(self):
        for n in range(1, 6):
            for term in enumerate_canonical(n):
                assert prove_intuitionistic(term) == nd_provable(term)

    def test_no_state_outlives_a_call(self):
        # No module-level cache, so there is nothing for a caller to reset.
        assert not [name for name, value in vars(reference).items()
                    if isinstance(value, (dict, list, set)) and not name.startswith("__")]
        terms = [t for n in range(1, 6) for t in enumerate_canonical(n)]
        forward = [prove_intuitionistic(t) for t in terms]
        backward = [prove_intuitionistic(t) for t in reversed(terms)]
        assert forward == backward[::-1]

    def test_provable_implies_tautology(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                if prove_intuitionistic(term):
                    assert truth_table_tautology(term)


class TestTruthTable:
    def test_peirce(self):
        assert truth_table_tautology(PEIRCE)

    def test_two_variable_non_tautology(self):
        assert not truth_table_tautology(parse("a1->a0"))

    def test_agrees_with_scalar_evaluate(self):
        rng = random.Random(20240917)
        pool = list(enumerate_canonical(5))
        for term in rng.sample(pool, 60):
            variables = sorted(distinct_vars(term))
            expected = all(
                evaluate(term, dict(zip(variables, bits)))
                for bits in itertools.product((False, True), repeat=len(variables)))
            assert truth_table_tautology(term) == expected

    def test_variable_cap(self):
        wide = parse("->".join(f"a{i}" for i in range(21, -1, -1)), canonical=False)
        with pytest.raises(ValueError, match="refuses"):
            truth_table_tautology(wide)


class TestChiSquare:
    def test_zero_on_equal(self):
        assert chi_square([5, 5], [5, 5]) == 0.0

    def test_small_example(self):
        assert abs(chi_square([6, 4], [5, 5]) - 0.4) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi_square([1], [1, 2])

    def test_nonpositive_expected(self):
        with pytest.raises(ValueError):
            chi_square([1, 2], [1, 0])


class TestClassificationFixture:
    def test_triples_are_stable(self):
        for n, expected in CLASSIFICATION_TRIPLES.items():
            not_taut = taut_int = taut_cl = 0
            for term in enumerate_canonical(n):
                if not truth_table_tautology(term):
                    not_taut += 1
                elif prove_intuitionistic(term):
                    taut_int += 1
                else:
                    taut_cl += 1
            assert (not_taut, taut_int, taut_cl) == expected
            assert sum(expected) == count_canonical(n)

    def test_unique_classical_only_theorem_at_four_is_peirce(self):
        only = [term for term in enumerate_canonical(4)
                if truth_table_tautology(term) and not prove_intuitionistic(term)]
        assert only == [PEIRCE]
