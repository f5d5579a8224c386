import itertools
import json
import time

import pytest
from conftest import left_chain, terms_up_to_20_vars
from hypothesis import given

from canex import terms
from canex.terms import (CanonicalityError, ParseError, RemyVectorError,
                         attach_vars, canonical_form, canonicalize,
                         decode_labelled_vector, decode_remy_vector,
                         is_valid_growth_string, leaf_count, leaf_vars, parse,
                         render, shape_of, shape_string, spine, to_json_obj)
from canex.counting import count_canonical
from canex.reference import enumerate_canonical
from canex.sampling import random_canonical, stream_for_sample

TEN_LEAF_TEXT = "(a0->a2)->(((a2->a0)->a2)->a0)->((a1->a0)->a0)->a0"

# Texts with exactly one error, each with its ParseError message and offset.
SINGLE_ERRORS = [
    ("a1->", "dangling '->'", 4),
    ("a1->->a0", "expected a variable or '('", 4),
    ("(a1->a0", "unclosed '('", 0),
    ("a1->b0", "unexpected character 'b'", 4),
    ("", "empty expression", 0),
    ("a1->()", "unbalanced or empty parentheses", 5),
    ("a1 a0", "expected '->' or ')'", 3),
    ("a", "expected digits after 'a'", 0),
    ("a1-a0", "expected '->'", 2),
    ("a1->a0)", "unbalanced or empty parentheses", 6),
    ("((a0)", "unclosed '('", 0),
    ("a1->(a0 a0)", "expected '->' or ')'", 8),
    (" \t", "empty expression", 0),
    ("\x0ca0", "unexpected character '\\x0c'", 0),
    ("(", "dangling '->'", 1),
    ("a0)(", "unbalanced or empty parentheses", 2),
]


def refuse(*args):
    raise AssertionError("a second walk of the term")


def reference_renumber(tokens):
    # Independent right-to-left first-occurrence numbering.
    order = []
    for tok in reversed(tokens):
        if tok not in order:
            order.append(tok)
    return tuple(order.index(tok) for tok in tokens)


class TestCanonicalize:
    def test_ten_position_example(self):
        tokens = list("xyyxyxzxxx")
        assert canonicalize(tokens) == (0, 2, 2, 0, 2, 0, 1, 0, 0, 0)

    def test_single_token(self):
        assert canonicalize(["q"]) == (0,)

    def test_three_tokens_against_reference(self):
        tokens = ["a", "b", "a"]
        assert reference_renumber(tokens) == (0, 1, 0)
        assert canonicalize(tokens) == (0, 1, 0)

    def test_agrees_with_reference_on_random_words(self):
        for word in itertools.product("abc", repeat=5):
            assert canonicalize(word) == reference_renumber(word)

    def test_idempotent(self):
        for word in itertools.product(range(3), repeat=6):
            once = canonicalize(word)
            assert canonicalize(once) == once

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([])


def growth_strings_by_bruteforce(n):
    # All strings over [0..n-1]^n that canonicalize to themselves.
    return {w for w in itertools.product(range(n), repeat=n)
            if canonicalize(w) == w}


class TestGrowthStrings:
    def test_ten_position_example_valid(self):
        assert is_valid_growth_string([0, 2, 2, 0, 2, 0, 1, 0, 0, 0])

    def test_singleton_valid(self):
        assert is_valid_growth_string([0])

    def test_two_zero_invalid(self):
        # 2 exceeds one more than the maximum to its right.
        assert not is_valid_growth_string([2, 0])
        brute = growth_strings_by_bruteforce(2)
        assert (2, 0) not in brute
        assert brute == {(0, 0), (1, 0)}

    def test_agrees_with_canonicalize_fixed_points(self):
        for n in range(1, 6):
            for w in itertools.product(range(n + 1), repeat=n):
                assert is_valid_growth_string(w) == (canonicalize(w) == w)

    def test_rejects_junk(self):
        assert not is_valid_growth_string([])
        assert not is_valid_growth_string([1])
        assert not is_valid_growth_string([0, 1])   # rightmost must be 0
        assert not is_valid_growth_string([-1, 0])
        assert not is_valid_growth_string([True, 0])
        assert not is_valid_growth_string([0.0])
        assert not is_valid_growth_string([1.0, 0])
        assert not is_valid_growth_string([0, 0.0])


class TestDecodeRemyVector:
    def test_ten_leaf_worked_example(self):
        v = [1, 13, 0, 2, 5, 9, 7, 8, 4, 11, 17, 12, 10, 15, 3, 16, 14, 18, 6]
        tree = decode_remy_vector(v, 10)
        assert leaf_vars(tree) == [16, 14, 2, 12, 10, 18, 6, 8, 4, 0]
        assert leaf_count(tree) == 10

    def test_single_leaf(self):
        assert decode_remy_vector([0], 1) == 0

    def test_two_leaves(self):
        tree = decode_remy_vector([1, 2, 0], 2)
        assert shape_of(tree) == (None, None)
        assert leaf_vars(tree) == [2, 0]

    def test_wrong_length(self):
        with pytest.raises(RemyVectorError):
            decode_remy_vector([1, 2, 0, 4], 2)

    def test_label_out_of_range(self):
        with pytest.raises(RemyVectorError):
            decode_remy_vector([1, 9, 0], 2)

    def test_cycle(self):
        with pytest.raises(RemyVectorError):
            decode_remy_vector([1, 1, 0], 2)

    def test_unreachable_labels(self):
        # Root is a leaf label, so labels 1 and 2 are never visited.
        with pytest.raises(RemyVectorError):
            decode_remy_vector([0, 2, 0], 2)


class TestDecodeLabelledVector:
    def test_ten_leaf_worked_example(self):
        v = [1, 13, 0, 2, 5, 9, 7, 8, 4, 11, 17, 12, 10, 15, 3, 16, 14, 18, 6]
        labels = [0, 2, 2, 0, 2, 0, 1, 0, 0, 0]
        term = decode_labelled_vector(v, labels)
        assert term == attach_vars(shape_of(decode_remy_vector(v, 10)), labels)
        assert leaf_vars(term) == labels

    def test_single_leaf(self):
        assert decode_labelled_vector([0], [0]) == 0

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            decode_labelled_vector([1, 2, 0], [0])
        with pytest.raises(ValueError):
            decode_labelled_vector([1, 2, 0], [1, 0, 0])

    def test_malformed_vectors_stop(self):
        with pytest.raises(RemyVectorError):
            decode_labelled_vector([1, 1, 0], [0, 0])  # cycle
        with pytest.raises(RemyVectorError):
            decode_labelled_vector([0, 2, 0], [1, 0])  # root is a leaf


class TestSpine:
    def test_two_premises(self):
        premises, goal = spine(parse("a1->a0->a0"))
        assert premises == (1, 0)
        assert goal == 0

    def test_leaf(self):
        premises, goal = spine(parse("a0"))
        assert premises == ()
        assert goal == 0

    def test_peirce_shape(self):
        premises, goal = spine(parse("((a1->a0)->a1)->a1", canonical=False))
        assert premises == (((1, 0), 1),)
        assert goal == 1


class TestRenderParse:
    def test_right_associative_chain(self):
        assert render((1, (0, 0))) == "a1->a0->a0"

    def test_premise_parenthesized(self):
        term = parse("(a1->a0)->a0")
        assert term == ((1, 0), 0)
        assert render(term) == "(a1->a0)->a0"

    def test_ten_leaf_expression(self):
        term = parse(TEN_LEAF_TEXT)
        assert leaf_vars(term) == [0, 2, 2, 0, 2, 0, 1, 0, 0, 0]
        premises, goal = spine(term)
        assert len(premises) == 3 and goal == 0
        assert render(term) == TEN_LEAF_TEXT

    def test_whitespace_ignored(self):
        assert parse(" a1 ->  a0\t->a0 ") == parse("a1->a0->a0")

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                assert parse(render(term)) == term

    @pytest.mark.parametrize("n", [25, 100, 300, 1000])
    def test_round_trip_sampled(self, n):
        # Texts, not terms, are compared: == on deep tuples recurses.
        for i in range(50):
            text = render(random_canonical(stream_for_sample(77, i), n))
            assert render(parse(text)) == text

    @pytest.mark.parametrize("depth", [1500, 3000])
    def test_round_trip_deep_chain(self, depth):
        text = render(left_chain(depth))
        assert render(parse(text)) == text

    def test_syntax_error_position(self):
        for text, message, position in SINGLE_ERRORS:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (str(err.value), err.value.position) == (
                f"{message} (position {position})", position), text

    def test_first_error_in_reading_order(self):
        with pytest.raises(ParseError) as err:
            parse("a1->->b")
        assert err.value.position == 4
        assert str(err.value) == "expected a variable or '(' (position 4)"

    def test_superscript_digit_is_a_parse_error(self):
        # '²' passes str.isdigit but is no decimal digit, so 'a²' names no variable.
        with pytest.raises(ParseError) as err:
            parse("a²")
        assert err.value.position == 0

    @pytest.mark.parametrize("canonical", [True, False])
    def test_long_variable_index_is_a_parse_error(self, canonical):
        # int() refuses a string of more than a few thousand digits.
        for text, position in (("a" + "1" * 5000 + "->a0", 0),
                               ("(a1->a" + "2" * 5000 + ")->a0", 5)):
            with pytest.raises(ParseError) as err:
                parse(text, canonical=canonical)
            assert (str(err.value), err.value.position) == (
                f"variable index too long (position {position})", position)

    def test_long_whitespace_runs_read_in_linear_time(self):
        blank = " \t\r\n" * 25000
        started = time.perf_counter()
        assert parse(blank + "a1->" + blank + "a0" + blank) == (1, 0)
        assert time.perf_counter() - started < 5.0

    def test_non_canonical_rejected_distinctly(self):
        with pytest.raises(CanonicalityError):
            parse("a0->a1")
        # The same text is syntactically fine.
        assert parse("a0->a1", canonical=False) == (0, 1)

    def test_canonical_form_renumbers(self):
        term = parse("((a1->a0)->a1)->a1", canonical=False)
        assert canonical_form(term) == parse("((a0->a1)->a0)->a0")

    def test_numbering_checked_while_parsing(self, monkeypatch):
        # The indices are checked as read; the parsed term is not walked again.
        monkeypatch.setattr(terms, "leaf_vars", refuse)
        assert parse("a1->a0->a0") == (1, (0, 0))
        assert render(parse(TEN_LEAF_TEXT)) == TEN_LEAF_TEXT
        for text in ("a0->a1", "(a1->a0)->a2->a0", "(a0->a1)->a2->a0"):
            with pytest.raises(CanonicalityError):
                parse(text)
            assert render(parse(text, canonical=False)) == text


class TestShapeAndJson:
    def test_attach_round_trip_exhaustive(self):
        for n in range(1, 6):
            for term in enumerate_canonical(n):
                assert attach_vars(shape_of(term), leaf_vars(term)) == term

    def test_attach_length_mismatch(self):
        with pytest.raises(ValueError):
            attach_vars((None, None), [0])
        with pytest.raises(ValueError):
            attach_vars((None, None), [1, 0, 0])

    def test_shape_string(self):
        assert shape_string(None) == "L"
        assert shape_string((None, (None, None))) == "(L(LL))"

    def test_json_form(self):
        assert to_json_obj(parse(TEN_LEAF_TEXT)) == {
            "rgs": [0, 2, 2, 0, 2, 0, 1, 0, 0, 0],
            "shape": "((LL)((((LL)L)L)(((LL)L)L)))"}

    def test_json_form_is_injective(self):
        # Distinct canonical terms have distinct JSON forms, so the form
        # names the term it was written from.
        for n in range(1, 6):
            forms = {json.dumps(to_json_obj(term)) for term in enumerate_canonical(n)}
            assert len(forms) == count_canonical(n)

    def test_json_form_reads_the_shape_off_the_term(self, monkeypatch):
        monkeypatch.setattr(terms, "shape_of", refuse)
        assert to_json_obj(parse("(a1->a0)->a0")) == {"rgs": [1, 0, 0],
                                                      "shape": "((LL)L)"}

    def test_json_requires_canonical(self):
        with pytest.raises(CanonicalityError):
            to_json_obj((0, 1))


@given(terms_up_to_20_vars())
def test_canonical_form_round_trips(term):
    c = canonical_form(term)
    assert is_valid_growth_string(leaf_vars(c))
    assert shape_of(c) == shape_of(term)
    assert parse(render(c)) == c
    assert to_json_obj(c) == {"rgs": leaf_vars(c), "shape": shape_string(shape_of(c))}
