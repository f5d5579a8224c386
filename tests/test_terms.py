import itertools
import json
import random
import re
import time

import pytest
from conftest import left_chain, spine, terms_up_to_20_vars
from hypothesis import given

from canex import terms
from canex.terms import (CanonicalityError, ParseError, RemyVectorError,
                         attach_vars, canonical_form, canonicalize,
                         decode_labelled_vector, decode_remy_vector,
                         is_valid_growth_string, leaf_vars, parse,
                         render, shape_of, shape_string, to_json_obj)
from canex.counting import count_canonical
from canex.reference import enumerate_canonical
from canex.sampling import random_canonical, random_tree_vector, stream_for_sample

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
    # Decimal digits int() reads but the grammar's ASCII 0-9 does not:
    # Arabic-Indic one and fullwidth one.
    ("(a\u0661->a0)->a0", "expected digits after 'a'", 1),
    ("(a1->a\uff11)->a0", "expected digits after 'a'", 5),
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
        assert len(leaf_vars(tree)) == 10

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


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
def test_decode_labelled_vector_matches_attach_vars(n):
    # The labels are handed out right to left; the term must not change.
    for i in range(20):
        vector = random_tree_vector(stream_for_sample(2468, i), n)
        labels = [(i * k + 3) % 7 for k in range(n)]
        expected = attach_vars(shape_of(decode_remy_vector(vector, n)), labels)
        assert render(decode_labelled_vector(vector, labels)) == render(expected)


def test_decode_labelled_vector_bounds_each_descent():
    # The goal's own spine loops back to the root; then a premise's spine does.
    for vector in ([1, 0, 1], [1, 1, 0], [1, 3, 0, 1, 2]):
        with pytest.raises(RemyVectorError):
            decode_labelled_vector(vector, [0] * ((len(vector) + 1) // 2))


def reference_leaf_vars(term):
    # The node-by-node walk leaf_vars used before it went down left spines.
    out = []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.append(node[1])
            stack.append(node[0])
        else:
            out.append(node)
    return out


class TestLeafWalks:
    @pytest.mark.parametrize("n", [1, 25, 100, 1000])
    def test_match_reference_sampled(self, n):
        for i in range(50):
            term = random_canonical(stream_for_sample(31, i), n)
            assert leaf_vars(term) == reference_leaf_vars(term)
            assert len(leaf_vars(term)) == n

    def test_match_reference_exhaustive_small(self):
        for n in range(1, 7):
            for term in enumerate_canonical(n):
                assert leaf_vars(term) == reference_leaf_vars(term)
                assert len(leaf_vars(term)) == n

    @pytest.mark.parametrize("shape", ["left chain", "right spine"])
    def test_deep_inputs(self, shape):
        if shape == "left chain":
            term = left_chain(10 ** 5)
        else:
            term = 0
            for i in range(10 ** 5):
                term = (i % 7 + 1, term)
        assert leaf_vars(term) == reference_leaf_vars(term)
        assert len(leaf_vars(term)) == 10 ** 5 + 1


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


def reference_render(term):
    # One f-string per leaf, as render named variables before its tables.
    out = []
    work = [term]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        while isinstance(node, tuple):
            prem, node = node
            if isinstance(prem, tuple):
                work += (node, ")->", prem, "(")
                break
            out.append(f"a{prem}->")
        else:
            out.append(f"a{node}")
    return "".join(out)


# The token-by-token parser parse used before its shape check and fold.
_REFERENCE_TOKEN = re.compile(r"a\d+|->|[^ \t\r\n]", re.ASCII)
_REFERENCE_BAD_TOKEN = {"a": "expected digits after 'a'", "-": "expected '->'"}


def _reference_offset(text, i):
    return list(_REFERENCE_TOKEN.finditer(text))[i].start()


def _reference_fold_right(items):
    node = items[-1]
    for prem in reversed(items[:-1]):
        node = (prem, node)
    return node


def reference_parse(text, *, canonical=True):
    tokens = _REFERENCE_TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    saved = []  # (token index, outer operands) per unclosed '('
    current = []
    indices = []  # variable indices in reading order
    expect_operand = True
    for i, tok in enumerate(tokens):
        if tok == "->":
            if expect_operand:
                raise ParseError("expected a variable or '('", _reference_offset(text, i))
            expect_operand = True
        elif tok == ")":
            if expect_operand or not saved:
                raise ParseError("unbalanced or empty parentheses",
                                 _reference_offset(text, i))
            inner = _reference_fold_right(current)
            current = saved.pop()[1]
            current.append(inner)
        elif len(tok) == 1 and tok != "(":
            raise ParseError(_REFERENCE_BAD_TOKEN.get(tok, f"unexpected character {tok!r}"),
                             _reference_offset(text, i))
        elif not expect_operand:
            raise ParseError("expected '->' or ')'", _reference_offset(text, i))
        elif tok == "(":
            saved.append((i, current))
            current = []
        else:
            try:
                indices.append(int(tok[1:]))
            except ValueError:
                raise ParseError("variable index too long",
                                 _reference_offset(text, i)) from None
            current.append(indices[-1])
            expect_operand = False
    if expect_operand:
        raise ParseError("dangling '->'", len(text))
    if saved:
        raise ParseError("unclosed '('", _reference_offset(text, saved[-1][0]))
    if canonical and not is_valid_growth_string(indices):
        raise CanonicalityError(
            "variable numbering is not canonical (rightmost variable is a0 and "
            "new variables are numbered right to left); use canonical_form to renumber")
    return _reference_fold_right(current)


def parse_outcome(parser, text, canonical):
    """The rendered term, or the error's type, message and offset."""
    try:
        return render(parser(text, canonical=canonical))
    except (ParseError, CanonicalityError) as err:
        return type(err).__name__, str(err), getattr(err, "position", None)


# Variables, arrows and parentheses, whitespace, and every kind of stray
# character the errors name: a bare 'a', a lone '-' or '>', a letter, a
# form feed (whitespace to str.split, not to the grammar), a superscript
# digit (no decimal digit), an Arabic-Indic digit (a decimal digit), and an
# index with more digits than int() reads.
PARSE_ALPHABET = ([f"a{i}" for i in range(13)] + ["->"] * 8 + ["(", ")"] * 3
                  + [" ", "\t", "\n", "a", "-", ">", "b", "\x0c", "\u00b2", "\u0663",
                     "a" + "7" * 5000])


class TestRenderParse:
    @pytest.mark.parametrize("n", [25, 100, 1000])
    def test_matches_reference_sampled(self, n):
        for i in range(100):
            term = random_canonical(stream_for_sample(13, i), n)
            assert render(term) == reference_render(term)

    def test_matches_reference_outside_the_tables(self):
        cap = terms._NAME_CAP
        for term in (0, -1, cap - 1, cap, 10 ** 30, (0, 0), (-3, -3),
                     ((cap, -1), (10 ** 30, cap - 1)), (((0, cap + 1), -cap), 0)):
            assert render(term) == reference_render(term)
        assert len(terms._NAMES) == len(terms._ARROWED) == cap

    @pytest.mark.parametrize("shape", ["left chain", "right spine"])
    def test_deep_inputs(self, shape):
        # 10^5 levels either way; the walk keeps its own stack.
        if shape == "left chain":
            term = left_chain(10 ** 5)
        else:
            term = 0
            for i in range(10 ** 5):
                term = (i % 7 + 1, term)
        assert render(term) == reference_render(term)

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
        with pytest.raises(ParseError) as err:
            parse(blank + "a1" + blank + "a0" + blank)  # no arrow
        assert str(err.value) == f"expected '->' or ')' (position {2 * len(blank) + 2})"
        with pytest.raises(ParseError) as err:
            parse("(" * 30000 + "a0")
        assert str(err.value) == "unclosed '(' (position 29999)"
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("canonical", [True, False])
    def test_matches_reference_on_random_texts(self, canonical):
        rng = random.Random(2021)
        outcomes = set()
        for _ in range(6000):
            text = "".join(rng.choices(PARSE_ALPHABET, k=rng.randint(0, 12)))
            expected = parse_outcome(reference_parse, text, canonical)
            assert parse_outcome(parse, text, canonical) == expected, repr(text)
            outcomes.add(expected if isinstance(expected, tuple) else "parsed")
        # Every error kind and both results actually occur.
        kinds = {o if o == "parsed" else o[1].rsplit(" (", 1)[0] for o in outcomes}
        assert kinds >= {"parsed", "empty expression", "dangling '->'",
                         "expected a variable or '('", "unclosed '('",
                         "unbalanced or empty parentheses", "expected '->' or ')'",
                         "expected digits after 'a'", "expected '->'",
                         "unexpected character 'b'", "variable index too long"}
        assert any(o[0] == "CanonicalityError" for o in outcomes if o != "parsed") \
            == canonical

    @pytest.mark.parametrize("canonical", [True, False])
    def test_matches_reference_on_rendered_terms(self, canonical):
        # Well-formed texts with whitespace let in, and one in four with a
        # token of the alphabet put in as well.
        rng = random.Random(77)
        for i in range(600):
            term = random_canonical(stream_for_sample(21, i), rng.choice([1, 2, 5, 25, 100]))
            pieces = re.findall(r"a\d+|->|.", render(term))
            for _ in range(rng.randint(0, 6)):
                pieces.insert(rng.randint(0, len(pieces)), rng.choice(" \t\r\n"))
            if rng.random() < 0.25:
                pieces.insert(rng.randint(0, len(pieces)), rng.choice(PARSE_ALPHABET))
            text = "".join(pieces)
            assert parse_outcome(parse, text, canonical) == \
                parse_outcome(reference_parse, text, canonical), repr(text)

    def test_well_formed_text_is_read_once(self, monkeypatch):
        # The error reader runs only on text the shape check or fold refused.
        monkeypatch.setattr(terms, "_first_error", refuse)
        assert render(parse(TEN_LEAF_TEXT)) == TEN_LEAF_TEXT
        for depth in (1500, 3000):
            text = render(left_chain(depth))
            assert render(parse(text)) == text
        blank = " \t\r\n" * 1000
        assert parse(blank + "(" + blank + "a1->a0" + blank + ")" + blank + "->" + blank
                     + "a0" + blank) == ((1, 0), 0)
        with pytest.raises(CanonicalityError):
            parse("a0->a1")

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
