"""Implicative expressions as binary trees with right-to-left variable numbering.

An expression ("term") is either a variable, stored as a plain ``int`` holding
its index, or an implication ``(premise, conclusion)`` stored as a 2-tuple of
sub-terms.  Tuples give structural equality and hashing for free, which the
classifiers rely on heavily.

A term is *canonical* when its variables are numbered right to left: the
rightmost leaf is 0 and every new variable met while scanning further left
receives the next unused index.  Read left to right, the leaf indices of a
canonical term form a growth string: the last entry is 0 and no entry exceeds
the maximum to its right by more than one.
"""

from __future__ import annotations

import re
from typing import Sequence, Union

Term = Union[int, tuple]
Shape = Union[None, tuple]  # like Term, but a leaf is None


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class CanonicalityError(ValueError):
    """A term, parsed fine or given for JSON output, whose variable numbering is not canonical."""


class RemyVectorError(ValueError):
    """An integer vector does not encode a binary tree."""


def spine(term: Term) -> tuple[tuple, int]:
    """``p1 -> p2 -> ... -> pk -> g`` split into ``(premises, goal)``."""
    premises = []
    node = term
    while isinstance(node, tuple):
        premises.append(node[0])
        node = node[1]
    return tuple(premises), node


def goal_of(term: Term) -> int:
    """Variable index of the rightmost leaf."""
    node = term
    while isinstance(node, tuple):
        node = node[1]
    return node


def leaf_vars(term: Term) -> list[int]:
    """Variable indices of the leaves, left to right."""
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


def leaf_count(term: Term) -> int:
    return len(leaf_vars(term))


def distinct_vars(term: Term) -> set[int]:
    return set(leaf_vars(term))


def shape_of(term: Term) -> Shape:
    """Forget the leaf labels."""
    return attach_vars(term, [None] * leaf_count(term))


def attach_vars(shape: Shape, labels: Sequence) -> Term:
    """Label the leaves of ``shape`` with ``labels``, left to right.

    Any non-tuple is a leaf, so ``shape`` may be a term: its labels are
    replaced.
    """
    it = iter(labels)
    done = []
    work = [(shape, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            right = done.pop()
            left = done.pop()
            done.append((left, right))
        elif isinstance(node, tuple):
            work.append((node, True))
            work.append((node[1], False))
            work.append((node[0], False))
        else:
            try:
                done.append(next(it))
            except StopIteration:
                raise ValueError("fewer labels than leaves") from None
    leftovers = sum(1 for _ in it)
    if leftovers:
        raise ValueError(f"{leftovers} labels beyond the leaf count")
    return done[0]


def canonicalize(tokens: Sequence) -> tuple[int, ...]:
    """Renumber arbitrary variable tokens right to left, rightmost first.

    The rightmost token becomes 0 and each token not seen before, scanning
    right to left, takes the next unused index.  The result is always a valid
    growth string.
    """
    if not tokens:
        raise ValueError("cannot canonicalize an empty variable sequence")
    mapping: dict = {}
    out = [0] * len(tokens)
    for i in range(len(tokens) - 1, -1, -1):
        tok = tokens[i]
        idx = mapping.get(tok)
        if idx is None:
            idx = len(mapping)
            mapping[tok] = idx
        out[i] = idx
    return tuple(out)


def is_valid_growth_string(entries: Sequence[int]) -> bool:
    """True iff the sequence is a right-to-left restricted growth string.

    That is, a non-empty sequence of ints that ``canonicalize`` leaves as it
    is.
    """
    return (len(entries) > 0 and all(type(x) is int for x in entries)
            and tuple(entries) == canonicalize(entries))


def canonical_form(term: Term) -> Term:
    """The canonical representative of ``term`` up to variable renaming."""
    return attach_vars(term, canonicalize(leaf_vars(term)))


def decode_remy_vector(entries: Sequence[int], n: int) -> Term:
    """Rebuild the binary tree encoded by a node-insertion vector.

    The vector has one slot per node label, ``2n - 1`` in total; internal
    nodes carry odd labels and leaves even ones, and the children of the
    internal node labeled ``k`` sit at slots ``k`` (left) and ``k + 1``
    (right), starting from the root label at slot 0.  Returns a term whose
    leaf values are the leaf labels; apply ``shape_of`` to forget them.
    """
    if n < 1:
        raise RemyVectorError("leaf count must be at least 1")
    if len(entries) != 2 * n - 1:
        raise RemyVectorError(
            f"expected {2 * n - 1} entries for {n} leaves, got {len(entries)}")
    top = 2 * n - 2
    visited = set()
    built: dict = {}
    work = [(entries[0], False)]
    while work:
        label, expanded = work.pop()
        if expanded:
            built[label] = (built[entries[label]], built[entries[label + 1]])
            continue
        if not isinstance(label, int) or not 0 <= label <= top:
            raise RemyVectorError(f"label {label!r} out of range 0..{top}")
        if label in visited:
            raise RemyVectorError(f"label {label} reached twice (cycle or repeat)")
        visited.add(label)
        if label % 2 == 0:
            built[label] = label
        else:
            work.append((label, True))
            work.append((entries[label + 1], False))
            work.append((entries[label], False))
    if len(visited) != 2 * n - 1:
        raise RemyVectorError("vector does not reach every label exactly once")
    return built[entries[0]]


def decode_labelled_vector(entries: Sequence[int], labels: Sequence[int]) -> Term:
    """The term ``attach_vars(shape_of(decode_remy_vector(entries, n)), labels)``.

    Builds it in one walk of the insertion vector, handing out ``labels`` to
    the leaves left to right; ``n`` is ``len(labels)``.  The vector is trusted
    to encode a tree (as ``random_tree_vector`` guarantees); validate foreign
    vectors with ``decode_remy_vector`` first.  The walk still stops with an
    error on a vector that does not reach exactly ``n - 1`` internal nodes,
    so a malformed vector can neither loop nor leave labels unused.
    """
    n = len(labels)
    if len(entries) != 2 * n - 1:
        raise ValueError(f"{n} labels for a vector of {len(entries)} entries "
                         f"({(len(entries) + 1) // 2} leaves)")
    it = iter(labels)
    done: list = []
    work = [entries[0]]
    internal = 0
    while work:
        label = work.pop()
        if label < 0:  # both children are built: join them
            right = done.pop()
            done[-1] = (done[-1], right)
        elif label & 1:
            internal += 1
            if internal == n:
                raise RemyVectorError("vector reaches more internal nodes than it has")
            work += (-1, entries[label + 1], entries[label])
        else:
            # At most internal + 1 <= n leaves are reached, so labels suffice.
            done.append(next(it))
    if internal != n - 1:
        raise RemyVectorError("vector does not reach every internal node")
    return done[0]


def _leaves_under(entries: Sequence[int], node: int, other: int, total: int) -> int:
    """Leaves under ``node``, given that ``node`` and ``other`` hold ``total``.

    Walks both subtrees in lockstep, one node each per step, and stops when
    the smaller one ends: a subtree of k leaves has 2k - 1 nodes.
    """
    mine = [node]
    theirs = [other]
    steps = 0
    while True:
        steps += 1
        label = mine.pop()
        if label & 1:
            mine.append(entries[label])
            mine.append(entries[label + 1])
        elif not mine:
            return (steps + 1) >> 1
        label = theirs.pop()
        if label & 1:
            theirs.append(entries[label])
            theirs.append(entries[label + 1])
        elif not theirs:
            return total - ((steps + 1) >> 1)


def _premises(entries: Sequence[int], node: int, start: int, size: int):
    """``(premise, first leaf, leaf count)`` down the spine of the subtree at
    ``node``, whose ``size`` leaves start at leaf ``start``.

    Each premise's leaves follow the previous premise's; a compound one's
    count comes from ``_leaves_under`` against its tail.
    """
    while node & 1:
        premise = entries[node]
        node = entries[node + 1]
        k = _leaves_under(entries, premise, node, size) if premise & 1 else 1
        yield premise, start, k
        start += k
        size -= k


def spine_filters(entries: Sequence[int], labels: Sequence) -> tuple[bool, bool, bool]:
    """``is_simple``, ``is_simple_antilogy`` and ``is_simple_non_tautology``
    of ``decode_labelled_vector(entries, labels)``, without building it.

    The three filters only compare leaf labels for equality, which
    ``canonicalize`` preserves, so ``labels`` may be raw class labels rather
    than a growth string.  ``_premises`` walks the spine; a premise whose goal
    (its last leaf) is the term's goal gets the same walk one level down, for
    ``is_simple``.  The vector is trusted as in ``decode_labelled_vector``.
    """
    n = len(labels)
    if len(entries) != 2 * n - 1:
        raise ValueError(f"{n} labels for a vector of {len(entries)} entries")
    goal = labels[-1]
    antilogy = non_taut = True
    for premise, first, size in _premises(entries, entries[0], 0, n):
        if labels[first + size - 1] == goal:
            if size == 1:  # the goal itself: simple, so neither antilogy kind
                return True, False, False
            non_taut = False
            antilogy = antilogy and any(
                k == 1 and labels[leaf] == goal
                for _, leaf, k in _premises(entries, premise, first, size))
    return False, antilogy, non_taut


def render(term: Term) -> str:
    """Expression text with minimal parentheses; ``->`` associates right."""
    out = []
    work = [term]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        # Down the right spine: a bare-variable premise goes out with its
        # arrow at once; a compound one is bracketed, and the rest waits.
        while isinstance(node, tuple):
            prem, node = node
            if isinstance(prem, tuple):
                work += (node, ")->", prem, "(")
                break
            out.append(f"a{prem}->")
        else:
            out.append(f"a{node}")
    return "".join(out)


# One token per match: a variable, an arrow, or any other non-whitespace
# character (a parenthesis, or an error).  Whitespace matches nothing, and
# ``findall`` skips it one character at a time; a whitespace prefix in the
# pattern would rescan a trailing run from every position, in quadratic time.
_TOKEN = re.compile(r"a\d+|->|[^ \t\r\n]")
_BAD_TOKEN = {"a": "expected digits after 'a'", "-": "expected '->'"}


def _offset(text: str, i: int) -> int:
    """Character offset of token ``i``; only error reports need it."""
    return list(_TOKEN.finditer(text))[i].start()


def _fold_right(items: list) -> Term:
    node = items[-1]
    for prem in reversed(items[:-1]):
        node = (prem, node)
    return node


def parse(text: str, *, canonical: bool = True) -> Term:
    """Parse expression text.

    Grammar: ``expr := term | term "->" expr``, ``term := var | "(" expr ")"``,
    ``var := "a" digits``.  Whitespace is ignored.  With ``canonical=True``
    (the default) the variable numbering must already be canonical; text with
    a foreign numbering raises ``CanonicalityError`` instead of being silently
    renumbered (renumber explicitly via ``canonical_form``).
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    saved: list[tuple[int, list]] = []  # (token index, outer operands) per unclosed '('
    current: list = []
    indices: list[int] = []  # variable indices in reading order
    expect_operand = True
    for i, tok in enumerate(tokens):
        if tok == "->":
            if expect_operand:
                raise ParseError("expected a variable or '('", _offset(text, i))
            expect_operand = True
        elif tok == ")":
            if expect_operand or not saved:
                raise ParseError("unbalanced or empty parentheses", _offset(text, i))
            inner = _fold_right(current)
            current = saved.pop()[1]
            current.append(inner)
        elif len(tok) == 1 and tok != "(":
            raise ParseError(_BAD_TOKEN.get(tok, f"unexpected character {tok!r}"),
                             _offset(text, i))
        elif not expect_operand:
            raise ParseError("expected '->' or ')'", _offset(text, i))
        elif tok == "(":
            saved.append((i, current))
            current = []
        else:
            try:
                indices.append(int(tok[1:]))
            except ValueError:  # more digits than int() reads
                raise ParseError("variable index too long", _offset(text, i)) from None
            current.append(indices[-1])
            expect_operand = False
    if expect_operand:
        raise ParseError("dangling '->'", len(text))
    if saved:
        raise ParseError("unclosed '('", _offset(text, saved[-1][0]))
    if canonical and not is_valid_growth_string(indices):
        raise CanonicalityError(
            "variable numbering is not canonical (rightmost variable is a0 and "
            "new variables are numbered right to left); use canonical_form to renumber")
    return _fold_right(current)


def shape_string(shape: Shape) -> str:
    """Balanced-paren encoding: ``L`` for a leaf, ``(XY)`` for a node.

    Any non-tuple is a leaf, so ``shape`` may be a term.
    """
    out = []
    work = [shape]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, tuple):
            work += [")", node[1], node[0], "("]
        else:
            out.append("L")
    return "".join(out)


def to_json_obj(term: Term) -> dict:
    """JSON object form ``{"rgs": [...], "shape": "..."}`` of a canonical term."""
    vars_ = leaf_vars(term)
    if not is_valid_growth_string(vars_):
        raise CanonicalityError("only canonical terms have a JSON form")
    return {"rgs": vars_, "shape": shape_string(term)}
