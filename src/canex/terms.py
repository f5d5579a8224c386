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


def goal_of(term: Term) -> int:
    """Variable index of the rightmost leaf."""
    node = term
    while isinstance(node, tuple):
        node = node[1]
    return node


def leaf_vars(term: Term) -> list[int]:
    """Variable indices of the leaves, left to right."""
    out = []
    rights = []  # right children still to walk, innermost last
    node = term
    while True:
        while type(node) is tuple:  # down the left spine
            rights.append(node[1])
            node = node[0]
        out.append(node)
        if not rights:
            return out
        node = rights.pop()


def distinct_vars(term: Term) -> set[int]:
    return set(leaf_vars(term))


def shape_of(term: Term) -> Shape:
    """Forget the leaf labels."""
    return attach_vars(term, [None] * len(leaf_vars(term)))


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

    Builds it in one walk of the insertion vector, folding each spine from
    its goal up: a compound premise is built, as a spine of its own, before
    the node that holds it, and ``labels`` are handed out right to left; ``n``
    is ``len(labels)``.  The vector is trusted to encode a tree (as
    ``random_tree_vector`` guarantees); validate foreign vectors with
    ``decode_remy_vector`` first.  The walk still stops with an error on a
    vector that does not reach exactly ``n - 1`` internal nodes, so a
    malformed vector can neither loop nor leave labels unused.
    """
    n = len(labels)
    if len(entries) != 2 * n - 1:
        raise ValueError(f"{n} labels for a vector of {len(entries)} entries "
                         f"({(len(entries) + 1) // 2} leaves)")
    stack = []  # per open compound premise: its spine's start and the tail below it
    nodes = []  # the open spines' internal nodes not yet joined, innermost spine last
    internal = 0
    # Each internal node reached adds one leaf, so at most internal + 1 <= n
    # labels are taken and the index never runs below 0.
    leaf = n
    node = entries[0]
    while True:
        lo = len(nodes)  # where this spine starts in nodes
        while node & 1:  # down the spine, to its goal
            internal += 1
            if internal == n:
                raise RemyVectorError("vector reaches more internal nodes than it has")
            nodes.append(node)
            node = entries[node + 1]
        leaf -= 1
        done = labels[leaf]  # the built tail below the next node
        while True:  # up the spine, and up each spine it completes
            if len(nodes) > lo:
                node = entries[nodes.pop()]
                if node & 1:  # a compound premise: build it first
                    stack.append((lo, done))
                    break
                leaf -= 1
                done = (labels[leaf], done)
            elif stack:
                lo, tail = stack.pop()
                done = (done, tail)
            else:
                if internal != n - 1:
                    raise RemyVectorError("vector does not reach every internal node")
                return done


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


def _vector_premises(entries: Sequence[int], labels: Sequence, node: int,
                     start: int, size: int):
    """``(goal label, handle)`` per premise, as ``_term_premises`` yields them,
    down the spine of the subtree at ``node``, whose ``size`` leaves start at
    leaf ``start``.  A compound premise's handle is ``(premise, first leaf, leaf
    count)``; ``_leaves_under`` counts its leaves against its tail."""
    while node & 1:
        premise = entries[node]
        node = entries[node + 1]
        if premise & 1:
            k = _leaves_under(entries, premise, node, size)
            yield labels[start + k - 1], (premise, start, k)
        else:
            k = 1
            yield labels[start], None
        start += k
        size -= k


def _term_premises(term: Term):
    """``(goal, handle)`` per premise down the spine: None for a bare premise,
    else the premise."""
    while type(term) is tuple:
        premise, term = term
        yield (goal_of(premise), premise) if type(premise) is tuple else (premise, None)


def _filters(goal, premises, below) -> tuple[bool, bool, bool]:
    """Simple, simple antilogy and restricted non-tautology of a spine.

    ``premises`` reads the spine as ``_term_premises`` does, and ``below``
    reads a compound premise's spine from its handle.  Simple: a bare premise
    is the goal.  Simple antilogy: each premise with the goal as its goal is
    compound and simple, so the goal false and all else true falsifies the
    term.  Restricted non-tautology: no premise has the goal as its goal.
    """
    antilogy = non_taut = True
    for premise_goal, handle in premises:
        if premise_goal == goal:
            if handle is None:  # the goal itself: simple, so neither antilogy kind
                return True, False, False
            non_taut = False
            antilogy = antilogy and any(h is None and g == goal for g, h in below(handle))
    return False, antilogy, non_taut


def term_filters(term: Term) -> tuple[bool, bool, bool]:
    """Simple, simple antilogy and restricted non-tautology of ``term``."""
    return _filters(goal_of(term), _term_premises(term), _term_premises)


def spine_filters(entries: Sequence[int], labels: Sequence) -> tuple[bool, bool, bool]:
    """``term_filters(decode_labelled_vector(entries, labels))``, with no term built.

    The filters only compare leaf labels for equality, which ``canonicalize``
    preserves, so ``labels`` may be raw class labels.  The vector is trusted
    as in ``decode_labelled_vector``.
    """
    n = len(labels)
    if len(entries) != 2 * n - 1:
        raise ValueError(f"{n} labels for a vector of {len(entries)} entries")
    return _filters(labels[-1], _vector_premises(entries, labels, entries[0], 0, n),
                    lambda handle: _vector_premises(entries, labels, *handle))


# Variable names for render, "a{i}" and "a{i}->", keyed by index and grown on
# demand up to the largest index met below the cap; an index outside them
# (negative, or at the cap or past it) is formatted where it is met.
_NAME_CAP = 4096
_NAMES: dict = {}
_ARROWED: dict = {}


def _name(index: int, arrow: bool) -> str:
    if 0 <= index < _NAME_CAP:
        for i in range(len(_NAMES), index + 1):
            _NAMES[i] = f"a{i}"
            _ARROWED[i] = f"a{i}->"
        return (_ARROWED if arrow else _NAMES)[index]
    return f"a{index}->" if arrow else f"a{index}"


def render(term: Term) -> str:
    """Expression text with minimal parentheses; ``->`` associates right."""
    names, arrowed = _NAMES, _ARROWED
    out = []
    work = [term]
    while work:
        node = work.pop()
        if type(node) is str:
            out.append(node)
            continue
        # Down the right spine: a bare-variable premise goes out with its
        # arrow at once; a compound one is bracketed, and the rest waits.
        while type(node) is tuple:
            prem, node = node
            if type(prem) is tuple:
                work += (node, ")->", prem, "(")
                break
            try:
                out.append(arrowed[prem])
            except KeyError:
                out.append(_name(prem, True))
        else:
            try:
                out.append(names[node])
            except KeyError:
                out.append(_name(node, False))
    return "".join(out)


# The whole grammar but the parentheses' balance, as one flat pattern: each
# variable may have a run of '(' and whitespace before it and a run of ')' and
# whitespace after it, and variables are joined by '->'.  Each run is a single
# character class, so the match keeps no backtracking state per parenthesis
# and stays linear on long whitespace runs.
_SHAPE = re.compile(r"[( \t\r\n]*a\d+[) \t\r\n]*(?:->[( \t\r\n]*a\d+[) \t\r\n]*)*", re.ASCII)

# One token per match: a variable, an arrow, or any other non-whitespace
# character (a parenthesis, or an error).  Whitespace matches nothing, and
# ``finditer`` skips it one character at a time; a whitespace prefix in the
# pattern would rescan a trailing run from every position, in quadratic time.
_TOKEN = re.compile(r"a\d+|->|[^ \t\r\n]", re.ASCII)
_BAD_TOKEN = {"a": "expected digits after 'a'", "-": "expected '->'"}


def parse(text: str, *, canonical: bool = True) -> Term:
    """Parse expression text.

    Grammar: ``expr := term | term "->" expr``, ``term := var | "(" expr ")"``,
    ``var := "a" [0-9]+``.  Whitespace is ignored.  With ``canonical=True``
    (the default) the variable numbering must already be canonical; text with
    a foreign numbering raises ``CanonicalityError`` instead of being silently
    renumbered (renumber explicitly via ``canonical_form``).

    Well-formed text is read in one fold, right to left, once ``_SHAPE`` has
    matched: ``)`` opens a group and ``(`` closes one, and a variable ``v``
    becomes ``v -> tail`` in front of the tail already built.  The numbering
    is checked in the same pass.  Malformed text is read again by
    ``_first_error``, which reports the first error in reading order.
    """
    if _SHAPE.fullmatch(text):
        words = (text.replace("->", " ").replace("a", " ")
                 .replace("(", " ( ").replace(")", " ) ").split())
        saved = []  # per open group: the tail to its right, or None
        node = None  # the fold of the innermost open group so far
        top = -1  # the largest index met, right to left
        foreign = False
        try:
            for word in reversed(words):
                if word > ")":  # digits sort after both parentheses
                    index = int(word)
                    if index > top:  # a new variable must take the next index
                        foreign = foreign or index > top + 1
                        top = index
                    node = index if node is None else (index, node)
                elif word == ")":
                    saved.append(node)
                    node = None
                else:
                    tail = saved.pop()
                    if tail is not None:
                        node = (node, tail)
        except (IndexError, ValueError):  # unbalanced, or more digits than int() reads
            pass
        else:
            if not saved:
                if canonical and foreign:
                    raise CanonicalityError(
                        "variable numbering is not canonical (rightmost variable is a0 "
                        "and new variables are numbered right to left); use "
                        "canonical_form to renumber")
                return node
    raise _first_error(text)


def _first_error(text: str) -> ParseError:
    """The first error in reading order of text that ``parse`` refused.

    Reads the tokens left to right, keeping only what the errors need: whether
    an operand is due, and where each unclosed ``(`` is.  It builds no term.
    """
    if not text.strip(" \t\r\n"):
        return ParseError("empty expression", 0)
    opened: list[int] = []  # offsets of the unclosed '('
    expect_operand = True
    for match in _TOKEN.finditer(text):
        tok, at = match.group(), match.start()
        if tok == "->":
            if expect_operand:
                return ParseError("expected a variable or '('", at)
            expect_operand = True
        elif tok == ")":
            if expect_operand or not opened:
                return ParseError("unbalanced or empty parentheses", at)
            opened.pop()
        elif len(tok) == 1 and tok != "(":
            return ParseError(_BAD_TOKEN.get(tok, f"unexpected character {tok!r}"), at)
        elif not expect_operand:
            return ParseError("expected '->' or ')'", at)
        elif tok == "(":
            opened.append(at)
        else:
            try:
                int(tok[1:])
            except ValueError:  # more digits than int() reads
                return ParseError("variable index too long", at)
            expect_operand = False
    if expect_operand:
        return ParseError("dangling '->'", len(text))
    # The text was refused, and only an unclosed '(' is left to blame.
    return ParseError("unclosed '('", opened[-1])


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
