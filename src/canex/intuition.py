"""Cheap certificates of intuitionistic theoremhood.

The cascade grows from two spine patterns.  A term is *simple* when its goal
variable reappears among its premises, and *mp* when some premise is a bare
variable v and another premise is exactly v -> goal.  Terms that are simple or
mp are *easy*; easy premises are theorems, so stripping them anywhere in a
term preserves provability (*clean*).  A term is *minor* when some premise
equals one of the later tails of its own spine, and *cheap* when, once easy
premises are recursively removed, it is easy or minor.  Every cheap term is an
intuitionistic theorem; the converse is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Term, goal_of, leaf_count


def is_simple(term: Term) -> bool:
    """Goal variable occurs as one of the spine premises."""
    goal = goal_of(term)
    node = term
    while isinstance(node, tuple):
        if node[0] == goal:
            return True
        node = node[1]
    return False


def is_mp(term: Term) -> bool:
    """Premises contain some variable v together with v -> goal."""
    goal = goal_of(term)
    variables = []
    wanted = []  # each v with a premise v -> goal
    node = term
    while isinstance(node, tuple):
        p = node[0]
        if isinstance(p, tuple):
            if p[1] == goal and isinstance(p[0], int):
                wanted.append(p[0])
        else:
            variables.append(p)
        node = node[1]
    return bool(wanted) and not set(variables).isdisjoint(wanted)


def is_easy(term: Term) -> bool:
    return is_simple(term) or is_mp(term)


def clean(term: Term) -> Term:
    """Drop easy premises bottom-up, in one pass.

    One bottom-up pass already reaches the fixpoint, by induction on the
    term: a pass returns either the pass of the right child, a fixpoint by
    induction, or a node whose children are fixpoints and whose left child is
    not easy, which a second pass would return unchanged.  The walk keeps its
    own stack, so depth is bounded only by memory, and it returns ``term``
    itself when nothing is dropped.

    The result proves intuitionistically iff the input does, and it evaluates
    identically under every boolean valuation (dropped premises are theorems).
    """
    done: list = []
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


def is_minor(term: Term) -> bool:
    """Some premise equals a later tail of the spine.

    With premises p1..pk and goal g, the tails are t_m = pm -> ... -> g and
    t_{k+1} = g; the term is minor when p_i == t_m for some i < m.  Taking
    t_{k+1} recovers the simple case, so simple implies minor.

    Every tail ends in g, and t_m has k - m + 1 premises, so a premise can
    equal only the one tail with its goal and its spine length.  Each
    premise is compared once, with that tail, so the test takes time linear
    in the size of the term, and it neither hashes nor recurses.
    """
    tails = []
    node = term
    while isinstance(node, tuple):
        tails.append(node)
        node = node[1]
    goal = node
    k = len(tails)
    tails.append(goal)
    for i in range(k):
        premise = tails[i][0]
        length = 0
        node = premise
        while isinstance(node, tuple):
            length += 1
            node = node[1]
        if node == goal and k - length > i and _equal(premise, tails[k - length]):
            return True
    return False


def _equal(a: Term, b: Term) -> bool:
    """``a == b``, with an explicit stack; stops at the first difference."""
    work = [a, b]
    while work:
        b = work.pop()
        a = work.pop()
        if a is b:
            continue
        if isinstance(a, tuple):
            if not isinstance(b, tuple):
                return False
            work += (a[1], b[1], a[0], b[0])
        elif isinstance(b, tuple) or a != b:
            return False
    return True


@dataclass(frozen=True)
class IntuitVerdict:
    """All cascade verdicts for one term."""

    simple: bool
    mp: bool
    easy: bool
    minor_after_clean: bool
    cheap: bool
    cleaned: Term

    @property
    def cleaned_size(self) -> int:
        return leaf_count(self.cleaned)

    def as_dict(self) -> dict:
        return {
            "simple": self.simple,
            "mp": self.mp,
            "easy": self.easy,
            "minorAfterClean": self.minor_after_clean,
            "cheap": self.cheap,
            "cleanedSize": self.cleaned_size,
        }


def cheap_verdict(term: Term, cleaned: Term | None = None) -> IntuitVerdict:
    """Full cascade: cheap means easy-or-minor after cleaning."""
    if cleaned is None:
        cleaned = clean(term)
    simple = is_simple(term)
    mp = is_mp(term)
    easy = simple or mp
    minor_after = is_minor(cleaned)
    # Simple implies minor, so of easy only mp is left to test.
    cheap = minor_after or is_mp(cleaned)
    return IntuitVerdict(
        simple=simple,
        mp=mp,
        easy=easy,
        minor_after_clean=minor_after,
        cheap=cheap,
        cleaned=cleaned,
    )
