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

from typing import NamedTuple

from .terms import Term, goal_of, leaf_vars, term_filters


def is_simple(term: Term) -> bool:
    """Goal variable occurs as one of the spine premises."""
    return term_filters(term)[0]


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


def clean(term: Term) -> Term:
    """Drop easy premises bottom-up, in one pass.

    One bottom-up pass already reaches the fixpoint, by induction on the
    term: a pass returns either the pass of the right child, a fixpoint by
    induction, or a node whose children are fixpoints and whose left child is
    not easy, which a second pass would return unchanged.  The walk keeps its
    own stack, so depth is bounded only by memory, and it returns ``term``
    itself when nothing is dropped.

    Each spine is cleaned from its goal up, a compound premise before the
    node that holds it, and two facts about the cleaned tail ride along:
    *simple*, some bare premise is the goal, and *wanted*, some compound
    premise is ``v -> goal`` with ``v`` a variable.  A cleaned compound
    premise is then easy iff its spine is simple, or is wanted and passes
    ``is_mp``; no spine is walked twice, and ``is_mp`` runs only on the few
    wanted ones.

    The result proves intuitionistically iff the input does, and it evaluates
    identically under every boolean valuation (dropped premises are theorems).
    """
    stack = []  # per open compound premise: its node and its spine's state
    nodes = []  # the open spines' nodes not yet joined, innermost spine last
    node = term
    while True:
        lo = len(nodes)  # where this spine starts in nodes
        while type(node) is tuple:  # down the spine, to its goal
            nodes.append(node)
            node = node[1]
        goal = done = node  # done: the cleaned tail below the next node
        simple = wanted = False
        while True:  # up the spine, and up each spine it completes
            if len(nodes) > lo:
                node = nodes.pop()
                premise = node[0]
                if type(premise) is tuple:  # clean it first, as a spine of its own
                    stack.append((node, lo, goal, done, simple, wanted))
                    node = premise
                    break
                simple = simple or premise == goal
                done = node if done is node[1] else (premise, done)
            elif stack:
                premise, easy = done, simple or wanted and is_mp(done)
                node, lo, goal, done, simple, wanted = stack.pop()
                if easy:
                    continue
                if type(premise) is int:  # each premise it had was dropped
                    simple = simple or premise == goal
                elif premise[1] == goal and type(premise[0]) is int:
                    wanted = True
                done = node if premise is node[0] and done is node[1] else (premise, done)
            else:
                return done


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


class IntuitVerdict(NamedTuple):
    """All cascade verdicts for one term."""

    simple: bool
    mp: bool
    easy: bool
    minor_after_clean: bool
    cheap: bool
    cleaned: Term

    @property
    def cleaned_size(self) -> int:
        return len(leaf_vars(self.cleaned))


def cheap_verdict(term: Term, cleaned: Term, simple: bool) -> IntuitVerdict:
    """Full cascade: cheap means easy-or-minor after cleaning.

    ``cleaned`` is ``clean(term)`` and ``simple`` is ``is_simple(term)``, as
    ``experiment.classify`` reads them once for both verdicts.
    """
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
