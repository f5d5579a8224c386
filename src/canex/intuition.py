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

from .terms import Term, leaf_count, spine


def is_simple(term: Term) -> bool:
    """Goal variable occurs as one of the spine premises."""
    premises, goal = spine(term)
    return any(p == goal for p in premises if isinstance(p, int))


def is_mp(term: Term) -> bool:
    """Premises contain some variable v together with v -> goal."""
    premises, goal = spine(term)
    variables = {p for p in premises if isinstance(p, int)}
    return any(
        isinstance(p, tuple) and p[1] == goal
        and isinstance(p[0], int) and p[0] in variables
        for p in premises)


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
    """
    seen = set()
    node = term
    while isinstance(node, tuple):
        seen.add(node[0])
        node = node[1]
        if node in seen:
            return True
    return False


@dataclass(frozen=True)
class IntuitVerdict:
    """All cascade verdicts for one term."""

    simple: bool
    mp: bool
    easy: bool
    minor_after_clean: bool
    cheap: bool
    cleaned_size: int
    cleaned: Term

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
        cleaned_size=leaf_count(cleaned),
        cleaned=cleaned,
    )


def is_cheap(term: Term) -> bool:
    return cheap_verdict(term).cheap
