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


def is_mp(term: Term, include_compound: bool = False) -> bool:
    """Premises contain some variable v together with v -> goal.

    ``include_compound`` widens v to arbitrary premises (still sound, but not
    part of the default cascade, whose statistics assume the narrow pattern).
    """
    premises, goal = spine(term)
    if include_compound:
        present = set(premises)
        return any(
            isinstance(p, tuple) and p[1] == goal and p[0] in present
            for p in premises)
    variables = {p for p in premises if isinstance(p, int)}
    return any(
        isinstance(p, tuple) and p[1] == goal
        and isinstance(p[0], int) and p[0] in variables
        for p in premises)


def is_easy(term: Term) -> bool:
    return is_simple(term) or is_mp(term)


def _clean_pass(term: Term) -> Term:
    if isinstance(term, int):
        return term
    left = _clean_pass(term[0])
    right = _clean_pass(term[1])
    if is_easy(left):
        return right
    if left is term[0] and right is term[1]:
        return term
    return (left, right)


def clean(term: Term) -> Term:
    """Drop easy premises bottom-up, in one pass.

    One bottom-up pass already reaches the fixpoint, by induction on the
    term: a pass returns either the pass of the right child, a fixpoint by
    induction, or a node whose children are fixpoints and whose left child is
    not easy, which a second pass would return unchanged.

    The result proves intuitionistically iff the input does, and it evaluates
    identically under every boolean valuation (dropped premises are theorems).
    """
    return _clean_pass(term)


def is_minor(term: Term) -> bool:
    """Some premise equals a later tail of the spine.

    With premises p1..pk and goal g, the tails are t_m = pm -> ... -> g and
    t_{k+1} = g; the term is minor when p_i == t_m for some i < m.  Taking
    t_{k+1} recovers the simple case, so simple implies minor.
    """
    premises, goal = spine(term)
    k = len(premises)
    tail: Term = goal
    tails = [None] * (k + 2)
    tails[k + 1] = tail
    for m in range(k, 0, -1):
        tail = (premises[m - 1], tail)
        tails[m] = tail
    seen = set()
    for m in range(2, k + 2):
        seen.add(premises[m - 2])
        if tails[m] in seen:
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
    cheap = is_easy(cleaned) or minor_after
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
