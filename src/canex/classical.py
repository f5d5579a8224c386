"""Classical tautology decisions: valuations, antilogy filter, falsifier search.

The implication semantics is ``val(e -> e') = val(e') or not val(e)``, which
flattens along a spine: ``val(p1 -> ... -> pk -> g)`` is true exactly when the
goal is true or some premise is false.  That flattening drives everything
here: the antilogy filter certifies non-tautologies with the valuation that
sets the goal false and every other variable true, and the falsifier search
decomposes signed requirements on subterms, branching only where a choice
genuinely exists.  The search is complete for any number of variables; only
its work is bounded, by ``SEARCH_BUDGET`` choice points, so ``unknown`` means
that budget ran out and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .intuition import clean, is_simple
from .terms import Term, distinct_vars, goal_of, spine

TAUTOLOGY = "tautology"
NOT_TAUTOLOGY = "not-tautology"
UNKNOWN = "unknown"

CERT_ANTILOGY = "antilogy"
CERT_VALUATION = "valuation"

# Choice points (frames falsify_search pops) before a search gives up.
# Sampled terms need a few thousand at most (n=100); a pigeonhole tautology
# PHP(4,3) needs about 131 thousand, so this bounds the worst case at seconds.
SEARCH_BUDGET = 1 << 20


class SearchBudgetExceeded(Exception):
    """falsify_search used up SEARCH_BUDGET choice points without deciding."""


def evaluate(term: Term, valuation: Mapping[int, bool]) -> bool:
    """Boolean value of ``term`` under a total assignment.

    A post-order walk with its own stack, so depth is bounded only by memory.
    """
    done: list[bool] = []
    work = [term]
    while work:
        node = work.pop()
        if node is None:  # both children are evaluated: join them
            right = done.pop()
            done[-1] = right or not done[-1]
        elif isinstance(node, int):
            try:
                done.append(bool(valuation[node]))
            except KeyError:
                raise ValueError(f"valuation is missing variable a{node}") from None
        else:
            work += (None, node[1], node[0])
    return done[0]


def is_simple_antilogy(term: Term) -> bool:
    """Certified non-tautology: every premise survives the goal-false valuation.

    With goal g, each premise must either have a goal different from g (it
    then evaluates true when everything but g is true) or be simple with goal
    g (its own false goal appears among its premises).  A bare variable
    premise counts through its goal, so a premise equal to g itself defeats
    the filter.  Setting g false and all other variables true then falsifies
    the whole term.
    """
    premises, goal = spine(term)
    for p in premises:
        if goal_of(p) != goal:
            continue
        if isinstance(p, int) or not is_simple(p):
            return False
    return True


def is_simple_non_tautology(term: Term) -> bool:
    """The restricted antilogy class: every premise's goal differs from the goal."""
    premises, goal = spine(term)
    return all(goal_of(p) != goal for p in premises)


def antilogy_valuation(term: Term) -> dict[int, bool]:
    """Goal false, every other variable true."""
    goal = goal_of(term)
    return {v: v != goal for v in distinct_vars(term)}


def falsify_search(term: Term) -> Optional[dict[int, bool]]:
    """A falsifying valuation if one exists, else None.

    Signed-constraint search: requiring an implication false forces its
    premise true and its conclusion false (no branching), so the only choice
    points are implications required true, where either the premise goes
    false or the conclusion goes true.  The returned assignment may be
    partial; unmentioned variables are free.  Agrees exactly with full
    truth-table enumeration.  Raises ``SearchBudgetExceeded`` once
    ``SEARCH_BUDGET`` choice points have been tried without a decision.

    One loop over choice points, depth first, with its own stack: a frame
    ``(deferred, sign, node, mark)`` requires ``node`` to take ``sign`` on
    top of the implications ``deferred`` still required true.  Every
    assignment goes on one trail; popping a frame first undoes the trail
    back to ``mark``, its length when the frame was pushed.
    """
    rho: dict[int, bool] = {}
    trail: list[int] = []
    frames: list[tuple] = [([], False, term, 0)]
    calls = 0
    while frames:
        deferred, sign, node, mark = frames.pop()
        while len(trail) > mark:
            del rho[trail.pop()]
        calls += 1
        if calls > SEARCH_BUDGET:
            raise SearchBudgetExceeded
        new = []
        stack = [(sign, node)]
        while stack:
            sign, node = stack.pop()
            if isinstance(node, int):
                known = rho.get(node)
                if known is None:
                    rho[node] = sign
                    trail.append(node)
                elif known is not sign:
                    break  # conflict: the next frame undoes this one
            elif sign:
                new.append(node)
            else:
                stack.append((True, node[0]))
                stack.append((False, node[1]))
        else:
            # New requirements first, then the inherited ones reversed: the
            # order in which the depth-first tableau meets them.
            pending = new + deferred[::-1]
            if not pending:
                return dict(rho)
            first, rest = pending[0], pending[1:]
            mark = len(trail)
            frames.append((rest, False, first[0], mark))
            frames.append((rest, True, first[1], mark))
    return None


@dataclass(frozen=True)
class TautologyStatus:
    """Decision plus certificate: the antilogy flag or a falsifying valuation.

    A non-tautology keeps its raw ``term`` and a partial ``falsifier``, which
    are neither compared nor printed: the goal false for an antilogy
    (cleaning keeps the goal), or the search's own assignment.
    """

    status: str
    certificate: Optional[str] = None
    reason: Optional[str] = None
    term: Optional[Term] = field(default=None, compare=False, repr=False)
    falsifier: Optional[Mapping[int, bool]] = field(
        default=None, compare=False, repr=False)

    @property
    def witness(self) -> Optional[dict[int, bool]]:
        """A total falsifying valuation of the raw term, built when read.

        Variables dropped by cleaning, or left free by the search, may take
        any value; they get True.
        """
        if self.falsifier is None:
            return None
        return {v: self.falsifier.get(v, True) for v in distinct_vars(self.term)}


def tautology_status(term: Term, *, cleaned: Term | None = None) -> TautologyStatus:
    """Decide whether ``term`` is a classical tautology.

    Pipeline: clean, then the antilogy filter, then the falsifier search.
    A search that exhausts its budget is reported as unknown rather than
    guessed.
    """
    if cleaned is None:
        cleaned = clean(term)
    if is_simple_antilogy(cleaned):
        return TautologyStatus(NOT_TAUTOLOGY, CERT_ANTILOGY, term=term,
                               falsifier={goal_of(cleaned): False})
    try:
        found = falsify_search(cleaned)
    except SearchBudgetExceeded:
        return TautologyStatus(
            UNKNOWN, reason=f"falsifier search exhausted its budget of "
                            f"{SEARCH_BUDGET} choice points")
    if found is None:
        return TautologyStatus(TAUTOLOGY)
    return TautologyStatus(NOT_TAUTOLOGY, CERT_VALUATION, term=term, falsifier=found)
