"""Classical tautology decisions: the falsifier search and the status pipeline.

The implication semantics is ``val(e -> e') = val(e') or not val(e)``, which
flattens along a spine: ``val(p1 -> ... -> pk -> g)`` is true exactly when the
goal is true or some premise is false.  That flattening drives everything
here: the antilogy filter (``terms.term_filters``) certifies non-tautologies
with the valuation that sets the goal false and every other variable true, and
the falsifier search decomposes signed requirements on subterms, branching only
where a choice genuinely exists.  The search is complete for any number of
variables; only its work is bounded, by ``SEARCH_BUDGET`` choice points, so
``unknown`` means that budget ran out and nothing else.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .terms import Term, distinct_vars, goal_of, term_filters

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


class TautologyStatus(NamedTuple):
    """Decision plus certificate: the antilogy flag or a falsifying valuation.

    A non-tautology keeps its raw ``term`` and a partial ``falsifier``, which
    are neither compared, hashed nor printed: the goal false for an antilogy
    (cleaning keeps the goal), or the search's own assignment.
    """

    status: str
    certificate: Optional[str] = None
    term: Optional[Term] = None
    falsifier: Optional[Mapping[int, bool]] = None

    # Tuple equality would compare the terms, recursively; a deep one raises
    # RecursionError.  So these read the decision and certificate only.
    def __eq__(self, other):
        return isinstance(other, TautologyStatus) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"TautologyStatus(status={self.status!r}, certificate={self.certificate!r})"

    @property
    def reason(self) -> Optional[str]:
        """Why the status is unknown; None for a decided one."""
        return (f"falsifier search exhausted its budget of {SEARCH_BUDGET} choice points"
                if self.status == UNKNOWN else None)

    @property
    def witness(self) -> Optional[dict[int, bool]]:
        """A total falsifying valuation of the raw term, built when read.

        Variables dropped by cleaning, or left free by the search, may take
        any value; they get True.
        """
        if self.falsifier is None:
            return None
        return {v: self.falsifier.get(v, True) for v in distinct_vars(self.term)}


def tautology_status(term: Term, cleaned: Term) -> TautologyStatus:
    """Decide whether ``term`` is a classical tautology.

    ``cleaned`` is ``clean(term)``, which the caller has already built for
    the intuitionistic cascade; it decides as ``term`` does, since cleaning
    drops only theorems.  Pipeline: the antilogy filter on ``cleaned``, then
    the falsifier search.  A search that exhausts its budget is reported as
    unknown rather than guessed.
    """
    if term_filters(cleaned)[1]:
        return TautologyStatus(NOT_TAUTOLOGY, CERT_ANTILOGY, term=term,
                               falsifier={goal_of(cleaned): False})
    try:
        found = falsify_search(cleaned)
    except SearchBudgetExceeded:
        return TautologyStatus(UNKNOWN)
    if found is None:
        return TautologyStatus(TAUTOLOGY)
    return TautologyStatus(NOT_TAUTOLOGY, CERT_VALUATION, term=term, falsifier=found)
