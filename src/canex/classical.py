"""Classical tautology decisions: valuations, antilogy filter, falsifier search.

The implication semantics is ``val(e -> e') = val(e') or not val(e)``, which
flattens along a spine: ``val(p1 -> ... -> pk -> g)`` is true exactly when the
goal is true or some premise is false.  That flattening drives everything
here: the antilogy filter certifies non-tautologies with the valuation that
sets the goal false and every other variable true, and the falsifier search
decomposes signed requirements on subterms, branching only where a choice
genuinely exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .intuition import clean, is_simple
from .terms import Term, distinct_vars, goal_of, spine

TAUTOLOGY = "tautology"
NOT_TAUTOLOGY = "not-tautology"
UNKNOWN = "unknown"

CERT_ANTILOGY = "antilogy"
CERT_VALUATION = "valuation"


def evaluate(term: Term, valuation: Mapping[int, bool]) -> bool:
    """Boolean value of ``term`` under a total assignment."""
    if isinstance(term, int):
        try:
            return bool(valuation[term])
        except KeyError:
            raise ValueError(f"valuation is missing variable a{term}") from None
    left = evaluate(term[0], valuation)
    right = evaluate(term[1], valuation)
    return right or not left


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


def collapse_high_vars(term: Term, bound: int) -> Term:
    """Replace every variable index above ``bound`` by ``bound``.

    Any falsifying valuation of the collapsed term lifts to the original by
    giving all collapsed variables the bound's value; the result is generally
    not canonical, which is fine since it is only evaluated.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if isinstance(term, int):
        return term if term <= bound else bound
    left = collapse_high_vars(term[0], bound)
    right = collapse_high_vars(term[1], bound)
    if left is term[0] and right is term[1]:
        return term
    return (left, right)


def falsify_search(term: Term) -> Optional[dict[int, bool]]:
    """A falsifying valuation if one exists, else None.

    Signed-constraint search: requiring an implication false forces its
    premise true and its conclusion false (no branching), so the only choice
    points are implications required true, where either the premise goes
    false or the conclusion goes true.  The returned assignment may be
    partial; unmentioned variables are free.  Agrees exactly with full
    truth-table enumeration.
    """
    rho: dict[int, bool] = {}

    def attempt(pending: list) -> bool:
        # On success rho holds a consistent extension; on failure it is
        # restored to its state at entry.
        trail: list[int] = []
        stack = list(pending)
        deferred = []
        while stack:
            sign, node = stack.pop()
            if isinstance(node, int):
                known = rho.get(node)
                if known is None:
                    rho[node] = sign
                    trail.append(node)
                elif known is not sign:
                    for v in trail:
                        del rho[v]
                    return False
            elif sign:
                deferred.append(node)
            else:
                stack.append((True, node[0]))
                stack.append((False, node[1]))
        if deferred:
            first, rest = deferred[0], deferred[1:]
            rest_true = [(True, node) for node in rest]
            if attempt(rest_true + [(True, first[1])]):
                return True
            if attempt(rest_true + [(False, first[0])]):
                return True
            for v in trail:
                del rho[v]
            return False
        return True

    if attempt([(False, term)]):
        return dict(rho)
    return None


@dataclass(frozen=True)
class TautologyStatus:
    """Decision plus certificate: a falsifying valuation or the antilogy flag."""

    status: str
    certificate: Optional[str] = None
    witness: Optional[dict[int, bool]] = None
    reason: Optional[str] = None

    @property
    def is_tautology(self) -> bool:
        return self.status == TAUTOLOGY

    def as_dict(self) -> dict:
        out = {"status": self.status, "certificate": self.certificate}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _full_witness(term: Term, partial: Mapping[int, bool]) -> dict[int, bool]:
    # Variables dropped by cleaning (or collapsed away) may take any value;
    # fill with True so the witness is total on the original term.
    return {v: bool(partial.get(v, True)) for v in distinct_vars(term)}


def tautology_status(term: Term, max_vars: int = 32, *,
                     cleaned: Term | None = None) -> TautologyStatus:
    """Decide whether ``term`` is a classical tautology.

    Pipeline: clean, then the antilogy filter, then a falsifier search when at
    most ``max_vars`` distinct variables remain.  Wider terms are searched
    with indices above ``max_vars - 1`` collapsed together: a falsified
    collapse disproves the original, an unfalsified one is inconclusive and
    reported as unknown rather than guessed.
    """
    if max_vars < 1:
        raise ValueError("max_vars must be at least 1")
    if cleaned is None:
        cleaned = clean(term)
    if is_simple_antilogy(cleaned):
        # Cleaning keeps the goal, so the raw term's antilogy valuation is
        # the cleaned one's, extended by True to the dropped variables.
        return TautologyStatus(NOT_TAUTOLOGY, CERT_ANTILOGY, antilogy_valuation(term))
    variables = distinct_vars(cleaned)
    if len(variables) <= max_vars:
        found = falsify_search(cleaned)
        if found is None:
            return TautologyStatus(TAUTOLOGY)
        return TautologyStatus(NOT_TAUTOLOGY, CERT_VALUATION, _full_witness(term, found))
    bound = max_vars - 1
    found = falsify_search(collapse_high_vars(cleaned, bound))
    if found is None:
        return TautologyStatus(
            UNKNOWN,
            reason=f"{len(variables)} distinct variables exceed max_vars={max_vars} "
                   f"and the collapsed search found no falsifier")
    # The search may stop on a partial assignment; unassigned variables are
    # free, so default them (and the shared collapsed value) to True.
    lifted = {v: found.get(v if v <= bound else bound, True) for v in variables}
    return TautologyStatus(NOT_TAUTOLOGY, CERT_VALUATION, _full_witness(term, lifted))
