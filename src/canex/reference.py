"""Ground truth for tests: exhaustive enumeration, a complete intuitionistic
prover, and a truth-table tautology checker.

The enumeration order is fixed so regression fixtures stay byte-stable: trees
by ascending left-subtree size (recursively), crossed with growth strings in
lexicographic order, trees outermost.

The prover runs contraction-free proof search for the implicational fragment:
an implication goal moves its premise into the context; an atomic goal closes
when present in the context; an implication with an atomic antecedent present
in the context is replaced by its conclusion (invertible, applied eagerly);
and for a nested implication (C -> D) -> B the two subgoals are
``context - {it} + (D -> B) |- C -> D`` and ``context - {it} + B |- goal``.
Every rule shrinks the sequent weight, so the search terminates without loop
checks. Each call memoizes its own sequents, so no state outlives it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .terms import Shape, Term, attach_vars, leaf_vars

ENUMERATION_CAP = 9


@lru_cache(maxsize=None)
def all_shapes(n: int) -> tuple[Shape, ...]:
    """Every shape with n leaves, ordered by ascending left size, recursively."""
    if n < 1:
        raise ValueError("shapes have at least one leaf")
    if n == 1:
        return (None,)
    out = []
    for left_size in range(1, n):
        for left in all_shapes(left_size):
            for right in all_shapes(n - left_size):
                out.append((left, right))
    return tuple(out)


def _growth_strings_reversed(n: int) -> Iterator[tuple[int, ...]]:
    # Build right to left: first entry 0, each next at most max-so-far + 1.
    rev = [0] * n

    def extend(pos: int, highest: int):
        if pos == n:
            yield tuple(rev)
            return
        for value in range(highest + 2):
            rev[pos] = value
            yield from extend(pos + 1, highest if value <= highest else value)

    yield from extend(1, 0) if n > 1 else iter((tuple(rev),))


@lru_cache(maxsize=None)
def all_growth_strings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every growth string of length n, lexicographically ordered."""
    if n < 1:
        raise ValueError("growth strings have length at least 1")
    return tuple(sorted(tuple(reversed(r)) for r in _growth_strings_reversed(n)))


def enumerate_canonical(n: int) -> Iterator[Term]:
    """All count_canonical(n) canonical expressions, each exactly once."""
    if n < 1:
        raise ValueError("expressions have at least one leaf")
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration is capped at n={ENUMERATION_CAP}")
    strings = all_growth_strings(n)
    for shape in all_shapes(n):
        for growth in strings:
            yield attach_vars(shape, growth)


def prove_intuitionistic(term: Term) -> bool:
    """True iff ``term`` is an intuitionistic theorem of the implicational fragment."""
    return _proves(frozenset(), term, {})


def _proves(context: frozenset, goal: Term, cache: dict) -> bool:
    while isinstance(goal, tuple):
        context = context | {goal[0]}
        goal = goal[1]
    if goal in context:
        return True
    key = (context, goal)
    cached = cache.get(key)
    if cached is not None:
        return cached
    # Eagerly discharge implications whose atomic antecedent is present.
    work = set(context)
    changed = True
    while changed:
        changed = False
        for f in list(work):
            if isinstance(f, tuple) and isinstance(f[0], int) and f[0] in work:
                work.discard(f)
                if f[1] not in work:
                    work.add(f[1])
                changed = True
    if goal in work:
        cache[key] = True
        return True
    saturated = frozenset(work)
    result = False
    for f in saturated:
        if isinstance(f, tuple) and isinstance(f[0], tuple):
            (c, d), b = f
            rest = saturated - {f}
            if (_proves(rest | {(d, b)}, (c, d), cache)
                    and _proves(rest | {b}, goal, cache)):
                result = True
                break
    cache[key] = result
    return result


_TRUTH_TABLE_VAR_CAP = 20


def truth_table_tautology(term: Term) -> bool:
    """Check all 2^m assignments at once with variable-wide bit lanes.

    Each variable's column across every assignment is packed into one big
    integer, so a single bottom-up pass evaluates the whole table; lane i of
    the result is the term's value under assignment i.
    """
    variables = sorted(set(leaf_vars(term)))
    m = len(variables)
    if m > _TRUTH_TABLE_VAR_CAP:
        raise ValueError(
            f"truth table refuses {m} variables (cap {_TRUTH_TABLE_VAR_CAP})")
    width = 1 << m
    full = (1 << width) - 1
    masks = {}
    for i, v in enumerate(variables):
        half = 1 << i
        tile = full // ((1 << (half << 1)) - 1)
        masks[v] = (((1 << half) - 1) << half) * tile

    def value(node: Term) -> int:
        acc = 0
        while isinstance(node, tuple):
            premise, node = node
            acc |= full ^ value(premise)
            if acc == full:
                return full
        return acc | masks[node]

    return value(term) == full


def chi_square(observed: Sequence[float], expected: Sequence[float]) -> float:
    """Pearson statistic, sum of (o - e)^2 / e."""
    if len(observed) != len(expected):
        raise ValueError("observed and expected must have the same length")
    if any(e <= 0 for e in expected):
        raise ValueError("expected counts must be positive")
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))
