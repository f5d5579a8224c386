"""Hypothesis runs the same examples on every run of the suite.

Strategies and oracles shared by several test modules live here too; import
them with ``from conftest import ...``.  The oracles are functions no ``canex``
command runs, kept here as the tests' own reference.
"""

from typing import Mapping

from hypothesis import settings, strategies as st

from canex import experiment
from canex.sampling import SplitMix64, random_tree_vector
from canex.terms import Shape, Term, decode_labelled_vector, distinct_vars, goal_of

settings.register_profile("deterministic", derandomize=True, max_examples=200,
                          deadline=None)
settings.load_profile("deterministic")


@st.composite
def terms_up_to_20_vars(draw, max_leaves=40):
    """Up to ``max_leaves`` leaves labelled from 20 variables, split at drawn points."""
    size = draw(st.integers(1, max_leaves))
    labels = draw(st.lists(st.integers(0, 19), min_size=size, max_size=size))

    def build(lo, hi):
        if hi - lo == 1:
            return labels[lo]
        mid = draw(st.integers(lo + 1, hi - 1))
        return (build(lo, mid), build(mid, hi))

    return build(0, len(labels))


def left_chain(depth: int, start: int = 1, skip: int = 0):
    """``((start -> x) -> x') -> ...``, the goals alternating and ending in a0."""
    term = start
    for i in range(skip, depth):
        term = (term, (depth - 1 - i) % 2)
    return term


class ScriptedDraws(SplitMix64):
    """Answers ``take`` with a fixed list of draws.

    Each scripted x lies in [0, bound), so the sampler accepts it and reads
    ``x % bound == x``; a retry (``next_u64``) would mean one was out of range.
    """

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def take(self, k):
        assert k == len(self.draws)
        return list(self.draws)

    def next_u64(self):
        raise AssertionError("a scripted draw was out of range")


def random_tree(rng: SplitMix64, n: int) -> Shape:
    """Uniform over the catalan(n-1) shapes with n leaves; linear time."""
    return decode_labelled_vector(random_tree_vector(rng, n), [None] * n)


def spine(term: Term) -> tuple[tuple, int]:
    """``p1 -> p2 -> ... -> pk -> g`` split into ``(premises, goal)``."""
    premises = []
    node = term
    while isinstance(node, tuple):
        premises.append(node[0])
        node = node[1]
    return tuple(premises), node


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


def antilogy_valuation(term: Term) -> dict[int, bool]:
    """Goal false, every other variable true."""
    goal = goal_of(term)
    return {v: v != goal for v in distinct_vars(term)}


def simple_rate(n: int, count: int, seed: int = experiment.DEFAULT_SEED,
                workers: int = 1) -> float:
    """Fraction of samples that are simple; same streams as run_experiment."""
    return experiment._simple_rates([n], count, seed, workers)[0]
