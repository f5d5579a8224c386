"""Hypothesis runs the same examples on every run of the suite.

Strategies shared by several test modules live here too; import them with
``from conftest import ...``.
"""

from hypothesis import settings, strategies as st

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
