"""Seeded uniform samplers: binary trees, set partitions, canonical expressions.

Trees are grown by random node insertion on a flat vector (one slot per node
label), partitions by drawing a class count from the exact table and then
labeling elements independently.  All randomness flows through SplitMix64
streams so that a (seed, sample index) pair pins down the sample on every
platform; ``stream_for_sample`` is the documented derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counting import StamTable
from .terms import (Shape, Term, canonicalize, decode_labelled_vector,
                    decode_remy_vector, shape_of)
# Not called here; perfbench's tracer times sampling.attach_vars, so the
# name stays importable from this module.
from .terms import attach_vars  # noqa: F401

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def random(self) -> float:
        """Uniform float in [0, 1) from the 53 high bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def stream_for_sample(seed: int, index: int) -> SplitMix64:
    """The stream that generates sample ``index`` of a run seeded ``seed``.

    Stable public contract: the stream seed is
    ``mix64(seed + (index + 1) * 0x9E3779B97F4A7C15 mod 2**64)``, so samples
    can be regenerated independently and in any order.
    """
    return SplitMix64(mix64((seed + (index + 1) * _GAMMA) & _MASK64))


def remy_step(vector: Sequence[int], n: int, x: int) -> list[int]:
    """One node insertion, growing a tree vector from n-1 to n leaves.

    ``x`` ranges over [0, 4(n-1) - 3]: its half picks the slot whose subtree
    gets a new internal node (labeled 2n-3) above it, and its parity picks the
    side of the new leaf (labeled 2n-2) - even hangs the old subtree on the
    left and the new leaf on the right, odd the other way around.
    """
    size = n - 1  # leaves before insertion
    if size < 1:
        raise ValueError("the vector must already encode at least one leaf")
    if len(vector) != 2 * size - 1:
        raise ValueError(
            f"expected {2 * size - 1} entries for {size} leaves, got {len(vector)}")
    if not 0 <= x <= 4 * size - 3:
        raise ValueError(f"insertion draw {x} out of range 0..{4 * size - 3}")
    out = list(vector)
    k = x >> 1
    old = out[k]
    node = 2 * size - 1
    leaf = 2 * size
    out[k] = node
    if x & 1:
        out.append(leaf)
        out.append(old)
    else:
        out.append(old)
        out.append(leaf)
    return out


def random_tree_vector(rng: SplitMix64, n: int) -> list[int]:
    """Insertion vector of a uniform n-leaf tree; exactly n-1 draws."""
    if n < 1:
        raise ValueError("trees have at least one leaf")
    v = [0] * (2 * n - 1)
    for size in range(1, n):  # leaves before this insertion
        x = rng.below(4 * size - 2)
        k = x >> 1
        old = v[k]
        v[k] = 2 * size - 1
        if x & 1:
            v[2 * size - 1] = 2 * size
            v[2 * size] = old
        else:
            v[2 * size - 1] = old
            v[2 * size] = 2 * size
    return v


def random_tree(rng: SplitMix64, n: int) -> Shape:
    """Uniform over the catalan(n-1) shapes with n leaves; linear time."""
    return shape_of(decode_remy_vector(random_tree_vector(rng, n), n))


@dataclass(frozen=True)
class ClassDescription:
    """Elementwise class labels drawn in [0, num_classes); possibly with gaps."""

    labels: tuple[int, ...]
    num_classes: int


def random_partition(rng: SplitMix64, table: StamTable) -> ClassDescription:
    """Uniform set partition of ``table.n`` elements, as a class description."""
    m = table.class_count(rng.random())
    labels = tuple(rng.below(m) for _ in range(table.n))
    return ClassDescription(labels=labels, num_classes=m)


def to_growth_string(description: ClassDescription) -> tuple[int, ...]:
    """Renumber a class description into its restricted growth string."""
    return canonicalize(description.labels)


def random_canonical(rng: SplitMix64, n: int, table: StamTable) -> Term:
    """Uniform canonical expression with n leaves: tree draw, then naming draw."""
    if table.n != n:
        raise ValueError(f"partition table built for n={table.n}, not n={n}")
    vector = random_tree_vector(rng, n)
    growth = to_growth_string(random_partition(rng, table))
    return decode_labelled_vector(vector, growth)
