"""Seeded uniform samplers: binary trees, set partitions, canonical expressions.

Trees are grown by random node insertion on a flat vector (one slot per node
label), partitions by drawing a class count from Stam's distribution and then
labeling elements independently.  All randomness flows through SplitMix64
streams so that a (seed, sample index) pair pins down the sample on every
platform; ``stream_for_sample`` is the documented derivation.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .counting import stam_table
from .terms import (Shape, Term, canonicalize, decode_labelled_vector,
                    decode_remy_vector, shape_of)
# Not called here; perfbench's tracer times sampling.attach_vars, so the
# name stays importable from this module.
from .terms import attach_vars  # noqa: F401

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _lanes(k: int) -> tuple[int, int, int]:
    """Constants for ``take(k)``: k 128-bit lanes packed in one int.

    Lane j of ``ones`` holds 1, of ``steps`` ``(j+1)*gamma mod 2**64`` and of
    ``mask`` ``2**64 - 1``.  Built from bytes, in time linear in k; summing
    shifted ints would be quadratic.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * k, "little")
    steps = array("Q", bytes(16 * k))
    step = 0
    for j in range(0, 2 * k, 2):
        step = (step + _GAMMA) & _MASK64
        steps[j] = step
    if sys.byteorder == "big":
        steps.byteswap()
    return ones, int.from_bytes(steps.tobytes(), "little"), mask


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def take(self, k: int) -> list[int]:
        """The next k words, as k ``next_u64()`` calls would return them.

        SplitMix64 is counter-based: word j is ``mix64(state + (j+1)*gamma)``.
        Each word gets a 128-bit lane of one int and the finalizer runs on
        all lanes at once.  Masking each lane to 64 bits after a xor-shift
        clears the next lane's low bits that the shift brought in, and keeps
        the following 64x64-bit product inside its lane.
        """
        ones, steps, mask = _lanes(k)
        state = self._state
        self._state = (state + k * _GAMMA) & _MASK64
        z = (state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX_A & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX_B & mask
        z ^= z >> 31  # the bits this lets in from the next lane are dropped below
        lanes = array("Q", z.to_bytes(16 * k, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes[::2].tolist()

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


def random_tree_vector(rng: SplitMix64, n: int) -> list[int]:
    """Insertion vector of a uniform n-leaf tree, from n-1 accepted draws.

    Growing from ``size`` leaves, the draw x in [0, 4*size - 2) picks with
    its half the slot whose subtree gets a new internal node (labeled
    2*size - 1) above it, and with its parity the side of the new leaf
    (labeled 2*size): even hangs the old subtree on the left and the new
    leaf on the right, odd the other way around.  Each draw follows the
    rejection rule in README's determinism contract; the words come from one
    ``take``.
    """
    if n < 1:
        raise ValueError("trees have at least one leaf")
    v = [0] * (2 * n - 1)
    words = rng.take(n - 1)
    # Every bound is below 4n, so no word up to 2**64 - 4n is ever rejected.
    unrejectable = max(words, default=0) <= _TWO64 - 4 * n
    size = 1  # leaves before the next insertion
    for z in words:
        bound = 4 * size - 2
        x = z % bound
        if not unrejectable and z - x > _TWO64 - bound:
            # Rejected: retry with the next word.  The words left in the
            # list come next in the stream, and the appended one follows them.
            words.append(rng.next_u64())
            continue
        k = x >> 1
        old = v[k]
        v[k] = 2 * size - 1
        if x & 1:
            v[2 * size - 1] = 2 * size
            v[2 * size] = old
        else:
            v[2 * size - 1] = old
            v[2 * size] = 2 * size
        size += 1
    return v


def random_tree(rng: SplitMix64, n: int) -> Shape:
    """Uniform over the catalan(n-1) shapes with n leaves; linear time."""
    return shape_of(decode_remy_vector(random_tree_vector(rng, n), n))


@dataclass(frozen=True)
class ClassDescription:
    """Elementwise class labels drawn in [0, num_classes); possibly with gaps."""

    labels: tuple[int, ...]
    num_classes: int


def random_partition(rng: SplitMix64, n: int) -> ClassDescription:
    """Uniform set partition of ``n`` elements, as a class description.

    Stam's urn: a class count m from ``stam_table(n)`` (clamped to the
    table's length), then an independent label in [0, m) for each element.
    Each label follows the rejection rule in README's determinism contract;
    the words come from one ``take``.
    """
    table = stam_table(n)
    m = min(bisect_right(table, rng.random()) + 1, len(table))
    limit = _TWO64 - _TWO64 % m
    labels = [z % m for z in rng.take(n) if z < limit]
    while len(labels) < n:  # words were rejected: draw their retries
        z = rng.next_u64()
        if z < limit:
            labels.append(z % m)
    return ClassDescription(labels=tuple(labels), num_classes=m)


def to_growth_string(description: ClassDescription) -> tuple[int, ...]:
    """Renumber a class description into its restricted growth string."""
    return canonicalize(description.labels)


def random_canonical(rng: SplitMix64, n: int) -> Term:
    """Uniform canonical expression with n leaves: tree draw, then naming draw."""
    vector = random_tree_vector(rng, n)
    growth = to_growth_string(random_partition(rng, n))
    return decode_labelled_vector(vector, growth)
