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
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import NamedTuple, Sequence

from .counting import stam_table
from .terms import Term, canonicalize, decode_labelled_vector
# Not called here; perfbench's tracer times these three as sampling's names,
# so they stay importable from this module.
from .terms import attach_vars, decode_remy_vector, shape_of  # noqa: F401

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Inverses mod 2**64 of the three above, written out so importing computes nothing.
_GAMMA_INVERSE = 0xF1DE83E19937733D
_UNMIX_A = 0x96DE1B173F119089
_UNMIX_B = 0x319642B2D24D8EC3


def mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def unmix64(z: int) -> int:
    """Inverse of ``mix64``: undoes each xor-shift and multiply in turn."""
    z &= _MASK64
    z ^= z >> 31 ^ z >> 62
    z = (z * _UNMIX_B) & _MASK64
    z ^= z >> 27 ^ z >> 54
    z = (z * _UNMIX_A) & _MASK64
    return z ^ (z >> 30) ^ (z >> 60)


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

    def position(self) -> int:
        """Words drawn since state 0, mod 2**64.

        The word at position p is ``mix64(p * gamma mod 2**64)``, so the next
        word is at position ``position() + 1``.
        """
        return self._state * _GAMMA_INVERSE & _MASK64

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
    a = 1  # label of the next internal node, 2*size - 1; its new leaf is a + 1
    for z in words:
        x = z % (2 * a)
        if not unrejectable and z - x > _TWO64 - 2 * a:
            # Rejected: retry with the next word.  The words left in the
            # list come next in the stream, and the appended one follows them.
            words.append(rng.next_u64())
            continue
        k = x >> 1
        old = v[k]
        v[k] = a
        if x & 1:
            v[a] = a + 1
            v[a + 1] = old
        else:
            v[a] = old
            v[a + 1] = a + 1
        a += 2
    return v


class ClassDescription(NamedTuple):
    """Elementwise class labels drawn in [0, num_classes); possibly with gaps.

    ``labels`` is a tuple if a label word is among the ``2**b`` largest, else a ``LabelReader``;
    for m = num_classes of b bits, the draw rejects only ``2**64 % m < m < 2**b`` of them.
    """

    labels: Sequence[int]
    num_classes: int


def _draw_labels(rng: SplitMix64, n: int, m: int) -> tuple[int, ...]:
    """n labels in [0, m) by the rejection rule; the words come from one ``take``."""
    limit = _TWO64 - _TWO64 % m
    labels = [z % m for z in rng.take(n) if z < limit]
    while len(labels) < n:  # words were rejected: draw their retries
        z = rng.next_u64()
        if z < limit:
            labels.append(z % m)
    return tuple(labels)


@lru_cache(maxsize=None)
def _top_positions(bits: int) -> array:
    """Sorted stream positions of the ``2**bits`` largest words; built on first use.

    A label draw for m rejects the ``2**64 % m < m < 2**bits`` largest words when
    m.bit_length() == bits, so these hold them all.  Word z is at ``unmix64(z) * gamma**-1``.
    """
    return array("Q", sorted(unmix64(z) * _GAMMA_INVERSE & _MASK64
                             for z in range(_TWO64 - (1 << bits), _TWO64)))


def _any_in_window(positions: array, first: int, k: int) -> bool:
    """Whether sorted ``positions`` hold one of first, first + 1, ..., first + k - 1, mod 2**64."""
    i = bisect_left(positions, first)
    if i < len(positions) and positions[i] - first < k:
        return True
    # A window that wraps past 2**64 goes on from position 0.
    return bool(positions) and positions[0] < first + k - _TWO64


class LabelReader:
    """The labels of a label draw that rejects no word, each computed when read.

    Label j is ``mix64(state + (j + 1) * gamma) % m``, for ``state`` the stream's
    state before the labels; iterating computes all n in one ``take`` from it.
    """

    __slots__ = ("_state", "_n", "_m")

    def __init__(self, state: int, n: int, m: int):
        self._state, self._n, self._m = state, n, m

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j: int) -> int:
        if j < 0:
            j += self._n
        if not 0 <= j < self._n:
            raise IndexError("label index out of range")
        return mix64(self._state + (j + 1) * _GAMMA) % self._m

    def __iter__(self):
        m = self._m
        return iter([z % m for z in SplitMix64(self._state).take(self._n)])


def random_partition(rng: SplitMix64, n: int) -> ClassDescription:
    """Uniform set partition of ``n`` elements, as a class description.

    Stam's urn: a class count m from ``stam_table(n)`` (clamped to the
    table's length), then an independent label in [0, m) for each element,
    by the rejection rule in README's determinism contract.  One ``bisect`` tells
    whether a label word is among the ``2**b`` largest, b = m.bit_length(), which
    hold every word the draw rejects (``2**64 % m < m < 2**b``).  If none is, the
    labels are a ``LabelReader`` over the stream's state and the stream skips their
    n words; else they are drawn in full.  Either way the stream ends past them.
    """
    table = stam_table(n)
    m = min(bisect_right(table, rng.random()) + 1, len(table))
    if _any_in_window(_top_positions(m.bit_length()), (rng.position() + 1) & _MASK64, n):
        return ClassDescription(_draw_labels(rng, n, m), m)
    state = rng._state
    rng._state = (state + n * _GAMMA) & _MASK64
    return ClassDescription(LabelReader(state, n, m), m)


def to_growth_string(description: ClassDescription) -> tuple[int, ...]:
    """Renumber a class description into its restricted growth string.

    The labels are computed in one block first; read one at a time, a
    ``LabelReader`` would cost one ``mix64`` per label.
    """
    return canonicalize(tuple(description.labels))


def random_canonical(rng: SplitMix64, n: int) -> Term:
    """Uniform canonical expression with n leaves: tree draw, then naming draw."""
    vector = random_tree_vector(rng, n)
    growth = to_growth_string(random_partition(rng, n))
    return decode_labelled_vector(vector, growth)
