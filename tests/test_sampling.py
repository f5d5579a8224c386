import math
import subprocess
import sys
from array import array
from bisect import bisect_right
from collections import Counter

import pytest
from conftest import ScriptedDraws, random_tree

from canex.counting import bell, count_canonical, stam_table
from canex.reference import all_shapes, chi_square, enumerate_canonical
from canex import sampling
from canex.sampling import (ClassDescription, LabelReader, SplitMix64, mix64,
                            random_canonical, random_partition, random_tree_vector,
                            stream_for_sample, to_growth_string, unmix64)
from canex.terms import (attach_vars, canonicalize, decode_remy_vector,
                         is_valid_growth_string, leaf_vars, render,
                         shape_of)

# Upper 0.001 tail of the chi-square distribution.
CHI2_CRIT = {2: 13.816, 4: 18.467, 9: 27.877, 13: 34.528, 14: 36.123}

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

SECOND_TABLE = [1, 13, 0, 2, 5, 9, 7, 8, 4, 11, 6, 12, 10, 15, 3, 16, 14]
FIRST_TABLE = [1, 13, 0, 2, 5, 9, 7, 8, 4, 11, 17, 12, 10, 15, 3, 16, 14, 18, 6]


class TestSplitMix64:
    def test_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_known_first_value(self):
        # First output for seed 0 is mix64(golden gamma); frozen to pin the
        # stream contract across releases.
        assert SplitMix64(0).next_u64() == mix64(0x9E3779B97F4A7C15)

    def test_below_range_and_coverage(self):
        rng = SplitMix64(7)
        seen = {below(rng, 5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            below(rng, 0)

    def test_random_unit_interval(self):
        rng = SplitMix64(11)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    @pytest.mark.parametrize("k", [0, 1, 2, 127, 200_000])
    def test_take_equals_next_u64_calls(self, k):
        # 200,000 words take well under a second; a lane build quadratic in
        # k would take minutes.
        block, scalar = SplitMix64(2718281828), SplitMix64(2718281828)
        assert block.take(k) == [scalar.next_u64() for _ in range(k)]
        assert block.next_u64() == scalar.next_u64()

    def test_take_at_the_top_of_the_state_space(self):
        # Lanes whose state wraps past 2**64 and words at both ends of the range.
        for seed in (MASK64, MASK64 - GAMMA, unmix64(0) - GAMMA, unmix64(MASK64) - 3 * GAMMA):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            assert block.take(5) == [scalar.next_u64() for _ in range(5)]

    def test_inverse_constants(self):
        for a, b in ((GAMMA, sampling._GAMMA_INVERSE), (sampling._MIX_A, sampling._UNMIX_A),
                     (sampling._MIX_B, sampling._UNMIX_B)):
            assert a * b & MASK64 == 1

    def test_position(self):
        for seed in (2718281828, MASK64):
            rng = SplitMix64(seed)
            start = rng.position()
            rng.take(10)
            assert rng.position() == (start + 10) & MASK64
            assert rng.next_u64() == mix64((start + 11) * GAMMA & MASK64)

    def test_stream_derivation_contract(self):
        seed, index = 987654321, 13
        expected = SplitMix64(mix64((seed + (index + 1) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)))
        derived = stream_for_sample(seed, index)
        assert [derived.next_u64() for _ in range(5)] == [expected.next_u64() for _ in range(5)]


class TestRemyStep:
    """Worked node insertions, replayed through random_tree_vector."""

    GROWTH = [1, 2, 9, 13, 11, 19, 3, 27]  # builds SECOND_TABLE (9 leaves)

    def test_worked_insertions_build_the_second_table(self):
        assert random_tree_vector(ScriptedDraws(self.GROWTH), 9) == SECOND_TABLE

    def test_worked_insertion_odd(self):
        assert random_tree_vector(ScriptedDraws(self.GROWTH + [21]), 10) == FIRST_TABLE

    def test_worked_insertion_even(self):
        out = random_tree_vector(ScriptedDraws(self.GROWTH + [8]), 10)
        assert out[4] == 17
        assert out[17] == 5
        assert out[18] == 18

    def test_base_case_even(self):
        assert random_tree_vector(ScriptedDraws([0]), 2) == [1, 0, 2]
        tree = decode_remy_vector([1, 0, 2], 2)
        assert shape_of(tree) == (None, None)

    def test_base_case_odd(self):
        assert random_tree_vector(ScriptedDraws([1]), 2) == [1, 2, 0]


class TestRandomTree:
    def test_single_leaf(self):
        assert random_tree(SplitMix64(5), 1) is None
        assert random_tree_vector(SplitMix64(5), 1) == [0]

    def test_structural_at_hundred(self):
        tree = decode_remy_vector(random_tree_vector(SplitMix64(31337), 100), 100)
        assert len(leaf_vars(tree)) == 100
        labels = leaf_vars(tree)
        assert sorted(labels) == sorted(range(0, 199, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
    def test_shape_of_the_decoded_vector(self, n):
        for i in range(20):
            vector = random_tree_vector(stream_for_sample(4242, i), n)
            expected = shape_of(decode_remy_vector(vector, n))
            assert random_tree(stream_for_sample(4242, i), n) == expected

    def test_exactly_n_minus_one_draws(self):
        rng, fresh = SplitMix64(3), SplitMix64(3)
        random_tree(rng, 64)
        assert rng.next_u64() == [fresh.next_u64() for _ in range(64)][-1]

    def test_uniform_shapes_n4(self):
        bins = Counter()
        draws = 50000
        for i in range(draws):
            bins[random_tree(stream_for_sample(12358, i), 4)] += 1
        shapes = all_shapes(4)
        assert len(shapes) == 5
        stat = chi_square([bins[s] for s in shapes], [draws / 5] * 5)
        assert stat < CHI2_CRIT[4]

    def test_uniform_shapes_n3(self):
        bins = Counter()
        draws = 20000
        for i in range(draws):
            bins[random_tree(stream_for_sample(5, i), 3)] += 1
        stat = chi_square([bins[s] for s in all_shapes(3)], [draws / 2] * 2)
        assert stat < CHI2_CRIT[2] + 3  # df=1: 10.828
        assert len(bins) == 2

    def test_uniform_shapes_n5(self):
        bins = Counter()
        draws = 50000
        for i in range(draws):
            bins[random_tree(stream_for_sample(777, i), 5)] += 1
        shapes = all_shapes(5)
        assert len(shapes) == 14
        stat = chi_square([bins[s] for s in shapes], [draws / 14] * 14)
        assert stat < CHI2_CRIT[13]


class TestRandomPartition:
    def test_single_element(self):
        for i in range(50):
            d = random_partition(stream_for_sample(9, i), 1)
            assert to_growth_string(d) == (0,)

    def test_kernel_invariance(self):
        a = ClassDescription(labels=(2, 2, 0), num_classes=3)
        b = ClassDescription(labels=(1, 1, 0), num_classes=2)
        assert to_growth_string(a) == to_growth_string(b) == (1, 1, 0)

    def test_growth_string_examples(self):
        d = ClassDescription(labels=(5, 9, 9, 5, 9, 5, 2, 5, 5, 5), num_classes=10)
        assert to_growth_string(d) == (0, 2, 2, 0, 2, 0, 1, 0, 0, 0)
        assert to_growth_string(ClassDescription((0, 0, 0), 1)) == (0, 0, 0)
        assert to_growth_string(ClassDescription((0, 1), 2)) == (1, 0)

    def test_labels_within_range(self):
        for i in range(200):
            d = random_partition(stream_for_sample(17, i), 12)
            assert len(d.labels) == 12
            assert all(0 <= x < d.num_classes for x in d.labels)

    def test_uniform_partitions_n4(self):
        draws = 75000
        bins = Counter()
        for i in range(draws):
            bins[to_growth_string(random_partition(stream_for_sample(12358, i), 4))] += 1
        assert len(bins) == bell(4) == 15
        stat = chi_square(list(bins.values()), [draws / 15] * 15)
        assert stat < CHI2_CRIT[14]

    def test_uniform_partitions_n3(self):
        draws = 30000
        bins = Counter()
        for i in range(draws):
            bins[to_growth_string(random_partition(stream_for_sample(4, i), 3))] += 1
        assert len(bins) == 5
        stat = chi_square(list(bins.values()), [draws / 5] * 5)
        assert stat < CHI2_CRIT[4]


class TestRandomCanonical:
    def test_single_leaf(self):
        assert random_canonical(stream_for_sample(1, 0), 1) == 0
        assert render(random_canonical(stream_for_sample(1, 1), 1)) == "a0"

    def test_structure_at_hundred(self):
        term = random_canonical(stream_for_sample(12358, 0), 100)
        assert len(leaf_vars(term)) == 100
        assert is_valid_growth_string(leaf_vars(term))

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_one_walk_build_matches_reference_path(self, n):
        # random_canonical builds in one walk; the reference decodes the
        # vector, forgets the leaf labels and attaches the growth string.
        for i in range(500):
            fast, slow = stream_for_sample(31, i), stream_for_sample(31, i)
            shape = shape_of(decode_remy_vector(random_tree_vector(slow, n), n))
            growth = to_growth_string(random_partition(slow, n))
            assert random_canonical(fast, n) == attach_vars(shape, growth)
            assert fast.next_u64() == slow.next_u64()

    def test_deterministic_and_order_independent(self):
        forward = [random_canonical(stream_for_sample(77, i), 9) for i in range(10)]
        backward = [random_canonical(stream_for_sample(77, i), 9)
                    for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_uniform_joint_n3(self):
        draws = 100000
        bins = Counter()
        for i in range(draws):
            bins[random_canonical(stream_for_sample(12358, i), 3)] += 1
        population = list(enumerate_canonical(3))
        assert len(population) == count_canonical(3) == 10
        stat = chi_square([bins[t] for t in population], [draws / 10] * 10)
        assert stat < CHI2_CRIT[9]

    def test_sampled_simple_rate_matches_exhaustive(self):
        # Ground-truth cross-check of the joint sampler at a size far beyond
        # the chi-square bins: the exact simple rate at n=8 is 323519/1776060.
        from canex.intuition import is_simple
        draws = 60000
        hits = sum(is_simple(random_canonical(stream_for_sample(424242, i), 8))
                   for i in range(draws))
        exact = 323519 / 1776060
        sigma = math.sqrt(exact * (1 - exact) / draws)
        assert abs(hits / draws - exact) < 4.5 * sigma


def below(rng: SplitMix64, bound: int) -> int:
    """Uniform integer in [0, bound), one word at a time, by the rejection rule."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    limit = (1 << 64) - ((1 << 64) % bound)
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % bound


def scalar_tree_vector(rng: SplitMix64, n: int) -> list[int]:
    """The sampler's tree draw as one ``below`` call per insertion."""
    v = [0] * (2 * n - 1)
    for size in range(1, n):
        x = below(rng, 4 * size - 2)
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


def scalar_partition(rng: SplitMix64, n: int) -> ClassDescription:
    """The sampler's partition draw as one ``below`` call per label."""
    table = stam_table(n)
    m = min(bisect_right(table, rng.random()) + 1, len(table))
    return ClassDescription(labels=tuple(below(rng, m) for _ in range(n)), num_classes=m)


def forced_stream(j: int, word: int) -> SplitMix64:
    """A stream whose j-th draw (from 1) is ``word``."""
    return SplitMix64(unmix64(word) - j * GAMMA)


class TestBlockDrawsMatchScalarReference:
    """``take``-fed samplers against one ``below`` call per word."""

    def test_unmix64_inverts_mix64(self):
        for z in (0, 1, MASK64, MASK64 - 1, GAMMA, *(mix64(i) for i in range(200))):
            assert mix64(unmix64(z)) == z
            assert unmix64(mix64(z)) == z

    @staticmethod
    def assert_same_sample(fast: SplitMix64, slow: SplitMix64, n: int):
        assert random_tree_vector(fast, n) == scalar_tree_vector(slow, n)
        partition, expected = random_partition(fast, n), scalar_partition(slow, n)
        assert partition.num_classes == expected.num_classes
        assert tuple(partition.labels) == expected.labels
        assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize("n,count", [(1, 200), (2, 400), (3, 400), (7, 400),
                                         (25, 300), (100, 200), (1000, 30)])
    def test_sampled_streams(self, n, count):
        for seed in (0, 12358, MASK64):
            for index in range(count):
                self.assert_same_sample(stream_for_sample(seed, index),
                                        stream_for_sample(seed, index), n)

    @pytest.mark.parametrize("word", [MASK64, MASK64 - 1])
    def test_forced_rejection_at_every_draw(self, word):
        # At n = 30, draws 1..29 feed the tree (bound 2 never rejects), draw 30
        # the class count and draws 31..60 the labels; draw 61 is the first
        # word after the sample, which a rejected last label retries with.
        n = 30
        retried = 0
        for j in range(1, 2 * n + 2):
            fast, slow = forced_stream(j, word), forced_stream(j, word)
            start = slow._state
            self.assert_same_sample(fast, slow, n)
            draws = ((slow._state - start) * pow(GAMMA, -1, 1 << 64)) & MASK64
            retried += draws > 2 * n + 1
        assert retried >= n - 2  # every tree draw past the first is retried

    def test_word_above_the_flag_but_below_the_limit_is_accepted(self):
        # Draw j grows the tree from j leaves, with bound 4j - 2.  The word
        # just below that bound's limit clears the block's unrejectable flag,
        # yet the exact test accepts it.
        n, j = 1000, 500
        bound = 4 * j - 2
        word = (1 << 64) - (1 << 64) % bound - 1
        assert word > (1 << 64) - 4 * n
        fast, slow = forced_stream(j, word), forced_stream(j, word)
        start = slow.position()
        assert random_tree_vector(fast, n) == scalar_tree_vector(slow, n)
        assert (slow.position() - start) & MASK64 == n - 1  # nothing was retried
        assert fast.next_u64() == slow.next_u64()


def after_tree(seed: int, index: int, n: int) -> SplitMix64:
    """Sample ``index``'s stream, past its tree draw."""
    rng = stream_for_sample(seed, index)
    random_tree_vector(rng, n)
    return rng


class TestClassLabels:
    """``random_partition``'s labels are read on demand, and equal the scalar draw."""

    @pytest.mark.parametrize("n,count", [(1, 100), (2, 100), (3, 100), (25, 100),
                                         (100, 50), (1000, 10), (3000, 4)])
    def test_agrees_with_random_partition(self, n, count):
        for seed in (0, 12358, MASK64):
            for index in range(count):
                fast, slow = after_tree(seed, index, n), after_tree(seed, index, n)
                partition, expected = random_partition(fast, n), scalar_partition(slow, n)
                labels, full = partition.labels, expected.labels
                assert partition.num_classes == expected.num_classes
                assert isinstance(labels, LabelReader)
                assert len(labels) == n
                assert [labels[j] for j in range(n)] == list(full)
                assert [labels[j] for j in range(-n, 0)] == list(full)
                assert tuple(labels) == full
                assert tuple(labels) == full  # iterating leaves the reader as it was
                assert fast.next_u64() == slow.next_u64()

    def test_index_out_of_range(self):
        labels = random_partition(after_tree(3, 0, 25), 25).labels
        assert isinstance(labels, LabelReader)
        for j in (25, -26):
            with pytest.raises(IndexError):
                labels[j]

    def test_top_positions(self):
        for bits in range(1, 13):
            positions = sampling._top_positions(bits)
            assert list(positions) == sorted(positions)
            assert len(positions) == 1 << bits
            words = sorted(mix64(q * GAMMA) for q in positions)
            assert words == list(range((1 << 64) - (1 << bits), 1 << 64))
        # So the table for m's bit length holds every word a draw for m rejects.
        for m in range(1, 4100):
            assert (1 << 64) % m < 1 << m.bit_length()

    def test_rejected_label_word_takes_the_full_draw(self):
        # Draw 1 is the class count and draw j + 2 is label j.  A word at the
        # top of the range is rejected by every m whose limit it reaches.
        seen = set()
        for n in (5, 30, 100):
            for j in (0, n // 2, n - 1):
                for word in range(MASK64, MASK64 - 8, -1):
                    fast, slow = forced_stream(j + 2, word), forced_stream(j + 2, word)
                    partition, expected = random_partition(fast, n), scalar_partition(slow, n)
                    labels, m = partition.labels, partition.num_classes
                    assert m == expected.num_classes
                    assert tuple(labels) == expected.labels
                    assert fast.next_u64() == slow.next_u64()
                    if word >= (1 << 64) - (1 << 64) % m:
                        assert not isinstance(labels, LabelReader)
                        seen.add((j == 0, j == n - 1, m))
        # First and last words, each for several m.
        assert len({m for first, _, m in seen if first}) >= 3
        assert len({m for _, last, m in seen if last}) >= 3
        assert len({m for first, last, m in seen if not first and not last}) >= 3

    def test_top_word_not_rejected_takes_the_full_draw(self):
        # A word among the 2**b largest (b the bit length of m) but below m's
        # limit is accepted, yet the table cannot tell it from a rejected one.
        seen = set()
        for n in (5, 30, 100):
            for j in (0, n // 2, n - 1):
                for word in range(MASK64, MASK64 - 8, -1):
                    fast, slow = forced_stream(j + 2, word), forced_stream(j + 2, word)
                    partition, expected = random_partition(fast, n), scalar_partition(slow, n)
                    labels, m = partition.labels, partition.num_classes
                    assert m == expected.num_classes
                    assert tuple(labels) == expected.labels
                    assert fast.next_u64() == slow.next_u64()
                    if (1 << 64) - (1 << m.bit_length()) <= word < (1 << 64) - (1 << 64) % m:
                        assert not isinstance(labels, LabelReader)
                        seen.add((n, j))
        for n in (5, 30, 100):
            assert {j for size, j in seen if size == n} == {0, n // 2, n - 1}

    def test_window_test_wraps_past_the_top(self):
        positions = array("Q", [2, 10, MASK64 - 1])
        assert sampling._any_in_window(positions, MASK64 - 3, 3)
        assert not sampling._any_in_window(positions, MASK64 - 4, 3)
        assert not sampling._any_in_window(positions, MASK64, 3)  # MASK64, 0, 1
        assert sampling._any_in_window(positions, MASK64, 4)  # ..., 2
        assert not sampling._any_in_window(positions, 3, 7)  # 3..9
        assert sampling._any_in_window(positions, 3, 8)  # 3..10
        assert not sampling._any_in_window(array("Q"), MASK64, 1 << 20)

    def test_label_window_wrapping_past_the_top(self, monkeypatch):
        # The class count is drawn at position 2**64 - 2, so the ten label
        # words sit at positions 2**64 - 1 and 0 to 8.
        n = 10

        def stream():
            return SplitMix64((MASK64 - 2) * GAMMA)

        def labels():
            return random_partition(stream(), n).labels

        full = scalar_partition(stream(), n).labels
        assert isinstance(labels(), LabelReader) and tuple(labels()) == full
        # Mark position 8, past the wrap, as rejected, then position 9 just
        # beyond the window: only the first takes the full draw.
        monkeypatch.setattr(sampling, "_top_positions", lambda _: array("Q", [8]))
        assert labels() == full
        assert not isinstance(labels(), LabelReader)
        monkeypatch.setattr(sampling, "_top_positions", lambda _: array("Q", [9]))
        assert isinstance(labels(), LabelReader)

    def test_one_table_at_large_n(self):
        # Every class count drawn at n = 10**5 is 14 bits long, so 200 draws
        # build one table, however many class counts they meet.
        sampling._top_positions.cache_clear()
        for index in range(200):
            random_partition(stream_for_sample(7, index), 10 ** 5)
        assert len(sampling._top_positions(14)) == 1 << 14
        assert sampling._top_positions.cache_info().currsize == 1  # the 14-bit one

    def test_no_cache_filled_at_import(self):
        script = ("import canex, canex.cli\n"
                  "from canex import sampling\n"
                  "assert sampling._top_positions.cache_info().currsize == 0\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
