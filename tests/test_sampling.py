import math
from collections import Counter

import pytest

from canex.counting import bell, count_canonical
from canex.reference import all_shapes, chi_square, enumerate_canonical
from canex.sampling import (ClassDescription, SplitMix64, mix64,
                            random_canonical, random_partition, random_tree,
                            random_tree_vector, stream_for_sample,
                            to_growth_string)
from canex.terms import (attach_vars, canonicalize, decode_remy_vector,
                         is_valid_growth_string, leaf_count, leaf_vars, render,
                         shape_of)

# Upper 0.001 tail of the chi-square distribution.
CHI2_CRIT = {2: 13.816, 4: 18.467, 9: 27.877, 13: 34.528, 14: 36.123}

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
        seen = {rng.below(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            rng.below(0)

    def test_random_unit_interval(self):
        rng = SplitMix64(11)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_stream_derivation_contract(self):
        seed, index = 987654321, 13
        expected = SplitMix64(mix64((seed + (index + 1) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)))
        derived = stream_for_sample(seed, index)
        assert [derived.next_u64() for _ in range(5)] == [expected.next_u64() for _ in range(5)]


class _ScriptedDraws(SplitMix64):
    """Answers ``below`` from a fixed list of draws, checking each bound."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def below(self, bound):
        x = self.draws.pop(0)
        assert 0 <= x < bound
        return x


class TestRemyStep:
    """Worked node insertions, replayed through random_tree_vector."""

    GROWTH = [1, 2, 9, 13, 11, 19, 3, 27]  # builds SECOND_TABLE (9 leaves)

    def test_worked_insertions_build_the_second_table(self):
        assert random_tree_vector(_ScriptedDraws(self.GROWTH), 9) == SECOND_TABLE

    def test_worked_insertion_odd(self):
        assert random_tree_vector(_ScriptedDraws(self.GROWTH + [21]), 10) == FIRST_TABLE

    def test_worked_insertion_even(self):
        out = random_tree_vector(_ScriptedDraws(self.GROWTH + [8]), 10)
        assert out[4] == 17
        assert out[17] == 5
        assert out[18] == 18

    def test_base_case_even(self):
        assert random_tree_vector(_ScriptedDraws([0]), 2) == [1, 0, 2]
        tree = decode_remy_vector([1, 0, 2], 2)
        assert shape_of(tree) == (None, None)

    def test_base_case_odd(self):
        assert random_tree_vector(_ScriptedDraws([1]), 2) == [1, 2, 0]


class _CountingRng(SplitMix64):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def below(self, bound):
        self.draws += 1
        return super().below(bound)


class TestRandomTree:
    def test_single_leaf(self):
        assert random_tree(SplitMix64(5), 1) is None
        assert random_tree_vector(SplitMix64(5), 1) == [0]

    def test_structural_at_hundred(self):
        tree = decode_remy_vector(random_tree_vector(SplitMix64(31337), 100), 100)
        assert leaf_count(tree) == 100
        labels = leaf_vars(tree)
        assert sorted(labels) == sorted(range(0, 199, 2))

    def test_exactly_n_minus_one_draws(self):
        rng = _CountingRng(3)
        random_tree(rng, 64)
        assert rng.draws == 63

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
        assert leaf_count(term) == 100
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
