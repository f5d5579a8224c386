import decimal
import math
from fractions import Fraction
from functools import reduce

import pytest

from canex.counting import (bell, catalan, count_canonical, lambert_root,
                            log10_count_estimate, stam_table)
from canex.reference import all_growth_strings, all_shapes
from canex.sampling import SplitMix64, random_partition

FIRST_COUNTS = [1, 2, 10, 75, 728, 8526, 115764, 1776060, 30240210]


def catalan_by_recurrence(n):
    values = [1]
    for k in range(n):
        values.append(sum(values[i] * values[k - i] for i in range(k + 1)))
    return values[n]


def bisect_root(target, lo=0.0, hi=50.0):
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestCatalan:
    def test_small_values(self):
        assert [catalan(i) for i in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_against_recurrence(self):
        for n in (2, 5, 9, 12):
            assert catalan(n) == catalan_by_recurrence(n)

    def test_nine(self):
        assert catalan(9) == 4862
        assert len(all_shapes(10)) == 4862

    def test_zero(self):
        assert catalan(0) == 1

    def test_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


def bell_by_independent_triangle(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class TestBell:
    def test_small_values(self):
        assert [bell(i) for i in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_three_by_enumeration(self):
        assert bell(3) == len(all_growth_strings(3)) == 5

    def test_ten(self):
        assert bell(10) == 115975 == bell_by_independent_triangle(10)

    def test_matches_growth_string_enumeration(self):
        for n in range(1, 9):
            assert bell(n) == len(all_growth_strings(n))

    def test_large_value_is_exact(self):
        assert bell(100) % 10 == bell_by_independent_triangle(100) % 10
        assert bell(100) == bell_by_independent_triangle(100)


class TestCountCanonical:
    def test_first_values(self):
        assert [count_canonical(n) for n in range(1, 10)] == FIRST_COUNTS

    def test_factorization_at_four(self):
        assert count_canonical(4) == 75 == catalan(3) * bell(4) == 5 * 15

    def test_hundred_leading_digits(self):
        # The exact product is ~1.08e172; cross-checked in log space without
        # big-integer arithmetic.
        exact = count_canonical(100)
        assert f"{exact:.2e}" == "1.08e+172"
        via_logs = (math.lgamma(199) - math.lgamma(100) - math.lgamma(101)) / math.log(10)
        assert abs(math.log10(exact) - (via_logs + math.log10(bell(100)))) < 1e-6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_canonical(0)


class TestLambertRoot:
    def test_omega_constant(self):
        oracle = bisect_root(1.0)
        assert abs(oracle - 0.567143) < 1e-6
        assert abs(lambert_root(0) - oracle) < 1e-9

    def test_hundred(self):
        oracle = bisect_root(101.0)
        assert abs(lambert_root(100) - oracle) < 1e-9
        assert abs(lambert_root(100) - 3.3933136) < 1e-6

    def test_residual_contract(self):
        for n in (10, 100, 1000):
            r = lambert_root(n)
            assert abs(r * math.exp(r) - (n + 1)) <= 1e-10 * (n + 1)

    def test_residual_logarithmic_sweep(self):
        n = 1
        while n <= 10 ** 6:
            r = lambert_root(n)
            assert abs(r * math.exp(r) - (n + 1)) <= 1e-10 * (n + 1)
            n *= 3


class TestLog10Estimate:
    def test_matches_exact_at_hundred(self):
        assert abs(log10_count_estimate(100) - math.log10(count_canonical(100))) < 0.01

    def test_four_hundred(self):
        # log10(1.51e880); the exact count agrees to 0.01.
        assert abs(log10_count_estimate(400) - 880.18) < 0.01

    def test_error_shrinks_with_n(self):
        def log10_exact(n):
            x = count_canonical(n)
            shift = max(0, x.bit_length() - 600)
            return math.log10(x >> shift) + shift * math.log10(2)

        errors = [abs(log10_count_estimate(n) - log10_exact(n))
                  for n in (50, 100, 200, 400)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.002

    def test_needs_two_leaves(self):
        with pytest.raises(ValueError):
            log10_count_estimate(1)


def exact_stam_table(n):
    """The class-count table from exact rationals: the reference for stam_table.

    Each probability m^n / (m! * bell(n)) is rounded once to a float and then
    divided by e; the running float sum stops at 1 - 1e-12.
    """
    bell_n = bell(n)
    cumulative = []
    total = 0.0
    m = 0
    while total < 1.0 - 1e-12:
        m += 1
        total += float(Fraction(m ** n, math.factorial(m) * bell_n)) / math.e
        cumulative.append(total)
    return tuple(cumulative)


def log_domain_stam_table(n):
    """The class-count table from 40-digit logarithms of the weights m^n / m!.

    The package's earlier builder, kept as the reference at sizes where
    ``exact_stam_table`` is too slow: every weight is summed as a logarithm,
    then scaled by the largest before ``exp``.
    """
    ctx = decimal.Context(prec=40)
    log_fact = top = decimal.Decimal(0)
    log_weights = [top]  # ln(m^n / m!) for m = 1, 2, ...
    # The log weights rise to one peak and then fall; comparisons are exact.
    while log_weights[-1] >= ctx.subtract(top, 80):
        log_m = ctx.ln(len(log_weights) + 1)
        log_fact = ctx.add(log_fact, log_m)
        log_weights.append(ctx.subtract(ctx.multiply(n, log_m), log_fact))
        top = ctx.max(top, log_weights[-1])
    scaled = [ctx.exp(ctx.subtract(w, top)) for w in log_weights]
    total_scaled = reduce(ctx.add, scaled)
    e = ctx.exp(1)
    cumulative = []
    total = 0.0
    for x in scaled:
        total += float(ctx.divide(ctx.multiply(e, x), total_scaled)) / math.e
        cumulative.append(total)
        if total >= 1.0 - 1e-12:
            return tuple(cumulative)
    raise RuntimeError(f"class-count table for n={n} failed to converge")


class _ScriptedUnit(SplitMix64):
    """Returns ``u`` from every ``random()`` call."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def random(self):
        return self.u


class TestStamTable:
    @pytest.mark.parametrize("n", list(range(1, 61)) + [100, 300, 1000])
    def test_equals_exact_rational_table(self, n):
        assert stam_table(n) == exact_stam_table(n)

    def test_ignores_the_callers_decimal_context(self):
        stam_table.cache_clear()
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            table = stam_table(50)
        assert table == exact_stam_table(50)

    def test_single_element_first_probability(self):
        assert abs(stam_table(1)[0] - math.exp(-1)) < 1e-15

    def test_masses_sum_to_one(self):
        # The class-count probabilities sum to 1 analytically; the float table
        # reproduces that within 1e-9 even though it is truncated at 1e-12.
        for n in (1, 2, 5, 10, 100, 1000):
            table = stam_table(n)
            masses = [b - a for a, b in zip((0.0,) + table, table)]
            assert abs(math.fsum(masses) - 1.0) < 1e-9

    def test_cumulative_monotone_and_complete(self):
        for n in (1, 4, 10, 100, 1000):
            table = stam_table(n)
            assert all(b >= a for a, b in zip(table, table[1:]))
            assert 1 - 1e-12 <= table[-1] <= 1 + 1e-12

    @pytest.mark.parametrize("n", [3000, 10 ** 4, 10 ** 5])
    def test_equals_log_domain_table(self, n):
        assert stam_table(n) == log_domain_stam_table(n)

    def test_weights_past_the_default_exponent_range(self):
        # At this size m^n passes 10^999999, the default context's Emax; the
        # table is built in its own context, whatever the caller's.
        stam_table.cache_clear()
        table = stam_table(300000)
        assert all(b >= a for a, b in zip(table, table[1:]))
        assert 1 - 1e-12 <= table[-1] <= 1 + 1e-12
        stam_table.cache_clear()
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            ctx.Emax = 999
            assert stam_table(300000) == table

    def test_large_n(self):
        # Far beyond any exact Bell number the table is still built.
        table = stam_table(100000)
        assert all(b >= a for a, b in zip(table, table[1:]))
        assert table[-1] >= 1 - 1e-12

    def test_class_count_inversion(self):
        table = stam_table(10)
        assert random_partition(_ScriptedUnit(0.0), 10).num_classes == 1
        assert random_partition(_ScriptedUnit(table[0]), 10).num_classes == 2
        clamped = random_partition(_ScriptedUnit(0.9999999999999999), 10)
        assert clamped.num_classes == len(table)

    def test_probabilities_in_unit_interval(self):
        table = stam_table(100)
        assert all(0.0 <= b - a <= 1.0 for a, b in zip((0.0,) + table, table))

    def test_memoized(self):
        assert stam_table(7) is stam_table(7)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stam_table(0)
