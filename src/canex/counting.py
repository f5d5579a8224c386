"""Exact and asymptotic counts of tree shapes, variable namings, and their pairs.

A canonical expression with ``n`` leaves pairs one of the catalan(n-1) tree
shapes with one of the bell(n) growth strings, so there are
``catalan(n-1) * bell(n)`` of them.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache, reduce


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    """The n-th Bell number, exact, from the Bell triangle."""
    if n < 0:
        raise ValueError("bell is defined for n >= 0")
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def count_canonical(n: int) -> int:
    """Number of canonical expressions with ``n`` leaves (exact)."""
    if n < 1:
        raise ValueError("expressions have at least one leaf")
    return catalan(n - 1) * bell(n)


def lambert_root(n: int) -> float:
    """The positive root r of ``r * exp(r) = n + 1``.

    Newton iteration from ``log(n + 1)``; the residual ``|r*e^r - (n+1)|``
    stays below ``1e-10 * (n + 1)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    target = n + 1
    r = math.log(target) if target > 2 else 0.5
    for _ in range(80):
        er = math.exp(r)
        f = r * er - target
        if abs(f) <= 1e-13 * target:
            break
        r -= f / (er * (1.0 + r))
    return r


def log10_count_estimate(n: int) -> float:
    """log10 of the saddle-point estimate of ``count_canonical(n)``.

    Product of the shape estimate ``4^(n-1) / sqrt(pi (n-1)^3)`` and the
    naming estimate ``n! e^(e^r - 1) / (r^n sqrt(2 pi r (r+1) e^r))`` with
    ``r`` the root of ``r e^r = n + 1``; evaluated in the log domain.
    """
    if n < 2:
        raise ValueError("the estimate needs n >= 2")
    r = lambert_root(n)
    ln_value = (
        math.lgamma(n + 1)
        + (n - 1) * math.log(4.0)
        + (math.exp(r) - 1.0)
        - n * math.log(r)
        - math.log(math.pi)
        - 0.5 * (math.log(2.0) + 3.0 * math.log(n - 1.0)
                 + math.log(r) + math.log(r + 1.0) + r)
    )
    return ln_value / math.log(10.0)


_TAIL_EPSILON = 1e-12
# Every Decimal operation goes through this context, never the caller's.
# Its exponent range holds m^n and m! at any n a table is built for.
_DECIMAL = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
# The weights stop once one is this far below the largest: each one left
# out is under e^-80 of the sum, far below a float's precision.
_WEIGHT_CUT = _DECIMAL.exp(-80)


@lru_cache(maxsize=None)
def stam_table(n: int) -> tuple[float, ...]:
    """Cumulative class-count distribution of a uniform partition of ``n``.

    Entry ``m-1`` is the running float sum of the probabilities
    ``m^n / (e * m! * bell(n))`` that a uniform set partition has exactly
    ``m`` classes (Stam's urn); the table ends once it reaches
    ``1 - 1e-12``.  By Dobinski's formula ``e * bell(n)`` is the sum of the
    weights ``m^n / m!``, so no Bell number is needed: each weight is an
    integer power over a running factorial in 40-digit decimals, and each
    probability is rounded to a float exactly as ``m^n / (m! * bell(n))``
    rounds, then divided by ``math.e``.
    """
    if n < 1:
        raise ValueError("partition tables need n >= 1")
    ctx = _DECIMAL
    fact = top = decimal.Decimal(1)
    weights = [top]  # m^n / m! for m = 1, 2, ...
    # The weights rise to one peak and then fall; comparisons are exact.
    while weights[-1] >= ctx.multiply(top, _WEIGHT_CUT):
        m = len(weights) + 1
        fact = ctx.multiply(fact, m)
        weights.append(ctx.divide(ctx.power(m, n), fact))
        top = ctx.max(top, weights[-1])
    total_weight = reduce(ctx.add, weights)
    e = ctx.exp(1)
    cumulative: list[float] = []
    total = 0.0
    for w in weights:
        total += float(ctx.divide(ctx.multiply(e, w), total_weight)) / math.e
        cumulative.append(total)
        if total >= 1.0 - _TAIL_EPSILON:
            return tuple(cumulative)
    raise RuntimeError(f"class-count table for n={n} failed to converge")
