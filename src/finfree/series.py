"""Truncated power series: the engine behind the block-multiplicative sums.

A sum over the partitions pi of [n] whose terms multiply one weight w_|V|
per block is a coefficient of an exponential generating function
W(z) = sum_j w_j z^j / j! with w_0 = 1:

    sum_pi prod_V w_|V|                  = n! [z^n] exp(W(z) - 1),
    sum_pi mu(pi, 1_n) prod_V w_|V|      = n! [z^n] log W(z).

Both take O(n^2) coefficient operations instead of a walk over P(n) or its
block-size profiles; ``partitions.block_sum`` is that walk, kept as the
literal oracle of both.  Coefficients may be exact rationals, mpf or binary64
values.  A product is ``scalars.convolve`` cut at the common order: one
big-int multiply for real mpf series, one ``scalars.dot`` per coefficient
otherwise.  Every coefficient of ``exp`` or ``log`` is one call of
``scalars.dot``, the single inner loop.  Each way, an mpf coefficient is
rounded once and an exact one divided or reduced once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scalars import convolve, dot, exp


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor series c_0 + c_1 z + ... + c_N z^N.

    Arithmetic truncates at the common order.  Coefficients may be mpf,
    exact rationals or binary64 values.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, c, order: int) -> "PowerSeries":
        return cls((c,) + (c * 0,) * order)

    @classmethod
    def egf(cls, values: Sequence) -> "PowerSeries":
        """sum_j values[j] z^j / j!, of order len(values) - 1.

        Exact values must be ``Fraction``s: an int divided by j! is a float.
        """
        return cls(tuple(v / math.factorial(j) for j, v in enumerate(values)))

    def coeff(self, j: int):
        return self.coeffs[j] if j <= self.order else self.coeffs[0] * 0

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeff(j) + other.coeff(j) for j in range(n + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(convolve(self.coeffs, other.coeffs, min(self.order, other.order)))

    def exp(self) -> "PowerSeries":
        """exp of the series; the constant term goes through the scalar exp,
        so an exact series needs constant term 0."""
        # g' = u' g with g_0 = exp(u_0):  g_j = (1/j) sum_{i=1..j} i u_i g_{j-i}
        iu = [i * c for i, c in enumerate(self.coeffs)]
        g = [exp(self.coeffs[0])]
        for j in range(1, self.order + 1):
            g.append(dot(iu[1: j + 1], g[::-1]) / j)
        return PowerSeries(tuple(g))

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1 (the result has constant term 0)."""
        if self.coeffs[0] != 1:
            raise ValueError("series log needs constant term 1")
        f = self.coeffs
        # g' = f'/f, i.e. j f_j = sum_{i=1..j} i g_i f_{j-i} with f_0 = 1
        g = [f[0] * 0]
        neg_ig = []  # -i g_i for i = 1..j-1
        for j in range(1, self.order + 1):
            g.append(dot(neg_ig, f[j - 1: 0: -1], start=j * f[j]) / j)
            neg_ig.append(-j * g[j])
        return PowerSeries(tuple(g))
