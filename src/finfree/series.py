"""Truncated power series: the engine behind the block-multiplicative sums.

A sum over the partitions pi of [n] whose terms multiply one weight w_|V|
per block is a coefficient of an exponential generating function
W(z) = sum_j w_j z^j / j! with w_0 = 1:

    sum_pi prod_V w_|V|                  = n! [z^n] exp(W(z) - 1),
    sum_pi mu(pi, 1_n) prod_V w_|V|      = n! [z^n] log W(z).

Both take O(n^2) coefficient operations instead of a walk over P(n) or its
block-size profiles.  Coefficients may be exact rationals, mpf or binary64
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scalars import exp


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

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeff(j) - other.coeff(j) for j in range(n + 1)))

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        zero = self.coeffs[0] * 0
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeff(j)
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def inverse(self) -> "PowerSeries":
        """Reciprocal series; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series inverse needs a unit constant term")
        n = self.order
        inv = [1 / c0]
        for j in range(1, n + 1):
            acc = inv[0] * 0
            for i in range(1, j + 1):
                acc += self.coeff(i) * inv[j - i]
            inv.append(-acc / c0)
        return PowerSeries(tuple(inv))

    def pow_int(self, m: int) -> "PowerSeries":
        if m < 0:
            return self.inverse().pow_int(-m)
        out = PowerSeries.constant(self.coeffs[0] ** 0, self.order)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def exp(self) -> "PowerSeries":
        """exp of the series; the constant term goes through the scalar exp,
        so an exact series needs constant term 0."""
        n = self.order
        # g' = u' g with g_0 = exp(u_0):  g_j = (1/j) sum_{i=1..j} i u_i g_{j-i}
        g = [exp(self.coeffs[0])]
        for j in range(1, n + 1):
            acc = g[0] * 0
            for i in range(1, j + 1):
                acc += i * self.coeff(i) * g[j - i]
            g.append(acc / j)
        return PowerSeries(tuple(g))

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1 (the result has constant term 0)."""
        if self.coeffs[0] != 1:
            raise ValueError("series log needs constant term 1")
        n = self.order
        # g' = f'/f, i.e. j f_j = sum_{i=1..j} i g_i f_{j-i} with f_0 = 1
        g = [self.coeffs[0] * 0]
        for j in range(1, n + 1):
            acc = j * self.coeffs[j]
            for i in range(1, j):
                acc -= i * g[i] * self.coeffs[j - i]
            g.append(acc / j)
        return PowerSeries(tuple(g))

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries((self.coeffs[0] * 0,))
        return PowerSeries(tuple((j + 1) * c for j, c in enumerate(self.coeffs[1:])))
