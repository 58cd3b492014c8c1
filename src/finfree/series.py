"""Truncated power series: the engine behind the block-multiplicative sums.

A sum over the partitions pi of [n] whose terms multiply one weight w_|V|
per block is a coefficient of an exponential generating function
W(z) = sum_j w_j z^j / j! with w_0 = 1:

    sum_pi prod_V w_|V|                  = n! [z^n] exp(W(z) - 1),
    sum_pi mu(pi, 1_n) prod_V w_|V|      = n! [z^n] log W(z).

Both take O(n^2) coefficient operations instead of a sum over the
block-size profiles of P(n); ``partitions.block_sum`` is that sum, kept as
the literal oracle of both.  The same two operations carry Lagrange inversion
(``freelimits``): a power phi^n of a series is exp(n log phi).  A series
has no sum or product of its own.  Coefficients may be exact rationals, mpf
or binary64 values, one kind per series (ints among them are recast in it);
``exp`` and ``log`` hand them to one kernel, ``scalars.recurrence``, which
runs real mpf series on ints, each sum exact and rounded once as mpf
arithmetic rounds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scalars import one_kind, recurrence


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Taylor series c_0 + c_1 z + ... + c_N z^N.

    Coefficients may be mpf, exact rationals or binary64 values.
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
        """sum_j values[j] z^j / j!, of order len(values) - 1, in the one
        kind of the values (``one_kind``: ints alone give ``Fraction``s)."""
        return cls(tuple(v / math.factorial(j)
                         for j, v in enumerate(one_kind(values, "series"))))

    def coeff(self, j: int):
        return self.coeffs[j] if j <= self.order else self.coeffs[0] * 0

    def exp(self) -> "PowerSeries":
        """exp of the series; the constant term goes through the scalar exp,
        so an exact series needs constant term 0."""
        return PowerSeries(tuple(recurrence(self.coeffs, "exp")))

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1 (the result has constant term 0)."""
        if self.coeffs[0] != 1:
            raise ValueError("series log needs constant term 1")
        return PowerSeries(tuple(recurrence(self.coeffs, "log")))
