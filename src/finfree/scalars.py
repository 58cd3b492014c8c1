"""Scalar kinds and cancellation-safe helpers.

Three scalar kinds are used throughout the package:

* ``EXACT``   - ``fractions.Fraction`` (and plain ``int``), for identity work;
* ``MPF``     - ``mpmath`` multiprecision floats, default 50 decimal digits,
  for the limit experiments whose coefficients are transcendental;
* ``FLOAT64`` - machine floats, for root finding and quick numerics.

Kinds are never mixed silently: ``common_kind`` refuses heterogeneous
inputs, and promotion happens only through ``promote_ints`` and ``to_mpf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp

EXACT = "exact"
MPF = "mpf"
FLOAT64 = "float64"

DEFAULT_DIGITS = 50


def kind_of(x) -> str:
    if isinstance(x, (int, Fraction)):
        return EXACT
    if isinstance(x, (mp.mpf, mp.mpc)):
        return MPF
    if isinstance(x, (float, complex)):
        return FLOAT64
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def common_kind(values: Iterable, where: str) -> str:
    """Kind of a homogeneous collection; raises on silent kind mixing.

    Plain ints embed exactly in every kind, so a mix of ints and one other
    kind resolves to that other kind.
    """
    values = list(values)
    if not values:
        raise ValueError(f"{where}: empty value collection")
    kinds = {kind_of(v) for v in values}
    if len(kinds) > 1 and EXACT in kinds:
        if all(isinstance(v, int) for v in values if kind_of(v) == EXACT):
            kinds.discard(EXACT)
    if len(kinds) > 1:
        raise TypeError(
            f"{where}: mixed scalar kinds {sorted(kinds)}; convert inputs explicitly first"
        )
    return kinds.pop()


def promote_ints(values: Iterable, kind: str) -> list:
    """Ints recast in ``kind``: an int divided by an int is a binary64 float."""
    to = {EXACT: Fraction, MPF: mp.mpf}.get(kind, float)
    return [to(v) if isinstance(v, int) else v for v in values]


def to_mpf(x, digits: int = DEFAULT_DIGITS):
    with mp.workdps(digits):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(x)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling(a, i: int):
    """Falling factorial a(a-1)...(a-i+1); exact when a is exact."""
    out = 1
    for j in range(i):
        out = out * (a - j)
    return out


def multinomial(n: int, parts: Sequence[int]) -> int:
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError(f"multinomial parts {tuple(parts)} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def neumaier_sum(values: Iterable[float]) -> float:
    """Compensated (Neumaier) summation for binary64 terms."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def csum(values: Sequence, digits: int = DEFAULT_DIGITS):
    """Cancellation-safe sum dispatched on scalar kind.

    Exact values are summed exactly; mpmath terms go through ``mp.fsum``
    (single final rounding); binary64 terms use Neumaier compensation.
    """
    values = list(values)
    if not values:
        return 0
    kind = common_kind(values, "csum")
    if kind == EXACT:
        return sum(values)
    if kind == MPF:
        with mp.workdps(digits):
            return mp.fsum(values)
    if any(isinstance(v, complex) for v in values):
        re = neumaier_sum(v.real if isinstance(v, complex) else float(v) for v in values)
        im = neumaier_sum(v.imag if isinstance(v, complex) else 0.0 for v in values)
        return complex(re, im)
    return neumaier_sum(values)
