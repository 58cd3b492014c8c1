"""Scalar kinds and cancellation-safe helpers.

Three scalar kinds are used throughout the package:

* ``EXACT``   - ``fractions.Fraction`` (and plain ``int``), for identity work;
* ``MPF``     - ``mpmath`` multiprecision floats, default 50 decimal digits,
  for the limit experiments whose coefficients are transcendental;
* ``FLOAT64`` - machine floats, for root finding and quick numerics.

Kinds are never mixed silently: ``common_kind`` refuses heterogeneous
inputs, and promotion happens only through ``promote_ints`` and ``to_mpf``.
Every per-kind decision lives here: the precision scope (``work``), the
exponential (``exp``), the dot product under every series coefficient
(``dot``), the one coefficient product, truncated or binomial (``convolve``),
conversion into mpmath (``to_mpf``), printing (``format_scalar``) and the
common denominator that puts exact values on ints (``integer_scaled``, and
``integer_weights`` for block weights).
"""

from __future__ import annotations

import cmath
import math
import operator
from contextlib import nullcontext
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


def work(kind: str, digits: int):
    """Precision scope: mpmath arithmetic rounds at ambient precision, so
    every mpf computation must run inside an explicit workdps block."""
    return mp.workdps(digits) if kind == MPF else nullcontext()


def to_mpf(x, digits: int = DEFAULT_DIGITS):
    """x in mpmath at ``digits``: an mpf, or an mpc when x is complex."""
    if not isinstance(x, (Fraction, complex, mp.mpc)):
        return mp.mpf(x, dps=digits)  # no precision scope to enter on the common path
    with mp.workdps(digits):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpc(x)


def integer_scaled(values: Sequence) -> tuple[list, int]:
    """Exact values as the ints v * D, with D the lcm of their denominators, and
    D; any other kind (read once, from the set of value types) comes back
    unchanged with D = 1, as does a ring element that is not a scalar."""
    values = list(values)
    if not set(map(type, values)) <= {int, Fraction}:
        return values, 1
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def integer_weights(weights: Sequence) -> tuple[list, int]:
    """Block weights put over one common denominator, for sums over P(n).

    ``weights[s - 1]`` is the weight w_s of a block of size s.  Exact weights
    become the ints w_s * D^s and D (``integer_scaled``): a product of scaled
    weights over the blocks of a partition of [n] is D^n times the product of
    the weights, so a block-multiplicative sum over P(n) runs on ints and
    divides by D^n once.  Other values come back unchanged with D = 1.
    """
    ints, D = integer_scaled(weights)
    return ([w * D ** (s - 1) for s, w in enumerate(ints, start=1)] if D > 1 else ints), D


def exp(x):
    """exp in the kind of x; the only exact value with an exact exp is 0."""
    if kind_of(x) == EXACT:
        if x != 0:
            raise ValueError(f"exp({x}) is not exact; convert the argument first")
        return Fraction(1)
    if isinstance(x, (mp.mpf, mp.mpc)):
        return mp.exp(x)
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


def dot(xs: Sequence, ys: Sequence, start=None):
    """start + sum_i xs[i] * ys[i] in the kind of the terms; a pair with a
    zero factor adds nothing.  Empty ``xs`` gives ``start``, or the int 0.

    The kind is read once per call, from the set of operand types: ints
    alone give an int; ints and ``Fraction``s are summed on ints over one
    running denominator and reduced once, to a ``Fraction``; any mpf or mpc
    goes through ``mp.fdot`` (exact products, one rounding at the ambient
    precision); anything else is added left to right from ``start``, or
    ``xs[0] * 0``, as ``acc += x * y``, skipping pairs with a zero factor.
    """
    if not xs:
        return 0 if start is None else start
    types = {*map(type, xs), *map(type, ys), int if start is None else type(start)}
    if types == {int}:
        return sum(map(operator.mul, xs, ys), 0 if start is None else start)
    if types <= {int, Fraction}:
        num, den = (0, 1) if start is None else (start.numerator, start.denominator)
        for x, y in zip(xs, ys):
            p = x.numerator * y.numerator
            if p:
                q = x.denominator * y.denominator
                g = math.gcd(den, q)
                num, den = num * (q // g) + p * (den // g), den * (q // g)
        return Fraction(num, den)
    if mp.mpf in types or mp.mpc in types:
        return mp.fdot(xs, ys) if start is None else mp.fdot([start, *xs], [1, *ys])
    acc = xs[0] * 0 if start is None else start
    for x, y in zip(xs, ys):
        if x and y:
            acc += x * y
    return acc


def convolve(a: Sequence, b: Sequence, top: int | None = None, binomial: bool = False) -> tuple:
    """c_k = sum_{i+j=k} a_i b_j for k <= top (default: the full product), one
    ``dot`` per c_k with i ascending; ``binomial`` weights each term by C(k, i),
    formed in kind as C(k, i) * a_i: the product of exponential generating
    functions.  Ints alone give ints; with any ``Fraction``, each operand goes
    on ints (``integer_scaled``) and each c_k is divided once, to a ``Fraction``.
    """
    types = {*map(type, a), *map(type, b)}
    exact = Fraction in types and types <= {int, Fraction}
    if exact:
        (a, Da), (b, Db) = integer_scaled(a), integer_scaled(b)
    na, nb, rb = len(a), len(b), b[::-1]
    out = []
    for k in range(na + nb - 1 if top is None else min(top + 1, na + nb - 1)):
        lo = max(0, k - nb + 1)
        xs = a[lo:k + 1]
        if binomial:
            xs = [math.comb(k, i) * x for i, x in enumerate(xs, start=lo)]
        out.append(dot(xs, rb[nb - 1 - k + lo:na + nb - 1 - k]))  # rb[nb-1-j] is b_j
    return tuple(Fraction(c, Da * Db) for c in out) if exact else tuple(out)


def format_scalar(x, digits: int = DEFAULT_DIGITS) -> str:
    """Decimal string with no more significant digits than the kind carries.

    Exact values print as ``p/q`` (``p`` when q = 1), mpf and mpc values at
    ``digits`` significant digits, rounded once from all they carry, binary64
    values as the shortest string that reads back to the same value (at most
    17 significant digits).  A non-finite value, a binary64 overflow, raises
    ``OverflowError``.
    """
    kind = kind_of(x)
    if kind == EXACT:
        return str(x)
    if not mp.isfinite(x):
        raise OverflowError(f"non-finite value {x} past the binary64 range; "
                            'give the input as exact strings, such as "1e400"')
    if kind == FLOAT64:
        return repr(x)
    return mp.nstr(x, digits, strip_zeros=True)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def differences(values: Sequence) -> list:
    """Forward differences at 0, Delta^j v(0) = sum_l C(j, l) (-1)^(j-l) v_l
    for j < len(values); past the degree of a polynomial v they vanish."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


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


def csum(values: Sequence, digits: int = DEFAULT_DIGITS):
    """Cancellation-safe sum dispatched on scalar kind.

    Exact values are summed exactly; mpmath terms go through ``mp.fsum``
    (single final rounding); binary64 terms through ``math.fsum``, correctly
    rounded, the real and imaginary parts of complex terms separately.
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
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    return math.fsum(values)
