"""Coefficient extraction for the partition-sum identity and its relatives.

The central object is the alternating partition sum

    sum over partitions pi of [n] of
        prod_i ( sum over blocks V of f_i(|V|) ) * mu(pi, 1_n)

for polynomials f_i with zero constant term.  This module evaluates it three
ways: literally (``s_bruteforce``), through the subset-lattice alternating
sum and Mobius inversion over P(k) (``r_coeff`` / ``s_mobius_route``), and
by the closed form valid at the critical order n = sum(deg f_i) - (k-1)
(``s_closed_form``).  Everything is exact rational arithmetic; floats are
rejected on input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import CapExceededError
from .partitions import (
    DEFAULT_PARTITION_CAP,
    block_sum,
    enumerate_partitions,
    mobius_top,
)
from .scalars import DEFAULT_DIGITS, binom, exp, kind_of, work
from .series import PowerSeries


@dataclass(frozen=True)
class ZeroConstPoly:
    """Polynomial with zero constant term over exact rationals.

    ``coeffs[j]`` is the coefficient of x^(j+1); the top coefficient must be
    nonzero so the degree is honest.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence):
        cs = tuple(_as_fraction(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            raise ValueError("the zero polynomial has no degree; it is not allowed here")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def monomial(cls, m: int) -> "ZeroConstPoly":
        """x^m."""
        if m < 1:
            raise ValueError("monomial degree must be >= 1")
        return cls((0,) * (m - 1) + (1,))

    @classmethod
    def binomial_basis(cls, m: int) -> "ZeroConstPoly":
        """c_m(x) = C(x, m) = x(x-1)...(x-m+1)/m!, degree m, lead 1/m!."""
        if m < 1:
            raise ValueError("binomial basis index must be >= 1")
        poly = [Fraction(1)]  # falling factorial, ascending coefficients
        for j in range(m):
            nxt = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] += c
                nxt[i] -= j * c
            poly = nxt
        fact = math.factorial(m)
        return cls([c / fact for c in poly[1:]])  # constant term is zero

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x

    def __add__(self, other: "ZeroConstPoly") -> "ZeroConstPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZeroConstPoly(out)

    def scale(self, c) -> "ZeroConstPoly":
        c = _as_fraction(c)
        return ZeroConstPoly([c * a for a in self.coeffs])

    def __repr__(self):
        terms = [f"{c}*x^{j+1}" for j, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(
        f"exact rational required in identity arithmetic, got {type(x).__name__}"
    )


def r_coeff(fs: Sequence[ZeroConstPoly], n: int) -> Fraction:
    """n-th derivative at 0 of the covering-series coefficient polynomial.

    Equals sum_{l=1}^{n} C(n,l) (-1)^(n-l) prod_i f_i(l); vanishes whenever
    n exceeds the total degree of the product.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    for l in range(1, n + 1):
        term = Fraction(binom(n, l) * (-1) ** (n - l))
        for f in fs:
            term *= f(l)
        total += term
    return total


def r_poly_coeffs(fs: Sequence[ZeroConstPoly]) -> list[Fraction]:
    """Taylor coefficients (in z, constant term omitted) of the r-polynomial.

    Entry j-1 holds the coefficient of z^j, i.e. r^{(j)}(0)/j!; the list runs
    up to the total degree sum(deg f_i), beyond which everything vanishes.
    """
    total_deg = sum(f.degree for f in fs)
    return [r_coeff(fs, j) / math.factorial(j) for j in range(1, total_deg + 1)]


def s_bruteforce(fs: Sequence[ZeroConstPoly], n: int,
                 cap: int = DEFAULT_PARTITION_CAP) -> Fraction:
    """The literal partition sum, exactly."""
    if not fs:
        raise ValueError("need at least one polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:  # before the tables: the enumeration checks only when first advanced
        raise CapExceededError("partition enumeration", n, cap)
    # per-size values of each f over one common denominator D, as ints: each
    # factor sum_V f_i(|V|) is then D times its value, and each term D^k times
    tables = [[f(s) for s in range(n + 1)] for f in fs]
    D = math.lcm(*(v.denominator for tab in tables for v in tab))
    tables = [[v.numerator * (D // v.denominator) for v in tab] for tab in tables]
    total = 0
    for pi in enumerate_partitions(n, cap=cap):
        sizes = [len(b) for b in pi.blocks]
        term = mobius_top(pi)
        for tab in tables:
            term *= sum(tab[s] for s in sizes)
        total += term
    return Fraction(total, D ** len(fs))


def s_mobius_route(fs: Sequence[ZeroConstPoly], n: int) -> Fraction:
    """Same value through Mobius inversion over P(k) of r-polynomial products.

    For each partition sigma of the index set, multiply the r-polynomials of
    its blocks (as polynomials in z) and weight by mu(sigma, 1_k); the n-th
    Taylor coefficient times n! is the partition sum.  Independent route used
    to cross-check ``s_bruteforce``.
    """
    k = len(fs)
    if k < 1:
        raise ValueError("need at least one polynomial")
    total = Fraction(0)
    for sigma in enumerate_partitions(k):
        prod = PowerSeries.constant(Fraction(1), n)
        for block in sigma.blocks:
            r = [Fraction(0)] + r_poly_coeffs([fs[i - 1] for i in block]) + [Fraction(0)] * n
            prod = prod * PowerSeries(tuple(r[: n + 1]))
        total += mobius_top(sigma) * prod.coeff(n)
    return total * math.factorial(n)


def s_closed_form(fs: Sequence[ZeroConstPoly], n: int):
    """Closed form of the partition sum at and above the critical order.

    Returns (n-1)! n^(k-1) prod_i m_i lead(f_i) when n = sum(m_i) - (k-1),
    0 above that, and None below it, where no general formula is available
    (None, not 0, so it cannot pass for a value).
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = len(fs)
    critical = sum(f.degree for f in fs) - (k - 1)
    if n > critical:
        return Fraction(0)
    if n < critical:
        return None
    out = Fraction(math.factorial(n - 1) * n ** (k - 1))
    for f in fs:
        out *= f.degree * f.lead
    return out


def faa_di_bruno_exp(derivs: Sequence, u0, n: int):
    """n-th derivative of exp(u(z)) at a point, from the derivatives of u.

    ``derivs[j-1]`` must hold the j-th derivative of u at the point; the
    result is  (sum over partitions pi of [n] of prod_V derivs[|V|-1]) *
    exp(u0), the sum taken by ``block_sum``.  exp(u0) is taken in the kind
    of u0, so an exact u0 must be 0; mpf input is worked at ``DEFAULT_DIGITS``.
    """
    with work(kind_of(u0), DEFAULT_DIGITS):
        return block_sum(derivs, n) * exp(u0)


def composition_identity(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the block-factorial partition identity.

    Left: sum over partitions of [n-1] with k blocks of prod_V |V|! divided
    by (n-1)!.  Right: C(n-2, k-1) / k!.  Equality is the tested contract.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    left = 0
    for pi in enumerate_partitions(n - 1):
        if pi.num_blocks != k:
            continue
        term = 1
        for b in pi.blocks:
            term *= math.factorial(len(b))
        left += term
    left = Fraction(left, math.factorial(n - 1))
    right = Fraction(binom(n - 2, k - 1), math.factorial(k))
    return left, right
