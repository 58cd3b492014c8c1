"""Coefficient extraction for the partition-sum identity and its relatives.

The central object is the alternating partition sum

    sum over partitions pi of [n] of
        prod_i ( sum over blocks V of f_i(|V|) ) * mu(pi, 1_n)

for polynomials f_i with zero constant term.  This module evaluates it three
ways: by block-size profile (``s_bruteforce``, the capped oracle), through
forward differences of the products prod_{i in B} f_i(l) and Mobius
inversion over P(k) (``s_mobius_route``, at any n), and by the closed form
valid at the critical order n = sum(deg f_i) - (k-1) (``s_closed_form``).
Everything is exact rational arithmetic; floats are rejected on input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Rational
from typing import Sequence

import mpmath as mp

from .partitions import block_profiles, block_sum, mobius_top, partition_masks
from .scalars import (DEFAULT_DIGITS, binom, common_kind, convolve, differences, exp,
                      integer_scaled)


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
        # falling factorial prod_j (x - j) on ints, ascending coefficients
        poly = reduce(convolve, ((-j, 1) for j in range(m)), (1,))
        fact = math.factorial(m)
        return cls([Fraction(c, fact) for c in poly[1:]])  # constant term is zero

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


def _check_input(fs: Sequence[ZeroConstPoly], n: int) -> None:
    if not fs:
        raise ValueError("need at least one polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")


def s_bruteforce(fs: Sequence[ZeroConstPoly], n: int) -> Fraction:
    """The literal partition sum, exactly, one term per block-size profile."""
    _check_input(fs, n)
    profiles = block_profiles(n)  # refuses before the tables are built
    # per-size values of each f_i as ints over its denominator D_i: each factor
    # sum_V f_i(|V|) is then D_i times its value, and each term prod_i D_i times
    tables, scale = zip(*(integer_scaled([f(s) for s in range(n + 1)]) for f in fs))
    total = 0
    for sizes, ways in profiles.items():
        term = ways * mobius_top(len(sizes))
        for tab in tables:
            term *= sum(tab[s] for s in sizes)
        total += term
    return Fraction(total, math.prod(scale))


def s_mobius_route(fs: Sequence[ZeroConstPoly], n: int) -> Fraction:
    """Same value at any n, through Mobius inversion over P(k).

    The r-table of an index block B is Delta^j g_B(0) of g_B(l) = prod_{i in
    B} f_i(l), zero past the block's total degree.  The sum over sigma in
    P(k) of mu(sigma, 1_k) times entry n of the binomial convolution of its
    blocks' r-tables is the partition sum.  Each f_i is put on ints over its
    denominator d_i (``integer_scaled``), so the sum runs on ints and is
    divided by prod d_i.
    """
    _check_input(fs, n)
    ints, scale = zip(*(integer_scaled(f.coeffs) for f in fs))
    top = min(n, sum(f.degree for f in fs))
    values = [[sum(c * l ** j for j, c in enumerate(cs, start=1)) for l in range(top + 1)]
              for cs in ints]
    tables, total = {}, 0
    for sigma in partition_masks(len(fs)):
        for block in sigma:
            if block not in tables:
                members = [i for i in range(len(fs)) if block >> i & 1]
                deg = min(n, sum(fs[i].degree for i in members))
                tables[block] = differences(
                    [math.prod(values[i][l] for i in members) for l in range(deg + 1)])
        # the product starts from the first block's table, which has no entry past n
        prod = tables[sigma[0]]
        for block in sigma[1:]:
            prod = convolve(prod, tables[block], n, binomial=True)
        if n < len(prod):
            total += mobius_top(len(sigma)) * prod[n]
    return Fraction(total, math.prod(scale))


def s_closed_form(fs: Sequence[ZeroConstPoly], n: int):
    """Closed form of the partition sum at and above the critical order.

    Returns (n-1)! n^(k-1) prod_i m_i lead(f_i) when n = sum(m_i) - (k-1),
    0 above that, and None below it, where no general formula is available
    (None, not 0, so it cannot pass for a value).
    """
    _check_input(fs, n)
    k = len(fs)
    critical = sum(f.degree for f in fs) - (k - 1)
    if n > critical:
        return Fraction(0)
    if n < critical:
        return None
    return math.factorial(n - 1) * n ** (k - 1) * math.prod(f.degree * f.lead for f in fs)


def faa_di_bruno_exp(derivs: Sequence, u0, n: int):
    """n-th derivative of exp(u(z)) at a point, from the derivatives of u.

    ``derivs[j-1]`` must hold the j-th derivative of u at the point; the
    result is  (sum over partitions pi of [n] of prod_V derivs[|V|-1]) *
    exp(u0), summed by profile in ``block_sum``.  exp(u0) is taken in the kind
    of u0, so an exact u0 must be 0.  The sum, exp(u0) and their product are
    worked in the common kind of ``derivs`` and u0, mpf at ``DEFAULT_DIGITS``.
    """
    common_kind([*derivs, u0], "faa_di_bruno_exp")  # refuses a mix
    with mp.workdps(DEFAULT_DIGITS):
        return block_sum(derivs, n) * exp(u0)


def composition_identity(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the block-factorial partition identity.

    Left: sum over partitions of [n-1] with k blocks of prod_V |V|! divided
    by (n-1)!, the k-block partitions walked alone (``partition_masks`` with
    ``blocks``; the cap bounds n-1).  Right: C(n-2, k-1) / k!.  Equality is
    the tested contract.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    lattice = partition_masks(n - 1, blocks=k)
    fact = [math.factorial(s) for s in range(n)]
    left = sum(math.prod(fact[mask.bit_count()] for mask in pi) for pi in lattice)
    left = Fraction(left, math.factorial(n - 1))
    right = Fraction(binom(n - 2, k - 1), math.factorial(k))
    return left, right
