"""Finite free cumulants and the special polynomial families.

The degree-d cumulant transform sends normalized coefficients to

    kappa_n = (-d)^(n-1)/(n-1)! * sum over partitions pi of [n] of
              atilde_pi * mu(pi, 1_n),        atilde_pi = prod_V atilde_|V|,

for n = 1..d, linearizing the additive convolution.  The partition sum is
block-multiplicative, so it is n! times the z^n coefficient of the log of
sum_j atilde_j z^j / j! (see ``series``), and the transform is

    kappa_n = (-d)^(n-1) * n * [z^n] log sum_j atilde_j z^j / j!.

The literal sum over P(n) is kept as the cross-checking path.  The inverse
is the matching series exp.

The sum cancels to O(d^-(n-1)) against O(1) terms for the exponential
families, so callers should budget roughly (n-1)*log10(d) + 15 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .partitions import (
    DEFAULT_PARTITION_CAP,
    SetPartition,
    enumerate_partitions,
    enumerate_refinements,
    join_all,
    mobius_bottom,
    mobius_top,
)
from .polycalc import MonicPoly, boxtimes, from_normalized, normalized_coeffs
from .scalars import (DEFAULT_DIGITS, common_kind, csum, falling, integer_weights, kind_of,
                      promote_ints, to_mpf, work)
from .series import PowerSeries


@dataclass(frozen=True)
class CumulantVector:
    """kappa_1..kappa_d bound to the degree-d normalization."""

    d: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.d:
            raise ValueError("a cumulant vector carries exactly d entries")

    def __getitem__(self, n: int):
        """1-based access: kv[n] is kappa_n."""
        if not 1 <= n <= self.d:
            raise IndexError(f"kappa_{n} undefined at degree {self.d}")
        return self.values[n - 1]


# ---------------------------------------------------------------------------
# transform and inverse
# ---------------------------------------------------------------------------

def cumulants_from_atilde(d: int, atilde: Sequence, n_max: int,
                          digits: int = DEFAULT_DIGITS, grouped: bool = True) -> list:
    """kappa_1..kappa_n_max from atilde_0..atilde_n_max (or longer).

    ``grouped=True`` takes the series log of the atilde generating function;
    ``grouped=False`` enumerates P(n) literally (cross-check path).
    """
    if n_max > d:
        raise ValueError(f"kappa_n needs n <= d, got n={n_max}, d={d}")
    if len(atilde) < n_max + 1:
        raise ValueError("need atilde up to index n_max")
    if atilde[0] != 1:
        raise ValueError("atilde_0 must be 1")
    kind = common_kind(atilde[: n_max + 1], "cumulants_from_atilde")
    with work(kind, digits):
        atilde = promote_ints(atilde[: n_max + 1], kind)
        if grouped:
            log = PowerSeries.egf(atilde).log()
            return [(-d) ** (n - 1) * n * log.coeff(n) for n in range(1, n_max + 1)]
        return [(-d) ** (n - 1) * _literal_partition_sum(atilde, n, digits)
                / math.factorial(n - 1) for n in range(1, n_max + 1)]


def _literal_partition_sum(atilde: Sequence, n: int, digits: int):
    weights, D = integer_weights(atilde[1: n + 1])
    terms = []
    for pi in enumerate_partitions(n):
        term = mobius_top(pi)
        for b in pi.blocks:
            term = term * weights[len(b) - 1]
        terms.append(term)
    total = csum(terms, digits=digits)
    if isinstance(total, int):  # exact weights: the sum is D^n times its value
        total = Fraction(total, D ** n)
    return total


def finite_cumulants(p: MonicPoly, digits: int = DEFAULT_DIGITS) -> CumulantVector:
    """The full cumulant vector kappa_1..kappa_d of p."""
    at = normalized_coeffs(p, digits=digits)
    vals = cumulants_from_atilde(p.degree, at, p.degree, digits=digits)
    return CumulantVector(p.degree, tuple(vals))


def atilde_from_cumulants(d: int, kappas: Sequence, n_max: int,
                          digits: int = DEFAULT_DIGITS) -> list:
    """Inverse transform: atilde_1..atilde_n_max from kappa_1..kappa_n_max.

    atilde_n = sum over sigma in P(n) of d^(|sigma|-n) mu(0_n, sigma)
    kappa_sigma, evaluated as the series exp
    n! [z^n] exp sum_s (-1)^(s-1) kappa_s z^s / (s d^(s-1)).
    """
    if len(kappas) < n_max:
        raise ValueError("need kappa up to n_max")
    kind = common_kind(list(kappas[:n_max]), "atilde_from_cumulants")
    with work(kind, digits):
        kappas = promote_ints(kappas[:n_max], kind)
        u = PowerSeries((kappas[0] * 0,) + tuple(
            (-1) ** (s - 1) * k / (s * d ** (s - 1)) for s, k in enumerate(kappas, start=1)))
        g = u.exp()
        return [g.coeff(n) * math.factorial(n) for n in range(1, n_max + 1)]


def coeffs_from_cumulants(kv: CumulantVector, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Rebuild the coefficient polynomial; exact inverse of finite_cumulants."""
    at = atilde_from_cumulants(kv.d, kv.values, kv.d, digits=digits)
    return from_normalized([1] + at, digits=digits)


# ---------------------------------------------------------------------------
# multiplicative convolution on the cumulant side
# ---------------------------------------------------------------------------

def boxtimes_cumulants(ps: Sequence[MonicPoly], n: int, method: str = "pi-sum",
                       digits: int = DEFAULT_DIGITS,
                       cap: int = DEFAULT_PARTITION_CAP):
    """kappa_n of the multiplicative convolution of the family, from the
    factors' cumulants alone.

    ``pi-sum``: for each partition pi of [n], multiply over factors the
    refinement sums  sum_{sigma <= pi} d^(|sigma|-n) mu(0_n, sigma)
    kappa_sigma(p_i), and weight by mu(pi, 1_n).

    ``join-sum``: sum over m-tuples (sigma_1..sigma_m) whose join is 1_n of
    the product of the factors' weighted cumulants.  Exponential in m and n;
    capped at n <= 6.
    """
    if not ps:
        raise ValueError("need at least one polynomial")
    d = ps[0].degree
    if any(p.degree != d for p in ps):
        raise ValueError("equal degrees required")
    if n > d:
        raise ValueError(f"kappa_n needs n <= d")
    kappas = [
        cumulants_from_atilde(d, normalized_coeffs(p, digits=digits), n, digits=digits)
        for p in ps
    ]
    kind = common_kind([k for ks in kappas for k in ks], "boxtimes_cumulants")
    (dk,) = promote_ints([d], kind)

    def kappa_sigma(i: int, sigma: SetPartition):
        out = None
        for b in sigma.blocks:
            v = kappas[i][len(b) - 1]
            out = v if out is None else out * v
        return out

    def weighted(i: int, sigma: SetPartition):
        return kappa_sigma(i, sigma) * mobius_bottom(sigma) * dk ** (sigma.num_blocks - n)

    with work(kind, digits):
        if method == "pi-sum":
            terms = []
            for pi in enumerate_partitions(n, cap=cap):
                term = mobius_top(pi)
                for i in range(len(ps)):
                    inner = csum([weighted(i, s) for s in enumerate_refinements(pi)],
                                 digits=digits)
                    term = term * inner
                terms.append(term)
            total = csum(terms, digits=digits)
        elif method == "join-sum":
            if n > 6:
                raise ValueError("join-sum enumeration is limited to n <= 6")
            from itertools import product as iproduct

            all_parts = list(enumerate_partitions(n, cap=cap))
            top = SetPartition.top(n)
            tables = [
                {sigma: weighted(i, sigma) for sigma in all_parts}
                for i in range(len(ps))
            ]
            terms = []
            for combo in iproduct(all_parts, repeat=len(ps)):
                if join_all(combo, n) != top:
                    continue
                term = tables[0][combo[0]]
                for i in range(1, len(ps)):
                    term = term * tables[i][combo[i]]
                terms.append(term)
            total = csum(terms, digits=digits)
        else:
            raise ValueError(f"unknown method {method!r}")

        return total * (-d) ** (n - 1) / math.factorial(n - 1)


def boxtimes_fold(ps: Sequence[MonicPoly], digits: int = DEFAULT_DIGITS) -> MonicPoly:
    out = ps[0]
    for q in ps[1:]:
        out = boxtimes(out, q, digits=digits)
    return out


# ---------------------------------------------------------------------------
# special polynomial families
# ---------------------------------------------------------------------------

def laguerre_hat_atilde(d: int, lam, k: int):
    """atilde_k of the normalized Laguerre polynomial: (d*lam)_k / d^k."""
    (dk,) = promote_ints([d], kind_of(lam))
    return falling(dk * lam, k) / dk ** k


def laguerre_hat(d: int, lam, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Normalized Laguerre polynomial: all finite free cumulants equal lam."""
    if d < 1 or not lam > 0:
        raise ValueError("need d >= 1 and lam > 0")
    with work(kind_of(lam), digits):
        at = [laguerre_hat_atilde(d, lam, k) for k in range(d + 1)]
    return from_normalized(at, digits=digits)


def hermite_unitary_atilde(d: int, t, k: int, digits: int = DEFAULT_DIGITS):
    """atilde_k of the unitary Hermite polynomial: exp(-t k (d-k) / 2d)."""
    with mp.workdps(digits):
        return mp.exp(-to_mpf(t, digits) * k * (d - k) / (2 * d))


def hermite_unitary(d: int, t, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Unitary Hermite polynomial; roots on the unit circle, coefficients real."""
    if d < 1 or t < 0:
        raise ValueError("need d >= 1 and t >= 0")
    at = [hermite_unitary_atilde(d, t, k, digits) for k in range(d + 1)]
    return from_normalized(at, digits=digits)


def exp_poly_atilde(d: int, t, k: int, digits: int = DEFAULT_DIGITS):
    """atilde_k of the exponential-coefficient polynomial: exp(+t k (d-k) / 2d)."""
    with mp.workdps(digits):
        return mp.exp(to_mpf(t, digits) * k * (d - k) / (2 * d))


def exp_poly(d: int, t, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """The multiplicative-CLT limit polynomial at degree d, parameter t."""
    if d < 1 or t < 0:
        raise ValueError("need d >= 1 and t >= 0")
    at = [exp_poly_atilde(d, t, k, digits) for k in range(d + 1)]
    return from_normalized(at, digits=digits)


def laguerre_unitary_atilde(d: int, m: int, k: int):
    """atilde_k of the unitary Laguerre polynomial: (1 - 2k/d)^m, exact."""
    return Fraction(d - 2 * k, d) ** m


def laguerre_unitary(d: int, m: int) -> MonicPoly:
    """Unitary Laguerre polynomial with exact rational coefficients."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    at = [laguerre_unitary_atilde(d, m, k) for k in range(d + 1)]
    return from_normalized(at)

