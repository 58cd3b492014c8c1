"""Finite free cumulants and the special polynomial families.

The degree-d cumulant transform sends normalized coefficients to

    kappa_n = (-d)^(n-1)/(n-1)! * sum over partitions pi of [n] of
              atilde_pi * mu(pi, 1_n),        atilde_pi = prod_V atilde_|V|,

for n = 1..d, linearizing the additive convolution.  The partition sum is
block-multiplicative, so it is n! times the z^n coefficient of the log of
sum_j atilde_j z^j / j! (see ``series``), and the transform is

    kappa_n = (-d)^(n-1) * n * [z^n] log sum_j atilde_j z^j / j!.

The literal sum over P(n) by block-size profile, ``partitions.block_sum``,
is kept as the cross-checking path.  The inverse is the matching series exp.

The sum cancels to O(d^-(n-1)) against O(1) terms for the exponential
families; ``experiments.working_digits`` adds the (n-1)*log10(d) digits lost.

Each special family's normalized coefficients are one column
atilde_0..atilde_k_max (``*_atilde``), built in one pass.  The normalized
Laguerre column takes the exact ratio (d lam - k)/d, so exact values are
the same ``Fraction``s as the falling factorials (d lam)_k / d^k; the
unitary Laguerre column is its exact powers.  The unitary Hermite and
exponential columns take two exps and a guard-digit recurrence, and each
entry is rounded once to the requested digits, within 1 ulp of
exp(-t k (d-k) / 2d), or of exp(+t k (d-k) / 2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import mpmath as mp

from .partitions import block_sum, join_sum
from .polycalc import MonicPoly, boxtimes, from_normalized, normalized_coeffs
from .scalars import DEFAULT_DIGITS, common_kind, one_kind, to_mpf
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
    ``grouped=False`` sums P(n) literally, by block-size profile (cross-check).
    """
    if n_max > d:
        raise ValueError(f"kappa_n needs n <= d, got n={n_max}, d={d}")
    if len(atilde) < n_max + 1:
        raise ValueError("need atilde up to index n_max")
    if atilde[0] != 1:
        raise ValueError("atilde_0 must be 1")
    with mp.workdps(digits):
        atilde = one_kind(atilde[: n_max + 1], "cumulants_from_atilde")
        try:
            if grouped:
                log = PowerSeries.egf(atilde).log()
                return [(-d) ** (n - 1) * n * log.coeff(n) for n in range(1, n_max + 1)]
            return [(-d) ** (n - 1) * block_sum(atilde[1:], n, signed=True)
                    / math.factorial(n - 1) for n in range(1, n_max + 1)]
        except OverflowError:  # only binary64 fails to take an int past its range
            raise OverflowError(
                f"cumulants_from_atilde at d={d}, n_max={n_max}: d^(n-1) or n! is past the "
                'binary64 range; give the input as exact strings, such as "1e400"') from None


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
    with mp.workdps(digits):
        kappas = one_kind(kappas[:n_max], "atilde_from_cumulants")
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
                       digits: int = DEFAULT_DIGITS):
    """kappa_n of the multiplicative convolution of the family, from the
    factors' cumulants alone.

    Both methods rest on the block weights
    u_i(b) = (-1)^(b-1) (b-1)! kappa_b(p_i) / d^(b-1), the factor a block of
    size b brings to mu(0_n, sigma) d^(|sigma|-n) kappa_sigma(p_i).

    ``pi-sum``: for each partition pi of [n], multiply over factors the
    refinement sums  sum_{sigma <= pi} mu(0_n, sigma) d^(|sigma|-n)
    kappa_sigma(p_i), and weight by mu(pi, 1_n).  The interval [0_n, pi] is
    the product over the blocks V of pi of P(|V|), and the summand
    factorizes over the blocks of sigma, so each refinement sum is
    prod_V w_i(|V|), w_i(s) = s! [z^s] exp sum_b u_i(b) z^b / b! (the sum
    over P(s), see ``series``).  The whole sum is n! [z^n] log of
    sum_s W(s) z^s / s!, W(s) = prod_i w_i(s): one series exp per factor and
    one log, with no walk of P(n) and no cap on n.

    ``join-sum``: the literal oracle, the sum over m-tuples (sigma_1..sigma_m)
    whose join is 1_n of prod_i prod_{V in sigma_i} u_i(|V|), by ``join_sum``.
    Exponential in m and n; ``join_sum`` owns its cap, n <= 6.
    """
    if not ps:
        raise ValueError("need at least one polynomial")
    d = ps[0].degree
    if any(p.degree != d for p in ps):
        raise ValueError("equal degrees required")
    if not 1 <= n <= d:
        raise ValueError(f"kappa_n needs 1 <= n <= d, got n={n}, d={d}")
    if method not in ("pi-sum", "join-sum"):
        raise ValueError(f"unknown method {method!r}")
    kappas = [
        cumulants_from_atilde(d, normalized_coeffs(p, digits=digits), n, digits=digits)
        for p in ps
    ]
    common_kind([k for ks in kappas for k in ks], "boxtimes_cumulants")  # refuses a mix
    with mp.workdps(digits):
        us = [[(-1) ** (b - 1) * math.factorial(b - 1) * ks[b - 1] / d ** (b - 1)
               for b in range(1, n + 1)] for ks in kappas]
        if method == "pi-sum":
            # each exp holds w_i(s) / s!, so W(s) / s! is s!^(m-1) times their product
            ws = [PowerSeries.egf([u[0] * 0] + u).exp().coeffs for u in us]
            W = [math.factorial(s) ** (len(us) - 1) * math.prod(w[s] for w in ws)
                 for s in range(n + 1)]
            total = PowerSeries(tuple(W)).log().coeffs[n] * math.factorial(n)
        else:
            total = join_sum(us, n)

        return total * (-d) ** (n - 1) / math.factorial(n - 1)


def boxtimes_fold(ps: Sequence[MonicPoly], digits: int = DEFAULT_DIGITS) -> MonicPoly:
    return reduce(lambda p, q: boxtimes(p, q, digits=digits), ps)


# ---------------------------------------------------------------------------
# special polynomial families
# ---------------------------------------------------------------------------

def laguerre_hat_atilde(d: int, lam, k_max: int) -> list:
    """atilde_0..atilde_k_max of the normalized Laguerre polynomial,
    (d lam)_k / d^k, by the ratio atilde_(k+1) = atilde_k (d lam - k) / d."""
    if d < 1 or not (lam > 0 and mp.isfinite(lam)):
        raise ValueError(f"need d >= 1 and a finite lam > 0, got d={d}, lam={lam}")
    dk, lam = one_kind([d, lam], "laguerre_hat_atilde")
    col = [dk ** 0]
    for k in range(k_max):
        col.append(col[-1] * (dk * lam - k) / dk)
    return col


def laguerre_hat(d: int, lam, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Normalized Laguerre polynomial: all finite free cumulants equal lam."""
    with mp.workdps(digits):
        at = laguerre_hat_atilde(d, lam, d)
    return from_normalized(at, digits=digits)


def _exp_column(d: int, t, sign: int, k_max: int, digits: int) -> list:
    """exp(sign t k (d-k) / 2d) = q^(k(d-k)), q = exp(sign t / 2d), k = 0..k_max,
    by the ratios q^(d-1-2k) at 2 log10(d) + 3 guard digits (the rounding of
    q^-2 is raised to powers up to d^2/2); each entry is rounded once."""
    if d < 1 or not (t >= 0 and mp.isfinite(t)):
        raise ValueError(f"need d >= 1 and a finite t >= 0, got d={d}, t={t}")
    with mp.workdps(digits + math.ceil(2 * math.log10(d)) + 3):
        tt = to_mpf(t, mp.mp.dps)
        ratio, step = mp.exp(sign * tt * (d - 1) / (2 * d)), mp.exp(-sign * tt / d)
        col = [mp.mpf(1)]
        for _ in range(k_max):
            col.append(col[-1] * ratio)
            ratio *= step
    with mp.workdps(digits):
        return [+a for a in col]


def hermite_unitary_atilde(d: int, t, k_max: int, digits: int = DEFAULT_DIGITS) -> list:
    """atilde_0..atilde_k_max of the unitary Hermite polynomial: exp(-t k (d-k) / 2d)."""
    return _exp_column(d, t, -1, k_max, digits)


def hermite_unitary(d: int, t, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Unitary Hermite polynomial; roots on the unit circle, coefficients real."""
    return from_normalized(hermite_unitary_atilde(d, t, d, digits), digits=digits)


def exp_poly_atilde(d: int, t, k_max: int, digits: int = DEFAULT_DIGITS) -> list:
    """atilde_0..atilde_k_max of the exponential-coefficient polynomial:
    exp(+t k (d-k) / 2d)."""
    return _exp_column(d, t, 1, k_max, digits)


def exp_poly(d: int, t, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """The multiplicative-CLT limit polynomial at degree d, parameter t."""
    return from_normalized(exp_poly_atilde(d, t, d, digits), digits=digits)


def laguerre_unitary_atilde(d: int, m: int, k_max: int) -> list:
    """atilde_0..atilde_k_max of the unitary Laguerre polynomial:
    (1 - 2k/d)^m, exact for an int m >= 0."""
    if d < 1 or type(m) is not int or m < 0:
        raise ValueError(f"need d >= 1 and an int m >= 0, got d={d}, m={m!r}")
    return [Fraction(d - 2 * k, d) ** m for k in range(k_max + 1)]


def laguerre_unitary(d: int, m: int) -> MonicPoly:
    """Unitary Laguerre polynomial with exact rational coefficients.

    Its root distribution at m = d tends to the free unitary Poisson law
    (Kabluchko); acceptance criterion 9 pins that statement through the
    root moments of this polynomial.
    """
    return from_normalized(laguerre_unitary_atilde(d, m, d))
