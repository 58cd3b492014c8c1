"""Closed-form targets of the limit theorems and the series pipeline.

Cumulant/moment sequences of the three limit laws:

* ``lambda_cumulant``   - multiplicative free semicircular law;
* ``sigma_cumulant``    - free unitary normal law;
* ``pi_cumulant``       - free unitary Poisson law;

plus the fixed-ratio partition-sum limit (``sy_limit_t``) and its vanishing-
ratio limit (``sy_limit_zero``), whose cumulants (kappa2 n)^(n-1)/n! are
those of the compound-scaling law.  Each refuses a t (or kappa2) outside its
closed form's range, nan and inf included.

All of it runs on the truncated power series of ``series``: the fixed-ratio
partition sum is a series log, and both inversions are one Lagrange step,
[w^(n-1)] phi(w)^n / n taken as the exp of n log phi (``_lagrange``).  The
independent route to the cumulants is kappa_n = [z^(n-1)] S(z)^(-n) / n on
the known S-transforms, phi = 1/S.  Moments need no sum over non-crossing
partitions: M(z) = 1 + sum_n kappa_n (z M(z))^n makes w = z M(z) the inverse
of w / phi(w) with phi(w) = 1 + sum_n kappa_n w^n, so m_n = [w^n] phi^(n+1) / (n+1).

A flagged discrepancy: one worked example elsewhere lists the fixed-ratio
family with the opposite sign of t, i.e. (e^t - 1)/t instead of
(1 - e^(-t))/t at n = 2.  Direct evaluation of the displayed partition sum,
and every finite-degree computation in the experiment harness, produce the
decaying form implemented here; the mirrored family is intentionally NOT
"corrected" to.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp

from .scalars import DEFAULT_DIGITS, binom, dot, one_kind, recurrence, to_mpf
from .series import PowerSeries


# ---------------------------------------------------------------------------
# closed-form cumulant and moment sequences
# ---------------------------------------------------------------------------

def _finite(x) -> bool:
    return x is not None and bool(mp.isfinite(x))


def _check_t(n: int, t, positive: bool = False) -> None:
    """Refuse n < 1 and a t that is not finite and >= 0 (> 0 where ``positive``)."""
    if n < 1 or not (_finite(t) and (t > 0 if positive else t >= 0)):
        raise ValueError(f"need n >= 1 and a finite t {'>' if positive else '>='} 0, "
                         f"got n={n}, t={t}")


def lambda_cumulant(n: int, t, digits: int = DEFAULT_DIGITS):
    """kappa_n = exp(nt/2) (nt)^(n-1) / n!."""
    _check_t(n, t)
    with mp.workdps(digits):
        tt = to_mpf(t, digits)
        return mp.exp(n * tt / 2) * (n * tt) ** (n - 1) / math.factorial(n)


def sigma_cumulant(n: int, t, digits: int = DEFAULT_DIGITS):
    """kappa_n = exp(-nt/2) (-nt)^(n-1) / n!."""
    _check_t(n, t)
    with mp.workdps(digits):
        tt = to_mpf(t, digits)
        return mp.exp(-n * tt / 2) * (-n * tt) ** (n - 1) / math.factorial(n)


def lambda_moment(n: int, t, digits: int = DEFAULT_DIGITS):
    """m_n = exp(nt/2) sum_{k=0}^{n-1} n^(k-1)/k! C(n,k+1) t^k."""
    _check_t(n, t)
    with mp.workdps(digits):
        tt = to_mpf(t, digits)
        coeffs = [mp.mpf(n) ** (k - 1) / math.factorial(k) * binom(n, k + 1) for k in range(n)]
        return mp.exp(n * tt / 2) * dot(coeffs, [tt ** k for k in range(n)])


def pi_cumulant(n: int, t, digits: int = DEFAULT_DIGITS):
    """kappa_n = (-1)^(n-1) 2^n e^(-2nt) sum_{k=1}^{n-1} (-t)^k/k! (2n)^(k-1) C(n-2,k-1).

    The sum is -t L^(1)_(n-2)(2nt) / (n-1), taken by ``mp.laguerre``, which
    adds guard digits against its cancellation (term by term it loses 17 of
    50 digits at n = 40).  The n = 1 value is e^(-2t) by convention.
    """
    _check_t(n, t, positive=True)
    with mp.workdps(digits):
        tt = to_mpf(t, digits)
        if n == 1:
            return mp.exp(-2 * tt)
        lag = mp.laguerre(n - 2, 1, 2 * n * tt)
        return (-1) ** n * mp.mpf(2) ** n * tt * mp.exp(-2 * n * tt) * lag / (n - 1)


def sy_limit_t(n_max: int, t, kappa2=1, digits: int = DEFAULT_DIGITS) -> list:
    """Fixed-ratio limits of the scaled power-sequence cumulants, n = 1..n_max.

    (-1)^(n-1) / (t^(n-1) (n-1)!) * sum over partitions pi of [n] of
    exp(-t sum_V C(|V|,2) kappa2) * mu(pi, 1_n).  The block weight is
    multiplicative, so the sum is n! [z^n] log sum_j exp(-t C(j,2) kappa2) z^j/j!,
    and one series log of order n_max gives the whole column.
    """
    _check_t(n_max, t, positive=True)
    if not _finite(kappa2):
        raise ValueError(f"need a finite kappa2, got kappa2={kappa2}")
    with mp.workdps(digits):
        tt = to_mpf(t, digits)
        k2 = to_mpf(kappa2, digits)
        log = PowerSeries.egf([mp.exp(-tt * binom(j, 2) * k2) for j in range(n_max + 1)]).log()
        return [(-1) ** (n - 1) * n * log.coeff(n) / tt ** (n - 1) for n in range(1, n_max + 1)]


def sy_limit_zero(n: int, kappa2=1, digits: int = DEFAULT_DIGITS):
    """Vanishing-ratio limit: (kappa2 n)^(n-1) / n!."""
    if n < 1 or not _finite(kappa2):
        raise ValueError(f"need n >= 1 and a finite kappa2, got n={n}, kappa2={kappa2}")
    with mp.workdps(digits):
        k2 = to_mpf(kappa2, digits)
        return (k2 * n) ** (n - 1) / math.factorial(n)


# ---------------------------------------------------------------------------
# S-transforms and Lagrange inversion
# ---------------------------------------------------------------------------

S_KINDS = ("lambda", "sigma", "pi", "identity")


def s_transform_series(kind: str, N: int, t=None,
                       digits: int = DEFAULT_DIGITS) -> PowerSeries:
    """Truncated S-transform of the requested limit law at 0.

    lambda: exp(-t(z+1/2)); sigma: exp(+t(z+1/2)); pi: exp(t/(z+1/2));
    identity: the constant 1 (point mass at 1).  t is that of the law's
    closed form: finite, t >= 0 for lambda and sigma, t > 0 for pi.
    """
    if N < 1:
        raise ValueError("need order N >= 1")
    if kind not in S_KINDS:
        raise ValueError(f"unknown S-transform kind {kind!r}; pick one of {S_KINDS}")
    with mp.workdps(digits):
        if kind == "identity":
            return PowerSeries.constant(mp.mpf(1), N)
        _check_t(N, t, positive=kind == "pi")
        tt = to_mpf(t, digits)
        if kind == "lambda":
            u = PowerSeries(tuple([-tt / 2, -tt] + [mp.mpf(0)] * (N - 1)))
        elif kind == "sigma":
            u = PowerSeries(tuple([tt / 2, tt] + [mp.mpf(0)] * (N - 1)))
        else:
            # t/(z+1/2) = 2t * sum (-2z)^j
            u = PowerSeries(tuple(2 * tt * (-2) ** j for j in range(N + 1)))
        return u.exp()


def _lagrange(log_phi: PowerSeries, phi0, N: int) -> list:
    """[w^(n-1)] phi(w)^n / n for n = 1..N, phi = exp(log_phi) / phi0: one kernel
    pass, per n the exp recurrence on n log_phi cut at w^(n-1), one value each."""
    return [g / (n * phi0 ** n)
            for n, g in enumerate(recurrence(log_phi.coeffs[:N], "lagrange"), 1)]


def lagrange_cumulants(S: PowerSeries, N: int, digits: int = DEFAULT_DIGITS) -> list:
    """Free cumulants from an S-transform by Lagrange inversion.

    kappa_n = (1/n!) (d/dz)^(n-1) (z/f(z))^n at 0 with f(z) = z S(z), i.e.
    the (n-1)-st coefficient of S^(-n) divided by n.  Needs S(0) != 0.
    ``_lagrange`` with phi = 1/S, log phi = -log(S/S(0)).
    """
    s0 = S.coeffs[0]
    if s0 == 0:
        raise ValueError("Lagrange inversion needs S(0) != 0")
    if S.order < N - 1:
        raise ValueError(f"series order {S.order} too small for N={N}")
    with mp.workdps(digits):
        cs = one_kind(S.coeffs[: max(N, 1)], "series")
        log = PowerSeries(tuple(c / cs[0] for c in cs)).log()
        return _lagrange(PowerSeries(tuple(-c for c in log.coeffs)), cs[0], N)


def nc_moments_from_cumulants(kappas: Sequence, N: int,
                              digits: int = DEFAULT_DIGITS) -> list:
    """Moments m_1..m_N from free cumulants: m_n = [w^n] phi(w)^(n+1) / (n+1),
    phi(w) = 1 + sum_n kappa_n w^n, by ``_lagrange`` for n = 1..N+1 with its
    first entry, m_0 = 1, dropped.  Exact kappas give ``Fraction``s."""
    if not kappas or N > len(kappas):
        raise ValueError(f"need kappa_1..kappa_{max(N, 1)}, got {len(kappas)} values")
    with mp.workdps(digits):
        ks = one_kind(kappas, "nc_moments_from_cumulants")
        return _lagrange(PowerSeries((ks[0] ** 0,) + tuple(ks[:N])).log(), 1, N + 1)[1:]
