"""Monic polynomial calculus for finite free convolutions.

A degree-d monic polynomial is written p(x) = sum_i a_i x^(d-i) with
a_0 = 1, and carries signed binomial-normalized coefficients

    atilde_i = (-1)^i a_i / C(d, i),

the natural coordinates here: the multiplicative convolution acts on them
diagonally and the additive one by binomial convolution.  A polynomial is
its coefficients; one built from roots, or from angles for the unit-circle
flavor, keeps them as well.  Going from coefficients to roots is explicit
(``roots_of``) and lossy in float kinds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import RootConvergenceError
from .scalars import (DEFAULT_DIGITS, EXACT, FLOAT64, MPF, binom, common_kind, convolve, dot,
                      exp, format_scalar, horner, one_kind, product_tree, to_mpf)
from .series import PowerSeries

_ROOT_MAX_ITER = 200
# below this the mp tolerance 10^-(digits-5) is 1 or more, met by any start
_MIN_ROOT_DIGITS = 6


# ---------------------------------------------------------------------------
# the polynomial value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonicPoly:
    """Immutable monic polynomial: its coefficients a_0..a_d, with a_0 = 1.

    A polynomial built from roots keeps them in ``roots``; one built from
    unit-circle angles keeps them in ``angles``, as arguments in [-pi, pi)
    so angle maps stay exact in the angle domain.  At most one of the two is
    set.
    """

    coeffs: tuple
    roots: tuple | None = None
    angles: tuple | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1 (monic)")
        if self.roots is not None and self.angles is not None:
            raise ValueError("roots and angles are mutually exclusive flavors")
        for field in (self.roots, self.angles):
            if field is not None and len(field) != self.degree:
                raise ValueError("root/angle multiset size must equal the degree")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "MonicPoly":
        return cls(tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Sequence, digits: int = DEFAULT_DIGITS) -> "MonicPoly":
        """Expand the root multiset into coefficients.

        prod (x - lam) is taken by a balanced product tree
        (``scalars.product_tree``).  Exact when the roots are rational; mpf
        roots are expanded at ``digits + 10`` and binary64 roots at 30
        digits, each rounded once at the end to its kind.  Each mpf
        coefficient of a merge is rounded once from its exact value, and
        real mpf merges stay on ints, as rounded pairs, up to the last one.
        """
        roots = tuple(roots)
        kind = common_kind(roots, "from_roots")
        if kind == EXACT:
            return cls(product_tree(roots, Fraction(1)), roots=roots)
        wide = digits + 10 if kind == MPF else 30
        with mp.workdps(wide):
            hi = product_tree([to_mpf(r, wide) for r in roots], mp.mpf(1))
        with mp.workdps(digits):
            coeffs = tuple(+c if kind == MPF else complex(c) if isinstance(c, mp.mpc) else float(c)
                           for c in hi)
        return cls(coeffs, roots=roots)

    @classmethod
    def from_angles(cls, angles: Sequence, digits: int | None = None) -> "MonicPoly":
        """Unit-circle polynomial prod (z - exp(i*theta)); angles in [-pi, pi).

        Angles are binary64, or mpf at ``digits`` when given; the product is
        expanded in their kind.
        """
        if digits is None:
            angles, pi = tuple(float(a) for a in angles), math.pi
        else:
            with mp.workdps(digits):
                angles, pi = tuple(to_mpf(a, digits) for a in angles), +mp.pi
        if not angles:
            raise ValueError("degree must be >= 1")
        if any(a < -pi or a >= pi for a in angles):
            raise ValueError("angles must lie in [-pi, pi)")
        with mp.workdps(digits or DEFAULT_DIGITS):
            units = [exp(1j * a) for a in angles]
            # sequential, not the tree: in-kind binary64 has no final rounding to hide a reordering
            return cls(_expand(units, units[0] ** 0), angles=angles)


def _expand(roots: Sequence, one) -> tuple:
    """Coefficients of prod (x - lam), computed in the kind of ``one``."""
    coeffs = [one]
    zero = one - one
    for lam in roots:
        nxt = [one]
        for i in range(1, len(coeffs) + 1):
            prev = coeffs[i] if i < len(coeffs) else zero
            nxt.append(prev - lam * coeffs[i - 1])
        coeffs = nxt
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# normalized coefficients
# ---------------------------------------------------------------------------

def normalized_coeffs(p: MonicPoly, digits: int = DEFAULT_DIGITS) -> tuple:
    """atilde_0..atilde_d of p."""
    d = p.degree
    with mp.workdps(digits):
        # the monic 1 is an int; promoted, atilde_0 takes the coefficients' kind
        coeffs = one_kind(p.coeffs, "normalized_coeffs")
        return tuple((-1) ** i * a / binom(d, i) for i, a in enumerate(coeffs))


def from_normalized(atilde: Sequence, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Rebuild the coefficient polynomial from atilde_0..atilde_d."""
    atilde = tuple(atilde)
    if not atilde or atilde[0] != 1:
        raise ValueError("atilde_0 must be 1")
    d = len(atilde) - 1
    with mp.workdps(digits):
        coeffs = [(-1 if i % 2 else 1) * binom(d, i) * v
                  for i, v in enumerate(one_kind(atilde, "from_normalized"))]
    coeffs[0] = 1
    return MonicPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# dilation and root-power maps
# ---------------------------------------------------------------------------

def dilate(p: MonicPoly, c, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """D_c(p)(x) = c^d p(x/c): roots scale by c, atilde_i by c^i."""
    if c == 0:
        raise ValueError("dilation factor must be nonzero")
    if p.angles is not None:
        raise ValueError("dilation is not defined on the unit-circle flavor")
    # mpf data or an mpf c scale by c in mpf at ``digits``, so its powers stay mpf
    if MPF in {common_kind(v, "dilate") for v in (p.coeffs, p.roots, [c]) if v is not None}:
        c = to_mpf(c, digits)
    with mp.workdps(digits):
        acc = c ** 0
        coeffs = []
        for a in p.coeffs:
            coeffs.append(a * acc)
            acc = acc * c
        coeffs[0] = p.coeffs[0]
        roots = tuple(r * c for r in p.roots) if p.roots is not None else None
    return MonicPoly(tuple(coeffs), roots=roots)


# ---------------------------------------------------------------------------
# finite free convolutions
# ---------------------------------------------------------------------------

def _binary_op_atilde(p: MonicPoly, q: MonicPoly, name: str, digits: int):
    if p.degree != q.degree:
        raise ValueError(
            f"{name} needs equal degrees, got {p.degree} and {q.degree}"
        )
    ap = normalized_coeffs(p, digits=digits)
    aq = normalized_coeffs(q, digits=digits)
    common_kind(ap + aq, name)  # refuses a mix of kinds
    return ap, aq


def boxplus(p: MonicPoly, q: MonicPoly, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Finite free additive convolution.

    atilde_k(p boxplus q) = sum_{i+j=k} C(k,i) atilde_i(p) atilde_j(q);
    real-rootedness of real-rooted inputs is preserved (checked in tests,
    not enforced here).
    """
    ap, aq = _binary_op_atilde(p, q, "boxplus", digits)
    with mp.workdps(digits):
        out = convolve(ap, aq, p.degree, binomial=True)
    return from_normalized(out, digits=digits)


def boxtimes(p: MonicPoly, q: MonicPoly, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Finite free multiplicative convolution: diagonal on atilde."""
    ap, aq = _binary_op_atilde(p, q, "boxtimes", digits)
    with mp.workdps(digits):
        prod = [a * b for a, b in zip(ap, aq)]
    return from_normalized(prod, digits=digits)


def boxtimes_pow(p: MonicPoly, m: int, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """m-th multiplicative convolution power: atilde_i -> atilde_i^m."""
    if m < 1:
        raise ValueError("power must be a positive integer")
    at = normalized_coeffs(p, digits=digits)
    with mp.workdps(digits):
        powered = [a ** m for a in at]
    return from_normalized(powered, digits=digits)


class BoxtimesLimit(Enum):
    """Limit classification of the multiplicative power sequence."""

    ALL_ZERO = "x^d"
    ZERO_WITH_ATOM = "x^d - d x^(d-1)"
    DELTA_ONE = "(x-1)^d"
    DIVERGENT = "divergent"


def boxtimes_limit_class(p: MonicPoly, digits: int = DEFAULT_DIGITS) -> BoxtimesLimit:
    """Classify lim p^(boxtimes m) for nonnegative-rooted p by (atilde_1, atilde_2)."""
    if p.roots is not None and any(r < 0 for r in p.roots):
        raise ValueError("classification requires nonnegative roots")
    at = normalized_coeffs(p, digits=digits)
    a1 = at[1]
    if a1 > 1:
        return BoxtimesLimit.DIVERGENT
    if a1 < 1:
        return BoxtimesLimit.ALL_ZERO
    a2 = at[2] if p.degree >= 2 else 1
    if a2 < 1:
        return BoxtimesLimit.ZERO_WITH_ATOM
    return BoxtimesLimit.DELTA_ONE


def boxtimes_limit_poly(cls: BoxtimesLimit, d: int) -> MonicPoly:
    """The limit polynomial of a convergent classification, with exact coefficients."""
    if cls is BoxtimesLimit.ALL_ZERO:
        at = [Fraction(1)] + [Fraction(0)] * d
    elif cls is BoxtimesLimit.ZERO_WITH_ATOM:
        at = [Fraction(1), Fraction(1)] + [Fraction(0)] * (d - 1)
    elif cls is BoxtimesLimit.DELTA_ONE:
        at = [Fraction(1)] * (d + 1)
    else:
        raise ValueError("the divergent branch has no limit polynomial")
    return from_normalized(at)


# ---------------------------------------------------------------------------
# root finding (simultaneous iteration)
# ---------------------------------------------------------------------------

def roots_of(p: MonicPoly, digits: int | None = None,
             max_iter: int = _ROOT_MAX_ITER) -> tuple:
    """All roots by Aberth-Ehrlich simultaneous iteration plus Newton polish.

    Returns complex values (binary64, or mpc when ``digits`` is given).
    Convergence is declared on backward error: |p(z)| small against the
    coefficient magnitude at z, which stays meaningful at multiple roots.
    Raises ``RootConvergenceError`` carrying the best residual otherwise.

    Without ``digits`` the iteration runs in binary64 from the circles of the
    Newton polygon, to backward error 1e-13, and the roots must meet Newton's
    first identity, sum z = -a_1, to 2^-16 of sum |z|.  With ``digits`` it is
    a two-rung ladder: the binary64 iteration on the coefficients rounded to
    binary64, then the mpc iteration at ``digits`` digits, to backward error
    10^-(digits-5), started from the binary64 roots, where Aberth converges
    in a few sweeps.  The mpc rung starts from the Newton polygon instead when
    the rounded coefficients overflow or underflow binary64, when the binary64
    rung does not converge, or when it returns a repeated point.  ``max_iter``
    bounds the sweeps of each rung.  ``digits`` below 6 is refused: the
    tolerance would then be 1 or more, which the starting points already meet.
    Each rung evaluates p and p' by ``scalars.horner``: the mpc rung on Gaussian
    ints cut to prec + 64 bits, each part of a value rounded once.
    """
    if digits is None:
        work = []
        for i, c in enumerate(p.coeffs):
            try:
                work.append(complex(c))
            except OverflowError:  # only an exact coefficient fails to take binary64
                raise OverflowError(f"roots_of: a_{i} overflows binary64; pass digits=") from None
        coeffs, zeros = _strip_zero_roots(work)
        roots = (0j,) * zeros + _aberth(coeffs, 1e-13, max_iter)
        # catches ill-conditioned roots that a backward-error stop passes: p_1 off
        # by 2e-3 and more at d = 50, where six equal roots miss by under 1e-5
        size = sum(abs(z) for z in roots)
        miss = abs(sum(roots) + complex(p.coeffs[1]))
        if miss > 2.0 ** -16 * size:
            raise RootConvergenceError(max_iter, miss / size)
        return roots
    if digits < _MIN_ROOT_DIGITS:
        raise ValueError(f"roots_of needs digits >= {_MIN_ROOT_DIGITS}, got {digits}")
    with mp.workdps(digits):
        coeffs, zeros = _strip_zero_roots([mp.mpc(to_mpf(c, digits)) for c in p.coeffs])
        start = _binary64_start(coeffs, max_iter)
        return (mp.mpc(0),) * zeros + _aberth(coeffs, mp.mpf(10) ** (-(digits - 5)),
                                              max_iter, start)


def _strip_zero_roots(coeffs: list) -> tuple:
    """The coefficients without their exact zero roots, and how many there were.

    Zero roots are common and hurt the iteration's conditioning, so they are
    split off before it."""
    zeros = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        zeros += 1
    return coeffs, zeros


def _binary64_start(coeffs: list, max_iter: int) -> list | None:
    """The binary64 roots of the mpc ``coeffs`` as mpc start points, or None
    where they cannot seed the mpc iteration: the coefficients overflow
    binary64 or the constant one rounds to 0, the binary64 iteration does not
    converge, or it returns a non-finite or repeated point."""
    rounded = [complex(c) for c in coeffs]
    if not all(cmath.isfinite(c) for c in rounded) or rounded[-1] == 0:
        return None
    try:
        pts = _aberth(rounded, 1e-13, max_iter)
    except RootConvergenceError:
        return None
    if not all(cmath.isfinite(z) for z in pts) or len(set(pts)) < len(pts):
        return None
    return [mp.mpc(z) for z in pts]


def _aberth(work, tol, max_iter, start=None):
    """Roots of the polynomial with coefficients ``work``, leading first, iterated
    from the points ``start`` or the Newton polygon; a non-finite residual raises."""
    dd = len(work) - 1
    if dd < 1:
        return ()
    if dd == 1:
        return (-work[1],)

    horner_at = horner(work)
    mags = [abs(a) for a in work]

    def coeff_scale(z):
        az, s = abs(z), mags[0]
        for m in mags[1:]:
            s = s * az + m
        return s

    pts = start if start is not None else _polygon_start(work)

    best_residual = math.inf
    converged = False
    for sweep in range(max_iter):
        # the residual first: a converged sweep computes no offsets
        evals = [horner_at(z) for z in pts]
        residual = 0.0
        for z, (val, _) in zip(pts, evals):
            r = float(abs(val) / coeff_scale(z))
            if not math.isfinite(r):  # a NaN would pass max() and the test below
                raise RootConvergenceError(sweep, best_residual)
            residual = max(residual, r)
        best_residual = min(best_residual, residual)
        if residual <= float(tol):
            converged = True
            break
        live, sums = [val != 0 for val, _ in evals], [0] * dd
        for i in range(dd):  # sums[i] adds 1 / (z_i - z_j), j != i ascending, each formed once
            for j in range(i + 1, dd):
                if live[i] or live[j]:
                    r = 1 / (pts[i] - pts[j])
                    sums[i], sums[j] = sums[i] + r, sums[j] - r
        offsets = []
        for (val, der), s in zip(evals, sums):
            if val == 0:
                offsets.append(val * 0)
                continue
            w = val / der if der != 0 else val
            denom = 1 - w * s
            offsets.append(w / denom if denom != 0 else w)
        pts = [z - o for z, o in zip(pts, offsets)]
    if not converged:
        raise RootConvergenceError(max_iter, best_residual)

    # mandatory Newton polish, its first step from the converged sweep's values
    polished = []
    for z, ev in zip(pts, evals):
        for _ in range(2):
            (val, der), ev = ev or horner_at(z), None
            if der == 0 or val == 0:
                break
            step = val / der
            if abs(step) > 1 + abs(z):
                break
            z = z - step
        polished.append(z)
    return tuple(polished)


def _polygon_start(work: list) -> list:
    """Start points on the circles of the Newton polygon (Bini 1996).

    Each edge from k0 to k1 of the upper convex hull of (k, log|q_k|), q_k the
    nonzero coefficients of x^k, puts n = k1 - k0 points on the circle of
    radius |q_k0 / q_k1|^(1/n), at angles 2 pi (j/n + k0/d) + 0.7.  mpc
    coefficients take their logs and radii in mpf, so none overflows."""
    dd = len(work) - 1
    is_mp = isinstance(work[0], mp.mpc)
    log, exp_ = (mp.log, mp.exp) if is_mp else (math.log, math.exp)
    hull = []
    for k, q in enumerate(reversed(work)):
        if q == 0:
            continue
        pt = (k, log(abs(q)))
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    pts = []
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        n = k1 - k0
        radius = exp_((l0 - l1) / n)
        for j in range(n):
            ang = 2 * math.pi * (j / n + k0 / dd) + 0.7
            unit = complex(math.cos(ang), math.sin(ang))
            pts.append(radius * (mp.mpc(unit) if is_mp else unit))
    return pts


# ---------------------------------------------------------------------------
# inequality report and empirical moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonMaclaurinReport:
    """Outcome of the normalized-coefficient inequality checks."""

    newton_holds: bool
    maclaurin_holds: bool
    all_roots_equal: bool
    trailing_zeros: int
    newton_margins: tuple
    maclaurin_chain: tuple


def newton_maclaurin_check(p: MonicPoly, digits: int = DEFAULT_DIGITS) -> NewtonMaclaurinReport:
    """Verify atilde log-concavity and the decreasing root-mean chain.

    Newton: atilde_{i+1} atilde_{i-1} <= atilde_i^2 for 1 <= i <= d-1;
    Maclaurin (nonnegative roots): atilde_1 >= atilde_2^(1/2) >= ... over
    the nonvanishing prefix.  Report only, never raises on violation.
    On exact input the chain is reported in binary64 (inf past its range),
    and a step binary64 cannot resolve is decided in mpf at ``digits`` and,
    inside the mpf tolerance, exactly.  Complex coefficients whose imaginary
    parts are all 0 are read as real; any other imaginary part raises.
    """
    at = normalized_coeffs(p, digits=digits)
    bad = next((i for i, a in enumerate(at) if a.imag), None)
    if bad is not None:
        raise ValueError(f"newton_maclaurin_check needs real coefficients, "
                         f"got atilde_{bad} = {at[bad]}")
    at = [a.real for a in at]
    d = p.degree
    kind = common_kind(at, "newton_maclaurin_check")
    eps = 0.0
    if kind == FLOAT64:
        eps = 1e-12
    elif kind == MPF:
        eps = float(mp.mpf(10) ** (-(digits - 6)))

    with mp.workdps(digits):
        margins = tuple(at[i] ** 2 - at[i + 1] * at[i - 1] for i in range(1, d))
        newton_holds = all(m >= -eps for m in margins)
        equality = all(abs(m) <= eps for m in margins)

        trailing = next(i for i, a in enumerate(reversed(at)) if a != 0)  # atilde_0 = 1

        chain = []
        for i in range(1, d + 1 - trailing):
            a = at[i]
            if a < 0:
                chain.append(float("nan"))
                continue
            chain.append(mp.mpf(a) ** (mp.mpf(1) / i) if kind == MPF else _f64_root(a, i))

        def decreasing(j: int) -> bool:
            hi, lo = chain[j], chain[j + 1]
            # hi == lo also catches a pair of roots both past binary64 (inf)
            if kind == EXACT and (hi == lo or abs(hi - lo) <= 1e-12 * max(1.0, hi, lo)):
                return _exact_chain_step(at, j + 1, digits)
            return hi >= lo - eps

        maclaurin_holds = all(
            not (isinstance(v, float) and math.isnan(v)) for v in chain
        ) and all(decreasing(j) for j in range(len(chain) - 1))
    return NewtonMaclaurinReport(
        newton_holds=newton_holds,
        maclaurin_holds=maclaurin_holds,
        all_roots_equal=equality,
        trailing_zeros=trailing,
        newton_margins=margins,
        maclaurin_chain=tuple(chain),
    )


def _f64_root(a, i: int) -> float:
    """a^(1/i) in binary64 for a nonnegative a, also for exact a past binary64.

    Such an a takes its root in mpf; a root that is itself past binary64
    comes back as inf.
    """
    try:
        return float(a) ** (1.0 / i)
    except OverflowError:
        with mp.workdps(30):
            return float(to_mpf(a, 30) ** (mp.mpf(1) / i))


def _exact_chain_step(at: Sequence, i: int, digits: int) -> bool:
    """atilde_i^(1/i) >= atilde_{i+1}^(1/(i+1)) for exact, nonnegative atilde.

    For a pair binary64 cannot separate: compared in mpf at ``digits``, and
    what lies inside the mpf tolerance is settled by the exact test
    atilde_i^(i+1) >= atilde_{i+1}^i.  Only there, because exact powers at
    large degree cost seconds.
    """
    with mp.workdps(digits):
        hi, lo = (to_mpf(at[k], digits) ** (mp.mpf(1) / k) for k in (i, i + 1))
        if abs(hi - lo) > mp.mpf(10) ** (-(digits - 6)) * max(1, hi, lo):
            return hi > lo
    return at[i] ** (i + 1) >= at[i + 1] ** i


def empirical_moments(p: MonicPoly, N: int, digits: int | None = None) -> list:
    """Moments m_1..m_N of the empirical root distribution.

    With roots or angles, the mean of the atoms' powers.  With coefficients
    only, no root is found: the reversed polynomial P(y) = sum_i a_i y^i is
    prod (1 - r y) over the roots r, so m_k = -k [y^k] log P / d, one series
    log of order N.  That is exact on exact input, and its cancellation is
    about log10 C(d, N) digits, not the conditioning of the roots.  The
    coefficients are read in their own kind, or in mpf at ``digits`` when
    given.
    """
    d = p.degree
    atoms = p.roots if p.roots is not None else p.angles
    if atoms is not None:
        with mp.workdps(digits or DEFAULT_DIGITS):
            atoms = one_kind(atoms, "empirical_moments")
            if p.angles is not None:
                atoms = [exp(1j * a) for a in atoms]
            return [dot([a ** k for a in atoms], [1] * d) / d for k in range(1, N + 1)]
    coeffs = p.coeffs
    if digits is not None:
        coeffs = [to_mpf(c, digits) for c in coeffs]
    with mp.workdps(digits or DEFAULT_DIGITS):
        coeffs = one_kind(coeffs, "empirical_moments")
        log = PowerSeries(tuple(coeffs[: N + 1] + [coeffs[0] * 0] * (N - d))).log()
        return [-k * log.coeff(k) / d for k in range(1, N + 1)]


# ---------------------------------------------------------------------------
# JSON literals (the wire format used by the CLI and config files)
# ---------------------------------------------------------------------------

def parse_scalar(v):
    """A JSON scalar as a number: an int, a finite float, or a string read as
    a ``Fraction`` or else as a finite complex; a bool is refused."""
    if isinstance(v, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite scalar {v}")
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
        except ValueError:
            z = complex(v)  # binary64 complex, as ``_scalar_to_json`` writes it
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite scalar {v!r}")
        return z
    raise ValueError(f"cannot parse scalar {v!r}")


def positive_int(name: str, v) -> int:
    """A positive JSON integer; a bool or a float, even 10.0, is refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name}: a JSON integer is required, got {v!r}")
    if v < 1:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


def poly_from_json(obj: dict, digits: int | None = None) -> MonicPoly:
    """Parse {"degree": d, "coeffs": [...]} / {"roots": [...]} / {"angles": [...]}.

    Coefficients are listed a_0..a_d and must start with 1; rationals may be
    written as strings like "3/4".
    """
    if not isinstance(obj, dict):
        raise ValueError("polynomial literal must be a JSON object")
    known = {"degree", "coeffs", "roots", "angles"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown polynomial literal keys: {sorted(unknown)}")
    reps = [k for k in ("coeffs", "roots", "angles") if k in obj]
    if len(reps) != 1:
        raise ValueError("exactly one of coeffs/roots/angles is required")
    if not isinstance(obj[reps[0]], list):
        raise ValueError(f"{reps[0]} must be a JSON array")
    try:
        values = [parse_scalar(v) for v in obj[reps[0]]]
    except ValueError as exc:
        raise ValueError(f"{reps[0]}: {exc}") from None
    if reps[0] == "coeffs":
        if not values or values[0] != 1:
            raise ValueError("coefficients must be listed a_0..a_d with a_0 = 1")
        p = MonicPoly.from_coeffs(values)
    elif reps[0] == "roots":
        p = MonicPoly.from_roots(values, digits=digits or DEFAULT_DIGITS)
    else:
        if any(isinstance(v, complex) for v in values):
            raise ValueError("angles: an angle must be a real number")
        p = MonicPoly.from_angles([float(v) for v in values])
    if "degree" in obj and positive_int("degree", obj["degree"]) != p.degree:
        raise ValueError(
            f"declared degree {obj['degree']} does not match data ({p.degree})"
        )
    return p


def poly_to_json(p: MonicPoly) -> dict:
    """{"degree": d, "angles": [...]} for a unit-circle polynomial, else its coefficients."""
    if p.angles is not None:
        return {"degree": p.degree, "angles": [float(a) for a in p.angles]}
    return {"degree": p.degree, "coeffs": [_scalar_to_json(c) for c in p.coeffs]}


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    if isinstance(v, mp.mpc):
        v = complex(v)  # written as a binary64 complex, as poly_from_json reads it
    if not mp.isfinite(v):
        raise OverflowError(f"non-finite coefficient {v} past the binary64 range; "
                            'give the input as exact strings, such as "1e400"')
    if isinstance(v, mp.mpf):
        return format_scalar(v, 17)
    if isinstance(v, complex):
        return repr(v).strip("()")  # a string that complex() reads back
    return float(v)
