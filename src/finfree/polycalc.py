"""Monic polynomial calculus for finite free convolutions.

A degree-d monic polynomial is written p(x) = sum_i a_i x^(d-i) with
a_0 = 1, and carries signed binomial-normalized coefficients

    atilde_i = (-1)^i a_i / C(d, i),

the natural coordinates here: the multiplicative convolution acts on them
diagonally and the additive one by binomial convolution.  Polynomials hold
coefficients and/or a root representation (real roots, or angles for the
unit-circle flavor); conversions between the two are explicit and lossy in
float kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import RootConvergenceError
from .scalars import (DEFAULT_DIGITS, EXACT, FLOAT64, MPF, binom, common_kind, exp, kind_of,
                      promote_ints, to_mpf, work)

_ROOT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# the polynomial value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonicPoly:
    """Immutable monic polynomial with optional root data.

    Exactly one of ``roots`` / ``angles`` may accompany ``coeffs``; angle
    data (unit-circle flavor) stores the arguments in [-pi, pi) so angle
    maps stay exact in the angle domain.
    """

    degree: int
    coeffs: tuple | None = None
    roots: tuple | None = None
    angles: tuple | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.coeffs is None and self.roots is None and self.angles is None:
            raise ValueError("a polynomial needs coefficients, roots, or angles")
        if self.roots is not None and self.angles is not None:
            raise ValueError("roots and angles are mutually exclusive flavors")
        if self.coeffs is not None:
            if len(self.coeffs) != self.degree + 1:
                raise ValueError(
                    f"need {self.degree + 1} coefficients for degree {self.degree}"
                )
            if self.coeffs[0] != 1:
                raise ValueError("leading coefficient must be 1 (monic)")
        for field in (self.roots, self.angles):
            if field is not None and len(field) != self.degree:
                raise ValueError("root/angle multiset size must equal the degree")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "MonicPoly":
        coeffs = tuple(coeffs)
        return cls(degree=len(coeffs) - 1, coeffs=coeffs)

    @classmethod
    def from_roots(cls, roots: Sequence, digits: int = DEFAULT_DIGITS) -> "MonicPoly":
        """Expand the root multiset into coefficients.

        Exact when the roots are rational; float roots are expanded at
        extended precision and rounded once at the end.
        """
        roots = tuple(roots)
        kind = common_kind(roots, "from_roots")
        if kind == EXACT:
            coeffs = _expand(roots, Fraction(1))
        elif kind == MPF:
            with mp.workdps(digits + 10):
                coeffs = _expand(roots, mp.mpf(1))
            with mp.workdps(digits):
                coeffs = tuple(+c for c in coeffs)
        else:
            with mp.workdps(30):
                hi = _expand([to_mpf(r, 30) for r in roots], mp.mpf(1))
            coeffs = tuple(complex(c) if isinstance(c, mp.mpc) else float(c) for c in hi)
        return cls(degree=len(roots), coeffs=coeffs, roots=roots)

    @classmethod
    def from_angles(cls, angles: Sequence, digits: int | None = None) -> "MonicPoly":
        """Unit-circle polynomial prod (z - exp(i*theta)); angles in [-pi, pi)."""
        angles = tuple(angles)
        if digits is not None:
            with mp.workdps(digits):
                angles = tuple(to_mpf(a, digits) for a in angles)
                lo, hi = -mp.pi, mp.pi
                if any(a < lo or a >= hi for a in angles):
                    raise ValueError("angles must lie in [-pi, pi)")
        else:
            angles = tuple(float(a) for a in angles)
            if any(a < -math.pi or a >= math.pi for a in angles):
                raise ValueError("angles must lie in [-pi, pi)")
        return cls(degree=len(angles), angles=angles)

    # -- representation access ---------------------------------------------

    def coefficients(self, digits: int = DEFAULT_DIGITS) -> tuple:
        """Coefficients a_0..a_d, expanding from roots or angles on demand."""
        if self.coeffs is not None:
            return self.coeffs
        if self.roots is not None:
            return MonicPoly.from_roots(self.roots, digits=digits).coeffs
        with work(self.angle_kind, digits):
            units = [exp(1j * a) for a in self.angles]
            return _expand(units, units[0] ** 0)

    @property
    def angle_kind(self) -> str:
        return kind_of(self.angles[0]) if self.angles else EXACT

    def scalar_kind(self) -> str:
        src = self.coeffs or self.roots or self.angles
        return common_kind(src, "scalar_kind")

    def __repr__(self):
        rep = []
        if self.coeffs is not None:
            rep.append(f"coeffs={self.coeffs!r}")
        if self.roots is not None:
            rep.append(f"roots={self.roots!r}")
        if self.angles is not None:
            rep.append(f"angles={self.angles!r}")
        return f"MonicPoly(d={self.degree}, {', '.join(rep)})"


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
    coeffs = p.coefficients(digits=digits)
    d = p.degree
    kind = common_kind(coeffs, "normalized_coeffs")
    with work(kind, digits):
        # the monic 1 is an int; promoted, atilde_0 takes the coefficients' kind
        coeffs = promote_ints(coeffs, kind)
        return tuple((-1) ** i * a / binom(d, i) for i, a in enumerate(coeffs))


def from_normalized(atilde: Sequence, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Rebuild the coefficient polynomial from atilde_0..atilde_d."""
    atilde = tuple(atilde)
    if atilde[0] != 1:
        raise ValueError("atilde_0 must be 1")
    d = len(atilde) - 1
    if d < 1:
        raise ValueError("need degree >= 1")
    kind = common_kind(atilde, "from_normalized")
    coeffs = []
    with work(kind, digits):
        for i, v in enumerate(promote_ints(atilde, kind)):
            sign = -1 if i % 2 else 1
            coeffs.append(sign * binom(d, i) * v)
    coeffs[0] = 1
    return MonicPoly(degree=d, coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# dilation and root-power maps
# ---------------------------------------------------------------------------

def dilate(p: MonicPoly, c, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """D_c(p)(x) = c^d p(x/c): roots scale by c, atilde_i by c^i."""
    if c == 0:
        raise ValueError("dilation factor must be nonzero")
    if p.angles is not None:
        raise ValueError("dilation is not defined on the unit-circle flavor")
    kind = kind_of(c)
    coeffs = None
    with work(kind, digits):
        if p.coeffs is not None:
            acc = c ** 0
            new = []
            for a in p.coeffs:
                new.append(a * acc)
                acc = acc * c
            new[0] = p.coeffs[0]
            coeffs = tuple(new)
        roots = tuple(r * c for r in p.roots) if p.roots is not None else None
    return MonicPoly(degree=p.degree, coeffs=coeffs, roots=roots)


def phi_alpha(p: MonicPoly, alpha, digits: int | None = None) -> MonicPoly:
    """Map each nonnegative root to its alpha-th power (0^alpha := 0)."""
    if p.roots is None:
        raise ValueError(
            "root-power map needs the root representation; call roots_of first"
        )
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if any(r < 0 for r in p.roots):
        raise ValueError("root-power map requires nonnegative roots")
    if alpha == 1:
        return p
    kind = common_kind(p.roots, "phi_alpha")
    if kind == MPF and digits is None:
        digits = DEFAULT_DIGITS
    if digits is not None:
        with mp.workdps(digits):
            new = tuple(
                mp.mpf(0) if r == 0
                else mp.exp(to_mpf(alpha, digits) * mp.log(to_mpf(r, digits)))
                for r in p.roots
            )
        return MonicPoly.from_roots(new, digits=digits)
    if isinstance(alpha, int):
        return MonicPoly.from_roots([r ** alpha for r in promote_ints(p.roots, kind)])
    new = tuple(0.0 if r == 0 else float(r) ** float(alpha) for r in p.roots)
    return MonicPoly.from_roots(new)


def phi_c_unitary(p: MonicPoly, c) -> MonicPoly:
    """Shrink every angle by the factor c in (0,1); exact in the angle domain."""
    if p.angles is None:
        raise ValueError("angle map needs the unit-circle flavor (angles present)")
    if not 0 < c < 1:
        raise ValueError("angle contraction factor must lie in (0,1)")
    return MonicPoly(degree=p.degree, angles=tuple(a * c for a in p.angles))


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
    common_kind(list(ap) + list(aq), name)
    return ap, aq


def boxplus(p: MonicPoly, q: MonicPoly, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Finite free additive convolution.

    atilde_k(p boxplus q) = sum_{i+j=k} C(k,i) atilde_i(p) atilde_j(q);
    real-rootedness of real-rooted inputs is preserved (checked in tests,
    not enforced here).
    """
    ap, aq = _binary_op_atilde(p, q, "boxplus", digits)
    d = p.degree
    out = []
    with work(common_kind(list(ap) + list(aq), "boxplus"), digits):
        for k in range(d + 1):
            terms = [binom(k, i) * ap[i] * aq[k - i] for i in range(k + 1)]
            out.append(sum(terms))
    return from_normalized(out, digits=digits)


def boxplus_fold(ps: Sequence[MonicPoly], digits: int = DEFAULT_DIGITS) -> MonicPoly:
    out = ps[0]
    for q in ps[1:]:
        out = boxplus(out, q, digits=digits)
    return out


def boxtimes(p: MonicPoly, q: MonicPoly, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """Finite free multiplicative convolution: diagonal on atilde."""
    ap, aq = _binary_op_atilde(p, q, "boxtimes", digits)
    with work(common_kind(list(ap) + list(aq), "boxtimes"), digits):
        prod = [a * b for a, b in zip(ap, aq)]
    return from_normalized(prod, digits=digits)


def boxtimes_pow(p: MonicPoly, m: int, digits: int = DEFAULT_DIGITS) -> MonicPoly:
    """m-th multiplicative convolution power: atilde_i -> atilde_i^m."""
    if m < 1:
        raise ValueError("power must be a positive integer")
    at = normalized_coeffs(p, digits=digits)
    with work(common_kind(at, "boxtimes_pow"), digits):
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
    """
    if digits is None:
        coeffs = [complex(c) for c in p.coefficients()]
        return _aberth(coeffs, tol=1e-13, max_iter=max_iter)
    with mp.workdps(digits):
        coeffs = [mp.mpc(to_mpf(c, digits)) for c in p.coefficients(digits=digits)]
        return _aberth(coeffs, tol=mp.mpf(10) ** (-(digits - 5)), max_iter=max_iter)


def _aberth(coeffs, tol, max_iter):
    d = len(coeffs) - 1
    one = coeffs[0]
    is_mp = isinstance(one, mp.mpc)

    # strip exact zero roots first; they are common and hurt conditioning
    zeros = 0
    work = list(coeffs)
    while len(work) > 1 and work[-1] == 0:
        work.pop()
        zeros += 1
    zero_roots = tuple(mp.mpc(0) if is_mp else 0j for _ in range(zeros))
    if len(work) == 1:
        return zero_roots
    dd = len(work) - 1
    if dd == 1:
        return zero_roots + (-work[1],)

    def horner(z):
        val = work[0]
        der = work[0] * 0
        for a in work[1:]:
            der = der * z + val
            val = val * z + a
        return val, der

    def coeff_scale(z):
        az = abs(z)
        s = abs(work[0])
        for a in work[1:]:
            s = s * az + abs(a)
        return s

    # initial points: circle of the Fujiwara radius, rotated off symmetry axes
    radius = max(
        (2 * abs(work[i])) ** (1.0 / i) if work[i] != 0 else 0.0
        for i in range(1, dd + 1)
    )
    radius = float(radius) or 1.0
    pts = []
    for j in range(dd):
        ang = 2 * math.pi * (j + 0.5) / dd + 0.4
        z = radius * complex(math.cos(ang), math.sin(ang))
        pts.append(mp.mpc(z) if is_mp else z)

    best_residual = math.inf
    converged = False
    for _ in range(max_iter):
        residual = 0.0
        offsets = []
        for i, z in enumerate(pts):
            val, der = horner(z)
            scale = coeff_scale(z)
            residual = max(residual, float(abs(val) / scale))
            if val == 0:
                offsets.append(val * 0)
                continue
            w = val / der if der != 0 else val
            s = sum(1 / (z - pts[j]) for j in range(dd) if j != i)
            denom = 1 - w * s
            offsets.append(w / denom if denom != 0 else w)
        best_residual = min(best_residual, residual)
        if residual <= float(tol):
            converged = True
            break
        pts = [z - o for z, o in zip(pts, offsets)]
    if not converged:
        raise RootConvergenceError(max_iter, best_residual)

    # mandatory Newton polish
    polished = []
    for z in pts:
        for _ in range(2):
            val, der = horner(z)
            if der == 0 or val == 0:
                break
            step = val / der
            if abs(step) > 1 + abs(z):
                break
            z = z - step
        polished.append(z)
    return zero_roots + tuple(polished)


# ---------------------------------------------------------------------------
# inequality report and empirical distribution
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
    On exact input the chain is reported in binary64, and a step binary64
    cannot resolve is decided in mpf at ``digits`` and, inside the mpf
    tolerance, exactly.
    """
    at = normalized_coeffs(p, digits=digits)
    d = p.degree
    kind = common_kind(at, "newton_maclaurin_check")
    eps = 0.0
    if kind == FLOAT64:
        eps = 1e-12
    elif kind == MPF:
        eps = float(mp.mpf(10) ** (-(digits - 6)))

    with work(kind, digits):
        margins = tuple(at[i] ** 2 - at[i + 1] * at[i - 1] for i in range(1, d))
        newton_holds = all(m >= -eps for m in margins)
        equality = all(abs(m) <= eps for m in margins)

        trailing = 0
        for a in reversed(at):
            if a == 0:
                trailing += 1
            else:
                break

        chain = []
        for i in range(1, d + 1 - trailing):
            a = at[i]
            if a < 0:
                chain.append(float("nan"))
                continue
            chain.append(
                mp.mpf(a) ** (mp.mpf(1) / i) if kind == MPF else float(a) ** (1.0 / i)
            )

        def decreasing(j: int) -> bool:
            hi, lo = chain[j], chain[j + 1]
            if kind == EXACT and abs(hi - lo) <= 1e-12 * max(1.0, hi, lo):
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


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Uniform probability measure on the root multiset of a polynomial."""

    atoms: tuple

    @classmethod
    def from_poly(cls, p: MonicPoly, digits: int | None = None) -> "EmpiricalDistribution":
        if p.roots is not None:
            return cls(atoms=p.roots)
        if p.angles is not None:
            return cls(atoms=tuple(exp(1j * a) for a in p.angles))
        return cls(atoms=roots_of(p, digits=digits))

    def moment(self, n: int, digits: int = DEFAULT_DIGITS):
        if n == 0:
            return 1
        kind = common_kind(self.atoms, "moment")
        with work(kind, digits):
            total = None
            for a in self.atoms:
                t = a ** n
                total = t if total is None else total + t
            return total / len(self.atoms)


def empirical_moments(p: MonicPoly, N: int, digits: int | None = None) -> list:
    """Moments m_1..m_N of the empirical root distribution."""
    dist = EmpiricalDistribution.from_poly(p, digits=digits)
    return [dist.moment(n, digits=digits or DEFAULT_DIGITS) for n in range(1, N + 1)]


# ---------------------------------------------------------------------------
# JSON literals (the wire format used by the CLI and config files)
# ---------------------------------------------------------------------------

def _parse_scalar(v):
    if isinstance(v, bool):
        raise ValueError("booleans are not polynomial coefficients")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"cannot parse scalar {v!r}")


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
    values = [_parse_scalar(v) for v in obj[reps[0]]]
    if reps[0] == "coeffs":
        if not values or values[0] != 1:
            raise ValueError("coefficients must be listed a_0..a_d with a_0 = 1")
        p = MonicPoly.from_coeffs(values)
    elif reps[0] == "roots":
        p = MonicPoly.from_roots(values, digits=digits or DEFAULT_DIGITS)
    else:
        p = MonicPoly.from_angles([float(v) for v in values])
    if "degree" in obj and obj["degree"] != p.degree:
        raise ValueError(
            f"declared degree {obj['degree']} does not match data ({p.degree})"
        )
    return p


def poly_to_json(p: MonicPoly) -> dict:
    out: dict = {"degree": p.degree}
    if p.coeffs is not None:
        out["coeffs"] = [_scalar_to_json(c) for c in p.coeffs]
    elif p.roots is not None:
        out["roots"] = [_scalar_to_json(r) for r in p.roots]
    else:
        out["angles"] = [float(a) for a in p.angles]
    return out


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    if isinstance(v, mp.mpf):
        return mp.nstr(v, 17)
    return float(v)
