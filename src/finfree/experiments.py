"""Experiment harness: every limit theorem as a finite-size computation.

Each experiment kind is one declaration in ``_KINDS``: the grids it sweeps
and a point generator yielding, per grid point, the finite-size values for
n = 1, 2, ... and their closed-form references.  A fixed family is declared
by its coefficient function and its limit law's cumulant function; the CLT
targets are the limit families' coefficients.  One driver,
``run_experiment``, makes the rows (absolute/relative errors) and fits
log-log convergence rates; CSV output is written from the JSON rows.

Numerical policy: a config's ``precision`` is the number of digits printed.
Every point of every kind computes in mpf at one working precision derived
from it, ``working_digits``: those digits plus the transform's cancellation
and an m-th power's condition number, under the one bound MAX_WORKING_DIGITS.
A run opens one precision scope at that precision, in ``run_experiment``:
the point generators and the rows compute inside it and open none of their own.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .cumulants import (cumulants_from_atilde, exp_poly_atilde, hermite_unitary_atilde,
                        laguerre_hat_atilde, laguerre_unitary_atilde)
from .errors import PrecisionBudgetError
from .freelimits import lambda_cumulant, pi_cumulant, sigma_cumulant, sy_limit_t, sy_limit_zero
from .polycalc import (MonicPoly, normalized_coeffs, parse_scalar, poly_from_json,
                       positive_int)
from .scalars import dot, format_scalar, to_mpf


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Grid and numerical settings of one experiment run.

    ``d``/``m``/``t`` are grids (tuples); for the scaled-power experiment
    equal-length d and m grids pair up row by row, a singleton broadcasts,
    and otherwise the cross product is taken.  ``poly`` is a polynomial
    literal (see ``poly_from_json``) overriding the default input family;
    ``sigma`` builds the canonical degree-2 two-atom instance for the CLT
    kinds when no literal is given.  ``precision`` is the digits printed.
    ``d``, ``m``, ``n_max`` and ``precision`` take only ints; ``t`` and
    ``sigma`` are polynomial-literal scalars, as floats.
    """

    kind: str
    d: tuple = ()
    m: tuple = ()
    t: tuple = ()
    n_max: int = 3
    precision: int = 50
    sigma: float | None = None
    regime: str | None = None
    poly: dict | None = None

    def __post_init__(self):
        self.d = tuple(positive_int("d grid entries", v) for v in _as_tuple(self.d))
        self.m = tuple(positive_int("m grid entries", v) for v in _as_tuple(self.m))
        self.t = tuple(_finite("t grid entries", v) for v in _as_tuple(self.t))
        self.n_max = positive_int("n_max", self.n_max)
        self.precision = positive_int("precision", self.precision)
        if self.sigma is not None:
            self.sigma = _finite("sigma", self.sigma)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; pick one of {KINDS}")
        if self.precision < 15:
            raise ValueError("precision must be at least 15 digits")
        missing = [g for g in _KINDS[self.kind][0] if not getattr(self, g)]
        if missing:
            raise ValueError(f"{self.kind} needs non-empty grids: {', '.join(missing)}")
        if self.kind == "sy" and self.regime not in ("t", "zero"):
            raise ValueError("regime must be 't' or 'zero' (no auto-detection)")
        if self.d and self.n_max > min(self.d):
            raise ValueError("n_max may not exceed the smallest degree in the grid")


def _as_tuple(v):
    if v is None:
        return ()
    return tuple(v) if isinstance(v, (list, tuple)) else (v,)


def _finite(name: str, v) -> float:
    """A t or sigma value, parsed like a polynomial-literal scalar ("3/4" too)."""
    try:
        return float(parse_scalar(v))
    except (ValueError, OverflowError, TypeError) as exc:  # TypeError: a complex value
        raise ValueError(f"{name} must be finite numbers: {exc}") from None


# ---------------------------------------------------------------------------
# result table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    kind: str
    d: int
    m: int | None
    t: float | None
    n: int
    value: object
    reference: object
    abs_error: object
    rel_error: object | None


_COLUMNS = tuple(f.name for f in fields(Row))


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    precision: int = 50

    def to_csv(self) -> str:
        """The rows of ``to_json`` ("" for null), then the rates and notes."""
        lines = [",".join(_COLUMNS)]
        lines += [",".join("" if row[c] is None else str(row[c]) for c in _COLUMNS)
                  for row in self.to_json()["rows"]]
        lines += [f"# rate,{kind},n={n},{'' if rate is None else f'{rate:.4f}'}"
                  for (kind, n), rate in sorted(self.rates.items())]
        lines += [f"# note,{note}" for note in self.notes]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        def fmt(v):
            return None if v is None else format_scalar(v, self.precision)

        return {
            "rows": [
                {"kind": r.kind, "d": r.d, "m": r.m, "t": r.t, "n": r.n,
                 "value": fmt(r.value), "reference": fmt(r.reference),
                 "abs_error": fmt(r.abs_error), "rel_error": fmt(r.rel_error)}
                for r in self.rows
            ],
            "rates": {f"{k}:n={n}": rate for (k, n), rate in sorted(self.rates.items())},
            "notes": list(self.notes),
        }


def _make_row(kind, d, m, t, n, value, reference) -> Row:
    """One row, at the ambient precision (the caller's scope)."""
    err = abs(value - reference)
    rel = err / abs(reference) if reference != 0 else None
    return Row(kind, d, m, t, n, mp.re(value), mp.re(reference), err, rel)


# ---------------------------------------------------------------------------
# experiment kinds: each a point generator over its grids
# ---------------------------------------------------------------------------

# the one cost bound of the limit kinds, on the working digits: at d = 1000
# and n_max = 300, w = 957 digits and one grid point takes about 1.3 s
MAX_WORKING_DIGITS = 1000


def _laguerre_m(d: int, t: float) -> int:
    """m = round(t d), from the decimal t prints as: an int at any size of t,
    and t = 0.15 at d = 10 gives 2, where its binary value would give 1."""
    return round(Fraction(repr(t)) * d)


def working_digits(cfg: ExperimentConfig) -> int:
    """The one working precision of a run, for ``cfg.precision`` printed digits:

        w = precision + ceil((n_max - 1) log10 d_max) + ceil(log10 m_max) + 10.

    The first term is the cancellation of the cumulant transform, 0 for the
    CLT kinds, which do not run it; the second the condition number of an
    m-th power, 0 for ``fms`` and ``hermite``, which take none.  A w past
    MAX_WORKING_DIGITS raises ``PrecisionBudgetError``.
    """
    grids = _KINDS[cfg.kind][0]
    cancel = (cfg.n_max - 1) * math.log10(max(cfg.d)) if "d" in grids else 0
    ms = cfg.m if "m" in grids else ()
    if cfg.kind == "laguerre":
        ms = [_laguerre_m(d, t) for d in cfg.d for t in cfg.t]
    w = cfg.precision + math.ceil(cancel) + math.ceil(math.log10(max([1, *ms]))) + 10
    if w > MAX_WORKING_DIGITS:
        raise PrecisionBudgetError(f"{cfg.kind} at precision {cfg.precision}: needs {w} working "
                                   f"digits, past the bound of {MAX_WORKING_DIGITS} digits")
    return w


def _literal(obj) -> MonicPoly:
    """The config's polynomial literal, each float in it read, like the
    laguerre t, as the decimal it prints as (0.1 as 1/10)."""
    return poly_from_json(json.loads(json.dumps(obj), parse_float=str))


def _sy_atilde_prefix(cfg: ExperimentConfig, d: int, n_max: int, notes: list):
    """Normalized-coefficient prefix of the base family for the scaled-power run."""
    if cfg.poly is None:
        return laguerre_hat_atilde(d, Fraction(1), n_max)
    p = _literal(cfg.poly)
    if p.degree != d:
        raise ValueError(f"input polynomial degree {p.degree} does not match d={d}")
    at = normalized_coeffs(p)
    if at[1] != 1:
        raise ValueError("hypothesis violation: the input family must have atilde_1 = 1 "
                         "(first finite free cumulant 1)")
    if p.roots is not None and any(r < 0 for r in p.roots):
        raise ValueError("hypothesis violation: nonnegative roots required")
    note = ("user-supplied family: weak convergence of its empirical root "
            "distributions is assumed, not checked")
    if note not in notes:
        notes.append(note)
    return list(at[: n_max + 1])


def _clt_thetas(cfg: ExperimentConfig, unitary: bool, w: int):
    """Exponent/angle vector of the CLT input instance in mpf at w digits,
    checked against the d grid."""
    if cfg.poly is not None:
        p = _literal(cfg.poly)
        if unitary:
            if p.angles is None:
                raise ValueError("unitary CLT input needs an angle literal")
            thetas = [to_mpf(a, w) for a in p.angles]
        else:
            if p.roots is None:
                raise ValueError("positive-root CLT input needs a root literal")
            if any(r <= 0 for r in p.roots):
                raise ValueError("positive roots required to take logarithms")
            thetas = [mp.log(to_mpf(r, w)) for r in p.roots]
    elif cfg.sigma is None:
        raise ValueError(f"{cfg.kind} needs a polynomial literal or sigma")
    else:
        thetas = [to_mpf(cfg.sigma, w), -to_mpf(cfg.sigma, w)]
    if cfg.d and cfg.d != (len(thetas),):
        raise ValueError(f"d grid {cfg.d} conflicts with input of degree {len(thetas)}")
    return thetas


def _pair_grid(ds: Sequence[int], ms: Sequence[int]):
    if len(ds) == len(ms):
        return list(zip(ds, ms))
    if len(ms) == 1:
        return [(d, ms[0]) for d in ds]
    if len(ds) == 1:
        return [(ds[0], m) for m in ms]
    return [(d, m) for d in ds for m in ms]


def _sy_points(cfg: ExperimentConfig, w: int, notes: list):
    """Scaled power: kappa_n(p^[x m]) / m^(n-1) at each (d, m), against the
    fixed-ratio (regime t) or vanishing-ratio (regime zero) limit."""
    n_max = cfg.n_max
    for d, m in _pair_grid(cfg.d, cfg.m):
        try:
            t = float(Fraction(m, d))  # the row's t column
        except OverflowError:
            raise OverflowError(f"sy: the t column m/d = 10^{math.log10(m) - math.log10(d):.1f} "
                                "is past the binary64 range") from None
        at = [to_mpf(a, w) for a in _sy_atilde_prefix(cfg, d, n_max, notes)]
        kappas = cumulants_from_atilde(d, [a ** m for a in at], n_max, digits=w)
        values = [k / mp.mpf(m) ** (n - 1) for n, k in enumerate(kappas, start=1)]
        k2 = cumulants_from_atilde(d, at, 2, digits=w)[1] if n_max >= 2 else 1
        if cfg.regime == "t":
            ratio = to_mpf(Fraction(m, d), w)
            refs = sy_limit_t(n_max, ratio, k2, digits=w)
        else:
            refs = [sy_limit_zero(n, k2, digits=w) for n in range(1, n_max + 1)]
        yield d, m, t, values, refs


def _law_points(atilde, law, power=None):
    """A fixed family against its limit law: at each (d, t), kappa_n of the
    family against law(n, t, w), n = 1..n_max.

    The family's normalized coefficients are the column
    atilde(d, t, n_max, w); given ``power``, they are the column
    atilde(d, 1, n_max), each to the m-th power at m = power(d, t) >= 0, and
    m is recorded in the row.  The law does not depend on d: its column is
    computed once per t, when that t is first reached.
    """
    def points(cfg: ExperimentConfig, w: int, notes: list):
        n_max = cfg.n_max
        refs = {}
        for d in cfg.d:
            for t in cfg.t:
                if power is None:
                    m, at = None, atilde(d, t, n_max, w)
                else:
                    m = power(d, t)
                    if m < 0:
                        raise ValueError(f"{cfg.kind} needs t >= 0, got t={t}")
                    at = [to_mpf(a, w) ** m for a in atilde(d, 1, n_max)]
                values = cumulants_from_atilde(d, at, n_max, digits=w)
                if t not in refs:
                    refs[t] = [law(n, t, w) for n in range(1, n_max + 1)]
                yield d, m, t, values, refs[t]
    return points


def _powered_atilde(thetas, c, m: int, unitary: bool, w: int) -> list:
    """atilde_1..atilde_d, each to the m-th power, of the input whose
    exponents (angles when ``unitary``) are scaled by c."""
    xs = [v * c for v in thetas]
    scaled = (MonicPoly.from_angles(xs, digits=w) if unitary
              else MonicPoly.from_roots([mp.exp(x) for x in xs], digits=w))
    return [a ** m for a in normalized_coeffs(scaled, digits=w)[1:]]


def _clt_points(atilde, unitary: bool):
    """Coefficientwise CLT: at each m, atilde_k of the centered input scaled
    by 1/sqrt(m), to the m-th power, against entries 1..d of the limit
    family's column atilde(d, d var / (d - 1), d)."""
    def points(cfg: ExperimentConfig, w: int, notes: list):
        thetas = _clt_thetas(cfg, unitary, w)
        d = len(thetas)
        if d < 2:
            raise ValueError(f"hypothesis violation: the CLT needs degree d >= 2, got {d}")
        mean = dot(thetas, [1] * d) / d
        if abs(mean) > 1e-12:
            raise ValueError(f"hypothesis violation: CLT input must be centered "
                             f"(mean exponent {float(mean):.3e})")
        t = dot(thetas, thetas) / (d - 1)
        refs = atilde(d, t, d, w)[1:]
        for m in cfg.m:
            yield d, m, None, _powered_atilde(thetas, 1 / mp.sqrt(m), m, unitary, w), refs
    return points


def _lln_points(cfg: ExperimentConfig, w: int, notes: list):
    """Law of large numbers: at each m, atilde_k of the input scaled by 1/m,
    to the m-th power, against exp(k * mean exponent), k = 1..d."""
    thetas = _clt_thetas(cfg, False, w)
    d = len(thetas)
    alpha = dot(thetas, [1] * d) / d
    refs = [mp.exp(alpha * k) for k in range(1, d + 1)]
    for m in cfg.m:
        yield d, m, None, _powered_atilde(thetas, mp.mpf(1) / m, m, False, w), refs


# kind -> (grids it sweeps, its rate fitted along the first; point generator)
_KINDS = {
    "sy": (("d", "m"), _sy_points),
    "multclt": (("m",), _clt_points(exp_poly_atilde, unitary=False)),
    "lln": (("m",), _lln_points),
    "uclt": (("m",), _clt_points(hermite_unitary_atilde, unitary=True)),
    "fms": (("d", "t"), _law_points(exp_poly_atilde, lambda_cumulant)),
    "hermite": (("d", "t"), _law_points(hermite_unitary_atilde, sigma_cumulant)),
    "laguerre": (("d", "t"), _law_points(laguerre_unitary_atilde, pi_cumulant,
                                         power=_laguerre_m)),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run one experiment grid; deterministic for a fixed config.

    The kind's point generator yields (d, m, t, values, references) per grid
    point; the rows are n = 1, 2, ... of the two.  The generator and the rows
    run in one precision scope, at ``working_digits(cfg)``.
    """
    cfg.validate()
    w = working_digits(cfg)
    table = ResultTable(precision=cfg.precision)
    grids, points = _KINDS[cfg.kind]
    with mp.workdps(w):
        for d, m, t, values, refs in points(cfg, w, table.notes):
            for n, (value, ref) in enumerate(zip(values, refs), start=1):
                table.rows.append(_make_row(cfg.kind, d, m, t, n, value, ref))
    table.rows.sort(key=lambda r: (r.d, r.m or 0, r.t or 0.0, r.n))
    table.rates = fit_rate(table, grids[0])
    return table


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(table: ResultTable, axis: str) -> dict:
    """Least-squares slope of log|error| against log(axis), per (kind, n).

    Rows whose error sits at or below the precision floor are excluded (the
    fit would measure noise); a note records any such exclusion.  Groups
    with fewer than 3 usable points get a None rate.
    """
    if axis not in ("d", "m"):
        raise ValueError("axis must be 'd' or 'm'")
    floor = mp.mpf(10) ** (-(table.precision - 5))
    groups: dict = {}
    excluded = 0
    for r in table.rows:
        x = getattr(r, axis)
        if x is None:
            continue
        scale = max(1.0, abs(float(r.reference)))
        if r.abs_error <= floor * scale:
            excluded += 1
            continue
        # an error below the binary64 normal range takes its log in mpmath,
        # so it stays finite; binary64 holds the rest, at a fraction of the
        # cost.  The axis is an int, which math.log takes at any size.
        e = float(r.abs_error)
        ly = math.log(e) if e >= sys.float_info.min else float(mp.log(to_mpf(r.abs_error)))
        groups.setdefault((r.kind, r.n), []).append((math.log(x), ly))
    if excluded:
        table.notes.append(f"rate fit: {excluded} row(s) at the precision floor were excluded")
    return {key: statistics.linear_regression(*zip(*pts)).slope
            if len({lx for lx, _ in pts}) >= 3 else None
            for key, pts in sorted(groups.items())}
