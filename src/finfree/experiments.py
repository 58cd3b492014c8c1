"""Experiment harness: every limit theorem as a finite-size computation.

Each experiment kind is one declaration in ``_KINDS``: the grids it sweeps
and a point generator yielding, per grid point, the finite-size values for
n = 1, 2, ... and their closed-form references.  A fixed family is declared
by its coefficient function and its limit law's cumulant function; the CLT
targets are the limit families' coefficients.  One driver,
``run_experiment``, makes the rows (absolute/relative errors) and fits
log-log convergence rates; CSV output is written from the JSON rows.

Numerical policy: families with rational normalized coefficients (the
scaled-power experiment and the unitary Laguerre one) are evaluated in
exact rational arithmetic and converted once at the end, which sidesteps
cancellation entirely; the exponential families run in mpf arithmetic under
an explicit digit budget of roughly (n-1)*log10(d) + 15.
"""

from __future__ import annotations

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
from .polycalc import (MonicPoly, _parse_scalar, _positive_int, normalized_coeffs,
                       poly_from_json)
from .scalars import EXACT, common_kind, format_scalar, kind_of, promote_ints, to_mpf, work


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
    kinds when no literal is given.  ``d``, ``m``, ``n_max`` and ``precision``
    take only ints; ``t`` and ``sigma`` are polynomial-literal scalars, as floats.
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
        self.d = tuple(_positive_int("d grid entries", v) for v in _as_tuple(self.d))
        self.m = tuple(_positive_int("m grid entries", v) for v in _as_tuple(self.m))
        self.t = tuple(_finite("t grid entries", v) for v in _as_tuple(self.t))
        self.n_max = _positive_int("n_max", self.n_max)
        self.precision = _positive_int("precision", self.precision)
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
        return float(_parse_scalar(v))
    except (ValueError, OverflowError) as exc:
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


def _make_row(kind, d, m, t, n, value, reference, digits) -> Row:
    with mp.workdps(digits):
        v = to_mpf(value, digits)
        ref = to_mpf(reference, digits)
        err = abs(v - ref)
        rel = err / abs(ref) if ref != 0 else None
        v, ref = mp.re(v), mp.re(ref)
    return Row(kind, d, m, t, n, v, ref, err, rel)


# ---------------------------------------------------------------------------
# experiment kinds: each a point generator over its grids
# ---------------------------------------------------------------------------

def precision_budget(n_max: int, d_max: int, digits: int, context: str,
                     notes: list) -> None:
    """Cancellation-budget rule: need about (n-1)*log10(d) + 15 digits.

    Below the +15 margin a warning note is recorded; with no margin at all
    the computation is refused.
    """
    cancel = (n_max - 1) * math.log10(max(d_max, 2))
    if digits <= cancel:
        raise PrecisionBudgetError(digits, cancel + 15, context)
    if digits < cancel + 15:
        notes.append(
            f"precision warning: {context} has ~{cancel:.1f} digits of cancellation; "
            f"{digits} digits leaves a thin margin (recommend >= {cancel + 15:.0f})"
        )


def _sy_atilde_prefix(cfg: ExperimentConfig, d: int, n_max: int, notes: list):
    """Normalized-coefficient prefix of the base family for the scaled-power run."""
    if cfg.poly is None:
        return [laguerre_hat_atilde(d, Fraction(1), i) for i in range(n_max + 1)]
    p = poly_from_json(cfg.poly)
    if p.degree != d:
        raise ValueError(f"input polynomial degree {p.degree} does not match d={d}")
    at = normalized_coeffs(p, digits=cfg.precision)
    if at[1] != 1:
        raise ValueError("hypothesis violation: the input family must have atilde_1 = 1 "
                         "(first finite free cumulant 1)")
    if p.roots is not None and any(float(r) < 0 for r in p.roots):
        raise ValueError("hypothesis violation: nonnegative roots required")
    note = ("user-supplied family: weak convergence of its empirical root "
            "distributions is assumed, not checked")
    if note not in notes:
        notes.append(note)
    return list(at[: n_max + 1])


def _clt_thetas(cfg: ExperimentConfig, unitary: bool):
    """Exponent/angle vector of the CLT input instance, checked against the d grid."""
    if cfg.poly is not None:
        p = poly_from_json(cfg.poly)
        if unitary:
            if p.angles is None:
                raise ValueError("unitary CLT input needs an angle literal")
            thetas = [float(a) for a in p.angles]
        else:
            if p.roots is None:
                raise ValueError("positive-root CLT input needs a root literal")
            if any(float(r) <= 0 for r in p.roots):
                raise ValueError("positive roots required to take logarithms")
            thetas = [math.log(float(r)) for r in p.roots]
    elif cfg.sigma is None:
        raise ValueError(f"{cfg.kind} needs a polynomial literal or sigma")
    else:
        thetas = [float(cfg.sigma), -float(cfg.sigma)]
    if cfg.d and cfg.d != (len(thetas),):
        raise ValueError(f"d grid {cfg.d} conflicts with input of degree {len(thetas)}")
    return thetas


# an exact power b ** m past this many bits is refused before it is taken;
# the largest point of the shipped configs (sy, regime t, d = m = 400) needs
# about 2.8e4 bits
MAX_POWER_BITS = 40_000


def _refuse_huge_power(bases, m: int, where: str) -> None:
    """Raise ValueError when the exact powers b ** m of ``bases`` would take
    more than MAX_POWER_BITS bits, about m times the longest numerator or
    denominator; mpf and binary64 bases are rounded and pass."""
    exact = [b for b in bases if kind_of(b) == EXACT]
    if not exact:
        return
    width = max(max(b.numerator.bit_length(), b.denominator.bit_length()) for b in exact)
    if m * width > MAX_POWER_BITS:
        raise ValueError(f"{where}: its exact powers would take about m x {width} bits, "
                         f"past the bound of {MAX_POWER_BITS} bits")


def _pair_grid(ds: Sequence[int], ms: Sequence[int]):
    if len(ds) == len(ms):
        return list(zip(ds, ms))
    if len(ms) == 1:
        return [(d, ms[0]) for d in ds]
    if len(ds) == 1:
        return [(ds[0], m) for m in ms]
    return [(d, m) for d in ds for m in ms]


def _sy_points(cfg: ExperimentConfig, notes: list):
    """Scaled power: kappa_n(p^[x m]) / m^(n-1) at each (d, m), against the
    fixed-ratio (regime t) or vanishing-ratio (regime zero) limit."""
    digits, n_max = cfg.precision, cfg.n_max
    for d, m in _pair_grid(cfg.d, cfg.m):
        at = _sy_atilde_prefix(cfg, d, n_max, notes)
        _refuse_huge_power(at, m, f"sy at d={d}, m={m}")
        with mp.workdps(digits):  # no-op on the exact default family
            powered = [a ** m for a in at]
        kappas = cumulants_from_atilde(d, powered, n_max, digits=digits)
        kind = common_kind(kappas, "scaled-power cumulants")
        (mk,) = promote_ints([m], kind)
        with work(kind, digits):
            values = [kappas[n - 1] / mk ** (n - 1) for n in range(1, n_max + 1)]
        k2 = cumulants_from_atilde(d, at, 2, digits=digits)[1] if n_max >= 2 else Fraction(1)
        k2, ratio = to_mpf(k2, digits), Fraction(m, d)
        if cfg.regime == "t":
            refs = [sy_limit_t(n, to_mpf(ratio, digits), k2, digits=digits)
                    for n in range(1, n_max + 1)]
        else:
            refs = [sy_limit_zero(n, k2, digits=digits) for n in range(1, n_max + 1)]
        yield d, m, float(ratio), values, refs


def _law_points(atilde, law, power=None):
    """A fixed family against its limit law: at each (d, t), kappa_n of the
    family against law(n, t, digits), n = 1..n_max.

    The family's normalized coefficients are atilde(d, t, k, digits), in mpf
    under the cancellation budget; given ``power``, they are the exact
    atilde(d, m, k) = atilde(d, 1, k) ** m at m = power(d, t) >= 0, and m is
    recorded in the row.
    """
    def points(cfg: ExperimentConfig, notes: list):
        digits, n_max = cfg.precision, cfg.n_max
        if power is None:
            precision_budget(n_max, max(cfg.d), digits, f"{cfg.kind} cumulants", notes)
        for d in cfg.d:
            for t in cfg.t:
                if power is None:
                    m, at = None, [atilde(d, t, k, digits) for k in range(n_max + 1)]
                else:
                    m = power(d, t)
                    if m < 0:
                        raise ValueError(f"{cfg.kind} needs t >= 0, got t={t}")
                    _refuse_huge_power([atilde(d, 1, k) for k in range(n_max + 1)], m,
                                       f"{cfg.kind} at d={d}, t={t} (m = round(t d))")
                    at = [atilde(d, m, k) for k in range(n_max + 1)]
                yield (d, m, t, cumulants_from_atilde(d, at, n_max, digits=digits),
                       [law(n, t, digits) for n in range(1, n_max + 1)])
    return points


def _powered_atilde(thetas, c, m: int, unitary: bool, digits: int) -> list:
    """atilde_1..atilde_d, each to the m-th power, of the input whose
    exponents (angles when ``unitary``) are scaled by c."""
    with mp.workdps(digits):
        xs = [to_mpf(v, digits) * c for v in thetas]
        scaled = (MonicPoly.from_angles(xs, digits=digits) if unitary
                  else MonicPoly.from_roots([mp.exp(x) for x in xs], digits=digits))
        return [a ** m for a in normalized_coeffs(scaled, digits=digits)[1:]]


def _clt_points(atilde, unitary: bool):
    """Coefficientwise CLT: at each m, atilde_k of the centered input scaled
    by 1/sqrt(m), to the m-th power, against the limit family's
    atilde(d, d var / (d - 1), k), k = 1..d."""
    def points(cfg: ExperimentConfig, notes: list):
        digits = cfg.precision
        thetas = _clt_thetas(cfg, unitary)
        d = len(thetas)
        if d < 2:
            raise ValueError(f"hypothesis violation: the CLT needs degree d >= 2, got {d}")
        mean = sum(thetas) / d
        if abs(mean) > 1e-12:
            raise ValueError(f"hypothesis violation: CLT input must be centered "
                             f"(mean exponent {mean:.3e})")
        var = sum(v * v for v in thetas) / d
        with mp.workdps(digits):
            t = mp.mpf(d) * var / (d - 1)
        refs = [atilde(d, t, k, digits) for k in range(1, d + 1)]
        for m in cfg.m:
            with mp.workdps(digits):
                c = 1 / mp.sqrt(m)
            yield d, m, None, _powered_atilde(thetas, c, m, unitary, digits), refs
    return points


def _lln_points(cfg: ExperimentConfig, notes: list):
    """Law of large numbers: at each m, atilde_k of the input scaled by 1/m,
    to the m-th power, against exp(k * mean exponent), k = 1..d."""
    digits = cfg.precision
    thetas = _clt_thetas(cfg, False)
    d = len(thetas)
    with mp.workdps(digits):
        # the mean in mpf: a binary64 mean would put its rounding in every target
        alpha = mp.fsum(to_mpf(v, digits) for v in thetas) / d
        refs = [mp.exp(alpha * k) for k in range(1, d + 1)]
    for m in cfg.m:
        with mp.workdps(digits):
            c = mp.mpf(1) / m
        yield d, m, None, _powered_atilde(thetas, c, m, False, digits), refs


# kind -> (grids it sweeps, its rate fitted along the first; point generator)
_KINDS = {
    "sy": (("d", "m"), _sy_points),
    "multclt": (("m",), _clt_points(exp_poly_atilde, unitary=False)),
    "lln": (("m",), _lln_points),
    "uclt": (("m",), _clt_points(hermite_unitary_atilde, unitary=True)),
    "fms": (("d", "t"), _law_points(exp_poly_atilde, lambda_cumulant)),
    "hermite": (("d", "t"), _law_points(hermite_unitary_atilde, sigma_cumulant)),
    "laguerre": (("d", "t"), _law_points(laguerre_unitary_atilde, pi_cumulant,
                                         power=lambda d, t: round(t * d))),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run one experiment grid; deterministic for a fixed config.

    The kind's point generator yields (d, m, t, values, references) per grid
    point; the rows are n = 1, 2, ... of the two sequences.
    """
    cfg.validate()
    table = ResultTable(precision=cfg.precision)
    grids, points = _KINDS[cfg.kind]
    for d, m, t, values, refs in points(cfg, table.notes):
        for n, (value, ref) in enumerate(zip(values, refs), start=1):
            table.rows.append(_make_row(cfg.kind, d, m, t, n, value, ref, cfg.precision))
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
