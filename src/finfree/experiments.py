"""Experiment harness: every limit theorem as a finite-size computation.

Each experiment kind computes a finite-(d, m, t) quantity, compares it
against the matching closed-form target, and emits a result table with
per-row absolute/relative errors plus fitted log-log convergence rates.

Numerical policy: families with rational normalized coefficients (the
scaled-power experiment and the unitary Laguerre one) are evaluated in
exact rational arithmetic and converted once at the end, which sidesteps
cancellation entirely; the exponential families run in mpf arithmetic under
an explicit digit budget of roughly (n-1)*log10(d) + 15.
"""

from __future__ import annotations

import io
import math
import statistics
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .cumulants import (
    cumulants_from_atilde,
    exp_poly_atilde,
    hermite_unitary_atilde,
    laguerre_hat_atilde,
    laguerre_unitary_atilde,
)
from .errors import PrecisionBudgetError
from .freelimits import (
    lambda_cumulant,
    pi_cumulant,
    sigma_cumulant,
    sy_limit_t,
    sy_limit_zero,
)
from .polycalc import MonicPoly, normalized_coeffs, poly_from_json
from .scalars import common_kind, format_scalar, promote_ints, to_mpf, work

SY_REGIMES = ("t", "zero")


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
    kinds when no literal is given.
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
        self.d = _as_int_tuple("d", self.d)
        self.m = _as_int_tuple("m", self.m)
        self.t = tuple(float(v) for v in _as_tuple(self.t))

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be a JSON object")
        allowed = {f.name for f in fields(cls)}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; pick one of {KINDS}")
        if self.precision < 15:
            raise ValueError("precision must be at least 15 digits")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        missing = [g for g in _KINDS[self.kind][1] if not getattr(self, g)]
        if missing:
            raise ValueError(f"{self.kind} needs non-empty grids: {', '.join(missing)}")
        if self.kind == "sy" and self.regime not in SY_REGIMES:
            raise ValueError("regime must be 't' or 'zero' (no auto-detection)")
        if self.d and self.n_max > min(self.d):
            raise ValueError("n_max may not exceed the smallest degree in the grid")


def _as_tuple(v):
    if v is None:
        return ()
    if isinstance(v, (list, tuple)):
        return tuple(v)
    return (v,)


def _as_int_tuple(name, v):
    vals = _as_tuple(v)
    out = []
    for x in vals:
        if isinstance(x, float) and not x.is_integer():
            raise ValueError(f"{name} grid entries must be integers, got {x}")
        out.append(int(x))
    if any(x < 1 for x in out):
        raise ValueError(f"{name} grid entries must be positive")
    return tuple(out)


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


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    precision: int = 50

    def sort(self) -> None:
        self.rows.sort(key=lambda r: (r.d, r.m or 0, r.t or 0.0, r.n))

    def _fmt(self, v) -> str:
        return "" if v is None else format_scalar(v, self.precision)

    @staticmethod
    def _fmt_t(t) -> str:
        # grid label, not a computed quantity: float precision suffices
        return "" if t is None else repr(float(t))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("kind,d,m,t,n,value,reference,abs_error,rel_error\n")
        for r in self.rows:
            cells = [
                r.kind,
                str(r.d),
                "" if r.m is None else str(r.m),
                self._fmt_t(r.t),
                str(r.n),
                self._fmt(r.value),
                self._fmt(r.reference),
                self._fmt(r.abs_error),
                self._fmt(r.rel_error),
            ]
            buf.write(",".join(cells) + "\n")
        for (kind, n), rate in sorted(self.rates.items()):
            buf.write(f"# rate,{kind},n={n},{'' if rate is None else f'{rate:.4f}'}\n")
        for note in self.notes:
            buf.write(f"# note,{note}\n")
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "kind": r.kind,
                    "d": r.d,
                    "m": r.m,
                    "t": None if r.t is None else float(r.t),
                    "n": r.n,
                    "value": self._fmt(r.value),
                    "reference": self._fmt(r.reference),
                    "abs_error": self._fmt(r.abs_error),
                    "rel_error": None if r.rel_error is None else self._fmt(r.rel_error),
                }
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
# precision budget
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


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------

def _sy_atilde_prefix(cfg: ExperimentConfig, d: int, n_max: int, notes: list):
    """Normalized-coefficient prefix of the base family for the scaled-power run."""
    if cfg.poly is None:
        return [laguerre_hat_atilde(d, Fraction(1), i) for i in range(n_max + 1)]
    p = poly_from_json(cfg.poly)
    if p.degree != d:
        raise ValueError(f"input polynomial degree {p.degree} does not match d={d}")
    at = normalized_coeffs(p, digits=cfg.precision)
    if at[1] != 1:
        raise ValueError(
            "hypothesis violation: the input family must have atilde_1 = 1 "
            "(first finite free cumulant 1)"
        )
    if p.roots is not None and any(float(r) < 0 for r in p.roots):
        raise ValueError("hypothesis violation: nonnegative roots required")
    note = (
        "user-supplied family: weak convergence of its empirical root "
        "distributions is assumed, not checked"
    )
    if note not in notes:
        notes.append(note)
    return list(at[: n_max + 1])


def _clt_thetas(cfg: ExperimentConfig, unitary: bool):
    """Exponent/angle vector of the CLT input instance."""
    if cfg.poly is not None:
        p = poly_from_json(cfg.poly)
        if unitary:
            if p.angles is None:
                raise ValueError("unitary CLT input needs an angle literal")
            return [float(a) for a in p.angles]
        if p.roots is None:
            raise ValueError("positive-root CLT input needs a root literal")
        if any(float(r) <= 0 for r in p.roots):
            raise ValueError("positive roots required to take logarithms")
        return [math.log(float(r)) for r in p.roots]
    if cfg.sigma is None:
        raise ValueError(f"{cfg.kind} needs a polynomial literal or sigma")
    s = float(cfg.sigma)
    return [s, -s]


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _pair_grid(ds: Sequence[int], ms: Sequence[int]):
    if len(ds) == len(ms):
        return list(zip(ds, ms))
    if len(ms) == 1:
        return [(d, ms[0]) for d in ds]
    if len(ds) == 1:
        return [(ds[0], m) for m in ms]
    return [(d, m) for d in ds for m in ms]


def _run_sy(cfg: ExperimentConfig, table: ResultTable) -> None:
    digits = cfg.precision
    for d, m in _pair_grid(cfg.d, cfg.m):
        at = _sy_atilde_prefix(cfg, d, cfg.n_max, table.notes)
        with mp.workdps(digits):  # no-op on the exact default family
            powered = [a ** m for a in at]
        kappas = cumulants_from_atilde(d, powered, cfg.n_max, digits=digits)
        kind = common_kind(kappas, "scaled-power cumulants")
        (mk,) = promote_ints([m], kind)
        if cfg.n_max >= 2:
            k2 = cumulants_from_atilde(d, at, 2, digits=digits)[1]
        else:
            k2 = Fraction(1)
        ratio = Fraction(m, d)
        for n in range(1, cfg.n_max + 1):
            with work(kind, digits):
                value = kappas[n - 1] / mk ** (n - 1)
            if cfg.regime == "t":
                ref = sy_limit_t(n, to_mpf(ratio, digits), to_mpf(k2, digits), digits=digits)
            else:
                ref = sy_limit_zero(n, to_mpf(k2, digits), digits=digits)
            table.rows.append(
                _make_row("sy", d, m, float(ratio), n, value, ref, digits)
            )


def _run_kappa_family(cfg: ExperimentConfig, table: ResultTable) -> None:
    """Shared driver for the three fixed-family cumulant experiments."""
    digits = cfg.precision
    kind = cfg.kind
    if kind in ("fms", "hermite"):
        precision_budget(cfg.n_max, max(cfg.d), digits, f"{kind} cumulants", table.notes)
    for d in cfg.d:
        for t in cfg.t:
            m = None
            if kind == "fms":
                at = [exp_poly_atilde(d, t, k, digits) for k in range(cfg.n_max + 1)]
                refs = [lambda_cumulant(n, t, digits) for n in range(1, cfg.n_max + 1)]
            elif kind == "hermite":
                at = [hermite_unitary_atilde(d, t, k, digits) for k in range(cfg.n_max + 1)]
                refs = [sigma_cumulant(n, t, digits) for n in range(1, cfg.n_max + 1)]
            else:  # laguerre
                m = round(t * d)
                at = [laguerre_unitary_atilde(d, m, k) for k in range(cfg.n_max + 1)]
                refs = [pi_cumulant(n, t, digits) for n in range(1, cfg.n_max + 1)]
            kappas = cumulants_from_atilde(d, at, cfg.n_max, digits=digits)
            for n in range(1, cfg.n_max + 1):
                table.rows.append(
                    _make_row(kind, d, m, t, n, kappas[n - 1], refs[n - 1], digits)
                )


def _run_coeff_family(cfg: ExperimentConfig, table: ResultTable) -> None:
    """Shared driver for the coefficientwise CLT / LLN experiments."""
    digits = cfg.precision
    kind = cfg.kind
    unitary = kind == "uclt"
    thetas = _clt_thetas(cfg, unitary)
    d = len(thetas)
    if cfg.d and cfg.d != (d,):
        raise ValueError(f"d grid {cfg.d} conflicts with input of degree {d}")
    mean = sum(thetas) / d
    var = sum(v * v for v in thetas) / d
    if kind in ("multclt", "uclt") and abs(mean) > 1e-12:
        raise ValueError(
            f"hypothesis violation: CLT input must be centered (mean exponent {mean:.3e})"
        )
    with mp.workdps(digits):
        if kind == "lln":
            # the mean in mpf: a binary64 mean would put its rounding in every target
            alpha = mp.fsum(to_mpf(v, digits) for v in thetas) / d
            targets = [mp.exp(alpha * k) for k in range(d + 1)]
        else:
            tt = mp.mpf(d) * var / (d - 1)
            sign = -1 if unitary else 1
            targets = [mp.exp(sign * tt * k * (d - k) / (2 * d)) for k in range(d + 1)]
    for m in cfg.m:
        with mp.workdps(digits):
            c = mp.mpf(1) / m if kind == "lln" else 1 / mp.sqrt(m)
            if unitary:
                scaled = MonicPoly.from_angles([to_mpf(v, digits) * c for v in thetas],
                                               digits=digits)
            else:
                scaled = MonicPoly.from_roots([mp.exp(to_mpf(v, digits) * c) for v in thetas],
                                              digits=digits)
            at = normalized_coeffs(scaled, digits=digits)
            values = [a ** m for a in at]
        for k in range(1, d + 1):
            table.rows.append(
                _make_row(kind, d, m, None, k, values[k], targets[k], digits)
            )


# kind -> (runner, grids it sweeps); its rate is fitted along the first grid
_KINDS = {
    "sy": (_run_sy, ("d", "m")),
    "multclt": (_run_coeff_family, ("m",)),
    "lln": (_run_coeff_family, ("m",)),
    "uclt": (_run_coeff_family, ("m",)),
    "fms": (_run_kappa_family, ("d", "t")),
    "hermite": (_run_kappa_family, ("d", "t")),
    "laguerre": (_run_kappa_family, ("d", "t")),
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run one experiment grid; deterministic for a fixed config."""
    cfg.validate()
    table = ResultTable(precision=cfg.precision)
    runner, grids = _KINDS[cfg.kind]
    runner(cfg, table)
    table.sort()
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
        table.notes.append(
            f"rate fit: {excluded} row(s) at the precision floor were excluded"
        )
    rates: dict = {}
    for key, pts in sorted(groups.items()):
        if len({lx for lx, _ in pts}) < 3:
            rates[key] = None
            continue
        rates[key] = statistics.linear_regression(*zip(*pts)).slope
    return rates
