"""No entry point reads mpmath's ambient precision.

Each function below takes its precision from its own ``digits`` (or
``DEFAULT_DIGITS``) and opens that scope itself, whatever the kind of its
input.  So a call gives the same values, of the same types, at the default
ambient precision, inside ``mp.workdps(8)`` and inside ``mp.workdps(120)``.
The inputs are built once, inside an explicit scope.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from finfree.cumulants import atilde_from_cumulants, boxtimes_cumulants, cumulants_from_atilde
from finfree.experiments import ExperimentConfig, run_experiment
from finfree.freelimits import nc_moments_from_cumulants
from finfree.identities import faa_di_bruno_exp
from finfree.polycalc import (MonicPoly, boxplus, boxtimes, boxtimes_pow, empirical_moments,
                              from_normalized, normalized_coeffs)


def _inputs(kind: str) -> dict:
    """Two degree-4 polynomials from roots, p's atilde and cumulants, and u0."""
    with mp.workdps(40):
        if kind == "exact":
            roots = [Fraction(1, 3), 2, Fraction(-1, 2), 5]
            others, u0 = [1, Fraction(3, 7), 4, Fraction(-2)], Fraction(0)
        elif kind == "binary64":
            roots, others, u0 = [1 / 3, 2.0, -0.5, 5.0], [1.0, 3 / 7, 4.0, -2.0], 0.25
        else:
            roots = [mp.mpf(1) / 3, mp.mpf(2), mp.mpf(-1) / 2, mp.mpf(5)]
            others, u0 = [mp.mpf(1), mp.mpf(3) / 7, mp.mpf(4), mp.mpf(-2)], mp.mpf(1) / 7
        p, q = MonicPoly.from_roots(roots), MonicPoly.from_roots(others)
        atilde = normalized_coeffs(p)
        kappas = cumulants_from_atilde(4, atilde, 4)
    return {"p": p, "q": q, "atilde": atilde, "kappas": kappas, "u0": u0}


CALLS = {
    "normalized_coeffs": lambda x: normalized_coeffs(x["p"]),
    "from_normalized": lambda x: from_normalized(x["atilde"]),
    "boxplus": lambda x: boxplus(x["p"], x["q"]),
    "boxtimes": lambda x: boxtimes(x["p"], x["q"]),
    "boxtimes_pow": lambda x: boxtimes_pow(x["p"], 3),
    "cumulants_from_atilde": lambda x: cumulants_from_atilde(4, x["atilde"], 4),
    "atilde_from_cumulants": lambda x: atilde_from_cumulants(4, x["kappas"], 4),
    "nc_moments_from_cumulants": lambda x: nc_moments_from_cumulants(x["kappas"], 4),
    # the mean of the roots' powers, and the series log of the coefficients
    "empirical_moments": lambda x: (empirical_moments(x["p"], 3),
                                    empirical_moments(MonicPoly.from_coeffs(x["p"].coeffs), 3)),
    "faa_di_bruno_exp": lambda x: faa_di_bruno_exp(x["kappas"], x["u0"], 4),
    "boxtimes_cumulants": lambda x: boxtimes_cumulants([x["p"], x["q"]], 3),
}


def _typed(result) -> list:
    """The result's scalars as (type, value), through polynomials and sequences."""
    if isinstance(result, MonicPoly):
        return _typed([result.coeffs, result.roots])
    if isinstance(result, (list, tuple)):
        return [t for v in result for t in _typed(v)]
    if result is None:
        return []
    return [(type(result), result)]


def _at_each_ambient_precision(call) -> list:
    """call() at the default ambient precision, then at 8 and at 120 digits."""
    out = [call()]
    for dps in (8, 120):
        with mp.workdps(dps):
            out.append(call())
    return out


@pytest.mark.parametrize("kind", ["exact", "binary64", "mpf"])
@pytest.mark.parametrize("name", list(CALLS))
def test_entry_point_ignores_the_ambient_precision(name, kind):
    x = _inputs(kind)
    default, low, high = _at_each_ambient_precision(lambda: _typed(CALLS[name](x)))
    assert default == low == high


def test_run_experiment_ignores_the_ambient_precision():
    cfgs = [ExperimentConfig(kind="fms", d=(4, 6), t=(0.5,), n_max=2, precision=20),
            ExperimentConfig(kind="lln", m=(2, 4, 8), n_max=2, precision=20,
                             poly={"roots": [2, 0.5, 4, 0.25]})]
    for cfg in cfgs:
        def table():
            t = run_experiment(cfg)
            return [(type(r.value), r) for r in t.rows], t.rates, t.notes

        default, low, high = _at_each_ambient_precision(table)
        assert default == low == high
