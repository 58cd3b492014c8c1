"""The three benchmark workloads: seeded inputs, job lists and output checks.

Each workload is a fixed list of ops.  An op calls the program through its
public functions and returns what they returned; its check, which is the
benchmark's own code and calls nothing in finfree, raises ``CheckFailed``
when the output is wrong.  Every random input is drawn from the seed when
the workload is built, before anything is timed.

* ``limit-grid``: the user's main job, ``finfree limit``, through
  ``cli.main`` on exact (Laguerre, scaled-power) and mpf (Hermite,
  exponential, CLT/LLN) scalars, plus the series cross-checks of the limit
  targets.  The cumulant transform and the limit targets do the work.
* ``oracle-exact``: the brute-force oracles against their fast routes, all
  exact, so the check is equality.  Partition enumeration dominates.
* ``poly-roots``: root finding, convolutions and root expansion.  No
  partition is enumerated.

``poly-roots`` also carries defect probes: inputs on which the program is
known to fail at the commit that introduced this benchmark.  float64 roots
at d = 50 come back wrong but reported as converged (their power sums miss
Newton's identities), at d = 100 they do not converge, at d = 200 they are
NaN; mp roots reject exact coefficients; ``boxplus`` rejects mpf families.
Probes run once per run, after the timed passes, and are reported with
their outcome; they are not timed ops, so no timed op fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

from finfree import cli, cumulants, freelimits, identities, partitions, polycalc

class CheckFailed(Exception):
    """An op returned a wrong or non-finite result."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def build(name: str, seed: int) -> list[Op]:
    """The timed ops of one workload, with their inputs drawn from ``seed``."""
    builders = {"limit-grid": _limit_grid, "oracle-exact": _oracle_exact,
                "poly-roots": _poly_roots}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; pick one of {sorted(builders)}")
    return builders[name](random.Random(f"{name}:{seed}"))


def probes(name: str) -> list[Op]:
    """Inputs on which the program is known to fail; run untimed."""
    return _poly_probes() if name == "poly-roots" else []


def _run_cli(argv: list[str]) -> str:
    """What ``finfree <argv>`` prints; raises on a nonzero exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"finfree exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# limit-grid
# ---------------------------------------------------------------------------

# Fitted-rate windows of the acceptance criteria: 7 and 8 (hermite, fms),
# 9 (laguerre), 10 (scaled power, vanishing ratio).  The fixed-ratio regime
# has no window of its own there; it gets criterion 9's.
RATE_WINDOWS = {
    ("hermite", None): (-1.2, -0.8),
    ("fms", None): (-1.2, -0.8),
    ("laguerre", None): (-1.3, -0.7),
    ("sy", "t"): (-1.3, -0.7),
    ("sy", "zero"): (-0.7, -0.3),
}
# Criterion 10: largest relative error at the largest d for n <= 3.
SY_REL_LIMIT = {"t": 0.05, "zero": 0.15}
CHECKED_ORDERS = 4


def _budget_digits(n_max: int, d_max: int) -> int:
    """The cancellation budget (n-1) log10(d) + 15, plus 25 digits of margin."""
    return math.ceil((n_max - 1) * math.log10(d_max) + 15 + 25)


def _centred_angles(rng: random.Random, d: int) -> list[float]:
    while True:
        th = [rng.uniform(-1.0, 1.0) for _ in range(d - 1)]
        last = -sum(th)
        if abs(last) <= 1.0:
            return th + [last]


def _limit_grid(rng: random.Random) -> list[Op]:
    configs = [
        dict(kind="laguerre", d=[100, 200, 400], t=[1.0], n_max=12),
        dict(kind="sy", regime="t", d=[100, 200, 400], m=[100, 200, 400], n_max=10),
        dict(kind="sy", regime="zero", d=[100, 400, 1600], m=[10, 20, 40], n_max=16),
    ]
    digits = _budget_digits(16, 400)
    for kind in ("hermite", "fms"):
        configs.append(dict(kind=kind, d=[50, 100, 200, 400], t=[0.5, 1.0, 2.0],
                            n_max=16, precision=digits))
    th = _centred_angles(rng, 6)
    roots = [math.exp(v) for v in th]
    for kind, poly in (("multclt", {"roots": roots}), ("uclt", {"angles": th}),
                       ("lln", {"roots": roots})):
        configs.append(dict(kind=kind, d=[6], m=[100, 1000, 10000], poly=poly))

    ops = []
    for cfg in configs:
        label = cfg["kind"] + (f"-{cfg['regime']}" if "regime" in cfg else "")
        argv = ["--format", "json", "limit", "--config", json.dumps(cfg)]
        ops.append(Op(f"limit.{label}", lambda argv=argv: _run_cli(argv),
                      lambda text, cfg=cfg: _check_limit_table(json.loads(text), cfg)))

    t = round(rng.uniform(0.5, 2.0), 6)
    for kind, closed in (("lambda", "lambda_cumulant"), ("sigma", "sigma_cumulant"),
                         ("pi", "pi_cumulant")):
        ops.append(Op(f"lagrange.{kind}",
                      lambda kind=kind, closed=closed: _lagrange_pair(kind, closed, t),
                      lambda out: _check_close(out, mp.mpf("1e-30"))))
    ops.append(Op("nc_moments", lambda: _nc_moment_pair(t),
                  lambda out: _check_close(out, mp.mpf("1e-25"))))
    return ops


def _lagrange_pair(kind: str, closed: str, t: float):
    series = freelimits.s_transform_series(kind, 40, t=t)
    got = freelimits.lagrange_cumulants(series, 40)
    ref = [getattr(freelimits, closed)(n, t) for n in range(1, 41)]
    return got, ref


def _nc_moment_pair(t: float):
    kappas = [freelimits.lambda_cumulant(n, t) for n in range(1, 9)]
    got = freelimits.nc_moments_from_cumulants(kappas, 8)
    ref = [freelimits.lambda_moment(n, t) for n in range(1, 9)]
    return got, ref


def _check_close(pair, rel_tol) -> None:
    got, ref = pair
    _require(len(got) == len(ref), f"{len(got)} values for {len(ref)} references")
    for n, (a, b) in enumerate(zip(got, ref), start=1):
        if not (mp.isfinite(a) and abs(a - b) <= rel_tol * max(1, abs(b))):
            raise CheckFailed(f"n={n}: {a} against {b}")


def _check_limit_table(out: dict, cfg: dict) -> None:
    kind, regime = cfg["kind"], cfg.get("regime")
    rows = out["rows"]
    _require(len(rows) > 0, "empty result table")
    precision = cfg.get("precision", 50)
    floor = mp.mpf(10) ** (-(precision - 5))
    bad = [r for r in rows for key in ("value", "reference", "abs_error", "rel_error")
           if r[key] is not None and not mp.isfinite(mp.mpf(r[key]))]
    _require(not bad, f"non-finite value in row {bad[:1]}")

    if kind in ("multclt", "uclt", "lln"):
        # criterion 11: the entrywise distance to the target falls along m
        worst: dict = {}
        for r in rows:
            worst[r["m"]] = max(worst.get(r["m"], mp.mpf(0)), mp.mpf(r["abs_error"]))
        seq = [worst[m] for m in sorted(worst)]
        _require(all(a > b for a, b in zip(seq, seq[1:])),
                 f"distance does not fall along m: {[mp.nstr(v, 4) for v in seq]}")
        return

    groups: dict = {}
    for r in rows:
        if r["n"] <= CHECKED_ORDERS:
            groups.setdefault((r["n"], r["t"] if kind != "sy" else None), []).append(
                (r["d"], mp.mpf(r["abs_error"]), r["rel_error"]))
    for (n, t), pts in groups.items():
        pts.sort(key=lambda p: p[0])
        errs = [e for _, e, _ in pts]
        if max(errs) <= floor:
            continue  # exact agreement on the whole axis
        _require(all(a > b for a, b in zip(errs, errs[1:])),
                 f"n={n} t={t}: error does not fall along d: {[mp.nstr(e, 4) for e in errs]}")
        if kind == "sy" and n <= 3:
            rel = mp.mpf(pts[-1][2])
            _require(rel <= SY_REL_LIMIT[regime],
                     f"n={n}: relative error {mp.nstr(rel, 4)} at d={pts[-1][0]}")
    lo, hi = RATE_WINDOWS[(kind, regime)]
    live = {n for (n, _), pts in groups.items() if max(e for _, e, _ in pts) > floor}
    for n in sorted(live):
        rate = out["rates"].get(f"{kind}:n={n}")
        _require(rate is not None and lo <= rate <= hi,
                 f"n={n}: fitted rate {rate} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# oracle-exact
# ---------------------------------------------------------------------------

def _zero_const_poly(rng: random.Random, deg: int) -> identities.ZeroConstPoly:
    coeffs = [Fraction(rng.randint(-6, 6), 4) for _ in range(deg - 1)]
    coeffs.append(Fraction(rng.randint(1, 5), 3))
    return identities.ZeroConstPoly(coeffs)


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _oracle_exact(rng: random.Random) -> list[Op]:
    # Exact arithmetic costs more on larger numbers and the brute-force sums
    # cost more at larger orders, so the seed draws numerators only; degrees,
    # denominators and orders are fixed.
    ops = []
    # criterion 1 at n = 8 and at the critical order of each instance
    for i, degrees in enumerate(((3,), (2, 3), (2, 2, 3), (1, 3), (3, 3), (1, 2, 3))):
        fs = [_zero_const_poly(rng, deg) for deg in degrees]
        ops.append(Op(f"s_identity.{i}", lambda fs=fs: _s_identity(fs), _check_groups))

    ops.append(Op("s_corollary", _corollary_pairs, _check_groups))

    ops.append(Op("composition_identity",
                  lambda: [identities.composition_identity(9, k) for k in range(1, 9)],
                  _check_groups))

    derivs = [Fraction(_nonzero(rng, 5), 4) for _ in range(9)]
    ops.append(Op("faa_di_bruno_exp", lambda: [_faa_di_bruno_pair(derivs)], _check_groups))

    ops.append(Op("cli.partitions",
                  lambda: _run_cli(["--format", "json", "partitions", "--n", "9"]),
                  lambda text: _check_partition_list(json.loads(text), 9)))

    d = 5
    ps = [polycalc.MonicPoly.from_coeffs([1] + [Fraction(_nonzero(rng, 6), 3) for _ in range(d)])
          for _ in range(3)]
    for method, n_max in (("pi-sum", 5), ("join-sum", 4)):
        ops.append(Op(f"boxtimes_cumulants.{method}",
                      lambda method=method, n_max=n_max: _boxtimes_cumulant_route(ps, method, n_max),
                      _check_groups))

    atilde = [Fraction(1)] + [Fraction(_nonzero(rng, 9), 5) for _ in range(9)]
    ops.append(Op("cumulants_from_atilde.grouping",
                  lambda: [[cumulants.cumulants_from_atilde(12, atilde, 9, grouped=g)
                            for g in (False, True)]],
                  _check_groups))

    # criterion 3's counting oracles, one op per family
    sizes = (2, 2, 3)
    n_s = sum(sizes) - (len(sizes) - 1)
    fam = [identities.ZeroConstPoly.binomial_basis(m) for m in sizes]
    lengths = _composition(rng, 8, n_s)
    join_sizes = _composition(rng, 8, 3)
    counts = {
        "R": lambda: [[partitions.count_R(8, sizes),
                       partitions.count_R(8, sizes, method="formula")]],
        "S": lambda: [[partitions.count_S(n_s, sizes), identities.s_bruteforce(fam, n_s)]],
        "T": lambda: [[partitions.count_T(sizes, lengths),
                       partitions.count_T_closed(sizes, lengths)]],
        "join_full": lambda: [[partitions.count_join_full(join_sizes),
                               partitions.count_join_full_closed(join_sizes)]],
    }
    for family, count in counts.items():
        ops.append(Op(f"count_{family}", count, _check_groups))
    return ops


def _composition(rng: random.Random, total: int, parts: int) -> tuple:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def _s_identity(fs):
    k = len(fs)
    critical = sum(f.degree for f in fs) - (k - 1)
    return [
        [identities.s_bruteforce(fs, 8), identities.s_mobius_route(fs, 8),
         identities.s_closed_form(fs, 8)],
        [identities.s_bruteforce(fs, critical), identities.s_closed_form(fs, critical)],
    ]


def _corollary_pairs():
    """Criterion 2: the binomial family C(x,2) taken k times sums to (n-1)! n^(k-1) at n = k+1."""
    c2 = identities.ZeroConstPoly.binomial_basis(2)
    return [[identities.s_bruteforce([c2] * k, k + 1), math.factorial(k) * (k + 1) ** (k - 1)]
            for k in range(1, 7)]


def _check_groups(groups) -> None:
    """Each group holds one value computed by two or more routes."""
    for values in groups:
        _require(len(values) >= 2, "need at least two routes to compare")
        _require(all(v == values[0] for v in values[1:]),
                 f"routes disagree: {[str(v)[:40] for v in values]}")


def _faa_di_bruno_pair(derivs):
    n = len(derivs)
    lhs = identities.faa_di_bruno_exp(derivs, 0, n)
    u = freelimits.PowerSeries(
        tuple([Fraction(0)] + [derivs[j - 1] / math.factorial(j) for j in range(1, n + 1)]))
    rhs = u.exp().coeff(n) * math.factorial(n)
    return [lhs, rhs]


def _check_partition_list(blocks_list, n: int) -> None:
    _require(len(blocks_list) == _bell(n),
             f"{len(blocks_list)} partitions of [{n}], expected Bell({n}) = {_bell(n)}")
    full = list(range(1, n + 1))
    bad = [blocks for blocks in blocks_list if sorted(itertools.chain(*blocks)) != full]
    _require(not bad, f"not a partition of [{n}]: {bad[:1]}")
    distinct = {tuple(sorted(tuple(sorted(b)) for b in blocks)) for blocks in blocks_list}
    _require(len(distinct) == len(blocks_list), "a partition is listed twice")


def _boxtimes_cumulant_route(ps, method: str, n_max: int):
    direct = cumulants.finite_cumulants(cumulants.boxtimes_fold(ps))
    return [[cumulants.boxtimes_cumulants(ps, n, method=method), direct[n]]
            for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# poly-roots
# ---------------------------------------------------------------------------

FAMILIES = {
    "hermite": lambda d: cumulants.hermite_unitary(d, 1),
    "exp": lambda d: cumulants.exp_poly(d, 1),
    "laguerre": lambda d: cumulants.laguerre_hat(d, 1),
}


def _separated_roots(rng: random.Random, d: int) -> list[float]:
    """Real roots in (-1, 1): Chebyshev points, each moved by a seeded jitter."""
    return [math.cos(math.pi * (j + 0.5 + rng.uniform(-0.3, 0.3)) / d) for j in range(d)]


def _float_poly(roots) -> polycalc.MonicPoly:
    """The binary64 coefficient polynomial of ``roots``, without its root data."""
    return polycalc.MonicPoly.from_coeffs(polycalc.MonicPoly.from_roots(roots).coeffs)


def _poly_roots(rng: random.Random) -> list[Op]:
    ops = [_roots_op("roots.f64.seeded.d20", _float_poly(_separated_roots(rng, 20)), None)]
    for fam, make in FAMILIES.items():
        ops.append(_roots_op(f"roots.f64.{fam}.d20", make(20), None))
    ops.append(_roots_op("roots.mp30.hermite.d20", FAMILIES["hermite"](20), 30))

    d = 200
    a, b = Fraction(1), Fraction(1, 2)
    la, lb = cumulants.laguerre_hat(d, a), cumulants.laguerre_hat(d, b)
    lab = cumulants.laguerre_hat(d, a + b)
    ops.append(Op("boxplus.exact.d200", lambda: polycalc.boxplus(la, lb),
                  lambda out: _require(out.coeffs == lab.coeffs,
                                       "L(a) boxplus L(b) differs from L(a+b)")))
    at_a, at_b = _laguerre_atilde(d, a), _laguerre_atilde(d, b)
    want_times = [x * y for x, y in zip(at_a, at_b)]
    ops.append(Op("boxtimes.exact.d200", lambda: polycalc.boxtimes(la, lb),
                  lambda out: _check_atilde(out, want_times)))
    want_pow = [x ** 3 for x in at_a]
    ops.append(Op("boxtimes_pow.exact.d200", lambda: polycalc.boxtimes_pow(la, 3),
                  lambda out: _check_atilde(out, want_pow)))

    with mp.workdps(50):
        mroots = [mp.mpf(rng.uniform(0.05, 1.0)) for _ in range(400)]
    ops.append(Op("from_roots.mpf.d400", lambda: polycalc.MonicPoly.from_roots(mroots),
                  lambda out: _check_power_sums(out.coeffs, mroots, mp.mpf("1e-40"))))

    l20 = FAMILIES["laguerre"](20)
    ops.append(Op("empirical_moments.laguerre.d20",
                  lambda: polycalc.empirical_moments(l20, 4),
                  lambda out: _check_moments(l20.coeffs, out)))
    ops.append(Op("newton_maclaurin.laguerre.d200",
                  lambda: polycalc.newton_maclaurin_check(lab),
                  lambda rep: _require(rep.newton_holds and rep.maclaurin_holds,
                                       "Newton/Maclaurin inequalities reported violated "
                                       "on a nonnegative real-rooted input")))
    return ops


# The probe inputs do not depend on the run's seed, so every run probes the
# same set.
PROBE_SEED = 1790


def _poly_probes() -> list[Op]:
    rng = random.Random(PROBE_SEED)
    uniform = [rng.uniform(-1.0, 1.0) for _ in range(50)]
    probes = [_roots_op("roots.f64.uniform.d50", _float_poly(uniform), None)]
    for d in (50, 100, 200):
        for fam, make in FAMILIES.items():
            probes.append(_roots_op(f"roots.f64.{fam}.d{d}", make(d), None))
    probes.append(_roots_op("roots.mp30.laguerre.d20", FAMILIES["laguerre"](20), 30))
    e50, h50 = cumulants.exp_poly(50, 1), cumulants.hermite_unitary(50, 0.5)
    probes.append(Op("boxplus.mpf.d50", lambda: polycalc.boxplus(e50, h50),
                     lambda out: _check_boxplus_mpf(e50, h50, out)))
    return probes


def _laguerre_atilde(d: int, lam: Fraction) -> list[Fraction]:
    """atilde_0..atilde_d of the normalized Laguerre polynomial: (d lam)_k / d^k."""
    out = [Fraction(1)]
    for j in range(d):
        out.append(out[-1] * (d * lam - j) / d)
    return out


def _atilde_of(coeffs) -> list:
    d = len(coeffs) - 1
    return [(-1) ** i * Fraction(c) / math.comb(d, i) for i, c in enumerate(coeffs)]


def _check_atilde(p, want) -> None:
    got = _atilde_of(p.coeffs)
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
    _require(len(got) == len(want) and not bad, f"normalized coefficients differ at {bad[:5]}")


def _roots_op(name: str, p, digits) -> Op:
    return Op(name, lambda: polycalc.roots_of(p, digits=digits),
              lambda roots: _check_roots(p, roots, digits))


def _newton_power_sums(coeffs, k_max: int) -> list:
    """p_1..p_k_max of the roots from the coefficients (Newton's identities)."""
    sums = []
    for k in range(1, k_max + 1):
        acc = k * coeffs[k]
        for i in range(1, k):
            acc += coeffs[i] * sums[k - i - 1]
        sums.append(-acc)
    return sums


def _check_roots(p, roots, digits) -> None:
    _require(len(roots) == p.degree, f"{len(roots)} roots for degree {p.degree}")
    with mp.workdps(digits or 15):
        if digits is None:
            coeffs = [complex(c) for c in p.coeffs]
            backward_tol, sum_tol = 1e-10, 1e-8
        else:
            coeffs = [mp.mpc(c) for c in p.coeffs]
            backward_tol, sum_tol = mp.mpf(10) ** (8 - digits), mp.mpf(10) ** (10 - digits)
        _require(all(mp.isfinite(z) for z in roots), "non-finite roots")
        worst = max(_backward_error(coeffs, z) for z in roots)
        _require(worst <= backward_tol, f"backward error {float(worst):.3e}")
        want = _newton_power_sums(coeffs, 4)
        for k, w in enumerate(want, start=1):
            got = sum(z ** k for z in roots)
            size = max(1, sum(abs(z) ** k for z in roots))
            _require(abs(got - w) <= sum_tol * size,
                     f"power sum p_{k} of the roots is off by {float(abs(got - w)):.3e}")


def _backward_error(coeffs, z):
    """|p(z)| relative to sum |a_i| |z|^(d-i)."""
    val, scale = coeffs[0], abs(coeffs[0])
    for a in coeffs[1:]:
        val = val * z + a
        scale = scale * abs(z) + abs(a)
    return abs(val) / scale


def _check_power_sums(coeffs, roots, rel_tol) -> None:
    with mp.workdps(60):
        want = [sum(r ** k for r in roots) for k in range(1, 5)]
        got = _newton_power_sums(coeffs, 4)
        for k, (g, w) in enumerate(zip(got, want), start=1):
            _require(abs(g - w) <= rel_tol * abs(w),
                     f"power sum p_{k} from the coefficients is off by {mp.nstr(abs(g - w), 5)}")


def _check_moments(coeffs, moments) -> None:
    d = len(coeffs) - 1
    want = [Fraction(s) / d for s in _newton_power_sums([Fraction(c) for c in coeffs], 4)]
    _require(len(moments) == 4, f"{len(moments)} moments for 4 requested")
    for k, (m, w) in enumerate(zip(moments, want), start=1):
        m = complex(m)
        _require(math.isfinite(m.real) and math.isfinite(m.imag), f"non-finite moment m_{k}")
        _require(abs(m - float(w)) <= 1e-8 * max(1.0, abs(float(w))),
                 f"moment m_{k} = {m} against {float(w)}")


def _check_boxplus_mpf(p, q, out) -> None:
    with mp.workdps(50):
        ap = _atilde_mpf(p.coeffs)
        aq = _atilde_mpf(q.coeffs)
        got = _atilde_mpf(out.coeffs)
        want = [mp.fsum(math.comb(k, i) * ap[i] * aq[k - i] for i in range(k + 1))
                for k in range(len(got))]
        bad = [k for k, (g, w) in enumerate(zip(got, want))
               if abs(g - w) > mp.mpf("1e-40") * max(1, abs(w))]
        _require(not bad, f"atilde_k wrong at k = {bad[:5]}")


def _atilde_mpf(coeffs) -> list:
    d = len(coeffs) - 1
    return [(-1) ** i * mp.mpf(c) / math.comb(d, i) for i, c in enumerate(coeffs)]
