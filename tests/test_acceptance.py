"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 1-6 are exact (rational arithmetic end to end); criteria 7-12 are
finite-size surrogates of asymptotic statements, with explicit error and
rate tolerances.  Run with ``pytest -s tests/test_acceptance.py`` to see the
status lines.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import mpmath as mp

from finfree.cumulants import (
    boxtimes_cumulants,
    boxtimes_fold,
    coeffs_from_cumulants,
    exp_poly,
    finite_cumulants,
    hermite_unitary,
    laguerre_hat,
    laguerre_unitary,
)
from finfree.experiments import ExperimentConfig, run_experiment
from finfree.freelimits import (
    lagrange_cumulants,
    lambda_cumulant,
    lambda_moment,
    nc_moments_from_cumulants,
    pi_cumulant,
    s_transform_series,
    sigma_cumulant,
    sy_limit_t,
)
from finfree.identities import (
    ZeroConstPoly,
    composition_identity,
    s_bruteforce,
    s_closed_form,
    s_mobius_route,
)
from finfree.partitions import (
    count_R,
    count_S,
    count_T,
    count_T_closed,
    count_join_full,
    count_join_full_closed,
)
from finfree.polycalc import (
    BoxtimesLimit,
    MonicPoly,
    boxplus,
    boxtimes_limit_class,
    boxtimes_limit_poly,
    boxtimes_pow,
    dilate,
    empirical_moments,
    normalized_coeffs,
)
from finfree.scalars import to_mpf

x = ZeroConstPoly.monomial
c = ZeroConstPoly.binomial_basis


def _report(num: int, desc: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status}  {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])


def _random_zero_const(rng, max_deg=3):
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg - 1)]
    coeffs.append(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    return ZeroConstPoly(coeffs)


def test_criterion_01_main_identity_exact():
    failures = []
    rng = random.Random(1001)
    start = time.time()
    for i in range(20):
        k = rng.randint(1, 3)
        fs = [_random_zero_const(rng) for _ in range(k)]
        n_crit = sum(f.degree for f in fs) - (k - 1)
        for n in range(1, 9):
            brute = s_bruteforce(fs, n)
            if s_mobius_route(fs, n) != brute:
                failures.append(f"instance {i}: the Mobius route differs at n={n}")
            if n == n_crit and brute != s_closed_form(fs, n):
                failures.append(f"instance {i}: critical value {brute} != "
                                f"{s_closed_form(fs, n)}")
            if n > n_crit and brute != 0:
                failures.append(f"instance {i}: nonzero above critical order at n={n}")
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(1, f"main identity, 20 random instances, zero band to n=8, "
               f"Mobius route at every n ({elapsed:.1f}s)", failures)


def test_criterion_02_corollary_values_exact():
    failures = []
    for k in range(1, 7):
        n = k + 1
        want = math.factorial(n - 1) * n ** (k - 1)
        got = s_bruteforce([c(2)] * k, n)
        if got != want:
            failures.append(f"binomial family k={k}: {got} != {want}")
        got = s_bruteforce([x(2)] * k, n)
        if got != 2 ** k * want:
            failures.append(f"square family k={k}: {got} != {2 ** k * want}")
    _report(2, "corollary values (n-1)! n^(k-1) and 2^k (n-1)! n^(k-1), k <= 6", failures)


def test_criterion_03_counting_oracles_exact():
    failures = []
    from itertools import combinations_with_replacement

    # covering tuples: brute force vs alternating sum
    for k in (1, 2, 3):
        for sizes in combinations_with_replacement((1, 2, 3), k):
            for n in range(1, 9):
                if count_R(n, sizes) != count_R(n, sizes, method="formula"):
                    failures.append(f"R mismatch at n={n}, sizes={sizes}")
    # essential tuples vs the s-coefficient of the binomial family
    for k in (1, 2, 3):
        for sizes in combinations_with_replacement((1, 2, 3), k):
            for n in range(1, 7):
                a = count_S(n, sizes)
                b = s_bruteforce([c(m) for m in sizes], n)
                if a != b:
                    failures.append(f"S mismatch at n={n}, sizes={sizes}: {a} != {b}")
    # interval-join tuples vs closed form, all instances with L <= 8
    def compositions(slots, total):
        if slots == 1:
            yield (total,)
            return
        for first in range(1, total - slots + 2):
            for rest in compositions(slots - 1, total - first):
                yield (first,) + rest

    for sizes in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1), (2, 2, 2)]:
        slots = sum(sizes) - (len(sizes) - 1)
        for L in range(slots, 9):
            for lengths in compositions(slots, L):
                if count_T(sizes, lengths) != count_T_closed(sizes, lengths):
                    failures.append(f"T mismatch sizes={sizes} lengths={lengths}")
    # interval-join partitions vs closed form, M <= 8
    def multisets(M):
        def rec(remaining, bound, prefix):
            if remaining == 0:
                yield tuple(prefix)
                return
            for v in range(min(remaining, bound), 0, -1):
                yield from rec(remaining - v, v, prefix + [v])

        yield from rec(M, M, [])

    for M in range(2, 9):
        for sizes in multisets(M):
            if count_join_full(sizes) != count_join_full_closed(sizes):
                failures.append(f"join-full mismatch sizes={sizes}")
    _report(3, "counting oracles: covering / essential / interval-join families", failures)


def test_criterion_04_cumulant_algebra_exact():
    failures = []
    rng = random.Random(1004)
    polys = []
    for _ in range(50):
        d = rng.randint(1, 8)
        coeffs = [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
        polys.append(MonicPoly.from_coeffs(coeffs))
    for i, p in enumerate(polys):
        kv = finite_cumulants(p)
        if coeffs_from_cumulants(kv).coeffs != p.coeffs:
            failures.append(f"roundtrip failed on instance {i}")
        cdil = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        kd = finite_cumulants(dilate(p, cdil))
        if kd.values != tuple(cdil ** n * k for n, k in enumerate(kv.values, start=1)):
            failures.append(f"dilation law failed on instance {i}")
    for p, q in zip(polys[::2], polys[1::2]):
        if p.degree != q.degree:
            continue
        ks = finite_cumulants(boxplus(p, q)).values
        want = tuple(a + b for a, b in zip(finite_cumulants(p).values,
                                           finite_cumulants(q).values))
        if ks != want:
            failures.append("additive linearization failed")
    for d in range(1, 9):
        atom = MonicPoly.from_coeffs([1, -d] + [0] * (d - 1))
        if finite_cumulants(atom).values != tuple(Fraction(d) ** (n - 1) for n in range(1, d + 1)):
            failures.append(f"atom family cumulants wrong at d={d}")
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        if finite_cumulants(laguerre_hat(d, lam)).values != (lam,) * d:
            failures.append(f"laguerre family cumulants wrong at d={d}")
    for d in range(2, 7):
        base = laguerre_hat(d, 1)
        for m in range(1, 6):
            q = boxtimes_pow(base, m)
            kv = finite_cumulants(q)
            u = Fraction(d - 1, d) ** m
            if kv[2] != d * (1 - u):
                failures.append(f"second-cumulant power formula failed d={d} m={m}")
            if d >= 3:
                v = Fraction(d - 2, d) ** m
                want = d ** 2 * (1 - Fraction(3, 2) * u + Fraction(1, 2) * u * v)
                if kv[3] != want:
                    failures.append(f"third-cumulant power formula failed d={d} m={m}")
    _report(4, "cumulant algebra: roundtrip, linearization, dilation, special values", failures)


def test_criterion_05_multiplicative_cumulant_formula_exact():
    failures = []
    rng = random.Random(1005)
    for d in range(2, 7):
        for m in (1, 2, 3):
            ps = []
            for _ in range(m):
                coeffs = [1] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
                ps.append(MonicPoly.from_coeffs(coeffs))
            direct = finite_cumulants(boxtimes_fold(ps))
            for n in range(1, min(d, 5) + 1):
                if boxtimes_cumulants(ps, n) != direct[n]:
                    failures.append(f"pi-sum mismatch d={d} m={m} n={n}")
    # join-sum route, up to its n=6, m=3 boundary
    for d, m, ns in ((4, 2, range(1, 5)), (5, 3, (5,)), (6, 3, (4, 6))):
        ps = []
        for _ in range(m):
            coeffs = [1] + [Fraction(rng.randint(-5, 5), 3) for _ in range(d)]
            ps.append(MonicPoly.from_coeffs(coeffs))
        direct = finite_cumulants(boxtimes_fold(ps))
        for n in ns:
            if boxtimes_cumulants(ps, n, method="join-sum") != direct[n]:
                failures.append(f"join-sum mismatch d={d} m={m} n={n}")
    _report(5, "multiplicative cumulant formula == direct convolution, d<=6 n<=6 m<=3", failures)


def test_criterion_06_lagrange_pipeline():
    failures = []
    for t in (0.1, 1, 2):
        for kind, closed in (("lambda", lambda_cumulant), ("sigma", sigma_cumulant),
                             ("pi", pi_cumulant)):
            S = s_transform_series(kind, 10, t=t)
            ks = lagrange_cumulants(S, 8)
            for n in range(1, 9):
                ref = closed(n, t)
                if abs(ks[n - 1] - ref) > mp.mpf("1e-30") * max(1, abs(ref)):
                    failures.append(f"{kind} t={t} n={n} off by {abs(ks[n-1]-ref)}")
    for t in (0.1, 1, 2):
        ks = [lambda_cumulant(n, t) for n in range(1, 7)]
        ms = nc_moments_from_cumulants(ks, 6)
        for n in range(1, 7):
            ref = lambda_moment(n, t)
            if abs(ms[n - 1] - ref) > mp.mpf("1e-25") * max(1, abs(ref)):
                failures.append(f"moment mismatch t={t} n={n}")
    for n in range(2, 10):
        for k in range(1, n):
            left, right = composition_identity(n, k)
            if left != right:
                failures.append(f"composition identity fails at n={n} k={k}")
    _report(6, "series inversion vs closed forms (1e-30), moments (1e-25), composition identity", failures)


def _kappa_family_check(kind, ref_fn, ds, rate_tol, rel_tol_400, failures):
    cfg = ExperimentConfig(kind=kind, d=list(ds), t=[1.0], n_max=4 if kind != "laguerre" else 3)
    table = run_experiment(cfg)
    by_n = {}
    for r in table.rows:
        by_n.setdefault(r.n, []).append((r.d, float(r.abs_error), r.rel_error))
    for n, rows in by_n.items():
        rows.sort()
        errs = [e for _, e, _ in rows]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            failures.append(f"{kind} n={n}: error not decreasing along d: {errs}")
        rate = table.rates.get((kind, n))
        lo, hi = rate_tol
        if rate is None or not lo <= rate <= hi:
            failures.append(f"{kind} n={n}: fitted rate {rate} outside [{lo},{hi}]")
        if n <= 3:
            rel = [float(rr) for dd, _, rr in rows if dd == max(ds)][0]
            if rel > rel_tol_400:
                failures.append(f"{kind} n={n}: relative error {rel:.4f} at d={max(ds)}")
    return table


def _moment_side_check(kind, make, ref_moments, rate_tol, failures):
    """The theorems are weak convergence of the root distribution; for these
    compactly supported limits that is convergence of moments.  m_1..m_4 of
    the roots, taken from the coefficients, approach the limit law's at the
    fitted rate along d."""
    ds, N = (100, 400, 1600), 4
    errs = [[] for _ in range(N)]
    for d in ds:
        for k, (m, ref) in enumerate(zip(empirical_moments(make(d), N), ref_moments)):
            with mp.workdps(50):
                errs[k].append(abs(to_mpf(m) - ref))
    lo, hi = rate_tol
    for k, e in enumerate(errs, start=1):
        rate = statistics.linear_regression([math.log(d) for d in ds],
                                            [float(mp.log(x)) for x in e]).slope
        if not lo <= rate <= hi:
            failures.append(f"{kind} root moment m_{k}: fitted rate {rate:.3f} outside [{lo},{hi}]")


def test_criterion_07_hermite_limit():
    failures = []
    start = time.time()
    _kappa_family_check("hermite", sigma_cumulant, (50, 100, 200, 400), (-1.2, -0.8), 0.02, failures)
    sigma = nc_moments_from_cumulants([sigma_cumulant(n, 1) for n in range(1, 5)], 4)
    _moment_side_check("hermite", lambda d: hermite_unitary(d, 1), sigma, (-1.2, -0.8), failures)
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(7, f"unitary Hermite cumulants and root moments -> free normal law, rate -1+-0.2 ({elapsed:.1f}s)", failures)


def test_criterion_08_fms_limit():
    failures = []
    start = time.time()
    _kappa_family_check("fms", lambda_cumulant, (50, 100, 200, 400), (-1.2, -0.8), 0.02, failures)
    lam = [lambda_moment(n, 1) for n in range(1, 5)]
    _moment_side_check("fms", lambda d: exp_poly(d, 1), lam, (-1.2, -0.8), failures)
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(8, f"exponential-family cumulants and root moments -> mult. semicircular law ({elapsed:.1f}s)", failures)


def test_criterion_09_laguerre_poisson():
    failures = []
    table = _kappa_family_check("laguerre", pi_cumulant, (100, 200, 400), (-1.3, -0.7), 0.05, failures)
    if any(r.m != r.d for r in table.rows):
        failures.append("t=1 should give m=d")
    pi = nc_moments_from_cumulants([pi_cumulant(n, 1) for n in range(1, 5)], 4)
    _moment_side_check("laguerre", lambda d: laguerre_unitary(d, d), pi, (-1.3, -0.7), failures)
    _report(9, "unitary Laguerre cumulants and root moments -> free unitary Poisson law, rate -1+-0.3", failures)


def test_criterion_10_scaled_power_limits():
    failures = []
    # vanishing-ratio regime: m = ceil(sqrt(d))
    ds = [100, 400, 1600]
    ms = [math.isqrt(d) for d in ds]  # exact square roots here
    cfg = ExperimentConfig(kind="sy", d=ds, m=ms, n_max=3, regime="zero")
    table = run_experiment(cfg)
    by_n = {}
    for r in table.rows:
        by_n.setdefault(r.n, []).append((r.d, float(r.abs_error), r.rel_error))
    for n, rows in by_n.items():
        rows.sort()
        errs = [e for _, e, _ in rows]
        if max(errs) > 1e-30:
            if any(b >= a for a, b in zip(errs, errs[1:])):
                failures.append(f"regime-zero n={n}: errors not improving: {errs}")
        rel_last = [float(rr) for dd, _, rr in rows if dd == 1600][0]
        if rel_last > 0.15:
            failures.append(f"regime-zero n={n}: rel {rel_last:.3f} > 15% at d=1600")
    # the dominant error term decays like 1/m = d^(-1/2) on this grid
    for n in (2, 3):
        rate = table.rates.get(("sy", n))
        if rate is None or not -0.7 <= rate <= -0.3:
            failures.append(f"regime-zero n={n}: fitted rate {rate} outside [-0.7,-0.3]")
    # fixed-ratio regime at t = 1: this arbitrates the sign of the limit family
    cfg = ExperimentConfig(kind="sy", d=[400], m=[400], n_max=3, regime="t")
    table = run_experiment(cfg)
    for r in table.rows:
        if float(r.rel_error) > 0.05:
            failures.append(f"regime-t n={r.n}: rel {float(r.rel_error):.4f} > 5%")
    # the mirrored (t -> -t) family must NOT match the finite-size values
    with mp.workdps(50):
        mirrored_n2 = (mp.e - 1)  # (e^t - 1)/t at t=1
    row2 = [r for r in table.rows if r.n == 2][0]
    if abs(row2.value - mirrored_n2) < 0.05 * mirrored_n2:
        failures.append("finite-size value unexpectedly matches the mirrored family")
    ref2 = sy_limit_t(2, 1.0, 1)[1]
    if abs(row2.reference - ref2) > mp.mpf("1e-30"):
        failures.append("regime-t reference is not the direct partition-sum evaluation")
    _report(10, "scaled-power limits: vanishing ratio <=15%@1600, fixed ratio <=5%, sign arbitration", failures)


def test_criterion_11_clt_lln():
    failures = []
    # d = 2 closed-form targets at m = 10^6
    for kind in ("multclt", "uclt"):
        cfg = ExperimentConfig(kind=kind, m=[10 ** 6], sigma=1.0, d=[2], n_max=1)
        tab = run_experiment(cfg)
        worst = max(float(r.abs_error) for r in tab.rows)
        if worst > 1e-6:
            failures.append(f"{kind} d=2 m=1e6: entrywise error {worst:.2e} > 1e-6")
    cfg = ExperimentConfig(kind="lln", m=[10 ** 6], poly={"roots": [2.0, 1.0]}, d=[2], n_max=1)
    tab = run_experiment(cfg)
    worst = max(float(r.abs_error) for r in tab.rows)
    if worst > 1e-6:
        failures.append(f"lln d=2 m=1e6: entrywise error {worst:.2e} > 1e-6")
    # random centered degree-5 instance: distance decreases along m
    rng = random.Random(20240)
    th = [rng.uniform(-1.2, 1.2) for _ in range(4)]
    th.append(-sum(th))
    inputs = {
        "multclt": {"roots": [math.exp(v) for v in th]},
        "uclt": {"angles": th},
    }
    for kind, poly in inputs.items():
        cfg = ExperimentConfig(kind=kind, m=[100, 1000, 10000], poly=poly, d=[5], n_max=1)
        tab = run_experiment(cfg)
        dist = {}
        for r in tab.rows:
            dist[r.m] = max(dist.get(r.m, 0.0), float(r.abs_error))
        seq = [dist[m] for m in (100, 1000, 10000)]
        if not (seq[0] > seq[1] > seq[2]):
            failures.append(f"{kind} d=5: distance not monotone: {seq}")
    _report(11, "CLT/LLN: d=2 closed forms at 1e-6, d=5 monotone convergence", failures)


def test_criterion_12_power_limit_classification():
    failures = []
    d = 3
    cases = {
        BoxtimesLimit.ALL_ZERO: MonicPoly.from_roots(
            [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        BoxtimesLimit.ZERO_WITH_ATOM: MonicPoly.from_roots(
            [Fraction(0), Fraction(3, 2), Fraction(3, 2)]),
        BoxtimesLimit.DELTA_ONE: MonicPoly.from_roots([Fraction(1)] * d),
        BoxtimesLimit.DIVERGENT: MonicPoly.from_roots(
            [Fraction(2), Fraction(1), Fraction(1)]),
    }
    for want, p in cases.items():
        got = boxtimes_limit_class(p)
        if got is not want:
            failures.append(f"classified {got} instead of {want}")
    for want, p in cases.items():
        if want is BoxtimesLimit.DIVERGENT:
            continue
        target = normalized_coeffs(boxtimes_limit_poly(want, d))
        dists = []
        for m in (1, 10, 100, 1000):
            at = normalized_coeffs(boxtimes_pow(p, m))
            dists.append(max(abs(float(a - b)) for a, b in zip(at, target)))
        if dists[-1] > 1e-8:
            failures.append(f"{want}: distance {dists[-1]:.2e} > 1e-8 at m=1000")
        if any(b > a for a, b in zip(dists, dists[1:])):
            failures.append(f"{want}: power distances not non-increasing: {dists}")
    _report(12, "power-limit classification: four branches, entrywise 1e-8 at m=1000", failures)
