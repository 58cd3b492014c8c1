import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from finfree import scalars
from finfree.freelimits import (
    PowerSeries,
    lagrange_cumulants,
    lambda_cumulant,
    lambda_moment,
    nc_moments_from_cumulants,
    pi_cumulant,
    s_transform_series,
    sigma_cumulant,
    sy_limit_t,
    sy_limit_zero,
)
from finfree.identities import faa_di_bruno_exp
from finfree.partitions import mobius_top, noncrossing_masks, partition_masks
from finfree.scalars import dot

from .oracles import (catalan_oracle, exp_literal, exp_mpf_literal, lagrange_power_oracle,
                      log_literal, log_mpf_literal, sy_limit_t_per_n)


def close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) <= mp.mpf(tol)


class TestPowerSeries:
    def test_exp_of_exact_series(self):
        u = PowerSeries((Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        g = u.exp()
        assert g.coeffs == tuple(Fraction(1, math.factorial(j)) for j in range(5))

    def test_log_inverts_exp(self):
        u = PowerSeries((Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5), Fraction(1, 7)))
        assert u.exp().log() == u
        with pytest.raises(ValueError):
            PowerSeries((Fraction(2), Fraction(1))).log()


    def test_binary64_matches_literal_loops_bit_for_bit(self):
        rng = random.Random(1790)
        for cplx in (False, True):
            def draw():
                v = rng.uniform(-2, 2)
                return complex(v, rng.uniform(-2, 2)) if cplx else v
            for N in (1, 7, 30):
                a = (1.0,) + tuple(draw() for _ in range(N))
                u = (0.0,) + tuple(draw() for _ in range(N))
                assert PowerSeries(u).exp().coeffs == tuple(exp_literal(u, 1.0))
                assert PowerSeries(a).log().coeffs == tuple(log_literal(a))

    @pytest.mark.parametrize("x, types", [
        (Fraction(1, 3), {Fraction}), (0.25, {float}), (0.5 - 0.25j, {float, complex}),
        (mp.mpf(1) / 3, {mp.mpf}), (mp.mpc(1, 2) / 3, {mp.mpf, mp.mpc})])
    def test_a_series_is_one_kind(self, x, types):
        """Ints among the values of a series are recast in its kind, so exp,
        log and the Lagrange step return values of that kind only (a complex
        series keeps its real head); ints alone are exact."""
        with mp.workdps(30):
            for got in (PowerSeries((0, x, 3, -x, 2)).exp().coeffs,
                        PowerSeries((1, x, 2, -x, -1)).log().coeffs,
                        lagrange_cumulants(PowerSeries((2, x, -1, x, 1)), 5, 30)):
                assert set(map(type, got)) == types, got
        for got in (PowerSeries((0, 1, 3)).exp().coeffs, PowerSeries((1, 2, -1)).log().coeffs,
                    lagrange_cumulants(PowerSeries((2, 1, -1)), 3), PowerSeries.egf([1, 2, 3]).coeffs):
            assert set(map(type, got)) == {Fraction}, got
        assert PowerSeries.egf([1, 2, 3]).coeffs == (1, 2, Fraction(3, 2))

    def test_ints_beside_mpf_values_are_mpfs(self):
        with mp.workdps(50):
            g1 = PowerSeries((mp.mpf(1), 2 ** 60 + 1, mp.mpf(2))).log().coeffs[1]
            assert type(g1) is mp.mpf and g1 == 2 ** 60 + 1
            g0 = PowerSeries((0, mp.mpf(1), 3)).exp().coeffs[0]
            assert type(g0) is mp.mpf and g0 == 1
            for op in (PowerSeries.exp, PowerSeries.log):
                with pytest.raises(TypeError, match="series: mixed scalar kinds"):
                    op(PowerSeries((1, Fraction(1, 3), mp.mpf(2))))

    @pytest.mark.parametrize("digits", [15, 50, 120])
    def test_mpf_matches_exact_sum_literals_bit_for_bit(self, digits, monkeypatch):
        """exp, log and both Lagrange steps on real mpf series equal the
        Fraction-sum literals by ==: zero, negative and int coefficients, a
        nonzero exp constant and, at 15 digits, coefficients 2^+-20000 apart,
        which take the ``dot`` fallback."""
        dots = []
        monkeypatch.setattr(scalars, "dot", lambda *a, **k: dots.append(1) or dot(*a, **k))
        rng = random.Random(digits)
        wide = [1] + ([20000, -20000] if digits == 15 else [])
        with mp.workdps(digits):
            def same(got, want):
                assert list(map(type, got)) == [mp.mpf] * len(want) and list(got) == want

            def draw(scale=1):
                pick = rng.random()
                if pick < 0.15:
                    return rng.choice([0, mp.mpf(0), 1, -3])
                return mp.ldexp(mp.mpf(rng.uniform(-2, 2)) / 3, rng.randint(-40, 40)) * scale

            for N in (1, 2, 7, 16):
                for _ in range(4):
                    # the Fraction literals on 2^+-20000 are slow past N = 7
                    scale = mp.ldexp(1, rng.choice(wide if N < 16 else [1]))
                    u0 = mp.mpf(rng.choice([0, rng.uniform(-1, 1)]))
                    u = [u0] + [draw(scale) for _ in range(N)]
                    f = [mp.mpf(1), mp.mpf(draw(scale))] + [draw(scale) for _ in range(N - 1)]
                    same(PowerSeries(tuple(u)).exp().coeffs, exp_mpf_literal(u))
                    same(PowerSeries(tuple(f)).log().coeffs, log_mpf_literal(f))
                    S = [mp.mpf(rng.uniform(0.5, 2))] + f[1:]
                    h = [-c for c in log_mpf_literal([c / S[0] for c in S])]
                    same(lagrange_cumulants(PowerSeries(tuple(S)), N + 1, digits),
                         [exp_mpf_literal([n * c for c in h[:n]])[n - 1] / (n * S[0] ** n)
                          for n in range(1, N + 2)])
                    ks = [mp.mpf(k) for k in f[1:]]
                    h = log_mpf_literal([mp.mpf(1)] + ks)
                    same(nc_moments_from_cumulants(ks, N, digits),
                         [exp_mpf_literal([n * c for c in h[:n]])[n - 1] / n
                          for n in range(2, N + 2)])
        assert bool(dots) == (digits == 15)


class TestClosedForms:
    def test_eta(self):
        assert close(sy_limit_zero(1, 7), 1, "1e-45")
        assert close(sy_limit_zero(2, 1), 1, "1e-45")
        assert close(sy_limit_zero(3, 1), mp.mpf(3) / 2, "1e-45")

    def test_lambda_small_n(self):
        with mp.workdps(50):
            assert close(lambda_cumulant(1, 1), mp.exp(mp.mpf(1) / 2), "1e-45")
        assert close(lambda_cumulant(1, 0), 1, "1e-45")
        for n in range(2, 6):
            assert lambda_cumulant(n, 0) == 0

    def test_sigma_n2(self):
        for t in (0.1, 1, 2):
            with mp.workdps(50):
                expect = -mp.mpf(t) * mp.exp(-mp.mpf(t))
            assert close(sigma_cumulant(2, t), expect, "1e-45")
        assert close(sigma_cumulant(1, 0), 1, "1e-45")

    def test_lambda_moment(self):
        with mp.workdps(50):
            assert close(lambda_moment(1, 1), mp.exp(mp.mpf(1) / 2), "1e-45")
            assert close(lambda_moment(2, 1), 2 * mp.exp(1), "1e-45")
        for n in range(1, 6):
            assert close(lambda_moment(n, 0), 1, "1e-45")

    def test_pi_small_n(self):
        for t in (0.1, 1, 2):
            with mp.workdps(50):
                tt = mp.mpf(t)
                assert close(pi_cumulant(1, t), mp.exp(-2 * tt), "1e-45")
                assert close(pi_cumulant(2, t), 4 * tt * mp.exp(-4 * tt), "1e-45")

    def test_pi_against_the_exact_alternating_sum(self):
        # the sum of the docstring in exact rationals, times exp at 100 digits:
        # taken term by term at 50 digits it loses 17 digits at n = 40
        for t in (1, 2):
            for n in (12, 40, 100):
                total = sum(Fraction((-t) ** k, math.factorial(k)) * (2 * n) ** (k - 1)
                            * math.comb(n - 2, k - 1) for k in range(1, n))
                with mp.workdps(100):
                    want = ((-1) ** (n - 1) * 2 ** n * mp.exp(-2 * n * mp.mpf(t))
                            * mp.mpf(total.numerator) / total.denominator)
                    assert abs(pi_cumulant(n, t) - want) <= mp.mpf("1e-48") * abs(want)

    def test_scaling_relation_between_laws(self):
        # the multiplicative-semicircular cumulants are the compound-scaling
        # ones (sy_limit_zero at kappa2 = t) dilated by e^(t/2)
        for t in (Fraction(1, 10), 1, 2):
            with mp.workdps(60):
                for n in range(1, 11):
                    lhs = lambda_cumulant(n, t, digits=60)
                    rhs = mp.exp(n * _t(t) / 2) * sy_limit_zero(n, t, digits=60)
                    assert abs(lhs - rhs) <= mp.mpf("1e-30") * max(1, abs(lhs))

    def test_sigma_lambda_mirror(self):
        for t in (Fraction(1, 10), 1, 2):
            with mp.workdps(60):
                for n in range(1, 9):
                    lhs = sigma_cumulant(n, t, digits=60)
                    rhs = (-1) ** (n - 1) * mp.exp(-n * _t(t)) * lambda_cumulant(n, t, digits=60)
                    assert abs(lhs - rhs) <= mp.mpf("1e-35") * max(1, abs(lhs))


def _t(t):
    return mp.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else mp.mpf(t)


class TestSYLimits:
    def test_n1(self):
        assert close(sy_limit_t(1, 0.7, 1)[0], 1, "1e-45")

    def test_n2_closed_form(self):
        for t in (0.25, 1.0, 3.0):
            with mp.workdps(50):
                tt = mp.mpf(t)
                expect = (1 - mp.exp(-tt)) / tt
            assert close(sy_limit_t(2, t, 1)[1], expect, "1e-40")

    def test_n3_closed_form(self):
        with mp.workdps(50):
            tt = mp.mpf(1)
            expect = (mp.exp(-3 * tt) - 3 * mp.exp(-tt) + 2) / (2 * tt ** 2)
        assert close(sy_limit_t(3, 1, 1)[2], expect, "1e-40")

    def test_zero_ratio_values(self):
        assert close(sy_limit_zero(3, 1), mp.mpf(3) / 2, "1e-45")
        for n in range(1, 7):
            expect = mp.mpf(n) ** (n - 1) / math.factorial(n)
            assert close(sy_limit_zero(n, 1), expect, "1e-40")

    def test_small_t_consistency(self):
        for n, a in enumerate(sy_limit_t(5, 1e-3, 1), start=1):
            b = sy_limit_zero(n, 1)
            assert abs(a - b) <= 1e-2 * abs(b)

    def test_matches_literal_partition_sum(self):
        for t, k2 in ((0.25, 1), (1, 1), (3, 2), (Fraction(1, 3), Fraction(5, 2))):
            with mp.workdps(50):
                tt = _t(Fraction(t))
                kk = _t(Fraction(k2))
            column = sy_limit_t(8, t, k2, digits=50)
            for n, got in enumerate(column, start=1):
                with mp.workdps(50):
                    total = mp.fsum(
                        mobius_top(len(pi))
                        * mp.exp(-tt * kk * sum(math.comb(m.bit_count(), 2) for m in pi))
                        for pi in partition_masks(n))
                    ref = (-1) ** (n - 1) * total / (tt ** (n - 1) * math.factorial(n - 1))
                assert abs(got - ref) <= mp.mpf("1e-35") * max(1, abs(ref))

    def test_column_equals_per_n_series_bit_for_bit(self):
        for t, k2, digits in ((0.25, 1, 50), (1, 1, 50), (3, 2, 30),
                              (Fraction(1, 3), Fraction(5, 2), 80)):
            column = sy_limit_t(16, t, k2, digits=digits)
            assert column == [sy_limit_t_per_n(n, t, k2, digits) for n in range(1, 17)]

    def test_kappa2_scaling(self):
        # kappa2 enters the n=2 value only through t*kappa2
        a = sy_limit_t(2, 0.5, 2)[1]
        b = sy_limit_t(2, 1.0, 1)[1]
        assert close(a, 2 * b, "1e-40")


class TestLagrange:
    def test_identity_transform(self):
        S = s_transform_series("identity", 8)
        ks = lagrange_cumulants(S, 8)
        assert close(ks[0], 1, "1e-45")
        for v in ks[1:]:
            assert close(v, 0, "1e-45")

    def test_transform_heads(self):
        with mp.workdps(50):
            assert close(s_transform_series("lambda", 4, t=1).coeffs[0], mp.exp(mp.mpf(-1) / 2), "1e-45")
            assert close(s_transform_series("pi", 4, t=1).coeffs[0], mp.exp(2), "1e-45")

    def test_lambda_kappa2_at_t1(self):
        S = s_transform_series("lambda", 4, t=1)
        ks = lagrange_cumulants(S, 2)
        with mp.workdps(50):
            assert close(ks[1], mp.exp(1), "1e-40")

    def test_matches_closed_forms_to_1e30(self):
        for t in (0.1, 1, 2):
            for kind, closed in (
                ("lambda", lambda_cumulant),
                ("sigma", sigma_cumulant),
                ("pi", pi_cumulant),
            ):
                S = s_transform_series(kind, 10, t=t)
                ks = lagrange_cumulants(S, 8)
                for n in range(1, 9):
                    ref = closed(n, t)
                    assert abs(ks[n - 1] - ref) <= mp.mpf("1e-30") * max(1, abs(ref))

    def test_constant_transform_scales_first_cumulant(self):
        # S identically c describes the point mass at 1/c
        c = mp.mpf("2.5")
        ks = lagrange_cumulants(PowerSeries.constant(c, 8), 6)
        assert close(ks[0], 1 / c, "1e-45")
        for v in ks[1:]:
            assert close(v, 0, "1e-45")

    def test_exact_series_match_power_oracle(self):
        rng = random.Random(6)
        for N in range(1, 11):
            coeffs = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))]
            coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(N - 1)]
            S = PowerSeries(tuple(coeffs))
            got = lagrange_cumulants(S, N)
            assert all(type(k) is Fraction for k in got)
            assert got == lagrange_power_oracle(S, N)

    def test_limit_laws_match_power_oracle_at_order_40(self):
        with mp.workdps(60):
            for kind, t in (("lambda", 1.3), ("sigma", 0.7), ("pi", 1.1)):
                S = s_transform_series(kind, 40, t=t, digits=60)
                got = lagrange_cumulants(S, 40, digits=60)
                want = lagrange_power_oracle(S, 40)
                for a, b in zip(got, want):
                    assert abs(a - b) <= mp.mpf("1e-45") * max(1, abs(b))

    def test_one_log_and_no_exp_per_n(self, series_calls):
        S = s_transform_series("lambda", 12, t=1)
        series_calls.clear()
        ks = lagrange_cumulants(S, 12)
        # the n exps of the Lagrange step are one kernel pass, not PowerSeries.exp calls
        assert series_calls == ["log"]
        assert close(ks[11], lambda_cumulant(12, 1), "1e-30")

    def test_limit_law_columns_pinned(self):
        # sha256 of the 50-digit reprs of the N = 40 columns at t = 1.3, as
        # the exp(-n log(S/S(0))) route gave them before the shared Lagrange step
        cols = [lagrange_cumulants(s_transform_series(kind, 40, t=1.3), 40)
                for kind in ("lambda", "sigma", "pi")]
        with mp.workdps(50):
            digest = hashlib.sha256(repr(cols).encode()).hexdigest()
        assert digest == "cde742be253434569511579288999c3a5c5b865ef08c065a0e4e720cdce4546a"

    def test_rejects_vanishing_head(self):
        with pytest.raises(ValueError):
            lagrange_cumulants(PowerSeries((mp.mpf(0), mp.mpf(1))), 1)

    def test_order_check(self):
        with pytest.raises(ValueError):
            lagrange_cumulants(PowerSeries((mp.mpf(1), mp.mpf(1))), 5)


class TestNCMoments:
    def test_point_mass(self):
        ks = [mp.mpf(1)] + [mp.mpf(0)] * 7
        for m in nc_moments_from_cumulants(ks, 8):
            assert close(m, 1, "1e-45")

    def test_semicircle_catalans(self):
        for N in (8, 20):
            ks = [mp.mpf(0), mp.mpf(1)] + [mp.mpf(0)] * (N - 2)
            ms = nc_moments_from_cumulants(ks, N)
            for k in range(1, N // 2 + 1):
                assert close(ms[2 * k - 1], catalan_oracle(k), "1e-40")
            for k in range(N // 2):
                assert close(ms[2 * k], 0, "1e-45")

    def test_lambda_moments_match_display(self):
        for t in (0.1, 1, 2):
            ks = [lambda_cumulant(n, t) for n in range(1, 7)]
            ms = nc_moments_from_cumulants(ks, 6)
            for n in range(1, 7):
                ref = lambda_moment(n, t)
                assert abs(ms[n - 1] - ref) <= mp.mpf("1e-25") * max(1, abs(ref))
        for t in (0.1, 1, 2):
            ms = nc_moments_from_cumulants([lambda_cumulant(n, t) for n in range(1, 41)], 40)
            with mp.workdps(80):
                for n, m in enumerate(ms, start=1):
                    ref = lambda_moment(n, t, digits=80)
                    assert abs(m - ref) <= mp.mpf("1e-45") * abs(ref), (t, n)

    def test_matches_noncrossing_partition_sum(self):
        rng = random.Random(21)
        for ks in ([lambda_cumulant(n, 1) for n in range(1, 11)],
                   [mp.mpf(rng.uniform(-2, 2)) for _ in range(10)]):
            ms = nc_moments_from_cumulants(ks, 10)
            with mp.workdps(50):
                for n in range(1, 11):
                    ref = mp.fsum(mp.fprod(ks[m.bit_count() - 1] for m in sigma)
                                  for sigma in noncrossing_masks(n))
                    assert abs(ms[n - 1] - ref) <= mp.mpf("1e-40") * max(1, abs(ref))
        ks = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(10)]
        refs = [sum(math.prod(ks[m.bit_count() - 1] for m in sigma)
                    for sigma in noncrossing_masks(n)) for n in range(1, 11)]
        for N in range(1, 11):
            ms = nc_moments_from_cumulants(ks, N)
            assert all(type(m) is Fraction for m in ms) and ms == refs[:N]

    def test_one_log_and_no_exp_per_moment(self, series_calls):
        ks = [lambda_cumulant(n, 1) for n in range(1, 13)]
        ms = nc_moments_from_cumulants(ks, 12)
        assert series_calls == ["log"]
        assert abs(ms[11] - lambda_moment(12, 1)) <= mp.mpf("1e-40") * lambda_moment(12, 1)

    def test_needs_the_cumulants(self):
        for ks, N in (([], 0), ([], 1), ([mp.mpf(1)], 2)):
            with pytest.raises(ValueError, match="need kappa_1"):
                nc_moments_from_cumulants(ks, N)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("call, name", [
    (lambda: lambda_cumulant(2, _NAN), "t"),
    (lambda: lambda_cumulant(2, _INF), "t"),
    (lambda: lambda_cumulant(2, -1), "t"),
    (lambda: sigma_cumulant(2, _INF), "t"),
    (lambda: lambda_moment(2, _INF), "t"),
    (lambda: pi_cumulant(2, _INF), "t"),
    (lambda: pi_cumulant(2, 0), "t"),
    (lambda: sy_limit_t(3, _INF), "t"),
    (lambda: sy_limit_t(3, 1, kappa2=_NAN), "kappa2"),
    (lambda: sy_limit_zero(3, kappa2=_NAN), "kappa2"),
    (lambda: sy_limit_zero(3, kappa2=_INF), "kappa2"),
    (lambda: s_transform_series("lambda", 3, t=_NAN), "t"),
    (lambda: s_transform_series("lambda", 3, t=-1), "t"),
    (lambda: s_transform_series("sigma", 3, t=_INF), "t"),
    (lambda: s_transform_series("pi", 3, t=0), "t"),
    (lambda: s_transform_series("sigma", 3), "t"),
    (lambda: s_transform_series("pi", 3, t=None), "t"),
])
def test_non_finite_or_out_of_range_parameters_refused(call, name):
    # a closed form's rule: lambda and sigma need a finite t >= 0, pi and
    # sy_limit_t a finite t > 0, kappa2 is finite; nan and inf are no result
    with pytest.raises(ValueError, match=f"{name}="):
        call()


class TestPoissonFaaDiBruno:
    def test_pi_cumulant_reproduced_symbolically(self):
        # strip the e^(-2nt) factor; both sides are then polynomials in t
        # with rational coefficients, compared exactly at enough points
        for n in range(2, 6):
            for t in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5)):
                derivs = [
                    Fraction(-n) * t * (-1) ** j * math.factorial(j) * 2 ** (j + 1)
                    for j in range(1, n)
                ]
                left = Fraction(1, math.factorial(n)) * faa_di_bruno_exp(derivs, 0, n - 1)
                right = Fraction(0)
                for k in range(1, n):
                    right += (
                        Fraction((-t) ** k, math.factorial(k))
                        * (2 * n) ** (k - 1)
                        * math.comb(n - 2, k - 1)
                    )
                right *= Fraction((-1) ** (n - 1) * 2 ** n)
                assert left == right
