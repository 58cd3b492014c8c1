import hashlib
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from finfree.cumulants import (
    CumulantVector,
    atilde_from_cumulants,
    boxtimes_cumulants,
    boxtimes_fold,
    coeffs_from_cumulants,
    cumulants_from_atilde,
    exp_poly,
    exp_poly_atilde,
    finite_cumulants,
    hermite_unitary,
    hermite_unitary_atilde,
    laguerre_hat,
    laguerre_hat_atilde,
    laguerre_unitary,
)
from finfree import cumulants, partitions
from finfree.errors import CapExceededError
from finfree.polycalc import (
    MonicPoly,
    boxplus,
    boxtimes_pow,
    dilate,
    normalized_coeffs,
)

from .oracles import cumulants_literal, exp_family_per_k, laguerre_hat_falling, log_literal


def rational_poly(rng, d):
    coeffs = [1] + [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)]
    return MonicPoly.from_coeffs(coeffs)


class TestTransform:
    def test_atom_at_d(self):
        for d in (1, 2, 5, 8):
            p = MonicPoly.from_coeffs([1, -d] + [0] * (d - 1))
            kv = finite_cumulants(p)
            assert kv.values == tuple(Fraction(d) ** (n - 1) for n in range(1, d + 1))

    def test_laguerre_constant_cumulants(self):
        for d in (2, 4, 8):
            for lam in (1, 2, Fraction(1, 2)):
                kv = finite_cumulants(laguerre_hat(d, lam))
                assert kv.values == tuple(Fraction(lam) for _ in range(d))

    def test_worked_quadratic(self):
        kv = finite_cumulants(MonicPoly.from_coeffs([1, -4, 2]))
        assert kv.values == (2, 4)

    def test_kappa1_is_atilde1(self):
        rng = random.Random(2)
        for _ in range(5):
            p = rational_poly(rng, 5)
            assert finite_cumulants(p)[1] == normalized_coeffs(p)[1]

    def test_grouped_equals_full_enumeration(self):
        rng = random.Random(3)
        d = 8
        p = rational_poly(rng, d)
        at = normalized_coeffs(p)
        grouped = cumulants_from_atilde(d, at, 8, grouped=True)
        full = cumulants_from_atilde(d, at, 8, grouped=False)
        assert grouped == full

    def test_literal_path_matches_fraction_loop(self):
        rng = random.Random(47)
        for d in (8, 12):
            for _ in range(3):
                at = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                      for _ in range(8)]
                got = cumulants_from_atilde(d, at, 8, grouped=False)
                assert all(type(k) is Fraction for k in got)
                assert got == cumulants_literal(d, at, 8)

    def test_binary64_matches_literal_log_bit_for_bit(self):
        rng = random.Random(1790)
        for d in (4, 12, 30):
            for roots in ([rng.uniform(-3, 3) for _ in range(d)],
                          [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(d)]):
                p = MonicPoly.from_roots(roots)
                at = [float(a) if isinstance(a, int) else a for a in normalized_coeffs(p)]
                g = log_literal([a / math.factorial(j) for j, a in enumerate(at)])
                want = tuple((-d) ** (n - 1) * n * g[n] for n in range(1, d + 1))
                assert finite_cumulants(p).values == want

    def test_requires_n_le_d(self):
        with pytest.raises(ValueError):
            cumulants_from_atilde(2, (1, 1, 1, 1), 3)

    def test_binary64_overflow_names_d(self):
        # 200^169 is past binary64 at n = 170, and so is 171! in the egf past it
        at = laguerre_hat_atilde(200, 1.0, 200)
        for n_max in (170, 200):
            with pytest.raises(OverflowError, match=f"d=200, n_max={n_max}: .* binary64 range; "
                                                    "give the input as exact strings"):
                cumulants_from_atilde(200, at, n_max)
        exact = cumulants_from_atilde(200, laguerre_hat_atilde(200, Fraction(1), 200), 200)
        assert exact == [1] * 200

    def test_vector_access(self):
        kv = CumulantVector(2, (Fraction(1), Fraction(2)))
        assert kv[1] == 1 and kv[2] == 2
        with pytest.raises(IndexError):
            kv[3]
        with pytest.raises(ValueError):
            CumulantVector(3, (1,))


class TestInverse:
    def test_atom_inversion(self):
        d = 5
        kv = CumulantVector(d, tuple(Fraction(d) ** (n - 1) for n in range(1, d + 1)))
        p = coeffs_from_cumulants(kv)
        assert p.coeffs == (1, -d, 0, 0, 0, 0)

    def test_laguerre_inversion(self):
        d = 6
        lam = Fraction(3, 2)
        kv = CumulantVector(d, (lam,) * d)
        assert coeffs_from_cumulants(kv).coeffs == laguerre_hat(d, lam).coeffs

    def test_roundtrip_random(self):
        rng = random.Random(14)
        for d in range(1, 9):
            p = rational_poly(rng, d)
            kv = finite_cumulants(p)
            assert coeffs_from_cumulants(kv).coeffs == p.coeffs

    def test_atilde_prefix_roundtrip(self):
        rng = random.Random(15)
        d, n = 40, 4
        at = [Fraction(1)] + [Fraction(rng.randint(-9, 9), 7) for _ in range(n)]
        ks = cumulants_from_atilde(d, at, n)
        back = atilde_from_cumulants(d, ks, n)
        assert back == at[1:]


class TestLaws:
    def test_linearization(self):
        rng = random.Random(16)
        for d in range(1, 9):
            p, q = rational_poly(rng, d), rational_poly(rng, d)
            kp = finite_cumulants(p).values
            kq = finite_cumulants(q).values
            ks = finite_cumulants(boxplus(p, q)).values
            assert ks == tuple(a + b for a, b in zip(kp, kq))

    def test_dilation_law(self):
        rng = random.Random(17)
        for d in (3, 6):
            p = rational_poly(rng, d)
            c = Fraction(-7, 3)
            kd = finite_cumulants(dilate(p, c)).values
            kp = finite_cumulants(p).values
            assert kd == tuple(c ** n * k for n, k in enumerate(kp, start=1))

    def test_laguerre_convergence_proxy(self):
        # cumulants of the unit-rate family equal 1 exactly at every degree,
        # so the distance to the limit value is identically zero
        errs = []
        for d in (10, 20, 40, 80):
            kv = cumulants_from_atilde(
                d, [Fraction(1)] + [normalized_coeffs(laguerre_hat(d, 1))[i] for i in range(1, 5)], 4
            )
            errs.append(max(abs(k - 1) for k in kv))
        assert all(e == 0 for e in errs)
        assert all(b <= a for a, b in zip(errs, errs[1:]))


class TestBoxtimesCumulants:
    def test_single_factor(self):
        rng = random.Random(18)
        p = rational_poly(rng, 5)
        kv = finite_cumulants(p)
        for n in range(1, 6):
            assert boxtimes_cumulants([p], n) == kv[n]

    def test_pi_sum_matches_direct(self):
        rng = random.Random(19)
        for d in (2, 4, 6):
            for m in (2, 3):
                ps = [rational_poly(rng, d) for _ in range(m)]
                direct = finite_cumulants(boxtimes_fold(ps))
                for n in range(1, min(d, 5) + 1):
                    assert boxtimes_cumulants(ps, n) == direct[n]

    def test_join_sum_matches_direct(self):
        rng = random.Random(20)
        for d, m in ((4, 2), (5, 3)):
            ps = [rational_poly(rng, d) for _ in range(m)]
            direct = finite_cumulants(boxtimes_fold(ps))
            for n in range(1, min(d, 5) + 1):
                assert boxtimes_cumulants(ps, n, method="join-sum") == direct[n]

    def test_mpf_factors_match_direct(self):
        d, digits = 8, 50
        ps = [hermite_unitary(d, 1), exp_poly(d, 0.5), hermite_unitary(d, 0.25)]
        direct = finite_cumulants(boxtimes_fold(ps, digits=digits), digits=digits)
        for method, n_max in (("pi-sum", 6), ("join-sum", 3)):
            for n in range(1, n_max + 1):
                got = boxtimes_cumulants(ps, n, method=method, digits=digits)
                assert isinstance(got, mp.mpf)
                assert abs(got - direct[n]) <= mp.mpf("1e-40") * abs(direct[n]), (method, n)

    def test_pi_sum_runs_past_the_partition_cap(self):
        # the series pi-sum walks no P(n): n = 13 and n = 40 are past the cap
        ps = [laguerre_hat(40, 1), laguerre_hat(40, Fraction(1, 2)), laguerre_hat(40, 3)]
        direct = finite_cumulants(boxtimes_fold(ps))
        for n in (13, 40):
            assert boxtimes_cumulants(ps, n) == direct[n]

    def test_n_out_of_range_refused(self):
        ps = [laguerre_hat(4, 1)] * 2
        for method in ("pi-sum", "join-sum"):
            for n in (0, -1, 5):
                with pytest.raises(ValueError, match=f"got n={n}"):
                    boxtimes_cumulants(ps, n, method=method)

    def test_pi_sum_is_m_exps_and_m_plus_one_logs(self, monkeypatch, series_calls):
        # one log per factor's cumulant transform, one exp per factor, one log
        def refuse(*args, **kwargs):
            raise AssertionError("the pi-sum walked P(n)")
        monkeypatch.setattr(partitions, "partition_masks", refuse)
        rng = random.Random(23)
        for m in (1, 2, 3):
            ps = [rational_poly(rng, 6) for _ in range(m)]
            series_calls.clear()
            boxtimes_cumulants(ps, 6)
            assert sorted(series_calls) == ["exp"] * m + ["log"] * (m + 1)

    def test_unknown_method_refused_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cumulants, "cumulants_from_atilde",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="unknown method 'brute'"):
            boxtimes_cumulants([laguerre_hat(4, 1)] * 2, 3, method="brute")
        assert calls == []

    def test_join_sum_cap(self):
        ps = [laguerre_hat(8, 1)] * 2
        with pytest.raises(CapExceededError, match="size 7 exceeds the cap 6"):
            boxtimes_cumulants(ps, 7, method="join-sum")

    def test_laguerre_power_kappa2_formula(self):
        for d in range(2, 7):
            p = laguerre_hat(d, 1)
            for m in range(1, 6):
                q = boxtimes_pow(p, m)
                k2 = finite_cumulants(q)[2]
                assert k2 == d * (1 - Fraction(d - 1, d) ** m)
        assert finite_cumulants(boxtimes_pow(laguerre_hat(2, 1), 2))[2] == Fraction(3, 2)

    def test_laguerre_power_kappa3_formula(self):
        for d in range(3, 7):
            p = laguerre_hat(d, 1)
            for m in range(1, 6):
                q = boxtimes_pow(p, m)
                k3 = finite_cumulants(q)[3]
                u = Fraction(d - 1, d) ** m
                v = Fraction(d - 2, d) ** m
                assert k3 == d ** 2 * (1 - Fraction(3, 2) * u + Fraction(1, 2) * u * v)


class TestSpecialFamilies:
    def test_laguerre_hat_atilde(self):
        p = laguerre_hat(2, 1)
        assert normalized_coeffs(p) == (1, 1, Fraction(1, 2))

    def test_hermite_at_zero_time(self):
        d = 4
        p = hermite_unitary(d, 0)
        target = MonicPoly.from_roots([Fraction(1)] * d)
        for a, b in zip(p.coeffs, target.coeffs):
            assert float(a) == float(b)  # exp(0) is exactly 1, no rounding

    def test_laguerre_unitary_at_zero(self):
        d = 5
        assert laguerre_unitary(d, 0).coeffs == MonicPoly.from_roots([Fraction(1)] * d).coeffs

    def test_exp_poly_atilde_values(self):
        d, t = 3, 2.0
        at = normalized_coeffs(exp_poly(d, t), digits=50)
        with mp.workdps(50):
            for k in range(d + 1):
                assert abs(at[k] - mp.exp(mp.mpf(t) * k * (d - k) / (2 * d))) < mp.mpf("1e-45")

    def test_mpf_families_keep_one_scalar_kind(self):
        # atilde_0 of an mpf polynomial is mpf 1, not the float 1.0 that
        # common_kind refuses next to mpf entries
        p = hermite_unitary(6, 1)
        at = normalized_coeffs(p)
        assert all(isinstance(a, mp.mpf) for a in at)
        assert finite_cumulants(p).values == tuple(cumulants_from_atilde(6, at, 6))
        e, h = exp_poly(50, 1), hermite_unitary(50, 0.5)
        ks = [cumulants_from_atilde(50, normalized_coeffs(q), 4) for q in (boxplus(e, h), e, h)]
        with mp.workdps(50):
            for n in range(4):
                assert abs(ks[0][n] - ks[1][n] - ks[2][n]) < mp.mpf("1e-35") * abs(ks[0][n])

    def test_rational_time_matches_binary64_time(self):
        # t = 1/2 is exactly the float 0.5, so both give the same mpf values
        for family in (hermite_unitary, exp_poly):
            assert family(6, Fraction(1, 2)).coeffs == family(6, 0.5).coeffs

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            laguerre_hat(3, 0)
        with pytest.raises(ValueError):
            hermite_unitary(3, -1)
        with pytest.raises(ValueError):
            laguerre_unitary(3, -2)

    def test_non_finite_parameters_refused(self):
        for bad in (math.nan, math.inf, -math.inf, mp.inf):
            for family in (hermite_unitary, exp_poly):
                with pytest.raises(ValueError, match="finite t"):
                    family(4, bad)
            with pytest.raises(ValueError, match="lam"):
                laguerre_hat(4, bad)

    def test_laguerre_unitary_needs_an_int_power(self):
        for bad in (2.5, 2.0, Fraction(2), True, -1):
            with pytest.raises(ValueError, match="int m"):
                laguerre_unitary(4, bad)
        assert normalized_coeffs(laguerre_unitary(4, 2)) == (1, Fraction(1, 4), 0, Fraction(1, 4), 1)


def _ulp(x):
    """The unit in the last place of the mpf x at the ambient precision."""
    return mp.ldexp(1, mp.frexp(x)[1] - mp.mp.prec)


class TestFamilyColumns:
    def test_laguerre_column_equals_falling_factorial(self):
        for lam in (1, Fraction(1, 2), Fraction(7, 3), 5):
            for d in range(1, 41):
                col = laguerre_hat_atilde(d, lam, d)
                assert col == [laguerre_hat_falling(d, lam, k) for k in range(d + 1)]
                assert all(type(a) is Fraction for a in col)

    def test_laguerre_hat_bits_pinned(self):
        # sha256 of str() of each exact coefficient, taken from the per-k
        # falling-factorial build
        def digest(p):
            return hashlib.sha256(repr([str(c) for c in p.coeffs]).encode()).hexdigest()

        assert digest(laguerre_hat(200, 1)) == (
            "b4c4c149b796b06be4d95184088b2c24304e3aebc6305587b8ba4eb4dc71c5c8")
        assert digest(laguerre_hat(200, Fraction(3, 2))) == (
            "4bea0b05a6a19154c9181660801bf8df16c3446ccf0086d71ba69ae26e960bbc")

    def test_binary64_laguerre_past_the_factorial_range(self):
        # (d lam)_d overflows binary64 at d = 200; the ratios stay near lam
        exact = laguerre_hat(200, 1).coeffs
        for got, want in zip(laguerre_hat(200, 1.0).coeffs, exact):
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_laguerre_800_is_linear_work(self):
        start = time.perf_counter()
        laguerre_hat(800, 1)
        assert time.perf_counter() - start < 0.5  # 1.2 s with a falling factorial per k

    def test_exp_columns_within_one_ulp(self):
        # each entry against one exp at three times the digits
        for digits in (50, 130):
            for d in (20, 200, 1000):
                for t in (0.5, 1, 2):
                    cols = {sign: atilde(d, t, d, digits) for sign, atilde in
                            ((-1, hermite_unitary_atilde), (1, exp_poly_atilde))}
                    with mp.workdps(digits):
                        for sign, col in cols.items():
                            for k, got in enumerate(col):
                                ref = exp_family_per_k(d, t, sign, k, 3 * digits)
                                assert abs(got - ref) <= _ulp(got), (digits, d, t, sign, k)
        for atilde in (hermite_unitary_atilde, exp_poly_atilde):
            assert atilde(200, 0, 200) == [1] * 201

    def test_two_exps_per_column(self, monkeypatch):
        calls = []
        exp = mp.exp
        monkeypatch.setattr(mp, "exp", lambda x: calls.append(x) or exp(x))
        for family in (hermite_unitary, exp_poly):
            calls.clear()
            family(200, 1)
            assert len(calls) <= 2  # d + 1 = 201 with one exp per entry
