import random
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
    finite_cumulants,
    hermite_unitary,
    laguerre_hat,
    laguerre_unitary,
)
from finfree.polycalc import (
    MonicPoly,
    boxplus,
    boxtimes_pow,
    dilate,
    normalized_coeffs,
)

from .oracles import cumulants_literal


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

    def test_requires_n_le_d(self):
        with pytest.raises(ValueError):
            cumulants_from_atilde(2, (1, 1, 1, 1), 3)

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

    def test_join_sum_cap(self):
        ps = [laguerre_hat(8, 1)] * 2
        with pytest.raises(ValueError):
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
