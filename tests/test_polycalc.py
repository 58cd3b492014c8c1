import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from finfree.polycalc import (
    BoxtimesLimit,
    EmpiricalDistribution,
    MonicPoly,
    boxplus,
    boxplus_fold,
    boxtimes,
    boxtimes_limit_class,
    boxtimes_limit_poly,
    boxtimes_pow,
    dilate,
    empirical_moments,
    from_normalized,
    newton_maclaurin_check,
    normalized_coeffs,
    phi_alpha,
    phi_c_unitary,
    poly_from_json,
    poly_to_json,
    roots_of,
)


def rational_poly(rng, d):
    """Random monic polynomial with rational coefficients."""
    coeffs = [1] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)
    ]
    return MonicPoly.from_coeffs(coeffs)


def rational_rooted(rng, d, lo=-4, hi=4):
    roots = [Fraction(rng.randint(lo * 2, hi * 2), 2) for _ in range(d)]
    return MonicPoly.from_roots(roots)


class TestRepresentation:
    def test_from_coeffs_validates_monic(self):
        with pytest.raises(ValueError):
            MonicPoly.from_coeffs([2, 1])

    def test_from_roots_complex_binary64(self):
        p = MonicPoly.from_coeffs([1.0, -3.0, 3.25, -2.5])  # roots 0.5 +- 1j and 2
        for roots in ([0.5 + 1j, 0.5 - 1j, 2.0], roots_of(p)):
            q = MonicPoly.from_roots(roots)
            assert all(abs(a - b) < 1e-12 for a, b in zip(q.coeffs, p.coeffs))

    def test_from_roots_exact_expansion(self):
        p = MonicPoly.from_roots([1, 2, 3])
        assert p.coeffs == (1, -6, 11, -6)

    def test_normalized_roundtrip_exact(self):
        rng = random.Random(11)
        for d in range(1, 9):
            p = rational_poly(rng, d)
            at = normalized_coeffs(p)
            q = from_normalized(at)
            assert q.coeffs == p.coeffs

    def test_normalized_examples(self):
        d = 5
        p = MonicPoly.from_roots([1] * d)
        assert normalized_coeffs(p) == tuple(Fraction(1) for _ in range(d + 1))
        q = MonicPoly.from_coeffs([1, -d] + [0] * (d - 1))
        at = normalized_coeffs(q)
        assert at[0] == 1 and at[1] == 1
        assert all(a == 0 for a in at[2:])
        r = MonicPoly.from_coeffs([1, -4, 2])
        assert normalized_coeffs(r) == (1, 2, 2)

    def test_from_normalized_requires_unit_head(self):
        with pytest.raises(ValueError):
            from_normalized([Fraction(2), Fraction(1)])

    def test_angles_validation(self):
        with pytest.raises(ValueError):
            MonicPoly.from_angles([3.5])
        p = MonicPoly.from_angles([0.0, -1.0, 1.0])
        assert p.degree == 3


class TestDilate:
    def test_identity(self):
        p = MonicPoly.from_coeffs([1, Fraction(-3, 2), 2])
        assert dilate(p, 1).coeffs == p.coeffs

    def test_shift_scale(self):
        p = MonicPoly.from_roots([1])
        assert dilate(p, 2).coeffs == (1, -2)
        q = MonicPoly.from_coeffs([1, -4, 2])
        assert dilate(q, Fraction(1, 2)).coeffs == (1, -2, Fraction(1, 2))

    def test_atilde_scaling_law(self):
        rng = random.Random(3)
        p = rational_poly(rng, 5)
        c = Fraction(3, 2)
        at = normalized_coeffs(p)
        at_d = normalized_coeffs(dilate(p, c))
        for i in range(6):
            assert at_d[i] == c ** i * at[i]

    def test_composition(self):
        rng = random.Random(4)
        p = rational_poly(rng, 4)
        a, b = Fraction(2, 3), Fraction(-5, 2)
        assert dilate(dilate(p, a), b).coeffs == dilate(p, a * b).coeffs

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dilate(MonicPoly.from_roots([1]), 0)


class TestPhiMaps:
    def test_alpha_one_is_identity(self):
        p = MonicPoly.from_roots([Fraction(1, 2), 3])
        assert phi_alpha(p, 1) is p

    def test_square_roots(self):
        p = MonicPoly.from_roots([4, 9])
        q = phi_alpha(p, 0.5)
        assert sorted(q.roots) == [2.0, 3.0]
        assert q.coeffs == (1.0, -5.0, 6.0)

    def test_zero_root_convention(self):
        p = MonicPoly.from_roots([0, 4])
        q = phi_alpha(p, 0.5)
        assert sorted(q.roots) == [0.0, 2.0]

    def test_needs_roots(self):
        p = MonicPoly.from_coeffs([1, -2, 1])
        with pytest.raises(ValueError, match="roots"):
            phi_alpha(p, 0.5)

    def test_rejects_negative_roots(self):
        p = MonicPoly.from_roots([-1, 2])
        with pytest.raises(ValueError):
            phi_alpha(p, 0.5)

    def test_digits_on_rational_roots(self):
        p = MonicPoly.from_roots([Fraction(1, 4), 9, 0])
        q = phi_alpha(p, Fraction(1, 2), digits=30)
        assert all(isinstance(r, mp.mpf) for r in q.roots)
        assert q.roots == (mp.mpf("0.5"), mp.mpf(3), mp.mpf(0))

    def test_unitary_contraction(self):
        p = MonicPoly.from_angles([1.0, -0.5])
        q = phi_c_unitary(p, 0.5)
        assert q.angles == (0.5, -0.25)
        with pytest.raises(ValueError):
            phi_c_unitary(p, 1.5)
        with pytest.raises(ValueError):
            phi_c_unitary(MonicPoly.from_roots([1.0]), 0.5)


class TestBoxplus:
    def test_additive_identity(self):
        rng = random.Random(8)
        for d in (2, 4):
            p = rational_poly(rng, d)
            xd = MonicPoly.from_coeffs([1] + [0] * d)
            assert boxplus(p, xd).coeffs == p.coeffs

    def test_worked_example(self):
        p = MonicPoly.from_coeffs([1, -2, 0])
        s = boxplus(p, p)
        assert s.coeffs == (1, -4, 2)
        roots = sorted(r.real for r in roots_of(s))
        assert roots == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)])

    def test_commutative_associative(self):
        rng = random.Random(21)
        for _ in range(10):
            d = rng.randint(1, 6)
            p, q, r = (rational_poly(rng, d) for _ in range(3))
            assert boxplus(p, q).coeffs == boxplus(q, p).coeffs
            assert (
                boxplus(boxplus(p, q), r).coeffs == boxplus(p, boxplus(q, r)).coeffs
            )

    def test_real_rootedness_preserved_numerically(self):
        rng = random.Random(31)
        for d in (5, 12, 20):
            p = rational_rooted(rng, d)
            q = rational_rooted(rng, d)
            s = boxplus(p, q)
            for z in roots_of(s):
                assert abs(z.imag) <= 1e-8


class TestBoxtimes:
    def test_multiplicative_identity(self):
        rng = random.Random(9)
        p = rational_poly(rng, 4)
        ones = MonicPoly.from_roots([1, 1, 1, 1])
        assert boxtimes(p, ones).coeffs == p.coeffs

    def test_atilde_multiplicativity(self):
        rng = random.Random(10)
        for _ in range(10):
            d = rng.randint(1, 6)
            p, q = rational_poly(rng, d), rational_poly(rng, d)
            ap, aq = normalized_coeffs(p), normalized_coeffs(q)
            at = normalized_coeffs(boxtimes(p, q))
            assert at == tuple(a * b for a, b in zip(ap, aq))

    def test_laguerre_square(self):
        from finfree.cumulants import laguerre_hat

        p = laguerre_hat(2, 1)
        assert normalized_coeffs(p) == (1, 1, Fraction(1, 2))
        sq = boxtimes(p, p)
        assert normalized_coeffs(sq) == (1, 1, Fraction(1, 4))

    def test_pow_matches_folds(self):
        rng = random.Random(13)
        for _ in range(6):
            d = rng.randint(1, 6)
            m = rng.randint(1, 5)
            p = rational_poly(rng, d)
            folded = p
            for _ in range(m - 1):
                folded = boxtimes(folded, p)
            assert boxtimes_pow(p, m).coeffs == folded.coeffs
        assert boxtimes_pow(p, 1).coeffs == p.coeffs

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            boxtimes(MonicPoly.from_roots([1]), MonicPoly.from_roots([1, 2]))


class TestLimitClassification:
    def test_all_branches(self):
        d = 4
        assert (
            boxtimes_limit_class(MonicPoly.from_roots([Fraction(1, 2)] * d))
            is BoxtimesLimit.ALL_ZERO
        )
        p_atom = MonicPoly.from_roots([0, 2] + [Fraction(1)] * (d - 2))
        # atilde_1 = mean root = 1, atilde_2 < 1
        assert boxtimes_limit_class(p_atom) is BoxtimesLimit.ZERO_WITH_ATOM
        assert (
            boxtimes_limit_class(MonicPoly.from_roots([Fraction(1)] * d))
            is BoxtimesLimit.DELTA_ONE
        )
        assert (
            boxtimes_limit_class(MonicPoly.from_roots([2] + [Fraction(1)] * (d - 1)))
            is BoxtimesLimit.DIVERGENT
        )

    def test_x2_minus_2x(self):
        p = MonicPoly.from_coeffs([1, -2, 0])
        assert boxtimes_limit_class(p) is BoxtimesLimit.ZERO_WITH_ATOM

    def test_power_converges_to_classified_limit(self):
        d = 3
        for p in (
            MonicPoly.from_roots([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
            MonicPoly.from_roots([0, Fraction(3, 2), Fraction(3, 2)]),
            MonicPoly.from_roots([Fraction(1)] * 3),
        ):
            cls = boxtimes_limit_class(p)
            target = normalized_coeffs(boxtimes_limit_poly(cls, d))
            at = normalized_coeffs(boxtimes_pow(p, 1000))
            for a, b in zip(at, target):
                assert abs(float(a - b)) <= 1e-8

    def test_limit_poly_shapes(self):
        assert boxtimes_limit_poly(BoxtimesLimit.ALL_ZERO, 3).coeffs == (1, 0, 0, 0)
        assert boxtimes_limit_poly(BoxtimesLimit.ZERO_WITH_ATOM, 3).coeffs == (1, -3, 0, 0)
        assert boxtimes_limit_poly(BoxtimesLimit.DELTA_ONE, 2).coeffs == (1, -2, 1)
        with pytest.raises(ValueError):
            boxtimes_limit_poly(BoxtimesLimit.DIVERGENT, 2)


class TestRoots:
    def test_quadratic(self):
        p = MonicPoly.from_coeffs([1, -4, 2])
        got = sorted(z.real for z in roots_of(p))
        assert got == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], abs=1e-12)

    def test_triple_root_cluster(self):
        p = MonicPoly.from_coeffs([1, -3, 3, -1])  # (x-1)^3
        for z in roots_of(p):
            assert abs(z - 1) <= 1e-4

    def test_unit_circle_pair(self):
        from finfree.cumulants import hermite_unitary

        p = hermite_unitary(2, 1.0)
        for z in roots_of(p, digits=30):
            assert abs(abs(z) - 1) <= 1e-10

    def test_roundtrip_well_separated_binary64(self):
        rng = random.Random(77)
        for d in (5, 12):
            roots = sorted(-2 + 4 * i / (d - 1) + rng.uniform(-0.05, 0.05) for i in range(d))
            p = MonicPoly.from_roots([float(r) for r in roots])
            got = sorted(z.real for z in roots_of(p))
            for a, b in zip(got, roots):
                assert abs(a - b) <= 1e-10 * max(1, abs(b))

    def test_roundtrip_well_separated_d50_highprec(self):
        rng = random.Random(78)
        d = 50
        with mp.workdps(30):
            roots = sorted(
                mp.mpf(-2) + 4 * mp.mpf(i) / (d - 1) + mp.mpf(rng.uniform(-0.02, 0.02))
                for i in range(d)
            )
            p = MonicPoly.from_roots(roots, digits=30)
        got = sorted((z.real for z in roots_of(p, digits=30)), key=float)
        for a, b in zip(got, roots):
            assert abs(float(a - b)) <= 1e-10 * max(1, abs(float(b)))

    def test_mp_path_on_exact_coefficients(self):
        from finfree.cumulants import laguerre_hat

        p = laguerre_hat(20, 1)
        zs = roots_of(p, digits=30)
        assert len(zs) == 20
        with mp.workdps(30):
            # root power sum 1 against Newton's identity: sum of roots = -a_1
            assert abs(mp.fsum(zs) + p.coeffs[1]) < mp.mpf("1e-20")

    def test_zero_roots_stripped(self):
        p = MonicPoly.from_coeffs([1, -3, 0, 0])  # x^3 - 3x^2
        got = sorted(z.real for z in roots_of(p))
        assert got == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)

    def test_nonconvergence_carries_best_residual(self):
        from finfree.errors import RootConvergenceError

        p = MonicPoly.from_coeffs([1, -4, 2])
        with pytest.raises(RootConvergenceError) as exc:
            roots_of(p, max_iter=1)
        assert exc.value.best_residual > 0


class TestNewtonMaclaurin:
    def test_equal_roots_all_equalities(self):
        p = MonicPoly.from_roots([Fraction(3, 2)] * 5)
        rep = newton_maclaurin_check(p)
        assert rep.newton_holds and rep.maclaurin_holds and rep.all_roots_equal

    def test_random_positive_rooted_strict(self):
        rng = random.Random(55)
        p = MonicPoly.from_roots([Fraction(rng.randint(1, 20), 3) for _ in range(5)])
        rep = newton_maclaurin_check(p)
        assert rep.newton_holds and rep.maclaurin_holds
        assert not rep.all_roots_equal
        assert all(m > 0 for m in rep.newton_margins)

    def test_equal_rational_roots(self):
        rep = newton_maclaurin_check(MonicPoly.from_roots([Fraction(1, 3)] * 3))
        assert rep.newton_holds and rep.maclaurin_holds and rep.all_roots_equal
        for d in (3, 5, 7):
            for num in range(1, 30):
                for den in range(1, 8):
                    p = MonicPoly.from_roots([Fraction(num, den)] * d)
                    rep = newton_maclaurin_check(p)
                    assert rep.maclaurin_holds and rep.all_roots_equal, (num, den, d)

    def test_chain_steps_below_binary64_resolution(self):
        # atilde = (1, 1, 1 + delta): the chain is 1 >= (1 + delta)^(1/2),
        # which holds exactly when delta <= 0
        for exponent in (30, 70):  # decided in mpf; inside the mpf tolerance
            for sign in (1, -1):
                delta = Fraction(sign, 10 ** exponent)
                rep = newton_maclaurin_check(from_normalized([1, 1, 1 + delta]))
                assert rep.maclaurin_holds == (sign < 0), (exponent, sign)

    def test_zero_roots_trailing_atilde(self):
        p = MonicPoly.from_roots([0, 0, 1, 2])
        rep = newton_maclaurin_check(p)
        at = normalized_coeffs(p)
        assert rep.trailing_zeros == 2
        assert at[-1] == 0 and at[-2] == 0
        assert rep.maclaurin_holds


class TestEmpirical:
    def test_point_mass(self):
        p = MonicPoly.from_roots([Fraction(1)] * 6)
        assert empirical_moments(p, 4) == [1, 1, 1, 1]

    def test_power_sums(self):
        p = MonicPoly.from_roots([2 - math.sqrt(2), 2 + math.sqrt(2)])
        m = empirical_moments(p, 2)
        assert m[0] == pytest.approx(2.0)
        assert m[1] == pytest.approx(6.0)

    def test_digits_on_exact_coefficients(self):
        p = MonicPoly.from_coeffs(MonicPoly.from_roots([Fraction(1, 2), 3]).coeffs)
        m = empirical_moments(p, 2, digits=30)
        with mp.workdps(30):
            assert abs(m[0] - mp.mpf(7) / 4) < mp.mpf("1e-25")
            assert abs(m[1] - mp.mpf(37) / 8) < mp.mpf("1e-25")

    def test_unitary_zeroth(self):
        p = MonicPoly.from_angles([0.3, -0.3])
        dist = EmpiricalDistribution.from_poly(p)
        assert dist.moment(0) == 1
        assert dist.moment(1) == pytest.approx(math.cos(0.3))


class TestJson:
    def test_coeffs_roundtrip(self):
        p = poly_from_json({"degree": 2, "coeffs": [1, "-3/2", 2]})
        assert p.coeffs == (1, Fraction(-3, 2), 2)
        back = poly_to_json(p)
        assert back == {"degree": 2, "coeffs": [1, "-3/2", 2]}

    def test_roots_literal(self):
        p = poly_from_json({"roots": [1, 2]})
        assert p.degree == 2 and p.coeffs == (1, -3, 2)

    def test_angles_literal(self):
        p = poly_from_json({"angles": [0.5, -0.5]})
        assert p.angles == (0.5, -0.5)

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": [2, 1]})
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": [1, 0], "roots": [0]})
        with pytest.raises(ValueError):
            poly_from_json({"degree": 3, "coeffs": [1, 0]})
        with pytest.raises(ValueError):
            poly_from_json({"what": 1})


class TestKindDiscipline:
    def test_mixed_kinds_rejected(self):
        p = MonicPoly.from_coeffs([1, Fraction(1, 2), Fraction(1)])
        q = MonicPoly.from_coeffs((1, mp.mpf("0.5"), mp.mpf(1)))
        with pytest.raises(TypeError, match="mixed scalar kinds"):
            boxplus(p, q)

    def test_boxplus_fold_matches_linear_cumulants(self):
        # k-fold additive power has k times the cumulants; checked in
        # cumulants tests, here just the fold plumbing
        p = MonicPoly.from_coeffs([1, -2, 0])
        s3 = boxplus_fold([p, p, p])
        assert s3.coeffs == boxplus(boxplus(p, p), p).coeffs
