import cmath
import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from finfree import polycalc
from finfree.cumulants import exp_poly, hermite_unitary, laguerre_hat
from finfree.polycalc import (
    BoxtimesLimit,
    MonicPoly,
    boxplus,
    boxtimes,
    boxtimes_limit_class,
    boxtimes_limit_poly,
    boxtimes_pow,
    dilate,
    empirical_moments,
    from_normalized,
    newton_maclaurin_check,
    normalized_coeffs,
    poly_from_json,
    poly_to_json,
    roots_of,
)

from .oracles import boxplus_literal, newton_power_sums


def rational_poly(rng, d):
    """Random monic polynomial with rational coefficients."""
    coeffs = [1] + [
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(d)
    ]
    return MonicPoly.from_coeffs(coeffs)


def rational_rooted(rng, d, lo=-4, hi=4):
    roots = [Fraction(rng.randint(lo * 2, hi * 2), 2) for _ in range(d)]
    return MonicPoly.from_roots(roots)


def _sequential_product(roots, one):
    """prod (x - lam), one linear factor at a time, a_0 first."""
    coeffs = [one]
    for lam in roots:
        coeffs = [a - lam * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


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
        rng = random.Random(15)
        for d in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
            ints = [rng.randint(-5, 5) for _ in range(d)]
            fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)]
            repeated = [Fraction(1, 3)] * (d // 2) + [-2] * (d - d // 2)
            for roots in (ints, fracs, repeated):
                got = MonicPoly.from_roots(roots).coeffs
                want = _sequential_product(roots, Fraction(1))
                assert got == want
                assert [type(c) for c in got] == [Fraction] * (d + 1)

    def test_from_roots_mpf_accuracy_under_cancellation(self):
        rng = random.Random(63)
        for d in (63, 64, 200):
            roots = [rng.uniform(-2, 2) for _ in range(d)]
            # binary64 values are dyadic: r = n / scale exactly, so the exact
            # coefficients e_k are the int ones of prod (x - n), over scale^k
            scale = max(Fraction(r).denominator for r in roots)
            ns = [int(Fraction(r) * scale) for r in roots]
            exact = _sequential_product(ns, 1)
            bound = _sequential_product([-abs(n) for n in ns], 1)  # prod (x + |n|)
            for digits in (30, 50):
                with mp.workdps(digits):
                    mroots = [mp.mpf(r) for r in roots]
                got = MonicPoly.from_roots(mroots, digits=digits).coeffs
                tol = Fraction(10) ** (5 - digits)
                for k, (c, e, b) in enumerate(zip(got, exact, bound)):
                    man, exp2 = c.man_exp  # |c| = man * 2^exp2, exactly
                    scaled = (-1 if c < 0 else 1) * man * Fraction(2) ** exp2 * scale ** k
                    assert abs(scaled - e) <= tol * b

    def test_from_roots_bits_pinned(self):
        # sha256 of the coefficients' (sign, man, exp, bc) tuples, and of the
        # binary64 coefficients' hex, taken from one dot per coefficient
        def mpf_bits(coeffs):
            tuples = [tuple(int(v) for v in c._mpf_) for c in coeffs]
            return hashlib.sha256(repr(tuples).encode()).hexdigest()

        rng = random.Random(400)
        with mp.workdps(50):
            narrow = [mp.mpf(rng.uniform(0.05, 1)) for _ in range(400)]
        rng = random.Random(401)
        with mp.workdps(50):
            wide = [mp.mpf(10) ** rng.uniform(-30, 30) for _ in range(400)]
        rng = random.Random(402)
        f64 = [rng.uniform(-2, 2) for _ in range(400)]
        assert mpf_bits(MonicPoly.from_roots(narrow).coeffs) == (
            "f3bbbd5a1e8aff577172b82812af524eef2c5a60b9e4c3c5aedfa1a3551336b7")
        assert mpf_bits(MonicPoly.from_roots(wide).coeffs) == (
            "a9bbb4deea89b51243d77d83cfb106b246ad300680d60797fa33778c9812ccd4")
        f64_hex = repr([c.hex() for c in MonicPoly.from_roots(f64).coeffs])
        assert hashlib.sha256(f64_hex.encode()).hexdigest() == (
            "8459f5ae92af31b831798090bb4a64e4d3a5ac312d25d58304fbe0242a170bb9")

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

    def test_angles_expanded_once_in_their_kind(self):
        def literal(units):
            """prod (z - u), one factor at a time, a_0 first."""
            coeffs = [units[0] ** 0]
            for u in units:
                coeffs = [a - u * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            return tuple(coeffs)

        p = MonicPoly.from_angles([0.3, -1.1, 2.5, -3.0])
        assert p.coeffs == literal([cmath.exp(1j * a) for a in p.angles])
        assert all(isinstance(c, complex) for c in p.coeffs)
        q = MonicPoly.from_angles(["0.3", "-1.1", "2.5", "-3"], digits=40)
        with mp.workdps(40):
            assert q.angles == tuple(mp.mpf(a) for a in ("0.3", "-1.1", "2.5", "-3"))
            want = literal([mp.exp(1j * a) for a in q.angles])
        assert q.coeffs == want
        assert all(isinstance(c, mp.mpc) for c in q.coeffs)

    def test_degree_is_len_coeffs_minus_one(self):
        with mp.workdps(30):
            mroots = [mp.mpf(1) / 3, mp.mpf(2)]
        polys = [
            MonicPoly.from_coeffs([1, Fraction(-3, 2), 2]),
            MonicPoly.from_roots([1, 2, 3]),
            MonicPoly.from_roots([0.5, 2.0]),
            MonicPoly.from_roots(mroots, digits=30),
            MonicPoly.from_angles([0.5, -0.5, 1.0]),
            MonicPoly.from_angles([0.5], digits=40),
            from_normalized([1, Fraction(1, 2), Fraction(1, 3)]),
            dilate(MonicPoly.from_roots([1, 3]), 2),
        ]
        for p in polys:
            assert p.degree == len(p.coeffs) - 1 >= 1
        assert [p.degree for p in polys] == [2, 3, 2, 2, 3, 1, 2, 2]

    def test_degree_zero_and_non_monic_rejected(self):
        for bad in ([], [1], [2, 1], [1.5, 1.0]):
            with pytest.raises(ValueError):
                MonicPoly.from_coeffs(bad)
        for make in (MonicPoly.from_roots, MonicPoly.from_angles):
            with pytest.raises(ValueError):
                make([])
        for bad in ([], [1]):
            with pytest.raises(ValueError):
                from_normalized(bad)


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

    def test_mpf_data_scaled_at_its_precision(self):
        # an exact factor must not drop 50-digit data to mpmath's ambient 15
        c = Fraction(1, 3)
        cases = [(hermite_unitary(6, 1), "coeffs")]
        with mp.workdps(50):
            rooted = MonicPoly.from_roots([mp.mpf(k) / 7 for k in (1, 2, -3, 5)])
        cases.append((rooted, "coeffs"))
        cases.append((rooted, "roots"))
        for p, field in cases:
            got = getattr(dilate(p, c), field)
            with mp.workdps(60):
                for i, (a, b) in enumerate(zip(getattr(p, field), got)):
                    expect = a * (mp.mpf(1) / 3) ** (i if field == "coeffs" else 1)
                    assert abs(b - expect) <= mp.mpf("1e-45") * abs(expect)


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

    def test_matches_literal_sum_exact_and_bit_for_bit(self):
        rng = random.Random(1790)
        for d in (3, 10, 25):
            exact = [MonicPoly.from_coeffs([1] + [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                                                  for _ in range(d)]) for _ in range(2)]
            real = [MonicPoly.from_roots([rng.uniform(-2, 2) for _ in range(d)]) for _ in range(2)]
            cplx = [MonicPoly.from_roots([complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                                          for _ in range(d)]) for _ in range(2)]
            with mp.workdps(50):
                mpf = [MonicPoly.from_roots([mp.mpf(rng.uniform(-2, 2)) / 3 for _ in range(d)])
                       for _ in range(2)]
            for p, q in (exact, real, cplx, mpf):
                with mp.workdps(50):  # boxplus' default digits
                    want = boxplus_literal(normalized_coeffs(p), normalized_coeffs(q))
                assert boxplus(p, q).coeffs == from_normalized(want).coeffs

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

    def test_digits_below_six_refused(self):
        # the tolerance 10^-(digits-5) would be met by the starting points
        p = MonicPoly.from_coeffs([1, -4, 2])
        for digits in (3, 5):
            with pytest.raises(ValueError, match="digits >= 6"):
                roots_of(p, digits=digits)

    def test_triple_root_cluster(self):
        p = MonicPoly.from_coeffs([1, -3, 3, -1])  # (x-1)^3
        for digits in (None, 30):  # at 30 digits, from clustered binary64 seeds
            for z in roots_of(p, digits=digits):
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
        p = laguerre_hat(20, 1)
        zs = roots_of(p, digits=30)
        assert len(zs) == 20
        with mp.workdps(30):
            # root power sum 1 against Newton's identity: sum of roots = -a_1
            assert abs(mp.fsum(zs) + p.coeffs[1]) < mp.mpf("1e-20")
        # exact and mpf coefficients, seeded from their binary64 roots: power
        # sums p_1..p_4 against the coefficient route
        for q in (p, hermite_unitary(20, 1.0), exp_poly(20, 1.0)):
            zs = roots_of(q, digits=30)
            with mp.workdps(30):
                for k, m in enumerate(empirical_moments(q, 4, digits=30), start=1):
                    got = mp.fsum(z ** k for z in zs) / 20
                    assert abs(got - m) <= mp.mpf("1e-20") * max(1, abs(m)), k

    def test_mp_path_past_binary64_range(self):
        # a_3 = 6e600 overflows binary64, so the mp iteration starts from the circle
        want = [-2 * 10 ** 200, 10 ** 200, 3 * 10 ** 200]
        p = MonicPoly.from_roots(want)
        got = sorted((z.real for z in roots_of(p, digits=30)), key=float)
        for a, b in zip(got, want):
            assert abs(a - b) <= mp.mpf("1e-20") * abs(b)

    def test_zero_roots_stripped(self):
        p = MonicPoly.from_coeffs([1, -3, 0, 0])  # x^3 - 3x^2
        got = sorted(z.real for z in roots_of(p))
        assert got == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)

    def test_nonconvergence_carries_best_residual(self):
        from finfree.errors import RootConvergenceError

        p = MonicPoly.from_coeffs([1, -4, 2])
        for digits in (None, 30):  # max_iter bounds both rungs at 30 digits
            with pytest.raises(RootConvergenceError) as exc:
                roots_of(p, digits=digits, max_iter=1)
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

    def test_exact_coefficients_past_binary64_range(self):
        # atilde_3 = 1e600 and 1e359 do not fit in binary64; their roots do
        rep = newton_maclaurin_check(MonicPoly.from_roots([Fraction(10 ** 200)] * 3))
        assert rep.newton_holds and rep.maclaurin_holds and rep.all_roots_equal
        assert rep.maclaurin_chain == (1e200, 1e200, 1e200)
        rep = newton_maclaurin_check(MonicPoly.from_roots([10 ** 120, 10 ** 120, 10 ** 119]))
        assert rep.maclaurin_holds and not rep.all_roots_equal
        # roots past binary64 read inf in the chain, and the steps are decided exactly
        rep = newton_maclaurin_check(MonicPoly.from_roots([10 ** 400] * 3))
        assert rep.maclaurin_holds and rep.maclaurin_chain == (math.inf,) * 3
        p = from_normalized([1, 10 ** 400, 10 ** 800, 10 ** 1201])
        assert not newton_maclaurin_check(p).maclaurin_holds

    def test_zero_roots_trailing_atilde(self):
        p = MonicPoly.from_roots([0, 0, 1, 2])
        rep = newton_maclaurin_check(p)
        at = normalized_coeffs(p)
        assert rep.trailing_zeros == 2
        assert at[-1] == 0 and at[-2] == 0
        assert rep.maclaurin_holds

    def test_real_polynomial_in_complex_storage(self):
        # conjugate roots give complex coefficients with imaginary parts 0:
        # read as real, the same report as on the real coefficients
        real = from_normalized([1, Fraction(4, 3), 2, 4])
        want = newton_maclaurin_check(real)
        rep = newton_maclaurin_check(MonicPoly.from_roots([1 + 1j, 1 - 1j, 2.0]))
        assert (rep.newton_holds, rep.maclaurin_holds) == (want.newton_holds, want.maclaurin_holds)
        assert rep.newton_margins == pytest.approx([float(m) for m in want.newton_margins])
        with mp.workdps(30):
            p = MonicPoly.from_roots([mp.mpc(1, 1), mp.mpc(1, -1), mp.mpf(2)])
        rep = newton_maclaurin_check(p, digits=30)
        assert all(type(m) is mp.mpf for m in rep.newton_margins)
        assert not rep.newton_holds and rep.newton_margins[0] < 0
        for roots in ([1 + 1j, 2.0], [mp.mpc(1, 1), mp.mpf(2)]):
            with pytest.raises(ValueError, match="atilde_1"):
                newton_maclaurin_check(MonicPoly.from_roots(roots))


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
        m = empirical_moments(p, 2)
        assert m[0] == pytest.approx(math.cos(0.3))
        assert m[1] == pytest.approx(math.cos(0.6))
        q = MonicPoly.from_angles(["0.3", "-0.3"], digits=40)
        with mp.workdps(40):
            assert abs(empirical_moments(q, 1, digits=40)[0] - mp.cos(mp.mpf("0.3"))) < 1e-38

    def test_int_roots_stay_exact(self):
        m = empirical_moments(MonicPoly.from_roots([1, 2]), 2)
        assert m == [Fraction(3, 2), Fraction(5, 2)]
        assert all(isinstance(v, Fraction) for v in m)

    def test_exact_coefficients_give_newton_values(self):
        assert empirical_moments(laguerre_hat(6, 1), 3) == [1, Fraction(11, 6), Fraction(73, 18)]
        rng = random.Random(31)
        for d in (1, 2, 5, 9):
            p = rational_poly(rng, d)
            for N in (1, d, d + 3):
                want = [s / d for s in newton_power_sums(p.coeffs, N)]
                got = empirical_moments(p, N)
                assert got == want and all(isinstance(v, Fraction) for v in got)

    def test_mpf_coefficients_agree_with_newton(self):
        # hermite_unitary(50, 1) has its roots on the unit circle, where
        # binary64 root finding at this degree returned wrong moments
        d, N, digits = 50, 4, 50
        p = hermite_unitary(d, 1.0)
        got = empirical_moments(p, N)
        with mp.workdps(2 * digits):
            want = [s / d for s in newton_power_sums(p.coeffs, N)]
            tol = mp.mpf(10) ** -(digits - mp.log10(math.comb(d, N)) - 5)
            assert all(isinstance(v, mp.mpf) for v in got)
            assert all(abs(g - w) <= tol for g, w in zip(got, want))
        assert abs(got[3] - mp.mpf("0.0453099284")) < 1e-10

    def test_coefficients_need_no_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("roots_of called")

        monkeypatch.setattr(polycalc, "roots_of", refuse)
        for p in (laguerre_hat(20, 1), hermite_unitary(20, 1.0),
                  MonicPoly.from_coeffs([1, -1.5, 0.5])):
            empirical_moments(p, 4)
            empirical_moments(p, 4, digits=30)


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

    def test_to_json_writes_angles_else_coeffs(self):
        with mp.workdps(30):
            mroots = [mp.mpf(1) / 3, mp.mpf(2)]
        mpc_poly = MonicPoly.from_coeffs(MonicPoly.from_angles(["0.3", "-1.1"], digits=30).coeffs)
        cases = [
            (MonicPoly.from_coeffs([1, Fraction(-3, 2), 2]),
             {"degree": 2, "coeffs": [1, "-3/2", 2]}),
            (MonicPoly.from_roots([1, Fraction(1, 2)]),
             {"degree": 2, "coeffs": [1, "-3/2", "1/2"]}),
            (MonicPoly.from_roots([0.5, 2.0]), {"degree": 2, "coeffs": [1.0, -2.5, 1.0]}),
            (MonicPoly.from_roots(mroots, digits=30),
             {"degree": 2, "coeffs": ["1.0", "-2.3333333333333333", "0.66666666666666667"]}),
            (dilate(MonicPoly.from_roots([1, 3]), 2), {"degree": 2, "coeffs": [1, -8, 12]}),
            (MonicPoly.from_angles([0.5, -0.5]), {"degree": 2, "angles": [0.5, -0.5]}),
            (MonicPoly.from_angles([0.5, -0.25], digits=40),
             {"degree": 2, "angles": [0.5, -0.25]}),
            (mpc_poly, {"degree": 2, "coeffs": ["1+0j", "-1.4089326105511835+0.5956871534000958j",
                                                "0.6967067093471654-0.7173560908995228j"]}),
        ]
        for p, want in cases:
            assert poly_to_json(p) == want
        # an mpc coefficient is written as the binary64 complex that reads back
        back = poly_from_json(poly_to_json(mpc_poly))
        assert back.coeffs == tuple(complex(c) for c in mpc_poly.coeffs)

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": [2, 1]})
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": [1, 0], "roots": [0]})
        with pytest.raises(ValueError):
            poly_from_json({"degree": 3, "coeffs": [1, 0]})
        with pytest.raises(ValueError):
            poly_from_json({"what": 1})

    def test_non_finite_literals_refused_and_printed_never(self):
        for field in ("coeffs", "roots", "angles"):
            for v in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{field}: non-finite"):
                    poly_from_json({field: [1, v]})
        p = MonicPoly.from_roots([1e200, 1e200])
        with pytest.raises(OverflowError, match="exact strings"):
            poly_to_json(p)
        assert poly_to_json(poly_from_json({"roots": ["1e200", "1e200"]}))["coeffs"][2] == 10 ** 400


class TestKindDiscipline:
    def test_mixed_kinds_rejected(self):
        p = MonicPoly.from_coeffs([1, Fraction(1, 2), Fraction(1)])
        q = MonicPoly.from_coeffs((1, mp.mpf("0.5"), mp.mpf(1)))
        with pytest.raises(TypeError, match="mixed scalar kinds"):
            boxplus(p, q)
