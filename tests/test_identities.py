import math
import random
import time
from fractions import Fraction
from itertools import combinations, zip_longest

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import partitions
from finfree.errors import CapExceededError
from finfree.identities import (
    ZeroConstPoly,
    composition_identity,
    faa_di_bruno_exp,
    s_bruteforce,
    s_closed_form,
    s_mobius_route,
)
from finfree.partitions import count_R, count_S
from finfree.scalars import differences

from .oracles import faa_di_bruno_literal, s_literal

x = ZeroConstPoly.monomial
c = ZeroConstPoly.binomial_basis


def random_poly(rng, max_deg=3, min_deg=1):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg - 1)]
    coeffs.append(Fraction(rng.randint(1, 6), rng.randint(1, 4)))  # nonzero lead
    return ZeroConstPoly(coeffs)


def poly_sum(*fs):
    """The sum of zero-constant polynomials, added coefficient by coefficient."""
    return ZeroConstPoly([sum(cs) for cs in zip_longest(*(f.coeffs for f in fs), fillvalue=0)])


small_fraction = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


@st.composite
def zero_const_polys(draw, max_deg=3):
    deg = draw(st.integers(min_value=1, max_value=max_deg))
    coeffs = [draw(small_fraction) for _ in range(deg - 1)]
    lead_num = draw(st.integers(min_value=1, max_value=5))
    coeffs.append(Fraction(lead_num, draw(st.integers(min_value=1, max_value=4))))
    return ZeroConstPoly(coeffs)


class TestZeroConstPoly:
    def test_construction_and_eval(self):
        f = ZeroConstPoly([Fraction(1, 2), 0, 2])  # x/2 + 2x^3
        assert f.degree == 3
        assert f.lead == 2
        assert f(2) == 17
        assert f(Fraction(1, 2)) == Fraction(1, 2) * Fraction(1, 2) + 2 * Fraction(1, 8)

    def test_trailing_zero_lead_trimmed(self):
        f = ZeroConstPoly([1, 2, 0])
        assert f.degree == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            ZeroConstPoly([0, 0])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ZeroConstPoly([0.5, 1.0])

    def test_binomial_basis(self):
        assert c(1).coeffs == (Fraction(1),)
        assert c(2).coeffs == (Fraction(-1, 2), Fraction(1, 2))
        for m in range(1, 13):
            f = c(m)
            assert f.degree == m and f.lead == Fraction(1, math.factorial(m))
            for n in range(0, 2 * m + 1):
                assert f(n) == math.comb(n, m)


def r_value(fs, n):
    """Delta^n g(0) of g(l) = prod_i f_i(l): the n-th r-coefficient."""
    return differences([math.prod(f(l) for f in fs) for l in range(n + 1)])[n]


class TestRCoeff:
    def test_examples(self):
        assert r_value([c(2)], 2) == 1
        assert r_value([c(2)], 3) == 0
        assert r_value([x(1), x(1)], 2) == 2

    def test_vanishing_above_degree(self):
        for k in range(1, 7):
            for n in range(k + 1, 9):
                assert r_value([x(k)], n) == 0

    def test_counts_covering_tuples(self):
        # r-coefficients of binomial-basis inputs count covering tuples
        for sizes in [(1,), (2,), (2, 1), (2, 2), (1, 1, 2)]:
            for n in range(1, 7):
                assert r_value([c(m) for m in sizes], n) == count_R(n, sizes)

    def test_empty_input_rejected(self):
        for fs, n in (([], 2), ([x(1)], 0), ([x(1)], -1)):
            with pytest.raises(ValueError):
                s_mobius_route(fs, n)


class TestSBruteforce:
    def test_examples(self):
        assert s_bruteforce([c(2)], 2) == 1
        assert s_bruteforce([x(2), x(2)], 3) == 24
        for n in range(2, 7):
            assert s_bruteforce([x(1)], n) == 0

    def test_cap(self):
        with pytest.raises(CapExceededError):
            s_bruteforce([x(1)], 13)

    def test_cap_checked_before_the_tables(self):
        # ten million Fractions per polynomial would be built if the check waited
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            s_bruteforce([x(2)], 10 ** 7)
        assert time.perf_counter() - start < 1.0

    def test_oracles_refuse_before_any_partition_is_made(self, monkeypatch):
        # s_bruteforce sums by block profile, not over a walk: it refuses
        # before any table entry, one call of a polynomial, is made
        calls = []

        class Spy(ZeroConstPoly):
            def __call__(self, v):
                calls.append(v)
                return super().__call__(v)

        with pytest.raises(CapExceededError, match="size 13 exceeds the cap 12"):
            s_bruteforce([x(2), c(3)], 13)
        with pytest.raises(CapExceededError, match="size 10000000 exceeds the cap 12"):
            s_bruteforce([Spy((0, 1))], 10 ** 7)
        assert calls == []
        assert s_bruteforce([Spy((0, 1))], 2) == 2 and calls == [0, 1, 2]
        # composition_identity keeps its k-block walk: none is started
        walked = []
        monkeypatch.setattr(partitions, "_walk", lambda n: walked.append(n) or iter(()))
        for k in (1, 5, 13):
            with pytest.raises(CapExceededError, match="size 13 exceeds the cap 12"):
                composition_identity(14, k)
        assert walked == []

    def test_monomial_cube(self):
        assert s_bruteforce([x(3)], 3) == 6  # = closed form 2! * 1 * 3 * 1

    def test_matches_literal_fraction_loop(self):
        rng = random.Random(41)
        for n in range(1, 9):
            for _ in range(3):
                fs = [random_poly(rng) for _ in range(rng.randint(1, 3))]
                got = s_bruteforce(fs, n)
                assert type(got) is Fraction and got == s_literal(fs, n)


class TestClosedForm:
    def test_examples(self):
        assert s_closed_form([c(2), c(2)], 3) == 6
        assert s_closed_form([x(3)], 3) == 6
        for fs in ([c(2), c(2)], [x(3)], [x(2), x(1)]):
            M = sum(f.degree for f in fs)
            k = len(fs)
            assert s_closed_form(fs, M - (k - 1) + 1) == 0
        assert s_closed_form([c(3), c(3)], 2) is None

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(7041)
        for _ in range(20):
            k = rng.randint(1, 3)
            fs = [random_poly(rng) for _ in range(k)]
            n_crit = sum(f.degree for f in fs) - (k - 1)
            assert s_bruteforce(fs, n_crit) == s_closed_form(fs, n_crit)
            for n in range(n_crit + 1, 9):
                assert s_bruteforce(fs, n) == 0

    def test_corollary_values(self):
        # with f = C(x,2) the critical value is (n-1)! n^(k-1)
        for k in range(1, 7):
            n = k + 1
            fs = [c(2)] * k
            expect = math.factorial(n - 1) * n ** (k - 1)
            assert s_bruteforce(fs, n) == expect
            assert s_closed_form(fs, n) == expect
        # with f = x^2 an extra 2^k appears
        for k in range(1, 7):
            n = k + 1
            fs = [x(2)] * k
            expect = 2 ** k * math.factorial(n - 1) * n ** (k - 1)
            assert s_bruteforce(fs, n) == expect
            assert s_closed_form(fs, n) == expect


class TestMobiusRoute:
    def test_agrees_with_bruteforce(self):
        rng = random.Random(99)
        for k in range(1, 5):
            fs = [random_poly(rng, max_deg=2) for _ in range(k)]
            for n in range(1, 8):
                assert s_mobius_route(fs, n) == s_bruteforce(fs, n)

    def test_closed_form_past_the_brute_cap(self):
        # the brute oracle stops at n = 12; the closed form pins the critical order
        rng = random.Random(2024)
        start = time.perf_counter()
        for k in (2, 2, 3, 3, 4, 4, 4):
            min_deg = -(-(50 + k - 1) // k)  # so that the critical order is >= 50
            fs = [random_poly(rng, max_deg=30, min_deg=min_deg) for _ in range(k)]
            critical = sum(f.degree for f in fs) - (k - 1)
            assert critical >= 50
            assert s_mobius_route(fs, critical) == s_closed_form(fs, critical) != 0
            for n in range(critical + 1, critical + 4):
                assert s_mobius_route(fs, n) == 0
        assert time.perf_counter() - start < 2.0

    def test_essential_tuple_counts(self):
        # s-values of binomial-basis inputs count essential tuples
        for sizes in [(1,), (2,), (1, 1), (2, 1), (2, 2), (2, 2, 1), (2, 2, 2)]:
            for n in range(1, 7):
                expect = count_S(n, sizes)
                assert s_bruteforce([c(m) for m in sizes], n) == expect


class TestSymmetryMultilinearity:
    @settings(max_examples=30, deadline=None)
    @given(zero_const_polys(), zero_const_polys(), st.integers(min_value=1, max_value=5))
    def test_symmetry(self, f, g, n):
        base = s_bruteforce([f, g], n)
        assert s_bruteforce([g, f], n) == base

    @settings(max_examples=30, deadline=None)
    @given(zero_const_polys(max_deg=2), zero_const_polys(max_deg=2),
           zero_const_polys(max_deg=2), st.integers(min_value=1, max_value=5))
    def test_multilinearity_split(self, g, h, f2, n):
        lhs = s_bruteforce([poly_sum(g, h), f2], n)
        rhs = s_bruteforce([g, f2], n) + s_bruteforce([h, f2], n)
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(zero_const_polys(max_deg=2), st.fractions(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=5))
    def test_scalar_multiplicativity(self, f, a, n):
        if a == 0:
            return
        scaled = ZeroConstPoly([a * c for c in f.coeffs])
        assert s_bruteforce([scaled], n) == a * s_bruteforce([f], n)

    def test_polarization_reconstruction(self):
        # symmetric multilinear maps are determined by their diagonal
        rng = random.Random(12345)
        for k in (2, 3):
            fs = [random_poly(rng, max_deg=2) for _ in range(k)]
            for n in (2, 3, 4):
                direct = s_bruteforce(fs, n)
                recon = Fraction(0)
                for l in range(1, k + 1):
                    for J in combinations(range(k), l):
                        fJ = poly_sum(*(fs[j] for j in J))
                        recon += (-1) ** (k - l) * s_bruteforce([fJ] * k, n)
                recon /= math.factorial(k)
                assert recon == direct


class TestFaaDiBruno:
    def test_linear_exponent(self):
        assert faa_di_bruno_exp([Fraction(1), Fraction(0), Fraction(0)], 0, 3) == 1

    def test_square_exponent(self):
        assert faa_di_bruno_exp([Fraction(0), Fraction(2)], 0, 2) == 2

    def test_against_series_oracle(self):
        # exp(c1 z + c2 z^2): n-th derivative at 0 via truncated series power sum
        c1, c2 = Fraction(3, 2), Fraction(-2, 3)
        N = 4

        series = [Fraction(0)] * (N + 1)
        series[0] = Fraction(1)
        u = [Fraction(0), c1, c2] + [Fraction(0)] * (N - 2)
        power = [Fraction(1)] + [Fraction(0)] * N
        for j in range(1, N + 1):
            nxt = [Fraction(0)] * (N + 1)
            for a in range(N + 1):
                if power[a] == 0:
                    continue
                for b in range(N + 1 - a):
                    nxt[a + b] += power[a] * u[b]
            power = nxt
            for i in range(N + 1):
                series[i] += power[i] / math.factorial(j)

        derivs = [c1, 2 * c2, Fraction(0), Fraction(0)]
        for n in range(1, N + 1):
            expect = series[n] * math.factorial(n)
            assert faa_di_bruno_exp(derivs, 0, n) == expect

    def test_requires_enough_derivatives(self):
        with pytest.raises(ValueError):
            faa_di_bruno_exp([1], 0, 2)

    def test_matches_literal_fraction_loop(self):
        rng = random.Random(43)
        for n in range(1, 9):
            derivs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            got = faa_di_bruno_exp(derivs, 0, n)
            assert type(got) is Fraction and got == faa_di_bruno_literal(derivs, n)
            ints = [rng.randint(-5, 5) for _ in range(n)]
            got = faa_di_bruno_exp(ints, 0, n)
            assert type(got) is Fraction and got == faa_di_bruno_literal(ints, n)


    def test_mpf_worked_at_default_digits(self):
        # sum and exp(u0) both at 50 digits, whatever the ambient precision,
        # also when u0 is the exact 0
        with mp.workdps(50):
            derivs = [mp.mpf(1) / 3, mp.mpf(2) / 7, mp.mpf(1) / 11]
            half = mp.mpf(1) / 2
        for u0 in (half, 0):
            got = faa_di_bruno_exp(derivs, u0, 3)
            with mp.workdps(80):
                expect = faa_di_bruno_literal(derivs, 3) * mp.exp(u0)
                assert abs(got - expect) <= mp.mpf("1e-45") * abs(expect)


class TestCompositionIdentity:
    def test_examples(self):
        assert composition_identity(3, 1) == (1, 1)
        assert composition_identity(4, 2) == (1, 1)
        for n in range(2, 8):
            left, right = composition_identity(n, n - 1)
            assert left == right == Fraction(1, math.factorial(n - 1))

    def test_equality_up_to_n9(self):
        for n in range(2, 10):
            for k in range(1, n):
                left, right = composition_identity(n, k)
                assert left == right

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            composition_identity(4, 4)
        with pytest.raises(ValueError):
            composition_identity(4, 0)
