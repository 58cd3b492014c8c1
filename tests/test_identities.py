import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree.errors import CapExceededError
from finfree.identities import (
    NO_CLOSED_FORM,
    ZeroConstPoly,
    binomial_expand,
    composition_identity,
    faa_di_bruno_exp,
    r_coeff,
    s_bruteforce,
    s_closed_form,
    s_mobius_route,
)
from finfree.partitions import count_S

from .oracles import faa_di_bruno_literal, finite_difference_coeffs, s_literal

x = ZeroConstPoly.monomial
c = ZeroConstPoly.binomial_basis


def random_poly(rng, max_deg=3):
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg - 1)]
    coeffs.append(Fraction(rng.randint(1, 6), rng.randint(1, 4)))  # nonzero lead
    return ZeroConstPoly(coeffs)


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
        for m in range(1, 7):
            f = c(m)
            assert f.lead == Fraction(1, math.factorial(m))
            for n in range(0, 9):
                assert f(n) == math.comb(n, m)


class TestRCoeff:
    def test_examples(self):
        assert r_coeff([c(2)], 2) == 1
        assert r_coeff([c(2)], 3) == 0
        assert r_coeff([x(1), x(1)], 2) == 2

    def test_vanishing_above_degree(self):
        for k in range(1, 7):
            for n in range(k + 1, 9):
                assert r_coeff([x(k)], n) == 0

    def test_counts_covering_tuples(self):
        # r-coefficients of binomial-basis inputs count covering tuples
        from finfree.partitions import count_R

        for sizes in [(1,), (2,), (2, 1), (2, 2), (1, 1, 2)]:
            for n in range(1, 7):
                assert r_coeff([c(m) for m in sizes], n) == count_R(n, sizes)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            r_coeff([], 2)


class TestSBruteforce:
    def test_examples(self):
        assert s_bruteforce([c(2)], 2) == 1
        assert s_bruteforce([x(2), x(2)], 3) == 24
        for n in range(2, 7):
            assert s_bruteforce([x(1)], n) == 0

    def test_cap(self):
        with pytest.raises(CapExceededError):
            s_bruteforce([x(1)], 13)

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
        assert s_closed_form([c(3), c(3)], 2) is NO_CLOSED_FORM

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
        lhs = s_bruteforce([g + h, f2], n)
        rhs = s_bruteforce([g, f2], n) + s_bruteforce([h, f2], n)
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(zero_const_polys(max_deg=2), st.fractions(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=5))
    def test_scalar_multiplicativity(self, f, a, n):
        if a == 0:
            return
        assert s_bruteforce([f.scale(a)], n) == a * s_bruteforce([f], n)

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
                        fJ = fs[J[0]]
                        for j in J[1:]:
                            fJ = fJ + fs[j]
                        recon += (-1) ** (k - l) * s_bruteforce([fJ] * k, n)
                recon /= math.factorial(k)
                assert recon == direct


class TestBinomialExpand:
    def test_examples(self):
        assert binomial_expand(x(2)) == [1, 2]
        assert binomial_expand(c(3)) == [0, 0, 1]
        assert binomial_expand(x(1)) == [1]

    def test_roundtrip_and_lead(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_poly(rng, max_deg=4)
            a = binomial_expand(f)
            assert a[-1] == math.factorial(f.degree) * f.lead
            # reconstruct and compare on enough points
            g = c(1).scale(a[0])
            for j, aj in enumerate(a[1:], start=2):
                if aj != 0:
                    g = g + c(j).scale(aj)
            for t in range(0, f.degree + 2):
                assert g(t) == f(t)

    def test_matches_difference_table_oracle(self):
        f = ZeroConstPoly([Fraction(2, 3), -1, 0, Fraction(5, 2)])
        table = finite_difference_coeffs([f(j) for j in range(f.degree + 1)])
        assert table[0] == 0
        assert binomial_expand(f) == table[1:]


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
