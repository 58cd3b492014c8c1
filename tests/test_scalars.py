import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest

from finfree import scalars
from finfree.scalars import (convolve, differences, dot, exp, format_scalar, integer_scaled,
                             integer_weights, one_kind, to_mpf)

from .oracles import product_tree_per_merge


class TestExp:
    def test_exact_zero_is_exact_one(self):
        for zero in (0, Fraction(0)):
            one = exp(zero)
            assert isinstance(one, Fraction) and one == 1

    def test_exact_nonzero_raises(self):
        with pytest.raises(ValueError):
            exp(Fraction(1, 2))
        with pytest.raises(ValueError):
            exp(1)

    def test_each_kind_keeps_its_type(self):
        with mp.workdps(30):
            assert isinstance(exp(mp.mpf("0.5")), mp.mpf)
            assert exp(mp.mpf("0.5")) == mp.exp(mp.mpf("0.5"))
            assert isinstance(exp(mp.mpc(0, 1)), mp.mpc)
        assert exp(0.5) == math.exp(0.5) and isinstance(exp(0.5), float)
        assert exp(0.5j) == cmath.exp(0.5j) and isinstance(exp(0.5j), complex)


class TestDot:
    def test_mpf_rounds_once(self):
        rng = random.Random(11)
        with mp.workdps(30):
            xs = [mp.mpf(rng.uniform(-1, 1)) / 3 for _ in range(25)]
            ys = [mp.mpf(rng.uniform(-1, 1)) * 10 ** rng.randint(-8, 8) / 7 for _ in range(25)]
            start = mp.mpf(1) / 9
            with mp.workdps(60):  # every product is exact at twice the digits
                prods = [x * y for x, y in zip(xs, ys)]
            assert dot(xs, ys) == mp.fsum(prods)
            assert dot(xs, ys, start=start) == mp.fsum([start] + prods)
            assert isinstance(dot(xs, ys), mp.mpf)

    def test_exact_matches_fraction_loop_and_is_reduced(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 12)
            xs = [Fraction(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(n)]
            ys = [Fraction(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(n)]
            start = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            want = Fraction(0)
            for x, y in zip(xs, ys):
                want += x * y
            got = dot(xs, ys)
            assert type(got) is Fraction and got == want
            assert math.gcd(got.numerator, got.denominator) == 1
            assert dot(xs, ys, start=start) == start + want

    def test_binary64_left_to_right_bit_for_bit(self):
        rng = random.Random(13)
        for cplx in (False, True):
            draw = ((lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) if cplx
                    else (lambda: rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6)))
            for _ in range(20):
                xs = [draw() for _ in range(rng.randint(1, 30))]
                ys = [draw() for _ in xs]
                start = draw()
                plain, from_start = xs[0] * 0, start
                for x, y in zip(xs, ys):
                    plain += x * y
                    from_start += x * y
                assert repr(dot(xs, ys)) == repr(plain)
                assert repr(dot(xs, ys, start=start)) == repr(from_start)

    def test_mixed_int_and_fraction(self):
        got = dot([2, Fraction(1, 3), 5], [Fraction(3, 4), 6, 1])
        assert type(got) is Fraction and got == Fraction(17, 2)
        assert dot([2, 3], [4, 5], start=1) == 24 and type(dot([2, 3], [4, 5])) is int
        # a non-exact term after an exact first pair switches to that kind
        assert dot([1, 0.5], [2, 3]) == 3.5

    def test_zero_factor_contributes_nothing(self):
        assert dot([0.0, 2.0], [math.inf, 3.0]) == 6.0
        assert dot([Fraction(0), Fraction(1, 3)], [Fraction(1, 10 ** 40), 3]) == 1
        assert dot([Fraction(0), 0], [Fraction(1, 7), 5]) == 0
        with mp.workdps(30):
            assert dot([mp.mpf(0), mp.mpf(2)], [mp.mpf(10) ** 100, mp.mpf(3)]) == 6

    def test_empty(self):
        zero = dot([], [])
        assert zero == 0 and type(zero) is int
        half = Fraction(1, 2)
        assert dot([], [], start=half) is half

    @staticmethod
    def assert_exact(xs, ys, start=None, want=None):
        """dot is the exact sum rounded once (``want``, or else from the
        exact sum), in kind, and allocates under 1 MiB."""
        if want is None:
            cplx = any(isinstance(v, mp.mpc) for v in (*xs, *ys, start))
            terms = list(zip(xs, ys)) + ([] if start is None else [(start, 1)])
            want = _exact_rounded(terms, cplx)
        tracemalloc.start()
        try:
            got = dot(xs, ys, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(got) is type(want) and got == want, (got, want)
        assert peak < 2 ** 20

    def test_mpf_is_the_exact_sum_rounded_once(self):
        one, two = mp.mpf(1), mp.mpf(2)
        with mp.workdps(15):
            prec = mp.mp.prec
            ulp, tiny = mp.ldexp(one, -prec), mp.ldexp(one, -2 * prec - 1)
            huge, far = mp.mpf("1e308"), mp.mpf("1e-100000")
            self.assert_exact([1, 1, 1], [mp.ldexp(one, -300), 1, -1])  # mp.fdot returns 0
            # cancellation, with the survivor 2 * prec bits below the head
            self.assert_exact([huge, one / 3, -huge, tiny], [1, 3, 1, 1])
            self.assert_exact([huge, far, -huge], [1, 1, 1])
            self.assert_exact([one / 3, one / 7], [3, -7], start=far)
            # ties to even, and ties broken by a term far below them
            self.assert_exact([one, ulp], [1, 1])
            self.assert_exact([1 + 2 * ulp, ulp], [1, 1])
            for below in (tiny, -tiny, far, -far, mp.ldexp(one, -10 ** 6)):
                self.assert_exact([one, ulp, below], [1, 1, 1])
                self.assert_exact([one, below], [ulp, 1], start=one)
            # sticky terms whose own sum cancels, and heads that cancel down to
            # a term below them, or to within prec bits of one
            self.assert_exact([one, far, -far, mp.ldexp(far, -prec)], [1, 1, 1, 1])
            self.assert_exact([huge, ulp, -huge, far], [1, 1, 1, 1])
            self.assert_exact([one, 2 * ulp - 1, mp.ldexp(one / 3, -82), far], [1, 1, 1, 1])
            # 2^-332192979 beside 1 on one int would take 41 MB
            vast = mp.mpf("1e-100000000")
            for xs, want in (([one, vast], one), ([one, ulp, vast], 1 + 2 * ulp),
                             ([one, ulp, -vast], one), ([one, vast, -one], vast)):
                self.assert_exact(xs, [1] * len(xs), want=want)
            self.assert_exact([huge, mp.mpf("1e-300"), -huge, far, two], [1, 1, 1, 1, -far])
            # terms of both signs spread over 1e308 .. 1e-100000
            rng = random.Random(14)
            for _ in range(40):
                values = [mp.ldexp(mp.mpf(rng.uniform(-1, 1)) / 3,
                                   rng.choice([0, 1023, -prec, -2 * prec, -332193]) + rng.randint(-9, 9))
                          for _ in range(rng.randint(1, 9))]
                values += [-v for v in values[:rng.randint(0, len(values))]]
                rng.shuffle(values)
                self.assert_exact(values, [rng.choice([1, 3, one / 5]) for _ in values],
                                  start=rng.choice([None, one / 7, far]))
            # complex terms go by real and imaginary part
            i = mp.mpc(0, 1)
            self.assert_exact([1 + 2 * i, far - 3 * i, huge * i], [3 - i, two, 1 + far * i],
                              start=-huge * i)
            self.assert_exact([1 + i, 2], [1 - i, 0.5])

    def test_fraction_among_mp_terms_is_refused(self):
        # no exact read of 39 at 4 bits: rounded first toward zero to 36, the
        # sum would come back as 36, where the exact 40 is representable
        with mp.workprec(4):
            with pytest.raises(TypeError, match=r"dot: mixed scalar kinds \['exact', 'mpf'\]"):
                dot([mp.mpf(1)], [mp.mpf(1)], start=Fraction(39))
            for xs, ys in (([mp.mpf(1), Fraction(1, 3)], [1, 1]), ([mp.mpc(1, 1)], [Fraction(1, 3)])):
                with pytest.raises(TypeError, match="mixed scalar kinds"):
                    dot(xs, ys)
            # ints and floats are read exactly: 39 = 1 + 38 rounds once, to 40
            for start in (38, 38.0):
                got = dot([mp.mpf(1)], [mp.mpf(1)], start=start)
                assert type(got) is mp.mpf and got == 40

    def test_non_finite_terms(self):
        with mp.workdps(30):
            third, inf = mp.mpf(1) / 3, mp.inf
            # an inf that meets a zero adds nothing, and the rest stays exact
            got = dot([mp.mpf(0), third, 1], [inf, 3, mp.ldexp(mp.mpf(1), -400)])
            assert got == _exact_rounded([(third, 3), (1, mp.ldexp(mp.mpf(1), -400))])
            assert dot([inf, third], [-2, 3]) == -inf
            assert dot([third], [3], start=inf) == inf
            assert dot([third], [3], start=-inf) == -inf
            assert mp.isnan(dot([inf, inf], [1, -1]))
            assert mp.isnan(dot([mp.nan, third], [1, 1]))
            assert dot([mp.mpc(inf, 0), 1], [1, 1]) == mp.mpc(inf, 0)


class TestOneKind:
    def test_ints_take_the_kind_of_their_neighbours(self):
        with mp.workdps(30):
            third = mp.mpf(1) / 3
            for other, to in ((Fraction(1, 3), Fraction), (third, mp.mpf),
                              (0.5, float), (0.5j, float), (mp.mpc(0, 1), mp.mpf)):
                got = one_kind([2, other, -1], "here")
                assert [type(v) for v in got] == [to, type(other), to]
                assert got == [2, other, -1]

    def test_ints_alone_become_fractions(self):
        got = one_kind((v for v in (1, -3, 10 ** 40)), "here")
        assert got == [1, -3, 10 ** 40] and all(type(v) is Fraction for v in got)

    def test_a_mix_is_refused_by_name(self):
        with pytest.raises(TypeError, match="laguerre_hat_atilde: mixed scalar kinds"):
            one_kind([1, Fraction(1, 2), 0.5], "laguerre_hat_atilde")


class TestToMpf:
    def test_fraction_and_complex(self):
        with mp.workdps(40):
            assert to_mpf(Fraction(1, 3), 40) == mp.mpf(1) / 3
        assert to_mpf(0.5 + 2j) == mp.mpc(0.5, 2)
        assert isinstance(to_mpf(Fraction(-2)), mp.mpf)


class TestFormatScalar:
    def test_exact(self):
        assert format_scalar(Fraction(-3, 4)) == "-3/4"
        assert format_scalar(Fraction(4, 2)) == "2"
        assert format_scalar(7) == "7"
        for x in (Fraction(-3, 4), Fraction(5), Fraction(1, 10 ** 30)):
            assert Fraction(format_scalar(x)) == x

    def test_mpf_at_requested_digits(self):
        with mp.workdps(40):
            x = mp.mpf(1) / 3
        text = format_scalar(x, 30)
        assert text == "0." + "3" * 30
        with mp.workdps(30):
            back = mp.mpf(text)
            assert abs(back - x) <= mp.mpf(10) ** -30 * x
        assert format_scalar(back, 30) == text
        # rounded once from 60 digits: rounding to 50 digits in binary first
        # would print ...0692
        with mp.workdps(60):
            x = mp.mpf("0.00904850525529160142491942562898103613183745964906914942217025")
        assert format_scalar(x, 50).endswith("96490691")

    def test_binary64_round_trips_in_at_most_17_digits(self):
        for x in (0.1, 0.19999999999999998, -6.8304736866586787e-18, 1e300, 2.0 / 3):
            text = format_scalar(x, 50)
            assert float(text) == x
            mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 17
        assert complex(format_scalar(0.1 - 0.2j)) == 0.1 - 0.2j

    def test_mpf_prints_as_mpmath_nstr(self):
        """The integer printer gives, at every digit count, the string of
        ``mp.nstr`` with zeros stripped; what it does not take (zero, values
        past 2^+-3500, no digits, mpc, a digit string past Python's
        int-to-str limit) goes to ``mp.nstr`` itself."""
        rng = random.Random(1790)
        values = []
        with mp.workprec(500):
            for _ in range(2500):  # mantissas of 1 to 400 bits, 10^-300 to 10^300
                bits = rng.randint(1, 400)
                man = rng.getrandbits(bits) | 1 << (bits - 1)
                e = round(rng.randint(-300, 300) * math.log2(10)) - bits
                values.append(mp.mpf((rng.choice((1, -1)) * man, e)))
            values += [mp.mpf((m, e)) for m in (1, -3, 2 ** 300 - 1)
                       for e in (3499, 3500, 3501, 4000, -3499, -3500, -3600, -4000)]
            values += [mp.mpf(0), 1 - mp.mpf(2) ** -200, -(1 - mp.mpf(2) ** -200)]
        for k in (1, 2, 3, 15, 17, 50, 80, 130):
            with mp.workdps(k + 30):
                # carries into a new power of ten, and both fixed/scientific
                # switch points, met from below by such a carry
                nines = [mp.mpf("9." + "9" * j + tail) for j in (k - 1, k, k + 1)
                         for tail in ("5", "51")]
                near = [mp.mpf(10) ** p * (1 - mp.mpf(2) ** -200) * s for s in (1, -1)
                        for p in (k - 1, k, k + 1, -(k // 3), -5, -4, -6, -(k // 3) + 1)]
                # a carry that leaves zeros in the integer part
                near += [mp.mpf("1.2" + "9" * k) * mp.mpf(10) ** p for p in (k - 1, k - 2)]
                # two and a quarter units of the fixed point above a half-way
                # point: the width of the fixed point decides the rounding
                fixprec = int((k + 3) * math.log(10, 2)) + 9
                near += [mp.mpf("1." + "2" * (k - 1) + "5") + units * mp.mpf(2) ** -fixprec
                         for units in (2, 0.25)]
            for x in values + nines + near:
                assert format_scalar(x, k) == mp.nstr(x, k, strip_zeros=True), (x, k)
        for x, k in ((values[0], 0), (values[1], -2), (values[2], 5000)):
            assert format_scalar(x, k) == mp.nstr(x, k, strip_zeros=True)

    def test_mpc_prints_as_mpmath_nstr(self):
        with mp.workdps(40):
            z = mp.mpc(1, -2) / 3
        assert format_scalar(z, 30) == mp.nstr(z, 30, strip_zeros=True)

    def test_non_finite_is_an_overflow(self):
        for x in (math.inf, -math.inf, math.nan, complex(1, math.inf), mp.mpf("nan"),
                  mp.inf, -mp.inf, mp.mpc(1, mp.inf)):
            with pytest.raises(OverflowError, match="exact strings"):
                format_scalar(x)


class TestIntegerWeights:
    def test_exact_weights_round_trip(self):
        for weights in ([3, -1, 4], [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4)],
                        [Fraction(-5, 6)], [0, Fraction(1, 9)]):
            (ints,), back = integer_weights(weights)
            assert all(type(v) is int for v in ints)
            # a block of size s alone has block sizes adding up to s
            got = [back(v, s) for s, v in enumerate(ints, start=1)]
            assert got == weights and all(type(v) is Fraction for v in got)

    def test_partition_product_scales_by_d_to_the_n(self):
        weights = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
        (ints,), back = integer_weights(weights)
        # blocks of sizes 1, 1 and 3 partition [5]
        assert back(ints[0] * ints[0] * ints[2], 5) == weights[0] ** 2 * weights[2]

    def test_factors_share_one_unit(self):
        (a, b), back = integer_weights([Fraction(1, 3), 2], [Fraction(-3, 4), Fraction(5, 6)])
        assert back(a[1] * b[0] * b[0], 4) == 2 * Fraction(-3, 4) ** 2

    def test_real_float_weights_go_on_ints_and_round_once(self):
        with mp.workdps(30):
            ws = [mp.mpf(1) / 3, mp.mpf(-2) / 7, mp.mpf(5) / 11]
            (ints,), back = integer_weights(ws)
            assert all(type(v) is int for v in ints)
            # each mpf product or sum of products is the exact value rounded once
            assert back(ints[0] * ints[1], 3) == ws[0] * ws[1]
            x, y, z = (Fraction(m) * Fraction(2) ** e for m, e in map(_man_exp, ws))
            exact = x * y + z
            want = mp.fdiv(exact.numerator, exact.denominator)
            assert back(ints[0] * ints[1] + ints[2], 3) == want
        fl = [0.1, -0.7, 1e300, 1e-160]
        (ints,), back = integer_weights(fl)
        exact = Fraction(fl[0]) * Fraction(fl[2]) + Fraction(fl[1]) * Fraction(fl[1])
        assert back(ints[0] * ints[2] + ints[1] ** 2, 4) == float(exact)
        assert back(ints[2] * ints[2], 6) == math.inf  # past the binary64 range
        assert back(ints[3] * ints[3], 8) == 1e-160 * 1e-160  # subnormal, rounded once

    def test_other_kinds_pass_through(self):
        # complex, inf and nan weights are summed in their own kind
        for weights in ([1j, 2], [mp.mpc(1, 2), mp.mpf(1)], [math.inf, 0.5], [mp.mpf("nan")]):
            (ints,), back = integer_weights(weights)
            assert all(a is b for a, b in zip(ints, weights)) and len(ints) == len(weights)
            assert back(weights[0], 1) is weights[0]
        with mp.workdps(30):
            third = mp.mpf(1) / 3
        ring = object()
        for values in ([third, 2], [0.25, 1], [1j, Fraction(1, 2)], [ring, 1]):
            ints, D = integer_scaled(values)
            assert D == 1 and len(ints) == len(values)
            assert all(a is b for a, b in zip(ints, values))

    def test_factors_of_different_kinds_raise(self):
        for factors in (([Fraction(1, 2)], [0.5]), ([mp.mpf(1)], [0.5]),
                        ([Fraction(1, 2)], [mp.mpf(1)])):
            with pytest.raises(TypeError, match="mixed scalar kinds"):
                integer_weights(*factors)

    def test_integer_scaled_puts_exact_values_on_ints(self):
        ints, D = integer_scaled([Fraction(1, 6), 2, Fraction(-3, 4), 0])
        assert D == 12 and ints == [2, 24, -9, 0] and all(type(v) is int for v in ints)


def _man_exp(v) -> tuple:
    """An int or a finite mpf v as the ints (m, e) with v = m * 2^e exactly."""
    if type(v) is int:
        return v, 0
    man, exp = v.man_exp
    return (-man if v < 0 else man), exp


def _exact(terms) -> Fraction:
    """sum x * y over the pairs of ints and finite mpf values, as a Fraction.

    The products m 2^e are summed per exponent, then put over the least one:
    exponents like 2^-664000 cost a shift per distinct exponent."""
    by_exp = {}
    for x, y in terms:
        (mx, ex), (my, ey) = _man_exp(x), _man_exp(y)
        by_exp[ex + ey] = by_exp.get(ex + ey, 0) + mx * my
    if not by_exp:
        return Fraction(0)
    e0 = min(by_exp)
    total = sum(m << (e - e0) for e, m in by_exp.items())
    return Fraction(total << e0) if e0 >= 0 else Fraction(total, 1 << -e0)


def _round_once(q: Fraction):
    """The rational q rounded to the nearest mpf at the ambient precision,
    ties to even, by integer division alone."""
    if not q:
        return mp.mpf(0)
    prec = mp.mp.prec
    num, den = abs(q.numerator), q.denominator
    e = num.bit_length() - den.bit_length() - prec - 2  # the quotient has prec + 2 or 3 bits
    m, r = divmod(num << -e if e < 0 else num, den if e < 0 else den << e)
    extra = m.bit_length() - prec
    m, low, half = m >> extra, m & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or (low == half and (r or m & 1)):
        m += 1
    return mp.mpf((m if q > 0 else -m, e + extra))


def _exact_rounded(terms, cplx=False):
    """sum x * y over the pairs, products and sum exact, rounded once at the
    ambient precision: an mpf, or with ``cplx`` an mpc whose real and
    imaginary parts are each rounded once."""
    if not cplx:
        return _round_once(_exact(terms))
    parts = [((mp.mpc(x).real, mp.mpc(x).imag), (mp.mpc(y).real, mp.mpc(y).imag))
             for x, y in terms]
    re = _exact([(a, c) for (a, _), (c, _) in parts]) - _exact([(b, d) for (_, b), (_, d) in parts])
    im = _exact([(a, d) for (a, _), (_, d) in parts]) + _exact([(b, c) for (_, b), (c, _) in parts])
    return mp.mpc(_round_once(re), _round_once(im))


def convolve_literal(a, b, top=None, binomial=False) -> list:
    """c_k = sum_{i+j=k} [C(k, i)] a_i b_j for k <= top by a double loop, i
    ascending, from the first left factor times 0, skipping pairs with a zero
    factor.  With any mpf or mpc factor, C(k, i) a_i is rounded in kind, the
    products and their sum are exact (``_exact``), and each c_k is rounded
    once (``_round_once``); with an inf or a nan, the products are summed by
    ``mp.fsum``."""
    last = len(a) + len(b) - 2 if top is None else min(top, len(a) + len(b) - 2)
    pairs = [[] for _ in range(last + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= last:
                pairs[i + j].append((math.comb(i + j, i) * x if binomial else x, y))
    out = []
    cplx = any(isinstance(v, mp.mpc) for v in (*a, *b))
    for terms in pairs:
        if cplx or any(isinstance(v, mp.mpf) for v in (*a, *b)):
            if all(mp.isfinite(v) for term in terms for v in term):
                out.append(_exact_rounded(terms, cplx))
                continue
            with mp.workdps(3 * mp.mp.dps):
                prods = [x * y for x, y in terms]
            out.append(mp.fsum(prods))
            continue
        acc = terms[0][0] * 0
        for x, y in terms:
            if x and y:
                acc += x * y
        out.append(acc)
    return out


class TestConvolve:
    @staticmethod
    def assert_same(got, want):
        # one type per coefficient, equal values, and for binary64 equal bits
        assert type(got) is tuple and len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w) and g == w and repr(g) == repr(w)

    @staticmethod
    def operands(rng, kind, n):
        def draw():
            if rng.random() < 0.3:
                return {"int": 0, "fraction": Fraction(0), "float": 0.0, "complex": 0j,
                        "mpf": mp.mpf(0)}[kind]
            u = rng.uniform(-2, 2)
            return {"int": rng.randint(-9, 9),
                    "fraction": Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    "float": u / 3, "complex": complex(u, rng.uniform(-1, 1)) / 3,
                    "mpf": mp.mpf(u) / 3}[kind]
        return [draw() for _ in range(n)]

    def test_matches_the_double_loop_in_every_kind(self):
        rng = random.Random(2024)
        with mp.workdps(30):
            for kind in ("int", "fraction", "float", "complex", "mpf"):
                for na, nb in ((1, 1), (4, 4), (5, 8), (9, 3)):
                    a, b = self.operands(rng, kind, na), self.operands(rng, kind, nb)
                    full = na + nb - 2
                    for top in (None, 0, full // 2, full, full + 3):
                        for binomial in (False, True):
                            self.assert_same(convolve(a, b, top, binomial=binomial),
                                             convolve_literal(a, b, top, binomial))
            # the Pascal row of the binomial weights runs past the short cases
            for kind, na, nb, top in (("fraction", 201, 101, 200), ("int", 41, 41, None),
                                      ("mpf", 41, 41, None)):
                a, b = self.operands(rng, kind, na), self.operands(rng, kind, nb)
                self.assert_same(convolve(a, b, top, binomial=True),
                                 convolve_literal(a, b, top, True))

    def test_an_empty_operand_gives_the_empty_product(self):
        with mp.workdps(30):
            for x in ([1, 2, 3], [Fraction(1, 3)], [1.0, 2.0], [1j], [mp.mpf(2), 1], [mp.mpc(1, 1)]):
                for top in (None, 0, 5):
                    for binomial in (False, True):
                        assert convolve(x, [], top, binomial) == ()
                        assert convolve([], x, top, binomial) == ()
            assert convolve([], []) == ()

    def test_exact_kinds(self):
        rng = random.Random(2025)
        ints = [rng.randint(-9, 9) for _ in range(6)]
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
        for binomial in (False, True):
            assert all(type(c) is int for c in convolve(ints, ints[::-1], binomial=binomial))
            # any Fraction operand gives Fractions, also where the value is whole
            mixed = convolve(ints, fracs + [Fraction(2)], binomial=binomial)
            assert all(type(c) is Fraction for c in mixed)
            assert list(mixed) == convolve_literal([Fraction(v) for v in ints], fracs + [2],
                                                   binomial=binomial)
        # whole Fractions have D = 1 and still come back as Fractions
        self.assert_same(convolve((Fraction(1),), (Fraction(-3), 2)), [Fraction(-3), Fraction(2)])


    @staticmethod
    def record_packing(monkeypatch) -> list:
        """Lengths of the operands of every call of the packing helper."""
        calls, pack = [], scalars._kronecker

        def recorder(da, db, n_out):
            calls.append((len(da[0]), len(db[0])))
            return pack(da, db, n_out)
        monkeypatch.setattr(scalars, "_kronecker", recorder)
        return calls

    def test_packed_pairs_read_as_their_mpfs(self):
        # m odd or (0, 0), so the spans of packed pairs, and the routes they take, are the mpfs'
        rng = random.Random(2031)
        with mp.workdps(30):
            cases = [([mp.mpf(2), mp.mpf(12), mp.mpf(0)], [mp.mpf(4), mp.mpf(1)])]
            cases += [(self.operands(rng, "mpf", n), self.operands(rng, "mpf", n)) for n in (2, 9, 40)]
            for a, b in cases:
                pairs = scalars._kronecker(scalars._dyadic(a), scalars._dyadic(b), len(a) + len(b) - 1)
                assert pairs == [scalars._pair(c) for c in convolve_literal(a, b)]

    def test_packed_lengths_match_the_double_loop(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2026)
        with mp.workdps(30):
            for na, nb in ((33, 40), (201, 201), (40, 33), (2, 1)):
                a, b = self.operands(rng, "mpf", na), self.operands(rng, "mpf", nb)
                a[-1] = -2  # ints may sit among the mpf values
                full = na + nb - 2
                for top in (None, 0, full // 3, full, full + 3):
                    self.assert_same(convolve(a, b, top), convolve_literal(a, b, top))
                    assert len(calls) == 1
                    calls.clear()

    def test_spans_either_side_of_the_bound(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2027)
        with mp.workdps(30):
            a, b = self.operands(rng, "mpf", 9), self.operands(rng, "mpf", 6)
            bound = scalars._pack_span(6)
            a[2], b[4] = mp.mpf(5) / 7, mp.mpf(-3) / 11

            def spans(shift):
                wide = a[:2] + [mp.ldexp(a[2], shift)] + a[3:]
                return wide, scalars._dyadic(wide)[2] + scalars._dyadic(b)[2]
            # past a few hundred bits the shifted value sets the top of a's span
            start = 300
            edge = start + bound - spans(start)[1]
            for shift, packed in ((0, True), (edge - 200, True), (edge, True),
                                  (edge + 1, False), (edge + 500, False)):
                wide, total = spans(shift)
                assert (total <= bound) is packed
                for top in (None, 30):  # no cut: a cut can narrow the span
                    for x, y in ((wide, b), (b, wide)):
                        self.assert_same(convolve(x, y, top),
                                         convolve_literal(x, y, top))
                assert len(calls) == (4 if packed else 0)
                calls.clear()

    def test_bound_reads_the_shorter_length(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2030)
        with mp.workdps(30):
            short, long, other = (self.operands(rng, "mpf", n) for n in (2, 40, 40))
            short[0], long[0], other[0] = mp.mpf(1) / 3, mp.mpf(-5) / 7, mp.mpf(3) / 11
            # spans past the bound of two values and within that of 40
            shift = (scalars._pack_span(2) + scalars._pack_span(40)) // 2 - 2 * mp.mp.prec
            long[-1] = mp.ldexp(mp.mpf(2) / 3, shift)
            for x in (short, other):
                total = scalars._dyadic(long)[2] + scalars._dyadic(x)[2]
                assert scalars._pack_span(2) < total <= scalars._pack_span(40)
            self.assert_same(convolve(short, long), convolve_literal(short, long))
            assert calls == []
            self.assert_same(convolve(other, long), convolve_literal(other, long))
            assert calls == [(40, 40)]

    def test_any_mp_operand_gives_mp_coefficients(self):
        with mp.workdps(30):
            got = convolve([mp.mpf(2), 1], [mp.mpf(3), 1], binomial=True)
            self.assert_same(got, [mp.mpf(6), mp.mpf(5), mp.mpf(2)])
            # exponents too far apart to pack, and a last coefficient of ints
            far = [mp.mpf("1e-100000"), 1]
            for a, b in ((far, [1, 2]), ([1, 2], far)):
                got = convolve(a, b)
                self.assert_same(got, convolve_literal(a, b))
                assert got[-1] == 2
            got = convolve([mp.mpc(1, 1), 1], [1, 1])
            self.assert_same(got, [mp.mpc(1, 1), mp.mpc(2, 1), mp.mpc(1)])

    def test_fraction_beside_mp_operand_is_refused(self):
        with mp.workdps(30):
            for binomial in (False, True):
                with pytest.raises(TypeError, match="mixed scalar kinds"):
                    convolve([mp.mpf(1), 1], [Fraction(1, 3)], binomial=binomial)

    def test_zero_operand_and_non_finite_values(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2028)
        with mp.workdps(30):
            zeros, b = [mp.mpf(0)] * 5, self.operands(rng, "mpf", 7)
            for top in (None, 0, 3, 20):
                for x, y in ((zeros, b), (b, zeros), (zeros, zeros[:2])):
                    got = convolve(x, y, top)
                    self.assert_same(got, convolve_literal(x, y, top))
                    assert all(c == 0 for c in got)
            # a zero among values of positive exponent, whose least exponent e0 > 0
            whole = [mp.mpf(0), mp.mpf(2), mp.mpf(12), mp.mpf(0)]
            self.assert_same(convolve(whole, whole), convolve_literal(whole, whole))
            assert len(calls) == 13
            calls.clear()
            finite = [mp.mpf(1) / 7, mp.mpf(-5) / 3, 2]
            for bad in (mp.inf, -mp.inf, mp.nan):
                a = [mp.mpf(1) / 3, bad, mp.mpf(2)]
                for x, y in ((a, finite), (finite, a)):
                    got, want = convolve(x, y), convolve_literal(x, y)
                    assert [type(c) for c in got] == [mp.mpf] * 5
                    assert [repr(c) for c in got] == [repr(c) for c in want]
            assert calls == []

    def test_far_apart_exponents_keep_dot(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        with mp.workdps(30):
            far = [mp.mpf("1e-100000"), 1] * 100
            near = self.operands(random.Random(2029), "mpf", 7)
            for b in (near, far[::-1]):
                self.assert_same(convolve(far, b), convolve_literal(far, b))
        assert calls == []

    def test_bound_checked_before_any_shift(self):
        # packed, 1e-100000000 beside 1 would shift 1 by 3.3e8 bits: a 41 MB int
        with mp.workdps(30):
            a, b = [mp.mpf("1e-100000000"), 1], [mp.mpf(1) / 3]
            tracemalloc.start()
            try:
                got = convolve(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # each c_k is one product, which mpf multiplication rounds once
            self.assert_same(got, [x * b[0] for x in a])
        assert peak < 2 ** 20

    def test_packed_sum_is_the_correctly_rounded_exact_sum(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        with mp.workdps(15):
            a = [mp.mpf(1)] * 3
            b = [mp.mpf(-1), mp.mpf(1), mp.ldexp(mp.mpf(1), -300)]
            got = convolve(a, b)
            self.assert_same(got, convolve_literal(a, b))
            assert got[2] == mp.ldexp(mp.mpf(1), -300)
            # the 2^-300 lies more than 2 * prec bits below the running sum,
            # which then cancels; mp.fdot drops it and returns 0
            assert dot(a, b[::-1]) == mp.ldexp(mp.mpf(1), -300)
        assert len(calls) == 1


class TestProductTree:
    """``product_tree`` against the tree it replaces, which held every merge's
    coefficients as values (``product_tree_per_merge``), bit for bit."""

    @staticmethod
    def bits(values) -> list:
        return [(type(v), getattr(v, "_mpf_", None) or getattr(v, "_mpc_", None) or v)
                for v in values]

    @staticmethod
    def root_sets(digits) -> dict:
        rng = random.Random(400 + digits)
        sets = {"narrow": [mp.mpf(rng.uniform(0.05, 1)) for _ in range(400)]}
        rng = random.Random(401)  # the draws of the wide pin in test_polycalc
        sets["wide"] = [mp.mpf(10) ** rng.uniform(-30, 30) for _ in range(400)]
        third = mp.mpf(-1) / 3
        sets["zero, negative, repeated"] = [mp.mpf(0), third, third, mp.mpf(2) / 7, mp.mpf(0),
                                            -mp.mpf(5), third, mp.mpf(0), mp.mpf(1) / 9]
        sets["ints among mpfs"] = [3, mp.mpf(1) / 3, -2, mp.mpf(-5) / 7, 0, mp.mpf(2) / 11, 7]
        for n in (1, 2, 3, 5):
            sets[f"{n} roots"] = [mp.mpf(rng.uniform(-2, 2)) / 3 for _ in range(n)]
        sets["binary64"] = [rng.uniform(-2, 2) for _ in range(40)]
        sets["complex"] = ([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
                           + [mp.mpf(rng.uniform(-1, 1)) for _ in range(9)] + [0.5 - 0.25j])
        return sets

    def test_matches_the_per_merge_tree_bit_for_bit(self, monkeypatch):
        packed, pack = [], scalars._kronecker

        def recorder(*args):
            packed.append(1)
            return pack(*args)
        monkeypatch.setattr(scalars, "_kronecker", recorder)
        for digits in (15, 50, 120):
            with mp.workdps(digits):
                for name, roots in self.root_sets(digits).items():
                    want = self.bits(product_tree_per_merge(roots, mp.mpf(1)))
                    routes, packed[:] = len(packed), []
                    got = scalars.product_tree(roots, mp.mpf(1))
                    assert type(got) is tuple and self.bits(got) == want, (digits, name)
                    # the same merges packed: the pairs kept between merges span as mpfs do
                    assert len(packed) == routes, (digits, name)
                    if name == "wide" and digits == 50:
                        assert 0 < routes < len(roots) - 1  # packed and dot merges both ran
                    packed.clear()
        roots = [Fraction(1, 3), -2, Fraction(5, 7), 0, Fraction(-1, 4)]
        for one in (1, Fraction(1)):
            got = scalars.product_tree(roots, one)
            assert self.bits(got) == self.bits(product_tree_per_merge(roots, one))


class TestSeriesRoundings:
    """The two roundings of the series kernel on ints, ``_round`` and
    ``_div``, against mpf arithmetic: 40,000 roundings of a wide int, 30,000
    products by an int (``k * x`` is mpmath's ``mpf_mul_int``) and 30,000
    divisions by j = 1..200 (``x / j`` is its ``mpf_div``), at 8 to 402 bits.
    The mantissas include exact ties, all-ones values that carry into a new
    power of two, and both signs."""

    @staticmethod
    def _mantissa(rng, bits: int, prec: int) -> int:
        shape, low = rng.randrange(4), bits - prec
        if shape == 0:
            m = (1 << bits) - 1  # all ones: rounding up carries
        elif shape == 1 and low > 0:  # an exact tie: prec random bits, then 10...0
            m = (rng.getrandbits(prec) | 1 << (prec - 1)) << low | 1 << (low - 1)
        else:
            m = rng.getrandbits(bits) | 1 << (bits - 1)
        return -m if rng.random() < 0.5 else m

    def test_round_matches_the_mpf_constructor(self):
        rng = random.Random(33)
        for prec in (8, 53, 170, 402):
            with mp.workprec(prec):
                for _ in range(10_000):
                    m = self._mantissa(rng, prec + rng.randint(-3, 80), prec)
                    e = rng.randint(-500, 500)
                    got = scalars._round(m, e, prec)
                    assert abs(got[0]).bit_length() <= prec or abs(got[0]) == 1 << prec
                    assert mp.mpf(got) == mp.mpf((m, e)), (prec, m, e)

    def test_products_and_quotients_match_mpf_arithmetic(self):
        rng = random.Random(34)
        for prec in (8, 53, 170, 402):
            with mp.workprec(prec):
                for _ in range(7_500):
                    m, e = self._mantissa(rng, rng.randint(1, prec), prec), rng.randint(-500, 500)
                    x = mp.mpf((m, e))
                    # 3 << t times an odd m of prec bits ties when 3m has prec + 1 bits
                    k = rng.choice([rng.randint(-200, 200) or 1, 3 << rng.randrange(8)])
                    assert mp.mpf(scalars._round(k * m, e, prec)) == k * x, (prec, m, e, k)
                    j = rng.randint(1, 200)
                    assert mp.mpf(scalars._div(m, e, j, prec)) == x / j, (prec, m, e, j)


class TestDifferences:
    def test_the_alternating_sum_on_ints(self):
        rng = random.Random(5)
        values = [rng.randint(-50, 50) for _ in range(9)]
        got = differences(values)
        assert all(type(v) is int for v in got)
        assert got == [sum(math.comb(j, l) * (-1) ** (j - l) * values[l] for l in range(j + 1))
                       for j in range(len(values))]
        assert differences([]) == []

    def test_vanish_past_the_degree(self):
        assert differences([l ** 3 for l in range(7)]) == [0, 1, 6, 6, 0, 0, 0]
