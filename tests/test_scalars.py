import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest

from finfree import scalars
from finfree.scalars import (EXACT, FLOAT64, MPF, convolve, csum, differences, dot, exp,
                             format_scalar, integer_scaled, integer_weights, to_mpf, work)


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


class TestCsum:
    def test_binary64_compensated(self):
        # the plain left-to-right sum loses the 1.0 to rounding
        terms = [1e16, 1.0, -1e16]
        assert sum(terms) == 0.0
        assert csum(terms) == 1.0
        assert csum([1.0, 1e100, 1.0, -1e100]) == 2.0

    def test_complex_compensated_per_part(self):
        terms = [1e16 + 1e16j, 1.0, 1j, -1e16 - 1e16j]
        assert sum(terms) == 0j
        got = csum(terms)
        assert isinstance(got, complex) and got == 1 + 1j

    def test_exact_and_mpf(self):
        assert csum([Fraction(1, 3), Fraction(2, 3), 1]) == 2
        with mp.workdps(15):
            got = csum([mp.mpf(10) ** 30, mp.mpf(1), -mp.mpf(10) ** 30], digits=40)
        assert got == 1
        assert csum([]) == 0


class TestWork:
    def test_scopes_mpf_precision(self):
        before = mp.mp.dps
        with work(MPF, before + 20):
            assert mp.mp.dps == before + 20
        assert mp.mp.dps == before

    def test_leaves_other_kinds_alone(self):
        before = mp.mp.dps
        for kind in (EXACT, FLOAT64):
            with work(kind, before + 20):
                assert mp.mp.dps == before


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

    def test_non_finite_is_an_overflow(self):
        for x in (math.inf, -math.inf, math.nan, complex(1, math.inf), mp.mpf("nan")):
            with pytest.raises(OverflowError, match="exact strings"):
                format_scalar(x)


class TestIntegerWeights:
    def test_exact_weights_round_trip(self):
        for weights in ([3, -1, 4], [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4)],
                        [Fraction(-5, 6)], [0, Fraction(1, 9)]):
            ints, D = integer_weights(weights)
            assert D == math.lcm(*(Fraction(w).denominator for w in weights))
            assert all(type(v) is int for v in ints)
            assert [Fraction(v, D ** s) for s, v in enumerate(ints, start=1)] == weights

    def test_partition_product_scales_by_d_to_the_n(self):
        weights = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
        ints, D = integer_weights(weights)
        # blocks of sizes 1, 1 and 3 partition [5]
        assert Fraction(ints[0] * ints[0] * ints[2], D ** 5) == weights[0] ** 2 * weights[2]

    def test_other_kinds_pass_through(self):
        with mp.workdps(30):
            third = mp.mpf(1) / 3
        ring = object()
        for weights in ([third, 2], [0.25, 1], [1j, Fraction(1, 2)], [ring, 1]):
            for scale in (integer_weights, integer_scaled):
                ints, D = scale(weights)
                assert D == 1
                assert len(ints) == len(weights)
                assert all(a is b for a, b in zip(ints, weights))

    def test_integer_scaled_puts_exact_values_on_ints(self):
        ints, D = integer_scaled([Fraction(1, 6), 2, Fraction(-3, 4), 0])
        assert D == 12 and ints == [2, 24, -9, 0] and all(type(v) is int for v in ints)


def _man_exp(v) -> tuple:
    """An int or a finite mpf v as the ints (m, e) with v = m * 2^e exactly."""
    if type(v) is int:
        return v, 0
    man, exp = v.man_exp
    return (-man if v < 0 else man), exp


def _exact_sum(terms):
    """sum x * y over the pairs, products and sum exact, rounded once at the
    ambient precision; the products are summed per exponent, then shifted onto
    the least one."""
    by_exp = {}
    for x, y in terms:
        (mx, ex), (my, ey) = _man_exp(x), _man_exp(y)
        if mx and my:
            by_exp[ex + ey] = by_exp.get(ex + ey, 0) + mx * my
    if not by_exp:
        return mp.mpf(0)
    e0 = min(by_exp)
    return mp.mpf((sum(m << (e - e0) for e, m in by_exp.items()), e0))


def convolve_literal(a, b, top=None, binomial=False, exact=False) -> list:
    """c_k = sum_{i+j=k} [C(k, i)] a_i b_j for k <= top by a double loop, i
    ascending, from the first left factor times 0, skipping pairs with a zero
    factor.  With any mpf factor the products are exact and each c_k is
    rounded once: from ``mp.fsum``, which, like ``mp.fdot`` inside ``dot``,
    drops a term more than 2 * prec bits below its running sum, or, with
    ``exact``, from the exact sum (non-finite terms keep ``mp.fsum``)."""
    last = len(a) + len(b) - 2 if top is None else min(top, len(a) + len(b) - 2)
    pairs = [[] for _ in range(last + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= last:
                pairs[i + j].append((math.comb(i + j, i) * x if binomial else x, y))
    out = []
    for terms in pairs:
        if any(isinstance(v, mp.mpf) for v in (*a, *b)):
            if exact and all(mp.isfinite(v) for term in terms for v in term):
                out.append(_exact_sum(terms))
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

    def test_packed_lengths_match_the_double_loop(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2026)
        with mp.workdps(30):
            for na, nb in ((33, 40), (201, 201), (40, 33), (2, 1)):
                a, b = self.operands(rng, "mpf", na), self.operands(rng, "mpf", nb)
                a[-1] = -2  # ints may sit among the mpf values
                full = na + nb - 2
                for top in (None, 0, full // 3, full, full + 3):
                    self.assert_same(convolve(a, b, top), convolve_literal(a, b, top, exact=True))
                    assert len(calls) == 1
                    calls.clear()

    def test_spans_either_side_of_the_bound(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2027)
        with mp.workdps(30):
            bound = scalars._PACK_SPAN * mp.mp.prec
            a, b = self.operands(rng, "mpf", 9), self.operands(rng, "mpf", 6)
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
                                         convolve_literal(x, y, top, exact=packed))
                assert len(calls) == (4 if packed else 0)
                calls.clear()

    def test_zero_operand_and_non_finite_values(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        rng = random.Random(2028)
        with mp.workdps(30):
            zeros, b = [mp.mpf(0)] * 5, self.operands(rng, "mpf", 7)
            for top in (None, 0, 3, 20):
                for x, y in ((zeros, b), (b, zeros), (zeros, zeros[:2])):
                    got = convolve(x, y, top)
                    self.assert_same(got, convolve_literal(x, y, top, exact=True))
                    assert all(c == 0 for c in got)
            # a zero among values of positive exponent, whose least exponent e0 > 0
            whole = [mp.mpf(0), mp.mpf(2), mp.mpf(12), mp.mpf(0)]
            self.assert_same(convolve(whole, whole), convolve_literal(whole, whole, exact=True))
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
            self.assert_same(got, convolve_literal(a, b))
        assert peak < 2 ** 20

    def test_packed_sum_is_the_correctly_rounded_exact_sum(self, monkeypatch):
        calls = self.record_packing(monkeypatch)
        with mp.workdps(15):
            a = [mp.mpf(1)] * 3
            b = [mp.mpf(-1), mp.mpf(1), mp.ldexp(mp.mpf(1), -300)]
            got = convolve(a, b)
            self.assert_same(got, convolve_literal(a, b, exact=True))
            assert got[2] == mp.ldexp(mp.mpf(1), -300)
            # mp.fdot drops the 2^-300 more than 2 * prec bits below its
            # running sum, which then cancels to 0
            assert dot(a, b[::-1]) == 0
        assert len(calls) == 1


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
