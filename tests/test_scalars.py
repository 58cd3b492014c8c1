import cmath
import math
from fractions import Fraction

import mpmath as mp
import pytest

from finfree.scalars import EXACT, FLOAT64, MPF, exp, format_scalar, integer_weights, to_mpf, work


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

    def test_binary64_round_trips_in_at_most_17_digits(self):
        for x in (0.1, 0.19999999999999998, -6.8304736866586787e-18, 1e300, 2.0 / 3):
            text = format_scalar(x, 50)
            assert float(text) == x
            mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 17
        assert complex(format_scalar(0.1 - 0.2j)) == 0.1 - 0.2j


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
            ints, D = integer_weights(weights)
            assert D == 1
            assert len(ints) == len(weights)
            assert all(a is b for a, b in zip(ints, weights))
