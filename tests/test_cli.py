import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import mpmath as mp

from finfree import cli
from finfree.cumulants import finite_cumulants, laguerre_hat
from finfree.errors import RootConvergenceError
from finfree.partitions import noncrossing_masks, partition_count, partition_masks
from finfree.polycalc import (MonicPoly, boxplus, boxtimes, boxtimes_pow, poly_from_json,
                              poly_to_json)

from .oracles import bell_oracle, catalan_oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionsCommand:
    def test_stream(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1,2,3", "1,2|3", "1,3|2", "1|2,3", "1|2|3"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "10", "--count-only")
        assert code == 0 and out.strip() == "115975"

    def test_noncrossing(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "4", "--noncrossing", "--count-only")
        assert code == 0 and out.strip() == "14"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "partitions", "--n", "2")
        assert code == 0
        assert json.loads(out) == [[[1, 2]], [[1], [2]]]

    def test_stream_bytes_pinned(self, capsys):
        # sha256 of the output of the restricted-growth-string walks over block masks
        pins = {
            ("--format", "json", "partitions", "--n", "9"):
                "aa903dab5e6ac12da0f0418230d0995dc7185c758cf2d5f84f290eaca60c25c0",
            ("--format", "csv", "partitions", "--n", "7", "--noncrossing"):
                "b5751f1bba0d1ca73ae84f9bdf27155756c4102dcd826879c1cb1fa3ba885209",
            ("--format", "json", "partitions", "--n", "8", "--noncrossing"):
                "657de94280a9841211c21b9741096769c2840956d22843dcc718a700e1be23ce",
            ("--format", "csv", "partitions", "--n", "8"):
                "438df3f67a4dd291bf123c5aeaef1489186685a4481cdb7a5b924757d28b5727",
            ("--format", "json", "partitions", "--n", "1"):
                "695d4de79bd0f215a776bbd4c2d6c9cff51c435197d7a13c950a89b423be8451",
            ("--format", "csv", "partitions", "--n", "1"):
                "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
            ("--format", "json", "partitions", "--n", "10", "--noncrossing"):
                "235ea8c54f9f2594d5eaf84dbea2564d8985756c551d9de352b8ddf7d0589131",
            ("--format", "csv", "partitions", "--n", "9"):
                "03fb576786b895c7ad39378a40e9b1e321392787bfcee21052005790c7e5e1d6",
            ("--format", "csv", "partitions", "--n", "9", "--noncrossing"):
                "25cfdbf5275bdd2d0d8d7a2f0236806a45ae373e2d9cedbb11be824d50164b69",
        }
        for argv, digest in pins.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "partitions", "--n", "13", "--count-only")
        assert code == 3
        assert "cap" in err

    def test_cap_override(self, capsys):
        code, _, err = run(capsys, "--cap", "4", "partitions", "--n", "5", "--count-only")
        assert code == 3 and "cap 4" in err
        code, out, _ = run(capsys, "--cap", "5", "partitions", "--n", "5", "--count-only")
        assert code == 0 and out.strip() == "52"

    def test_cap_zero_is_a_cap(self, capsys):
        code, out, err = run(capsys, "--cap", "0", "partitions", "--n", "3", "--count-only")
        assert code == 3 and out == "" and "cap 0" in err


class TestIdentityCommand:
    def test_bruteforce(self, capsys):
        code, out, _ = run(capsys, "identity", "--fs", "0,1;0,1", "--n", "3")
        assert code == 0 and out.strip() == "24"

    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "identity", "--fs", "0,1;0,1", "--n", "3", "--closed-form")
        assert code == 0 and out.strip() == "24"

    def test_no_closed_form_marker(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--fs", "0,0,1;0,0,1", "--n", "2", "--closed-form"
        )
        assert code == 0 and out.strip() == "no-closed-form"

    def test_rational_output(self, capsys):
        code, out, _ = run(capsys, "identity", "--fs", "1/2", "--n", "1")
        assert code == 0 and out.strip() == "1/2"

    def test_output_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "identity", "--fs", "1,1/2,3;2,-1",
                           "--n", "6")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "38f41b3d891ac444a2b388153833f3b80bcc934e148fe9ea4232a83c5e0fb2bd")

    def test_bad_poly_is_exit_2(self, capsys):
        code, _, err = run(capsys, "identity", "--fs", "0,zz", "--n", "2")
        assert code == 2 and "error" in err

    def test_zero_denominator_exit_2(self, capsys):
        code, out, err = run(capsys, "identity", "--fs", "1/0", "--n", "2")
        assert code == 2 and out == "" and "zero denominator" in err

    def test_cap_does_not_reach_identity(self, capsys):
        code, out, _ = run(capsys, "--cap", "4", "identity", "--fs", "0,1", "--n", "5")
        assert code == 0 and out.strip() == "0"

    def test_no_cap_on_n(self, capsys):
        # past the total degree the value is 0 without a table of size n
        start = time.perf_counter()
        code, out, _ = run(capsys, "identity", "--fs", "0,1", "--n", "10000000")
        assert code == 0 and out.strip() == "0"
        assert time.perf_counter() - start < 1.0

    def test_n_below_one_exit_2(self, capsys):
        for n in ("0", "-1"):
            code, out, err = run(capsys, "identity", "--fs", "0,1", "--n", n)
            assert code == 2 and out == "" and "n must be >= 1" in err

    def test_more_than_twelve_polynomials_exit_3(self, capsys):
        # --cap does not reach the enumeration of P(k), and the error promises no flag
        fs = ";".join(["1"] * 13)
        for argv in ((), ("--cap", "20")):
            code, out, err = run(capsys, *argv, "identity", "--fs", fs, "--n", "1")
            assert code == 3 and out == "" and "cap 12" in err and "raise the cap" not in err


class TestCountCommand:
    def test_R(self, capsys):
        code, out, _ = run(capsys, "count", "R", "--sizes", "1,1", "--n", "2")
        assert code == 0 and out.strip() == "2"

    def test_R_brute(self, capsys):
        code, out, _ = run(capsys, "count", "R", "--sizes", "2,2", "--n", "4",
                           "--method", "brute")
        assert code == 0 and out.strip() == "6"

    def test_S(self, capsys):
        code, out, _ = run(capsys, "count", "S", "--sizes", "2,2", "--n", "3")
        assert code == 0 and out.strip() == "6"

    def test_T(self, capsys):
        code, out, _ = run(capsys, "count", "T", "--sizes", "2,2", "--lengths", "1,1,1")
        assert code == 0 and out.strip() == "6"

    def test_joinfull(self, capsys):
        code, out, _ = run(capsys, "count", "joinfull", "--sizes", "2,2")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "count", "joinfull", "--sizes", "2,2",
                           "--method", "brute")
        assert code == 0 and out.strip() == "4"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "R", "--sizes", "1", "--n", "1")
        assert code == 0
        assert json.loads(out) == {"family": "R", "sizes": [1], "count": 1}

    def test_missing_n_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "count", "R", "--sizes", "1,1")
        assert code == 2

    def test_sizes_and_lengths_take_plain_decimal_tokens(self, capsys):
        # int() alone reads 1_0 as 10 and accepts non-ASCII digits
        for argv in (("R", "--sizes=1_0,2", "--n=3"), ("S", "--sizes=2,\u0662", "--n=3"),
                     ("T", "--sizes=2", "--lengths=1_0,1"), ("joinfull", "--sizes=+2,2")):
            code, out, err = run(capsys, "count", *argv)
            assert code == 2 and out == "" and "not a plain decimal integer" in err, argv

    def test_method_outside_family_exit_2(self, capsys):
        for argv, methods in (
            (("T", "--sizes", "2,2", "--lengths", "1,1,1"), "closed|brute"),
            (("joinfull", "--sizes", "2,2"), "closed|brute"),
            (("R", "--sizes", "2,2", "--n", "4"), "formula|brute"),
        ):
            bad = "closed" if argv[0] == "R" else "formula"
            code, out, err = run(capsys, "count", *argv, "--method", bad)
            assert code == 2 and out == ""
            assert f"family {argv[0]} has methods {methods}" in err

    def test_non_positive_sizes_and_lengths_exit_2(self, capsys):
        for argv in (
            ("T", "--sizes=2", "--lengths=-1,4"),
            ("T", "--sizes=2", "--lengths=-1,4", "--method=brute"),
            ("joinfull", "--sizes=-2,5"),
            ("joinfull", "--sizes=0,3"),
            ("joinfull", "--sizes=0,3", "--method=brute"),
            ("R", "--sizes=0,1", "--n=2"),
            ("S", "--sizes=2,-1", "--n=2"),
        ):
            code, out, err = run(capsys, "count", *argv)
            assert code == 2 and out == "" and "must be positive" in err, argv

    def test_cap_zero_is_a_cap(self, capsys):
        code, out, err = run(capsys, "--cap", "0", "count", "S", "--sizes", "2,2", "--n", "3")
        assert code == 3 and out == "" and "cap 0" in err

    def test_S_is_brute_only(self, capsys):
        code, out, _ = run(capsys, "count", "S", "--sizes", "2,2", "--n", "3",
                           "--method", "brute")
        assert code == 0 and out.strip() == "6"
        code, _, err = run(capsys, "count", "S", "--sizes", "2,2", "--n", "3",
                           "--method", "formula")
        assert code == 2 and "family S has methods brute" in err


class TestConvCommand:
    def test_boxplus(self, capsys):
        code, out, _ = run(
            capsys, "conv", "boxplus",
            "--p", '{"coeffs": [1, -2, 0]}', "--q", '{"coeffs": [1, -2, 0]}',
        )
        assert code == 0
        assert json.loads(out) == {"degree": 2, "coeffs": [1, -4, 2]}

    def test_boxtimes_identity(self, capsys):
        code, out, _ = run(
            capsys, "conv", "boxtimes",
            "--p", '{"coeffs": [1, -4, 2]}', "--q", '{"roots": [1, 1]}',
        )
        assert code == 0
        assert json.loads(out) == {"degree": 2, "coeffs": [1, -4, 2]}

    def test_pow(self, capsys):
        code, out, _ = run(capsys, "conv", "pow", "--p", '{"coeffs": [1, -4, 2]}', "--m", "1")
        assert code == 0
        assert json.loads(out)["coeffs"] == [1, -4, 2]

    def test_angle_literals_print_complex_coefficients_that_read_back(self, capsys):
        p, q = {"angles": [0.5, 1.0]}, {"angles": [0.3, 2.0]}
        cases = {("boxplus", "--q", json.dumps(q)): boxplus(poly_from_json(p), poly_from_json(q)),
                 ("boxtimes", "--q", json.dumps(q)): boxtimes(poly_from_json(p), poly_from_json(q)),
                 ("pow", "--m", "3"): boxtimes_pow(poly_from_json(p), 3)}
        for (op, *rest), expect in cases.items():
            code, out, _ = run(capsys, "conv", op, "--p", json.dumps(p), *rest)
            assert code == 0
            literal = json.loads(out)
            assert all(isinstance(c, str) for c in literal["coeffs"][1:])
            assert poly_from_json(literal).coeffs == expect.coeffs

    def test_conv_and_invert_print_a_literal_in_either_format(self, capsys):
        # the printed literal is the input format of the other commands
        for argv in (("conv", "boxplus", "--p", '{"coeffs": [1, -2, 0]}',
                      "--q", '{"coeffs": [1, -2, 0]}'),
                     ("cumulants", "--invert", "--p", '{"degree": 2, "cumulants": [2, 4]}')):
            outs = [run(capsys, "--format", fmt, *argv) for fmt in ("csv", "json")]
            assert outs[0] == outs[1]
            code, out, _ = outs[0]
            assert code == 0 and json.loads(out) == {"degree": 2, "coeffs": [1, -4, 2]}
            code, out, _ = run(capsys, "cumulants", "--p", out)
            assert code == 0 and out.splitlines() == ["kappa_1,2", "kappa_2,4"]

    def test_literal_degree_is_a_positive_int(self, capsys):
        # true == 1 and 1.0 == 1 in Python, so a bare comparison let both through
        for degree in ("true", "1.0", "0"):
            p = '{"degree": %s, "coeffs": [1, -2]}' % degree
            code, out, err = run(capsys, "conv", "pow", "--p", p, "--m", "2")
            assert code == 2 and out == "" and "degree" in err, degree

    def test_non_array_field_exit_2(self, capsys):
        for field in ("coeffs", "roots", "angles"):
            p = '{"%s": 1}' % field
            code, out, err = run(capsys, "conv", "pow", "--p", p, "--m", "2")
            assert code == 2 and out == "" and f"{field} must be a JSON array" in err

    def test_inline_array_is_not_an_object_exit_2(self, capsys):
        code, out, err = run(capsys, "conv", "boxplus", "--p", "[1]", "--q", '{"roots": [1]}')
        assert code == 2 and out == "" and "polynomial literal must be a JSON object" in err

    def test_degree_mismatch_exit_2(self, capsys):
        code, _, err = run(
            capsys, "conv", "boxplus", "--p", '{"roots": [1]}', "--q", '{"roots": [1, 2]}'
        )
        assert code == 2

    def test_non_finite_input_exit_2(self, capsys):
        # json reads NaN, Infinity and 1e400 as floats; none of them is a scalar
        # a string that is no rational is read as a binary64 complex, whose
        # parts must be finite too
        for field, literal in (("coeffs", "[1, 0.5, NaN]"), ("roots", "[1.0, Infinity]"),
                               ("angles", "[0.5, -1e400]"), ("coeffs", '[1, 0.5, "nan"]'),
                               ("coeffs", '[1, "infj", 0]'), ("roots", '["1+1e400j", 1]')):
            p = '{"%s": %s}' % (field, literal)
            code, out, err = run(capsys, "conv", "boxplus", "--p", p, "--q", '{"roots": [1.0, 2.0]}')
            assert code == 2 and out == "" and f"{field}: non-finite" in err

    def test_complex_angle_exit_2(self, capsys):
        # a string that is no rational reads as a complex scalar, which no angle is
        for angles in ('["1j"]', '[0.5, "1+0j"]'):
            p = '{"angles": %s}' % angles
            code, out, err = run(capsys, "conv", "boxplus", "--p", p, "--q", '{"angles": [2, 1]}')
            assert code == 2 and out == "" and "angles: an angle must be a real number" in err

    def test_zero_denominator_exit_2(self, capsys):
        code, out, err = run(capsys, "conv", "boxplus", "--p", '{"coeffs": [1, "1/0"]}',
                             "--q", '{"coeffs": [1, 1]}')
        assert code == 2 and out == "" and "coeffs: zero denominator" in err

    def test_boxtimes_overflow_exit_3(self, capsys):
        p = '{"roots": [1e200, 2.0]}'
        code, out, err = run(capsys, "conv", "boxtimes", "--p", p, "--q", p)
        assert code == 3 and out == "" and "exact strings" in err
        p = '{"roots": ["1e200", 2]}'
        code, out, _ = run(capsys, "conv", "boxtimes", "--p", p, "--q", p)
        assert code == 0 and json.loads(out)["coeffs"][2] == 4 * 10 ** 400

    def test_pow_overflow_exit_3(self, capsys):
        code, out, _ = run(capsys, "conv", "pow", "--p", '{"roots": [1e200, 2]}', "--m", "3")
        assert code == 3 and out == ""
        code, out, _ = run(capsys, "conv", "pow", "--p", '{"roots": ["1e200", 2]}', "--m", "3")
        assert code == 0 and json.loads(out)["coeffs"][2] == 8 * 10 ** 600


class TestCumulantsCommand:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "cumulants", "--p", '{"coeffs": [1, -4, 2]}')
        assert code == 0
        assert out.splitlines() == ["kappa_1,2", "kappa_2,4"]

    def test_forward_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cumulants",
                           "--p", '{"coeffs": [1, -4, 2]}')
        assert code == 0
        assert json.loads(out) == {"degree": 2, "cumulants": ["2", "4"]}

    def test_forward_binary64_prints_what_binary64_carries(self, capsys):
        code, out, _ = run(capsys, "cumulants", "--p", '{"roots": [0.1, 0.3, 0.2]}')
        assert code == 0
        kappas = finite_cumulants(MonicPoly.from_roots([0.1, 0.3, 0.2])).values
        texts = [line.split(",")[1] for line in out.splitlines()]
        for text, kappa in zip(texts, kappas, strict=True):
            mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 17
            assert float(text) == kappa

    def test_output_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "--precision", "30", "--format", "json", "cumulants",
                           "--p", '{"roots": [0.1, 0.3, 0.2, 1.7, -2.5]}')
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "4db961ed53344162fee25c90ea829e0c77f73f09f17408b67533a4c401c27cf4")

    def test_invert_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "cumulants", "--invert",
            "--p", '{"degree": 2, "cumulants": [2, 4]}',
        )
        assert code == 0
        assert json.loads(out) == {"degree": 2, "coeffs": [1, -4, 2]}

    def test_invert_needs_cumulants(self, capsys):
        code, _, _ = run(capsys, "cumulants", "--invert", "--p", '{"coeffs": [1, -1]}')
        assert code == 2
        # a string is not read as a list of its characters
        p = '{"degree": 2, "cumulants": "12"}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 2 and out == "" and "must be a JSON array" in err

    def test_zero_denominator_exit_2(self, capsys):
        code, out, err = run(capsys, "cumulants", "--p", '{"coeffs": [1, "1/0"]}')
        assert code == 2 and out == "" and "coeffs: zero denominator" in err

    def test_invert_bool_cumulant_exit_2(self, capsys):
        p = '{"degree": 2, "cumulants": [true, 1]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 2 and out == "" and "cumulants: booleans" in err

    def test_invert_nan_cumulant_exit_2(self, capsys):
        p = '{"degree": 2, "cumulants": [NaN, 1]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 2 and out == "" and "cumulants: non-finite" in err

    def test_invert_string_degree_exit_2(self, capsys):
        p = '{"degree": "2", "cumulants": [1, 1]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 2 and out == "" and "degree: a JSON integer" in err

    def test_invert_fractional_degree_exit_2(self, capsys):
        p = '{"degree": 2.7, "cumulants": [1, 1]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 2 and out == "" and "degree: a JSON integer" in err

    def test_binary64_overflow_exit_3(self, capsys):
        # kappa_2 of the first is nan, of the second inf: neither is printed
        for p in ('{"roots": [1e200, 1e200]}', '{"coeffs": [1, 1e308, 1e308]}'):
            code, out, err = run(capsys, "cumulants", "--p", p)
            assert code == 3 and out == "" and "exact strings" in err
        code, out, _ = run(capsys, "cumulants", "--p", '{"roots": ["1e200", "1e200"]}')
        assert code == 0 and out.splitlines() == ["kappa_1,1" + "0" * 200, "kappa_2,0"]

    def test_binary64_transform_overflow_exit_3(self, capsys):
        # 150^149 is past binary64: the transform names d and points to exact strings
        p = json.dumps(poly_to_json(laguerre_hat(150, 1.0)))
        code, out, err = run(capsys, "cumulants", "--p", p)
        assert code == 3 and out == ""
        assert "d=150" in err and "binary64 range" in err and "exact strings" in err

    def test_invert_overflow_exit_3(self, capsys):
        p = '{"degree": 2, "cumulants": [1e300, 1e300]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 3 and out == "" and "exact strings" in err
        p = '{"degree": 2, "cumulants": ["1e300", "1e300"]}'
        code, out, _ = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 0 and json.loads(out)["coeffs"][1] == -2 * 10 ** 300


# one config per experiment kind, hermite and fms at 80 digits
_ANGLES = [0.3, -0.5, 0.7, -0.2, 0.1, -0.4]
_ROOTS = [2, 0.5, 4, 0.25, 1.25, 0.8]
LIMIT_PINS = {
    "laguerre": dict(kind="laguerre", d=[100, 200, 400], t=[1.0], n_max=12),
    "sy-t": dict(kind="sy", regime="t", d=[100, 200, 400], m=[100, 200, 400], n_max=10),
    "sy-zero": dict(kind="sy", regime="zero", d=[100, 400, 1600], m=[10, 20, 40], n_max=16),
    "hermite": dict(kind="hermite", d=[50, 100, 200, 400], t=[0.5, 1, 2], n_max=16,
                    precision=80),
    "fms": dict(kind="fms", d=[50, 100, 200, 400], t=[0.5, 1, 2], n_max=16, precision=80),
    "multclt": dict(kind="multclt", m=[100, 1000, 10000], poly={"roots": _ROOTS}),
    "uclt": dict(kind="uclt", m=[100, 1000, 10000], poly={"angles": _ANGLES}),
    "lln": dict(kind="lln", m=[100, 1000, 10000], poly={"roots": _ROOTS}),
}


class TestLimitCommand:
    def test_output_bytes_pinned(self, capsys):
        # sha256 of the json and the csv table, as printed when every mpf
        # went through mp.nstr
        pins = {
            "laguerre": ("ee662596048d1cf30033adfa7d8d559bbe3684e2b28fdc5ddef35047ac143cc0",
                         "f7daf1043415d6a8264353dcd122cae8ece3eaee71eb6619aae2dfec791f3f56"),
            "sy-t": ("757eea60119e7ceb19c5a4f49df9cdc051987a78cf1c28b2d8a92b72221d98da",
                     "a895b8588a11882b30f0e7e1cf91a74dbef078bad1f43b6eda2901db08784594"),
            "sy-zero": ("960a7267b54c659b2b460e1ddaa8e0c9b8725635fd389a878b0316389824463c",
                        "e4ba310b5decc8cc1a40fbd9e3756596120381e0c47d0eab01a537865400b160"),
            "hermite": ("6e3dea819e6f388f8b9649d2c4510bd45b32897d11398b3406e8f2766c2610cd",
                        "1f5581cf295766e38b20ae488160d38e6d21254211d62e9cb9cc4862cc1584cc"),
            "fms": ("6844ae24da09c54651526d9d46e0a0d7b60ac39cdb7007840fc188bf89a444d8",
                    "1efb7708683db910dfa522f7b2f52bc720f2b0d2f213cade9196e3311b2717c0"),
            "multclt": ("4016a9e143cd154e941889b99dbece82f3031e42a5aebe388b40a7afa48eedf5",
                        "701b5e7d18cd7644c63f1d438c580140e1ff413e109d57ab0675ee4cd3928d2e"),
            "uclt": ("fddf17d474db4d6d530a85164bd35e0ee8a999abf71af62e30a416ddd909c00d",
                     "042f9e3eea649af15ec976d77a8a22f45df1f09a87a276e4b81ed23ce5531d7e"),
            "lln": ("02ccce6075476265330e9513100be21f4ba1f864ae13230f309bed75edf14b8d",
                    "6ca662326ad3ac2184139d0a36c96aea6ca37f924e8702fffc108ccf3b41ea67"),
        }
        assert pins.keys() == LIMIT_PINS.keys()
        for label, digests in pins.items():
            for fmt, digest in zip(("json", "csv"), digests):
                code, out, _ = run(capsys, "--format", fmt, "limit", "--config",
                                   json.dumps(LIMIT_PINS[label]))
                assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, label

    def test_real_mpf_tables_skip_mp_nstr(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(mp, "nstr", lambda *a, **k: calls.append(a))
        for fmt in ("json", "csv"):
            code, out, _ = run(capsys, "--format", fmt, "limit", "--config",
                               json.dumps(LIMIT_PINS["hermite"]))
            assert code == 0 and out
        assert calls == []

    def test_inline_config(self, capsys):
        code, out, _ = run(
            capsys, "limit",
            "--config", '{"kind": "hermite", "d": [25, 50], "t": [1.0], "n_max": 2}',
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind,d,m,t,n")
        assert len([l for l in lines if l.startswith("hermite")]) == 4

    def test_config_file_and_out(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fms", "d": [20], "t": [1.0], "n_max": 2}))
        dest = tmp_path / "table.csv"
        code, out, _ = run(capsys, "--out", str(dest), "limit", "--config", str(cfg))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("kind,d,m,t,n")

    def test_unknown_config_key_exit_2(self, capsys):
        code, _, err = run(capsys, "limit", "--config", '{"kind": "fms", "dd": [1]}')
        assert code == 2 and "unknown config keys" in err

    def test_removed_config_keys_exit_2(self, capsys):
        # output format and destination are the global --format/--out flags
        for extra in ('"format": "json"', '"out": "t.csv"', '"lam": 1'):
            cfg = '{"kind": "fms", "d": [20], "t": [1.0], "n_max": 2, ' + extra + "}"
            code, out, err = run(capsys, "limit", "--config", cfg)
            assert code == 2 and out == "" and "unknown config keys" in err

    def test_format_flag_alone_picks_json(self, capsys):
        cfg = '{"kind": "fms", "d": [20], "t": [1.0], "n_max": 2}'
        code, out, _ = run(capsys, "--format", "json", "limit", "--config", cfg)
        assert code == 0 and len(json.loads(out)["rows"]) == 2
        code, out, _ = run(capsys, "limit", "--config", cfg)
        assert code == 0 and out.startswith("kind,d,m,t,n")

    def test_non_object_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, out, err = run(capsys, "limit", "--config", str(cfg))
        assert code == 2 and out == "" and "must be a JSON object" in err

    def test_inline_array_config_exit_2(self, capsys):
        code, out, err = run(capsys, "limit", "--config", "[1]")
        assert code == 2 and out == "" and "experiment config must be a JSON object" in err

    def test_non_finite_config_exit_2(self, capsys):
        for cfg, field in (('{"kind": "multclt", "sigma": NaN, "m": [10, 100, 1000]}', "sigma"),
                           ('{"kind": "fms", "d": [10], "t": [1e400]}', "t grid")):
            code, out, err = run(capsys, "limit", "--config", cfg)
            assert code == 2 and out == "" and f"{field} " in err and "finite" in err

    def test_degree_one_multclt_exit_2(self, capsys):
        cfg = '{"kind": "multclt", "poly": {"roots": [1.0]}, "m": [10]}'
        code, out, err = run(capsys, "limit", "--config", cfg)
        assert code == 2 and out == "" and "degree d >= 2" in err

    def test_degree_one_uclt_exit_2(self, capsys):
        cfg = '{"kind": "uclt", "poly": {"angles": [0.0]}, "m": [10]}'
        code, out, err = run(capsys, "limit", "--config", cfg)
        assert code == 2 and out == "" and "degree d >= 2" in err

    def test_huge_powers_run_at_once(self, capsys):
        for cfg in ('{"kind": "laguerre", "d": [4], "t": [1e308], "n_max": 2}',
                    '{"kind": "laguerre", "d": [16], "t": [625], "n_max": 16}',
                    '{"kind": "sy", "d": [4], "m": [1000000000], "n_max": 2, "regime": "t"}'):
            start = time.perf_counter()
            code, out, err = run(capsys, "limit", "--config", cfg)
            assert time.perf_counter() - start < 1.0
            assert code == 0 and err == "" and out.startswith("kind,d,m,t,n")

    def test_sy_ratio_past_binary64_exit_3(self, capsys):
        # the row's t column is m / d in binary64, and its overflow exits 3
        cfg = json.dumps({"kind": "sy", "d": [4], "m": [10 ** 400], "n_max": 2, "regime": "t"})
        code, out, err = run(capsys, "limit", "--config", cfg)
        assert code == 3 and out == ""
        assert "t column m/d = 10^399.4 is past the binary64 range" in err and "0" * 400 not in err

    def test_negative_laguerre_t_exit_2(self, capsys):
        cfg = '{"kind": "laguerre", "d": [4], "t": [-1], "n_max": 2}'
        code, out, err = run(capsys, "limit", "--config", cfg)
        assert code == 2 and out == "" and "t >= 0" in err

    def test_precision_infeasible_exit_3(self, capsys):
        # the working digits w = precision + 10 here; the bound is 1000
        cfg = '{"kind": "fms", "d": [10], "t": [1.0], "n_max": 1, "precision": %d}'
        code, out, _ = run(capsys, "limit", "--config", cfg % 990)
        assert code == 0 and out
        code, out, err = run(capsys, "limit", "--config", cfg % 991)
        assert code == 3 and out == "" and "1001 working digits" in err and "bound of 1000" in err
        # w = 15 + 24 + 10 = 49 digits is well under the bound
        cfg = '{"kind": "fms", "d": [1000000], "t": [1.0], "n_max": 5, "precision": 15}'
        assert run(capsys, "limit", "--config", cfg)[0] == 0

    def test_json_output_deterministic(self, capsys):
        argv = ["--format", "json", "limit", "--config",
                '{"kind": "laguerre", "d": [30, 60], "t": [1.0], "n_max": 2}']
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert len(obj["rows"]) == 4


def test_parser_is_built_once_and_carries_nothing_over(capsys, tmp_path):
    cli._build_parser.cache_clear()
    dest = tmp_path / "p.json"
    code, out, _ = run(capsys, "--format", "json", "--out", str(dest), "--cap", "3",
                       "partitions", "--n", "3")
    written = dest.read_text()
    assert code == 0 and out == "" and json.loads(written)[0] == [[1, 2, 3]]
    # the default csv, to stdout, under the default cap, which n = 4 is within
    code, out, _ = run(capsys, "partitions", "--n", "4")
    assert code == 0 and out.splitlines()[:2] == ["1,2,3,4", "1,2,3|4"]
    assert len(out.splitlines()) == 15 and dest.read_text() == written
    code, out, _ = run(capsys, "--cap", "3", "partitions", "--n", "4", "--count-only")
    assert code == 3 and out == ""
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


class TestExitCodes:
    def test_nonconvergence_maps_to_4(self, capsys, monkeypatch):
        def boom(args):
            raise RootConvergenceError(200, 1e-3)

        monkeypatch.setattr(cli, "_cmd_conv", boom)
        code, _, err = run(capsys, "conv", "pow", "--p", '{"roots": [1]}', "--m", "2")
        assert code == 4 and "converge" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "limit", "--config", "/nonexistent/cfg.json")
        assert code == 2

    def test_precision_below_1_exit_2(self, capsys):
        # refused at the edge, where a command that reads no digits ignored it
        for digits in ("-3", "0"):
            for argv in (("cumulants", "--p", '{"roots": [0.5, 1.5]}'),
                         ("partitions", "--n", "3")):
                code, out, err = run(capsys, "--precision", digits, *argv)
                assert code == 2 and out == "" and "--precision must be positive" in err


def test_cli_import_leaves_numpy_unloaded():
    # a fresh interpreter, so modules imported by other tests do not count
    code = "import sys, finfree.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_emit_writes_the_text_without_copying_it(tmp_path):
    text = "1,2|3\n" * 900_000 + "1|2|3"  # about 5 MB, no final newline
    dest = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli._emit(text, str(dest))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * len(text)
    assert dest.read_bytes() == (text + "\n").encode()


def test_closed_pipe_ends_the_stream_quietly(capsys, monkeypatch, tmp_path):
    # a reader that stops, as `| head` does: the first write raises
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    drawn = []
    walk = cli.partition_masks
    monkeypatch.setattr(cli, "partition_masks",
                        lambda n, cap: (drawn.append(p) or p for p in walk(n, cap)))
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = cli.main(["partitions", "--n", "9"])
        # later flushes of the stream, at exit too, go nowhere
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 0 and capsys.readouterr().err == ""
    assert len(drawn) == cli._ROWS_PER_CHUNK  # the walk stopped after one chunk


def test_closed_pipe_exits_0_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-m", "finfree.cli", "partitions", "--n", "9"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1,2,3,4,5,6,7,8,9\n"
    proc.stdout.close()
    assert proc.wait(timeout=30) == 0 and proc.stderr.read() == b""
    proc.stderr.close()


def test_partitions_stream_in_bounded_memory(tmp_path):
    # the 115975 rows are about 5 MB of json; they are written in chunks
    dest = tmp_path / "p10.json"
    tracemalloc.start()
    try:
        code = cli.main(["--format", "json", "--out", str(dest), "partitions", "--n", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2 << 20
    rows = json.loads(dest.read_text())
    assert len(rows) == 115975
    assert rows[0] == [list(range(1, 11))] and rows[-1] == [[x] for x in range(1, 11)]


def test_count_only_formats_nothing(capsys, monkeypatch):
    def refuse(mask):
        raise AssertionError("a block was formatted")

    monkeypatch.setattr(cli, "mask_elements", refuse)
    for argv, count in ((("--n", "10"), "115975"), (("--n", "10", "--noncrossing"), "16796")):
        code, out, _ = run(capsys, "partitions", *argv, "--count-only")
        assert code == 0 and out.strip() == count


def test_count_only_walks_nothing(capsys, monkeypatch):
    walks = {flag: [sum(1 for _ in walk(n)) for n in range(1, 11)]
             for flag, walk in (((), partition_masks), (("--noncrossing",), noncrossing_masks))}

    def refuse(*args, **kwargs):
        raise AssertionError("a walk was made")

    monkeypatch.setattr(cli, "partition_masks", refuse)
    monkeypatch.setattr(cli, "noncrossing_masks", refuse)
    for flag, counts in walks.items():
        assert counts == [(bell_oracle if not flag else catalan_oracle)(n) for n in range(1, 11)]
        for n, count in enumerate(counts, 1):
            code, out, _ = run(capsys, "partitions", "--n", str(n), *flag, "--count-only")
            assert code == 0 and out == f"{count}\n"
    ns = range(1, 61)
    assert [partition_count(n, cap=60) for n in ns] == [bell_oracle(n) for n in ns]
    # Bell(1000) has 1928 digits, where the walk ran out of stack
    code, out, _ = run(capsys, "--cap", "1000", "partitions", "--n", "1000", "--count-only")
    assert code == 0 and out.startswith("2989901335682408421") and len(out.strip()) == 1928
    # past Python's int-to-str limit of 4300 digits: a typed error naming the digit count
    code, out, err = run(capsys, "--cap", "2000", "partitions", "--n", "1981", "--count-only")
    assert code == 3 and out == "" and "4301 decimal digits" in err


def test_unwritable_out_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "--out", str(tmp_path / "missing" / "p.csv"),
                         "partitions", "--n", "3")
    assert code == 2 and out == "" and "No such file or directory" in err
