import hashlib
import json
import os
import subprocess
import sys
import time

from finfree import cli
from finfree.cumulants import finite_cumulants
from finfree.errors import RootConvergenceError
from finfree.polycalc import MonicPoly, boxplus, boxtimes, boxtimes_pow, poly_from_json


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
        # sha256 of the output of the restricted-growth-string walk over SetPartition
        pins = {
            ("--format", "json", "partitions", "--n", "9"):
                "aa903dab5e6ac12da0f0418230d0995dc7185c758cf2d5f84f290eaca60c25c0",
            ("--format", "csv", "partitions", "--n", "7", "--noncrossing"):
                "b5751f1bba0d1ca73ae84f9bdf27155756c4102dcd826879c1cb1fa3ba885209",
            ("--format", "json", "partitions", "--n", "8", "--noncrossing"):
                "657de94280a9841211c21b9741096769c2840956d22843dcc718a700e1be23ce",
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

    def test_invert_overflow_exit_3(self, capsys):
        p = '{"degree": 2, "cumulants": [1e300, 1e300]}'
        code, out, err = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 3 and out == "" and "exact strings" in err
        p = '{"degree": 2, "cumulants": ["1e300", "1e300"]}'
        code, out, _ = run(capsys, "cumulants", "--invert", "--p", p)
        assert code == 0 and json.loads(out)["coeffs"][1] == -2 * 10 ** 300


class TestLimitCommand:
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


def test_cli_import_leaves_numpy_unloaded():
    # a fresh interpreter, so modules imported by other tests do not count
    code = "import sys, finfree.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
