import json

from finfree import cli
from finfree.cumulants import finite_cumulants
from finfree.errors import RootConvergenceError
from finfree.polycalc import MonicPoly


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

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "partitions", "--n", "13", "--count-only")
        assert code == 3
        assert "cap" in err

    def test_cap_override(self, capsys):
        code, _, err = run(capsys, "--cap", "4", "partitions", "--n", "5", "--count-only")
        assert code == 3 and "cap 4" in err
        code, out, _ = run(capsys, "--cap", "5", "partitions", "--n", "5", "--count-only")
        assert code == 0 and out.strip() == "52"


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

    def test_degree_mismatch_exit_2(self, capsys):
        code, _, err = run(
            capsys, "conv", "boxplus", "--p", '{"roots": [1]}', "--q", '{"roots": [1, 2]}'
        )
        assert code == 2


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

    def test_kind_flag_conflict(self, capsys):
        code, _, _ = run(
            capsys, "limit", "--kind", "fms",
            "--config", '{"kind": "hermite", "d": [10], "t": [1.0], "n_max": 2}',
        )
        assert code == 2

    def test_precision_infeasible_exit_3(self, capsys):
        code, _, err = run(
            capsys, "limit",
            "--config",
            '{"kind": "fms", "d": [1000000], "t": [1.0], "n_max": 5, "precision": 15}',
        )
        assert code == 3 and "precision" in err.lower()

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
