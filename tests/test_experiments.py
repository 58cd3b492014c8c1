import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from finfree import experiments
from finfree.cumulants import finite_cumulants, hermite_unitary_atilde, laguerre_hat
from finfree.errors import PrecisionBudgetError
from finfree.experiments import (
    MAX_WORKING_DIGITS,
    ExperimentConfig,
    ResultTable,
    Row,
    fit_rate,
    run_experiment,
    working_digits,
)
from finfree.polycalc import (
    MonicPoly,
    boxplus,
    boxtimes_pow,
    dilate,
    poly_to_json,
)
from finfree.freelimits import sigma_cumulant, sy_limit_t
from finfree.scalars import format_scalar
from finfree.series import PowerSeries


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json({"kind": "fms", "d": [10], "t": [1], "bogus": 1})

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope", d=(4,), t=(1.0,)).validate()

    def test_precision_floor(self):
        cfg = ExperimentConfig(kind="fms", d=(10,), t=(1.0,), precision=10)
        with pytest.raises(ValueError, match="15"):
            cfg.validate()

    def test_n_max_bounded_by_degree(self):
        cfg = ExperimentConfig(kind="fms", d=(4,), t=(1.0,), n_max=5)
        with pytest.raises(ValueError, match="n_max"):
            cfg.validate()

    def test_sy_needs_regime(self):
        cfg = ExperimentConfig(kind="sy", d=(10,), m=(5,))
        with pytest.raises(ValueError, match="regime"):
            cfg.validate()

    def test_grids_nonempty(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="hermite", d=(), t=(1.0,)).validate()

    def test_removed_knobs_refused(self):
        # lam (only 1 was accepted), format (the CLI's --format) and out (never
        # read) are not config fields
        base = {"kind": "sy", "d": [4], "m": [2], "regime": "t", "n_max": 2}
        for key, value in (("lam", 1.0), ("format", "json"), ("out", "table.csv")):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                ExperimentConfig.from_json({**base, key: value})

    def test_clt_needs_poly_or_sigma(self):
        for kind in ("multclt", "lln", "uclt"):
            with pytest.raises(ValueError, match="polynomial literal or sigma"):
                run_experiment(ExperimentConfig(kind=kind, m=[10], n_max=1))

    def test_non_finite_t_and_sigma_refused(self):
        with pytest.raises(ValueError, match="t grid entries must be finite"):
            ExperimentConfig(kind="fms", d=[10], t=[1.0, math.inf])
        with pytest.raises(ValueError, match="sigma must be finite"):
            ExperimentConfig(kind="multclt", m=[10], sigma=math.nan)
        # a literal scalar may be complex; t and sigma are real
        with pytest.raises(ValueError, match="t grid entries must be finite"):
            ExperimentConfig(kind="fms", d=[10], t=["1+1j"])
        with pytest.raises(ValueError, match="sigma must be finite"):
            ExperimentConfig(kind="multclt", m=[10], sigma="1j")

    def test_int_grids_take_only_integers(self):
        cfg = ExperimentConfig(kind="fms", d=[10], t=[1], n_max=2)
        assert cfg.d == (10,)
        for d in (10.0, 10.5):
            with pytest.raises(ValueError, match="d grid entries"):
                ExperimentConfig(kind="fms", d=[d], t=[1])


def _from_json(text: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(json.loads(text))


class TestConfigFields:
    """Each numeric field refuses a bool, naming the field; d, m, n_max and
    precision take only JSON integers, t and sigma parse like polynomial
    literal scalars."""

    def test_d(self):
        for d in ("[true]", '["10"]'):
            with pytest.raises(ValueError, match="d grid entries: a JSON integer"):
                _from_json(f'{{"kind": "fms", "d": {d}, "t": [1]}}')

    def test_m(self):
        with pytest.raises(ValueError, match="m grid entries: a JSON integer"):
            _from_json('{"kind": "multclt", "sigma": 1, "m": [true]}')

    def test_n_max(self):
        with pytest.raises(ValueError, match="n_max: a JSON integer"):
            _from_json('{"kind": "fms", "d": [10], "t": [1], "n_max": true}')

    def test_precision(self):
        with pytest.raises(ValueError, match="precision: a JSON integer"):
            _from_json('{"kind": "fms", "d": [10], "t": [1], "precision": true}')

    def test_t(self):
        with pytest.raises(ValueError, match="t grid entries .*booleans"):
            _from_json('{"kind": "fms", "d": [10], "t": [true]}')
        assert _from_json('{"kind": "fms", "d": [10], "t": ["1/2", 2]}').t == (0.5, 2.0)

    def test_sigma(self):
        with pytest.raises(ValueError, match="sigma .*booleans"):
            _from_json('{"kind": "multclt", "sigma": true, "m": [10]}')
        assert _from_json('{"kind": "multclt", "sigma": "3/4", "m": [10]}').sigma == 0.75


class TestDeterminism:
    def test_identical_config_identical_csv(self):
        def run():
            cfg = ExperimentConfig(kind="hermite", d=[25, 50], t=[0.5, 1.0], n_max=3)
            return run_experiment(cfg).to_csv()

        assert run() == run()

    def test_rows_sorted_by_grid_key(self):
        cfg = ExperimentConfig(kind="hermite", d=[50, 25], t=[1.0, 0.5], n_max=2)
        tab = run_experiment(cfg)
        keys = [(r.d, r.t, r.n) for r in tab.rows]
        assert keys == sorted(keys)


class TestSY:
    def test_small_exact_value(self):
        # d=2, m=2: second cumulant of the squared family is 3/2, value 3/4
        cfg = ExperimentConfig(kind="sy", d=[2], m=[2], n_max=2, regime="t")
        tab = run_experiment(cfg)
        row = [r for r in tab.rows if r.n == 2][0]
        assert float(row.value) == pytest.approx(0.75)
        assert row.t == pytest.approx(1.0)

    def test_harness_matches_explicit_construction(self):
        # the harness shortcut kappa_n(power)/m^(n-1) equals the literal
        # dilated additive fold on exact rational instances
        rng = random.Random(42)
        for d, m in ((3, 2), (5, 3), (6, 4)):
            coeffs = [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
            q = MonicPoly.from_coeffs(coeffs)
            kq = finite_cumulants(q)
            fold = q
            for _ in range(m - 1):
                fold = boxplus(fold, q)
            explicit = finite_cumulants(dilate(fold, Fraction(1, m)))
            for n in range(1, d + 1):
                assert explicit[n] == kq[n] / Fraction(m) ** (n - 1)

    def test_power_sequence_exactness(self):
        # harness values on the default family, computed in mpf, against the
        # exact cumulants of the direct polynomial power at small d
        d, m = 5, 4
        cfg = ExperimentConfig(kind="sy", d=[d], m=[m], n_max=3, regime="zero")
        tab = run_experiment(cfg)
        direct = finite_cumulants(boxtimes_pow(laguerre_hat(d, 1), m))
        for r in tab.rows:
            expect = direct[r.n] / Fraction(m) ** (r.n - 1)
            assert abs(float(r.value) - float(expect)) < 1e-40

    def test_user_family_hypothesis_checked(self):
        bad = poly_to_json(MonicPoly.from_roots([Fraction(1), Fraction(3)]))
        cfg = ExperimentConfig(kind="sy", d=[2], m=[2], poly=bad, regime="t", n_max=2)
        with pytest.raises(ValueError, match="hypothesis"):
            run_experiment(cfg)

    def test_user_family_accepted_with_note(self):
        good = poly_to_json(laguerre_hat(4, 1))
        cfg = ExperimentConfig(kind="sy", d=[4], m=[3], poly=good, regime="zero", n_max=2)
        tab = run_experiment(cfg)
        assert any("weak convergence" in n for n in tab.notes)

    def test_huge_m_runs(self):
        # no bound on m: the powers are taken in mpf at log10(m) more digits
        for m in (10 ** 9, 10 ** 40):
            tab = run_experiment(ExperimentConfig(kind="sy", d=[4], m=[m], n_max=2, regime="t"))
            assert [r.m for r in tab.rows] == [m, m] and tab.rows[0].t == m / 4
            assert all(r.rel_error < mp.mpf("1e-40") for r in tab.rows)

    def test_float_literal_reads_as_its_decimals(self):
        # a float root is the decimal it prints as, never a binary64 computation
        for floats, exact in (([0.5, 1.5], ["1/2", "3/2"]),
                              ([0.3, 0.7, 2.0], ["3/10", "7/10", "2"])):
            d = len(floats)
            tabs = [run_experiment(ExperimentConfig(kind="sy", d=[d], m=[3, 5, 7], n_max=2,
                                                    regime="t", poly={"roots": roots}))
                    for roots in (floats, exact)]
            assert tabs[0].to_json() == tabs[1].to_json()


class TestKappaFamilies:
    def test_hermite_n2_closed_form(self):
        d, t = 50, 1.0
        cfg = ExperimentConfig(kind="hermite", d=[d], t=[t], n_max=2)
        tab = run_experiment(cfg)
        row = [r for r in tab.rows if r.n == 2][0]
        with mp.workdps(50):
            expect = -d * mp.exp(-mp.mpf(t)) * mp.exp(mp.mpf(t) / d) * (mp.exp(mp.mpf(t) / d) - 1)
        assert abs(row.value - expect) < mp.mpf("1e-40")

    def test_fms_n1_value(self):
        d, t = 40, 0.7
        cfg = ExperimentConfig(kind="fms", d=[d], t=[t], n_max=1)
        tab = run_experiment(cfg)
        with mp.workdps(50):
            expect = mp.exp(mp.mpf(t) * (d - 1) / (2 * d))
        assert abs(tab.rows[0].value - expect) < mp.mpf("1e-40")

    def test_laguerre_m_recorded(self):
        cfg = ExperimentConfig(kind="laguerre", d=[40], t=[0.5], n_max=2)
        tab = run_experiment(cfg)
        assert all(r.m == 20 for r in tab.rows)

    def test_law_column_once_per_t(self, monkeypatch):
        cfg = ExperimentConfig(kind="hermite", d=[10, 20, 40], t=[0.5, 1.0], n_max=3)
        want = run_experiment(cfg).rows
        calls, columns = [], []

        def law(n, t, w):
            calls.append((n, t))
            return sigma_cumulant(n, t, w)

        def atilde(d, t, k_max, w):
            columns.append((d, t, k_max))
            return hermite_unitary_atilde(d, t, k_max, w)
        monkeypatch.setitem(experiments._KINDS, "hermite",
                            (("d", "t"), experiments._law_points(atilde, law)))
        assert run_experiment(cfg).rows == want
        assert sorted(calls) == sorted((n, t) for t in (0.5, 1.0) for n in (1, 2, 3))
        # one coefficient column per grid point, up to atilde_n_max
        assert sorted(columns) == sorted((d, t, 3) for d in (10, 20, 40) for t in (0.5, 1.0))

    def test_sy_reference_column_takes_one_series_log(self, monkeypatch):
        logs, per_column = [], []
        log = PowerSeries.log
        monkeypatch.setattr(PowerSeries, "log", lambda self: logs.append(self.order) or log(self))

        def reference_column(*args, **kwargs):
            before = len(logs)
            out = sy_limit_t(*args, **kwargs)
            per_column.append(len(logs) - before)
            return out
        monkeypatch.setattr(experiments, "sy_limit_t", reference_column)
        run_experiment(ExperimentConfig(kind="sy", d=[20], m=[20], n_max=8, regime="t"))
        assert per_column == [1]  # n_max logs with one series per n

    def test_laguerre_huge_t_runs(self):
        # m = round(t d) from the decimal t: an exact int past the binary64 range
        tab = run_experiment(ExperimentConfig(kind="laguerre", d=[4], t=[1e308], n_max=2))
        assert [r.m for r in tab.rows] == [4 * 10 ** 308] * 2
        tab = run_experiment(ExperimentConfig(kind="laguerre", d=[10], t=[0.15], n_max=2))
        assert [r.m for r in tab.rows] == [2, 2]

    def test_working_digits_rule(self):
        def w(**cfg):
            return working_digits(ExperimentConfig(**cfg))

        # precision + ceil((n_max - 1) log10 d_max) + ceil(log10 m_max) + 10
        assert w(kind="fms", d=[50, 400], t=[1.0], n_max=16, precision=80) == 80 + 40 + 10
        assert w(kind="hermite", d=[10 ** 6], t=[1.0], n_max=5, precision=15) == 49
        assert w(kind="laguerre", d=[6], t=[5e4], n_max=2) == 50 + 1 + 6 + 10
        assert w(kind="sy", d=[100], m=[10, 1000], n_max=3, regime="t") == 50 + 4 + 3 + 10
        # the CLT kinds run no cumulant transform
        assert w(kind="lln", m=[100, 10 ** 4], sigma=1.0, n_max=3) == 50 + 4 + 10

    def test_budget_hard_error(self):
        # w at the bound runs; one digit past it is refused, naming the bound
        cfg = dict(kind="fms", d=[10], t=[1.0], n_max=2)
        tab = run_experiment(ExperimentConfig(**cfg, precision=MAX_WORKING_DIGITS - 11))
        assert len(tab.rows) == 2
        with pytest.raises(PrecisionBudgetError, match=f"bound of {MAX_WORKING_DIGITS} digits"):
            run_experiment(ExperimentConfig(**cfg, precision=MAX_WORKING_DIGITS - 10))

    def test_printed_digits_match_a_rerun(self):
        # every printed digit is right: a rerun at w + 20 prints the same
        configs = [dict(kind="hermite", d=[400], t=[1.0], n_max=16),
                   dict(kind="fms", d=[400], t=[1.0], n_max=16),
                   dict(kind="laguerre", d=[6], t=[5e4], n_max=2),
                   dict(kind="sy", d=[16], m=[10 ** 4], n_max=16, regime="t")]
        for cfg in configs:
            tab = run_experiment(ExperimentConfig(**cfg, precision=50))
            rerun = run_experiment(ExperimentConfig(**cfg, precision=70))
            for a, b in zip(tab.rows, rerun.rows):
                for col in ("value", "reference", "abs_error"):
                    a_col, b_col = getattr(a, col), getattr(b, col)
                    assert format_scalar(a_col, 50) == format_scalar(b_col, 50)


class TestCoeffFamilies:
    def test_multclt_cosh_identity(self):
        sigma, m = 1.0, 10 ** 4
        cfg = ExperimentConfig(kind="multclt", m=[m], sigma=sigma, d=[2], n_max=1)
        tab = run_experiment(cfg)
        row = [r for r in tab.rows if r.n == 1][0]
        with mp.workdps(50):
            expect = mp.cosh(mp.mpf(sigma) / mp.sqrt(m)) ** m
            target = mp.exp(mp.mpf(sigma) ** 2 / 2)
        assert abs(row.value - expect) < mp.mpf("1e-40")
        assert abs(row.reference - target) < mp.mpf("1e-40")

    def test_uclt_cos_identity(self):
        sigma, m = 1.0, 10 ** 4
        cfg = ExperimentConfig(kind="uclt", m=[m], sigma=sigma, d=[2], n_max=1)
        tab = run_experiment(cfg)
        row = [r for r in tab.rows if r.n == 1][0]
        with mp.workdps(50):
            expect = mp.cos(mp.mpf(sigma) / mp.sqrt(m)) ** m
        assert abs(row.value - expect) < mp.mpf("1e-40")

    def test_lln_targets(self):
        # the target exp(k * mean log root) is 2^k, the geometric mean 2 to the k
        roots = [1.0, 2.0, 4.0]
        cfg = ExperimentConfig(kind="lln", m=[10 ** 5], poly={"roots": roots}, n_max=1, d=[3])
        tab = run_experiment(cfg)
        for r in tab.rows:
            assert abs(r.reference - 2 ** r.n) < mp.mpf("1e-40")
            assert float(r.abs_error) < 1e-3

    def test_lln_top_row_at_precision_floor(self):
        # atilde_d^m is exactly the target exp(d * mean) for every m, so the
        # k = d row carries only rounding and gets no rate
        roots = [0.5, 1.0, 2.0, 3.0, 0.25, 4.0]
        cfg = ExperimentConfig(kind="lln", m=[100, 1000, 10000], poly={"roots": roots}, n_max=6)
        tab = run_experiment(cfg)
        top = [r for r in tab.rows if r.n == 6]
        assert len(top) == 3 and all(r.abs_error < mp.mpf("1e-45") for r in top)
        assert ("lln", 6) not in tab.rates
        assert "rate fit: 3 row(s) at the precision floor were excluded" in tab.notes
        assert all(-1.1 < tab.rates[("lln", k)] < -0.9 for k in range(1, 6))

    def test_lln_logs_taken_in_mpf(self):
        # log 2 and log 1 at the working digits: the n = 2 target is exp(log 2)
        cfg = ExperimentConfig(kind="lln", m=[10], poly={"roots": [2.0, 1.0]}, n_max=2)
        rows = run_experiment(cfg).to_json()["rows"]
        assert [r["reference"] for r in rows if r["n"] == 2] == ["2.0"]

    def test_centering_enforced(self):
        cfg = ExperimentConfig(kind="multclt", m=[100], poly={"roots": [1.0, 3.0]}, n_max=1, d=[2])
        with pytest.raises(ValueError, match="centered"):
            run_experiment(cfg)

    def test_degree_conflict(self):
        cfg = ExperimentConfig(kind="uclt", m=[100], sigma=0.5, d=[5], n_max=1)
        with pytest.raises(ValueError, match="conflicts"):
            run_experiment(cfg)


class TestRateFit:
    def test_known_slope(self):
        tab = ResultTable(precision=50)
        for d in (10, 20, 40, 80):
            err = mp.mpf(5) / d  # exact 1/d decay
            tab.rows.append(Row("fms", d, None, 1.0, 2, mp.mpf(1), mp.mpf(1), err, err))
        rates = fit_rate(tab, "d")
        assert rates[("fms", 2)] == pytest.approx(-1.0, abs=1e-9)

    def test_too_few_points(self):
        tab = ResultTable(precision=50)
        for d in (10, 20):
            tab.rows.append(Row("fms", d, None, 1.0, 2, mp.mpf(1), mp.mpf(1), mp.mpf(0.1), mp.mpf(0.1)))
        assert fit_rate(tab, "d")[("fms", 2)] is None

    def test_floor_rows_excluded_with_note(self):
        tab = ResultTable(precision=50)
        for d in (10, 20, 40, 80):
            tab.rows.append(Row("fms", d, None, 1.0, 2, mp.mpf(1), mp.mpf(1), mp.mpf(1) / d, None))
        tab.rows.append(Row("fms", 160, None, 1.0, 2, mp.mpf(1), mp.mpf(1), mp.mpf("1e-49"), None))
        rates = fit_rate(tab, "d")
        assert rates[("fms", 2)] == pytest.approx(-1.0, abs=1e-9)
        assert any("precision floor" in n for n in tab.notes)

    def test_errors_below_binary64_range(self):
        tab = ResultTable(precision=500)
        for d in (10, 20, 40, 80):
            err = mp.mpf("5e-400") / d
            tab.rows.append(Row("fms", d, None, 1.0, 2, mp.mpf(1), mp.mpf(1), err, err))
        rates = fit_rate(tab, "d")
        assert rates[("fms", 2)] == pytest.approx(-1.0, abs=1e-9)

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            fit_rate(ResultTable(), "t")


class TestTableOutput:
    def test_csv_shape(self):
        cfg = ExperimentConfig(kind="hermite", d=[25], t=[1.0], n_max=2)
        tab = run_experiment(cfg)
        lines = tab.to_csv().splitlines()
        assert lines[0] == "kind,d,m,t,n,value,reference,abs_error,rel_error"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 3  # header + 2 rows
        cells = body[1].split(",")
        assert cells[0] == "hermite" and cells[1] == "25" and cells[2] == ""

    def test_csv_body_is_the_json_rows(self):
        # one config per kind; a null cell is empty, a float t prints as its repr
        configs = [
            dict(kind="sy", d=[6, 8], m=[3, 4], regime="t", n_max=3),
            dict(kind="multclt", m=[10, 100], sigma=0.5),
            dict(kind="lln", m=[10, 100], poly={"roots": [1.0, 2.0, 4.0]}),
            dict(kind="uclt", m=[10, 100], sigma=0.3),
            dict(kind="fms", d=[10, 20], t=[0.5], n_max=2),
            dict(kind="hermite", d=[10], t=[0.5, 1.0], n_max=2),
            dict(kind="laguerre", d=[10, 20], t=[0.5], n_max=2),
        ]
        for cfg in configs:
            tab = run_experiment(ExperimentConfig(**cfg))
            rows = tab.to_json()["rows"]
            lines = tab.to_csv().splitlines()
            header = lines[0].split(",")
            body = [l.split(",") for l in lines[1:] if not l.startswith("#")]
            assert len(body) == len(rows) > 0
            for cells, row in zip(body, rows):
                assert cells == ["" if row[c] is None else str(row[c]) for c in header]
                assert cells[3] == ("" if row["t"] is None else repr(row["t"]))

    def test_json_mirrors_rows(self):
        cfg = ExperimentConfig(kind="hermite", d=[25], t=[1.0], n_max=2)
        tab = run_experiment(cfg)
        obj = tab.to_json()
        assert len(obj["rows"]) == 2
        assert set(obj["rows"][0]) == {
            "kind", "d", "m", "t", "n", "value", "reference", "abs_error", "rel_error"
        }
        assert "rates" in obj and "notes" in obj
