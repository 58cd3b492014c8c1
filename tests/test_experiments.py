import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from finfree.cumulants import finite_cumulants, laguerre_hat
from finfree.errors import PrecisionBudgetError
from finfree.experiments import (
    ExperimentConfig,
    ResultTable,
    Row,
    fit_rate,
    run_experiment,
)
from finfree.polycalc import (
    MonicPoly,
    boxplus_fold,
    boxtimes_pow,
    dilate,
    poly_to_json,
)


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

    def test_int_grid_coercion(self):
        cfg = ExperimentConfig(kind="fms", d=[10.0], t=[1], n_max=2)
        assert cfg.d == (10,)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="fms", d=[10.5], t=[1])


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
            explicit = finite_cumulants(dilate(boxplus_fold([q] * m), Fraction(1, m)))
            for n in range(1, d + 1):
                assert explicit[n] == kq[n] / Fraction(m) ** (n - 1)

    def test_power_sequence_exactness(self):
        # harness values on the default family are exact rationals:
        # compare against the direct polynomial power at small d
        d, m = 5, 4
        cfg = ExperimentConfig(kind="sy", d=[d], m=[m], n_max=3, regime="zero")
        tab = run_experiment(cfg)
        direct = finite_cumulants(boxtimes_pow(laguerre_hat(d, 1), m))
        for r in tab.rows:
            expect = direct[r.n] / Fraction(m) ** (r.n - 1)
            assert abs(float(r.value) - float(expect)) < 1e-40

    def test_lam_must_be_one(self):
        cfg = ExperimentConfig(kind="sy", d=[4], m=[2], lam=2.0, regime="t", n_max=2)
        with pytest.raises(ValueError, match="lam"):
            run_experiment(cfg)

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

    def test_budget_hard_error(self):
        cfg = ExperimentConfig(kind="fms", d=[10 ** 6], t=[1.0], n_max=5, precision=15)
        with pytest.raises(PrecisionBudgetError):
            run_experiment(cfg)

    def test_budget_warning_note(self):
        cfg = ExperimentConfig(kind="fms", d=[10 ** 4], t=[1.0], n_max=4, precision=20)
        tab = run_experiment(cfg)
        assert any("precision warning" in n for n in tab.notes)


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
        roots = [1.0, 2.0, 4.0]
        alpha = sum(math.log(r) for r in roots) / 3
        cfg = ExperimentConfig(kind="lln", m=[10 ** 5], poly={"roots": roots}, n_max=1, d=[3])
        tab = run_experiment(cfg)
        for r in tab.rows:
            with mp.workdps(50):
                assert abs(r.reference - mp.exp(mp.mpf(alpha) * r.n)) < mp.mpf("1e-40")
            assert float(r.abs_error) < 1e-3

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

    def test_json_mirrors_rows(self):
        cfg = ExperimentConfig(kind="hermite", d=[25], t=[1.0], n_max=2)
        tab = run_experiment(cfg)
        obj = tab.to_json()
        assert len(obj["rows"]) == 2
        assert set(obj["rows"][0]) == {
            "kind", "d", "m", "t", "n", "value", "reference", "abs_error", "rel_error"
        }
        assert "rates" in obj and "notes" in obj
