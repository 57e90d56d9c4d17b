"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output). The Monte Carlo batteries behind criteria 1-3 run once
per session through the fixtures in conftest.py and are shared with the
monotonicity and normalisation criteria.
"""

import json

import numpy as np
import pytest

from conftest import ACCEPTANCE_REPS, ACCEPTANCE_SEED, report_criterion
from msfactor.cli import main
from msfactor.em import m_step_loadings
from msfactor.io import save_panel_csv
from msfactor.metrics import trace_r2
from msfactor.oracle import equivalence_suite
from msfactor.pca import estimate_factor_space
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import RngHandle


class TestCriterion1TableOne:
    def test_table1_replication(self, table1_battery):
        results = table1_battery
        assert len(results) == ACCEPTANCE_REPS
        p11 = np.mean([r.p11_hat for r in results])
        p22 = np.mean([r.p22_hat for r in results])
        xi1 = np.mean([r.xi1_bar for r in results])
        r2 = np.mean([r.r2_bstar for r in results])
        mse = np.mean([r.mse_chi for r in results])
        ok = (
            0.87 <= p11 <= 0.93
            and 0.62 <= p22 <= 0.72
            and 0.72 <= xi1 <= 0.79
            and r2 >= 0.95
            and mse <= 0.05
        )
        report_criterion(
            1,
            "Table 1 replication (T=500, N=100, r=1)",
            ok,
            f"p11={p11:.4f} p22={p22:.4f} xi1={xi1:.4f} r2={r2:.4f} mse={mse:.4f}",
        )
        assert 0.87 <= p11 <= 0.93
        assert 0.62 <= p22 <= 0.72
        assert 0.72 <= xi1 <= 0.79
        assert r2 >= 0.95
        assert mse <= 0.05


class TestCriterion2TableTwo:
    def test_table2_spot_check(self, table2_battery):
        results = table2_battery
        p11 = np.mean([r.p11_hat for r in results])
        p22 = np.mean([r.p22_hat for r in results])
        r2 = np.mean([r.r2_bstar for r in results])
        ok = 0.87 <= p11 <= 0.93 and 0.63 <= p22 <= 0.73 and r2 >= 0.94
        report_criterion(
            2,
            "Table 2 spot check (T=750, rho_f=0.7, tau=0.5, rho=0.5)",
            ok,
            f"p11={p11:.4f} p22={p22:.4f} r2={r2:.4f}",
        )
        assert 0.87 <= p11 <= 0.93
        assert 0.63 <= p22 <= 0.73
        assert r2 >= 0.94


class TestCriterion3SmallTBias:
    def test_small_t_bias_direction(self, table3_batteries):
        p22_small = np.mean([r.p22_hat for r in table3_batteries[250]])
        p22_large = np.mean([r.p22_hat for r in table3_batteries[1000]])
        gap = p22_large - p22_small
        ok = gap >= 0.10
        report_criterion(
            3,
            "Table 3 small-T bias (r=2: p22 at T=250 vs T=1000)",
            ok,
            f"p22(250)={p22_small:.4f} p22(1000)={p22_large:.4f} gap={gap:.4f} "
            f"(required >= 0.10)",
        )
        # The downward-bias direction reproduces (the gap is positive on
        # every seed tried), but its magnitude stays near 0.06. Of the
        # T=250 shortfall, the stopping rule accounts for ~0.001
        # (epsilon = 1e-12 gives a gap of 0.0606) and PCA for ~0.01 (the
        # true stacked factors give p22 = 0.6459). The rest comes from EM
        # stopping at a lower local maximum from the paper's start: from a
        # start built from the true states, p22 = 0.7007 and the log
        # likelihood is higher by a median of 97 in 19 of 20 replications.
        # Reaching that maximum would shrink the gap to ~0.004, so a 0.10
        # gap would need an estimator that lowers p22 at T=250 without
        # lowering the likelihood; none is known. The assertion is kept as
        # stated rather than weakened.
        assert gap >= 0.10


class TestCriterion4OracleEquivalence:
    def test_oracle_equivalence(self):
        dev = equivalence_suite(instances=200, seed=ACCEPTANCE_SEED)
        worst = max(dev.values())
        ok = worst < 1e-9
        report_criterion(
            4,
            "Oracle equivalence (200 random instances)",
            ok,
            f"max deviations: loglik={dev['loglik']:.2e} "
            f"smoothed={dev['smoothed']:.2e} cross={dev['cross']:.2e}",
        )
        assert worst < 1e-9


class TestCriterion5Monotonicity:
    def test_em_monotonicity(self, table1_battery, table2_battery, table3_batteries):
        everything = (
            list(table1_battery)
            + list(table2_battery)
            + list(table3_batteries[250])
            + list(table3_batteries[1000])
        )
        violations = 0
        worst = 0.0
        for res in everything:
            trace = np.array(res.loglik_trace)
            if len(trace) > 1:
                smallest = float(np.diff(trace).min())
                worst = min(worst, smallest)
                if smallest < -1e-6:
                    violations += 1
        ok = violations == 0
        report_criterion(
            5,
            f"EM monotonicity over {len(everything)} replications",
            ok,
            f"violations={violations}, worst per-step decrease={worst:.3e}",
        )
        assert violations == 0


class TestCriterion6Normalisation:
    def test_probability_normalisation(self, table1_battery, table2_battery, table3_batteries):
        everything = (
            list(table1_battery)
            + list(table2_battery)
            + list(table3_batteries[250])
            + list(table3_batteries[1000])
        )
        norm_dev = max(res.norm_deviation for res in everything)
        marg_dev = max(res.marginal_deviation for res in everything)
        ok = norm_dev < 1e-10 and marg_dev < 1e-10
        report_criterion(
            6,
            "Probability normalisation across all runs",
            ok,
            f"max |row sum - 1|={norm_dev:.3e}, max marginalisation dev={marg_dev:.3e}",
        )
        assert norm_dev < 1e-10
        assert marg_dev < 1e-10


class TestCriterion7SpanInvariance:
    def test_span_invariance(self):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        worst = 0.0
        for _ in range(50):
            b_hat = rng.standard_normal((40, 3))
            b_star = rng.standard_normal((40, 3))
            m = rng.standard_normal((3, 3))
            while abs(np.linalg.det(m)) < 1e-2:
                m = rng.standard_normal((3, 3))
            worst = max(worst, abs(trace_r2(b_hat @ m, b_star) - trace_r2(b_hat, b_star)))
        ok = worst < 1e-10
        report_criterion(
            7,
            "Span invariance of the loading trace-R2 (50 random pairs)",
            ok,
            f"max |R2(BM) - R2(B)| = {worst:.3e}",
        )
        assert worst < 1e-10


class TestCriterion8MStepOracle:
    def test_m_step_matches_subsample_ols(self):
        worst = 0.0
        for rep in range(10):
            truth = simulate_panel(
                SimConfig(n=30, t=300, r=1), RngHandle(seed=ACCEPTANCE_SEED, stream=rep)
            )
            fs = estimate_factor_space(truth.panel, k=2)
            b1, b2 = m_step_loadings(truth.panel, fs.g_hat, truth.xi)
            for b, state in [(b1, 1), (b2, 2)]:
                rows = truth.states == state
                ols = np.linalg.lstsq(
                    fs.g_hat[rows], truth.panel.data[rows], rcond=None
                )[0].T
                worst = max(worst, float(np.abs(b - ols).max()))
        ok = worst < 1e-10
        report_criterion(
            8,
            "M-step loadings vs subsample OLS oracle (10 panels)",
            ok,
            f"max elementwise deviation = {worst:.3e}",
        )
        assert worst < 1e-10


class TestCriterion9Determinism:
    def test_cli_byte_identical_and_parallel_serial(self, tmp_path):
        sim_args = ["simulate", "--n", "15", "--t", "60", "--r", "1", "--seed", "5"]
        main(sim_args + ["--out", str(tmp_path / "sim_a")])
        main(sim_args + ["--out", str(tmp_path / "sim_b")])
        sim_ok = all(
            (tmp_path / "sim_a" / name).read_bytes() == (tmp_path / "sim_b" / name).read_bytes()
            for name in ["panel.csv", "states.csv", "factors.csv", "loadings.json"]
        )

        est_args = [
            "estimate", "--input", str(tmp_path / "sim_a" / "panel.csv"), "--k", "2",
        ]
        main(est_args + ["--out", str(tmp_path / "est_a")])
        main(est_args + ["--out", str(tmp_path / "est_b")])
        est_ok = all(
            (tmp_path / "est_a" / name).read_bytes() == (tmp_path / "est_b" / name).read_bytes()
            for name in ["params.json", "series.csv"]
        )

        mc_args = [
            "montecarlo", "--n", "20", "--t", "80", "--r", "1",
            "--reps", "4", "--seed", "5",
        ]
        main(mc_args + ["--jobs", "1", "--out", str(tmp_path / "mc_serial")])
        main(mc_args + ["--jobs", "2", "--out", str(tmp_path / "mc_parallel")])
        mc_ok = (
            (tmp_path / "mc_serial" / "report.json").read_bytes()
            == (tmp_path / "mc_parallel" / "report.json").read_bytes()
        )

        ok = sim_ok and est_ok and mc_ok
        report_criterion(
            9,
            "Determinism: byte-identical reruns, serial == parallel",
            ok,
            f"simulate={sim_ok} estimate={est_ok} montecarlo={mc_ok}",
        )
        assert sim_ok and est_ok and mc_ok


class TestCriterion10EmpiricalShapeSmoke:
    def test_estimate_on_empirical_shape_panel(self, tmp_path):
        # the industry-portfolio application needs proprietary data; this
        # smoke test drives the same workflow on a simulated panel of the
        # matching 630 x 49 shape
        truth = simulate_panel(
            SimConfig(n=49, t=630, r=1), RngHandle(seed=ACCEPTANCE_SEED)
        )
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, truth.panel)
        out = tmp_path / "empirical"
        code = main(
            [
                "estimate",
                "--input", str(csv_path),
                "--k", "auto",
                "--k-max", "8",
                "--demean",
                "--out", str(out),
            ]
        )
        params = json.loads((out / "params.json").read_text())
        series_lines = (out / "series.csv").read_text().strip().splitlines()
        trans = np.array(params["transition"])
        ok = (
            code == 0
            and params["k"] >= 1
            and np.isfinite(trans).all()
            and np.abs(trans.sum(axis=1) - 1.0).max() < 1e-12
            and len(series_lines) == 631
            and np.isfinite(params["loglik"])
        )
        report_criterion(
            10,
            "Empirical workflow smoke test (simulated 630 x 49 panel)",
            ok,
            f"k={params['k']} iterations={params['iterations']} "
            f"converged={params['converged']} p11={trans[0, 0]:.4f}",
        )
        assert ok
