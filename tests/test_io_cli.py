import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfactor
from msfactor.cli import main
from msfactor.em import EmConfig, run_em
from msfactor.exceptions import (
    CsvParseError,
    InvalidArgumentError,
    NonFiniteError,
    TooSmallError,
)
from msfactor.io import (
    load_panel_csv,
    parse_config_file,
    save_panel_csv,
    write_json,
)
from msfactor.pca import estimate_factor_space
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import RngHandle, validate_panel


class TestPanelCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        truth = simulate_panel(SimConfig(n=12, t=40, r=1), RngHandle(seed=0))
        path = tmp_path / "panel.csv"
        save_panel_csv(path, truth.panel)
        loaded = load_panel_csv(path)
        assert np.array_equal(loaded.data, truth.panel.data)

    def test_header_and_date_column(self, tmp_path):
        path = tmp_path / "dated.csv"
        path.write_text("date,a,b\n2001-01,1.5,2.5\n2001-02,3.5,4.5\n")
        panel = load_panel_csv(path)
        assert panel.t_len == 2 and panel.n_len == 2
        assert panel.data[0, 0] == 1.5

    def test_numeric_first_header_keeps_all_columns(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n1.0,2.0\n3.0,4.0\n")
        panel = load_panel_csv(path)
        assert panel.n_len == 2
        assert panel.data[1, 1] == 4.0

    def test_parse_error_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,abc\n")
        with pytest.raises(CsvParseError) as err:
            load_panel_csv(path)
        assert err.value.row == 4 and err.value.col == 3

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,a,b\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(CsvParseError) as err:
            load_panel_csv(path)
        assert err.value.row == 3

    def test_block_parse_matches_cell_parse(self, tmp_path):
        # magnitudes from 1e-300 to 1e300 exercise every repr form
        truth = simulate_panel(SimConfig(n=30, t=50, r=1), RngHandle(seed=4))
        rng = np.random.default_rng(4)
        data = truth.panel.data * 10.0 ** rng.integers(-300, 300, truth.panel.data.shape)
        path = tmp_path / "panel.csv"
        save_panel_csv(path, validate_panel(data))
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        reference = np.array([[float(cell) for cell in row[1:]] for row in rows])
        loaded = load_panel_csv(path).data
        assert loaded.dtype == reference.dtype and loaded.shape == reference.shape
        assert loaded.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        ("text", "row", "col", "message"),
        [
            # the first problem in file order wins: a bad cell before a short row
            ("t,a,b\n1,1.0,2.0\n2,x,4.0\n3,5.0\n", 3, 2, "cannot parse 'x' at row 3, col 2"),
            # a short row before a bad cell
            ("t,a,b\n1,1.0\n2,x,4.0\n", 2, 3, "row 2 has 2 cells, header has 3"),
            # every row one cell short parses as a block of the wrong width
            ("t,a,b\n1,1.0\n2,3.0\n", 2, 3, "row 2 has 2 cells, header has 3"),
            # a long row
            ("a,b\n1.0,2.0\n3.0,4.0,5.0\n", 3, 3, "row 3 has 3 cells, header has 2"),
            # an empty cell, no date column
            ("a,b\n1.0,2.0\n3.0,\n", 3, 2, "cannot parse '' at row 3, col 2"),
        ],
    )
    def test_error_coordinates(self, tmp_path, text, row, col, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError) as err:
            load_panel_csv(path)
        assert (err.value.row, err.value.col) == (row, col)
        assert str(err.value) == f"{path}: {message}"

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,a,b\n1,1.0,nan\n2,3.0,4.0\n")
        with pytest.raises(NonFiniteError):
            load_panel_csv(path)

    def test_too_small_rejected(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("t,a,b\n1,1.0,2.0\n")
        with pytest.raises(TooSmallError):
            load_panel_csv(path)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "n = 40\n"
            "rho-f = 0.7   # inline comment\n"
            "\n"
            "demean = true\n"
        )
        cfg = parse_config_file(path)
        assert cfg == {"n": "40", "rho_f": "0.7", "demean": "true"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a setting\n")
        with pytest.raises(InvalidArgumentError):
            parse_config_file(path)


class TestWriteJson:
    def test_floats_round_trip(self, tmp_path):
        payload = {"value": 0.1 + 0.2, "vector": [1.0 / 3.0, 2.0 / 3.0]}
        path = tmp_path / "out.json"
        write_json(path, payload)
        loaded = json.loads(path.read_text())
        assert loaded["value"] == payload["value"]
        assert loaded["vector"] == payload["vector"]


class TestCliSimulate:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--n", "10", "--t", "30", "--r", "1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        for name in ["panel.csv", "states.csv", "factors.csv", "common.csv",
                     "idiosyncratic.csv", "loadings.json"]:
            assert (out / name).exists()
        panel = load_panel_csv(out / "panel.csv")
        assert panel.t_len == 30 and panel.n_len == 10

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--n", "8", "--t", "20", "--r", "1", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ["panel.csv", "states.csv", "loadings.json"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCliEstimate:
    def test_matches_in_memory_pipeline(self, tmp_path):
        truth = simulate_panel(SimConfig(n=20, t=120, r=1), RngHandle(seed=4))
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, truth.panel)
        out = tmp_path / "est"
        code = main(["estimate", "--input", str(csv_path), "--k", "2", "--out", str(out)])
        assert code == 0

        fs = estimate_factor_space(truth.panel, k=2)
        expected = run_em(truth.panel, fs, EmConfig())
        written = json.loads((out / "params.json").read_text())
        assert written["k"] == 2
        assert np.array_equal(np.array(written["transition"]), expected.params.trans.p)
        assert np.array_equal(np.array(written["loadings_regime1"]), expected.params.b1)
        assert written["iterations"] == expected.iterations

    def test_demean_flag(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 1.0, (100, 8))
        lam = rng.standard_normal(8)
        data += np.outer(rng.standard_normal(100), lam) * 2.0
        csv_path = tmp_path / "panel.csv"
        from msfactor.types import validate_panel

        save_panel_csv(csv_path, validate_panel(data))
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(csv_path), "--k", "2", "--demean", "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "params.json").read_text())["demeaned"] is True

    def test_auto_k_selects_two_on_simulated_panel(self, tmp_path):
        truth = simulate_panel(SimConfig(n=60, t=300, r=1), RngHandle(seed=6))
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, truth.panel)
        out = tmp_path / "est"
        main(["estimate", "--input", str(csv_path), "--k", "auto", "--out", str(out)])
        assert json.loads((out / "params.json").read_text())["k"] == 2

    def test_series_csv_shape(self, tmp_path):
        truth = simulate_panel(SimConfig(n=15, t=50, r=1), RngHandle(seed=7))
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, truth.panel)
        out = tmp_path / "est"
        main(["estimate", "--input", str(csv_path), "--k", "2", "--out", str(out)])
        lines = (out / "series.csv").read_text().strip().splitlines()
        assert lines[0] == "t,smoothed1,smoothed2,g1,g2,xi1_g1,xi1_g2,xi2_g1,xi2_g2"
        assert len(lines) == 51

    def test_constant_panel(self, tmp_path, capsys):
        # a zero sample variance used to give a zero variance floor and an
        # "idiosyncratic variances must be strictly positive" exit
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, validate_panel(np.full((60, 3), 2.5)))
        out = tmp_path / "est"
        code = main(["estimate", "--input", str(csv_path), "--k", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        written = json.loads((out / "params.json").read_text())
        assert written["converged"] is True
        assert np.diff(written["loglik_trace"]).min() >= 0.0

    def test_runs_em_on_one_blas_thread(self, tmp_path, monkeypatch):
        from msfactor import cli
        from msfactor.blas import openblas_controls

        controls = openblas_controls()
        seen = []

        def recording_run_em(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return run_em(*args, **kwargs)

        monkeypatch.setattr(cli, "run_em", recording_run_em)
        truth = simulate_panel(SimConfig(n=15, t=50, r=1), RngHandle(seed=7))
        csv_path = tmp_path / "panel.csv"
        save_panel_csv(csv_path, truth.panel)
        before = [get() for get, _ in controls]
        main(["estimate", "--input", str(csv_path), "--k", "2", "--out", str(tmp_path / "est")])
        assert seen == [[1] * len(controls)]
        assert [get() for get, _ in controls] == before


class TestCliMonteCarlo:
    BASE = [
        "montecarlo", "--n", "20", "--t", "80", "--r", "1",
        "--reps", "3", "--seed", "11",
    ]

    def test_report_schema(self, tmp_path):
        out = tmp_path / "mc"
        code = main(self.BASE + ["--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["columns"] == [
            "p11_hat", "p22_hat", "xi1_bar", "xi2_bar", "r2_bstar", "mse_chi", "avg_iter"
        ]
        assert report["replications"] == 3
        assert len(report["per_replication"]) == 3

    def test_serial_equals_parallel(self, tmp_path):
        main(self.BASE + ["--jobs", "1", "--out", str(tmp_path / "serial")])
        main(self.BASE + ["--jobs", "2", "--out", str(tmp_path / "parallel")])
        serial = (tmp_path / "serial" / "report.json").read_bytes()
        parallel = (tmp_path / "parallel" / "report.json").read_bytes()
        assert serial == parallel

    def test_single_replication_has_zero_std(self, tmp_path):
        out = tmp_path / "one"
        main(["montecarlo", "--n", "20", "--t", "80", "--r", "1",
              "--reps", "1", "--seed", "2", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert all(v == 0.0 for v in report["std"].values())

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("n = 20\nt = 80\nr = 1\nreps = 2\nseed = 11\n")
        out_a = tmp_path / "a"
        main(["montecarlo", "--config", str(cfg), "--out", str(out_a)])
        report = json.loads((out_a / "report.json").read_text())
        assert report["replications"] == 2
        # flag overrides the file value
        out_b = tmp_path / "b"
        main(["montecarlo", "--config", str(cfg), "--reps", "3", "--out", str(out_b)])
        assert json.loads((out_b / "report.json").read_text())["replications"] == 3

    @pytest.mark.parametrize(("flag", "name"), [("--jobs", "jobs"), ("--reps", "replications")])
    def test_rejected_count_is_one_stderr_line(self, tmp_path, capsys, flag, name):
        # a repeated flag takes its last value, so "--reps 0" overrides BASE
        assert main(self.BASE + [flag, "0", "--out", str(tmp_path / "mc")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"msfactor montecarlo: error: {name} must be >= 1, got 0\n"
        assert not (tmp_path / "mc" / "report.json").exists()


class TestCliRejectsSettings:
    """A bad setting from any source ends in one stderr line and status 2."""

    @staticmethod
    def _run(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.err

    def test_sim_config(self, tmp_path, capsys):
        code, err = self._run(
            capsys, ["montecarlo", "--reps", "1", "--tau", "1.5", "--out", str(tmp_path)]
        )
        assert code == 2
        assert err == "msfactor montecarlo: error: tau must lie in [0, 1)\n"

    def test_em_config(self, tmp_path, capsys):
        code, err = self._run(
            capsys, ["montecarlo", "--reps", "1", "--max-iter", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert err == "msfactor montecarlo: error: max_iter must be >= 1\n"

    def test_config_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 20\n")
        code, err = self._run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == f"msfactor simulate: error: {cfg}:1: expected 'key = value', got 'n 20'\n"

    def test_config_file_boolean(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        save_panel_csv(panel, simulate_panel(SimConfig(n=10, t=40), RngHandle(seed=0)).panel)
        cfg = tmp_path / "est.cfg"
        cfg.write_text("demean = maybe\n")
        code, err = self._run(
            capsys,
            ["estimate", "--config", str(cfg), "--input", str(panel), "--out", str(tmp_path / "e")],
        )
        assert code == 2
        assert err == "msfactor estimate: error: cannot interpret 'maybe' as a boolean\n"
        assert not (tmp_path / "e" / "params.json").exists()

    @pytest.mark.parametrize(
        ("line", "message"),
        [("n = abc", "n = 'abc' is not a valid int"), ("p11 = high", "p11 = 'high' is not a valid float")],
        ids=["int", "float"],
    )
    def test_config_file_value(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, err = self._run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == f"msfactor simulate: error: {message}\n"

    def test_factor_count(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        save_panel_csv(panel, simulate_panel(SimConfig(n=10, t=40), RngHandle(seed=0)).panel)
        code, err = self._run(
            capsys, ["estimate", "--input", str(panel), "--k", "two", "--out", str(tmp_path / "e")]
        )
        assert code == 2
        assert err == "msfactor estimate: error: k = 'two' is not a valid int\n"

    def test_fewer_series_than_factors(self, tmp_path, capsys):
        code, err = self._run(
            capsys, ["simulate", "--n", "2", "--r", "3", "--t", "20", "--out", str(tmp_path)]
        )
        assert code == 2
        assert err == "msfactor simulate: error: need n >= r, got n=2, r=3\n"

    @pytest.mark.parametrize("mode", ["simulate", "montecarlo", "verify"])
    def test_negative_seed(self, tmp_path, capsys, mode):
        out = ["--out", str(tmp_path / "o")]
        extra = {"simulate": out, "montecarlo": ["--reps", "1", *out], "verify": []}[mode]
        code, err = self._run(capsys, [mode, "--seed", "-1", *extra])
        assert code == 2
        assert err == f"msfactor {mode}: error: seed must fit an unsigned 64-bit integer\n"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_simulate_without_out(self, capsys):
        code, err = self._run(capsys, ["simulate", "--n", "10", "--t", "40"])
        assert code == 2
        assert err == (
            "msfactor simulate: error: an output directory is required "
            "(--out or out= in the config)\n"
        )

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_input(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        code, err = self._run(capsys, ["estimate", "--input", path, "--out", str(tmp_path / "e")])
        assert code == 2
        assert err.startswith("msfactor estimate: error: ") and err.count("\n") == 1
        assert path in err

    def test_missing_config(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.cfg")
        code, err = self._run(capsys, ["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert err.startswith("msfactor simulate: error: ") and err.count("\n") == 1
        assert cfg in err


class TestCliVerify:
    def test_verify_passes(self, capsys):
        code = main(["verify", "--instances", "20", "--seed", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_rejected(self, capsys, instances):
        code = main(["verify", "--instances", instances])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"msfactor verify: error: instances must be >= 1, got {instances}\n"
        assert "PASS" not in captured.out


def _modules_after_cli_import() -> list[str]:
    """Names in ``sys.modules`` of a fresh interpreter after ``import msfactor.cli``."""
    src = str(Path(msfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import json, sys, msfactor.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def test_cli_import_leaves_scipy_out():
    assert [m for m in _modules_after_cli_import() if m.startswith("scipy")] == []


def test_cli_import_leaves_process_pool_out():
    # only a Monte Carlo run with jobs > 1 needs the pool, and it alone
    # preloads numpy.random for its workers
    modules = _modules_after_cli_import()
    assert "concurrent.futures.process" not in modules
    assert "multiprocessing" not in modules
    assert "numpy.random" not in modules
