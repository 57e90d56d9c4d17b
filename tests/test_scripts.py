"""Smoke runs of the scripts under ``scripts/``, each in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

from conftest import src_env
from msfactor.montecarlo import REPORT_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_reproduce_tables():
    run = _run_script(
        "reproduce_tables.py", "--table", "4", "--reps", "2", "--t-grid", "60", "--n-grid", "30"
    )
    assert run.returncode == 0, run.stderr
    header = "  ".join(f"{h:>9s}" for h in ["T", "N", *REPORT_COLUMNS])
    lines = run.stdout.splitlines()
    assert header in lines
    assert lines[lines.index(header) + 1].split()[:2] == ["60", "30"]


def test_empirical_workflow(tmp_path):
    run = _run_script("empirical_workflow.py", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "params.json").exists() and (tmp_path / "series.csv").exists()
    assert "selected k = " in run.stdout
