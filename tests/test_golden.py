"""Byte-level check of the command line's output files.

Runs ``simulate`` (tau = 0 and tau = 0.5, the latter from a config file),
``estimate`` (``--k 2`` and ``--k auto --demean``) and ``montecarlo``
(serial, and ``--jobs 2``, which must write the same bytes) on small
inputs, and compares the SHA-256 of every file they write with
``golden.json``. OpenBLAS is pinned to one thread, since simulation's
tau > 0 covariance roots change in the last bits with the thread count.

The digests hold for the numpy version and OpenBLAS configuration stored
beside them; under another environment the test skips and names both.
A change that moves the numbers on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py --record

and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import on_blas_threads
from msfactor import cli
from msfactor.blas import _openblas_libraries

GOLDEN = Path(__file__).resolve().with_name("golden.json")

SIM_CONFIG = "n = 80\nt = 120\nr = 2\ntau = 0.5\nrho_idio_max = 0.5\nseed = 5\n"
MONTECARLO = ["montecarlo", "--n", "20", "--t", "80", "--r", "1", "--reps", "3", "--seed", "11"]


def environment() -> dict[str, str | None]:
    """numpy's version and the runtime configuration string of the loaded
    OpenBLAS, which names the kernel family it picked for this CPU."""
    config = None
    for lib in _openblas_libraries():
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "scipy_openblas_get_config", "openblas_get_config"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                config = get().decode()
                break
    return {"numpy": np.__version__, "openblas": config}


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv


def _digests(out: Path) -> dict[str, str]:
    return {
        f"{out.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def run_cases(work: Path) -> dict[str, str]:
    """Digest of every file the golden runs write, keyed ``case/file``.
    Fails unless ``montecarlo --jobs 2`` writes the serial run's bytes."""
    cfg = work / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    cases = {
        "simulate_tau0": ["simulate", "--n", "40", "--t", "100", "--r", "1", "--seed", "5"],
        "simulate_tau05": ["simulate", "--config", str(cfg)],
        "estimate_k2": ["estimate", "--input", str(work / "simulate_tau0" / "panel.csv"),
                        "--k", "2"],
        "estimate_auto": ["estimate", "--input", str(work / "simulate_tau05" / "panel.csv"),
                          "--k", "auto", "--k-max", "8", "--demean", "--seed", "3"],
        "montecarlo": MONTECARLO,
    }
    digests = {}
    with on_blas_threads(1):
        for name, argv in cases.items():
            _run([*argv, "--out", str(work / name)])
            digests.update(_digests(work / name))
        _run([*MONTECARLO, "--jobs", "2", "--out", str(work / "montecarlo_jobs2")])
    parallel = _digests(work / "montecarlo_jobs2")
    assert list(parallel.values()) == [
        digest for key, digest in digests.items() if key.startswith("montecarlo/")
    ], "montecarlo --jobs 2 wrote other bytes than the serial run"
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = environment()
    if golden["environment"] != current:
        pytest.skip(
            f"golden digests were recorded under {golden['environment']}; "
            f"this environment is {current}"
        )
    digests = run_cases(tmp_path)
    expected = golden["digests"]
    changed = sorted(key for key in expected.keys() & digests.keys()
                     if expected[key] != digests[key])
    assert not changed, f"changed bytes: {', '.join(changed)}"
    assert sorted(digests) == sorted(expected), "the set of written files changed"


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "digests": digests}, indent=2) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
