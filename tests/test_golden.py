"""Byte-level check of the command line's output files and of EM results.

Runs ``simulate`` (tau = 0 and tau = 0.5, the latter from a config file),
``estimate`` (``--k 2`` and ``--k auto --demean``) and ``montecarlo``
(serial, and ``--jobs 2``, which must write the same bytes) on small
inputs, and compares the SHA-256 of every file they write with
``golden.json``. It also digests the simulated panel and the whole
``EmResult`` (parameters, the four probability paths, the loglik trace,
the iteration count and the convergence flag) of 20 Table 1 inputs and 4
design-4 inputs (N = 600, T = 300). OpenBLAS is pinned to one thread,
since simulation's tau > 0 covariance roots change in the last bits with
the thread count. The tau = 0.5 ``simulate`` also runs as a program, in a
process of its own that the tests do not cap, and must write those bytes:
the command starts on one thread by itself.

The digests hold for the numpy version and OpenBLAS configuration stored
beside them; under another environment the test skips and names both. On
an OpenBLAS build of numpy whose configuration string cannot be found the
test fails, and the recorder refuses, rather than compare or record
digests not pinned to a BLAS. A change that moves the numbers on purpose
re-records the file with

    PYTHONPATH=src python tests/test_golden.py --record

and says why in ``CHANGES.md``. The recorder also stores one SHA-256
over the ``EmResult`` of every input of the benchmark's ``mc_table1`` and
``mc_wide`` pools (224 runs, ~11 s on one BLAS thread), which a change
meant to keep every EM result bitwise checks with

    PYTHONPATH=src python tests/test_golden.py --pool

It exits 1 and prints both digests when they differ. Under another
environment than the recorded one it prints the digest and compares
nothing, so that two trees can still be compared by hand.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import load_bench, numpy_uses_openblas, on_blas_threads, src_env
from msfactor import (
    EmConfig,
    RngHandle,
    SimConfig,
    cli,
    estimate_factor_space,
    run_em,
    simulate_panel,
)
from msfactor.blas import _openblas_symbol

GOLDEN = Path(__file__).resolve().with_name("golden.json")

SIM_CONFIG = "n = 80\nt = 120\nr = 2\ntau = 0.5\nrho_idio_max = 0.5\nseed = 5\n"
MONTECARLO = ["montecarlo", "--n", "20", "--t", "80", "--r", "1", "--reps", "3", "--seed", "11"]
#: EmResult inputs: design -> (config, [(RngHandle seed, stream id)]).
EM_INPUTS = {
    "table1": (SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7),
               [(seed, stream) for seed in range(2) for stream in range(10)]),
    "design4": (SimConfig(n=600, t=300, r=2, p11=0.9, p22=0.7, rho_f=0.7, tau=0.5,
                          rho_idio_max=0.5),
                [(0, stream) for stream in range(4)]),
}


def environment() -> dict[str, str | None]:
    """numpy's version and the runtime configuration string of its
    OpenBLAS, which names the kernel family it picked for this CPU.

    Raises LookupError when numpy is built on OpenBLAS but the string is
    not found."""
    get_config = _openblas_symbol("openblas_get_config", ctypes.c_char_p, [])
    config = get_config().decode() if get_config is not None else None
    if config is None and numpy_uses_openblas():
        raise LookupError(
            "numpy is built on OpenBLAS, but no OpenBLAS configuration string was found"
        )
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


def _em_runs(cfg: SimConfig, inputs):
    """Each input panel of ``cfg`` and its EmResult, in the order of
    ``inputs``, (RngHandle seed, stream id) pairs."""
    for seed, stream in inputs:
        panel = simulate_panel(cfg, RngHandle(seed=seed, stream=stream)).panel
        yield panel, run_em(panel, estimate_factor_space(panel, k=2 * cfg.r), EmConfig())


def _digest_result(digest, result) -> None:
    """Feed every array and flag of an EmResult to ``digest``."""
    params, path = result.params, result.path
    for array in (
        params.b1, params.b2, params.sigma_e1_diag, params.sigma_e2_diag, params.trans.p,
        path.predicted, path.filtered, path.smoothed, path.cross,
        np.array(result.loglik_trace),
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(f"{result.iterations} {result.converged}".encode())


def em_digests() -> dict[str, str]:
    """SHA-256 of each input panel and its EmResult, keyed
    ``design/seed/stream``, on one BLAS thread."""
    digests = {}
    with on_blas_threads(1):
        for design, (cfg, inputs) in EM_INPUTS.items():
            for (seed, stream), (panel, result) in zip(inputs, _em_runs(cfg, inputs)):
                digest = hashlib.sha256(np.ascontiguousarray(panel.data).tobytes())
                _digest_result(digest, result)
                digests[f"{design}/{seed}/{stream}"] = digest.hexdigest()
    return digests


def pool_digest() -> str:
    """One SHA-256 over the EmResults of the benchmark's ``mc_table1`` and
    ``mc_wide`` pool inputs, in pool order, on one BLAS thread."""
    workloads = load_bench("workloads")
    digest = hashlib.sha256()
    with on_blas_threads(1):
        for cfg, pool in ((workloads.TABLE1, workloads.TABLE1_POOL),
                          (workloads.WIDE, workloads.WIDE_POOL)):
            for _, result in _em_runs(cfg, pool):
                _digest_result(digest, result)
    return digest.hexdigest()


def _golden() -> dict:
    """The recorded file; skips when it was recorded under another
    environment."""
    golden = json.loads(GOLDEN.read_text())
    current = environment()
    if golden["environment"] != current:
        pytest.skip(
            f"golden digests were recorded under {golden['environment']}; "
            f"this environment is {current}"
        )
    return golden


def _assert_same(digests: dict[str, str], expected: dict[str, str]) -> None:
    changed = sorted(key for key in expected.keys() & digests.keys()
                     if expected[key] != digests[key])
    assert not changed, f"changed bytes: {', '.join(changed)}"
    assert sorted(digests) == sorted(expected), "the set of digested outputs changed"


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = _golden()["digests"]
    _assert_same(run_cases(tmp_path), expected)


def test_program_run_writes_the_one_thread_bytes(tmp_path):
    # a real process, with no cap from the tests: the program itself starts
    # numpy's OpenBLAS on one thread, whatever the host's core count
    expected = _golden()["digests"]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    out = tmp_path / "simulate_tau05"
    subprocess.run(
        [sys.executable, "-m", "msfactor.cli", "simulate", "--config", str(cfg), "--out", str(out)],
        env=src_env(), check=True, capture_output=True,
    )
    _assert_same(_digests(out), {k: v for k, v in expected.items() if k.startswith(f"{out.name}/")})


def test_em_results_match_golden_digests():
    expected = _golden()["em_results"]
    _assert_same(em_digests(), expected)


def test_unfound_config_string_fails_and_records_nothing(monkeypatch):
    # a broken lookup must neither turn the byte checks into skips nor
    # record digests pinned to no BLAS
    monkeypatch.setitem(globals(), "_openblas_symbol", lambda *signature: None)
    monkeypatch.setitem(globals(), "numpy_uses_openblas", lambda: True)
    before = GOLDEN.read_bytes()
    for check in (_golden, record):
        with pytest.raises(LookupError, match="no OpenBLAS configuration string"):
            check()
    assert GOLDEN.read_bytes() == before


def check_pool(digest: str) -> int:
    """Exit status of ``--pool`` for the pool digest ``digest``: 1, with both
    digests printed, unless it equals the recorded one; 0, with the digest
    printed and nothing compared, under another environment."""
    golden, env = json.loads(GOLDEN.read_text()), environment()
    if golden["environment"] != env:
        print(f"{digest}\nnot compared: the pool digest was recorded under "
              f"{golden['environment']}; this environment is {env}")
        return 0
    if digest != golden["pool"]:
        print(f"pool digest changed: recorded {golden['pool']}, now {digest}")
        return 1
    print(f"{digest} matches the recorded pool digest")
    return 0


def test_pool_check_compares_with_the_recorded_digest(capsys):
    recorded = _golden()["pool"]
    assert check_pool(recorded) == 0
    assert check_pool("0" * 64) == 1
    assert capsys.readouterr().out.endswith(f"recorded {recorded}, now {'0' * 64}\n")


def test_pool_check_compares_nothing_under_another_environment(monkeypatch, capsys):
    monkeypatch.setitem(globals(), "environment", lambda: {"numpy": "0", "openblas": None})
    assert check_pool("0" * 64) == 0
    assert "not compared" in capsys.readouterr().out


def record() -> None:
    env = environment()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    em_results = em_digests()
    pool = pool_digest()
    GOLDEN.write_text(json.dumps(
        {"environment": env, "digests": digests, "em_results": em_results, "pool": pool},
        indent=2,
    ) + "\n")
    print(f"wrote {len(digests)} file digests, {len(em_results)} EmResult digests "
          f"and the pool digest to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--pool"]:
        sys.exit(check_pool(pool_digest()))
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record | --pool")
    try:
        record()
    except LookupError as exc:
        sys.exit(f"not recorded: {exc}")
