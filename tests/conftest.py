from contextlib import contextmanager

import numpy as np
import pytest

from msfactor import (
    EmConfig,
    RngHandle,
    SimConfig,
    estimate_factor_space,
    run_replication,
    simulate_panel,
)
from msfactor.blas import openblas_controls

ACCEPTANCE_SEED = 0
ACCEPTANCE_REPS = 20


def numpy_uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


needs_openblas = pytest.mark.skipif(
    not numpy_uses_openblas(), reason="needs numpy on OpenBLAS"
)


@contextmanager
def on_blas_threads(count):
    """numpy's OpenBLAS on ``count`` threads inside the block; the count
    found on entry comes back on exit."""
    controls = openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


@pytest.fixture
def caller_on_two_threads():
    """numpy's OpenBLAS on two threads, as numpy starts on a 2-core host;
    the count the test found comes back afterwards."""
    with on_blas_threads(2):
        yield


@pytest.fixture(scope="session")
def small_truth():
    """One modest simulated panel reused by unit tests."""
    return simulate_panel(SimConfig(n=60, t=300, r=1, seed=7), RngHandle(seed=7))


@pytest.fixture(scope="session")
def small_factor_space(small_truth):
    return estimate_factor_space(small_truth.panel, k=2)


def _battery(sim_cfg: SimConfig) -> list:
    em_cfg = EmConfig(max_iter=100, epsilon=1e-6)
    return [
        run_replication(sim_cfg, em_cfg, seed=ACCEPTANCE_SEED, replication=rep)
        for rep in range(ACCEPTANCE_REPS)
    ]


@pytest.fixture(scope="session")
def table1_battery():
    """Criterion 1 configuration: r=1, rho_f=0, tau=0, rho=0, N=100, T=500."""
    return _battery(SimConfig(n=100, t=500, r=1))


@pytest.fixture(scope="session")
def table2_battery():
    """Criterion 2 configuration: r=1, rho_f=0.7, tau=0.5, rho=0.5, N=100, T=750."""
    return _battery(SimConfig(n=100, t=750, r=1, rho_f=0.7, tau=0.5, rho_idio_max=0.5))


@pytest.fixture(scope="session")
def table3_batteries():
    """Criterion 3 configurations: r=2, N=100 at T=250 and T=1000."""
    return {
        250: _battery(SimConfig(n=100, t=250, r=2)),
        1000: _battery(SimConfig(n=100, t=1000, r=2)),
    }


def report_criterion(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {description}: {detail}")
