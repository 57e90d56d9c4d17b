import concurrent.futures
import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from conftest import needs_openblas, numpy_uses_openblas
from msfactor import em, montecarlo, pca
from msfactor.em import EmConfig, run_em
from msfactor.blas import one_blas_thread, openblas_controls
from msfactor.exceptions import InvalidArgumentError
from msfactor.montecarlo import run_montecarlo, run_replication
from msfactor.pca import estimate_factor_space, select_num_factors_er
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import RngHandle, validate_panel

SMALL = SimConfig(n=20, t=80, r=1)
#: Paper Table 1 design: N=100, T=500 is large enough for OpenBLAS to thread
#: its gemm/syrk calls, whose last bits depend on the thread count.
TABLE1 = SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7)

needs_forked_openblas = pytest.mark.skipif(
    not (
        sys.platform.startswith("linux")
        and numpy_uses_openblas()
        and multiprocessing.get_start_method() == "fork"
    ),
    reason="needs Linux, numpy on OpenBLAS and pool workers started by fork",
)


def _blas_count() -> int | None:
    """numpy's OpenBLAS thread count, or None without one."""
    controls = openblas_controls()
    return controls[0]() if controls else None


def _in_process_pool(opened: list):
    """A ``ProcessPoolExecutor`` stand-in that runs the tasks in-process and
    appends ``(max_workers, OpenBLAS thread count)`` to ``opened`` as each
    pool opens, which is when a real pool forks its workers."""

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append((max_workers, _blas_count()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    return InProcessPool


def _report_worker_threads(sim_cfg, em_cfg, seed, replication):
    """Stands in for ``run_replication`` inside a pool worker: fails with the
    worker's thread count and the OpenBLAS thread count it runs on."""
    tasks = len(os.listdir("/proc/self/task"))
    raise InvalidArgumentError(f"tasks={tasks} blas={_blas_count()}")


class TestOneBlasThread:
    def test_finds_numpy_openblas(self):
        if not numpy_uses_openblas():
            pytest.skip("numpy is not built against OpenBLAS")
        assert openblas_controls()

    def test_caps_inside_and_restores_after(self, caller_on_two_threads):
        one, two = (n if openblas_controls() else None for n in (1, 2))
        with one_blas_thread():
            assert _blas_count() == one
        assert _blas_count() == two
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError("body failed")
        assert _blas_count() == two

    def test_sets_only_libraries_not_on_one_thread(self, monkeypatch):
        for count, sets in ((1, []), (2, [1, 2])):
            calls = []
            monkeypatch.setattr(
                "msfactor.blas.openblas_controls", lambda: (lambda: count, calls.append)
            )
            with one_blas_thread():
                assert calls == sets[:1]
            assert calls == sets
        # without an OpenBLAS the block just runs
        monkeypatch.setattr("msfactor.blas.openblas_controls", lambda: None)
        with one_blas_thread():
            pass


def _estimate(data: np.ndarray):
    """Every estimator on a fresh panel (nothing memoised): the chosen k,
    the result arrays as bytes, the loglik trace and the iteration count."""
    panel = validate_panel(data)
    k = select_num_factors_er(panel, 4)
    fs = estimate_factor_space(panel, 2)
    result = run_em(panel, fs, EmConfig())
    params, path = result.params, result.path
    arrays = (
        fs.a_hat, fs.g_hat, fs.eigvals,
        params.b1, params.b2, params.sigma_e1_diag, params.sigma_e2_diag, params.trans.p,
        path.predicted, path.filtered, path.smoothed, path.cross,
    )
    return k, [a.tobytes() for a in arrays], result.loglik_trace, result.iterations


@needs_openblas
class TestEstimatorsHoldTheCap:
    def test_run_on_one_thread_inside_and_restore_the_caller(
        self, monkeypatch, caller_on_two_threads
    ):
        seen = []

        def record(module, name):
            original = getattr(module, name)

            def recording(*args):
                seen.append((name, _blas_count()))
                return original(*args)

            monkeypatch.setattr(module, name, recording)

        record(pca, "_spectrum")
        record(em, "filter_smoother_pass")
        _estimate(simulate_panel(TABLE1, RngHandle(seed=0)).panel.data)
        # both PCA estimators read the spectrum; EM runs the passes
        assert [name for name, _ in seen[:3]] == ["_spectrum", "_spectrum", "filter_smoother_pass"]
        assert all(count == 1 for _, count in seen)
        assert _blas_count() == 2

    def test_two_thread_caller_gets_a_one_thread_callers_bytes(self, caller_on_two_threads):
        data = simulate_panel(TABLE1, RngHandle(seed=0)).panel.data
        on_two = _estimate(data)
        with one_blas_thread():
            on_one = _estimate(data)
        assert on_two == on_one

    def test_direct_replication_equals_montecarlo_at_table1_shape(self, caller_on_two_threads):
        report = run_montecarlo(TABLE1, EmConfig(), seed=0, replications=2, jobs=1)
        assert _blas_count() == 2
        for rep in range(2):
            assert run_replication(TABLE1, EmConfig(), 0, rep) == report.results[rep]


class TestRunReplication:
    def test_deviations_are_the_paths(self, monkeypatch):
        paths = []

        def spy(*args):
            result = run_em(*args)
            paths.append(result.path)
            return result

        monkeypatch.setattr(montecarlo, "run_em", spy)
        res = run_replication(SMALL, EmConfig(), 0, 1)
        (path,) = paths
        assert res.norm_deviation == path.norm_deviation
        assert res.marginal_deviation == path.marginal_deviation


class TestRunMontecarlo:
    def test_serial_equals_parallel_at_table1_shape(self):
        serial = run_montecarlo(TABLE1, EmConfig(), seed=0, replications=4, jobs=1)
        parallel = run_montecarlo(TABLE1, EmConfig(), seed=0, replications=4, jobs=2)
        assert json.dumps(serial.to_json_dict()) == json.dumps(parallel.to_json_dict())
        assert [r.loglik_trace for r in serial.results] == [
            r.loglik_trace for r in parallel.results
        ]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(InvalidArgumentError, match="jobs"):
            run_montecarlo(SMALL, EmConfig(), seed=0, replications=2, jobs=jobs)

    @pytest.mark.parametrize(
        ("jobs", "replications", "pools"), [(4, 2, [2]), (3, 1, []), (2, 3, [2])]
    )
    def test_pool_never_exceeds_replications(self, monkeypatch, jobs, replications, pools):
        opened = []
        # run_montecarlo imports the pool class only when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(opened))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)  # no real pool opens
        report = run_montecarlo(SMALL, EmConfig(), seed=3, replications=replications, jobs=jobs)
        assert [workers for workers, _ in opened] == pools
        assert report.replications == replications

    @pytest.mark.parametrize(("cpus", "pools"), [(3, [3]), (1, [])])
    def test_pool_never_exceeds_usable_cpus(self, monkeypatch, cpus, pools):
        # the pool is a stand-in: never fork a real pool of many workers
        opened = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(opened))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        report = run_montecarlo(SMALL, EmConfig(), seed=3, replications=6, jobs=6)
        assert [workers for workers, _ in opened] == pools
        serial = run_montecarlo(SMALL, EmConfig(), seed=3, replications=6, jobs=1)
        assert json.dumps(report.to_json_dict()) == json.dumps(serial.to_json_dict())


@needs_forked_openblas
class TestForkedWorkers:
    def test_pool_forks_on_one_thread_and_restores_the_caller(
        self, monkeypatch, caller_on_two_threads
    ):
        opened = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(opened))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        run_montecarlo(SMALL, EmConfig(), seed=3, replications=2, jobs=2)
        assert opened == [(2, 1)]
        assert _blas_count() == 2

    def test_worker_runs_replications_without_a_helper_thread(
        self, monkeypatch, caller_on_two_threads
    ):
        # fork carries the stand-in into the workers; its errors come back
        # in the report
        monkeypatch.setattr(montecarlo, "run_replication", _report_worker_threads)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)  # a real pool of two
        report = run_montecarlo(SMALL, EmConfig(), seed=3, replications=2, jobs=2)
        inside = "InvalidArgumentError: tasks=1 blas=1"
        assert report.errors == ((0, inside), (1, inside))
        assert _blas_count() == 2
