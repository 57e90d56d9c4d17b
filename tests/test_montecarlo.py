import concurrent.futures
import json

import numpy as np
import pytest

from msfactor import montecarlo
from msfactor.em import EmConfig
from msfactor.blas import one_blas_thread, openblas_controls
from msfactor.montecarlo import run_montecarlo
from msfactor.simulate import SimConfig

SMALL = SimConfig(n=20, t=80, r=1)


def _numpy_uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


class TestOneBlasThread:
    def test_finds_numpy_openblas(self):
        if not _numpy_uses_openblas():
            pytest.skip("numpy is not built against OpenBLAS")
        assert openblas_controls()

    def test_caps_inside_and_restores_after(self):
        controls = openblas_controls()

        def counts():
            return [get() for get, _ in controls]

        original = counts()
        try:
            for _, set_ in controls:
                set_(2)
            with one_blas_thread():
                assert counts() == [1] * len(controls)
            assert counts() == [2] * len(controls)
            with pytest.raises(RuntimeError), one_blas_thread():
                raise RuntimeError("body failed")
            assert counts() == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, original):
                set_(count)


class TestRunMontecarlo:
    def test_serial_equals_parallel_at_table1_shape(self):
        # N=100, T=500 is large enough for OpenBLAS to thread its gemm/syrk
        # calls, whose last bits depend on the thread count.
        design = SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7)
        serial = run_montecarlo(design, EmConfig(), seed=0, replications=4, jobs=1)
        parallel = run_montecarlo(design, EmConfig(), seed=0, replications=4, jobs=2)
        assert json.dumps(serial.to_json_dict()) == json.dumps(parallel.to_json_dict())
        assert [r.loglik_trace for r in serial.results] == [
            r.loglik_trace for r in parallel.results
        ]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_montecarlo(SMALL, EmConfig(), seed=0, replications=2, jobs=jobs)

    @pytest.mark.parametrize(
        ("jobs", "replications", "pools"), [(4, 2, [2]), (3, 1, []), (2, 3, [2])]
    )
    def test_pool_never_exceeds_replications(self, monkeypatch, jobs, replications, pools):
        opened = []

        class InProcessPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_montecarlo imports the pool class only when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        report = run_montecarlo(SMALL, EmConfig(), seed=3, replications=replications, jobs=jobs)
        assert opened == pools
        assert report.replications == replications
