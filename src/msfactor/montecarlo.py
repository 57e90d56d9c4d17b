"""Monte Carlo driver: replicate the simulate -> PCA -> EM -> metrics
pipeline and aggregate the table columns.

Each replication r draws from stream id r of the shared seed.
:func:`run_montecarlo` runs every replication, simulation and metrics
included, with numpy's OpenBLAS on one thread (see :mod:`msfactor.blas`),
in the serial loop as in the pool workers. OpenBLAS results depend on its
thread count, so this makes serial and parallel reports byte-identical for
any ``jobs``. The cap is held for the whole run, so forked workers inherit
one thread and start no BLAS helper thread of their own; a direct
:func:`run_replication` simulates on the caller's threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .em import EmConfig, run_em
from .exceptions import InvalidArgumentError, MsfactorError
from .metrics import (
    blended_loadings,
    common_component_mse,
    fitted_common_component,
    regime_blend_matrix,
    trace_r2,
)
from .pca import estimate_factor_space
from .simulate import simulate_panel
from .types import RngHandle, SimConfig, as_integer, check_instance

#: The most replications one run takes. The report keeps every
#: :class:`ReplicationResult`: ~0.75 kB each at Table 1's ~9 EM iterations
#: and 32 B more per further iteration (tracemalloc), so 10**6 of them hold
#: ~0.75 GB, and ~3.7 GB where every run takes ``max_iter`` = 100.
MAX_REPLICATIONS = 10**6

#: Fixed report schema, mirroring the Monte Carlo table layout.
REPORT_COLUMNS = (
    "p11_hat",
    "p22_hat",
    "xi1_bar",
    "xi2_bar",
    "r2_bstar",
    "mse_chi",
    "avg_iter",
)


@dataclass(frozen=True)
class ReplicationResult:
    replication: int
    p11_hat: float
    p22_hat: float
    xi1_bar: float
    xi2_bar: float
    r2_bstar: float
    mse_chi: float
    iterations: int
    converged: bool
    loglik_trace: tuple[float, ...]
    #: max |period sum - 1| over the four probability arrays of the final path
    norm_deviation: float
    #: max |cross summed over s_{t-1} - smoothed| of the final path
    marginal_deviation: float

    def column_values(self) -> dict[str, float]:
        return {
            "p11_hat": self.p11_hat,
            "p22_hat": self.p22_hat,
            "xi1_bar": self.xi1_bar,
            "xi2_bar": self.xi2_bar,
            "r2_bstar": self.r2_bstar,
            "mse_chi": self.mse_chi,
            "avg_iter": float(self.iterations),
        }


def _json_statistic(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where it is undefined (NaN)."""
    return None if math.isnan(value) else value


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample std of a report column (NaN if empty, std 0 for one
    value). Where numpy's sums overflow on finite values, they are taken on
    the values over their largest magnitude and scaled back."""
    if values.size == 0:
        return float("nan"), float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)) and np.isfinite(values).all():
        scale = float(np.abs(values).max())
        unit = values / scale
        mean, std = scale * float(unit.mean()), scale * float(unit.std(ddof=1))
    return mean, std


def _cell(value: float) -> str:
    """A table cell: ``9.4f``, or exponent form where that is wider than
    the column."""
    cell = f"{value:9.4f}"
    return cell if len(cell) <= 9 else f"{value:9.2e}"


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated Monte Carlo results.

    ``mean``/``std`` map the fixed :data:`REPORT_COLUMNS` to statistics
    over successful replications; with a single replication the standard
    deviations are reported as 0. With none, every statistic is undefined:
    NaN here, ``null`` in :meth:`to_json_dict`, since strict JSON has no
    NaN.
    """

    replications: int
    results: tuple[ReplicationResult, ...]
    errors: tuple[tuple[int, str], ...]
    mean: dict[str, float]
    std: dict[str, float]
    non_converged: int

    def to_json_dict(self) -> dict:
        return {
            "columns": list(REPORT_COLUMNS),
            "replications": self.replications,
            "successful": len(self.results),
            "non_converged": self.non_converged,
            "errors": [{"replication": r, "message": m} for r, m in self.errors],
            "mean": {c: _json_statistic(self.mean[c]) for c in REPORT_COLUMNS},
            "std": {c: _json_statistic(self.std[c]) for c in REPORT_COLUMNS},
            "per_replication": [
                {
                    "replication": res.replication,
                    **res.column_values(),
                    "converged": res.converged,
                }
                for res in self.results
            ],
        }

    def format_table(self) -> str:
        header = "  ".join(f"{c:>9s}" for c in REPORT_COLUMNS)
        mean_row = "  ".join(_cell(self.mean[c]) for c in REPORT_COLUMNS)
        std_row = "  ".join(_cell(self.std[c]) for c in REPORT_COLUMNS)
        lines = [
            header,
            mean_row + "   (mean)",
            std_row + "   (std)",
            f"replications: {self.replications}, failed: {len(self.errors)}, "
            f"non-converged: {self.non_converged}",
        ]
        return "\n".join(lines)


def run_replication(
    sim_cfg: SimConfig, em_cfg: EmConfig, seed: int, replication: int
) -> ReplicationResult:
    """Simulate, estimate and score one panel on stream id ``replication``."""
    check_instance("sim_cfg", sim_cfg, SimConfig)
    check_instance("em_cfg", em_cfg, EmConfig)
    rng = RngHandle(seed=seed, stream=replication)
    truth = simulate_panel(sim_cfg, rng)
    fs = estimate_factor_space(truth.panel, k=2 * sim_cfg.r)
    result = run_em(truth.panel, fs, em_cfg)

    smoothed = result.path.smoothed
    blend = regime_blend_matrix(smoothed[:, 0], truth.states == 1, fs.g_hat)
    target = blended_loadings(truth.b1, truth.b2, blend)
    chi_hat = fitted_common_component(
        result.params.b1, result.params.b2, fs.g_hat, smoothed
    )
    return ReplicationResult(
        replication=replication,
        p11_hat=result.params.trans.p11,
        p22_hat=result.params.trans.p22,
        xi1_bar=float(smoothed[:, 0].mean()),
        xi2_bar=float(smoothed[:, 1].mean()),
        r2_bstar=trace_r2(result.params.b1, target),
        mse_chi=common_component_mse(chi_hat, truth.chi),
        iterations=result.iterations,
        converged=result.converged,
        loglik_trace=result.loglik_trace,
        norm_deviation=result.path.norm_deviation,
        marginal_deviation=result.path.marginal_deviation,
    )


def _worker(args: tuple[SimConfig, EmConfig, int, int]):
    """One replication, or ``(replication, message)`` if it raised.

    Serial runs call this in-process and parallel runs in pool workers; in
    both it runs the replication under :func:`one_blas_thread`, so both paths
    do the same arithmetic. Under :func:`run_montecarlo`'s cap, in-process
    and in forked workers, this cap is a no-op; spawned workers start fresh
    and need it.
    """
    sim_cfg, em_cfg, seed, replication = args
    try:
        with one_blas_thread():
            return run_replication(sim_cfg, em_cfg, seed, replication)
    except (MsfactorError, np.linalg.LinAlgError) as exc:
        return (replication, f"{type(exc).__name__}: {exc}")


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_montecarlo(
    sim_cfg: SimConfig,
    em_cfg: EmConfig,
    seed: int,
    replications: int,
    jobs: int = 1,
) -> MonteCarloReport:
    """Run ``replications`` independent streams and aggregate the columns.

    ``replications`` lies in [1, :data:`MAX_REPLICATIONS`]. A replication
    that raises is recorded as an error, not fatal. ``jobs`` > 1 fans
    replications over ``min(jobs, replications, usable CPUs)`` worker
    processes; a fork pool starts them all at once, so more would only
    wait. The report is byte-identical to a serial run because every
    replication runs BLAS on one thread and aggregation happens in
    replication order. The pool module is imported only when a pool opens,
    so serial runs and the other CLI commands do not pay for it. Before the
    pool forks, ``numpy.random`` (which numpy 2 loads lazily) is loaded once
    here rather than in every worker.
    """
    replications = as_integer("replications", replications)
    jobs = as_integer("jobs", jobs)
    if replications < 1:
        raise InvalidArgumentError(f"replications must be >= 1, got {replications}")
    if replications > MAX_REPLICATIONS:
        raise InvalidArgumentError(
            f"replications must be <= {MAX_REPLICATIONS}, got {replications}"
        )
    if jobs < 1:
        raise InvalidArgumentError(f"jobs must be >= 1, got {jobs}")
    # a bad seed or config fails the run, not each replication
    RngHandle(seed=seed)
    check_instance("sim_cfg", sim_cfg, SimConfig)
    check_instance("em_cfg", em_cfg, EmConfig)
    tasks = [(sim_cfg, em_cfg, seed, rep) for rep in range(replications)]
    workers = min(jobs, replications, _usable_cpus())
    with one_blas_thread():
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            import numpy.random  # noqa: F401

            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_worker, tasks))
        else:
            outcomes = [_worker(task) for task in tasks]

    results = tuple(o for o in outcomes if isinstance(o, ReplicationResult))
    errors = tuple(o for o in outcomes if not isinstance(o, ReplicationResult))

    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for col in REPORT_COLUMNS:
        values = np.array([res.column_values()[col] for res in results])
        mean[col], std[col] = _mean_std(values)
    return MonteCarloReport(
        replications=replications,
        results=results,
        errors=errors,
        mean=mean,
        std=std,
        non_converged=sum(1 for res in results if not res.converged),
    )
