"""Workload definitions: inputs derived from the seed, one operation each,
and the output checks that decide whether an operation failed.

Every workload draws its inputs from a fixed pool whose reference results
are stored in ``refs.json``. A run repeats one *round* of inputs; the
round takes one input from each of ``round_size`` strata of the pool
ordered by reference EM iterations, and the seed picks the input within
each stratum. Any seed thus gives checked inputs, the same seed the same
inputs, and rounds of different seeds about the same amount of work.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REFS = BENCH / "refs.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from msfactor import cli, montecarlo, simulate_panel  # noqa: E402  (after the path set-up)
from msfactor.em import EmConfig  # noqa: E402
from msfactor.io import save_panel_csv  # noqa: E402
from msfactor.simulate import SimConfig  # noqa: E402
from msfactor.types import RngHandle  # noqa: E402

#: Paper Table 1 design.
TABLE1 = SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7)
#: Design 4 (r=2, serially and cross-correlated noise) at N > T.
WIDE = SimConfig(n=600, t=300, r=2, p11=0.9, p22=0.7, rho_f=0.7, tau=0.5, rho_idio_max=0.5)
#: Shape of the empirical application: 630 months of 49 portfolios.
EMPIRICAL_N, EMPIRICAL_T = 49, 630

POOL_JOBS = 2
POOL_BATCH = 4

#: Input pools, as (RngHandle seed, stream id) pairs or panel seeds.
TABLE1_POOL = [(rs, st) for rs in range(4) for st in range(40)]
WIDE_POOL = [(rs, st) for rs in range(4) for st in range(16)]
BATCH_POOL = [(rs, st) for rs in range(16) for st in range(POOL_BATCH)]
CLI_PANELS = range(8)

#: Absolute tolerance on p11/p22, relative on the final log likelihood;
#: iteration counts and the selected k must match exactly.
TOLERANCE = {"p": 1e-6, "loglik_rel": 1e-9}
#: As in the test suite: probability rows sum to one within 1e-10, and an
#: EM step may not lower the log likelihood by more than 1e-6.
NORM_TOL = 1e-10
ASCENT_TOL = 1e-6


def pythonpath_env() -> dict[str, str]:
    """The caller's environment with ``src`` on PYTHONPATH; nothing else set."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def load_refs(path: Path = REFS) -> dict:
    return json.loads(Path(path).read_text())


def stratified_round(costs: dict[str, int], size: int, seed: int) -> list[str]:
    """One key from each of ``size`` equal strata of the keys ordered by cost."""
    ordered = sorted(costs, key=lambda key: (costs[key], key))
    width = len(ordered) // size
    return [ordered[j * width + (seed + j) % width] for j in range(size)]


def ascent_violations(trace) -> int:
    return sum(1 for a, b in zip(trace, trace[1:]) if b - a < -ASCENT_TOL)


def compare(observed: dict, ref: dict) -> list[str]:
    """Differences between an estimate and its reference, as messages."""
    problems = []
    for key in ("p11", "p22"):
        if abs(observed[key] - ref[key]) > TOLERANCE["p"]:
            problems.append(f"{key} {observed[key]!r} != ref {ref[key]!r}")
    if abs(observed["loglik"] - ref["loglik"]) > TOLERANCE["loglik_rel"] * abs(ref["loglik"]):
        problems.append(f"loglik {observed['loglik']!r} != ref {ref['loglik']!r}")
    for key in ("iterations", "k"):
        if key in ref and observed[key] != ref[key]:
            problems.append(f"{key} {observed[key]} != ref {ref[key]}")
    return problems


def replication_summary(res) -> dict:
    return {
        "p11": res.p11_hat,
        "p22": res.p22_hat,
        "loglik": res.loglik_trace[-1],
        "iterations": res.iterations,
    }


def check_replication(res, ref: dict) -> list[str]:
    problems = []
    if ascent_violations(res.loglik_trace):
        problems.append("log likelihood decreased")
    if not res.norm_deviation < NORM_TOL:
        problems.append(f"norm_deviation {res.norm_deviation:.3e}")
    if not res.marginal_deviation < NORM_TOL:
        problems.append(f"marginal_deviation {res.marginal_deviation:.3e}")
    return problems + compare(replication_summary(res), ref)


@dataclass
class Outcome:
    """What one operation produced: problems found and EM iterations."""

    problems: list[str]
    iterations: int


class Workload:
    """Operation ``j`` of every round runs input ``self.inputs[j]``."""

    name = ""
    round_size = 1

    def __init__(self, seed: int, refs: dict, workdir: Path):
        self.refs = refs
        self.workdir = workdir
        self.inputs = stratified_round(self.costs(), self.round_size, seed)

    def costs(self) -> dict[str, int]:
        return {key: ref["iterations"] for key, ref in self.refs[self.name].items()}

    def run(self, j: int) -> Outcome:
        raise NotImplementedError


class McTable1(Workload):
    name = "mc_table1"
    design = TABLE1
    round_size = 16

    def run(self, j: int) -> Outcome:
        key = self.inputs[j]
        rng_seed, stream = map(int, key.split("/"))
        res = montecarlo.run_replication(self.design, EmConfig(), rng_seed, stream)
        return Outcome(check_replication(res, self.refs[self.name][key]), res.iterations)


class McWide(McTable1):
    name = "mc_wide"
    design = WIDE
    round_size = 4


class McPool(Workload):
    name = "mc_pool"
    round_size = 2

    def costs(self) -> dict[str, int]:
        batches: dict[str, int] = {}
        for key, ref in self.refs[self.name].items():
            rng_seed = key.split("/")[0]
            batches[rng_seed] = batches.get(rng_seed, 0) + ref["iterations"]
        return batches

    def run(self, j: int, jobs: int = POOL_JOBS) -> Outcome:
        rng_seed = int(self.inputs[j])
        report = montecarlo.run_montecarlo(
            TABLE1, EmConfig(), seed=rng_seed, replications=POOL_BATCH, jobs=jobs
        )
        problems = [f"replication {r}: {msg}" for r, msg in report.errors]
        if len(report.results) + len(report.errors) != POOL_BATCH:
            problems.append("replication count mismatch")
        for res in report.results:
            problems += check_replication(res, self.refs[self.name][f"{rng_seed}/{res.replication}"])
        return Outcome(problems, sum(res.iterations for res in report.results))


def empirical_panel(panel_seed: int):
    """The synthetic 630 x 49 panel of ``scripts/empirical_workflow.py``."""
    cfg = SimConfig(n=EMPIRICAL_N, t=EMPIRICAL_T, r=1, seed=panel_seed)
    return simulate_panel(cfg, RngHandle(seed=panel_seed)).panel


def estimate_argv(csv_path: Path, out_dir: Path) -> list[str]:
    return ["estimate", "--input", str(csv_path), "--k", "auto", "--k-max", "8",
            "--demean", "--out", str(out_dir)]


def check_estimate_output(out_dir: Path, ref: dict) -> Outcome:
    """Read back ``params.json``/``series.csv`` written by ``msfactor estimate``."""
    try:
        params = json.loads((out_dir / "params.json").read_text())
        iterations, converged = params["iterations"], params["converged"]
        observed = {
            "p11": params["transition"][0][0],
            "p22": params["transition"][1][1],
            "loglik": params["loglik"],
            "iterations": iterations,
            "k": params["k"],
        }
        rows = [r.split(",") for r in (out_dir / "series.csv").read_text().splitlines()[1:]]
        # columns: t, smoothed1, smoothed2, ...
        worst = max(abs(float(r[1]) + float(r[2]) - 1.0) for r in rows)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome([f"unreadable output: {type(exc).__name__}: {exc}"], 0)
    problems = []
    if not isinstance(converged, bool):
        problems.append("params.json lacks a boolean 'converged'")
    if ascent_violations(params.get("loglik_trace", [])):
        problems.append("log likelihood decreased")
    if not worst < NORM_TOL:
        problems.append(f"smoothed rows deviate from 1 by {worst:.3e}")
    return Outcome(problems + compare(observed, ref), iterations)


class CliEstimate(Workload):
    """One ``msfactor estimate`` process per operation, or, for the traced
    run, one in-process ``msfactor.cli.main(argv)`` call."""

    name = "cli_estimate"
    round_size = 2

    def __init__(self, seed: int, refs: dict, workdir: Path, in_process: bool = False):
        super().__init__(seed, refs, workdir)
        self.in_process = in_process
        workdir.mkdir(parents=True, exist_ok=True)
        for key in self.inputs:
            save_panel_csv(workdir / f"panel{key}.csv", empirical_panel(int(key)))

    def run(self, j: int) -> Outcome:
        key = self.inputs[j]
        out_dir = self.workdir / f"estimate{key}"
        argv = estimate_argv(self.workdir / f"panel{key}.csv", out_dir)
        if self.in_process:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "msfactor.cli", *argv],
                env=pythonpath_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            code = proc.returncode
        if code != 0:
            return Outcome([f"exit code {code}"], 0)
        return check_estimate_output(out_dir, self.refs[self.name][key])


WORKLOADS = {w.name: w for w in (McTable1, McWide, McPool, CliEstimate)}
