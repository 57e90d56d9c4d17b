#!/usr/bin/env python3
"""The workload process: runs one workload in a closed loop and writes
its measurements as JSON.

    python3 bench/worker.py --workload mc_table1 --seed 0 --seconds 10 \
        --trace 0 --result OUT.json
    python3 bench/worker.py --workload cli_estimate --seed 0 --setup-only

``--setup-only`` builds the workload's inputs and exits; ``run.py`` times
it in fresh interpreters to measure set-up. ``run.py`` is the command to
use; this file is its child so that its own rusage covers the workload
alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import OUT, POOL_JOBS, WORKLOADS, pythonpath_env

#: Fresh interpreters timed for ``cli.import_ms``.
IMPORT_PROBES = 5


def cpu_seconds() -> tuple[float, float]:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


@dataclass
class Round:
    """One pass over the workload's inputs."""

    wall: float
    cpu: float
    cpu_children: float
    latencies: list[float]
    iterations: list[int]


@dataclass
class Window:
    """Rounds run back to back in a closed loop."""

    rounds: list[Round] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    @property
    def ops(self) -> int:
        return sum(len(r.latencies) for r in self.rounds)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.rounds)

    def ops_per_s(self) -> float:
        return self.ops / self.wall


def run_round(workload, window: Window, call=None) -> None:
    """Run every input once (through ``call`` when given) and check it."""
    latencies, iterations = [], []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for j in range(workload.round_size):
        t0 = time.perf_counter()
        try:
            outcome = call(workload.run, j) if call else workload.run(j)
            problems, iters = outcome.problems, outcome.iterations
        except Exception as exc:  # any raise counts as a failed operation
            problems, iters = [f"{type(exc).__name__}: {exc}"], 0
        latencies.append(time.perf_counter() - t0)
        iterations.append(iters)
        if problems:
            window.failed += 1
            window.problems += [f"input {workload.inputs[j]}: {p}" for p in problems[:3]]
    wall = time.perf_counter() - start
    cpu1 = cpu_seconds()
    window.rounds.append(Round(wall, cpu1[0] - cpu0[0], cpu1[1] - cpu0[1], latencies, iterations))


def run_window(workload, seconds: float = 0.0, rounds: int = 0) -> Window:
    """Rounds back to back until ``seconds`` have passed, or exactly ``rounds``."""
    window = Window()
    start = time.perf_counter()
    while True:
        run_round(workload, window)
        if rounds:
            if len(window.rounds) == rounds:
                return window
        elif time.perf_counter() - start >= seconds:
            return window


def median_wall(argv: list[str], count: int) -> float:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=pythonpath_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(window: Window) -> dict:
    """End-to-end metrics over the whole timed window.

    Every round repeats the same inputs, so an operation's latency is the
    mean over its repeats; ``op_ms_p50`` is the median of those over the
    round's inputs. The host's speed drifts for tens of seconds at a time,
    and a mean over repeats follows that drift less than single samples do.
    """
    per_input = [statistics.fmean(r.latencies[j] for r in window.rounds) * 1e3
                 for j in range(len(window.rounds[0].latencies))]
    lat_ms = [x * 1e3 for r in window.rounds for x in r.latencies]
    return {
        "ops_per_s": window.ops_per_s(),
        "op_ms_p50": statistics.median(per_input),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "op_samples": len(lat_ms),
        "cpu_s_per_op": sum(r.cpu + r.cpu_children for r in window.rounds) / window.ops,
        "peak_rss_mb": peak_rss_mb(),
        "round_walls": [r.wall for r in window.rounds],
    }


def per_layer(spans, iterations_per_round: list[int]) -> dict:
    """Per-layer metrics from the spans of one traced window."""
    ops = [s for s in spans if s.name == "bench.op"]
    op_time = sum(s.duration for s in ops)
    n_ops = len(ops)

    def named(span_name):
        return [s for s in spans if s.name == span_name]

    def self_of(span_name):
        return sum(s.self_time for s in named(span_name))

    def per_call_ms(span_name):
        found = named(span_name)
        return 1e3 * self_of(span_name) / len(found) if found else 0.0

    def layer_self(layer):
        return sum(s.self_time for s in spans if s.layer == layer)

    def ns_per_period(span_name):
        periods = sum(s.counts["periods"] for s in named(span_name))
        return 1e9 * self_of(span_name) / periods if periods else 0.0

    def gflop_s(span_name):
        flops = sum(s.counts["flops"] for s in named(span_name))
        return flops / self_of(span_name) / 1e9 if flops else 0.0

    iterations = len(named("em.m_loadings"))
    metrics = {
        "simulate.ms_per_op": 1e3 * layer_self("simulate") / n_ops,
        "pca.factor_space.ms_per_call": per_call_ms("pca.factor_space"),
        "pca.select.ms_per_call": per_call_ms("pca.select"),
        "filtering.log_densities.ms_per_call": per_call_ms("filtering.log_densities"),
        "filtering.log_densities.gflop_s_computed": gflop_s("filtering.log_densities"),
        "filtering.filter.ns_per_period": ns_per_period("filtering.filter"),
        "filtering.smoother.ns_per_period": ns_per_period("filtering.smoother"),
        "filtering.cross.ms_per_call": per_call_ms("filtering.cross"),
        "filtering.pass.self_ms_per_call": per_call_ms("filtering.pass"),
        "filtering.estep_share":
            (self_of("filtering.filter") + self_of("filtering.smoother")) / op_time,
        # one round covers the same inputs on every run of a seed
        "em.iters_per_op": sum(iterations_per_round) / len(iterations_per_round),
        "em.ms_per_iter":
            1e3 * sum(s.duration for s in named("em.run")) / iterations if iterations else 0.0,
        "em.self_ms_per_op": 1e3 * layer_self("em") / n_ops,
        "em.m_loadings.ms_per_call": per_call_ms("em.m_loadings"),
        "em.m_variances.ms_per_call": per_call_ms("em.m_variances"),
        "em.m_variances.gflop_s_computed": gflop_s("em.m_variances"),
        "em.m_transition.ms_per_call": per_call_ms("em.m_transition"),
        "metrics.ms_per_op": 1e3 * layer_self("metrics") / n_ops,
        "io.load_csv.ms_per_call": per_call_ms("io.load_csv"),
        "io.write.ms_per_op": 1e3 * self_of("io.write") / n_ops,
        "trace.self_coverage":
            sum(s.self_time for s in spans if s.layer != "bench") / op_time,
    }
    for layer in ("simulate", "pca", "filtering", "em", "metrics", "montecarlo", "io", "cli"):
        metrics[f"layer.{layer}.self_share"] = layer_self(layer) / op_time
    return metrics


def traced_run(workload, name: str, seconds: float) -> tuple[dict, list, list[Window]]:
    """Untraced and traced rounds, alternating, over the same inputs; for
    ``mc_pool`` each cycle adds a traced serial replay of the batches."""
    from tracing import Tracer

    warm = run_window(workload, rounds=1)
    plain, traced, replay = Window(), Window(), Window()
    tracer, replay_tracer = Tracer(), Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run_round(workload, plain)
        with tracer:
            run_round(workload, traced, call=lambda run, j: tracer.span("bench.op", run, j))
        if name == "mc_pool":
            with replay_tracer:
                run_round(workload, replay,
                          call=lambda run, j: replay_tracer.span("bench.op", run, j, jobs=1))
    windows = [warm, plain, traced]
    spans = tracer.spans
    metrics = {"trace_overhead_ratio": plain.ops_per_s() / traced.ops_per_s()}
    if name == "mc_pool":
        windows.append(replay)
        spans = replay_tracer.spans
        pool_cpu = sum(r.cpu_children for r in plain.rounds)
        metrics["montecarlo.parallel_efficiency"] = replay.wall / (POOL_JOBS * plain.wall)
        metrics["montecarlo.pool_cpu_per_wall"] = pool_cpu / (POOL_JOBS * plain.wall)
        metrics["montecarlo.parallel_efficiency_base"] = {
            "serial_replay_s": replay.wall, "pool_wall_s": plain.wall, "jobs": POOL_JOBS,
            "batches": plain.ops, "replications_per_batch": workloads.POOL_BATCH,
            "children_cpu_s": pool_cpu,
        }
    else:
        metrics["montecarlo.parallel_efficiency"] = 0.0
        metrics["montecarlo.pool_cpu_per_wall"] = 0.0
    metrics.update(per_layer(spans, warm.rounds[0].iterations))

    bare = median_wall([sys.executable, "-c", "pass"], IMPORT_PROBES)
    imported = median_wall([sys.executable, "-c", "import msfactor.cli"], IMPORT_PROBES)
    metrics["cli.import_ms"] = 1e3 * (imported - bare)
    # One `msfactor estimate` process costs interpreter start + import +
    # the in-process operation.
    op = statistics.median(x for r in plain.rounds for x in r.latencies)
    metrics["cli.import_share"] = (
        (imported - bare) / (imported + op) if name == "cli_estimate" else 0.0
    )
    return metrics, spans, windows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--refs", type=Path, default=workloads.REFS)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        cls = WORKLOADS[args.workload]
        extra = {"in_process": True} if args.trace and cls is workloads.CliEstimate else {}
        workload = cls(args.seed, workloads.load_refs(args.refs), workdir, **extra)
        if args.setup_only:
            return
        if args.trace:
            metrics, spans, windows = traced_run(workload, args.workload, args.seconds)
        else:
            windows = [run_window(workload, rounds=1), run_window(workload, args.seconds)]
            metrics, spans = end_to_end(windows[1]), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "inputs": workload.inputs,
        "metrics": metrics,
        "attempted": sum(w.ops for w in windows),
        "failed": sum(w.failed for w in windows),
        "problems": [p for w in windows for p in w.problems][:20],
        "spans": [s.to_json() for s in spans],
    }
    args.result.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
