#!/usr/bin/env python3
"""The msfactor benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload mc_table1 --seed 0 --seconds 22 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the per-layer metrics, with spans around
the public functions of each ``msfactor`` module. Every metric is printed
as ``name = value unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record, with the machine's metadata and, when traced, every span, is
written to ``bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.

No BLAS or OpenMP thread variable is set: the workloads run under the
thread environment a user would have.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def units(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_seconds(args) -> float:
    """Median wall time of a fresh interpreter that imports msfactor and
    builds the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(worker_argv(args, "--setup-only"), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(load_at_start: tuple[float, float, float]) -> dict:
    probe = (
        "import json, platform, numpy, scipy;"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps({'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))"
    )
    versions = json.loads(subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True
    ).stdout)
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        **versions,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", help="reference file to check against (default bench/refs.json)")
    args = parser.parse_args()

    if not (ROOT / "src" / "msfactor" / "__init__.py").is_file():
        print(f"no msfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result_file = OUT / f"worker_{tag}_{os.getpid()}.json"

    setup = None if args.trace else setup_seconds(args)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_file)]
    if args.refs:
        extra += ["--refs", args.refs]
    subprocess.run(worker_argv(args, *extra), check=True)
    record = json.loads(result_file.read_text())
    result_file.unlink()

    measured = record["metrics"]
    if setup is not None:
        measured["setup_s"] = setup
    declared = units(spec, "per_layer" if args.trace else "end_to_end")
    missing = sorted(set(declared) - set(measured))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  fail_ratio = {record['failed'] / record['attempted']:.6g} 1"
          f"  ({record['failed']} of {record['attempted']} operations)")
    if not args.trace:
        samples = measured["op_samples"]
        print(f"  op_ms_p50 over {samples} samples: {len(measured['round_walls'])} rounds"
              f" of the same inputs")
        # p90 only where at least 10 samples lie above it
        if samples >= 100:
            print(f"  op_ms_p90 = {measured['op_ms_p90']:.6g} ms")
    elif "montecarlo.parallel_efficiency_base" in measured:
        base = measured["montecarlo.parallel_efficiency_base"]
        print(f"  montecarlo.parallel_efficiency base: {json.dumps(base)}")
    for name, unit in declared.items():
        print(f"  {name} = {measured[name]:.6g} {unit}")

    env = environment(load_at_start)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **record, "metrics": measured,
    }
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(full, indent=1))
    print(f"  environment: {json.dumps(env)}")

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
