"""Smoke check of the benchmark's pinned references.

Runs one replication from each of four iteration strata of the
``mc_table1`` pool (N=100, T=500) and of the ``mc_wide`` pool (design 4 at
N=600 > T=300, where PCA takes the T x T Gram route), and one
``msfactor estimate --k auto --demean`` of the ``cli_estimate`` pool
(630 x 49), and checks each with the benchmark's own rule: p11/p22 within
1e-6, the final log likelihood within 1e-9 relative, the exact EM
iteration count (and selected k), EM ascent and normalised probability
rows. A rewrite of PCA, the E step or the M steps that moves convergence
shows up here as a failure.

Also checks that every function the benchmark's tracer wraps, and every
name the package exports, still exists.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    # leave bench/ exactly as checked out: no bytecode cache beside it
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load_bench("workloads")


def test_traced_targets_resolve():
    for module, attr, _ in _load_bench("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("module", ["msfactor", "msfactor.em"])
def test_exported_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _check_one_per_stratum(workloads, name, design):
    refs = workloads.load_refs()[name]
    costs = {key: ref["iterations"] for key, ref in refs.items()}
    keys = workloads.stratified_round(costs, 4, seed=0)
    for key in keys:
        rng_seed, stream = map(int, key.split("/"))
        res = workloads.montecarlo.run_replication(
            design, workloads.EmConfig(), rng_seed, stream
        )
        assert workloads.check_replication(res, refs[key]) == [], key


def test_table1_replications_match_pinned_references(workloads):
    _check_one_per_stratum(workloads, "mc_table1", workloads.TABLE1)


def test_wide_replications_match_pinned_references(workloads):
    _check_one_per_stratum(workloads, "mc_wide", workloads.WIDE)


def test_cli_estimate_matches_pinned_reference(workloads, tmp_path, capsys):
    refs = workloads.load_refs()["cli_estimate"]
    costs = {key: ref["iterations"] for key, ref in refs.items()}
    (key,) = workloads.stratified_round(costs, 1, seed=0)
    csv = tmp_path / "panel.csv"
    workloads.save_panel_csv(csv, workloads.empirical_panel(int(key)))
    out_dir = tmp_path / "estimate"
    assert workloads.cli.main(workloads.estimate_argv(csv, out_dir)) == 0
    assert workloads.check_estimate_output(out_dir, refs[key]).problems == [], key
