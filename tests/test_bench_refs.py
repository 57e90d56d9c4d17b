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
name the package exports, still exists, and that the tracer sees the
filter and smoother of every EM pass.
"""

import importlib

import pytest

from conftest import load_bench


@pytest.fixture(scope="module")
def workloads():
    return load_bench("workloads")


def test_traced_targets_resolve():
    for module, attr, _ in load_bench("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_tracer_sees_every_e_step():
    # every EM pass, the last one included, is one call of the public
    # filter_smoother_pass, which runs the public filter, smoother and cross
    # probabilities, so the tracer's per-layer E-step metrics are not blind
    from msfactor import (
        EmConfig, RngHandle, SimConfig, estimate_factor_space, run_em, simulate_panel
    )

    truth = simulate_panel(SimConfig(n=20, t=80, r=1), RngHandle(seed=0))
    fs = estimate_factor_space(truth.panel, k=2)
    with load_bench("tracing").Tracer() as tracer:
        result = run_em(truth.panel, fs, EmConfig())
    passes = result.iterations + 1
    expected = {
        "em.init": 1,
        "filtering.log_densities": passes,
        "filtering.pass": passes,
        "filtering.filter": passes,
        "filtering.smoother": passes,
        "filtering.cross": passes,
        "em.m_loadings": result.iterations,
        "em.m_variances": result.iterations,
        "em.m_transition": result.iterations,
        "em.relabel": 1,
    }
    names = [span.name for span in tracer.spans]
    assert {name: names.count(name) for name in expected} == expected
    assert set(names) == set(expected)
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name in ("filtering.filter", "filtering.smoother", "filtering.cross"):
            assert by_id[span.parent].name == "filtering.pass"
    periods = [span.counts["periods"] for span in tracer.spans if span.name == "filtering.filter"]
    assert periods == [80] * passes


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
