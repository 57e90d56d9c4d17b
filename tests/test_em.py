import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfactor.em import (
    EmConfig,
    init_params,
    m_step_loadings,
    m_step_transition,
    m_step_variances,
    relabel_states,
    run_em,
)
from msfactor.exceptions import EmptyRegimeError, SingularGramError
from msfactor.filtering import anchor_fit, filter_smoother_pass, regime_log_densities
from msfactor.oracle import enumerate_posterior
from msfactor.pca import estimate_factor_space
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import (
    STATE_1,
    ModelParams,
    StateProbabilities,
    Panel,
    ProbabilityPath,
    RngHandle,
    TransitionMatrix,
    unconditional_probs,
    validate_panel,
)

P_EXAMPLE = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))
STATE_2 = StateProbabilities(np.array([0.0, 1.0]))


def expected_loglik(log_eta, smoothed, cross, trans):
    """Expected complete-data log-likelihood under the given posteriors,
    the function the M step maximises:

        sum_t sum_j w_jt log eta_jt
        + sum_{t>=2} sum_{i,j} cross[(j,i), t] log p_ij,

    where zero-weight terms contribute zero even when the log probability
    is -inf.
    """
    density_part = float((smoothed * log_eta).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rho = np.log(trans.p.reshape(-1))  # (p11, p12, p21, p22)
        weights = cross[1:]
        terms = np.where(weights > 0.0, weights * log_rho[None, :], 0.0)
    return density_part + float(terms.sum())


def _uniform_path(t_len=4):
    half = np.full((t_len, 2), 0.5)
    quarter = np.full((t_len, 4), 0.25)
    return ProbabilityPath(
        predicted=half, filtered=half, smoothed=half, cross=quarter, loglik=-1.0
    )


class TestInitParams:
    def test_omega_arithmetic(self):
        truth = simulate_panel(SimConfig(n=20, t=60, r=1), RngHandle(seed=0))
        fs = estimate_factor_space(truth.panel, k=2)
        params = init_params(truth.panel, fs, EmConfig(omega1=0.2, omega2=0.1))
        assert np.allclose(params.trans.p, [[0.7, 0.3], [0.4, 0.6]])
        assert np.array_equal(params.b1, fs.a_hat)
        assert np.array_equal(params.b2, fs.a_hat)

    def test_initial_state_one_most_probable(self):
        trans = TransitionMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]))
        stat = unconditional_probs(trans).values
        assert abs(stat[0] - 0.4 / 0.7) < 1e-12
        assert stat[0] > 0.5

    def test_noiseless_panel_hits_variance_floor(self):
        rng = np.random.default_rng(1)
        lam = rng.standard_normal((10, 2))
        g = rng.standard_normal((50, 2))
        panel = validate_panel(g @ lam.T)
        fs = estimate_factor_space(panel, k=2)
        params = init_params(panel, fs, EmConfig())
        assert np.allclose(params.sigma_e1_diag, panel.variance_floor())

    def test_residual_variance_matches_pca_residuals(self):
        truth = simulate_panel(SimConfig(n=20, t=80, r=1), RngHandle(seed=2))
        fs = estimate_factor_space(truth.panel, k=2)
        params = init_params(truth.panel, fs, EmConfig())
        resid = truth.panel.data - fs.g_hat @ fs.a_hat.T
        assert np.allclose(params.sigma_e1_diag, (resid**2).mean(axis=0))


class TestMStepLoadings:
    def test_hard_weights_give_subsample_ols(self):
        # subsample OLS oracle with the true indicators as weights
        truth = simulate_panel(SimConfig(n=15, t=200, r=1), RngHandle(seed=3))
        fs = estimate_factor_space(truth.panel, k=2)
        b1, b2 = m_step_loadings(truth.panel, fs.g_hat, truth.xi)
        for b, state in [(b1, 1), (b2, 2)]:
            rows = truth.states == state
            ols = np.linalg.lstsq(fs.g_hat[rows], truth.panel.data[rows], rcond=None)[0].T
            assert np.abs(b - ols).max() < 1e-10

    def test_degenerate_weights_raise_for_empty_regime(self):
        truth = simulate_panel(SimConfig(n=10, t=50, r=1), RngHandle(seed=4))
        fs = estimate_factor_space(truth.panel, k=2)
        weights = np.column_stack([np.ones(50), np.zeros(50)])
        with pytest.raises(SingularGramError) as err:
            m_step_loadings(truth.panel, fs.g_hat, weights)
        assert err.value.regime == 2

    def test_equal_weights_give_pooled_ols(self):
        truth = simulate_panel(SimConfig(n=10, t=60, r=1), RngHandle(seed=5))
        fs = estimate_factor_space(truth.panel, k=2)
        weights = np.full((60, 2), 0.5)
        b1, b2 = m_step_loadings(truth.panel, fs.g_hat, weights)
        pooled = np.linalg.lstsq(fs.g_hat, truth.panel.data, rcond=None)[0].T
        assert np.abs(b1 - pooled).max() < 1e-10
        assert np.abs(b2 - pooled).max() < 1e-10


class TestMStepVariances:
    def test_full_weights_give_mean_squared_residual(self):
        truth = simulate_panel(SimConfig(n=10, t=60, r=1), RngHandle(seed=6))
        fs = estimate_factor_space(truth.panel, k=2)
        b = np.zeros((10, 2))
        weights = np.column_stack([np.ones(60), np.ones(60)])
        s1, _ = m_step_variances(truth.panel, fs.g_hat, b, b, weights)
        assert np.allclose(s1, (truth.panel.data**2).mean(axis=0))

    def test_hand_instance(self):
        # residuals (1, 3), weights (0.25, 0.75): (0.25*1 + 0.75*9) / 1 = 7
        panel = Panel(data=np.array([[1.0], [3.0]]))
        g = np.zeros((2, 1))
        b = np.zeros((1, 1))
        weights = np.array([[0.25, 0.75], [0.75, 0.25]])
        s1, _ = m_step_variances(panel, g, b, b, weights)
        assert abs(s1[0] - 7.0) < 1e-12

    def test_zero_residuals_floored(self):
        rng = np.random.default_rng(7)
        lam = rng.standard_normal((8, 1))
        g = rng.standard_normal((40, 1))
        panel = validate_panel(np.outer(g, lam))
        weights = np.full((40, 2), 0.5)
        s1, s2 = m_step_variances(panel, g.reshape(-1, 1), lam.reshape(-1, 1), lam.reshape(-1, 1), weights)
        assert np.allclose(s1, panel.variance_floor())
        assert np.allclose(s2, panel.variance_floor())

    def test_empty_regime_raises(self):
        panel = Panel(data=np.random.default_rng(8).standard_normal((30, 4)))
        g = np.zeros((30, 1))
        b = np.zeros((4, 1))
        weights = np.column_stack([np.ones(30), np.zeros(30)])
        with pytest.raises(EmptyRegimeError):
            m_step_variances(panel, g, b, b, weights)


class TestMStepTransition:
    def test_stationary_hand_arithmetic(self):
        cross = np.tile([0.675, 0.075, 0.075, 0.175], (6, 1))
        smoothed = np.tile([0.75, 0.25], (6, 1))
        trans = m_step_transition(cross, smoothed)
        assert np.abs(trans.p - P_EXAMPLE.p).max() < 1e-12

    def test_deterministic_path_transition_counts(self):
        # transition-count oracle for the hard path 1,1,2,2: from state 1
        # one self-transition and one switch; the first row carries no mass
        smoothed = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        cross = np.array(
            [
                [0, 0, 0, 0],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        trans = m_step_transition(cross, smoothed)
        assert np.allclose(trans.p, [[0.5, 0.5], [0.0, 1.0]])

    def test_exchangeable_states_give_equal_diagonal(self):
        cross = np.tile([0.3, 0.2, 0.2, 0.3], (5, 1))
        smoothed = np.tile([0.5, 0.5], (5, 1))
        trans = m_step_transition(cross, smoothed)
        assert abs(trans.p11 - trans.p22) < 1e-14

    def test_rows_sum_exactly(self):
        rng = np.random.default_rng(9)
        truth = simulate_panel(SimConfig(n=20, t=300, r=1), RngHandle(seed=10))
        fs = estimate_factor_space(truth.panel, k=2)
        params = init_params(truth.panel, fs, EmConfig())
        log_eta = regime_log_densities(truth.panel, fs.g_hat, params)
        path = filter_smoother_pass(log_eta, params.trans, STATE_1)
        trans = m_step_transition(path.cross, path.smoothed)
        assert np.abs(trans.p.sum(axis=1) - 1.0).max() < 1e-12

    def test_empty_regime_raises(self):
        cross = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        smoothed = np.tile([1.0, 0.0], (4, 1))
        with pytest.raises(EmptyRegimeError):
            m_step_transition(cross, smoothed)


class TestExpectedLoglik:
    def test_single_regime_reduces_to_density_sum(self):
        rng = np.random.default_rng(10)
        log_eta = rng.normal(-4.0, 1.0, (8, 2))
        smoothed = np.tile([1.0, 0.0], (8, 1))
        cross = np.tile([1.0, 0.0, 0.0, 0.0], (8, 1))
        trans = TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        value = expected_loglik(log_eta, smoothed, cross, trans)
        assert abs(value - log_eta[:, 0].sum()) < 1e-12

    def test_zero_weight_annihilates_infinite_logs(self):
        log_eta = np.zeros((3, 2))
        smoothed = np.tile([1.0, 0.0], (3, 1))
        cross = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        trans = TransitionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))  # log p12 = -inf
        value = expected_loglik(log_eta, smoothed, cross, trans)
        assert np.isfinite(value)

    def test_matches_enumeration_q_function(self):
        # brute-force oracle: E[complete log-likelihood | data] by direct
        # summation over all state paths
        rng = np.random.default_rng(11)
        t_len = 5
        log_eta = rng.normal(-3.0, 1.5, (t_len, 2))
        _, smoothed, cross = enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        value = expected_loglik(log_eta, smoothed, cross, P_EXAMPLE)

        log_p = np.log(P_EXAMPLE.p)
        prior1 = np.log(P_EXAMPLE.p.T @ STATE_1.values)
        total = 0.0
        weights = []
        complete = []
        for m in range(2**t_len):
            path = [(m >> t) & 1 for t in range(t_len)]
            logw = prior1[path[0]] + sum(log_eta[t, path[t]] for t in range(t_len))
            logw += sum(log_p[path[t - 1], path[t]] for t in range(1, t_len))
            weights.append(logw)
            q_term = sum(log_eta[t, path[t]] for t in range(t_len))
            q_term += sum(log_p[path[t - 1], path[t]] for t in range(1, t_len))
            complete.append(q_term)
        weights = np.exp(np.array(weights) - np.logaddexp.reduce(weights))
        weights /= weights.sum()
        oracle = float((weights * np.array(complete)).sum())
        assert abs(value - oracle) < 1e-9

    def test_increases_over_early_iterations(self, small_truth, small_factor_space):
        cfg = EmConfig()
        panel, fs = small_truth.panel, small_factor_space
        params = init_params(panel, fs, cfg)
        values = []
        from msfactor.em import ModelParams as MP

        for _ in range(6):
            log_eta = regime_log_densities(panel, fs.g_hat, params)
            path = filter_smoother_pass(log_eta, params.trans, cfg.xi0)
            b1, b2 = m_step_loadings(panel, fs.g_hat, path.smoothed)
            s1, s2 = m_step_variances(panel, fs.g_hat, b1, b2, path.smoothed)
            trans = m_step_transition(path.cross, path.smoothed)
            params = MP(b1=b1, b2=b2, sigma_e1_diag=s1, sigma_e2_diag=s2, trans=trans)
            params, path = relabel_states(params, path)
            values.append(
                expected_loglik(
                    regime_log_densities(panel, fs.g_hat, params),
                    path.smoothed,
                    path.cross,
                    params.trans,
                )
            )
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRelabelStates:
    @staticmethod
    def _params(trans):
        return ModelParams(
            b1=np.full((3, 2), 1.0),
            b2=np.full((3, 2), 2.0),
            sigma_e1_diag=np.full(3, 0.5),
            sigma_e2_diag=np.full(3, 1.5),
            trans=trans,
        )

    def test_swaps_when_state_two_dominates(self):
        params = self._params(TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]])))
        swapped, _ = relabel_states(params, _uniform_path())
        assert np.allclose(
            unconditional_probs(swapped.trans).values, [0.75, 0.25]
        )
        assert np.allclose(swapped.b1, 2.0)
        assert np.allclose(swapped.sigma_e1_diag, 1.5)

    def test_identity_when_ordered(self):
        params = self._params(P_EXAMPLE)
        relabeled, path = relabel_states(params, _uniform_path())
        assert relabeled is params

    def test_idempotent(self):
        params = self._params(TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]])))
        once, path_once = relabel_states(params, _uniform_path())
        twice, _ = relabel_states(once, path_once)
        assert np.array_equal(once.trans.p, twice.trans.p)
        assert np.array_equal(once.b1, twice.b1)

    def test_swapped_path_is_read_only(self):
        # the swap skips validation but must still hand out frozen,
        # C-contiguous copies, never views into the caller's path
        params = self._params(TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]])))
        rng = np.random.default_rng(3)
        log_eta = rng.normal(-2.0, 1.0, (9, 2))
        path = filter_smoother_pass(log_eta, params.trans, STATE_1)
        _, swapped = relabel_states(params, path)
        for name in ("predicted", "filtered", "smoothed", "cross"):
            arr = getattr(swapped, name)
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous
            assert np.array_equal(arr, getattr(path, name)[:, ::-1])
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.5
        assert swapped.loglik == path.loglik

    def test_cross_columns_reverse(self):
        params = self._params(TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]])))
        t_len = 4
        marginals = np.tile([0.6, 0.4], (t_len, 1))
        cross = np.tile([0.5, 0.1, 0.1, 0.3], (t_len, 1))
        path = ProbabilityPath(
            predicted=marginals,
            filtered=marginals,
            smoothed=marginals,
            cross=cross,
            loglik=0.0,
        )
        _, swapped = relabel_states(params, path)
        assert np.allclose(swapped.cross, np.tile([0.3, 0.1, 0.1, 0.5], (t_len, 1)))
        assert np.allclose(swapped.smoothed, np.tile([0.4, 0.6], (t_len, 1)))


class TestRunEm:
    def test_deterministic(self):
        truth = simulate_panel(SimConfig(n=40, t=200, r=1), RngHandle(seed=12))
        fs = estimate_factor_space(truth.panel, k=2)
        a = run_em(truth.panel, fs, EmConfig())
        b = run_em(truth.panel, fs, EmConfig())
        assert np.array_equal(a.params.b1, b.params.b1)
        assert np.array_equal(a.params.trans.p, b.params.trans.p)
        assert a.loglik_trace == b.loglik_trace
        assert np.array_equal(a.path.smoothed, b.path.smoothed)

    def test_trace_non_decreasing(self, small_truth, small_factor_space):
        result = run_em(small_truth.panel, small_factor_space, EmConfig())
        trace = np.array(result.loglik_trace)
        assert (np.diff(trace) >= -1e-6).all()

    def test_label_invariance_of_initial_state(self, small_truth, small_factor_space):
        # The two initialisations imply different pseudo-transition counts
        # for the pre-sample state, so the fitted parameters can differ by
        # O(1/T); both runs must still land in the same labelled optimum.
        cfg_a = EmConfig(max_iter=500, epsilon=1e-14, xi0=STATE_1)
        cfg_b = EmConfig(max_iter=500, epsilon=1e-14, xi0=STATE_2)
        res_a = run_em(small_truth.panel, small_factor_space, cfg_a)
        res_b = run_em(small_truth.panel, small_factor_space, cfg_b)
        t_len = small_truth.panel.t_len
        tol = 10.0 / t_len
        assert np.abs(res_a.params.trans.p - res_b.params.trans.p).max() < tol
        assert np.abs(res_a.params.b1 - res_b.params.b1).max() < tol
        assert np.abs(res_a.params.sigma_e1_diag - res_b.params.sigma_e1_diag).max() < tol
        # typical periods agree tightly; a handful of genuinely ambiguous
        # periods may flip classification under the O(1/T) parameter shift
        diffs = np.abs(res_a.path.smoothed - res_b.path.smoothed).max(axis=1)
        assert np.median(diffs) < 1e-3

    def test_state_one_has_top_unconditional_probability(self, small_truth, small_factor_space):
        result = run_em(small_truth.panel, small_factor_space, EmConfig())
        stat = unconditional_probs(result.params.trans).values
        assert stat[0] >= stat[1]

    def test_non_convergence_reported_not_raised(self, small_truth, small_factor_space):
        result = run_em(small_truth.panel, small_factor_space, EmConfig(max_iter=2))
        assert result.converged is False
        assert result.iterations == 2

    def test_near_balanced_regimes_do_not_cycle(self):
        # Regression: on small panels with nearly balanced fitted regimes,
        # per-iteration relabeling used to flip the parameter labels while
        # the pre-sample prior kept pointing at fixed state 1, turning the
        # trace into a +-1 limit cycle that never converged. The prior now
        # swaps together with the labels.
        truth = simulate_panel(SimConfig(n=20, t=80, r=1), RngHandle(seed=5, stream=3))
        fs = estimate_factor_space(truth.panel, k=2)
        result = run_em(truth.panel, fs, EmConfig())
        trace = np.array(result.loglik_trace)
        assert result.converged is True
        assert (np.diff(trace) >= -1e-9).all()


def _direct_log_densities(x, g, params):
    """regime_log_densities as a T x N residual per regime, and the size of
    the three terms each entry sums (the entry itself can pass through 0)."""
    out, scale = [], []
    for b, s2 in [(params.b1, params.sigma_e1_diag), (params.b2, params.sigma_e2_diag)]:
        const = 0.5 * x.shape[1] * np.log(2.0 * np.pi)
        quad = 0.5 * ((x - g @ b.T) ** 2 / s2).sum(axis=1)
        out.append(-const - 0.5 * np.log(s2).sum() - quad)
        scale.append(const + 0.5 * np.abs(np.log(s2)).sum() + quad)
    return np.column_stack(out), np.column_stack(scale)


def _direct_variances(x, g, bs, weights, floor):
    """m_step_variances as a T x N residual per regime."""
    return [
        np.maximum(w @ (x - g @ b.T) ** 2 / w.sum(), floor)
        for b, w in zip(bs, weights.T)
    ]


def _weighted_fit(x, g, w):
    """Minimum-norm weighted least-squares loadings, N x k."""
    root = np.sqrt(w)[:, None]
    return np.linalg.lstsq(g * root, x * root, rcond=None)[0].T


def _offset_panel(cfg, seed, offset_sd):
    """A simulated panel with ``offset_sd`` standard deviations added to
    every column."""
    data = simulate_panel(cfg, RngHandle(seed=seed)).panel.data
    return validate_panel(data + offset_sd * data.std(axis=0))


class TestExpandedKernels:
    """The kernels expand the residual around the least-squares fit of the
    panel on g; they must agree with the T x N residual they avoid building
    where that expansion is most exposed: large column means, a nearly
    noise-free panel, variances at the floor and a factor column of zeros."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        offset_sd=st.sampled_from([0.0, 1.0, 1e2, 1e4]),
        noise_to_signal=st.sampled_from([0.5, 1e-6, 1e-12]),
        hard_weights=st.booleans(),
        at_floor=st.booleans(),
        zero_column=st.booleans(),
    )
    def test_match_direct_residual_formula(
        self, seed, offset_sd, noise_to_signal, hard_weights, at_floor, zero_column
    ):
        cfg = SimConfig(n=12, t=60, r=1, noise_to_signal=noise_to_signal)
        panel = _offset_panel(cfg, seed, offset_sd)
        x = panel.data
        g = estimate_factor_space(panel, k=2).g_hat.copy()
        if zero_column:
            g[:, 1] = 0.0
        rng = np.random.default_rng(seed)
        w1 = (rng.uniform(size=60) < 0.7).astype(float) if hard_weights else rng.uniform(size=60)
        w1[:2] = [0.0, 1.0]  # both regimes keep some weight
        weights = np.column_stack([w1, 1.0 - w1])
        # per-regime fits: the terms of the expansion cancel the most here
        bs = [_weighted_fit(x, g, w) for w in weights.T]
        floor = panel.variance_floor()
        variances = _direct_variances(x, g, bs, weights, floor)
        got = m_step_variances(panel, g, bs[0], bs[1], weights)
        for observed, expected in zip(got, variances):
            np.testing.assert_allclose(observed, expected, rtol=1e-9, atol=0.0)

        params = ModelParams(
            b1=bs[0],
            b2=bs[1],
            sigma_e1_diag=variances[0],
            sigma_e2_diag=np.full(12, floor) if at_floor else variances[1],
            trans=P_EXAMPLE,
        )
        expected, scale = _direct_log_densities(x, g, params)
        gap = np.abs(regime_log_densities(panel, g, params) - expected) / scale
        assert gap.max() <= 1e-9

    @pytest.mark.parametrize(
        "cfg, offset_sd",
        [
            (SimConfig(n=100, t=500, r=1), 1e4),
            (SimConfig(n=100, t=500, r=1, noise_to_signal=1e-12), 0.0),
        ],
        ids=["column-offsets", "near-noise-free"],
    )
    def test_em_ascends(self, cfg, offset_sd):
        # expanded around x instead of the fit, these runs step down by ~1e-2
        panel = _offset_panel(cfg, 1, offset_sd)
        result = run_em(panel, estimate_factor_space(panel, k=2), EmConfig(max_iter=60))
        steps = np.diff(result.loglik_trace)
        assert (steps < -1e-6).sum() == 0, steps.min()


class TestAnchorFitMemo:
    def test_one_read_only_entry_per_panel_and_factors(self, monkeypatch):
        truth = simulate_panel(SimConfig(n=30, t=120, r=1), RngHandle(seed=6))
        panel = validate_panel(truth.panel.data)
        fs = estimate_factor_space(panel, k=2)
        calls = []
        pinv = np.linalg.pinv

        def counting_pinv(a, *args, **kwargs):
            calls.append(a.shape)
            return pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        first = run_em(panel, fs, EmConfig())
        second = run_em(panel, fs, EmConfig())
        assert calls == [(120, 2)]
        assert first.loglik_trace == second.loglik_trace
        entries = [key for key in panel._memo if key[0] == "anchor_fit"]
        assert len(entries) == 1
        a0, z, zz = panel._memo[entries[0]]
        assert not (a0.flags.writeable or z.flags.writeable or zz.flags.writeable)
        assert anchor_fit(panel, fs.g_hat)[1] is z
        # PCA factors: the least-squares loadings are the PCA loadings
        assert np.abs(a0 - fs.a_hat).max() < 1e-10
        assert np.array_equal(z * z, zz)
        # another g is another entry
        anchor_fit(panel, fs.g_hat[:, :1])
        assert len([key for key in panel._memo if key[0] == "anchor_fit"]) == 2
