import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import on_blas_threads
from msfactor import em
from msfactor.em import (
    EmConfig,
    init_params,
    m_step_loadings,
    m_step_transition,
    m_step_variances,
    relabel_states,
    run_em,
)
from msfactor.exceptions import (
    DimensionMismatchError,
    EmptyRegimeError,
    InvalidArgumentError,
    MsfactorError,
    SingularGramError,
)
from msfactor.filtering import anchor_fit, filter_smoother_pass, regime_log_densities
from msfactor.oracle import enumerate_posterior
from msfactor.pca import estimate_factor_space, select_num_factors_er
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import (
    STATE_1,
    ModelParams,
    Panel,
    ProbabilityPath,
    RngHandle,
    TransitionMatrix,
    row_sum_deviation,
    unconditional_probs,
    validate_panel,
)

P_EXAMPLE = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))
#: Paper Table 1 design, and design 4 (r=2, serially and cross-correlated
#: noise) at N > T.
TABLE1 = SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7)
DESIGN4_WIDE = SimConfig(
    n=150, t=100, r=2, p11=0.9, p22=0.7, rho_f=0.7, tau=0.5, rho_idio_max=0.5
)


def expected_loglik(log_eta, smoothed, cross, trans):
    """Expected complete-data log-likelihood under the given posteriors,
    the function the M step maximises:

        sum_t sum_j w_jt log eta_jt
        + sum_{t>=2} sum_{i,j} cross[t, i, j] log p_ij,

    where zero-weight terms contribute zero even when the log probability
    is -inf.
    """
    density_part = float((smoothed * log_eta).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = cross[1:]
        terms = np.where(weights > 0.0, weights * np.log(trans.p), 0.0)
    return density_part + float(terms.sum())


class TestEmConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf], ids=["zero", "neg", "nan", "inf"])
    def test_epsilon_must_be_finite_and_positive(self, value):
        with pytest.raises(InvalidArgumentError, match="epsilon must be finite"):
            EmConfig(epsilon=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["omega1", "omega2"])
    def test_non_finite_offset_rejected(self, name, value):
        with pytest.raises(InvalidArgumentError, match="omega2 < omega1"):
            EmConfig(**{name: value})


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


class TestMStepShapes:
    """Both panel M steps check the factors and weights against the
    panel's T; a mismatch used to be numpy's broadcast or matmul error."""

    panel = validate_panel(np.random.default_rng(9).standard_normal((10, 4)))
    steps = {
        "loadings": lambda panel, g, w: m_step_loadings(panel, g, w),
        "variances": lambda panel, g, w: m_step_variances(
            panel, g, np.zeros((4, 2)), np.zeros((4, 2)), w
        ),
    }

    @pytest.mark.parametrize(
        ("g_shape", "w_shape"),
        [((10, 2), (9, 2)), ((10, 2), (11, 2)), ((9, 2), (9, 2)), ((10,), (10, 2)),
         ((10, 2), (10,)), ((10, 2), (10, 3))],
        ids=["short-weights", "long-weights", "short-both", "flat-factors", "flat-weights",
             "three-states"],
    )
    @pytest.mark.parametrize("step", list(steps))
    def test_mismatch_rejected(self, step, g_shape, w_shape):
        g = np.random.default_rng(1).standard_normal(g_shape)
        with pytest.raises(DimensionMismatchError):
            self.steps[step](self.panel, g, np.full(w_shape, 0.5))


class TestMStepTransition:
    def test_stationary_hand_arithmetic(self):
        # p_ij xi_i at the stationary point xi = (0.75, 0.25)
        cross = np.tile([[0.675, 0.075], [0.075, 0.175]], (6, 1, 1))
        smoothed = np.tile([0.75, 0.25], (6, 1))
        trans = m_step_transition(cross, smoothed)
        assert np.abs(trans.p - P_EXAMPLE.p).max() < 1e-12

    def test_deterministic_path_transition_counts(self):
        # transition-count oracle for the hard path 1,1,2,2: from state 1
        # one self-transition and one switch; the first row carries no mass
        smoothed = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        cross = np.zeros((4, 2, 2))
        cross[1, 0, 0] = cross[2, 0, 1] = cross[3, 1, 1] = 1.0
        trans = m_step_transition(cross, smoothed)
        assert np.allclose(trans.p, [[0.5, 0.5], [0.0, 1.0]])

    def test_exchangeable_states_give_equal_diagonal(self):
        cross = np.tile([[0.3, 0.2], [0.2, 0.3]], (5, 1, 1))
        smoothed = np.tile([0.5, 0.5], (5, 1))
        trans = m_step_transition(cross, smoothed)
        assert abs(trans.p11 - trans.p22) < 1e-14

    def test_rows_sum_exactly(self):
        rng = np.random.default_rng(9)
        truth = simulate_panel(SimConfig(n=20, t=300, r=1), RngHandle(seed=10))
        fs = estimate_factor_space(truth.panel, k=2)
        params = init_params(truth.panel, fs, EmConfig())
        log_eta = regime_log_densities(truth.panel, fs.g_hat, params)
        _, _, smoothed, cross, _ = filter_smoother_pass(log_eta, params.trans, STATE_1)
        trans = m_step_transition(cross, smoothed)
        assert np.abs(trans.p.sum(axis=1) - 1.0).max() < 1e-12

    def test_empty_regime_raises(self):
        cross = np.tile([[1.0, 0.0], [0.0, 0.0]], (4, 1, 1))
        smoothed = np.tile([1.0, 0.0], (4, 1))
        with pytest.raises(EmptyRegimeError):
            m_step_transition(cross, smoothed)

    @pytest.mark.parametrize(
        ("cross", "smoothed"),
        [
            (np.full((30, 2, 2), 0.25)[:, :1], np.full((30, 2), 0.5)),
            (np.full((30, 4), 0.25)[:, :3], np.full((30, 2), 0.5)),
            (np.full((30, 4), 0.25), np.full((30, 2), 0.5)),
            (np.full((10, 2, 2), 0.25), np.full((30, 2), 0.5)),
            (np.empty((0, 2, 2)), np.empty((0, 2))),
        ],
        ids=["one-previous-state", "three-columns", "flat-columns", "ten-rows", "no-rows"],
    )
    def test_other_shapes_rejected(self, cross, smoothed):
        message = "T x 2 arrays for one T >= 1|cross must have shape"
        with pytest.raises(DimensionMismatchError, match=message):
            m_step_transition(cross, smoothed)


class TestExpectedLoglik:
    def test_single_regime_reduces_to_density_sum(self):
        rng = np.random.default_rng(10)
        log_eta = rng.normal(-4.0, 1.0, (8, 2))
        smoothed = np.tile([1.0, 0.0], (8, 1))
        cross = np.tile([[1.0, 0.0], [0.0, 0.0]], (8, 1, 1))
        trans = TransitionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        value = expected_loglik(log_eta, smoothed, cross, trans)
        assert abs(value - log_eta[:, 0].sum()) < 1e-12

    def test_zero_weight_annihilates_infinite_logs(self):
        log_eta = np.zeros((3, 2))
        smoothed = np.tile([1.0, 0.0], (3, 1))
        cross = np.tile([[1.0, 0.0], [0.0, 0.0]], (3, 1, 1))
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
        for _ in range(6):
            log_eta = regime_log_densities(panel, fs.g_hat, params)
            path = ProbabilityPath(*filter_smoother_pass(log_eta, params.trans, STATE_1))
            b1, b2 = m_step_loadings(panel, fs.g_hat, path.smoothed)
            s1, s2 = m_step_variances(panel, fs.g_hat, b1, b2, path.smoothed)
            trans = m_step_transition(path.cross, path.smoothed)
            params = ModelParams(b1=b1, b2=b2, sigma_e1_diag=s1, sigma_e2_diag=s2, trans=trans)
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
        swapped = relabel_states(params)
        assert np.allclose(
            unconditional_probs(swapped.trans).values, [0.75, 0.25]
        )
        assert np.array_equal(swapped.trans.p, params.trans.relabeled().p)
        assert np.array_equal(swapped.b1, params.b2)
        assert np.array_equal(swapped.b2, params.b1)
        assert np.array_equal(swapped.sigma_e1_diag, params.sigma_e2_diag)
        assert np.array_equal(swapped.sigma_e2_diag, params.sigma_e1_diag)

    def test_identity_when_ordered(self):
        params = self._params(P_EXAMPLE)
        assert relabel_states(params) is params

    def test_idempotent(self):
        params = self._params(TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]])))
        once = relabel_states(params)
        assert once is not params
        assert relabel_states(once) is once

    @pytest.mark.parametrize(
        "p", [[[0.8, 0.2], [0.2, 0.8]], [[1.0, 0.0], [0.0, 1.0]]], ids=["symmetric", "identity"]
    )
    def test_tie_keeps_the_labels(self, p):
        # p = I has no unique stationary law; the stay probabilities still tie
        params = self._params(TransitionMatrix(np.array(p)))
        assert relabel_states(params) is params


def _soft_pass(cfg):
    """A panel, its factors, the parameters of two EM iterations and the
    pass under them, with soft smoothed weights."""
    truth = simulate_panel(cfg, RngHandle(seed=0, stream=1))
    fs = estimate_factor_space(truth.panel, k=2 * cfg.r)
    params = run_em(truth.panel, fs, EmConfig(max_iter=2)).params
    log_eta = regime_log_densities(truth.panel, fs.g_hat, params)
    path = ProbabilityPath(*filter_smoother_pass(log_eta, params.trans, STATE_1))
    return truth.panel, fs.g_hat, params, path


class TestLabelsFixedOnce:
    """``run_em`` leaves the labels alone in its loop and relabels once at
    the end. That gives the numbers of relabeling every iteration because
    the filter is bitwise label-symmetric and, on one BLAS thread, the
    densities and each M step are bitwise label-equivariant; so a swap
    needs no pass of its own."""

    @pytest.mark.parametrize("cfg", [TABLE1, DESIGN4_WIDE], ids=["table1", "design4-wide"])
    def test_m_steps_are_bitwise_label_equivariant(self, cfg):
        panel, g, params, path = _soft_pass(cfg)
        w, cross = path.smoothed, path.cross
        assert ((w > 1e-3) & (w < 1 - 1e-3)).mean() > 0.9
        # the same parameters under the other labels, which relabel_states swaps back
        other = ModelParams(
            b1=params.b2, b2=params.b1, sigma_e1_diag=params.sigma_e2_diag,
            sigma_e2_diag=params.sigma_e1_diag, trans=params.trans.relabeled(),
        )
        swapped_params = relabel_states(other)
        assert swapped_params is not other
        with on_blas_threads(1):
            log_eta = regime_log_densities(panel, g, other)
            swapped_eta = regime_log_densities(panel, g, swapped_params)
            b1, b2 = m_step_loadings(panel, g, w)
            s1, s2 = m_step_variances(panel, g, b1, b2, w)
            trans = m_step_transition(cross, w)
            swapped_b = m_step_loadings(panel, g, w[:, ::-1])
            swapped_s = m_step_variances(panel, g, b2, b1, w[:, ::-1])
            swapped_trans = m_step_transition(cross[:, ::-1, ::-1], w[:, ::-1])
        assert [a.tobytes() for a in swapped_b] == [b2.tobytes(), b1.tobytes()]
        assert [a.tobytes() for a in swapped_s] == [s2.tobytes(), s1.tobytes()]
        assert swapped_trans.p.tobytes() == trans.relabeled().p.tobytes()
        assert swapped_eta.tobytes() == np.ascontiguousarray(log_eta[:, ::-1]).tobytes()

    @pytest.mark.parametrize(
        ("stream", "swaps"), [(0, True), (1, False)], ids=["final-swap", "no-swap"]
    )
    def test_one_relabel_per_run(self, monkeypatch, stream, swaps):
        # Table 1 inputs 0/0 and 0/1 of the benchmark pool: the first run's
        # last M step has p11 < p22, the second's p11 >= p22
        calls = []
        relabel = em.relabel_states

        def spy(params):
            labeled = relabel(params)
            calls.append((params, labeled))
            return labeled

        monkeypatch.setattr(em, "relabel_states", spy)
        truth = simulate_panel(TABLE1, RngHandle(seed=0, stream=stream))
        fs = estimate_factor_space(truth.panel, k=2)
        result = run_em(truth.panel, fs, EmConfig())
        assert result.iterations > 1 and len(calls) == 1
        loop_params, labeled = calls[0]
        assert labeled is result.params and (labeled is not loop_params) == swaps
        assert result.params.trans.p11 >= result.params.trans.p22
        assert result.path.loglik == result.loglik_trace[-1]
        for name in ("predicted", "filtered", "smoothed", "cross"):
            assert row_sum_deviation(getattr(result.path, name)) < 1e-10
        # the returned path is the pass under the loop's own parameters,
        # with its labels swapped when the parameters' were
        log_eta = regime_log_densities(truth.panel, fs.g_hat, loop_params)
        loop_path = ProbabilityPath(*filter_smoother_pass(log_eta, loop_params.trans, STATE_1))
        assert loop_path.loglik == result.path.loglik
        flip = slice(None, None, -1 if swaps else 1)
        for name in ("predicted", "filtered", "smoothed", "cross"):
            array = getattr(loop_path, name)
            expected = array[(slice(None),) + (flip,) * (array.ndim - 1)]
            assert expected.tobytes() == getattr(result.path, name).tobytes()


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

    def test_state_one_has_top_unconditional_probability(self, small_truth, small_factor_space):
        result = run_em(small_truth.panel, small_factor_space, EmConfig())
        stat = unconditional_probs(result.params.trans).values
        assert stat[0] >= stat[1]

    def test_non_convergence_reported_not_raised(self, small_truth, small_factor_space):
        result = run_em(small_truth.panel, small_factor_space, EmConfig(max_iter=2))
        assert result.converged is False
        assert result.iterations == 2
        assert len(result.loglik_trace) == 2

    def test_factors_of_another_panel_rejected(self):
        # the first product with the factors used to be numpy's matmul error
        longer = simulate_panel(SimConfig(n=8, t=12, r=1), RngHandle(seed=3)).panel
        panel = validate_panel(longer.data[:10])
        fs = estimate_factor_space(longer, k=2)
        with pytest.raises(DimensionMismatchError, match="panel's 10 rows"):
            run_em(panel, fs, EmConfig())

    @pytest.mark.parametrize(
        ("current", "previous", "change"),
        [(0.0, 0.0, 0.0), (1.0, -1.0, np.inf), (-3.0, -1.0, 1.0)],
        ids=["both-zero", "zero-scale", "plain"],
    )
    def test_relative_change(self, current, previous, change):
        # a zero mean scale converges only where nothing changed
        assert em._relative_change(current, previous) == change

    @pytest.mark.parametrize("value", [1.0, 2.5])
    def test_constant_panel_converges_flat_on_one_and_two_blas_threads(self, value):
        # Regression: a zero sample variance gave a zero variance floor, and
        # with it a trace stepping down by hundreds (value 1) or variances
        # that ModelParams rejects as non-positive (value 2.5).
        results = []
        for threads in (1, 2):
            with on_blas_threads(threads):
                panel = validate_panel(np.full((60, 3), value))
                results.append(run_em(panel, estimate_factor_space(panel, k=1), EmConfig()))
        one, two = results
        assert one.converged and one.iterations == 4
        assert np.all(np.diff(one.loglik_trace) == 0.0)
        assert row_sum_deviation(one.path.smoothed) < 1e-10
        assert one.loglik_trace == two.loglik_trace
        for name in ("b1", "b2", "sigma_e1_diag", "sigma_e2_diag"):
            assert np.array_equal(getattr(one.params, name), getattr(two.params, name))
        assert np.array_equal(one.path.smoothed, two.path.smoothed)

    def test_near_balanced_regimes_do_not_cycle(self):
        # Regression: on small panels with nearly balanced fitted regimes,
        # relabeling inside the loop while the pre-sample prior stayed on
        # state 1 turned the trace into a +-1 limit cycle that never
        # converged. The loop now leaves the labels, and the prior, alone.
        truth = simulate_panel(SimConfig(n=20, t=80, r=1), RngHandle(seed=5, stream=3))
        fs = estimate_factor_space(truth.panel, k=2)
        result = run_em(truth.panel, fs, EmConfig())
        trace = np.array(result.loglik_trace)
        assert result.converged is True
        assert (np.diff(trace) >= -1e-9).all()


@pytest.fixture
def validated_passes(monkeypatch):
    """Every forward-backward pass inside ``run_em``, the last one
    included, also built (and so validated) as a :class:`ProbabilityPath`;
    the loop still gets the plain arrays."""
    paths = []
    forward_backward = em.filter_smoother_pass

    def validating(*args):
        arrays = forward_backward(*args)
        paths.append(ProbabilityPath(*arrays))
        return arrays

    monkeypatch.setattr(em, "filter_smoother_pass", validating)
    return paths


class TestPassesInsideRunEm:
    @pytest.mark.parametrize("cfg", [TABLE1, DESIGN4_WIDE], ids=["table1", "design4-wide"])
    def test_every_intermediate_pass_is_a_valid_path(self, validated_passes, cfg):
        truth = simulate_panel(cfg, RngHandle(seed=0, stream=1))
        fs = estimate_factor_space(truth.panel, k=2 * cfg.r)
        result = run_em(truth.panel, fs, EmConfig())
        assert len(validated_passes) == result.iterations + 1
        # pass k >= 1 scores the (k)-th M step, and the last pass is the result's
        assert [path.loglik for path in validated_passes[1:]] == list(result.loglik_trace)
        for name in ("predicted", "filtered", "smoothed", "cross"):
            last = getattr(validated_passes[-1], name)
            assert last.tobytes() == getattr(result.path, name).tobytes()

    def test_one_probability_path_per_run(self, monkeypatch, small_truth, small_factor_space):
        built = []
        check = ProbabilityPath.__post_init__

        def counting(path):
            built.append(path)
            check(path)

        monkeypatch.setattr(ProbabilityPath, "__post_init__", counting)
        result = run_em(small_truth.panel, small_factor_space, EmConfig())
        assert result.iterations > 1
        assert len(built) == 1 and built[0] is result.path
        for name in ("predicted", "filtered", "smoothed", "cross"):
            arr = getattr(result.path, name)
            assert arr.dtype == np.float64
            assert not arr.flags.writeable and arr.flags.c_contiguous


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
    # cancellation-exposed inputs: a series' variance (1.28e-9 relative off
    # without the direct fallback), then rows of the log densities, where
    # the terms of the k x k quadratic form cancel (6.3e-9 and 1.2e-9)
    @example(
        seed=5692, offset_sd=1.0, noise_to_signal=1e-6,
        hard_weights=True, at_floor=False, zero_column=False,
    )
    @example(
        seed=5692, offset_sd=0.0, noise_to_signal=1e-12,
        hard_weights=True, at_floor=True, zero_column=False,
    )
    @example(
        seed=39495, offset_sd=1.0, noise_to_signal=1e-12,
        hard_weights=True, at_floor=True, zero_column=False,
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
            # wide and nearly noise-free: the log densities' cancellation
            # guard is relative to their quadratic form, which grows with N
            (SimConfig(n=600, t=300, r=2, noise_to_signal=1e-9), 0.0),
        ],
        ids=["column-offsets", "near-noise-free", "wide-near-noise-free"],
    )
    def test_em_ascends(self, cfg, offset_sd):
        # expanded around x instead of the fit, the first two step down by ~1e-2
        panel = _offset_panel(cfg, 1, offset_sd)
        fs = estimate_factor_space(panel, k=2 * cfg.r)
        result = run_em(panel, fs, EmConfig(max_iter=60))
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


def _degenerate_panel(family, t_len, n, scale, seed):
    """A one-factor panel at ``scale`` made degenerate the way ``family``
    names: some columns set to one shared constant, duplicated or zero, the
    whole panel rank one, or every entry rounded to an integer."""
    rng = np.random.default_rng(seed)
    signal = np.outer(rng.standard_normal(t_len), rng.standard_normal(n))
    if family == "rank-one":
        return scale * signal
    data = scale * (signal + rng.standard_normal((t_len, n)))
    cols = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    if family == "constant-columns":
        data[:, cols] = scale * rng.standard_normal()
    elif family == "duplicated-columns":
        data[:, cols] = data[:, [cols[0]]]
    elif family == "zero-columns":
        data[:, cols] = 0.0
    elif family == "integer":
        data = np.round(data)
    return data


class TestDegeneratePanels:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(
            ["constant-columns", "duplicated-columns", "zero-columns", "rank-one", "integer"]
        ),
        t_len=st.integers(8, 40),
        n=st.integers(2, 6),
        scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    # a regime that fits both series exactly: the expanded densities stepped down
    @example(family="integer", t_len=15, n=2, scale=1.0, seed=15)
    # every column constant: the sample variance, once the floor, is zero
    @example(family="constant-columns", t_len=20, n=3, scale=1.0, seed=1)
    def test_pipeline_ends_in_a_result_or_an_msfactor_error(self, family, t_len, n, scale, seed):
        panel = validate_panel(_degenerate_panel(family, t_len, n, scale, seed))
        try:
            k = select_num_factors_er(panel, min(n, 4) - 1)
            result = run_em(panel, estimate_factor_space(panel, k), EmConfig(max_iter=50))
        except MsfactorError:
            return
        assert (np.diff(result.loglik_trace) >= -1e-6).all()
        for name in ("predicted", "filtered", "smoothed", "cross"):
            assert row_sum_deviation(getattr(result.path, name)) < 1e-10
