import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfactor.exceptions import (
    DegeneratePredictionError,
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteError,
    ZeroPredictedError,
)
from msfactor.filtering import (
    anchor_fit,
    filter_smoother_pass,
    hamilton_filter,
    kim_smoother,
    regime_log_densities,
    smoothed_cross_probs,
)
from msfactor.oracle import enumerate_posterior, random_instance
from msfactor.types import (
    STATE_1,
    ModelParams,
    Panel,
    ProbabilityPath,
    StateProbabilities,
    TransitionMatrix,
    unconditional_probs,
    validate_panel,
)

P_EXAMPLE = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))


def _params(n, k, rng, equal=False):
    b1 = rng.standard_normal((n, k))
    b2 = b1 if equal else rng.standard_normal((n, k))
    s1 = rng.uniform(0.5, 2.0, n)
    return ModelParams(
        b1=b1,
        b2=b2,
        sigma_e1_diag=s1,
        sigma_e2_diag=s1 if equal else rng.uniform(0.5, 2.0, n),
        trans=P_EXAMPLE,
    )


def _random_instance(rng, n=3, t=5, k=2):
    params = _params(n, k, rng)
    g = rng.standard_normal((t, k))
    x = g @ params.b1.T + rng.standard_normal((t, n))
    panel = Panel(data=x) if n < 2 else validate_panel(x)
    return regime_log_densities(panel, g, params), params


def _random_trans(rng):
    stay = rng.uniform(0.05, 0.95, 2)
    return TransitionMatrix(np.array([[stay[0], 1 - stay[0]], [1 - stay[1], stay[1]]]))


def _log_space_filter(log_eta, trans, xi0):
    """Reference Hamilton filter: Bayes update by log-sum-exp of log densities."""
    cur = xi0.values
    predicted, filtered, loglik = [], [], 0.0
    with np.errstate(divide="ignore"):
        for row in log_eta:
            pred = trans.p.T @ cur
            num = row + np.log(pred)
            norm = np.logaddexp(num[0], num[1])
            cur = np.exp(num - norm)
            predicted.append(pred)
            filtered.append(cur)
            loglik += norm
    return np.array(predicted), np.array(filtered), loglik


class TestRegimeLogDensities:
    def test_standard_normal_at_mode(self):
        panel = Panel(data=np.zeros((2, 1)))
        g = np.zeros((2, 1))
        params = ModelParams(
            b1=np.ones((1, 1)),
            b2=np.ones((1, 1)),
            sigma_e1_diag=np.ones(1),
            sigma_e2_diag=np.ones(1),
            trans=P_EXAMPLE,
        )
        le = regime_log_densities(panel, g, params)
        assert np.allclose(le, -0.5 * np.log(2 * np.pi))

    def test_equal_regimes_give_equal_columns(self):
        rng = np.random.default_rng(0)
        params = _params(4, 2, rng, equal=True)
        g = rng.standard_normal((6, 2))
        panel = validate_panel(rng.standard_normal((6, 4)))
        le = regime_log_densities(panel, g, params)
        assert np.array_equal(le[:, 0], le[:, 1])

    def test_two_series_arithmetic(self):
        panel = Panel(data=np.array([[1.0, 0.0]]))
        g = np.zeros((1, 1))
        params = ModelParams(
            b1=np.zeros((2, 1)),
            b2=np.zeros((2, 1)),
            sigma_e1_diag=np.ones(2),
            sigma_e2_diag=np.ones(2),
            trans=P_EXAMPLE,
        )
        le = regime_log_densities(panel, g, params)
        assert np.allclose(le[0], -np.log(2 * np.pi) - 0.5)

    def test_exact_fit_at_the_floor(self):
        # Regime 1 fits its rows exactly, with variances at 1e-10 of the
        # data's mean square; the pooled anchor fit leaves O(1) residuals
        # there, so the expanded terms are ~1e10 and cancel to ~0.
        rng = np.random.default_rng(4)
        t_len, n = 40, 3
        g = rng.standard_normal((t_len, 1))
        b1, b2 = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
        x = g @ b2.T + rng.standard_normal((t_len, n))
        x[:10] = g[:10] @ b1.T
        panel = validate_panel(x)
        floor = panel.variance_floor()
        params = ModelParams(
            b1=b1,
            b2=b2,
            sigma_e1_diag=np.full(n, floor),
            sigma_e2_diag=np.ones(n),
            trans=P_EXAMPLE,
        )
        le = regime_log_densities(panel, g, params)
        at_mode = -0.5 * n * np.log(2 * np.pi) - 0.5 * n * np.log(floor)
        assert np.abs(le[:10, 0] - at_mode).max() < 1e-9

    def test_overflowing_density_is_one_error(self):
        # 1e20 / 1e-300 overflows the residual sums; with warnings as errors
        # an overflow warning would escape before the guard
        rng = np.random.default_rng(0)
        panel = validate_panel(rng.standard_normal((5, 3)) * 1e10)
        params = ModelParams(
            b1=np.ones((3, 1)),
            b2=np.ones((3, 1)),
            sigma_e1_diag=np.full(3, 1e-300),
            sigma_e2_diag=np.ones(3),
            trans=P_EXAMPLE,
        )
        with pytest.raises(NonFiniteError, match="^log_eta at t=0, regime 1 is nan$") as err:
            regime_log_densities(panel, rng.standard_normal((5, 1)), params)
        assert (err.value.row, err.value.col) == (0, 0)

    def test_dimension_mismatch(self):
        panel = validate_panel(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            regime_log_densities(panel, np.zeros((4, 1)), _params(2, 1, np.random.default_rng(1)))

    @pytest.mark.parametrize(
        ("g_shape", "n", "k", "message"),
        [
            ((3,), 2, 1, "got g_hat (3,), b1 (2, 1)"),
            ((3, 1), 3, 1, "got g_hat (3, 1), b1 (3, 1)"),
            ((3, 2), 2, 1, "got g_hat (3, 2), b1 (2, 1)"),
        ],
        ids=["one-dimensional-factors", "series", "factors"],
    )
    def test_params_and_factors_must_fit_the_panel(self, g_shape, n, k, message):
        panel = validate_panel(np.ones((3, 2)))
        params = _params(n, k, np.random.default_rng(1))
        message = f"need g_hat (T, k), b1 (N, k) for T = 3, k >= 1, N = 2; {message}"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            regime_log_densities(panel, np.ones(g_shape), params)

    @pytest.mark.parametrize("g_shape", [(10, 2), (12,), (12, 2, 1)])
    def test_anchor_fit_needs_the_panels_periods(self, g_shape):
        # the first consumer of the factors, so run_em's first check of them
        panel = validate_panel(np.random.default_rng(2).standard_normal((12, 4)))
        message = f"need g_hat (T, k) for T = 12, k >= 1; got g_hat {g_shape}"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            anchor_fit(panel, np.ones(g_shape))
        assert not panel._memo

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_anchor_fit_rejects_a_non_finite_factor(self, value):
        # NaN used to end in numpy's "SVD did not converge", inf in a
        # remembered non-finite fit
        panel = validate_panel(np.random.default_rng(2).standard_normal((12, 4)))
        g = np.ones((12, 2))
        g[5, 1] = value
        with pytest.raises(NonFiniteError, match=f"^g_hat at t=5, factor 2 is {value}$") as err:
            anchor_fit(panel, g)
        assert (err.value.row, err.value.col) == (5, 1)
        assert not panel._memo


class TestHamiltonFilter:
    def test_equal_densities_filtered_equals_predicted(self):
        log_eta = np.zeros((6, 2)) - 3.7
        predicted, filtered, _ = hamilton_filter(log_eta, P_EXAMPLE, STATE_1)
        assert np.abs(filtered - predicted).max() < 1e-15

    def test_single_step_arithmetic(self):
        predicted, filtered, loglik = hamilton_filter(np.zeros((1, 2)), P_EXAMPLE, STATE_1)
        assert np.allclose(predicted[0], [0.9, 0.1])
        assert np.allclose(filtered[0], [0.9, 0.1])
        assert abs(loglik) < 1e-15

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        log_eta, params = _random_instance(rng, n=3, t=4)
        _, _, loglik = hamilton_filter(log_eta, params.trans, STATE_1)
        expected, _, _ = enumerate_posterior(log_eta, params.trans, STATE_1)
        assert abs(loglik - expected) < 1e-9

    def test_rows_normalised(self):
        rng = np.random.default_rng(3)
        log_eta, params = _random_instance(rng, n=4, t=50)
        predicted, filtered, _ = hamilton_filter(log_eta, params.trans, STATE_1)
        for rows in (predicted, filtered):
            assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12

    def test_extreme_densities_stay_finite(self):
        # log densities around -1e5 underflow any linear-scale implementation
        log_eta = np.array([[-1e5, -1.5e5], [-2e5, -1e5], [-1e5, -1e5]])
        predicted, filtered, loglik = hamilton_filter(log_eta, P_EXAMPLE, STATE_1)
        assert np.isfinite(loglik)
        assert np.abs(filtered.sum(axis=1) - 1.0).max() < 1e-12

    def test_degenerate_prediction_guard(self):
        # an absorbing chain zeroes one predicted probability; if that
        # state's density dominates, the filter refuses to continue
        absorbing = TransitionMatrix(np.eye(2))
        log_eta = np.array([[-5.0, -1.0]])
        with pytest.raises(DegeneratePredictionError):
            hamilton_filter(log_eta, absorbing, STATE_1)
        # with the live state dominating, the pass goes through
        predicted, filtered, _ = hamilton_filter(
            np.array([[-1.0, -5.0]]), absorbing, STATE_1
        )
        assert np.allclose(filtered[0], [1.0, 0.0])

    # eye(2) from state 1 predicts state 2 at exactly 0 in every period
    @pytest.mark.parametrize(
        ("row", "raised"),
        [
            # state 1's density is still positive: the recursion runs on
            ([-5.0, -1.0], DegeneratePredictionError),
            # state 1's relative density underflows: the update is 0 / 0
            ([-1000.0, -1.0], DegeneratePredictionError),
            # state 2 does not dominate: the filter passes and the
            # smoother's guard fires at its first row
            ([-1.0, -5.0], ZeroPredictedError),
        ],
        ids=["runs-on", "zero-over-zero", "live-state-dominates"],
    )
    def test_dead_state_is_reported_at_its_first_dominant_row(self, row, raised):
        absorbing = TransitionMatrix(np.eye(2))
        log_eta = np.array([[-1.0, -5.0], [-1.0, -5.0], row, [-1.0, -5.0]])
        if raised is DegeneratePredictionError:
            message = (
                "predicted probability of state 2 underflowed to 0 at t=2 "
                "while its density dominates"
            )
            with pytest.raises(DegeneratePredictionError, match=f"^{message}$"):
                hamilton_filter(log_eta, absorbing, STATE_1)
        else:
            predicted, filtered, _ = hamilton_filter(log_eta, absorbing, STATE_1)
            assert predicted.shape == filtered.shape == (4, 2)
            message = "predicted probability below 1e-300 at t=1"
        with pytest.raises(raised, match=f"^{message}$"):
            filter_smoother_pass(log_eta, absorbing, STATE_1)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        t_len=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_returns_fewer_rows_than_periods(self, seed, t_len):
        # absorbing and one-way chains with gaps that underflow a relative
        # density: the filter either raises or returns every period
        rng = np.random.default_rng(seed)
        stay = rng.choice([0.0, 0.5, 1.0], 2)
        trans = TransitionMatrix(np.array([[stay[0], 1 - stay[0]], [1 - stay[1], stay[1]]]))
        xi0 = StateProbabilities(np.eye(2)[rng.integers(0, 2)])
        log_eta = rng.normal(0.0, 1.0, (t_len, 2)) * rng.choice([1.0, 1e3], (t_len, 1))
        try:
            predicted, filtered, loglik = hamilton_filter(log_eta, trans, xi0)
        except DegeneratePredictionError:
            return
        assert predicted.shape == filtered.shape == (t_len, 2)
        assert np.isfinite(loglik)

    def test_loglik_decomposes_into_step_normalisers(self):
        # the accumulated loglik must equal the sum of the per-step
        # normalisers log(eta_t' xi_{t|t-1}), here recomputed in linear
        # scale on a well-conditioned instance
        rng = np.random.default_rng(11)
        log_eta = rng.normal(-1.0, 0.5, (12, 2))
        predicted, _, loglik = hamilton_filter(log_eta, P_EXAMPLE, STATE_1)
        steps = np.log((np.exp(log_eta) * predicted).sum(axis=1))
        assert abs(loglik - steps.sum()) < 1e-10

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        t_len=st.integers(min_value=1, max_value=100),
        gaps=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_log_space_reference(self, seed, t_len, gaps):
        # moderate magnitudes keep the reference's own rounding below 1e-13;
        # rows with a gap above 800 drive one relative density to exactly 0
        rng = np.random.default_rng(seed)
        level = rng.uniform(0.0, 1000.0)
        log_eta = rng.normal(-level, 0.1 * level + 1.0, (t_len, 1)) + rng.normal(0, 2, (t_len, 2))
        gap_rows = rng.random(t_len) < gaps
        log_eta[gap_rows, rng.integers(0, 2, gap_rows.sum())] -= rng.uniform(800, 1200, gap_rows.sum())
        trans = _random_trans(rng)
        xi0 = StateProbabilities(rng.dirichlet([1.0, 1.0]))
        predicted, filtered, loglik = hamilton_filter(log_eta, trans, xi0)
        ref_pred, ref_filt, ref_ll = _log_space_filter(log_eta, trans, xi0)
        assert np.abs(predicted - ref_pred).max() <= 1e-12
        assert np.abs(filtered - ref_filt).max() <= 1e-12
        assert abs(loglik - ref_ll) <= 1e-12 * abs(ref_ll)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        # odd lengths and lengths of 64 and more take the vectorised exp
        # through both its SIMD body and its tail
        t_len=st.one_of(
            st.integers(min_value=1, max_value=31).map(lambda k: 2 * k + 1),
            st.integers(min_value=64, max_value=400),
        ),
        scale=st.sampled_from([1.0, 3e4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_label_symmetry(self, seed, t_len, scale):
        rng = np.random.default_rng(seed)
        log_eta, _ = _random_instance(rng, n=2, t=t_len)
        log_eta *= scale  # scale 3e4 gives log densities of magnitude ~1e5
        trans = _random_trans(rng)
        xi0 = StateProbabilities(rng.dirichlet([1.0, 1.0]))
        swapped = StateProbabilities(xi0.values[::-1].copy())
        *arrays_a, loglik_a = filter_smoother_pass(log_eta, trans, xi0)
        *arrays_b, loglik_b = filter_smoother_pass(log_eta[:, ::-1], trans.relabeled(), swapped)
        assert loglik_a == loglik_b
        # predicted, filtered, smoothed and cross: every state axis reverses
        for rows_a, rows_b in zip(arrays_a, arrays_b):
            swap = (slice(None),) + (slice(None, None, -1),) * (rows_b.ndim - 1)
            assert np.array_equal(rows_a, rows_b[swap])


class TestKimSmoother:
    def test_single_period_reduces_to_filter(self):
        predicted, filtered, _ = hamilton_filter(np.zeros((1, 2)), P_EXAMPLE, STATE_1)
        smoothed = kim_smoother(predicted, filtered, P_EXAMPLE)
        assert np.array_equal(smoothed, filtered)

    def test_stationary_inputs_leave_filtered_unchanged(self):
        # with smoothed[t+1] = predicted[t+1] the bracket is P iota = iota
        stat = np.tile([0.75, 0.25], (5, 1))
        smoothed = kim_smoother(stat, stat, P_EXAMPLE)
        assert np.abs(smoothed - stat).max() < 1e-15

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        log_eta, params = _random_instance(rng, n=3, t=4)
        predicted, filtered, _ = hamilton_filter(log_eta, params.trans, STATE_1)
        smoothed = kim_smoother(predicted, filtered, params.trans)
        _, expected, _ = enumerate_posterior(log_eta, params.trans, STATE_1)
        assert np.abs(smoothed - expected).max() < 1e-10

    def test_zero_predicted_guard(self):
        predicted = np.array([[1.0, 0.0], [1.0, 0.0]])
        filtered = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroPredictedError):
            kim_smoother(predicted, filtered, TransitionMatrix(np.eye(2)))


class TestSmoothedCrossProbs:
    def test_stationary_hand_arithmetic(self):
        # hand oracle p_ij * xi_i with all rows at the stationary point
        stat = np.tile([0.75, 0.25], (4, 1))
        xi0 = StateProbabilities(np.array([0.75, 0.25]))
        cross = smoothed_cross_probs(stat, stat, stat, P_EXAMPLE, xi0)
        want = np.tile([[0.675, 0.075], [0.075, 0.175]], (4, 1, 1))
        assert np.allclose(cross, want, atol=1e-12)

    def test_marginal_over_current_state_gives_previous_smoothed(self):
        rng = np.random.default_rng(5)
        log_eta, params = _random_instance(rng, n=3, t=6)
        _, _, smoothed, cross, _ = filter_smoother_pass(log_eta, params.trans, STATE_1)
        assert np.abs(cross[1:].sum(axis=2) - smoothed[:-1]).max() < 1e-10

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        log_eta, params = _random_instance(rng, n=3, t=5)
        cross = filter_smoother_pass(log_eta, params.trans, STATE_1)[3]
        _, _, expected = enumerate_posterior(log_eta, params.trans, STATE_1)
        assert np.abs(cross - expected).max() < 1e-10

    def test_every_row_sums_to_one(self):
        rng = np.random.default_rng(7)
        log_eta, params = _random_instance(rng, n=4, t=30)
        cross = filter_smoother_pass(log_eta, params.trans, STATE_1)[3]
        assert np.abs(cross.sum(axis=(1, 2)) - 1.0).max() < 1e-10

    def test_zero_predicted_guard(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroPredictedError):
            smoothed_cross_probs(rows, rows, rows, P_EXAMPLE, STATE_1)


class TestFilterSmootherPass:
    def test_path_invariants_hold(self):
        rng = np.random.default_rng(8)
        log_eta, params = _random_instance(rng, n=4, t=100)
        path = ProbabilityPath(*filter_smoother_pass(log_eta, params.trans, STATE_1))
        assert path.predicted.shape == (100, 2)
        assert np.isfinite(path.loglik)

    def test_cross_marginalises_to_smoothed(self):
        rng = np.random.default_rng(9)
        log_eta, params = _random_instance(rng, n=3, t=40)
        _, _, smoothed, cross, _ = filter_smoother_pass(log_eta, params.trans, STATE_1)
        assert np.abs(cross.sum(axis=1) - smoothed).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entries_and_both_marginals_match_the_oracle(self, seed):
        log_eta, trans, xi0 = random_instance(np.random.default_rng(seed))
        _, _, smoothed, cross, _ = filter_smoother_pass(log_eta, trans, xi0)
        _, _, want = enumerate_posterior(log_eta, trans, xi0)
        assert cross.shape == want.shape == (len(log_eta), 2, 2)
        for i in range(2):
            for j in range(2):
                assert np.abs(cross[:, i, j] - want[:, i, j]).max() < 1e-9
        # summing over s_{t-1} gives smoothed[t]; over s_t, smoothed[t-1]
        assert np.abs(cross.sum(axis=1) - smoothed).max() < 1e-10
        assert np.abs(cross[1:].sum(axis=2) - smoothed[:-1]).max() < 1e-10


# p12 = 1e-305 puts the predicted probability of state 2 below the 1e-300
# guard whenever the filter is sure of state 1
NEAR_ABSORBING = TransitionMatrix(np.array([[1.0, 1e-305], [0.5, 0.5]]))


class TestSinglePass:
    @pytest.mark.parametrize(
        ("log_eta", "t"),
        [
            # row 0 and rows 2, 3 fall below the guard: the smoother's
            # check (rows >= 1) fires first, at t = 2
            ([[0.0, 800.0], [800.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 2),
            # only row 0: the cross probabilities' check fires, at t = 0
            ([[0.0, 800.0], [0.0, 0.0], [0.0, 0.0]], 0),
        ],
    )
    def test_zero_predicted_reports_first_t_of_the_chain(self, log_eta, t):
        log_eta = np.array(log_eta)
        message = f"predicted probability below 1e-300 at t={t}"
        with pytest.raises(ZeroPredictedError, match=message):
            filter_smoother_pass(log_eta, NEAR_ABSORBING, STATE_1)


class TestInputChecks:
    """Inputs the recursions cannot compute with raise an MsfactorError."""

    @pytest.mark.parametrize("stage", ["filter", "smoother", "cross", "pass"])
    def test_no_periods_rejected(self, stage):
        empty = np.empty((0, 2))
        calls = {
            "filter": lambda: hamilton_filter(empty, P_EXAMPLE, STATE_1),
            "smoother": lambda: kim_smoother(empty, empty, P_EXAMPLE),
            "cross": lambda: smoothed_cross_probs(empty, empty, empty, P_EXAMPLE, STATE_1),
            "pass": lambda: filter_smoother_pass(empty, P_EXAMPLE, STATE_1),
        }
        first = "predicted" if stage in ("smoother", "cross") else "log_eta"
        message = rf"^need {first} \(T, 2\).* for T >= 1; got {first} \(0, 2\)"
        with pytest.raises(DimensionMismatchError, match=message):
            calls[stage]()

    @pytest.mark.parametrize(
        ("value", "col", "cell"),
        [(np.nan, 1, (2, 1)), (np.inf, 0, (1, 0)), (-np.inf, 0, (3, slice(None)))],
        ids=["nan", "plus-inf", "minus-inf-in-both"],
    )
    @pytest.mark.parametrize("run", [hamilton_filter, filter_smoother_pass])
    def test_row_without_finite_maximum_rejected(self, run, value, col, cell):
        log_eta = np.zeros((5, 2))
        log_eta[cell] = value
        with pytest.raises(NonFiniteError, match="no finite maximum") as err:
            run(log_eta, P_EXAMPLE, STATE_1)
        assert (err.value.row, err.value.col) == (cell[0], col)

    @pytest.mark.parametrize(
        ("run", "plain"),
        [(run, "trans") for run in ("filter", "smoother", "cross", "pass", "oracle")]
        + [("unconditional", "trans")]
        + [(run, "xi0") for run in ("filter", "cross", "pass", "oracle")],
    )
    def test_chain_arguments_must_be_chain_types(self, run, plain):
        # a plain array used to end in "'numpy.ndarray' object has no attribute 'p'"
        rows = np.full((3, 2), 0.5)
        chain = {"trans": P_EXAMPLE, "xi0": STATE_1}
        chain[plain] = np.asarray({"trans": P_EXAMPLE.p, "xi0": STATE_1.values}[plain])
        calls = {
            "filter": lambda: hamilton_filter(rows, chain["trans"], chain["xi0"]),
            "smoother": lambda: kim_smoother(rows, rows, chain["trans"]),
            "cross": lambda: smoothed_cross_probs(rows, rows, rows, chain["trans"], chain["xi0"]),
            "pass": lambda: filter_smoother_pass(rows, chain["trans"], chain["xi0"]),
            "oracle": lambda: enumerate_posterior(rows, chain["trans"], chain["xi0"]),
            "unconditional": lambda: unconditional_probs(chain["trans"]),
        }
        kind = {"trans": "TransitionMatrix", "xi0": "StateProbabilities"}[plain]
        message = f"^{plain} must be a {kind}, got ndarray$"
        with pytest.raises(InvalidArgumentError, match=message):
            calls[run]()

    def test_minus_infinity_in_one_column_is_legal(self):
        log_eta = np.array([[0.0, -1.0], [-np.inf, 0.0], [0.0, -np.inf]])
        *arrays, loglik = filter_smoother_pass(log_eta, P_EXAMPLE, STATE_1)
        path = ProbabilityPath(*arrays, loglik)
        assert np.array_equal(path.filtered[1:], [[0.0, 1.0], [1.0, 0.0]])

    def test_smoother_rows_must_match(self):
        rows = np.full((3, 2), 0.5)
        message = (
            r"^need predicted \(T, 2\), filtered \(T, 2\) for T >= 1; "
            r"got predicted \(3, 2\), filtered \(2, 2\)$"
        )
        with pytest.raises(DimensionMismatchError, match=message):
            kim_smoother(rows, rows[:2], P_EXAMPLE)

    @pytest.mark.parametrize("short", range(3), ids=["predicted", "filtered", "smoothed"])
    def test_cross_rows_must_match(self, short):
        rows = [np.full((2, 2) if k == short else (3, 2), 0.5) for k in range(3)]
        names = ("predicted", "filtered", "smoothed")
        shapes = ", ".join(f"{name} {r.shape}" for name, r in zip(names, rows))
        message = re.escape(f"for T >= 1; got {shapes}") + "$"
        with pytest.raises(DimensionMismatchError, match=message):
            smoothed_cross_probs(*rows, P_EXAMPLE, STATE_1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad", ["predicted", "filtered"])
    def test_smoother_rejects_non_finite_rows(self, bad, value):
        # a NaN passes the 1e-300 guard and used to come back as NaN rows
        rows = {"predicted": np.full((4, 2), 0.5), "filtered": np.full((4, 2), 0.5)}
        rows[bad][1, 0] = value
        with pytest.raises(NonFiniteError, match=f"^{bad} at t=1, state 1 is {value}$") as err:
            kim_smoother(rows["predicted"], rows["filtered"], P_EXAMPLE)
        assert (err.value.row, err.value.col) == (1, 0)

    @pytest.mark.parametrize("bad", ["predicted", "filtered", "smoothed"])
    def test_cross_rejects_non_finite_rows(self, bad):
        rows = {name: np.full((4, 2), 0.5) for name in ("predicted", "filtered", "smoothed")}
        rows[bad][2, 1] = np.nan
        with pytest.raises(NonFiniteError, match=f"^{bad} at t=2, state 2 is nan$") as err:
            smoothed_cross_probs(*rows.values(), P_EXAMPLE, STATE_1)
        assert (err.value.row, err.value.col) == (2, 1)

    @pytest.mark.parametrize("stage", ["smoother", "cross"])
    def test_one_dimensional_rows_rejected(self, stage):
        flat = np.full(4, 0.5)
        message = r"got predicted \(4,\), filtered \(4,\)"
        with pytest.raises(DimensionMismatchError, match=message):
            if stage == "smoother":
                kim_smoother(flat, flat, P_EXAMPLE)
            else:
                smoothed_cross_probs(flat, flat, flat, P_EXAMPLE, STATE_1)
