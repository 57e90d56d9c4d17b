import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfactor.exceptions import (
    DimensionMismatchError,
    SingularGramError,
    ZeroSignalError,
)
from msfactor.metrics import (
    blended_loadings,
    common_component_mse,
    fitted_common_component,
    regime_blend_matrix,
    trace_r2,
)
from msfactor.pca import estimate_factor_space
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import RngHandle, validate_panel


def pca_rotation(g, a, a_hat, eigvals):
    """Finite-sample k x k rotation from true to estimated factor space,

        (G'G / T) (A' A_hat / N) V^-1,

    with V the top-k eigenvalues of (NT)^-1 sum_t x_t x_t' (``eigvals``,
    from the divisor-T covariance, divided by N). In the noiseless
    full-rank case g_hat_t = rotation^-1 g_t exactly.
    """
    t_len, n = g.shape[0], a.shape[0]
    return (g.T @ g / t_len) @ (a.T @ a_hat / n) / (eigvals / n)[None, :]


def regime_factors(panel, lam, w):
    """Probability-weighted projection f_jt = (1/N) w_jt lambda_j' x_t of
    the data on one regime's N x r loadings."""
    return (panel.data @ lam / panel.n_len) * w[:, None]


class TestPcaRotation:
    @staticmethod
    def _noiseless_setup(seed=0, n=400, t=200, k=2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, k))
        g = rng.standard_normal((t, k))
        panel = validate_panel(g @ a.T)
        fs = estimate_factor_space(panel, k=k)
        return a, g, fs

    def test_noiseless_inverse_relation(self):
        # In the exact low-rank case g_hat_t = rotation^-1 g_t holds exactly.
        a, g, fs = self._noiseless_setup()
        rot = pca_rotation(g, a, fs.a_hat, fs.eigvals)
        recovered = g @ np.linalg.inv(rot).T
        assert np.abs(fs.g_hat - recovered).max() < 1e-6

    def test_rotation_invertible(self):
        a, g, fs = self._noiseless_setup(seed=1)
        rot = pca_rotation(g, a, fs.a_hat, fs.eigvals)
        assert np.isfinite(np.linalg.cond(rot))
        assert np.linalg.cond(rot) < 1e6

    def test_positive_scalar_for_positive_loadings(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 1.5, (300, 1))
        g = rng.standard_normal((150, 1))
        panel = validate_panel(g @ a.T + 0.01 * rng.standard_normal((150, 300)))
        fs = estimate_factor_space(panel, k=1)
        rot = pca_rotation(g, a, fs.a_hat, fs.eigvals)
        assert rot.shape == (1, 1)
        assert rot[0, 0] > 0


class TestRegimeBlendMatrix:
    def test_perfect_recovery_gives_identity(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((200, 3))
        in_regime = rng.uniform(size=200) < 0.6
        blend = regime_blend_matrix(in_regime.astype(float), in_regime, g)
        assert np.abs(blend - np.eye(3)).max() < 1e-10

    def test_all_periods_in_regime_gives_identity(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((100, 2))
        weights = rng.uniform(0.2, 0.8, 100)
        blend = regime_blend_matrix(weights, np.ones(100, dtype=bool), g)
        assert np.abs(blend - np.eye(2)).max() < 1e-10

    def test_constant_weights_give_gram_ratio(self):
        # direct Gram-ratio oracle: with w constant the weights cancel
        rng = np.random.default_rng(2)
        g = rng.standard_normal((300, 2))
        in_regime = rng.uniform(size=300) < 0.5
        w = np.full(300, 0.5)
        blend = regime_blend_matrix(w, in_regime, g)
        gram_in = g[in_regime].T @ g[in_regime]
        gram_all = g.T @ g
        oracle = np.linalg.solve(gram_all.T, gram_in.T).T
        assert np.abs(blend - oracle).max() < 1e-10

    @pytest.mark.parametrize("w_len, ind_len", [(9, 10), (10, 9)], ids=["weights", "indicator"])
    def test_period_mismatch_rejected(self, w_len, ind_len):
        g = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DimensionMismatchError, match="share T"):
            regime_blend_matrix(np.full(w_len, 0.5), np.ones(ind_len), g)


class TestBlendedLoadings:
    b1 = np.arange(8, dtype=float).reshape(4, 2)
    b2 = -np.arange(8, dtype=float).reshape(4, 2)

    def test_identity_blend_returns_first(self):
        assert np.array_equal(blended_loadings(self.b1, self.b2, np.eye(2)), self.b1)

    def test_zero_blend_returns_second(self):
        assert np.array_equal(blended_loadings(self.b1, self.b2, np.zeros((2, 2))), self.b2)

    def test_halfway_blend_is_midpoint(self):
        mid = blended_loadings(self.b1, self.b2, 0.5 * np.eye(2))
        assert np.allclose(mid, (self.b1 + self.b2) / 2)

    @pytest.mark.parametrize(
        "b1, b2, blend",
        [
            (b1, b2[:, :1], np.eye(2)),
            (b1, b2, np.eye(3)),
            (np.ones(4), np.ones(4), np.eye(1)),
        ],
        ids=["loadings", "blend", "one-dimensional"],
    )
    def test_incompatible_shapes_rejected(self, b1, b2, blend):
        with pytest.raises(DimensionMismatchError, match="incompatible shapes"):
            blended_loadings(b1, b2, blend)


class TestTraceR2:
    def test_identical_matrices(self):
        b = np.random.default_rng(0).standard_normal((20, 3))
        assert abs(trace_r2(b, b) - 1.0) < 1e-12

    def test_orthogonal_columns(self):
        b_hat = np.zeros((4, 1))
        b_hat[0, 0] = 1.0
        b_star = np.zeros((4, 1))
        b_star[1, 0] = 1.0
        assert abs(trace_r2(b_hat, b_star)) < 1e-12

    def test_invariance_to_invertible_transform(self):
        rng = np.random.default_rng(1)
        b_hat = rng.standard_normal((25, 2))
        b_star = rng.standard_normal((25, 2))
        m = np.array([[2.0, 1.0], [0.5, -1.5]])
        assert abs(trace_r2(b_hat @ m, b_star) - trace_r2(b_hat, b_star)) < 1e-10

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        b_hat = rng.standard_normal((15, 2))
        b_star = rng.standard_normal((15, 2))
        m = rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            m += np.eye(2)
        value = trace_r2(b_hat, b_star)
        assert abs(trace_r2(b_hat @ m, b_star) - value) < 1e-10
        assert -1e-12 <= value <= 1.0 + 1e-12

    def test_singular_gram(self):
        with pytest.raises(SingularGramError):
            trace_r2(np.zeros((5, 2)), np.ones((5, 2)))

    @pytest.mark.parametrize(
        "b_hat, b_star",
        [(np.ones((5, 2)), np.ones((5, 3))), (np.arange(1.0, 6.0), np.ones(5))],
        ids=["mismatch", "one-dimensional"],
    )
    def test_shapes_rejected(self, b_hat, b_star):
        with pytest.raises(DimensionMismatchError, match="N x k matrices"):
            trace_r2(b_hat, b_star)

    def test_zero_target_rejected(self):
        b_hat = np.random.default_rng(2).standard_normal((6, 2))
        with pytest.raises(ZeroSignalError, match="target loadings"):
            trace_r2(b_hat, np.zeros((6, 2)))


class TestCommonComponentMse:
    def test_exact_recovery(self):
        chi = np.random.default_rng(0).standard_normal((10, 4))
        assert common_component_mse(chi, chi) == 0.0

    def test_null_predictor(self):
        chi = np.random.default_rng(1).standard_normal((10, 4))
        assert abs(common_component_mse(np.zeros_like(chi), chi) - 1.0) < 1e-12

    def test_doubled_predictor(self):
        chi = np.random.default_rng(2).standard_normal((10, 4))
        assert abs(common_component_mse(2.0 * chi, chi) - 1.0) < 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(3)
        chi = rng.standard_normal((10, 4))
        err = rng.standard_normal((10, 4))
        base = common_component_mse(chi + err, chi)
        scaled = common_component_mse(chi + 3.0 * err, chi)
        assert abs(scaled - 9.0 * base) < 1e-10

    def test_zero_signal(self):
        with pytest.raises(ZeroSignalError):
            common_component_mse(np.ones((3, 3)), np.zeros((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            common_component_mse(np.ones((3, 3)), np.ones((4, 3)))


class TestRegimeFactors:
    def test_unit_weights_reduce_to_projection(self):
        truth = simulate_panel(SimConfig(n=30, t=80, r=1), RngHandle(seed=0))
        fs = estimate_factor_space(truth.panel, k=2)
        projected = regime_factors(truth.panel, fs.a_hat, np.ones(80))
        assert np.abs(projected - fs.g_hat).max() < 1e-12

    def test_zero_weights_annihilate(self):
        truth = simulate_panel(SimConfig(n=30, t=80, r=1), RngHandle(seed=1))
        fs = estimate_factor_space(truth.panel, k=2)
        assert np.abs(regime_factors(truth.panel, fs.a_hat, np.zeros(80))).max() == 0.0

    def test_correlation_with_true_regime_factor(self):
        # correlation oracle on one seeded replication
        from msfactor.em import EmConfig, run_em

        truth = simulate_panel(SimConfig(n=100, t=500, r=1), RngHandle(seed=2))
        fs = estimate_factor_space(truth.panel, k=2)
        result = run_em(truth.panel, fs, EmConfig())
        lam1 = result.params.b1[:, :1]  # under r1 = r2 = 1, regime 1's column
        f1 = regime_factors(truth.panel, lam1, result.path.smoothed[:, 0])[:, 0]
        target = truth.xi[:, 0] * truth.f[:, 0]
        in_regime = truth.states == 1
        corr = abs(np.corrcoef(f1[in_regime], target[in_regime])[0, 1])
        assert corr >= 0.9


class TestFittedCommonComponent:
    def test_weighted_combination(self):
        rng = np.random.default_rng(4)
        b1 = rng.standard_normal((5, 2))
        b2 = rng.standard_normal((5, 2))
        g = rng.standard_normal((7, 2))
        w = np.column_stack([rng.uniform(size=7), np.zeros(7)])
        w[:, 1] = 1.0 - w[:, 0]
        fit = fitted_common_component(b1, b2, g, w)
        expected = w[:, [0]] * (g @ b1.T) + w[:, [1]] * (g @ b2.T)
        assert np.abs(fit - expected).max() < 1e-14

    @pytest.mark.parametrize(
        "b2_shape, g_shape, w_shape",
        [((5, 3), (7, 2), (7, 2)), ((5, 2), (7, 3), (7, 2)), ((5, 2), (7, 2), (6, 2)),
         ((5, 2), (6, 2), (7, 2))],
        ids=["loadings", "factor-count", "weight-rows", "factor-rows"],
    )
    def test_mismatched_shapes_rejected(self, b2_shape, g_shape, w_shape):
        with pytest.raises(DimensionMismatchError):
            fitted_common_component(
                np.ones((5, 2)), np.ones(b2_shape), np.ones(g_shape), np.full(w_shape, 0.5)
            )
