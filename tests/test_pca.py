import numpy as np
import pytest

from msfactor.exceptions import (
    KTooLargeError,
    NonFiniteError,
    RankDeficientError,
    SecondMomentOverflowError,
)
from msfactor.pca import (
    demean_panel,
    estimate_factor_space,
    sample_covariance,
    select_num_factors_er,
)
from msfactor.simulate import SimConfig, simulate_panel
from msfactor.types import RngHandle, validate_panel


def _panel(data):
    return validate_panel(np.asarray(data, dtype=float))


class TestDemean:
    def test_constant_column_becomes_zero(self):
        panel = demean_panel(_panel([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
        assert np.allclose(panel.data[:, 0], 0.0)

    def test_idempotent(self):
        panel = _panel(np.random.default_rng(0).standard_normal((20, 4)))
        once = demean_panel(panel)
        twice = demean_panel(once)
        assert np.abs(once.data - twice.data).max() < 1e-12

    def test_simple_arithmetic(self):
        panel = demean_panel(_panel([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        assert np.allclose(panel.data[:, 0], [-1.0, 0.0, 1.0])

    def test_column_means_zero(self):
        panel = demean_panel(_panel(np.random.default_rng(1).normal(5.0, 1.0, (50, 6))))
        assert np.abs(panel.data.mean(axis=0)).max() < 1e-12

    @pytest.mark.parametrize(
        "column", [[1.7e308, 1.6e308, 1.5e308], [1.7e308, -1.7e308, 1.7e308]],
        ids=["mean", "difference"],
    )
    def test_overflow_is_refused(self, column):
        # the mean of the second column is finite, but -1.7e308 less it is
        # not; warnings are errors here, so an overflow warning fails too
        with pytest.raises(NonFiniteError, match="demeaning overflows") as err:
            demean_panel(_panel(np.column_stack([[1.0, 2.0, 3.0], column])))
        assert err.value.col == 1


class TestSampleCovariance:
    def test_two_point_example(self):
        cov = sample_covariance(_panel([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(cov, 0.5 * np.eye(2))

    def test_symmetry(self):
        panel = _panel(np.random.default_rng(2).standard_normal((30, 8)))
        cov = sample_covariance(panel)
        assert np.abs(cov - cov.T).max() < 1e-14

    def test_rank_one_outer_product(self):
        # outer-product oracle: x_t = a * z_t gives (sum z^2 / T) a a'
        rng = np.random.default_rng(3)
        a = rng.standard_normal(5)
        z = rng.standard_normal(40)
        panel = _panel(np.outer(z, a))
        expected = (z**2).sum() / 40 * np.outer(a, a)
        assert np.abs(sample_covariance(panel) - expected).max() < 1e-12

    def test_no_centering(self):
        panel = _panel(np.full((10, 3), 2.0))
        assert np.allclose(sample_covariance(panel), 4.0 * np.ones((3, 3)))


class TestEstimateFactorSpace:
    def test_loading_normalisation(self):
        panel = _panel(np.random.default_rng(4).standard_normal((60, 12)))
        fs = estimate_factor_space(panel, k=3)
        assert np.abs(fs.a_hat.T @ fs.a_hat / 12 - np.eye(3)).max() < 1e-8

    def test_noiseless_single_factor_recovery(self):
        rng = np.random.default_rng(5)
        n = 20
        lam = rng.standard_normal(n)
        lam *= np.sqrt(n) / np.linalg.norm(lam)
        g = rng.standard_normal(100)
        panel = _panel(np.outer(g, lam))
        fs = estimate_factor_space(panel, k=1)
        corr = np.corrcoef(fs.g_hat[:, 0], g)[0, 1]
        assert abs(abs(corr) - 1.0) < 1e-10

    def test_eigen_identity(self):
        panel = _panel(np.random.default_rng(6).standard_normal((50, 10)))
        fs = estimate_factor_space(panel, k=4)
        cov = sample_covariance(panel)
        lhs = cov @ (fs.a_hat / np.sqrt(10))
        rhs = (fs.a_hat / np.sqrt(10)) * fs.eigvals
        assert np.abs(lhs - rhs).max() < 1e-8 * max(fs.eigvals)

    def test_factor_second_moment(self):
        panel = _panel(np.random.default_rng(7).standard_normal((50, 10)))
        fs = estimate_factor_space(panel, k=3)
        moment = fs.g_hat.T @ fs.g_hat / 50
        assert np.abs(moment - np.diag(fs.eigvals) / 10).max() < 1e-8

    def test_residual_orthogonal_to_loadings(self):
        panel = _panel(np.random.default_rng(8).standard_normal((40, 9)))
        fs = estimate_factor_space(panel, k=2)
        resid = panel.data - fs.g_hat @ fs.a_hat.T
        assert np.abs(resid @ fs.a_hat).mean() < 1e-8

    def test_sign_convention(self):
        panel = _panel(np.random.default_rng(9).standard_normal((40, 9)))
        fs = estimate_factor_space(panel, k=3)
        for col in fs.a_hat.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_k_too_large(self):
        panel = _panel(np.random.default_rng(10).standard_normal((5, 10)))
        with pytest.raises(KTooLargeError):
            estimate_factor_space(panel, k=6)

    def test_projection_r2_on_true_stacked_factors(self):
        # projection-R2 oracle: the PCA factor space spans the stacked
        # regime factors xi_t (x) f_t of the generating model
        truth = simulate_panel(SimConfig(n=100, t=500, r=1), RngHandle(seed=21))
        fs = estimate_factor_space(truth.panel, k=2)
        target = truth.g
        g = fs.g_hat
        coef = np.linalg.lstsq(g, target, rcond=None)[0]
        fitted = g @ coef
        r2 = 1.0 - ((target - fitted) ** 2).sum() / (target**2).sum()
        assert r2 >= 0.95


def _covariance_reference(panel, k):
    """PCA from the N x N covariance, whatever the shape: eigenvalues,
    loadings and factors of the top k components, largest entry positive."""
    vals, vecs = np.linalg.eigh(sample_covariance(panel))
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order][:, :k]
    vecs = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
    a_hat = np.sqrt(panel.n_len) * vecs
    return vals, a_hat, panel.data @ a_hat / panel.n_len


class TestGramRoute:
    """N > T: the spectrum comes from the T x T Gram XX'/T."""

    @staticmethod
    def _wide_panel(seed=13, n=60, t_len=25, factors=3):
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal((n, factors)) * np.array([4.0, 2.5, 1.5])[:factors]
        g = rng.standard_normal((t_len, factors))
        return _panel(g @ lam.T + rng.standard_normal((t_len, n)))

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_covariance_reference(self, k):
        panel = self._wide_panel()
        fs = estimate_factor_space(panel, k=k)
        vals, a_hat, g_hat = _covariance_reference(panel, k)
        for got, want in [(fs.a_hat, a_hat), (fs.g_hat, g_hat), (fs.eigvals, vals[:k])]:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert (np.sign(fs.a_hat) == np.sign(a_hat)).all()

    def test_eigen_identity_and_normalisation(self):
        panel = self._wide_panel(seed=14)
        fs = estimate_factor_space(panel, k=4)
        n = panel.n_len
        assert np.abs(fs.a_hat.T @ fs.a_hat / n - np.eye(4)).max() < 1e-10
        lhs = sample_covariance(panel) @ (fs.a_hat / np.sqrt(n))
        rhs = (fs.a_hat / np.sqrt(n)) * fs.eigvals
        assert np.abs(lhs - rhs).max() < 1e-10 * fs.eigvals[0]

    @pytest.mark.parametrize("factors", [1, 2, 3])
    def test_select_matches_covariance_reference(self, factors):
        panel = self._wide_panel(seed=15, factors=factors)
        vals, _, _ = _covariance_reference(panel, 1)
        mu = vals[:9]
        assert select_num_factors_er(panel, k_max=8) == int(np.argmax(mu[:-1] / mu[1:])) + 1

    def test_k_above_rank_raises(self):
        rng = np.random.default_rng(18)
        panel = _panel(rng.standard_normal((25, 2)) @ rng.standard_normal((2, 60)))
        fs = estimate_factor_space(panel, k=2)
        assert np.isfinite(fs.a_hat).all()
        with pytest.raises(RankDeficientError, match="exceeds the numerical rank"):
            estimate_factor_space(panel, k=3)

    def test_resolved_eigenvalue_names_the_dynamic_range(self):
        # one extreme cell: eigenvalue 2 is ~1.5e2 against ~2e15, below the
        # 1e-12 floor but well above eigh's rounding error
        data = simulate_panel(SimConfig(), RngHandle(seed=0)).panel.data.copy()
        data[10, 5] = 1e9
        panel = _panel(data)
        assert select_num_factors_er(panel, k_max=8) == 1
        with pytest.raises(RankDeficientError, match="k=2 is beyond the panel's dynamic range"):
            estimate_factor_space(panel, k=2)


class TestSelectNumFactorsEr:
    def test_noiseless_two_factor_panel(self):
        rng = np.random.default_rng(11)
        lam = rng.standard_normal((30, 2)) * np.array([3.0, 1.0])
        g = rng.standard_normal((200, 2))
        panel = _panel(g @ lam.T)
        assert select_num_factors_er(panel, k_max=5) == 2

    def test_simulated_panels_select_two(self):
        # Monte Carlo oracle: the linear representation of an r=1 two-state
        # model has r1+r2 = 2 factors
        hits = 0
        for rep in range(50):
            truth = simulate_panel(
                SimConfig(n=100, t=500, r=1), RngHandle(seed=100, stream=rep)
            )
            hits += select_num_factors_er(truth.panel, k_max=6) == 2
        assert hits >= 45

    def test_pure_noise_selects_one(self):
        hits = 0
        for rep in range(100):
            rng = RngHandle(seed=200, stream=rep).generator()
            panel = _panel(rng.standard_normal((500, 100)))
            hits += select_num_factors_er(panel, k_max=5) == 1
        assert hits > 50

    def test_k_max_bound(self):
        panel = _panel(np.random.default_rng(12).standard_normal((6, 4)))
        with pytest.raises(KTooLargeError):
            select_num_factors_er(panel, k_max=4)


class TestSecondMomentOverflow:
    """Entries near 1e200 square past the largest double; both estimators
    reject the panel before eigh sees the overflowed matrix (pytest turns
    any RuntimeWarning into a failure)."""

    @pytest.mark.parametrize("shape", [(30, 3), (6, 30)], ids=["covariance", "gram"])
    @pytest.mark.parametrize("estimator", ["factor_space", "select"])
    def test_rejected_before_eigh(self, monkeypatch, shape, estimator):
        panel = _panel(np.random.default_rng(0).standard_normal(shape) * 1e200)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran on an overflowed matrix")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(SecondMomentOverflowError, match="second moments overflow"):
            if estimator == "select":
                select_num_factors_er(panel, k_max=2)
            else:
                estimate_factor_space(panel, k=1)


class TestSecondMomentUnderflow:
    """Entries below ~1e-162 square to 0: the panel has full rank, but its
    second-moment matrix is all zeros, which both estimators name as such."""

    @pytest.mark.parametrize("shape", [(60, 8), (6, 30)], ids=["covariance", "gram"])
    def test_named_as_underflow(self, shape):
        data = np.random.default_rng(0).standard_normal(shape) * 1e-200
        message = (
            f"^the panel's second moments underflow to 0 \\(largest \\|entry\\| "
            f"{np.abs(data).max():.3e}\\); rescale the data$"
        )
        with pytest.raises(RankDeficientError, match=message):
            select_num_factors_er(_panel(data), k_max=2)
        with pytest.raises(RankDeficientError, match=message):
            estimate_factor_space(_panel(data), k=1)

    def test_all_zero_panel_keeps_the_rank_message(self):
        panel = _panel(np.zeros((20, 4)))
        assert select_num_factors_er(panel, k_max=2) == 1
        with pytest.raises(RankDeficientError, match="^k=1 exceeds the numerical rank"):
            estimate_factor_space(panel, k=1)


class TestOneSpectrumPerPanel:
    def test_auto_k_decomposes_once(self, monkeypatch):
        panel = simulate_panel(SimConfig(n=30, t=120, r=1), RngHandle(seed=6)).panel
        fresh = validate_panel(panel.data)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        k = select_num_factors_er(panel, 5)
        fs = estimate_factor_space(panel, k)
        assert calls == [(30, 30)]
        # the remembered spectrum gives what a fresh decomposition gives
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        ref = estimate_factor_space(fresh, k)
        assert np.array_equal(fs.a_hat, ref.a_hat)
        assert np.array_equal(fs.eigvals, ref.eigvals)
        assert select_num_factors_er(fresh, 5) == k
