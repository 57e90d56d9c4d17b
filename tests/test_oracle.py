import numpy as np
import pytest

from msfactor.exceptions import DimensionMismatchError, NonFiniteError, TooLongError
from msfactor.filtering import hamilton_filter
from msfactor.oracle import enumerate_posterior, equivalence_suite, random_instance
from msfactor.types import STATE_1, StateProbabilities, TransitionMatrix

P_EXAMPLE = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))


class TestEnumeratePosterior:
    def test_single_period_posterior(self):
        # T=1 reduces to weighting the prior P' xi0 by eta
        log_eta = np.log(np.array([[0.4, 0.8]]))
        loglik, smoothed, cross = enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        prior = P_EXAMPLE.p.T @ STATE_1.values  # (0.9, 0.1)
        joint = prior * np.array([0.4, 0.8])
        assert abs(loglik - np.log(joint.sum())) < 1e-12
        assert np.abs(smoothed[0] - joint / joint.sum()).max() < 1e-12
        assert abs(cross[0].sum() - 1.0) < 1e-12

    def test_uninformative_data_gives_chain_marginals(self):
        # identical eta columns: posterior = prior chain marginals from xi0
        t_len = 5
        log_eta = np.full((t_len, 2), -2.0)
        _, smoothed, _ = enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        marginal = STATE_1.values.copy()
        for t in range(t_len):
            marginal = P_EXAMPLE.p.T @ marginal
            assert np.abs(smoothed[t] - marginal).max() < 1e-12

    def test_weights_and_marginals_normalised(self):
        rng = np.random.default_rng(0)
        log_eta = rng.normal(-5.0, 2.0, (7, 2))
        _, smoothed, cross = enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        assert np.abs(smoothed.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(cross.sum(axis=(1, 2)) - 1.0).max() < 1e-12

    def test_label_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        log_eta = rng.normal(-3.0, 1.0, (6, 2))
        ll_a, sm_a, cr_a = enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        ll_b, sm_b, cr_b = enumerate_posterior(
            log_eta[:, ::-1],
            P_EXAMPLE.relabeled(),
            StateProbabilities(np.array([0.0, 1.0])),
        )
        assert abs(ll_a - ll_b) < 1e-12
        assert np.abs(sm_a - sm_b[:, ::-1]).max() < 1e-12
        assert np.abs(cr_a - cr_b[:, ::-1, ::-1]).max() < 1e-12

    def test_all_paths_impossible_give_minus_infinite_loglik(self):
        with np.errstate(all="raise"):
            loglik, _, _ = enumerate_posterior(np.full((3, 2), -np.inf), P_EXAMPLE, STATE_1)
        assert loglik == -np.inf

    @pytest.mark.parametrize("t_len", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "row", [[np.nan, np.nan], [np.inf, 0.0], [-np.inf, np.inf], [0.0, np.nan]],
        ids=["nan", "plus-inf", "minus-and-plus-inf", "one-nan"],
    )
    def test_rejects_the_rows_the_filter_rejects(self, t_len, row):
        # these used to give a NaN or +inf log likelihood
        log_eta = np.zeros((t_len, 2))
        log_eta[t_len - 1] = row
        with pytest.raises(NonFiniteError) as want:
            hamilton_filter(log_eta, P_EXAMPLE, STATE_1)
        with pytest.raises(NonFiniteError, match="no finite maximum") as err:
            enumerate_posterior(log_eta, P_EXAMPLE, STATE_1)
        assert (err.value.row, err.value.col) == (want.value.row, want.value.col)

    def test_too_long_guard(self):
        with pytest.raises(TooLongError):
            enumerate_posterior(np.zeros((17, 2)), P_EXAMPLE, STATE_1)

    def test_no_periods_rejected(self):
        message = r"^need argument 1 \(T, 2\) for T >= 1; got argument 1 \(0, 2\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            enumerate_posterior(np.empty((0, 2)), P_EXAMPLE, STATE_1)


class TestEquivalenceSuite:
    def test_small_suite_is_tight(self):
        dev = equivalence_suite(instances=25, seed=123)
        assert max(dev.values()) < 1e-9

    def test_instances_reach_an_underflowing_density_ratio(self):
        # the draws of equivalence_suite(200, seed=0): some row's regime gap
        # passes 745, so its smaller relative density exp(-gap) is exactly 0
        rng = np.random.default_rng(0)
        gaps = [np.abs(np.diff(random_instance(rng)[0], axis=1)).max() for _ in range(200)]
        assert max(gaps) > 745
        assert np.exp(-max(gaps)) == 0.0
