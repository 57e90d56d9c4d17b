import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfactor.em import EmConfig
from msfactor.exceptions import (
    DegenerateChainError,
    DimensionMismatchError,
    InvalidArgumentError,
    MsfactorError,
    NonFiniteError,
    TooSmallError,
)
from msfactor.montecarlo import run_montecarlo
from msfactor.oracle import equivalence_suite
from msfactor.pca import estimate_factor_space, select_num_factors_er
from msfactor.simulate import SimConfig
from msfactor.types import (
    VARIANCE_FLOOR_RATIO,
    FactorSpace,
    ModelParams,
    Panel,
    ProbabilityPath,
    RngHandle,
    StateProbabilities,
    TransitionMatrix,
    marginal_deviation,
    row_sum_deviation,
    unconditional_probs,
    validate_panel,
)

probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestValidatePanel:
    def test_well_formed(self):
        panel = validate_panel(np.ones((3, 3)))
        assert panel.t_len == 3 and panel.n_len == 3

    def test_nan_reports_position(self):
        data = np.zeros((4, 4))
        data[1, 2] = np.nan
        with pytest.raises(NonFiniteError) as err:
            validate_panel(data)
        assert err.value.row == 1 and err.value.col == 2

    def test_inf_rejected(self):
        data = np.zeros((3, 3))
        data[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            validate_panel(data)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            validate_panel(np.ones((1, 5)))
        with pytest.raises(TooSmallError):
            validate_panel(np.ones((5, 1)))

    def test_data_is_read_only(self):
        panel = validate_panel(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            panel.data[0, 0] = 1.0


class TestTransitionMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            TransitionMatrix(np.array([[0.9, 0.2], [0.3, 0.7]]))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(InvalidArgumentError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.3, 0.7]]))

    def test_relabeled_swaps_states(self):
        trans = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))
        swapped = trans.relabeled()
        assert swapped.p11 == 0.7 and swapped.p22 == 0.9
        assert swapped.p[0, 1] == 0.3 and swapped.p[1, 0] == 0.1


class TestUnconditionalProbs:
    def test_paper_example(self):
        trans = TransitionMatrix(np.array([[0.9, 0.1], [0.3, 0.7]]))
        stat = unconditional_probs(trans).values
        assert np.allclose(stat, [0.75, 0.25], atol=1e-15)

    def test_symmetric(self):
        trans = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(unconditional_probs(trans).values, [0.5, 0.5])

    def test_degenerate(self):
        with pytest.raises(DegenerateChainError):
            unconditional_probs(TransitionMatrix(np.eye(2)))

    @given(p11=probs, p22=probs)
    @settings(max_examples=200)
    def test_fixed_point(self, p11, p22):
        trans = TransitionMatrix(
            np.array([[p11, 1.0 - p11], [1.0 - p22, p22]])
        )
        stat = unconditional_probs(trans).values
        assert np.abs(trans.p.T @ stat - stat).max() < 1e-12


class TestStateProbabilities:
    def test_sum_enforced(self):
        with pytest.raises(InvalidArgumentError):
            StateProbabilities(np.array([0.6, 0.5]))

    def test_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            StateProbabilities(np.array([1.5, -0.5]))


class TestProbabilityPath:
    @staticmethod
    def _uniform_path(t_len=4):
        half = np.full((t_len, 2), 0.5)
        quarter = np.full((t_len, 2, 2), 0.25)
        return ProbabilityPath(
            predicted=half, filtered=half, smoothed=half, cross=quarter, loglik=-1.0
        )

    def test_valid_path(self):
        path = self._uniform_path()
        assert path.cross.shape == (4, 2, 2)

    def test_row_sum_violation(self):
        half = np.full((3, 2), 0.5)
        bad = np.full((3, 2, 2), 0.3)
        with pytest.raises(InvalidArgumentError):
            ProbabilityPath(predicted=half, filtered=half, smoothed=half, cross=bad, loglik=0.0)

    def test_marginalisation_violation(self):
        half = np.full((3, 2), 0.5)
        # summed over s_{t-1}, each period gives (0.6, 0.4)
        cross = np.tile([[0.5, 0.3], [0.1, 0.1]], (3, 1, 1))
        with pytest.raises(InvalidArgumentError):
            ProbabilityPath(predicted=half, filtered=half, smoothed=half, cross=cross, loglik=0.0)


class TestRowSumDeviation:
    @settings(max_examples=200, deadline=None)
    @given(
        predicted=st.floats(-4e-10, 4e-10),
        cross=st.lists(st.floats(-2e-10, 2e-10), min_size=4, max_size=4),
    )
    def test_path_rejections_unchanged(self, predicted, cross):
        # row-sum errors around the 1e-10 tolerance, on a T x 2 and a T x 2 x 2 array
        half = np.full((3, 2), 0.5)
        pred = half.copy()
        pred[1, 0] += predicted
        quarter = np.full((3, 2, 2), 0.25)
        quarter[2] += np.reshape(cross, (2, 2))
        too_far = max(row_sum_deviation(pred), row_sum_deviation(quarter)) > 1e-10
        try:
            ProbabilityPath(predicted=pred, filtered=half, smoothed=half, cross=quarter, loglik=0.0)
        except InvalidArgumentError as err:
            assert ("must sum to 1" in str(err)) == too_far
        else:
            assert not too_far


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), t_len=st.integers(1, 50))
    def test_period_sums_match_the_flat_rows_bitwise(self, seed, t_len):
        # a T x 2 x 2 array sums each period's four entries as its T x 4 view does
        cross = np.random.default_rng(seed).dirichlet(np.ones(4), t_len).reshape(t_len, 2, 2)
        flat = float(np.abs(cross.reshape(t_len, 4).sum(axis=1) - 1.0).max())
        assert row_sum_deviation(cross) == flat


class TestMarginalDeviation:
    def test_sums_over_the_previous_state(self):
        cross = np.array([[[0.1, 0.2], [0.3, 0.4]]])
        smoothed = np.array([[0.4, 0.5]])
        assert abs(marginal_deviation(cross, smoothed) - 0.1) < 1e-15

    @pytest.mark.parametrize(
        "cross",
        [np.full((10, 2, 2), 0.25), np.full((30, 4), 0.25), np.full((30, 2), 0.5)],
        ids=["ten-rows", "flat-columns", "two-columns"],
    )
    def test_other_shapes_rejected(self, cross):
        smoothed = np.full((30, 2), 0.5)
        with pytest.raises(DimensionMismatchError, match=r"cross must have shape \(30, 2, 2\)"):
            marginal_deviation(cross, smoothed)


class TestVarianceFloor:
    def test_computed_once_per_panel(self, monkeypatch):
        data = np.random.default_rng(2).standard_normal((30, 5))
        panel = validate_panel(data)
        calls = []
        mean = np.mean
        monkeypatch.setattr(np, "mean", lambda a: calls.append(1) or mean(a))
        first = panel.variance_floor()
        assert panel.variance_floor() == first
        assert first == VARIANCE_FLOOR_RATIO * float(mean(data * data))
        assert len(calls) == 1
        # a new panel over the same data computes its own
        validate_panel(data).variance_floor()
        assert len(calls) == 2

    @pytest.mark.parametrize("value", [1.0, -2.5, 1e3])
    def test_constant_panel_gets_a_positive_floor(self, value):
        # the sample variance of a constant panel is zero; its mean square is not
        panel = validate_panel(np.full((60, 3), value))
        assert panel.variance_floor() == VARIANCE_FLOOR_RATIO * value * value

    def test_scales_with_the_square_of_the_units(self):
        data = np.random.default_rng(3).normal(5.0, 1.0, (40, 4))
        base = validate_panel(data).variance_floor()
        assert validate_panel(1e3 * data).variance_floor() == pytest.approx(1e6 * base, rel=1e-12)


class TestRngHandle:
    def test_identical_streams_identical_draws(self):
        a = RngHandle(seed=11, stream=3).generator().standard_normal(16)
        b = RngHandle(seed=11, stream=3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngHandle(seed=11, stream=0).generator().standard_normal(16)
        b = RngHandle(seed=11, stream=1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_numpy_integers_draw_the_int_stream(self):
        a = RngHandle(seed=np.int64(11), stream=np.uint64(3)).generator().standard_normal(16)
        b = RngHandle(seed=11, stream=3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("value", [1.5, -0.5, 2.0, float("nan"), "abc", None])
    @pytest.mark.parametrize("name", ["seed", "stream"])
    def test_non_integer_rejected(self, name, value):
        # a float is never truncated to the stream of a nearby integer
        with pytest.raises(InvalidArgumentError, match=f"{name} must fit"):
            RngHandle(**{"seed": 0, name: value})


#: The size settings, each read through ``operator.index``.
CONFIG_INTEGERS = [(SimConfig, "n"), (SimConfig, "t"), (SimConfig, "r"), (EmConfig, "max_iter")]


class TestConfigIntegers:
    @pytest.mark.parametrize("value", [10.5, 40.0, "40", None])
    @pytest.mark.parametrize(("cls", "name"), CONFIG_INTEGERS)
    def test_non_integer_rejected(self, cls, name, value):
        # a float is never truncated, even one with an integer value
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer$"):
            cls(**{name: value})

    @pytest.mark.parametrize(("cls", "name"), CONFIG_INTEGERS)
    def test_numpy_integer_stored_as_int(self, cls, name):
        cfg = cls(**{name: np.int64(getattr(cls(), name))})
        assert type(getattr(cfg, name)) is int
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(cls()))


#: Each real-valued setting of the two configs.
CONFIG_REALS = [
    (SimConfig, name) for name in ("p11", "p22", "rho_f", "tau", "rho_idio_max", "noise_to_signal")
] + [(EmConfig, name) for name in ("epsilon", "omega1", "omega2")]


class TestConfigReals:
    @pytest.mark.parametrize("value", ["0.3", None, [0.3]])
    @pytest.mark.parametrize(("cls", "name"), CONFIG_REALS)
    def test_non_real_rejected(self, cls, name, value):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a real number$"):
            cls(**{name: value})

    @pytest.mark.parametrize(("cls", "name"), CONFIG_REALS)
    def test_real_values_kept_as_given(self, cls, name):
        default = getattr(cls(), name)
        cfg = cls(**{name: np.float64(default)})
        assert type(getattr(cfg, name)) is np.float64
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(cls()))


_PANEL = validate_panel(np.random.default_rng(0).standard_normal((20, 6)))

#: Each integer argument of the library's entry points, as a call with that
#: value; every call here is cheap.
_INTEGER_ARGUMENTS = {
    "replications": lambda v: run_montecarlo(
        SimConfig(n=8, t=40), EmConfig(max_iter=2), seed=0, replications=v
    ),
    "jobs": lambda v: run_montecarlo(
        SimConfig(n=8, t=40), EmConfig(max_iter=2), seed=0, replications=1, jobs=v
    ),
    "k": lambda v: estimate_factor_space(_PANEL, k=v),
    "k_max": lambda v: select_num_factors_er(_PANEL, k_max=v),
    "instances": lambda v: equivalence_suite(instances=v),
}


@pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_integer_arguments(name, value):
    call = _INTEGER_ARGUMENTS[name]
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer$"):
        call(value)
    call(np.int64(1))  # a numpy integer passes


def _path(**bad):
    half = np.full((3, 2), 0.5)
    arrays = {"predicted": half, "filtered": half, "smoothed": half}
    return ProbabilityPath(**{**arrays, "cross": np.full((3, 2, 2), 0.25), **bad}, loglik=0.0)


def _params(**bad):
    fields = {
        "b1": np.ones((3, 2)),
        "b2": np.ones((3, 2)),
        "sigma_e1_diag": np.ones(3),
        "sigma_e2_diag": np.ones(3),
        "trans": TransitionMatrix(np.full((2, 2), 0.5)),
    }
    return ModelParams(**{**fields, **bad})


def _space(**bad):
    fields = {"a_hat": np.ones((4, 2)), "g_hat": np.ones((5, 2)), "eigvals": np.array([2.0, 1.0])}
    return FactorSpace(**{**fields, **bad})


#: constructor call that must be rejected -> whether it is a shape error
_REJECTED = {
    "trans-shape": (lambda: TransitionMatrix(np.full((2, 3), 1 / 3)), True),
    "trans-nonfinite": (lambda: TransitionMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]])), False),
    "trans-range": (lambda: TransitionMatrix(np.array([[1.2, -0.2], [0.3, 0.7]])), False),
    "trans-row-sum": (lambda: TransitionMatrix(np.array([[0.9, 0.2], [0.3, 0.7]])), False),
    "state-shape": (lambda: StateProbabilities(np.full(3, 1 / 3)), True),
    "state-nonfinite": (lambda: StateProbabilities(np.array([np.inf, 0.0])), False),
    "state-range": (lambda: StateProbabilities(np.array([1.5, -0.5])), False),
    "state-sum": (lambda: StateProbabilities(np.array([0.6, 0.5])), False),
    "path-length": (lambda: _path(filtered=np.full((4, 2), 0.5)), True),
    "path-width": (lambda: _path(cross=np.full((3, 2), 0.5)), True),
    "path-flat-cross": (lambda: _path(cross=np.full((3, 4), 0.25)), True),
    "path-scalar": (lambda: _path(predicted=np.float64(0.5)), True),
    "path-empty": (
        lambda: ProbabilityPath(
            predicted=np.empty((0, 2)), filtered=np.empty((0, 2)),
            smoothed=np.empty((0, 2)), cross=np.empty((0, 2, 2)), loglik=0.0,
        ),
        True,
    ),
    "path-nonfinite": (lambda: _path(smoothed=np.full((3, 2), np.nan)), False),
    "path-range": (lambda: _path(predicted=np.tile([1.5, -0.5], (3, 1))), False),
    "path-row-sum": (lambda: _path(cross=np.full((3, 2, 2), 0.3)), False),
    "path-marginal": (lambda: _path(cross=np.tile([[0.5, 0.3], [0.1, 0.1]], (3, 1, 1))), False),
    "params-loadings-shape": (lambda: _params(b2=np.ones((3, 1))), True),
    "params-variance-shape": (lambda: _params(sigma_e1_diag=np.ones(4)), True),
    "params-nonfinite": (lambda: _params(b1=np.full((3, 2), np.nan)), False),
    "params-variance-zero": (lambda: _params(sigma_e2_diag=np.zeros(3)), False),
    "space-factor-dim": (lambda: _space(g_hat=np.ones((5, 3))), True),
    "space-eigvals-length": (lambda: _space(eigvals=np.ones(3)), True),
    "space-eigvals-order": (lambda: _space(eigvals=np.array([1.0, 2.0])), False),
    "rng-negative-stream": (lambda: RngHandle(seed=0, stream=-1), False),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_rejections_are_msfactor_errors(case):
    build, shape_error = _REJECTED[case]
    with pytest.raises(MsfactorError) as err:
        build()
    assert isinstance(err.value, DimensionMismatchError) == shape_error
