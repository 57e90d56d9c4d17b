import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfactor.em import EmConfig, init_params, m_step_loadings, m_step_variances, run_em
from msfactor.exceptions import (
    DegenerateChainError,
    DimensionMismatchError,
    InvalidArgumentError,
    MsfactorError,
    NonFiniteError,
    SingularGramError,
    TooSmallError,
)
from msfactor.filtering import anchor_fit, regime_log_densities
from msfactor.metrics import (
    blended_loadings,
    common_component_mse,
    fitted_common_component,
    regime_blend_matrix,
    trace_r2,
)
from msfactor.montecarlo import run_montecarlo
from msfactor.oracle import equivalence_suite
from msfactor.pca import demean_panel, estimate_factor_space, select_num_factors_er
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
    as_cross,
    as_periods,
    check_gram,
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
        with pytest.raises(TooSmallError, match="2-dimensional, got ndim=1"):
            validate_panel(np.ones(5))

    def test_data_is_read_only(self):
        panel = validate_panel(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            panel.data[0, 0] = 1.0

    @pytest.mark.parametrize(
        "data",
        [
            [["a", "b"], ["c", "d"]],
            [[1.0, 2.0], [3.0]],
            np.ones((3, 3)) + 1j,
            np.ones((3, 3), dtype=complex),
            [[1.0, 2.0], [3.0, 4.0 + 0.5j]],
        ],
        ids=["strings", "ragged", "complex", "complex-zero-imaginary", "complex-entry"],
    )
    def test_not_a_real_matrix_rejected(self, data):
        # a cast to float would drop the imaginary part, even where it is zero
        with pytest.raises(InvalidArgumentError, match="array of real numbers"):
            validate_panel(data)

    def test_integers_and_numeric_strings_still_read(self):
        for data in ([[1, 2], [3, 4]], [["1", "2"], ["3", "4"]]):
            assert validate_panel(data).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


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

    @pytest.mark.parametrize(
        "rows", [np.empty((0, 2)), np.empty((0, 2, 2)), np.float64(1.0)],
        ids=["no-periods", "no-cross-periods", "scalar"],
    )
    def test_no_periods_rejected(self, rows):
        with pytest.raises(DimensionMismatchError, match="at least one period"):
            row_sum_deviation(rows)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reported(self, value):
        cross = np.full((3, 2, 2), 0.25)
        cross[1, 1, 0] = value
        with pytest.raises(NonFiniteError) as err:
            row_sum_deviation(cross)
        assert (err.value.row, err.value.col) == (1, 2)


class TestCheckGram:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_is_singular(self, value):
        gram = np.eye(2)
        gram[0, 1] = value
        with pytest.raises(SingularGramError) as err:
            check_gram(gram, regime=2)
        assert err.value.regime == 2 and np.isnan(err.value.cond)


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
        message = (
            "need cross (T, 2, 2), smoothed (T, 2) for T >= 1; "
            f"got cross {cross.shape}, smoothed (30, 2)"
        )
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
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
    return ProbabilityPath(**{**arrays, "cross": np.full((3, 2, 2), 0.25), "loglik": 0.0, **bad})


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
    "trans-strings": (lambda: TransitionMatrix([["a", "b"], ["c", "d"]]), False),
    "trans-complex": (lambda: TransitionMatrix(np.full((2, 2), 0.5 + 0j)), False),
    "state-shape": (lambda: StateProbabilities(np.full(3, 1 / 3)), True),
    "state-nonfinite": (lambda: StateProbabilities(np.array([np.inf, 0.0])), False),
    "state-range": (lambda: StateProbabilities(np.array([1.5, -0.5])), False),
    "state-sum": (lambda: StateProbabilities(np.array([0.6, 0.5])), False),
    "state-ragged": (lambda: StateProbabilities([1.0, [0.0]]), False),
    "state-strings": (lambda: StateProbabilities(["x", "y"]), False),
    "state-complex": (lambda: StateProbabilities([0.5 + 1j, 0.5]), False),
    "state-column": (lambda: StateProbabilities(np.array([[1.0], [0.0]])), True),
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
    "path-loglik-string": (lambda: _path(loglik="x"), False),
    "path-loglik-vector": (lambda: _path(loglik=np.zeros(2)), True),
    "path-loglik-nan": (lambda: _path(loglik=np.nan), False),
    "params-loadings-shape": (lambda: _params(b2=np.ones((3, 1))), True),
    "params-variance-shape": (lambda: _params(sigma_e1_diag=np.ones(4)), True),
    "params-nonfinite": (lambda: _params(b1=np.full((3, 2), np.nan)), False),
    "params-variance-zero": (lambda: _params(sigma_e2_diag=np.zeros(3)), False),
    "params-variance-nan": (lambda: _params(sigma_e1_diag=[1.0, np.nan, 1.0]), False),
    "params-variance-inf": (lambda: _params(sigma_e2_diag=[1.0, 1.0, np.inf]), False),
    "params-plain-trans": (lambda: _params(trans=np.full((2, 2), 0.5)), False),
    "params-variance-column": (lambda: _params(sigma_e1_diag=np.ones((3, 1))), True),
    "params-variance-row": (lambda: _params(sigma_e2_diag=np.ones((1, 3))), True),
    "params-no-series": (
        lambda: _params(
            b1=np.ones((0, 2)), b2=np.ones((0, 2)), sigma_e1_diag=np.ones(0),
            sigma_e2_diag=np.ones(0),
        ),
        True,
    ),
    "params-no-factors": (lambda: _params(b1=np.ones((3, 0)), b2=np.ones((3, 0))), True),
    "space-factor-dim": (lambda: _space(g_hat=np.ones((5, 3))), True),
    "space-eigvals-length": (lambda: _space(eigvals=np.ones(3)), True),
    "space-eigvals-order": (lambda: _space(eigvals=np.array([1.0, 2.0])), False),
    "space-strings": (lambda: _space(eigvals=["2", "one"]), False),
    "space-nan-loadings": (lambda: _space(a_hat=np.full((4, 2), np.nan)), False),
    "space-inf-factors": (lambda: _space(g_hat=np.full((5, 2), np.inf)), False),
    "space-nan-eigvals": (lambda: _space(eigvals=np.array([2.0, np.nan])), False),
    "space-eigvals-column": (lambda: _space(eigvals=np.array([[2.0], [1.0]])), True),
    "space-no-factors": (
        lambda: _space(a_hat=np.ones((4, 0)), g_hat=np.ones((5, 0)), eigvals=np.ones(0)), True
    ),
    "space-no-periods": (lambda: _space(g_hat=np.ones((0, 2))), True),
    "rng-negative-stream": (lambda: RngHandle(seed=0, stream=-1), False),
    "sim-no-factors": (lambda: SimConfig(r=0), False),
    "sim-one-series": (lambda: SimConfig(n=1), False),
    "sim-one-period": (lambda: SimConfig(t=1), False),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_rejections_are_msfactor_errors(case):
    build, shape_error = _REJECTED[case]
    with pytest.raises(MsfactorError) as err:
        build()
    assert isinstance(err.value, DimensionMismatchError) == shape_error



_RNG = np.random.default_rng(3)
_G = _RNG.standard_normal((6, 2))
_B = _RNG.standard_normal((4, 2))
_W = np.full((6, 2), 0.5)
_CROSS = np.full((6, 2, 2), 0.25)
_TRANS = TransitionMatrix(np.full((2, 2), 0.5))
_PANEL_6X4 = validate_panel(_G @ _B.T + _RNG.standard_normal((6, 4)))
_PARAMS_ARGS = {"b1": _B, "b2": _B, "sigma_e1_diag": np.ones(4), "sigma_e2_diag": np.ones(4),
                "trans": _TRANS}
_PARAMS_4X2 = ModelParams(**_PARAMS_ARGS)
_SPACE_ARGS = {"a_hat": _B, "g_hat": _G, "eigvals": np.array([2.0, 1.0])}
_PATH_ARGS = {"predicted": _W, "filtered": _W, "smoothed": _W, "cross": _CROSS, "loglik": 0.0}

#: Each array-taking public function and constructor, with a second row
#: for each constructor argument that used to be flattened and for
#: ``loglik``: the call, good arguments by name, the argument made bad and a
#: wrong size of it (one its other arguments or its own role contradict).
_INTAKE = {
    "as_periods": (lambda x, y: as_periods(x, y), {"x": _W, "y": _W}, "y", _W[:-1]),
    "as_cross": (as_cross, {"cross": _CROSS, "smoothed": _W}, "cross", _CROSS[:-1]),
    "anchor_fit": (anchor_fit, {"panel": _PANEL_6X4, "g_hat": _G}, "g_hat", _G[:-1]),
    "regime_log_densities": (
        regime_log_densities,
        {"panel": _PANEL_6X4, "g_hat": _G, "params": _PARAMS_4X2},
        "g_hat",
        _G[:, :1],
    ),
    "m_step_loadings": (
        m_step_loadings, {"panel": _PANEL_6X4, "g_hat": _G, "smoothed": _W}, "smoothed", _W[:-1]
    ),
    "m_step_variances": (
        m_step_variances,
        {"panel": _PANEL_6X4, "g_hat": _G, "b1": _B, "b2": _B, "smoothed": _W},
        "b2",
        _B[:-1],
    ),
    "regime_blend_matrix": (
        regime_blend_matrix,
        {"smoothed_col": _W[:, 0], "in_regime": np.arange(6) % 2 == 0, "g_hat": _G},
        "in_regime",
        np.ones(5),
    ),
    "blended_loadings": (
        blended_loadings, {"b1_true": _B, "b2_true": _B, "blend": np.eye(2)}, "blend", np.eye(3)
    ),
    "trace_r2": (trace_r2, {"b_hat": _B, "b_target": _B}, "b_target", _B[:-1]),
    "common_component_mse": (
        common_component_mse, {"chi_hat": _G @ _B.T, "chi_true": _G @ _B.T}, "chi_true", _G
    ),
    "fitted_common_component": (
        fitted_common_component,
        {"b1": _B, "b2": _B, "g_hat": _G, "smoothed": _W},
        "g_hat",
        _G[:-1],
    ),
    "validate_panel": (validate_panel, {"data": _PANEL_6X4.data}, "data", np.ones((1, 4))),
    "TransitionMatrix": (TransitionMatrix, {"p": _TRANS.p}, "p", np.full((2, 3), 1 / 3)),
    "StateProbabilities": (
        StateProbabilities, {"values": np.array([0.5, 0.5])}, "values", np.full(3, 1 / 3)
    ),
    "ModelParams": (ModelParams, _PARAMS_ARGS, "b2", _B[:-1]),
    "ModelParams.sigma_e1_diag": (ModelParams, _PARAMS_ARGS, "sigma_e1_diag", np.ones(3)),
    "FactorSpace": (FactorSpace, _SPACE_ARGS, "g_hat", _G[:, :1]),
    "FactorSpace.eigvals": (FactorSpace, _SPACE_ARGS, "eigvals", np.ones(3)),
    "ProbabilityPath": (ProbabilityPath, _PATH_ARGS, "smoothed", _W[:-1]),
    "ProbabilityPath.loglik": (ProbabilityPath, _PATH_ARGS, "loglik", np.zeros(2)),
}


def _ragged(arr: np.ndarray) -> list:
    """``arr`` as nested lists whose last row is one entry short, for a 1-D
    ``arr`` one entry long, and for a scalar a list of it and a pair."""
    if arr.ndim == 0:
        return [arr.item(), [1.0, 1.0]]
    rows = arr.tolist()
    rows[-1] = [1.0, 1.0] if arr.ndim == 1 else np.asarray(rows[-1])[..., :-1].tolist()
    return rows


#: bad input kind -> the bad argument made from the good one and its wrong size
_BAD_ARRAYS = {
    "strings": lambda arr, _: np.full(arr.shape, "x"),
    "complex": lambda arr, _: arr + 1j,
    "ragged": lambda arr, _: _ragged(arr),
    "extra-axis": lambda arr, _: arr[..., None],
    "wrong-size": lambda _, wrong: wrong,
}


@pytest.mark.parametrize("kind", list(_BAD_ARRAYS))
@pytest.mark.parametrize("case", list(_INTAKE))
def test_bad_arrays_are_msfactor_errors(case, kind):
    """Every array argument comes in through one conversion and one shape
    check: a bad one raises an MsfactorError and no warning (the suite
    turns warnings into errors), where numpy's bare errors or a
    ComplexWarning used to come through."""
    call, good, target, wrong = _INTAKE[case]
    call(**good)
    if kind in ("strings", "complex", "ragged"):
        error = InvalidArgumentError
    else:  # a panel has no size to share; its shape errors say it is too small
        error = TooSmallError if case == "validate_panel" else DimensionMismatchError
    with pytest.raises(error):
        call(**{**good, target: _BAD_ARRAYS[kind](np.asarray(good[target]), wrong)})


def test_fixed_shapes_need_no_size_rule():
    """A call that names no size letter says what it needs and what it got."""
    message = "need values (2,); got values (2, 1)"
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        StateProbabilities(np.array([[0.5], [0.5]]))


_SPACE_6X4 = FactorSpace(**_SPACE_ARGS)

#: Each object argument of an entry point given the panel's data or None:
#: the call and its message, where a bare AttributeError came out.
_X = _PANEL_6X4.data
_OBJECTS = {
    "anchor_fit-panel": (lambda: anchor_fit(_X, _G), "panel must be a Panel, got ndarray"),
    "regime_log_densities-panel": (
        lambda: regime_log_densities(_X, _G, _PARAMS_4X2), "panel must be a Panel, got ndarray"
    ),
    "regime_log_densities-params": (
        lambda: regime_log_densities(_PANEL_6X4, _G, _X),
        "params must be a ModelParams, got ndarray",
    ),
    "m_step_loadings-panel": (
        lambda: m_step_loadings(_X, _G, _W), "panel must be a Panel, got ndarray"
    ),
    "m_step_variances-panel": (
        lambda: m_step_variances(_X, _G, _B, _B, _W), "panel must be a Panel, got ndarray"
    ),
    "init_params-panel": (
        lambda: init_params(_X, _SPACE_6X4, EmConfig()), "panel must be a Panel, got ndarray"
    ),
    "init_params-fs": (
        lambda: init_params(_PANEL_6X4, _G, EmConfig()), "fs must be a FactorSpace, got ndarray"
    ),
    "init_params-cfg": (
        lambda: init_params(_PANEL_6X4, _SPACE_6X4, None), "cfg must be a EmConfig, got NoneType"
    ),
    "run_em-panel": (
        lambda: run_em(_X, _SPACE_6X4, EmConfig()), "panel must be a Panel, got ndarray"
    ),
    "run_em-fs": (
        lambda: run_em(_PANEL_6X4, _G, EmConfig()), "fs must be a FactorSpace, got ndarray"
    ),
    "run_em-cfg": (
        lambda: run_em(_PANEL_6X4, _SPACE_6X4, None), "cfg must be a EmConfig, got NoneType"
    ),
    "estimate_factor_space-panel": (
        lambda: estimate_factor_space(_X, 2), "panel must be a Panel, got ndarray"
    ),
    "select_num_factors_er-panel": (
        lambda: select_num_factors_er(_X, 2), "panel must be a Panel, got ndarray"
    ),
    "demean_panel-panel": (lambda: demean_panel(_X), "panel must be a Panel, got ndarray"),
}


@pytest.mark.parametrize("case", list(_OBJECTS))
def test_plain_values_for_objects_are_rejected(case):
    call, message = _OBJECTS[case]
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        call()
