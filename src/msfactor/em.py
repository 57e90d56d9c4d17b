"""EM estimation of the switching factor model.

The E step is the forward-backward pass of :mod:`msfactor.filtering`; the
M step has closed forms: weighted least squares for the loadings, weighted
mean squared residuals for the variances, and normalised smoothed
transition counts for the chain. The factors stay fixed, so the start,
the densities and the variances come from the least-squares fit of the
panel on them (:func:`~msfactor.filtering.anchor_fit`, once per panel and
factor matrix), the last two through one kernel, and no iteration builds
a T x N residual. Every pass is one call of
:func:`~msfactor.filtering.filter_smoother_pass`, whose plain arrays the M
steps take; only the last pass is checked, as the result's
:class:`ProbabilityPath`. The regime labels are fixed once, after the last
M step, so that state 1 is the more persistent one (p11 >= p22).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blas import one_blas_thread
from .exceptions import EmptyRegimeError, InvalidArgumentError
from .filtering import _residual_sums, anchor_fit, filter_smoother_pass, regime_log_densities
from .pca import FactorSpace
from .types import (
    STATE_1,
    ModelParams,
    Panel,
    ProbabilityPath,
    TransitionMatrix,
    as_cross,
    as_shaped,
    check_finite,
    check_gram,
    check_settings,
)

__all__ = [
    "EmConfig",
    "EmResult",
    "init_params",
    "m_step_loadings",
    "m_step_transition",
    "m_step_variances",
    "relabel_states",
    "run_em",
]

@dataclass(frozen=True)
class EmConfig:
    """EM loop controls.

    ``omega1`` and ``omega2`` offset the initial transition matrix away
    from the uninformative all-0.5 point (which stalls the algorithm);
    requiring omega1 > omega2 makes state 1 the more persistent, hence
    most probable, one from the first iteration on.

    Each field, with its ``help`` metadata, is a setting of ``msfactor
    estimate`` and ``montecarlo``, under its own name in a config file and
    as ``--max-iter`` for ``max_iter``, with the default's type.
    """

    max_iter: int = field(default=100, metadata={"help": "EM iteration cap"})
    epsilon: float = field(default=1e-6, metadata={"help": "EM convergence threshold"})
    omega1: float = field(default=0.2, metadata={"help": "initial transition offset, state 1"})
    omega2: float = field(default=0.1, metadata={"help": "initial transition offset, state 2"})

    def __post_init__(self):
        check_settings(self)
        if self.max_iter < 1:
            raise InvalidArgumentError("max_iter must be >= 1")
        if not (0.0 < self.epsilon < math.inf):
            raise InvalidArgumentError("epsilon must be finite and positive")
        if not (0.0 < self.omega2 < self.omega1 < 0.5):
            raise InvalidArgumentError(
                f"need 0 < omega2 < omega1 < 0.5, got omega1={self.omega1}, "
                f"omega2={self.omega2}"
            )


@dataclass(frozen=True)
class EmResult:
    """Final estimates of one EM run.

    ``params`` come from the last M step, relabeled so that p11 >= p22;
    ``path`` is the loop's last pass, under them, the run's only validated
    pass. ``loglik_trace`` holds one log-likelihood per M step: entry k is
    the one attained by the parameters of the (k+1)-th M step. The EM
    ascent property makes the trace non-decreasing. Non-convergence within
    ``max_iter`` is reported through ``converged``, not raised.
    """

    params: ModelParams
    path: ProbabilityPath
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool


def init_params(panel: Panel, fs: FactorSpace, cfg: EmConfig) -> ModelParams:
    """PCA-based starting point.

    Both regimes start from the linear-model loadings (b1 = b2 = a_hat)
    and from each series' mean squared PCA residual, floored: the z*z of
    :func:`~msfactor.filtering.anchor_fit`, whose loadings are a_hat for
    PCA factors. The initial transition matrix is
    [[0.5+w1, 0.5-w1], [0.5-w2, 0.5+w2]].
    """
    floor = panel.variance_floor()  # before the fit: its T x N temporary is gone by then
    _, _, zz = anchor_fit(panel, fs.g_hat)
    sigma = np.maximum(zz.mean(axis=0), floor)
    w1, w2 = cfg.omega1, cfg.omega2
    trans = TransitionMatrix(np.array([[0.5 + w1, 0.5 - w1], [0.5 - w2, 0.5 + w2]]))
    return ModelParams(
        b1=fs.a_hat,
        b2=fs.a_hat,
        sigma_e1_diag=sigma,
        sigma_e2_diag=sigma,
        trans=trans,
    )


def m_step_loadings(
    panel: Panel, g_hat: np.ndarray, smoothed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-regime weighted least squares of the panel on the factors.

        b_j = (sum_t w_jt x_t g_t') (sum_t w_jt g_t g_t')^-1,

    with w_jt the smoothed probability of regime j at t. The cross moment
    is x' (w_j g), both regimes from one product. Raises
    :class:`NonFiniteError` at the first non-finite weight and
    :class:`SingularGramError` when a weighted Gram matrix is (near)
    singular, which signals that the regime received no weight.
    """
    g, smoothed = as_shaped(
        {"T": panel.t_len}, g_hat=(g_hat, ("T", "k")), smoothed=(smoothed, ("T", 2))
    )
    check_finite("state", smoothed=smoothed)
    k = g.shape[1]
    wg = np.hstack([g * smoothed[:, :1], g * smoothed[:, 1:2]])
    cross_moment = panel.data.T @ wg
    out = []
    for j in range(2):
        cols = slice(j * k, (j + 1) * k)
        gram = wg[:, cols].T @ g
        check_gram(gram, regime=j + 1)
        out.append(np.linalg.solve(gram.T, cross_moment[:, cols].T).T)
    return out[0], out[1]


def m_step_variances(
    panel: Panel,
    g_hat: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    smoothed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-regime weighted mean squared residuals, floored.

        sigma2_ji = sum_t w_jt (x_it - b_ji' g_t)^2 / sum_t w_jt.

    With z and a0 from :func:`~msfactor.filtering.anchor_fit` and
    d_j = b_j - a0, the numerator is sum_t w_jt (z_it - d_ji' g_t)^2, from
    :func:`~msfactor.filtering._residual_sums` on the transposed fit. Only
    the diagonal is returned: the exact-factor quasi-likelihood has no
    off-diagonal covariances. Raises :class:`NonFiniteError` at the first
    non-finite weight.
    """
    g, b1, b2, smoothed = as_shaped(
        {"T": panel.t_len, "N": panel.n_len}, g_hat=(g_hat, ("T", "k")),
        b1=(b1, ("N", "k")), b2=(b2, ("N", "k")), smoothed=(smoothed, ("T", 2)),
    )
    check_finite("state", smoothed=smoothed)
    t_len = g.shape[0]
    floor = panel.variance_floor()
    totals = (smoothed[:, 0].sum(), smoothed[:, 1].sum())
    for j, total in enumerate(totals):
        if total < 1e-8 * t_len:
            raise EmptyRegimeError(
                f"regime {j + 1} has total smoothed weight {total:.3e}"
            )
    a0, z, zz = anchor_fit(panel, g)
    ssr = _residual_sums(z.T, zz.T, (b1 - a0, b2 - a0), (g, g), smoothed)
    return tuple(np.maximum(ssr[:, j] / totals[j], floor) for j in range(2))


def m_step_transition(cross: np.ndarray, smoothed: np.ndarray) -> TransitionMatrix:
    """Transition probabilities from smoothed transition counts, for the
    shapes :func:`~msfactor.types.as_cross` asks:

        p_ij = sum_t cross[t, i, j] / (s0_i + sum_{t<T-1} smoothed[t, i]),

    where s0_i = sum_j cross[0, i, j] is the t = 0 state probability
    implied by the first cross row (zero when that row carries no mass).
    The adding-up identity sum_j cross[t, i, j] = smoothed[t-1, i] then
    makes the rows sum to one by construction, and the estimator is the
    exact maximiser of the expected complete-data log-likelihood, which is
    what guarantees the EM ascent property of the likelihood trace.
    """
    cross, smoothed = as_cross(cross, smoothed)
    denom = cross[0].sum(axis=1) + smoothed[:-1].sum(axis=0)
    if denom.min() <= 0.0:
        empty = int(np.argmin(denom)) + 1
        raise EmptyRegimeError(f"regime {empty} has zero smoothed weight over t < T")
    p = cross.sum(axis=0) / denom[:, None]
    return TransitionMatrix(np.clip(p, 0.0, 1.0))


def relabel_states(params: ModelParams) -> ModelParams:
    """Give label 1 to the more persistent state: for two states, p11 >= p22
    exactly when state 1 has the larger unconditional probability.

    Returns ``params`` itself when p11 >= p22 (ties, p = I included);
    otherwise a copy with loadings, variances and the transition matrix
    permuted together. Applying the function twice equals applying it once.
    """
    if params.trans.p11 >= params.trans.p22:
        return params
    return ModelParams(
        b1=params.b2,
        b2=params.b1,
        sigma_e1_diag=params.sigma_e2_diag,
        sigma_e2_diag=params.sigma_e1_diag,
        trans=params.trans.relabeled(),
    )


def _relative_change(current: float, previous: float) -> float:
    change = abs(current - previous)
    scale = 0.5 * abs(current + previous)
    if scale == 0.0:
        return 0.0 if change == 0.0 else np.inf
    return change / scale


@one_blas_thread()
def run_em(panel: Panel, fs: FactorSpace, cfg: EmConfig) -> EmResult:
    """Full EM loop with PCA factors held fixed.

    Each pass after the first scores the previous M step. The first
    iteration where the relative symmetric change of two successive
    log-likelihoods drops below ``cfg.epsilon``, or the ``cfg.max_iter``-th,
    takes the last M step, and the pass under it ends the loop and gives the
    path. Every pass starts from ``STATE_1`` and none relabels;
    :func:`relabel_states` runs once, after the loop, and a swap reverses
    the path's state axes, as the filter is bitwise label-symmetric.
    """
    g_hat = fs.g_hat
    params = init_params(panel, fs, cfg)
    trace: list[float] = []
    converged = False
    for k in range(cfg.max_iter + 1):
        log_eta = regime_log_densities(panel, g_hat, params)
        predicted, filtered, smoothed, cross, loglik = filter_smoother_pass(
            log_eta, params.trans, STATE_1
        )
        if k >= 1:
            # loglik is the value attained by the previous M step.
            trace.append(loglik)
        if converged or k == cfg.max_iter:
            break
        # The symmetric starting point (b1 = b2) is an exact EM fixed
        # point, and the escape from it begins with tiny likelihood
        # steps that then grow by orders of magnitude. Declaring
        # convergence therefore also requires the step sizes to be
        # shrinking, which holds near an optimum but not on the
        # escape path.
        converged = (
            len(trace) >= 3
            and _relative_change(trace[-1], trace[-2]) < cfg.epsilon
            and abs(trace[-1] - trace[-2]) <= abs(trace[-2] - trace[-3])
        )
        b1, b2 = m_step_loadings(panel, g_hat, smoothed)
        s1, s2 = m_step_variances(panel, g_hat, b1, b2, smoothed)
        trans = m_step_transition(cross, smoothed)
        params = ModelParams(b1=b1, b2=b2, sigma_e1_diag=s1, sigma_e2_diag=s2, trans=trans)
    labeled = relabel_states(params)
    if labeled is not params:
        predicted, filtered, smoothed = predicted[:, ::-1], filtered[:, ::-1], smoothed[:, ::-1]
        cross = cross[:, ::-1, ::-1]
    return EmResult(
        params=labeled,
        path=ProbabilityPath(predicted, filtered, smoothed, cross, loglik),
        loglik_trace=tuple(trace),
        iterations=k,
        converged=converged,
    )
