"""EM estimation of the switching factor model.

The E step is the forward-backward pass of :mod:`msfactor.filtering`; the
M step has closed forms: weighted least squares for the loadings, weighted
mean squared residuals for the variances, and normalised smoothed
transition counts for the chain. The factors stay fixed, so the densities
and the variances come from moments of the least-squares fit of the panel
on them (:func:`~msfactor.filtering.anchor_fit`, computed once per panel
and factor matrix), and no iteration builds a T x N residual. The M steps
take the pass's plain arrays; only the closing pass is validated as a
:class:`ProbabilityPath`. The parameters are relabeled every iteration so
that state 1 is the one with the highest unconditional probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyRegimeError, InvalidArgumentError
from .filtering import _forward_backward, anchor_fit, filter_smoother_pass, regime_log_densities
from .pca import FactorSpace
from .types import (
    STATE_1,
    ModelParams,
    Panel,
    ProbabilityPath,
    StateProbabilities,
    TransitionMatrix,
    check_gram,
    unconditional_probs,
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
    """

    max_iter: int = 100
    epsilon: float = 1e-6
    omega1: float = 0.2
    omega2: float = 0.1

    def __post_init__(self):
        if self.max_iter < 1:
            raise InvalidArgumentError("max_iter must be >= 1")
        if self.epsilon <= 0.0:
            raise InvalidArgumentError("epsilon must be positive")
        if not (0.0 < self.omega2 < self.omega1 < 0.5):
            raise InvalidArgumentError(
                f"need 0 < omega2 < omega1 < 0.5, got omega1={self.omega1}, "
                f"omega2={self.omega2}"
            )


@dataclass(frozen=True)
class EmResult:
    """Final estimates of one EM run.

    ``params`` come from the last M step; ``path`` from one extra
    filter/smoother pass under those final parameters, the run's only
    validated pass. ``loglik_trace`` holds one log-likelihood per M step:
    entry k is the filter log-likelihood attained by the parameters the (k+1)-th M step
    produced, with the last entry coming from the closing pass. The EM
    ascent property makes the trace non-decreasing. Non-convergence
    within ``max_iter`` is reported through ``converged``, not raised.
    """

    params: ModelParams
    path: ProbabilityPath
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool


def init_params(panel: Panel, fs: FactorSpace, cfg: EmConfig) -> ModelParams:
    """PCA-based starting point.

    Both regimes start from the linear-model loadings (b1 = b2 = a_hat)
    and from the diagonal of the PCA residual second-moment matrix; the
    initial transition matrix is [[0.5+w1, 0.5-w1], [0.5-w2, 0.5+w2]].
    """
    resid = panel.data - fs.g_hat @ fs.a_hat.T
    sigma = np.maximum((resid**2).mean(axis=0), panel.variance_floor())
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
    :class:`SingularGramError` when a weighted Gram matrix is (near)
    singular, which signals that the regime received no weight.
    """
    g = np.asarray(g_hat, dtype=float)
    k = g.shape[1]
    wg = _weighted_factors(g, smoothed)
    cross_moment = panel.data.T @ wg
    out = []
    for j in range(2):
        cols = slice(j * k, (j + 1) * k)
        gram = wg[:, cols].T @ g
        check_gram(gram, regime=j + 1)
        out.append(np.linalg.solve(gram.T, cross_moment[:, cols].T).T)
    return out[0], out[1]


def _weighted_factors(g: np.ndarray, smoothed: np.ndarray) -> np.ndarray:
    """[w_1 g, w_2 g]: the factors times each regime's smoothed weights, T x 2k."""
    return np.hstack([g * smoothed[:, :1], g * smoothed[:, 1:2]])


def m_step_variances(
    panel: Panel,
    g_hat: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    smoothed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-regime weighted mean squared residuals, floored.

        sigma2_ji = sum_t w_jt (x_it - b_ji' g_t)^2 / sum_t w_jt.

    The numerator is expanded around the least-squares fit of
    :func:`~msfactor.filtering.anchor_fit` (residual z, loadings a0) with
    d_j = b_j - a0 and G_j = sum_t w_jt g_t g_t':

        sum_t w_jt (z_it - d_ji' g_t)^2
        = (w_j' (z*z))_i - 2 d_ji' (z' (w_j g))_i + d_ji' G_j d_ji,

    so no T x N residual is built per call; anchoring at z keeps every
    term on the scale of the residuals. Off-diagonal covariances are
    identically zero under the exact-factor quasi-likelihood, so only the
    diagonal is returned.
    """
    g = np.asarray(g_hat, dtype=float)
    t_len, k = g.shape[0], g.shape[1]
    floor = panel.variance_floor()
    totals = (smoothed[:, 0].sum(), smoothed[:, 1].sum())
    for j, total in enumerate(totals):
        if total < 1e-8 * t_len:
            raise EmptyRegimeError(
                f"regime {j + 1} has total smoothed weight {total:.3e}"
            )
    a0, z, zz = anchor_fit(panel, g)
    wg = _weighted_factors(g, smoothed)
    # both regimes in one pass over z*z and one over z
    wzz = zz.T @ smoothed
    zwg = z.T @ wg
    out = []
    for j, b in enumerate([b1, b2]):
        d = b - a0
        cols = slice(j * k, (j + 1) * k)
        gram = wg[:, cols].T @ g
        ssr = (
            wzz[:, j]
            - 2.0 * np.einsum("ik,ik->i", d, zwg[:, cols])
            + np.einsum("ik,ik->i", d @ gram, d)
        )
        out.append(np.maximum(ssr / totals[j], floor))
    return out[0], out[1]


def m_step_transition(cross: np.ndarray, smoothed: np.ndarray) -> TransitionMatrix:
    """Transition probabilities from smoothed transition counts.

        p_ij = sum_{t=1}^T cross[(j, i), t]
               / (s0_i + sum_{t=1}^{T-1} smoothed[i, t]),

    where s0_i = sum_j cross[(j, i), 1] is the t = 0 state probability
    implied by the first cross row (zero when that row carries no mass).
    The adding-up identity sum_j cross[(j, i), t] = smoothed[i, t-1] then
    makes the rows sum to one by construction, and the estimator is the
    exact maximiser of the expected complete-data log-likelihood, which is
    what guarantees the EM ascent property of the likelihood trace.
    """
    cross = np.asarray(cross, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    numer = cross.sum(axis=0)  # columns: (1,1), (2,1), (1,2), (2,2)
    s0 = np.array([cross[0, 0] + cross[0, 1], cross[0, 2] + cross[0, 3]])
    denom = s0 + smoothed[:-1].sum(axis=0)
    if denom.min() <= 0.0:
        empty = int(np.argmin(denom)) + 1
        raise EmptyRegimeError(f"regime {empty} has zero smoothed weight over t < T")
    p = np.array(
        [
            [numer[0] / denom[0], numer[1] / denom[0]],
            [numer[2] / denom[1], numer[3] / denom[1]],
        ]
    )
    return TransitionMatrix(np.clip(p, 0.0, 1.0))


def relabel_states(params: ModelParams) -> ModelParams:
    """Give label 1 to the state with the highest unconditional probability.

    Returns ``params`` itself when state 1 already has it (ties included);
    otherwise a copy with loadings, variances and the transition matrix
    permuted together. Applying the function twice equals applying it once.
    """
    stationary = unconditional_probs(params.trans).values
    if stationary[0] >= stationary[1]:
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


def run_em(panel: Panel, fs: FactorSpace, cfg: EmConfig) -> EmResult:
    """Full EM loop with PCA factors held fixed.

    Stops at the first iteration where the relative symmetric change of
    two successive log-likelihoods drops below ``cfg.epsilon``, or at
    ``cfg.max_iter``. On convergence one more M step is taken and the
    final probability path comes from one extra E step under those
    parameters, whose log-likelihood closes the trace. The filter starts
    from ``STATE_1``. Every M step is relabeled, so the final parameters
    need no further relabeling.
    """
    g_hat = fs.g_hat
    params = init_params(panel, fs, cfg)
    # The pre-sample prior xi0 swaps with the labels, so every relabel is an
    # exact invariance of the likelihood; swapping the labels alone sends
    # near-balanced regimes into a relabeling limit cycle.
    xi0 = STATE_1
    trace: list[float] = []
    converged = False
    iterations = 0
    for k in range(cfg.max_iter):
        log_eta = regime_log_densities(panel, g_hat, params)
        _, _, smoothed, cross, loglik = _forward_backward(log_eta, params.trans, xi0)
        if k >= 1:
            # loglik is the value attained by the previous M step.
            trace.append(loglik)
            # The symmetric starting point (b1 = b2) is an exact EM fixed
            # point, and the escape from it begins with tiny likelihood
            # steps that then grow by orders of magnitude. Declaring
            # convergence therefore also requires the step sizes to be
            # shrinking, which holds near an optimum but not on the
            # escape path.
            if (
                len(trace) >= 3
                and _relative_change(trace[-1], trace[-2]) < cfg.epsilon
                and abs(trace[-1] - trace[-2]) <= abs(trace[-2] - trace[-3])
            ):
                converged = True
        b1, b2 = m_step_loadings(panel, g_hat, smoothed)
        s1, s2 = m_step_variances(panel, g_hat, b1, b2, smoothed)
        trans = m_step_transition(cross, smoothed)
        new_params = ModelParams(
            b1=b1, b2=b2, sigma_e1_diag=s1, sigma_e2_diag=s2, trans=trans
        )
        params = relabel_states(new_params)
        if params is not new_params:
            xi0 = StateProbabilities(xi0.values[::-1])
        iterations = k + 1
        if converged:
            break
    final_path = filter_smoother_pass(
        regime_log_densities(panel, g_hat, params), params.trans, xi0
    )
    trace.append(final_path.loglik)
    return EmResult(
        params=params,
        path=final_path,
        loglik_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )
