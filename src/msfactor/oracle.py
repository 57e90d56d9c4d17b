"""Exact brute-force posterior by state-path enumeration.

Reference implementation used to validate the filter, smoother and
cross-probabilities at desk scale. Never called by the estimation path.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError, InvalidArgumentError, TooLongError
from .types import RngHandle, StateProbabilities, TransitionMatrix, as_integer

MAX_ENUM_T = 16
EQUIVALENCE_TOLERANCE = 1e-9


def enumerate_posterior(
    log_eta: np.ndarray,
    trans: TransitionMatrix,
    xi0: StateProbabilities,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Posterior regime probabilities by summing over all 2^T state paths.

    Parameters
    ----------
    log_eta : (T, 2) array
        Log densities of x_t under each regime.
    trans : TransitionMatrix
        Chain transition probabilities.
    xi0 : StateProbabilities
        Distribution of the pre-sample state s_0; the prior of s_1 is
        P' xi0.

    Returns
    -------
    loglik : float
        Log of the total mixture likelihood.
    smoothed : (T, 2) array
        Marginal posteriors P(s_t = j | data).
    cross : (T, 4) array
        Pairwise posteriors P(s_t = j, s_{t-1} = i | data) in the order
        (1,1), (2,1), (1,2), (2,2); row 0 pairs s_1 with s_0.

    Raises
    ------
    TooLongError
        If T exceeds 16 (2^T paths).
    """
    log_eta = np.asarray(log_eta, dtype=float)
    t_len = log_eta.shape[0]
    if log_eta.ndim != 2 or log_eta.shape[1] != 2:
        raise DimensionMismatchError(f"log_eta must be T x 2, got {log_eta.shape}")
    if t_len > MAX_ENUM_T:
        raise TooLongError(f"T={t_len} > {MAX_ENUM_T}: enumeration would need 2^T paths")

    with np.errstate(divide="ignore"):
        log_p = np.log(trans.p)
        log_prior1 = np.log(trans.p.T @ xi0.values)  # prior of s_1, marginal over s_0

    # paths[m, t] in {0, 1} is the state index at period t of path m
    n_paths = 2**t_len
    paths = (np.arange(n_paths)[:, None] >> np.arange(t_len)[None, :]) & 1

    logw = log_prior1[paths[:, 0]] + log_eta[np.arange(t_len)[None, :], paths].sum(axis=1)
    if t_len > 1:
        logw = logw + log_p[paths[:, :-1], paths[:, 1:]].sum(axis=1)

    # max-shifted log-sum-exp; if every path is impossible (top = -inf) the
    # shift is skipped and loglik is -inf
    top = logw.max()
    loglik = float(top)
    if np.isfinite(top):
        loglik += float(np.log(np.exp(logw - top).sum()))
    with np.errstate(invalid="ignore"):
        weights = np.exp(logw - loglik)

    smoothed = np.empty((t_len, 2))
    for t in range(t_len):
        smoothed[t, 1] = weights[paths[:, t] == 1].sum()
        smoothed[t, 0] = weights[paths[:, t] == 0].sum()

    cross = np.zeros((t_len, 4))
    # columns ordered (s_t, s_{t-1}) = (1,1), (2,1), (1,2), (2,2)
    col_of = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    for t in range(1, t_len):
        for (j, i), col in col_of.items():
            mask = (paths[:, t] == j) & (paths[:, t - 1] == i)
            cross[t, col] = weights[mask].sum()
    # t = 1 row: split the prior of s_1 back over s_0. Given s_1 = j the
    # posterior of s_0 is xi0_i p_ij / (P' xi0)_j, independent of the data.
    prior1 = trans.p.T @ xi0.values
    for (j, i), col in col_of.items():
        if prior1[j] > 0.0:
            cross[0, col] = smoothed[0, j] * xi0.values[i] * trans.p[i, j] / prior1[j]
    return loglik, smoothed, cross


def random_instance(rng: np.random.Generator):
    """One random small estimation problem for the equivalence suite.

    Returns (log_eta, trans, xi0) with N in 1..4, T in 2..8 and parameters
    drawn to keep every probability safely inside (0, 1).
    """
    from .filtering import regime_log_densities
    from .types import ModelParams, Panel, validate_panel

    n = int(rng.integers(1, 5))
    t_len = int(rng.integers(2, 9))
    k = int(rng.integers(1, 4))
    g = rng.standard_normal((t_len, k))
    params = ModelParams(
        b1=rng.standard_normal((n, k)),
        b2=rng.standard_normal((n, k)),
        sigma_e1_diag=rng.uniform(0.5, 2.0, size=n),
        sigma_e2_diag=rng.uniform(0.5, 2.0, size=n),
        trans=TransitionMatrix(
            np.array(
                [
                    [p := rng.uniform(0.05, 0.95), 1.0 - p],
                    [1.0 - (q := rng.uniform(0.05, 0.95)), q],
                ]
            )
        ),
    )
    x = g @ params.b1.T + rng.standard_normal((t_len, n))
    if n == 1:
        # validate_panel requires N >= 2; bypass it for the 1-series cases
        # of the equivalence suite, where finiteness is all that matters.
        panel = Panel(data=x)
    else:
        panel = validate_panel(x)
    u = rng.uniform(0.05, 0.95)
    xi0 = StateProbabilities(np.array([u, 1.0 - u]))
    log_eta = regime_log_densities(panel, g, params)
    return log_eta, params.trans, xi0


def equivalence_suite(instances: int = 200, seed: int = 0) -> dict[str, float]:
    """Max absolute deviations between the recursions and the enumerator.

    Runs ``instances`` (>= 1) random problems and compares filter
    log-likelihood, smoothed marginals and cross-probabilities against
    :func:`enumerate_posterior`.
    """
    from .filtering import filter_smoother_pass

    instances = as_integer("instances", instances)
    if instances < 1:
        raise InvalidArgumentError(f"instances must be >= 1, got {instances}")
    RngHandle(seed=seed)  # one seed range for the package: unsigned 64-bit
    rng = np.random.default_rng(seed)
    dev = {"loglik": 0.0, "smoothed": 0.0, "cross": 0.0}
    for _ in range(instances):
        log_eta, trans, xi0 = random_instance(rng)
        path = filter_smoother_pass(log_eta, trans, xi0)
        loglik, smoothed, cross = enumerate_posterior(log_eta, trans, xi0)
        dev["loglik"] = max(dev["loglik"], abs(path.loglik - loglik))
        dev["smoothed"] = max(dev["smoothed"], float(np.abs(path.smoothed - smoothed).max()))
        dev["cross"] = max(dev["cross"], float(np.abs(path.cross - cross).max()))
    return dev
