"""Exact brute-force posterior by state-path enumeration.

Reference implementation used to validate the filter, smoother and
cross-probabilities at desk scale, on random problems drawn as the log
densities the recursions read, some so far apart that a relative density
underflows to exactly 0. Never called by the estimation path.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidArgumentError, TooLongError
from .filtering import _unbounded_row, filter_smoother_pass
from .types import (
    RngHandle,
    StateProbabilities,
    TransitionMatrix,
    as_integer,
    as_periods,
    check_instance,
)

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
    cross : (T, 2, 2) array
        Pairwise posteriors cross[t, i, j] = P(s_{t-1} = i+1, s_t = j+1 | data),
        indexed like the transition matrix; row 0 pairs s_1 with s_0.

    Raises
    ------
    DimensionMismatchError
        Unless ``log_eta`` is T x 2 with T >= 1.
    NonFiniteError
        At the first row with a NaN or +inf entry, as the filter does; a
        row of two -inf densities is an impossible period, not an error.
    InvalidArgumentError
        Unless ``trans`` and ``xi0`` are chain types.
    TooLongError
        If T exceeds 16 (2^T paths).
    """
    (log_eta,) = as_periods(log_eta)
    check_instance("trans", trans, TransitionMatrix)
    check_instance("xi0", xi0, StateProbabilities)
    bounded = (log_eta < np.inf).all(axis=1)
    if not bounded.all():
        raise _unbounded_row(log_eta, int(np.argmin(bounded)))
    t_len = len(log_eta)
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

    smoothed = np.array([[weights[states == j].sum() for j in range(2)] for states in paths.T])

    cross = np.zeros((t_len, 2, 2))
    prior1 = trans.p.T @ xi0.values
    for i, j in np.ndindex(2, 2):
        for t in range(1, t_len):
            mask = (paths[:, t - 1] == i) & (paths[:, t] == j)
            cross[t, i, j] = weights[mask].sum()
        # row 0 splits the prior of s_1 back over s_0: given s_1 = j the
        # posterior of s_0 is xi0_i p_ij / (P' xi0)_j, independent of the data
        if prior1[j] > 0.0:
            cross[0, i, j] = smoothed[0, j] * xi0.values[i] * trans.p[i, j] / prior1[j]
    return loglik, smoothed, cross


def random_instance(rng: np.random.Generator):
    """One random small problem for the equivalence suite.

    Returns (log_eta, trans, xi0) with T in 2..8: the recursions read
    nothing else. Each row of the T x 2 log densities is a common offset
    split by a regime gap drawn log-uniform in [0.1, 1000], either regime
    on top, so gaps run from near-ties to past 745, where the smaller
    relative density underflows to exactly 0. Every transition and prior
    probability lies in [0.05, 0.95].
    """
    t_len = int(rng.integers(2, 9))
    half_gap = rng.choice([-0.5, 0.5], size=t_len) * 10.0 ** rng.uniform(-1.0, 3.0, size=t_len)
    log_eta = rng.uniform(-100.0, 100.0) + np.column_stack([half_gap, -half_gap])
    p, q, u = rng.uniform(0.05, 0.95, size=3)
    trans = TransitionMatrix(np.array([[p, 1.0 - p], [1.0 - q, q]]))
    return log_eta, trans, StateProbabilities(np.array([u, 1.0 - u]))


def equivalence_suite(instances: int = 200, seed: int = 0) -> dict[str, float]:
    """Max absolute deviations between the recursions and the enumerator.

    Runs ``instances`` (>= 1) random problems and compares filter
    log-likelihood, smoothed marginals and cross-probabilities against
    :func:`enumerate_posterior`.
    """
    instances = as_integer("instances", instances)
    if instances < 1:
        raise InvalidArgumentError(f"instances must be >= 1, got {instances}")
    RngHandle(seed=seed)  # one seed range for the package: unsigned 64-bit
    rng = np.random.default_rng(seed)
    dev = {"loglik": 0.0, "smoothed": 0.0, "cross": 0.0}
    for _ in range(instances):
        log_eta, trans, xi0 = random_instance(rng)
        _, _, smoothed, cross, loglik = filter_smoother_pass(log_eta, trans, xi0)
        want_loglik, want_smoothed, want_cross = enumerate_posterior(log_eta, trans, xi0)
        dev["loglik"] = max(dev["loglik"], abs(loglik - want_loglik))
        dev["smoothed"] = max(dev["smoothed"], float(np.abs(smoothed - want_smoothed).max()))
        dev["cross"] = max(dev["cross"], float(np.abs(cross - want_cross).max()))
    return dev
