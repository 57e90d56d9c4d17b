"""Regime-probability recursions: Hamilton forward filter, Kim backward
smoother and smoothed cross-probabilities.

The regime-conditional Gaussian densities underflow in linear scale once N
reaches a few hundred. The filter therefore shifts each period's log
densities by their maximum before exponentiating, which leaves the larger
relative density at exactly 1, and runs the scaled forward recursion
(Rabiner 1989) on those O(1) values; the shifts return in the log
likelihood. Every probability the smoother then sees is O(1) too.

:func:`regime_log_densities` and the variance M step read the panel only
through the least-squares fit of :func:`anchor_fit`, computed once per
panel and factor matrix, and expand their residual sums around it in one
kernel, :func:`_residual_sums`, with one cancellation guard.

One E step is one forward-backward pass, and there is one implementation
of it: :func:`hamilton_filter` -> :func:`kim_smoother` ->
:func:`smoothed_cross_probs`, from T x 2 arrays to a T x 2 x 2 cross. Each
recursion runs in Python floats and records only what the next stage
needs; the filter's loop keeps the predictions alone, and its filtered
rows, scale factors, log likelihood and degenerate-prediction test
follow on whole arrays.
:func:`filter_smoother_pass` runs the chain and returns its plain arrays;
a checked path is ``ProbabilityPath(*filter_smoother_pass(...))``.
A ``trans`` that is not a :class:`~msfactor.types.TransitionMatrix`, an
``xi0`` that is not a :class:`~msfactor.types.StateProbabilities`, a
``panel`` that is not a :class:`~msfactor.types.Panel` or ``params`` that
are not :class:`~msfactor.types.ModelParams` raise
:class:`~msfactor.exceptions.InvalidArgumentError`.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegeneratePredictionError, NonFiniteError, ZeroPredictedError
from .types import (
    ModelParams,
    Panel,
    StateProbabilities,
    TransitionMatrix,
    as_periods,
    as_shaped,
    check_finite,
    check_instance,
)

_LOG_2PI = float(np.log(2.0 * np.pi))
_PRED_GUARD = 1e-300


def anchor_fit(panel: Panel, g_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fit of the panel on fixed factors, the anchor of the
    expanded EM kernels.

    Returns the N x k loadings a0 of the regression of x on g, the T x N
    residual z = x - g a0' and its elementwise square z*z. The
    pseudo-inverse of g gives the minimum-norm a0, so a rank-deficient g
    (an all-zero column, say) is fine; for PCA factors a0 equals a_hat.
    Computed once per (panel, g) and remembered on the panel under g's
    shape and bytes, read-only, so each distinct g adds 2 T N floats to
    the panel. Raises :class:`DimensionMismatchError` unless g is a matrix
    with the panel's T rows, and :class:`NonFiniteError` at its first
    non-finite entry, before anything is remembered.
    """
    check_instance("panel", panel, Panel)
    (g,) = as_shaped({"T": panel.t_len}, g_hat=(g_hat, ("T", "k")))

    def fit():
        check_finite("factor", g_hat=g)
        x = panel.data
        a0 = x.T @ np.linalg.pinv(g).T
        z = x - g @ a0.T
        zz = z * z
        for arr in (a0, z, zz):
            arr.setflags(write=False)
        return a0, z, zz

    return panel.memo(("anchor_fit", g.shape, g.tobytes()), fit)


def _residual_sums(
    z: np.ndarray, zz: np.ndarray, rows: tuple, cols: tuple, weights: np.ndarray
) -> np.ndarray:
    """Entry (r, j) is sum_c w_cj (z_rc - a_jr' b_jc)^2 for the R x C anchor
    residual z, rows a_j = ``rows[j]``, columns b_j = ``cols[j]`` and the
    C x 2 ``weights`` w. With G_j = b_j' diag(w_j) b_j it is expanded as

        (z*z) w_j - 2 a_jr' (z (w_j b_j))_r + a_jr' G_j a_jr

    from one product over z*z and one over z for both regimes, so no R x C
    residual is built. Anchored at a fit, the terms stay on the scale of z
    (around x they would cancel catastrophically), but they still cancel
    where a regime fits far better than the anchor. They are bounded by
    ((z*z) w_j)_r + |a_jr|^2 tr(G_j); an entry whose bound tops 1e5 times
    its value, so that rounding could pass ~1e-11 of it, is summed from its
    residual directly. The guard is relative, so unit-free in either
    orientation, and compares 1e-5 times the bound, so that an entry near
    the top of the float range does not overflow the test.
    """
    k = cols[0].shape[1]
    scaled = [cols[j] * weights[:, j : j + 1] for j in range(2)]
    squares = zz @ weights
    products = z @ np.hstack(scaled)
    out = np.empty((z.shape[0], 2))
    for j in range(2):
        a = rows[j]
        gram = cols[j].T @ scaled[j]
        q = (
            squares[:, j]
            - 2.0 * np.einsum("rk,rk->r", a, products[:, j * k : (j + 1) * k])
            + np.einsum("rk,rk->r", a @ gram, a)
        )
        bound = squares[:, j] + gram.trace() * np.einsum("rk,rk->r", a, a)
        exposed = np.flatnonzero(1e-5 * bound > q)
        if exposed.size:
            resid = z[exposed] - a[exposed] @ cols[j].T
            q[exposed] = (resid * resid) @ weights[:, j]
        out[:, j] = q
    return out


def regime_log_densities(
    panel: Panel, g_hat: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Log density of each observation under each regime.

    Entry (t, j) is log f(x_t | s_t = j+1, g_t) for the diagonal Gaussian

        -(N/2) log(2 pi) - 1/2 sum_i log s2_ji
        - 1/2 sum_i (x_it - b_ji' g_t)^2 / s2_ji.

    The (2 pi)^(-N/2) constant cancels in the filter but keeps log
    likelihoods comparable across panel widths.

    With z and a0 from :func:`anchor_fit` and d_j = b_j - a0, the quadratic
    form is sum_i (z_it - g_t' d_ji)^2 / s2_ji, from :func:`_residual_sums`.
    """
    check_instance("panel", panel, Panel)
    check_instance("params", params, ModelParams)
    g, _ = as_shaped(
        {"T": panel.t_len, "N": panel.n_len}, g_hat=(g_hat, ("T", "k")), b1=(params.b1, ("N", "k"))
    )
    a0, z, zz = anchor_fit(panel, g)
    n = panel.n_len
    s2 = (params.sigma_e1_diag, params.sigma_e2_diag)
    # an overflow surfaces once, as the NonFiniteError below
    with np.errstate(over="ignore", invalid="ignore"):
        inv_s2 = np.column_stack([1.0 / s2[0], 1.0 / s2[1]])
        q = _residual_sums(z, zz, (g, g), (params.b1 - a0, params.b2 - a0), inv_s2)
        log_dets = np.array([np.log(s2[0]).sum(), np.log(s2[1]).sum()])
        out = -0.5 * n * _LOG_2PI - 0.5 * log_dets - 0.5 * q
    if not np.isfinite(out).all():
        t, j = np.argwhere(~np.isfinite(out))[0]
        raise NonFiniteError(int(t), int(j), "non-finite regime log density")
    return out


def _rows(flat: list[float]) -> np.ndarray:
    """T x 2 array from a flat list [x_{1,0}, x_{2,0}, x_{1,1}, x_{2,1}, ...]."""
    return np.array(flat, dtype=float).reshape(-1, 2)


def _unbounded_row(log_eta: np.ndarray, t: int) -> NonFiniteError:
    """The error for row t of the T x 2 ``log_eta``, which holds a NaN or
    +inf entry or two -inf ones, at its NaN or +inf entry, else column 0."""
    j = int(not log_eta[t, 1] < np.inf)
    return NonFiniteError(t, j, f"log_eta row {t} has no finite maximum: {log_eta[t].tolist()}")


def hamilton_filter(
    log_eta: np.ndarray,
    trans: TransitionMatrix,
    xi0: StateProbabilities,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Forward recursion for predicted and filtered regime probabilities.

    With top_t = max_j log eta_{jt} and the relative densities
    e_{jt} = exp(log eta_{jt} - top_t), of which the larger is exactly 1,
    it starts from xi_{0|0} = ``xi0`` and alternates the prediction step
    xi_{t|t-1} = P' xi_{t-1|t-1} with the scaled Bayes update

        num_j = e_{jt} xi_{j,t|t-1},  c_t = num_1 + num_2,  xi_{t|t} = num / c_t.

    Returns (predicted, filtered, loglik) with

        loglik = sum_t top_t + sum_t log c_t = sum_t log(eta_t' xi_{t|t-1}).

    Raises :class:`NonFiniteError` at the first row with no finite maximum,
    and :class:`DegeneratePredictionError` at the first t where a state's
    predicted probability is exactly 0 while its density dominates.
    """
    (log_eta,) = as_periods(log_eta)
    check_instance("trans", trans, TransitionMatrix)
    check_instance("xi0", xi0, StateProbabilities)
    top = np.maximum(log_eta[:, 0], log_eta[:, 1])
    if not np.isfinite(top).all():
        raise _unbounded_row(log_eta, int(np.argmin(np.isfinite(top))))
    eta = np.exp(log_eta - top[:, None])
    # Python float arithmetic in the loop: IEEE addition is commutative, so
    # writing each two-term sum explicitly makes swapping the regime labels
    # swap the outputs bitwise, which matrix kernels do not guarantee. The
    # loop carries the recursion and keeps only the predictions; the update
    # is redone below on whole arrays with the same operations, so the same
    # bits.
    p11, p12 = float(trans.p[0, 0]), float(trans.p[0, 1])
    p21, p22 = float(trans.p[1, 0]), float(trans.p[1, 1])
    pred = []
    add = pred.append
    cur1, cur2 = float(xi0.values[0]), float(xi0.values[1])
    flat = iter(eta.ravel().tolist())
    try:
        for eta1, eta2 in zip(flat, flat):
            pred1 = p11 * cur1 + p21 * cur2
            pred2 = p12 * cur1 + p22 * cur2
            add(pred1)
            add(pred2)
            num1 = eta1 * pred1
            num2 = eta2 * pred2
            norm = num1 + num2
            cur1 = num1 / norm
            cur2 = num2 / norm
    except ZeroDivisionError:
        # c_t = 0 only where the state with e_jt = 1 was predicted at 0, so
        # the test below raises at this row or before it
        pass
    predicted = _rows(pred)
    rows = predicted.shape[0]
    dead = (predicted == 0.0) & (log_eta[:rows] >= log_eta[:rows, ::-1])
    if dead.any():
        t, j = map(int, np.argwhere(dead)[0])
        raise DegeneratePredictionError(
            f"predicted probability of state {j + 1} underflowed "
            f"to 0 at t={t} while its density dominates"
        )
    num = eta * predicted
    scale = num[:, 0] + num[:, 1]
    filtered = num / scale[:, None]
    loglik = top.sum() + np.log(scale).sum()
    return predicted, filtered, float(loglik)


def _check_rows(first_row: int, **rows: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` at the first non-finite entry (t, j)
    of the T x 2 ``rows``, taken in order, and :class:`ZeroPredictedError`
    at the first t >= ``first_row`` whose predicted probabilities, which
    the smoother divides by, fall below 1e-300."""
    check_finite("state", **rows)
    predicted = rows["predicted"]
    low = np.flatnonzero((predicted[first_row:] < _PRED_GUARD).any(axis=1))
    if low.size:
        raise ZeroPredictedError(
            f"predicted probability below {_PRED_GUARD:g} at t={first_row + int(low[0])}"
        )


def kim_smoother(
    predicted: np.ndarray, filtered: np.ndarray, trans: TransitionMatrix
) -> np.ndarray:
    """Backward recursion for full-sample smoothed probabilities.

    xi_{T|T} = xi_{T|T} (filter output), then for t = T-1, ..., 1

        xi_{t|T} = [P (xi_{t+1|T} / xi_{t+1|t})] * xi_{t|t}.

    Raises :class:`NonFiniteError` for a non-finite input and
    :class:`ZeroPredictedError` when a predicted probability that must be
    divided by is below 1e-300.
    """
    predicted, filtered = as_periods(predicted, filtered)
    check_instance("trans", trans, TransitionMatrix)
    _check_rows(1, predicted=predicted, filtered=filtered)
    # Python float arithmetic for bitwise label symmetry, as in the filter
    p11, p12 = float(trans.p[0, 0]), float(trans.p[0, 1])
    p21, p22 = float(trans.p[1, 0]), float(trans.p[1, 1])
    pred = predicted.ravel().tolist()
    filt = filtered.ravel().tolist()
    s1, s2 = filt[-2], filt[-1]
    smoothed = [s2, s1]  # built backwards, reversed at the end
    add = smoothed.append
    pred_back = iter(pred[:1:-1])  # q2, q1 for t = T-1, ..., 1
    filt_back = iter(filt[-3::-1])  # f2, f1 for t = T-2, ..., 0
    for q2, q1, f2, f1 in zip(pred_back, pred_back, filt_back, filt_back):
        ratio1 = s1 / q1
        ratio2 = s2 / q2
        s1 = (p11 * ratio1 + p12 * ratio2) * f1
        s2 = (p21 * ratio1 + p22 * ratio2) * f2
        add(s2)
        add(s1)
    smoothed.reverse()
    return _rows(smoothed)


def smoothed_cross_probs(
    predicted: np.ndarray,
    filtered: np.ndarray,
    smoothed: np.ndarray,
    trans: TransitionMatrix,
    xi0: StateProbabilities,
) -> np.ndarray:
    """Joint posterior of consecutive states, T x 2 x 2, indexed like the
    transition matrix: cross[t, i, j] = P(s_{t-1} = i+1, s_t = j+1 | data),

        cross[t, i, j] = p_ij (xi_{j,t|T} / xi_{j,t|t-1}) xi_{i,t-1|t-1}.

    Row 0 pairs s_1 with the pre-sample state s_0 ~ ``xi0`` through the
    same identity, so every period sums to 1 and summing over i reproduces
    the smoothed probabilities at every t. Raises as
    :func:`kim_smoother` does.
    """
    predicted, filtered, smoothed = as_periods(predicted, filtered, smoothed)
    check_instance("trans", trans, TransitionMatrix)
    check_instance("xi0", xi0, StateProbabilities)
    _check_rows(0, predicted=predicted, filtered=filtered, smoothed=smoothed)
    p = trans.p
    ratio = smoothed / predicted
    prev = np.concatenate([xi0.values[None], filtered[:-1]])
    cross = np.empty((len(predicted), 2, 2))
    cross[:, 0, 0] = p[0, 0] * ratio[:, 0] * prev[:, 0]
    cross[:, 0, 1] = p[0, 1] * ratio[:, 1] * prev[:, 0]
    cross[:, 1, 0] = p[1, 0] * ratio[:, 0] * prev[:, 1]
    cross[:, 1, 1] = p[1, 1] * ratio[:, 1] * prev[:, 1]
    return cross


def filter_smoother_pass(
    log_eta: np.ndarray, trans: TransitionMatrix, xi0: StateProbabilities
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """One full forward-backward pass, :func:`hamilton_filter` ->
    :func:`kim_smoother` -> :func:`smoothed_cross_probs`, as plain arrays:
    (predicted, filtered, smoothed, cross, loglik). A checked path is
    ``ProbabilityPath(*filter_smoother_pass(...))``."""
    predicted, filtered, loglik = hamilton_filter(log_eta, trans, xi0)
    smoothed = kim_smoother(predicted, filtered, trans)
    cross = smoothed_cross_probs(predicted, filtered, smoothed, trans, xi0)
    return predicted, filtered, smoothed, cross, loglik
