"""Principal-component estimation of the equivalent linear factor model
and eigenvalue-ratio selection of the factor count.

The covariance here is the uncentred second-moment matrix with divisor T;
removing unconditional means is a separate, explicit preprocessing step
(:func:`demean_panel`), never applied implicitly. Both estimators read
the spectrum of the smaller of X'X/T (N x N) and the Gram XX'/T (T x T),
which share their nonzero eigenvalues, so a panel with N > T costs one
T x T eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from .blas import one_blas_thread
from .exceptions import KTooLargeError, NonFiniteError, RankDeficientError, SecondMomentOverflowError
from .types import FactorSpace, Panel, as_integer, check_instance, validate_panel

#: Eigenvalues below this fraction of the largest one are treated as zero
#: by the eigenvalue-ratio criterion.
EIGENVALUE_FLOOR_RATIO = 1e-12


def demean_panel(panel: Panel) -> Panel:
    """Subtract each column's sample mean; columns end up mean-zero.

    Raises :class:`NonFiniteError` where a column mean or a demeaned entry
    overflows the largest double.
    """
    check_instance("panel", panel, Panel)
    with np.errstate(over="ignore", invalid="ignore"):
        data = panel.data - panel.data.mean(axis=0)
    try:
        return validate_panel(data)
    except NonFiniteError as err:
        raise NonFiniteError(
            err.row, err.col, f"demeaning overflows the largest double at row {err.row}, "
            f"col {err.col}; rescale the data"
        ) from None


def _spectrum(panel: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenpairs of X'X/T when N <= T, else of the Gram XX'/T.

    An eigenvector u of the Gram maps to the eigenvector X'u of X'X/T with
    the same eigenvalue. Exact ties keep ascending-index order. Computed
    once per panel (so ``--k auto`` decomposes once); both arrays are
    read-only. Raises :class:`SecondMomentOverflowError` when that matrix
    overflows and :class:`RankDeficientError` when it underflows to all
    zeros for a nonzero panel, both before it is decomposed.
    """

    def decompose():
        x = panel.data
        narrow = x if panel.n_len <= panel.t_len else x.T
        with np.errstate(over="ignore", invalid="ignore"):
            m = narrow.T @ narrow / panel.t_len
            second_moment = (m + m.T) / 2.0
        if not np.isfinite(second_moment).all():
            raise SecondMomentOverflowError(
                f"the panel's second moments overflow the largest double (largest |entry| "
                f"{np.abs(panel.data).max():.3e}); rescale the data"
            )
        if not second_moment.any() and panel.data.any():
            raise RankDeficientError(
                f"the panel's second moments underflow to 0 (largest |entry| "
                f"{np.abs(panel.data).max():.3e}); rescale the data"
            )
        vals, vecs = np.linalg.eigh(second_moment)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    return panel.memo("spectrum", decompose)


@one_blas_thread()
def estimate_factor_space(panel: Panel, k: int) -> FactorSpace:
    """PCA loadings, factors and eigenvalues for a k-factor linear model.

    Loadings are sqrt(N) times the top-k eigenvectors of the sample
    covariance (so a_hat' a_hat / N = I_k); factors are the projections
    g_t = a_hat' x_t / N. When N > T the eigenvectors come from the T x T
    Gram: a_hat = sqrt(N) X'u / ||X'u|| for its top-k eigenvectors u. Each
    eigenvector's sign is fixed so its largest-magnitude entry is positive.
    Raises :class:`RankDeficientError` when the kth eigenvalue is at most
    1e-12 times the largest: k exceeds the panel's numerical rank or, when
    that eigenvalue still tops eigh's rounding error, its dynamic range.
    """
    check_instance("panel", panel, Panel)
    k = as_integer("k", k)
    n, t_len = panel.n_len, panel.t_len
    if not (1 <= k <= min(n, t_len)):
        raise KTooLargeError(f"k={k} outside [1, min(N, T)] = [1, {min(n, t_len)}]")
    vals, vecs = _spectrum(panel)
    if vals[k - 1] <= EIGENVALUE_FLOOR_RATIO * max(vals[0], 0.0):
        if vals[k - 1] > len(vals) * np.finfo(float).eps * vals[0]:  # eigh's error
            raise RankDeficientError(
                f"k={k} is beyond the panel's dynamic range: eigenvalue {k} is "
                f"{vals[k - 1]:.3e}, above rounding error but below {EIGENVALUE_FLOOR_RATIO:g} "
                f"of the largest ({vals[0]:.3e}); an extreme entry or series can cause this"
            )
        raise RankDeficientError(
            f"k={k} exceeds the numerical rank of the panel: eigenvalue {k} "
            f"is {vals[k - 1]:.3e} against a largest of {vals[0]:.3e}"
        )
    if n > t_len:
        vecs = panel.data.T @ vecs[:, :k]
        vecs /= np.linalg.norm(vecs, axis=0)
    else:
        vecs = vecs[:, :k].copy()
    for col in range(k):
        peak = np.argmax(np.abs(vecs[:, col]))
        if vecs[peak, col] < 0:
            vecs[:, col] = -vecs[:, col]
    a_hat = np.sqrt(n) * vecs
    g_hat = panel.data @ a_hat / n
    return FactorSpace(a_hat=a_hat, g_hat=g_hat, eigvals=vals[:k])


@one_blas_thread()
def select_num_factors_er(panel: Panel, k_max: int) -> int:
    """Eigenvalue-ratio choice of the factor count.

    Returns the k in 1..k_max maximising mu_k / mu_{k+1} over the
    descending eigenvalues of the sample covariance (read from the T x T
    Gram when N > T), ties broken toward the smallest k. Eigenvalues below
    1e-12 of the largest count as zero; a zero denominator under a nonzero
    numerator wins outright.
    """
    check_instance("panel", panel, Panel)
    k_max = as_integer("k_max", k_max)
    n, t_len = panel.n_len, panel.t_len
    if k_max < 1 or k_max + 1 > min(n, t_len):
        raise KTooLargeError(
            f"k_max={k_max} needs 1 <= k_max <= min(N, T) - 1 = {min(n, t_len) - 1}"
        )
    vals, _ = _spectrum(panel)
    mu = vals[: k_max + 1].copy()
    floor = EIGENVALUE_FLOOR_RATIO * max(mu[0], 0.0)
    mu[mu < floor] = 0.0
    ratios = np.empty(k_max)
    for k in range(1, k_max + 1):
        num, den = mu[k - 1], mu[k]
        if den > 0.0:
            ratios[k - 1] = num / den
        else:
            ratios[k - 1] = np.inf if num > 0.0 else 0.0
    return int(np.argmax(ratios)) + 1
