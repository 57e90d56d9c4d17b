"""Simulation-only evaluation quantities behind the Monte Carlo tables.

These compare estimates against the generating truth: the blend matrix
induced by imperfect state recovery, the bias-adjusted loading target and
its trace-R-squared, the probability-weighted fitted common component and
its relative MSE.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError, ZeroSignalError
from .types import check_gram


def regime_blend_matrix(
    smoothed_col: np.ndarray,
    in_regime: np.ndarray,
    g_hat: np.ndarray,
) -> np.ndarray:
    """Weighted Gram ratio measuring state-recovery quality for one regime.

        (sum_t w_t 1{s_t = j} g_t g_t') (sum_t w_t g_t g_t')^-1,

    with ``smoothed_col`` the regime's smoothed probabilities and
    ``in_regime`` the true indicator 1{s_t = j}. Perfect recovery gives the
    identity; total confusion gives 0, and the estimated loadings then
    target a blend of the two regimes' true loadings.
    """
    w = np.asarray(smoothed_col, dtype=float).reshape(-1)
    ind = np.asarray(in_regime, dtype=float).reshape(-1)
    g = np.asarray(g_hat, dtype=float)
    if w.shape[0] != g.shape[0] or ind.shape[0] != g.shape[0]:
        raise DimensionMismatchError("weights, indicator and factors must share T")
    denom = (g * w[:, None]).T @ g
    check_gram(denom, regime=0)
    numer = (g * (w * ind)[:, None]).T @ g
    return np.linalg.solve(denom.T, numer.T).T


def blended_loadings(
    b1_true: np.ndarray, b2_true: np.ndarray, blend: np.ndarray
) -> np.ndarray:
    """Bias-adjusted loading target b1 @ blend + b2 @ (I - blend)."""
    b1 = np.asarray(b1_true, dtype=float)
    b2 = np.asarray(b2_true, dtype=float)
    m = np.asarray(blend, dtype=float)
    if b1.shape != b2.shape or m.shape != (b1.shape[1], b1.shape[1]):
        raise DimensionMismatchError(
            f"incompatible shapes: {b1.shape}, {b2.shape}, {m.shape}"
        )
    return b1 @ m + b2 @ (np.eye(m.shape[0]) - m)


def trace_r2(b_hat: np.ndarray, b_target: np.ndarray) -> float:
    """Trace R-squared of projecting the target columns onto span(b_hat).

        tr{(B*' B) (B'B)^-1 (B' B*)} / tr(B*' B*),

    invariant to right-multiplication of ``b_hat`` by any invertible
    matrix, which makes it the right loading metric under rotational
    indeterminacy. Lies in [0, 1] up to roundoff.
    """
    b = np.asarray(b_hat, dtype=float)
    bs = np.asarray(b_target, dtype=float)
    if b.shape != bs.shape:
        raise DimensionMismatchError(f"shape mismatch: {b.shape} vs {bs.shape}")
    gram = b.T @ b
    check_gram(gram, regime=0)
    proj = bs.T @ b @ np.linalg.solve(gram, b.T @ bs)
    return float(np.trace(proj) / np.trace(bs.T @ bs))


def common_component_mse(chi_hat: np.ndarray, chi_true: np.ndarray) -> float:
    """Squared error of the common component relative to its total energy."""
    ch = np.asarray(chi_hat, dtype=float)
    ct = np.asarray(chi_true, dtype=float)
    if ch.shape != ct.shape:
        raise DimensionMismatchError(f"shape mismatch: {ch.shape} vs {ct.shape}")
    energy = (ct**2).sum()
    if energy == 0.0:
        raise ZeroSignalError("true common component is identically zero")
    diff = ch - ct
    diff *= diff
    return float(diff.sum() / energy)


def fitted_common_component(
    b1: np.ndarray, b2: np.ndarray, g_hat: np.ndarray, smoothed: np.ndarray
) -> np.ndarray:
    """Probability-weighted fit of the common component, T x N.

        chi_it = w_1t b_1i' g_t + w_2t b_2i' g_t.
    """
    g = np.asarray(g_hat, dtype=float)
    w = np.asarray(smoothed, dtype=float)
    chi = g @ np.asarray(b1, float).T
    chi *= w[:, [0]]
    second = g @ np.asarray(b2, float).T
    second *= w[:, [1]]
    chi += second
    return chi
