"""Data-generating process for the Monte Carlo study.

Generates a two-state latent chain, AR(1) factors whitened to an exact
identity second moment, N(1,1) loadings rotated to diagonal Gram matrices,
and AR(1) idiosyncratic noise mixed through per-regime covariance square
roots, then rescales the noise to a target noise-to-signal ratio.

The roots are the symmetric ones, (v * sqrt(w)) v' from ``eigh``'s
eigenpairs, and every route to them gives ``eigh``'s bits. Each covariance
is carried as its structure, a :class:`BandedCovariance`, and is made
dense only where an eigensolver needs it:

- a diagonal covariance (tau = 0) needs no eigensolver and no N x N array;
- when tau > 0, regime 1's covariance is tridiagonal and goes from its two
  diagonals to LAPACK's tridiagonal solver through
  :func:`msfactor.blas.tridiagonal_eigh`, a fifth of ``eigh``'s time at
  N = 600;
- regime 2's is pentadiagonal. It is made dense after regime 1's root is
  gone, and :func:`msfactor.blas.eigh_in_place` writes its eigenvectors
  over it, so at most one N x N covariance and its root's two temporaries
  are live at once.

:class:`~msfactor.types.SimConfig` validates every knob once; the helpers
below trust the values it passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import eigh_in_place, tridiagonal_eigh
from .exceptions import (
    NotPositiveDefiniteError,
    RankDeficientError,
    ZeroSignalError,
)
from .types import (
    Panel,
    RngHandle,
    SimConfig,
    TransitionMatrix,
    check_instance,
    unconditional_probs,
    validate_panel,
)


@dataclass(frozen=True, eq=False)
class SimTruth:
    """A simulated panel together with everything latent that produced it."""

    panel: Panel
    states: np.ndarray       # (T,) values in {1, 2}
    xi: np.ndarray           # (T, 2) one-hot
    f: np.ndarray            # (T, r)
    lambda1: np.ndarray      # (N, r)
    lambda2: np.ndarray      # (N, r)
    chi: np.ndarray          # (T, N) common component
    e: np.ndarray            # (T, N) rescaled idiosyncratic component

    @property
    def b1(self) -> np.ndarray:
        """Regime-1 loadings on the stacked factor vector: [lambda1  0]."""
        return np.hstack([self.lambda1, np.zeros_like(self.lambda2)])

    @property
    def b2(self) -> np.ndarray:
        """Regime-2 loadings on the stacked factor vector: [0  lambda2]."""
        return np.hstack([np.zeros_like(self.lambda1), self.lambda2])


def simulate_chain(
    p11: float, p22: float, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the latent two-state chain.

    The initial state is drawn from the stationary distribution; each later
    step draws u ~ U[0,1] and stays/switches according to the transition
    row of the current state. Returns ``(states, xi)`` with states in
    {1, 2} and xi the one-hot T x 2 indicator matrix.
    """
    trans = TransitionMatrix(np.array([[p11, 1.0 - p11], [1.0 - p22, p22]]))
    stat1 = unconditional_probs(trans).values[0]
    p21 = 1.0 - p22
    u = rng.uniform(0.0, 1.0, size=t).tolist()
    # Python scalars in the loop: a numpy element access per period costs
    # more than the comparison it feeds
    state = 1 if u[0] <= stat1 else 2
    path = [state]
    for draw in u[1:]:
        state = 1 if draw <= (p11 if state == 1 else p21) else 2
        path.append(state)
    states = np.array(path, dtype=np.int64)
    xi = np.zeros((t, 2))
    xi[np.arange(t), states - 1] = 1.0
    return states, xi


def simulate_factors(
    t: int, r: int, rho_f: float, rng: np.random.Generator
) -> np.ndarray:
    """AR(1) factors whitened so the sample second moment is exactly I_r.

    Each column follows f_t = rho_f f_{t-1} + z_t with standard normal
    innovations and a stationary start, then the whole T x r matrix is
    post-multiplied by the symmetric inverse square root of F'F / T.
    """
    if t < r:
        raise RankDeficientError(f"cannot whiten {r} factors from T={t} observations")
    z = rng.standard_normal((t, r))
    # one column at a time on Python floats: the same IEEE operations as a
    # row loop over numpy vectors, at a fraction of the per-period overhead
    stationary = math.sqrt(1.0 - rho_f**2)
    columns = []
    for innovations in z.T.tolist():
        prev = innovations[0] / stationary
        column = [prev]
        for shock in innovations[1:]:
            prev = rho_f * prev + shock
            column.append(prev)
        columns.append(column)
    f = np.column_stack(columns)
    second_moment = f.T @ f / t
    w, v = np.linalg.eigh(second_moment)
    if w.min() <= 0.0:
        raise RankDeficientError("factor draw is rank deficient, cannot whiten")
    inv_root = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return f @ inv_root


def simulate_loadings(
    n: int, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-regime N x r loadings with diagonal Gram matrices.

    Entries are drawn i.i.d. N(1, 1); each matrix is then rotated by the
    eigenvectors of its own Gram matrix so that lambda' lambda is diagonal.
    """
    out = []
    for _ in range(2):
        raw = rng.normal(1.0, 1.0, size=(n, r))
        _, vecs = np.linalg.eigh(raw.T @ raw)
        out.append(raw @ vecs[:, ::-1])  # descending eigenvalue order
    return out[0], out[1]


@dataclass(frozen=True, eq=False)
class BandedCovariance:
    """A symmetric N x N covariance kept as its structure: ``diagonal`` on
    the main diagonal, ``band[d - 1]`` on every entry of diagonal offset d,
    and zeros beyond the band."""

    diagonal: np.ndarray
    band: tuple[float, ...] = ()

    def dense(self) -> np.ndarray:
        """The N x N matrix, exactly symmetric."""
        n = self.diagonal.shape[0]
        m = np.zeros((n, n))
        rows = np.arange(n)
        m[rows, rows] = self.diagonal
        for offset, value in enumerate(self.band, start=1):
            m[rows[:-offset], rows[offset:]] = value
            m[rows[offset:], rows[:-offset]] = value
        return m


def build_idio_covariances(
    n: int, tau: float, rng: np.random.Generator
) -> tuple[BandedCovariance, BandedCovariance]:
    """Per-regime idiosyncratic covariances: diagonal plus banded Toeplitz.

    The diagonal parts draw U[0.25, 1.25] (regime 1) and U[0.75, 1.75]
    (regime 2). The banded parts put tau^k on the kth diagonal for k = 1, 2
    (regime 1) and tau^(k-1) for k = 1, 2, 3 (regime 2), counting the main
    diagonal as k = 1; with tau = 0 both banded parts are identically zero
    so the idiosyncratic covariance is purely diagonal. So regime 1's
    covariance is tridiagonal and regime 2's pentadiagonal when tau > 0.

    Nothing is checked here: :func:`simulate_idiosyncratic` raises
    :class:`NotPositiveDefiniteError` when it takes the square root of a
    matrix with an eigenvalue <= 0 (possible for tau near 1).
    """
    diag1 = rng.uniform(0.25, 1.25, size=n)
    diag2 = rng.uniform(0.75, 1.75, size=n)
    if tau == 0.0:
        return BandedCovariance(diag1), BandedCovariance(diag2)
    return (
        BandedCovariance(diag1 + tau, (tau**2,)),
        BandedCovariance(diag2 + 1.0, (tau, tau**2)),
    )


def _mix(nu: np.ndarray, sigma: BandedCovariance, regime: int) -> np.ndarray:
    """Rows of ``nu`` times the symmetric PSD square root of ``sigma``.

    The eigenpairs (w, v) behind the root (v * sqrt(w)) v' come from the
    cheapest source that gives ``eigh``'s bits, chosen by the band:

    - a diagonal ``sigma`` (every design with tau = 0) has root
      diag(sqrt(sigma_ii)), so mixing is an elementwise product and no
      N x N array is made;
    - a tridiagonal one (regime 1 when tau > 0) takes
      :func:`~msfactor.blas.tridiagonal_eigh` on its diagonal and
      subdiagonal, ~11 ms against ``eigh``'s ~50-60 ms at 600 x 600 on one
      thread, and is never made dense;
    - a wider band (regime 2, pentadiagonal when tau > 0) is made dense
      here and :func:`~msfactor.blas.eigh_in_place` writes the eigenvectors
      over it;
    - where a binding returns None, ``np.linalg.eigh`` takes ``sigma``
      made dense.

    Only this call's N x N arrays are live, so the caller can take one
    regime's root after the other. Raises :class:`NotPositiveDefiniteError`
    naming ``regime`` when an eigenvalue is <= 0.
    """
    if not sigma.band:
        eigenpairs = sigma.diagonal, None
    elif len(sigma.band) == 1:
        sub = np.full(sigma.diagonal.size - 1, sigma.band[0])
        eigenpairs = tridiagonal_eigh(sigma.diagonal, sub)
    else:
        eigenpairs = eigh_in_place(sigma.dense())
    w, v = eigenpairs if eigenpairs is not None else np.linalg.eigh(sigma.dense())
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(
            f"regime-{regime} idiosyncratic covariance has eigenvalue "
            f"{w.min():.3e} <= 0"
        )
    if v is None:
        return nu * np.sqrt(w)
    return nu @ ((v * np.sqrt(w)) @ v.T)


def simulate_idiosyncratic(
    sigma_e1: BandedCovariance,
    sigma_e2: BandedCovariance,
    states: np.ndarray,
    rho_idio_max: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Idiosyncratic component e_t = Sigma_{e,s_t}^(1/2) nu_t.

    Each series i has its own AR(1) innovation process
    nu_it = rho_i nu_{i,t-1} + w_it with rho_i ~ U[0, rho_idio_max] (all
    zero when the bound is 0). Every nu column is scaled to unit sample
    variance before mixing, so the covariance matrices alone control the
    idiosyncratic scale. Mixing uses the symmetric PSD square roots, each
    applied only to the periods of its regime (state 1, and every other
    state value for regime 2), regime 1's first: its root is gone before
    regime 2's covariance is made. A covariance with an eigenvalue <= 0
    raises :class:`NotPositiveDefiniteError` naming its regime.
    """
    states = np.asarray(states)
    t_len = states.shape[0]
    n = sigma_e1.diagonal.shape[0]
    rho = rng.uniform(0.0, rho_idio_max, size=n)  # drawn either way: keeps the stream
    w = rng.standard_normal((t_len, n))
    if rho_idio_max == 0.0:
        nu = w  # rho = 0: the recursion returns w unchanged
    else:
        nu = np.empty((t_len, n))
        nu[0] = w[0] / np.sqrt(1.0 - rho**2)
        for s in range(1, t_len):
            nu[s] = rho * nu[s - 1] + w[s]
    del w
    sd = nu.std(axis=0)
    sd[sd == 0.0] = 1.0
    nu /= sd
    in_one = states == 1
    e = nu  # mixed in place: the two regimes take disjoint rows
    e[in_one] = _mix(nu[in_one], sigma_e1, regime=1)
    e[~in_one] = _mix(nu[~in_one], sigma_e2, regime=2)
    return e


def simulate_panel(cfg: SimConfig, rng: RngHandle) -> SimTruth:
    """Generate one full panel according to the Monte Carlo design.

    Composes chain, factors, loadings and idiosyncratic draws, then scales
    the noise by the closed-form constant that sets the average
    noise-to-signal ratio N^-1 sum_i (sum_t e_it^2 / sum_t chi_it^2)
    exactly to ``cfg.noise_to_signal``.
    """
    check_instance("cfg", cfg, SimConfig)
    check_instance("rng", rng, RngHandle)
    gen = rng.generator()
    states, xi = simulate_chain(cfg.p11, cfg.p22, cfg.t, gen)
    f = simulate_factors(cfg.t, cfg.r, cfg.rho_f, gen)
    lambda1, lambda2 = simulate_loadings(cfg.n, cfg.r, gen)
    sigma_e1, sigma_e2 = build_idio_covariances(cfg.n, cfg.tau, gen)
    try:
        e_raw = simulate_idiosyncratic(sigma_e1, sigma_e2, states, cfg.rho_idio_max, gen)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"{exc} (tau={cfg.tau})") from exc

    chi = np.where((states == 1)[:, None], f @ lambda1.T, f @ lambda2.T)

    chi_ss = (chi**2).sum(axis=0)
    if (chi_ss == 0.0).any():
        raise ZeroSignalError("a series has an identically zero common component")
    realised = ((e_raw**2).sum(axis=0) / chi_ss).mean()
    e = e_raw * np.sqrt(cfg.noise_to_signal / realised)

    panel = validate_panel(chi + e)
    return SimTruth(
        panel=panel,
        states=states,
        xi=xi,
        f=f,
        lambda1=lambda1,
        lambda2=lambda2,
        chi=chi,
        e=e,
    )
