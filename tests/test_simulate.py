import tracemalloc

import numpy as np
import pytest

from conftest import needs_openblas, on_blas_threads
from msfactor import blas, simulate
from msfactor.exceptions import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from msfactor.simulate import (
    BandedCovariance,
    SimConfig,
    build_idio_covariances,
    simulate_chain,
    simulate_factors,
    simulate_idiosyncratic,
    simulate_loadings,
    simulate_panel,
)
from msfactor.types import RngHandle


def _gen(seed=0):
    return RngHandle(seed=seed).generator()


class TestSimConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf], ids=["zero", "neg", "nan", "inf"])
    def test_noise_to_signal_must_be_finite_and_positive(self, value):
        with pytest.raises(InvalidArgumentError, match="noise_to_signal must be finite"):
            SimConfig(noise_to_signal=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["p11", "p22", "rho_f", "tau", "rho_idio_max"])
    def test_non_finite_coefficient_rejected(self, name, value):
        with pytest.raises(InvalidArgumentError, match=name):
            SimConfig(**{name: value})

    def test_covariance_no_array_can_hold_rejected(self):
        # the N x T panel fits an array; with tau > 0 the N x N covariance
        # does not, and the config rejects it before anything is allocated
        with pytest.raises(InvalidArgumentError, match="the N x N covariance would need"):
            SimConfig(n=2**31, t=2, tau=0.5)


class TestSimulateChain:
    def test_near_absorbing_chain_stays_put(self):
        states, _ = simulate_chain(0.999999, 0.999999, 10, _gen(3))
        assert (states == states[0]).all()

    def test_long_run_frequency_matches_stationary(self):
        # frequency-count oracle: stationary P(s=1) = 0.75 at p11=0.9, p22=0.7
        states, _ = simulate_chain(0.9, 0.7, 100_000, _gen(1))
        freq = (states == 1).mean()
        assert 0.74 <= freq <= 0.76

    def test_transition_counts_match_kernel(self):
        # transition-count oracle: row-normalised one-step counts approximate P
        states, _ = simulate_chain(0.9, 0.7, 100_000, _gen(2))
        prev, curr = states[:-1], states[1:]
        for i, row in [(1, (0.9, 0.1)), (2, (0.3, 0.7))]:
            mask = prev == i
            observed = np.array([(curr[mask] == 1).mean(), (curr[mask] == 2).mean()])
            assert np.abs(observed - row).max() < 0.01

    def test_one_hot_encoding(self):
        states, xi = simulate_chain(0.9, 0.7, 500, _gen(4))
        assert xi.shape == (500, 2)
        assert (xi.sum(axis=1) == 1.0).all()
        assert np.array_equal(xi[:, 0], (states == 1).astype(float))


class TestSimulateFactors:
    def test_exact_whitening(self):
        f = simulate_factors(500, 2, 0.0, _gen(0))
        assert np.abs(f.T @ f / 500 - np.eye(2)).max() < 1e-12

    def test_autocorrelation_preserved(self):
        # autocorrelation oracle: whitening a single column is a rescaling
        f = simulate_factors(500, 1, 0.7, _gen(1))[:, 0]
        autocorr = np.corrcoef(f[:-1], f[1:])[0, 1]
        assert 0.6 <= autocorr <= 0.8

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            simulate_factors(1, 2, 0.0, _gen(2))


class TestSimulateLoadings:
    def test_gram_is_diagonal(self):
        lam1, lam2 = simulate_loadings(100, 2, _gen(0))
        for lam in (lam1, lam2):
            gram = lam.T @ lam
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-8

    def test_single_factor_keeps_unit_mean(self):
        # Monte Carlo oracle: with r=1 the rotation is a sign flip, so the
        # column mean stays near +-1, the N(1,1) entry mean
        means = []
        gen = _gen(1)
        for _ in range(200):
            lam1, _ = simulate_loadings(100, 1, gen)
            means.append(abs(lam1.mean()))
        assert 0.9 <= np.mean(means) <= 1.1

    def test_square_case_allowed(self):
        lam1, _ = simulate_loadings(2, 2, _gen(2))
        gram = lam1.T @ lam1
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-8


class TestIdioCovariances:
    def test_tau_zero_is_diagonal_within_ranges(self):
        s1, s2 = build_idio_covariances(50, 0.0, _gen(0))
        assert s1.band == s2.band == ()
        for s, lo, hi in [(s1.dense(), 0.25, 1.25), (s2.dense(), 0.75, 1.75)]:
            assert np.abs(s - np.diag(np.diag(s))).max() == 0.0
            d = np.diag(s)
            assert d.min() >= lo and d.max() <= hi

    def test_band_structure(self):
        s1, s2 = (s.dense() for s in build_idio_covariances(10, 0.5, _gen(1)))
        # regime 1: tau^k on diagonals k=1,2 counting the main diagonal as k=1
        assert np.allclose(np.diag(s1, 1), 0.25)
        assert np.allclose(np.diag(s1, 2), 0.0)
        # regime 2: tau^(k-1) on diagonals k=1,2,3
        assert np.allclose(np.diag(s2, 1), 0.5)
        assert np.allclose(np.diag(s2, 2), 0.25)
        assert np.allclose(np.diag(s2, 3), 0.0)
        # banded main-diagonal contribution sits on top of the uniform draws
        assert np.diag(s1).min() >= 0.25 + 0.5
        assert np.diag(s2).min() >= 0.75 + 1.0

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5])
    def test_bytes_equal_diagonal_plus_dense_toeplitz(self, n, tau):
        def toeplitz(bands):
            m = np.zeros((n, n))
            for offset, value in enumerate(bands):
                m += value * (np.eye(n, k=offset) + (np.eye(n, k=-offset) if offset else 0.0))
            return m

        gen = _gen(5)
        diag1 = gen.uniform(0.25, 1.25, size=n)
        diag2 = gen.uniform(0.75, 1.75, size=n)
        zeros = np.zeros((n, n))
        expected = (
            np.diag(diag1) + (toeplitz([tau, tau**2]) if tau else zeros),
            np.diag(diag2) + (toeplitz([1.0, tau, tau**2]) if tau else zeros),
        )
        for got, want in zip(build_idio_covariances(n, tau, _gen(5)), expected):
            assert got.dense().tobytes() == want.tobytes()

    def test_positive_definite_at_half(self):
        # eigenvalue-check oracle
        s1, s2 = (s.dense() for s in build_idio_covariances(100, 0.5, _gen(2)))
        assert np.linalg.eigvalsh(s1).min() > 0
        assert np.linalg.eigvalsh(s2).min() > 0

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            simulate_idiosyncratic(
                BandedCovariance(np.ones(2), (2.0,)),  # [[1, 2], [2, 1]]: eigenvalues 3, -1
                BandedCovariance(np.ones(2)),
                np.array([1, 2]),
                0.0,
                _gen(3),
            )


class TestSimulateIdiosyncratic:
    def test_unit_variance_columns(self):
        # sample-variance oracle with identity mixing
        states = np.ones(1000, dtype=int)
        identity = BandedCovariance(np.ones(20))
        e = simulate_idiosyncratic(identity, identity, states, 0.0, _gen(0))
        assert np.abs(e.var(axis=0) - 1.0).max() < 0.1

    def test_single_regime_uses_only_first_covariance(self):
        states = np.ones(200, dtype=int)
        gen_a, gen_b = _gen(1), _gen(1)
        scaled = [BandedCovariance(np.full(5, scale)) for scale in (1.0, 4.0, 7.0)]
        e_scaled = simulate_idiosyncratic(scaled[1], scaled[0], states, 0.0, gen_a)
        e_unit = simulate_idiosyncratic(scaled[0], scaled[2], states, 0.0, gen_b)
        assert np.allclose(e_scaled, 2.0 * e_unit)

    def test_autocorrelation_range(self):
        # autocorrelation oracle with rho_i ~ U[0, 0.5]
        states = np.ones(1000, dtype=int)
        identity = BandedCovariance(np.ones(30))
        e = simulate_idiosyncratic(identity, identity, states, 0.5, _gen(2))
        for col in e.T:
            autocorr = np.corrcoef(col[:-1], col[1:])[0, 1]
            assert -0.1 <= autocorr <= 0.6


class TestSimulatePanel:
    def test_noise_to_signal_exact(self):
        cfg = SimConfig(n=40, t=200, r=1, noise_to_signal=0.5)
        truth = simulate_panel(cfg, RngHandle(seed=5))
        ratio = ((truth.e**2).sum(axis=0) / (truth.chi**2).sum(axis=0)).mean()
        assert abs(ratio - 0.5) < 1e-10

    def test_panel_decomposition_exact(self):
        truth = simulate_panel(SimConfig(n=30, t=100, r=2), RngHandle(seed=6))
        assert np.array_equal(truth.panel.data, truth.chi + truth.e)

    def test_common_component_matches_states(self):
        truth = simulate_panel(SimConfig(n=30, t=100, r=2), RngHandle(seed=7))
        for t in range(truth.panel.t_len):
            lam = truth.lambda1 if truth.states[t] == 1 else truth.lambda2
            assert np.allclose(truth.chi[t], lam @ truth.f[t])

    def test_regime_exclusivity(self):
        truth = simulate_panel(SimConfig(n=30, t=100, r=1), RngHandle(seed=8))
        assert ((truth.xi == 0) | (truth.xi == 1)).all()
        assert (truth.xi.sum(axis=1) == 1).all()

    def test_state_frequency_in_band(self):
        cfg = SimConfig(n=100, t=500, r=1, p11=0.9, p22=0.7)
        truth = simulate_panel(cfg, RngHandle(seed=9))
        assert 0.70 <= (truth.states == 1).mean() <= 0.80

    def test_determinism(self):
        cfg = SimConfig(n=25, t=80, r=1)
        a = simulate_panel(cfg, RngHandle(seed=10, stream=4))
        b = simulate_panel(cfg, RngHandle(seed=10, stream=4))
        assert np.array_equal(a.panel.data, b.panel.data)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.e, b.e)

    def test_factor_second_moment_identity(self):
        truth = simulate_panel(SimConfig(n=30, t=100, r=2), RngHandle(seed=11))
        moment = truth.f.T @ truth.f / truth.panel.t_len
        assert np.abs(moment - np.eye(2)).max() < 1e-10


def _reference_panel(cfg: SimConfig, rng: RngHandle):
    """simulate_panel written out with numpy row loops for the chain, the
    factor AR(1) and the idiosyncratic AR(1), and dense mixing: np.eye
    Toeplitz bands, an eigvalsh check, eigh roots built with np.diag and
    np.where over two full products."""
    gen = rng.generator()
    u = gen.uniform(0.0, 1.0, size=cfg.t)
    stat1 = (1.0 - cfg.p22) / ((1.0 - cfg.p11) + (1.0 - cfg.p22))
    states = np.empty(cfg.t, dtype=np.int64)
    states[0] = 1 if u[0] <= stat1 else 2
    for s in range(1, cfg.t):
        stay_threshold = cfg.p11 if states[s - 1] == 1 else 1.0 - cfg.p22
        states[s] = 1 if u[s] <= stay_threshold else 2

    z = gen.standard_normal((cfg.t, cfg.r))
    f = np.empty((cfg.t, cfg.r))
    f[0] = z[0] / np.sqrt(1.0 - cfg.rho_f**2)
    for s in range(1, cfg.t):
        f[s] = cfg.rho_f * f[s - 1] + z[s]
    vals, vecs = np.linalg.eigh(f.T @ f / cfg.t)
    f = f @ (vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T)

    lambda1, lambda2 = simulate_loadings(cfg.n, cfg.r, gen)
    n, tau = cfg.n, cfg.tau

    def toeplitz(bands):
        m = np.zeros((n, n))
        for offset, value in enumerate(bands):
            if offset == 0:
                m += value * np.eye(n)
            else:
                m += value * (np.eye(n, k=offset) + np.eye(n, k=-offset))
        return m

    diag1 = gen.uniform(0.25, 1.25, size=n)
    diag2 = gen.uniform(0.75, 1.75, size=n)
    banded1 = toeplitz([tau, tau**2]) if tau else np.zeros((n, n))
    banded2 = toeplitz([1.0, tau, tau**2]) if tau else np.zeros((n, n))
    sigmas = (np.diag(diag1) + banded1, np.diag(diag2) + banded2)
    assert all(np.linalg.eigvalsh(sigma).min() > 0.0 for sigma in sigmas)

    rho = gen.uniform(0.0, cfg.rho_idio_max, size=n)
    w = gen.standard_normal((cfg.t, n))
    nu = np.empty((cfg.t, n))
    nu[0] = w[0] / np.sqrt(1.0 - rho**2)
    for s in range(1, cfg.t):
        nu[s] = rho * nu[s - 1] + w[s]
    sd = nu.std(axis=0)
    sd[sd == 0.0] = 1.0
    nu /= sd
    roots = []
    for sigma in sigmas:
        vals, vecs = np.linalg.eigh(sigma)
        roots.append(vecs @ np.diag(np.sqrt(vals)) @ vecs.T)
    e_raw = np.where((states == 1)[:, None], nu @ roots[0], nu @ roots[1])

    chi = np.where((states == 1)[:, None], f @ lambda1.T, f @ lambda2.T)
    realised = ((e_raw**2).sum(axis=0) / (chi**2).sum(axis=0)).mean()
    e = e_raw * np.sqrt(cfg.noise_to_signal / realised)
    return chi + e, e


class TestDenseMixingReference:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(n=100, t=500, r=1),
            SimConfig(n=120, t=60, r=2, rho_f=0.7, tau=0.5, rho_idio_max=0.5),
        ],
        ids=["table1-diagonal", "banded-wide"],
    )
    def test_panel_bytes_equal_dense_reference(self, cfg):
        for stream in range(3):
            truth = simulate_panel(cfg, RngHandle(seed=3, stream=stream))
            data, e = _reference_panel(cfg, RngHandle(seed=3, stream=stream))
            assert truth.panel.data.tobytes() == data.tobytes()
            assert truth.e.tobytes() == e.tobytes()

    def test_not_pd_panel_names_regime_and_tau(self):
        with pytest.raises(NotPositiveDefiniteError, match=r"regime-1 .*\(tau=0\.9\)"):
            simulate_panel(SimConfig(n=50, t=40, r=1, tau=0.9), RngHandle(seed=0))

    @pytest.mark.parametrize(
        "sigma",
        [
            BandedCovariance(np.ones(2), (2.0,)),  # [[1, 2], [2, 1]]
            BandedCovariance(np.array([1.0, -1.0])),
        ],
        ids=["dense", "diagonal"],
    )
    def test_not_pd_names_regime(self, sigma):
        with pytest.raises(NotPositiveDefiniteError, match="regime-2"):
            simulate_idiosyncratic(
                BandedCovariance(np.ones(2)), sigma, np.array([1, 1]), 0.0, _gen(4)
            )


#: Design 4 (serially and cross-correlated noise) at N > T, as in the
#: wide Monte Carlo benchmark.
DESIGN4_WIDE = SimConfig(n=600, t=300, r=2, rho_f=0.7, tau=0.5, rho_idio_max=0.5)


class TestTridiagonalRoots:
    """Regime 1's covariance is tridiagonal when tau > 0; its root comes
    from LAPACK's dstevd with the bits ``eigh`` gives."""

    @needs_openblas
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 120, 600])
    def test_eigenpairs_and_root_bytes_equal_eigh(self, n, threads):
        sigma = build_idio_covariances(n, 0.5, _gen(n))[0].dense()
        with on_blas_threads(threads):
            pairs = [
                blas.tridiagonal_eigh(np.diagonal(sigma), np.diagonal(sigma, -1)),
                np.linalg.eigh(sigma),
            ]
            roots = [(v * np.sqrt(w)) @ v.T for w, v in pairs]
        (got_w, got_v), (want_w, want_v) = pairs
        assert got_w.tobytes() == want_w.tobytes()
        assert got_v.tobytes() == want_v.tobytes()
        assert roots[0].tobytes() == roots[1].tobytes()

    def test_rejects_mismatched_diagonals(self):
        with pytest.raises(DimensionMismatchError, match="subdiagonal of n - 1"):
            blas.tridiagonal_eigh(np.ones(3), np.ones(3))

    def test_failure_returns_none(self):
        # LAPACKE rejects a NaN input with info != 0
        assert blas.tridiagonal_eigh(np.array([np.nan, 1.0]), np.array([0.5])) is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_design4_panels_bytes_equal_without_the_binding(self, monkeypatch, threads):
        # both bindings away: eigh takes both regimes' dense covariances
        with on_blas_threads(threads):
            panels = [simulate_panel(DESIGN4_WIDE, RngHandle(seed=1, stream=s)) for s in range(2)]
            monkeypatch.setattr(blas, "_lapacke", lambda routine: None)
            for stream, truth in enumerate(panels):
                fallback = simulate_panel(DESIGN4_WIDE, RngHandle(seed=1, stream=stream))
                assert truth.panel.data.tobytes() == fallback.panel.data.tobytes()
                assert truth.e.tobytes() == fallback.e.tobytes()

    def test_not_pd_message_equal_without_the_binding(self, monkeypatch):
        cfg = SimConfig(n=50, t=40, r=1, tau=0.9)
        messages = []
        for binding in (True, False):
            if not binding:
                monkeypatch.setattr(blas, "_lapacke", lambda routine: None)
            with pytest.raises(NotPositiveDefiniteError, match=r"regime-1 .*\(tau=0\.9\)") as info:
                simulate_panel(cfg, RngHandle(seed=0))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @needs_openblas
    def test_eigh_runs_once_per_design4_panel_for_regime_2(self, monkeypatch):
        # where numpy is on OpenBLAS the binding must be found: a silent
        # fallback to eigh would keep the bits and lose the memory saving
        in_place, wide, eigh = blas.eigh_in_place, [], np.linalg.eigh

        def spy(matrix):
            if matrix.shape == (DESIGN4_WIDE.n, DESIGN4_WIDE.n):
                wide.append(matrix.copy())  # the call overwrites it
            pairs = in_place(matrix)
            assert pairs is not None
            return pairs

        def no_wide_eigh(a, *args, **kwargs):
            assert a.shape != (DESIGN4_WIDE.n, DESIGN4_WIDE.n)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(simulate, "eigh_in_place", spy)
        monkeypatch.setattr(np.linalg, "eigh", no_wide_eigh)
        for stream in range(2):
            simulate_panel(DESIGN4_WIDE, RngHandle(seed=0, stream=stream))
        assert len(wide) == 2
        tau = DESIGN4_WIDE.tau
        for sigma in wide:  # regime 2: tau^2 on the second off-diagonal
            assert (np.diagonal(sigma, 2) == tau**2).all()


class TestInPlaceRoots:
    """Regime 2's covariance is pentadiagonal when tau > 0; LAPACK's dsyevd
    writes its eigenvectors over it, with the bits ``eigh`` gives."""

    @needs_openblas
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 120, 600])
    def test_eigenpairs_and_root_bytes_equal_eigh(self, n, threads):
        sigma = build_idio_covariances(n, 0.5, _gen(n))[1].dense()
        buffer = sigma.copy()
        with on_blas_threads(threads):
            pairs = [blas.eigh_in_place(buffer), np.linalg.eigh(sigma)]
            roots = [(v * np.sqrt(w)) @ v.T for w, v in pairs]
        (got_w, got_v), (want_w, want_v) = pairs
        assert got_w.tobytes() == want_w.tobytes()
        assert got_v.tobytes() == want_v.tobytes()
        assert roots[0].tobytes() == roots[1].tobytes()
        # the input buffer holds the eigenvectors, one per row
        assert np.shares_memory(got_v, buffer)
        assert buffer.tobytes() == want_v.T.tobytes()

    def test_failure_returns_none(self):
        # LAPACKE rejects a NaN input with info != 0
        assert blas.eigh_in_place(np.array([[np.nan, 0.5], [0.5, 1.0]])) is None

    def test_rejects_what_it_cannot_overwrite(self):
        with pytest.raises(DimensionMismatchError, match="square"):
            blas.eigh_in_place(np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError, match="C-contiguous float64"):
            blas.eigh_in_place(np.eye(4)[::2, ::2])
        with pytest.raises(InvalidArgumentError, match="C-contiguous float64"):
            blas.eigh_in_place(np.eye(2, dtype=np.float32))

    def test_regime_2_not_pd_message_equal_without_the_binding(self, monkeypatch):
        # ones on the five central diagonals: eigenvalue 1 + 2 cos(x) + 2 cos(2x) < 0
        sigma = BandedCovariance(np.ones(8), (1.0, 1.0))
        messages = []
        for binding in (True, False):
            if not binding:
                monkeypatch.setattr(blas, "_lapacke", lambda routine: None)
            with pytest.raises(NotPositiveDefiniteError, match="regime-2") as info:
                simulate_idiosyncratic(
                    BandedCovariance(np.ones(8)), sigma, np.array([1, 2, 2]), 0.0, _gen(4)
                )
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestSimulationMemory:
    """The traced peak of one simulate_panel call, in N x N doubles: one
    covariance root at a time, and no N x N array for a diagonal one."""

    @staticmethod
    def _peak_in_n_squared(cfg):
        simulate_panel(cfg, RngHandle(seed=0))  # warm-up: caches and bindings
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            simulate_panel(cfg, RngHandle(seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return (peak - before) / (8 * cfg.n**2)

    def test_banded_design(self):
        cfg = SimConfig(n=300, t=60, r=2, tau=0.5, rho_idio_max=0.5)
        assert self._peak_in_n_squared(cfg) <= 4.5

    def test_wide_banded_design(self):
        # N = 2T: each T x N array is 0.5 N^2, so neither the innovation
        # draws nor a second T x N output may stay live beside the roots
        cfg = SimConfig(n=600, t=300, r=2, p11=0.9, p22=0.7, rho_f=0.7, tau=0.5, rho_idio_max=0.5)
        assert self._peak_in_n_squared(cfg) <= 4.3

    def test_diagonal_design(self):
        assert self._peak_in_n_squared(SimConfig(n=600, t=60)) <= 1.0
