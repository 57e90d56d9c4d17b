"""Shared domain types.

Conventions fixed here once for the whole package:

* everything is time-major: row t of a panel / factor / probability array
  is period t;
* regime probabilities are length-2 vectors ordered (state 1, state 2);
* cross probabilities are T x 2 x 2 arrays indexed like the transition
  matrix: cross[t, i, j] = P(s_{t-1} = i+1, s_t = j+1 | data) goes with
  p_ij = p[i, j], and swapping the labels reverses both state axes;
* all containers are immutable after construction and safe to share
  across workers; those that hold arrays compare and hash by identity,
  as an array comparison has no single truth value.

Array intake goes through two functions: :func:`as_real`, the package's
one float conversion, which rejects strings, ragged rows and complex
values, and :func:`as_shaped`, in which each public function and
constructor states the shapes of its array arguments under their
parameter names, T x k factors as ``("T", "k")`` say; nothing is
flattened, and no helper shapes a pair (``cross`` and ``smoothed`` are
stated by each function that takes them). The E step's two intakes in
:mod:`msfactor.filtering`, one for the log densities and one for the
T x 2 probability rows, are built on it.
:mod:`msfactor.blas` is exempt: ``eigh_in_place`` must not copy the buffer
it overwrites, and ``tridiagonal_eigh``'s subdiagonal has n - 1 entries, a
size no letter names.

Every constructor copies its arrays read-only and validates them: a wrong
shape raises :class:`DimensionMismatchError`, any other bad value
:class:`InvalidArgumentError`. Probability arrays share one check: chain
types lie in [0, 1] with rows summing to 1 within 1e-12; the four
:class:`ProbabilityPath` arrays lie in [-1e-12, 1 + 1e-9] with rows summing
to 1 within 1e-10, and its cross marginalises to smoothed within 1e-10.
Each of these two facts is measured once, by the check, and the path keeps
both measurements as ``norm_deviation`` and ``marginal_deviation``.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Callable, Hashable
from dataclasses import Field, dataclass, field, fields
from typing import Any

import numpy as np

from .exceptions import (
    DegenerateChainError,
    DimensionMismatchError,
    InvalidArgumentError,
    NonFiniteError,
    SingularGramError,
    TooSmallError,
)

#: Idiosyncratic variance floor relative to the panel's uncentred mean square
#: (positive for a constant panel too). Prevents degenerate Gaussian
#: densities when a regime collapses onto few observations.
VARIANCE_FLOOR_RATIO = 1e-10

#: Condition number above which a Gram matrix counts as singular.
_GRAM_COND_LIMIT = 1e12


def as_real(name: str, x) -> np.ndarray:
    """``x`` as a float array, not copied if it is one;
    :class:`InvalidArgumentError` naming ``name`` unless it holds real
    numbers only (not strings, ragged rows or complex values)."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "c":  # a cast to float would drop the imaginary part
            raise TypeError(f"got {arr.dtype}")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name} must be an array of real numbers: {exc}") from None


def as_shaped(sizes: dict[str, int], /, **arrays: tuple[Any, tuple]) -> list[np.ndarray]:
    """The arrays given as ``name=(array, shape)``, in order, through
    :func:`as_real`. An int in ``shape`` fixes an axis's size; a letter
    names a size of at least 1 that the call's arrays share, fixed by
    ``sizes`` or else by the first array to use it. Otherwise
    :class:`DimensionMismatchError` names each array with its required and
    its actual shape."""
    bound, out, fits = dict(sizes), [], True
    for name, (x, shape) in arrays.items():
        out.append(arr := as_real(name, x))
        fits = fits and arr.ndim == len(shape)
        for want, got in zip(shape, arr.shape):
            if isinstance(want, str):
                want = bound.setdefault(want, got)
            fits = fits and got == want > 0
    if not fits:
        specs = {name: shape for name, (_, shape) in arrays.items()}
        letters = dict.fromkeys(a for s in specs.values() for a in s if isinstance(a, str))
        rule = ", ".join(f"{a} = {sizes[a]}" if a in sizes else f"{a} >= 1" for a in letters)
        need = ", ".join(f"{name} {s}".replace("'", "") for name, s in specs.items())
        got = ", ".join(f"{name} {arr.shape}" for name, arr in zip(arrays, out))
        raise DimensionMismatchError(f"need {need}{f' for {rule}' if rule else ''}; got {got}")
    return out


def _freeze(obj, **arrays: np.ndarray):
    """``obj``, a frozen dataclass, with each of ``arrays`` stored under its
    name as a C-contiguous read-only copy."""
    for name, arr in arrays.items():
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


def as_integer(name: str, value) -> int:
    """The plain ``int`` that ``value`` stands for (a numpy integer becomes
    an ``int``); :class:`InvalidArgumentError` naming ``name`` for anything
    else, an integer-valued float included."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer") from None


def check_instance(name: str, value, cls: type) -> None:
    """:class:`InvalidArgumentError` naming ``name`` unless ``value`` is a
    ``cls``."""
    if not isinstance(value, cls):
        raise InvalidArgumentError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def check_finite(column: str, **arrays: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` at the first non-finite entry (t, j)
    of the 2-D ``arrays``, taken in order, calling column j its
    ``column`` j + 1."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            t, j = map(int, np.argwhere(~np.isfinite(arr))[0])
            raise NonFiniteError(t, j, f"{name} at t={t}, {column} {j + 1} is {arr[t, j]}")


def setting_fields(cls) -> list[Field]:
    """The settings of config dataclass ``cls``: its fields with ``help`` metadata."""
    return [f for f in fields(cls) if "help" in f.metadata]


def check_settings(config) -> None:
    """Check each setting of the frozen dataclass ``config`` by its default's
    type: store an ``int`` through :func:`as_integer`; reject a ``float`` that
    is not a real number (a string, None, ...) with InvalidArgumentError."""
    for f in setting_fields(config):
        value = getattr(config, f.name)
        if isinstance(f.default, int):
            object.__setattr__(config, f.name, as_integer(f.name, value))
        elif not isinstance(value, numbers.Real):
            raise InvalidArgumentError(f"{f.name} must be a real number")


def _check_probabilities(name, arr, low, high, tol) -> float:
    """The largest deviation of a row sum of ``arr`` from 1 (its sum, if
    1-D); reject ``arr`` unless it is finite, lies in [``low``, ``high``]
    and that deviation is at most ``tol``."""
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} has non-finite entries")
    if arr.min() < low or arr.max() > high:
        raise InvalidArgumentError(f"{name} entries leave [{low:.10g}, {high:.10g}]")
    deviation = float(np.abs(arr.sum(axis=-1) - 1.0).max())
    if deviation > tol:
        raise InvalidArgumentError(f"{name} rows must sum to 1 within {tol:g}")
    return deviation


@dataclass(frozen=True, eq=False)
class Panel:
    """T x N observation matrix, rows are time periods.

    Construct through :func:`validate_panel`, which enforces finiteness and
    the minimal dimensions.
    """

    data: np.ndarray
    _memo: dict[Hashable, Any] = field(default_factory=dict, init=False, repr=False)

    @property
    def t_len(self) -> int:
        return self.data.shape[0]

    @property
    def n_len(self) -> int:
        return self.data.shape[1]

    def memo(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``compute()`` on the first call for ``key``, the stored value after.

        For values that depend only on the (read-only) data and on what the
        key encodes; array values should be read-only too, since every
        caller gets the same object. Entries live as long as the panel.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def variance_floor(self) -> float:
        """Idiosyncratic variance floor for this panel, computed once; the
        mean square is one reduction, with no T x N temporary."""
        x = self.data
        return self.memo(
            "variance_floor",
            lambda: VARIANCE_FLOOR_RATIO * float(np.einsum("ij,ij->", x, x) / x.size),
        )


def validate_panel(data) -> Panel:
    """Validate a raw matrix and wrap it as an immutable :class:`Panel`.

    Raises
    ------
    InvalidArgumentError
        If the data are not real numbers (strings, ragged rows, complex
        values).
    NonFiniteError
        If any entry is NaN or infinite (reports the first offending
        row/column, 0-based).
    TooSmallError
        If T < 2 or N < 2.
    """
    arr = as_real("panel", data)
    if arr.ndim != 2:
        raise TooSmallError(f"panel must be 2-dimensional, got ndim={arr.ndim}")
    t_len, n_len = arr.shape
    if t_len < 2 or n_len < 2:
        raise TooSmallError(f"panel needs T >= 2 and N >= 2, got T={t_len}, N={n_len}")
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteError(int(row), int(col))
    return _freeze(Panel(data=arr), data=arr)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """2x2 row-stochastic matrix, p[i, j] = P(s_{t+1} = j+1 | s_t = i+1)."""

    p: np.ndarray

    def __post_init__(self):
        (p,) = as_shaped({}, p=(self.p, (2, 2)))
        _check_probabilities("transition matrix", p, 0.0, 1.0, 1e-12)
        _freeze(self, p=p)

    @property
    def p11(self) -> float:
        return float(self.p[0, 0])

    @property
    def p22(self) -> float:
        return float(self.p[1, 1])

    def relabeled(self) -> "TransitionMatrix":
        """The same chain with the two state labels swapped."""
        return TransitionMatrix(self.p[::-1, ::-1])


@dataclass(frozen=True, eq=False)
class StateProbabilities:
    """Length-2 probability vector over the two regimes."""

    values: np.ndarray

    def __post_init__(self):
        (values,) = as_shaped({}, values=(self.values, (2,)))
        _check_probabilities("state probabilities", values, 0.0, 1.0, 1e-12)
        _freeze(self, values=values)


#: Deterministic filter initialisation xi_{0|0}: the chain starts in state 1.
STATE_1 = StateProbabilities(np.array([1.0, 0.0]))


def unconditional_probs(trans: TransitionMatrix) -> StateProbabilities:
    """Stationary (long-run) state probabilities of the chain.

    Returns ((1 - p22) / (2 - p11 - p22), (1 - p11) / (2 - p11 - p22)).

    Raises
    ------
    InvalidArgumentError
        Unless ``trans`` is a :class:`TransitionMatrix`.
    DegenerateChainError
        If p11 = p22 = 1 (two absorbing states, no unique stationary law).
    """
    check_instance("trans", trans, TransitionMatrix)
    leave2 = 1.0 - trans.p22
    leave1 = 1.0 - trans.p11
    denom = leave1 + leave2
    if denom <= 0.0:
        raise DegenerateChainError(
            "p11 = p22 = 1: the chain is reducible and has no unique "
            "stationary distribution"
        )
    return StateProbabilities(np.array([leave2 / denom, leave1 / denom]))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Loadings, idiosyncratic variances and transition matrix.

    ``b1`` and ``b2`` are N x k loading matrices on the stacked factor
    vector (k = r1 + r2); the variance vectors hold the diagonal of the
    per-regime idiosyncratic covariance.
    """

    b1: np.ndarray
    b2: np.ndarray
    sigma_e1_diag: np.ndarray
    sigma_e2_diag: np.ndarray
    trans: TransitionMatrix

    def __post_init__(self):
        b1, b2, s1, s2 = as_shaped(
            {}, b1=(self.b1, ("N", "k")), b2=(self.b2, ("N", "k")),
            sigma_e1_diag=(self.sigma_e1_diag, ("N",)), sigma_e2_diag=(self.sigma_e2_diag, ("N",)),
        )
        if not all(np.isfinite(arr).all() for arr in (b1, b2, s1, s2)):
            raise InvalidArgumentError("loadings and variances must be finite")
        check_instance("trans", self.trans, TransitionMatrix)
        if (s1 <= 0).any() or (s2 <= 0).any():
            raise InvalidArgumentError("idiosyncratic variances must be strictly positive")
        _freeze(self, b1=b1, b2=b2, sigma_e1_diag=s1, sigma_e2_diag=s2)


@dataclass(frozen=True, eq=False)
class FactorSpace:
    """PCA estimate of the equivalent linear factor model.

    ``a_hat`` is N x k with (a_hat' a_hat) / N = I_k, ``g_hat`` is T x k
    with rows g_t = a_hat' x_t / N, and ``eigvals`` holds the top-k
    eigenvalues of the (uncentred, divisor-T) sample covariance in
    descending order.
    """

    a_hat: np.ndarray
    g_hat: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        a, g, v = as_shaped(
            {}, a_hat=(self.a_hat, ("N", "k")), g_hat=(self.g_hat, ("T", "k")),
            eigvals=(self.eigvals, ("k",)),
        )
        if not all(np.isfinite(arr).all() for arr in (a, g, v)):
            raise InvalidArgumentError("factor space has non-finite entries")
        if (np.diff(v) > 0).any():
            raise InvalidArgumentError("eigenvalues must be in descending order")
        _freeze(self, a_hat=a, g_hat=g, eigvals=v)


def check_gram(gram: np.ndarray, regime: int) -> None:
    """Raise :class:`SingularGramError` for ``regime`` when the condition
    number of the symmetric ``gram`` is not finite or exceeds 1e12 (NaN for
    a Gram with a non-finite entry). The condition number is max |l| /
    min |l| over its eigenvalues l, which for a symmetric matrix are its
    singular values up to sign, so no SVD is needed."""
    cond = math.nan
    if np.isfinite(gram).all():
        magnitudes = np.abs(np.linalg.eigvalsh(gram))
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 is NaN, x / 0 is inf
            cond = magnitudes.max() / magnitudes.min()
    if not np.isfinite(cond) or cond > _GRAM_COND_LIMIT:
        raise SingularGramError(regime=regime, cond=float(cond))


@dataclass(frozen=True, eq=False)
class ProbabilityPath:
    """Per-period regime probabilities from one filter + smoother pass.

    ``predicted``, ``filtered`` and ``smoothed`` are T x 2; ``cross`` is
    T x 2 x 2 with cross[t, i, j] the joint posterior of s_{t-1} = i+1 and
    s_t = j+1, where row 0 pairs s_1 with the filter prior state s_0.
    ``loglik`` is the accumulated log of the per-step normalisation
    constants. The checks keep what they measured: ``norm_deviation`` is
    the largest |period sum - 1| over the four arrays, and
    ``marginal_deviation`` the largest gap between the cross summed over
    s_{t-1} and the smoothed row.
    """

    predicted: np.ndarray
    filtered: np.ndarray
    smoothed: np.ndarray
    cross: np.ndarray
    loglik: float
    norm_deviation: float = field(init=False)
    marginal_deviation: float = field(init=False)

    def __post_init__(self):
        predicted, filtered, smoothed, cross, loglik = as_shaped(
            {}, predicted=(self.predicted, ("T", 2)), filtered=(self.filtered, ("T", 2)),
            smoothed=(self.smoothed, ("T", 2)), cross=(self.cross, ("T", 2, 2)),
            loglik=(self.loglik, ()),
        )
        # the cross's period sum is the sum of its C-ordered T x 4 rows
        rows = {"predicted": predicted, "filtered": filtered, "smoothed": smoothed,
                "cross": cross.reshape(len(cross), 4)}
        norm = max(_check_probabilities(n, a, -1e-12, 1.0 + 1e-9, 1e-10) for n, a in rows.items())
        # summing the cross over s_{t-1} gives the smoothed row, t = 1 included
        gap = float(np.abs(cross[:, 0] + cross[:, 1] - smoothed).max())
        if gap > 1e-10:
            raise InvalidArgumentError("cross probabilities do not marginalise to smoothed")
        if not np.isfinite(loglik):
            raise InvalidArgumentError(f"loglik must be finite, got {loglik}")
        _freeze(self, predicted=predicted, filtered=filtered, smoothed=smoothed, cross=cross)
        object.__setattr__(self, "loglik", float(loglik))
        object.__setattr__(self, "norm_deviation", norm)
        object.__setattr__(self, "marginal_deviation", gap)


@dataclass(frozen=True)
class RngHandle:
    """Seedable, splittable randomness source.

    Identical (seed, stream) pairs produce identical draw sequences across
    runs and platforms; Monte Carlo replication r uses stream id r so that
    serial and parallel execution agree bit for bit.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            try:
                fits = 0 <= operator.index(getattr(self, name)) < 2**64
            except TypeError:  # not an integer: a float, a string, ...
                fits = False
            if not fits:
                raise InvalidArgumentError(f"{name} must fit an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream),))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the simulated two-regime factor panel.

    ``r`` is the factor count per regime (r1 = r2 = r, shared factors);
    ``tau`` controls the banded part of the idiosyncratic covariances;
    ``rho_idio_max`` is the upper bound of the per-series idiosyncratic
    AR coefficients (0 disables serial correlation).

    Each field with ``help`` metadata (all but ``seed``) is a setting of
    ``msfactor simulate`` and ``montecarlo``, under its own name in a config
    file and as ``--rho-f`` for ``rho_f``, with the default's type.
    """

    n: int = field(default=100, metadata={"help": "number of series N"})
    t: int = field(default=500, metadata={"help": "number of periods T"})
    r: int = field(default=1, metadata={"help": "factors per regime"})
    p11: float = field(default=0.9, metadata={"help": "stay probability of state 1"})
    p22: float = field(default=0.7, metadata={"help": "stay probability of state 2"})
    rho_f: float = field(default=0.0, metadata={"help": "factor AR(1) coefficient"})
    tau: float = field(default=0.0, metadata={"help": "Toeplitz band decay"})
    rho_idio_max: float = field(
        default=0.0, metadata={"help": "upper bound of idiosyncratic AR coefficients"}
    )
    noise_to_signal: float = field(default=0.5, metadata={"help": "target noise-to-signal ratio"})
    seed: int = 0

    def __post_init__(self):
        check_settings(self)
        if self.r < 1:
            raise InvalidArgumentError("r must be >= 1")
        if self.n < 2 or self.t < 2:
            raise InvalidArgumentError("need N >= 2 and T >= 2")
        if self.n < self.r:
            raise InvalidArgumentError(f"need n >= r, got n={self.n}, r={self.r}")
        if not (0.0 < self.p11 < 1.0 and 0.0 < self.p22 < 1.0):
            raise InvalidArgumentError("p11 and p22 must lie strictly in (0, 1)")
        if not (0.0 <= self.rho_f < 1.0):
            raise InvalidArgumentError("rho_f must lie in [0, 1)")
        if not (0.0 <= self.tau < 1.0):
            raise InvalidArgumentError("tau must lie in [0, 1)")
        if not (0.0 <= self.rho_idio_max < 1.0):
            raise InvalidArgumentError("rho_idio_max must lie in [0, 1)")
        if not (0.0 < self.noise_to_signal < math.inf):
            raise InvalidArgumentError("noise_to_signal must be finite and positive")
        # numpy indexes an array's bytes with intp: check before allocating
        sizes = {"N x T panel": self.n * self.t, "N x N covariance": self.n**2 * (self.tau > 0)}
        for name, size in sizes.items():
            if 8 * size > np.iinfo(np.intp).max:
                raise InvalidArgumentError(
                    f"the {name} would need {8 * size} bytes, more than an array can address"
                )
