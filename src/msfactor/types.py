"""Shared domain types.

Conventions fixed here once for the whole package:

* everything is time-major: row t of a panel / factor / probability array
  is period t;
* regime probabilities are length-2 vectors ordered (state 1, state 2);
* cross probabilities are T x 2 x 2 arrays indexed like the transition
  matrix: cross[t, i, j] = P(s_{t-1} = i+1, s_t = j+1 | data) goes with
  p_ij = p[i, j], and swapping the labels reverses both state axes;
* all containers are immutable after construction and safe to share
  across workers.

Array intake goes through two functions: :func:`as_real`, the package's
one float conversion, which rejects strings, ragged rows and complex
values, and :func:`as_shaped`, in which each public function states the
shapes of its array arguments, T x k factors as ``("T", "k")`` say.

Every constructor copies its arrays read-only and validates them: a wrong
shape raises :class:`DimensionMismatchError`, any other bad value
:class:`InvalidArgumentError`. Probability arrays share one check: chain
types lie in [0, 1] with rows summing to 1 within 1e-12; the four
:class:`ProbabilityPath` arrays lie in [-1e-12, 1 + 1e-9] with rows summing
to 1 within 1e-10, and its cross marginalises to smoothed within 1e-10.
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
        raise DimensionMismatchError(f"need {need} for {rule}; got {got}")
    return out


def _frozen_array(name: str, x) -> np.ndarray:
    """Copy to a C-contiguous read-only float array, as :func:`as_real`
    accepts."""
    out = np.array(as_real(name, x), order="C")
    out.setflags(write=False)
    return out


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


def row_sum_deviation(rows: np.ndarray) -> float:
    """max_t |sum rows[t] - 1| of a probability array whose first axis is
    time: each period sums over all of its entries.
    :class:`DimensionMismatchError` for an array with no periods,
    :class:`NonFiniteError` at the first period with a non-finite entry
    (its column counted over the period's flattened entries)."""
    rows = as_real("rows", rows)
    if rows.ndim == 0 or not len(rows):
        raise DimensionMismatchError(f"need at least one period, got shape {rows.shape}")
    flat = rows.reshape(len(rows), -1)
    if not np.isfinite(flat).all():
        t, col = map(int, np.argwhere(~np.isfinite(flat))[0])
        raise NonFiniteError(t, col, f"non-finite probability in period {t}, entry {col}")
    return float(np.abs(rows.sum(axis=tuple(range(1, rows.ndim))) - 1.0).max())


def _check_probabilities(name, arr, shape, low, high, tol) -> None:
    """Reject ``arr`` unless it has ``shape`` with at least one row, is
    finite, lies in [``low``, ``high``] and each row (or, if 1-D, the
    whole array) sums to 1 within ``tol``."""
    if arr.shape != shape:
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must have at least one row, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} has non-finite entries")
    if arr.min() < low or arr.max() > high:
        raise InvalidArgumentError(f"{name} entries leave [0, 1]")
    if row_sum_deviation(np.atleast_2d(arr)) > tol:
        raise InvalidArgumentError(f"{name} rows must sum to 1 within {tol:g}")


@dataclass(frozen=True)
class Panel:
    """T x N observation matrix, rows are time periods.

    Construct through :func:`validate_panel`, which enforces finiteness and
    the minimal dimensions.
    """

    data: np.ndarray
    _memo: dict[Hashable, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Idiosyncratic variance floor for this panel, computed once."""
        return self.memo(
            "variance_floor",
            lambda: VARIANCE_FLOOR_RATIO * float(np.mean(self.data * self.data)),
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
    return Panel(data=_frozen_array("panel", arr))


@dataclass(frozen=True)
class TransitionMatrix:
    """2x2 row-stochastic matrix, p[i, j] = P(s_{t+1} = j+1 | s_t = i+1)."""

    p: np.ndarray

    def __post_init__(self):
        arr = _frozen_array("transition matrix", self.p)
        _check_probabilities("transition matrix", arr, (2, 2), 0.0, 1.0, 1e-12)
        object.__setattr__(self, "p", arr)

    @property
    def p11(self) -> float:
        return float(self.p[0, 0])

    @property
    def p22(self) -> float:
        return float(self.p[1, 1])

    def relabeled(self) -> "TransitionMatrix":
        """The same chain with the two state labels swapped."""
        return TransitionMatrix(self.p[::-1, ::-1])


@dataclass(frozen=True)
class StateProbabilities:
    """Length-2 probability vector over the two regimes."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array("state probabilities", self.values).reshape(-1)
        _check_probabilities("state probabilities", arr, (2,), 0.0, 1.0, 1e-12)
        object.__setattr__(self, "values", arr)


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


@dataclass(frozen=True)
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
        b1 = _frozen_array("b1", self.b1)
        b2 = _frozen_array("b2", self.b2)
        s1 = _frozen_array("sigma_e1_diag", self.sigma_e1_diag).reshape(-1)
        s2 = _frozen_array("sigma_e2_diag", self.sigma_e2_diag).reshape(-1)
        if b1.ndim != 2 or b1.shape != b2.shape:
            raise DimensionMismatchError(
                f"loading matrices must share an N x k shape, got {b1.shape} vs {b2.shape}"
            )
        if not all(np.isfinite(arr).all() for arr in (b1, b2, s1, s2)):
            raise InvalidArgumentError("loadings and variances must be finite")
        check_instance("trans", self.trans, TransitionMatrix)
        n = b1.shape[0]
        if s1.shape != (n,) or s2.shape != (n,):
            raise DimensionMismatchError("variance vectors must have length N")
        if (s1 <= 0).any() or (s2 <= 0).any():
            raise InvalidArgumentError("idiosyncratic variances must be strictly positive")
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "sigma_e1_diag", s1)
        object.__setattr__(self, "sigma_e2_diag", s2)

    @property
    def n_series(self) -> int:
        return self.b1.shape[0]

    @property
    def n_factors(self) -> int:
        return self.b1.shape[1]


@dataclass(frozen=True)
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
        a = _frozen_array("a_hat", self.a_hat)
        g = _frozen_array("g_hat", self.g_hat)
        v = _frozen_array("eigvals", self.eigvals).reshape(-1)
        if a.ndim != 2 or g.ndim != 2 or a.shape[1] != g.shape[1]:
            raise DimensionMismatchError("loadings and factors must share the factor dimension")
        if v.shape != (a.shape[1],):
            raise DimensionMismatchError("eigenvalue vector length must equal the factor count")
        if not all(np.isfinite(arr).all() for arr in (a, g, v)):
            raise InvalidArgumentError("factor space has non-finite entries")
        if (np.diff(v) > 0).any():
            raise InvalidArgumentError("eigenvalues must be in descending order")
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "g_hat", g)
        object.__setattr__(self, "eigvals", v)


def check_gram(gram: np.ndarray, regime: int) -> None:
    """Raise :class:`SingularGramError` for ``regime`` when the condition
    number of ``gram`` is not finite or exceeds 1e12 (NaN for a Gram with a
    non-finite entry)."""
    cond = np.linalg.cond(gram) if np.isfinite(gram).all() else math.nan
    if not np.isfinite(cond) or cond > _GRAM_COND_LIMIT:
        raise SingularGramError(regime=regime, cond=float(cond))


def as_periods(*arrays) -> list[np.ndarray]:
    """``arrays`` through :func:`as_shaped`, all T x 2 for one T >= 1,
    named by position: "argument 1" first, as the recursions pass their
    leading arguments."""
    return as_shaped({}, **{f"argument {i + 1}": (a, ("T", 2)) for i, a in enumerate(arrays)})


def as_cross(cross: np.ndarray, smoothed: np.ndarray) -> list[np.ndarray]:
    """``cross`` and ``smoothed`` through :func:`as_shaped`, T x 2 x 2 and
    T x 2 for one T >= 1."""
    return as_shaped({}, cross=(cross, ("T", 2, 2)), smoothed=(smoothed, ("T", 2)))


def marginal_deviation(cross: np.ndarray, smoothed: np.ndarray) -> float:
    """Largest gap between the cross probabilities summed over s_{t-1} and
    the smoothed probabilities, shaped as :func:`as_cross` asks."""
    cross, smoothed = as_cross(cross, smoothed)
    return float(np.abs(cross[:, 0] + cross[:, 1] - smoothed).max())


@dataclass(frozen=True)
class ProbabilityPath:
    """Per-period regime probabilities from one filter + smoother pass.

    ``predicted``, ``filtered`` and ``smoothed`` are T x 2; ``cross`` is
    T x 2 x 2 with cross[t, i, j] the joint posterior of s_{t-1} = i+1 and
    s_t = j+1, where row 0 pairs s_1 with the filter prior state s_0.
    ``loglik`` is the accumulated log of the per-step normalisation
    constants.
    """

    predicted: np.ndarray
    filtered: np.ndarray
    smoothed: np.ndarray
    cross: np.ndarray
    loglik: float

    def __post_init__(self):
        rows = np.shape(self.predicted)[:1]  # () for a 0-d input: a shape error
        states = {"predicted": (2,), "filtered": (2,), "smoothed": (2,), "cross": (2, 2)}
        for name, tail in states.items():
            arr = _frozen_array(name, getattr(self, name))
            _check_probabilities(name, arr, (*rows, *tail), -1e-12, 1.0 + 1e-9, 1e-10)
            object.__setattr__(self, name, arr)
        # summing the cross over s_{t-1} gives the smoothed row, t = 1 included
        if marginal_deviation(self.cross, self.smoothed) > 1e-10:
            raise InvalidArgumentError("cross probabilities do not marginalise to smoothed")
        object.__setattr__(self, "loglik", float(self.loglik))


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
