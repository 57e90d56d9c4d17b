"""Exception types raised across the package.

All errors derive from :class:`MsfactorError`, itself a ``ValueError``, so
callers can catch either the specific condition or anything this library
rejects.
"""


class MsfactorError(ValueError):
    """Base class for all errors raised by msfactor."""


class InvalidArgumentError(MsfactorError):
    """An argument lies outside its valid range."""


class NonFiniteError(MsfactorError):
    """A matrix entry is NaN or infinite."""

    def __init__(self, row: int, col: int, message: str | None = None):
        self.row = row
        self.col = col
        super().__init__(message or f"non-finite entry at row {row}, col {col}")


class TooSmallError(MsfactorError):
    """Panel dimensions below the minimum (T >= 2, N >= 2)."""


class DegenerateChainError(MsfactorError):
    """Transition matrix with p11 = p22 = 1: no stationary distribution."""


class NotPositiveDefiniteError(MsfactorError):
    """A covariance matrix has an eigenvalue <= 0."""


class SecondMomentOverflowError(MsfactorError):
    """A panel's second-moment matrix overflows the largest double."""


class RankDeficientError(MsfactorError):
    """Fewer independent directions than factors: whitening impossible, or
    a PCA factor count above the panel's numerical rank."""


class DimensionMismatchError(MsfactorError):
    """Array shapes do not agree with the model dimensions."""


class DegeneratePredictionError(MsfactorError):
    """A predicted regime probability underflowed to zero while its
    conditional density dominates."""


class ZeroPredictedError(MsfactorError):
    """Division guard: a predicted probability is below 1e-300."""


class SingularGramError(MsfactorError):
    """A weighted factor Gram matrix is singular (regime collapse)."""

    def __init__(self, regime: int, cond: float, message: str | None = None):
        self.regime = regime
        self.cond = cond
        super().__init__(
            message
            or f"singular weighted Gram matrix for regime {regime} "
            f"(condition number {cond:.3e})"
        )


class EmptyRegimeError(MsfactorError):
    """A regime received (numerically) zero posterior weight."""


class KTooLargeError(MsfactorError):
    """Requested factor count exceeds min(N, T)."""


class TooLongError(MsfactorError):
    """Exact enumeration refused: T > 16 means more than 65536 paths."""


class CsvParseError(MsfactorError):
    """A CSV cell failed to parse; reports 1-based row and column."""

    def __init__(self, row: int, col: int, message: str | None = None):
        self.row = row
        self.col = col
        super().__init__(message or f"cannot parse CSV cell at row {row}, col {col}")


class ZeroSignalError(MsfactorError):
    """The reference common component is identically zero."""
