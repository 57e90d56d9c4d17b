"""numpy's OpenBLAS: its thread count, and two of its LAPACK symmetric
eigensolvers.

Every symbol is looked up by :func:`_openblas_symbol` on a handle to
numpy's LAPACK extension, ``numpy.linalg._umath_linalg``: the dynamic
loader resolves it in the libraries that module links, whatever their file
names, and in no other OpenBLAS of the process (scipy's, say). That holds
for ``dlsym`` on Linux, where it is tested, and is not verified elsewhere.
A lookup that finds nothing (an MKL build, say) leaves the cap a no-op and
the eigensolvers on ``np.linalg.eigh``.

OpenBLAS results depend on its thread count (gemm, syrk and eigh change in
the last bits between 1 and 2 threads), and its idle helper threads spin
for a while after every threaded call, competing with the pure-Python E
step for the cores. :func:`one_blas_thread` runs a block on one thread. The
cap is process-global: while it is active, BLAS calls from other threads of
the same process also run on one thread. The estimators
(:func:`~msfactor.pca.select_num_factors_er`,
:func:`~msfactor.pca.estimate_factor_space`, :func:`~msfactor.em.run_em`)
are decorated with it, so their results do not depend on the caller's
thread count and no helper thread spins beside the E step;
:func:`~msfactor.montecarlo.run_montecarlo` holds it around whole
replications. :func:`~msfactor.simulate.simulate_panel` is left on the
caller's threads: its N x N covariance roots are the one place a second
thread can pay. At 600 x 600, regime 2's :func:`eigh_in_place` takes
~47-59 ms on one thread and ~39-40 ms on two; regime 1's
:func:`tridiagonal_eigh` takes ~10-12 ms on either (2-core Xeon host).

After a fork, make no set call in the child. OpenBLAS's fork handler tears
down its thread pool, and any ``openblas_set_num_threads`` call in the child,
even to one thread, builds it again; the new helper thread then spins for
~0.1 s beside the child's own work. A child forked while the parent holds
the cap inherits one thread, so its own :func:`one_blas_thread` is a no-op.

The eigensolvers give the simulation's covariance roots the bits of
``np.linalg.eigh``. :func:`tridiagonal_eigh` binds ``LAPACKE_dstevd`` for
regime 1's tridiagonal covariance, taken as two diagonals (numpy has no
tridiagonal eigensolver). :func:`eigh_in_place` binds ``LAPACKE_dsyevd``,
the routine behind ``eigh``, for regime 2's pentadiagonal covariance, and
writes the eigenvectors over its input, where ``eigh`` works on a copy.
Only the ILP64 symbols (suffix ``64_``, 64-bit ``lapack_int``) are bound,
since their integer width is known; without them both return None, and the
caller falls back to ``np.linalg.eigh``.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import DimensionMismatchError, InvalidArgumentError

#: ctypes argument types of each bound LAPACKE routine.
_LAPACKE_ARGTYPES = {
    # (matrix_layout, jobz, n, d, e, z, ldz)
    "dstevd": [
        ctypes.c_int, ctypes.c_char, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
    ],
    # (matrix_layout, jobz, uplo, n, a, lda, w)
    "dsyevd": [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ],
}
_LAPACK_COL_MAJOR = 102


@functools.cache
def _numpy_linalg() -> ctypes.CDLL | None:
    """A handle to numpy's LAPACK extension module, or None."""
    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


def _openblas_symbol(name: str, restype, argtypes: list, suffixes=("", "64_")):
    """numpy's OpenBLAS function ``name``, typed ``argtypes -> restype``,
    under the first of its builds' name variants (prefix ``""`` or
    ``scipy_``, then each suffix), or None."""
    for prefix in ("", "scipy_"):
        for suffix in suffixes:
            function = getattr(_numpy_linalg(), f"{prefix}{name}{suffix}", None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                return function
    return None


@functools.cache
def openblas_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    numpy's wheels bundle scipy-openblas, which exports
    ``scipy_openblas_set_num_threads64_``.
    """
    get = _openblas_symbol("openblas_get_num_threads", ctypes.c_int, [])
    set_ = _openblas_symbol("openblas_set_num_threads", None, [ctypes.c_int])
    return None if get is None or set_ is None else (get, set_)


@functools.cache
def _lapacke(routine: str) -> Callable[..., int] | None:
    """``LAPACKE_<routine>`` of numpy's OpenBLAS with 64-bit integers, or
    None."""
    return _openblas_symbol(
        f"LAPACKE_{routine}", ctypes.c_int64, _LAPACKE_ARGTYPES[routine], suffixes=("64_",)
    )


def tridiagonal_eigh(
    diagonal: np.ndarray, subdiagonal: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (ascending) and eigenvectors (columns) of the symmetric
    tridiagonal matrix with this diagonal and subdiagonal, from LAPACK's
    divide-and-conquer ``dstevd``.

    They are the bits ``np.linalg.eigh`` gives for the dense matrix: its
    ``dsyevd`` reduces a tridiagonal input by identity reflectors, hands the
    same two diagonals to the same ``dstedc`` and back-transforms by I.
    Returns None when numpy's OpenBLAS exports no ILP64 symbol or when
    ``dstevd`` reports an error (``info != 0``, such as a NaN input).
    """
    values = np.array(diagonal, dtype=np.float64)  # overwritten by the eigenvalues
    work = np.array(subdiagonal, dtype=np.float64)  # overwritten by dstevd
    n = values.size
    if values.shape != (n,) or work.shape != (max(n - 1, 0),):
        raise DimensionMismatchError(
            f"need a diagonal of n and a subdiagonal of n - 1 values, "
            f"got shapes {values.shape} and {work.shape}"
        )
    dstevd = _lapacke("dstevd")
    if dstevd is None:
        return None
    vectors = np.empty((n, n))
    info = dstevd(
        _LAPACK_COL_MAJOR, b"V", n,
        values.ctypes.data, work.ctypes.data, vectors.ctypes.data, max(n, 1),
    )
    if info != 0:
        return None
    # the buffer holds the eigenvectors column-major: its transpose has
    # eigenvector j in column j
    return values, vectors.T


def eigh_in_place(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (ascending) and eigenvectors (columns) of a symmetric
    matrix from LAPACK's divide-and-conquer ``dsyevd``, which writes the
    eigenvectors over ``matrix``.

    ``matrix`` must be a C-contiguous float64 square array, exactly
    symmetric: ``dsyevd`` reads its lower triangle. The eigenvectors come
    back as a view of its buffer. They and the eigenvalues are the bits
    ``np.linalg.eigh`` gives, since it runs the same ``dsyevd`` on a copy.
    Returns None, with ``matrix`` unspecified, when numpy's OpenBLAS
    exports no ILP64 symbol or when ``dsyevd`` reports an error
    (``info != 0``, such as a NaN input).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"need a square matrix, got shape {matrix.shape}")
    if matrix.dtype != np.float64 or not matrix.flags.c_contiguous:
        raise InvalidArgumentError("need a C-contiguous float64 matrix to overwrite")
    dsyevd = _lapacke("dsyevd")
    if dsyevd is None:
        return None
    values = np.empty(n)
    info = dsyevd(
        _LAPACK_COL_MAJOR, b"V", b"L", n, matrix.ctypes.data, max(n, 1), values.ctypes.data
    )
    if info != 0:
        return None
    # the buffer holds the eigenvectors column-major: its transpose has
    # eigenvector j in column j
    return values, matrix.T


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS on one thread, then restore its
    previous thread count, also when the body raises.

    Already on one thread, it gets no set call, on entry or on exit: in a
    forked child that call would rebuild its thread pool."""
    controls = openblas_controls()
    count = controls[0]() if controls else 1
    if count == 1:
        yield
        return
    set_ = controls[1]
    set_(1)
    try:
        yield
    finally:
        set_(count)
