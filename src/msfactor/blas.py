"""OpenBLAS thread control, and two of LAPACK's symmetric eigensolvers.

OpenBLAS results depend on its thread count (gemm, syrk and eigh change in
the last bits between 1 and 2 threads), and its idle helper threads spin
for a while after every threaded call, competing with the pure-Python E
step for the cores. :func:`one_blas_thread` runs a block with every loaded
OpenBLAS on one thread. The cap is process-global: while it is active, BLAS
calls from other threads of the same process also run on one thread.
Without a loaded OpenBLAS (an MKL build, or no ``/proc/self/maps``) it does
nothing.

Who holds the cap:

- The estimators :func:`~msfactor.pca.select_num_factors_er`,
  :func:`~msfactor.pca.estimate_factor_space` and
  :func:`~msfactor.em.run_em` are decorated with it. Their results do not
  depend on the caller's thread count, and PCA's X'X/T product, big enough
  for OpenBLAS to thread at N=100, T=500, wakes no helper thread to spin
  beside the E step.
- :func:`~msfactor.montecarlo.run_montecarlo` and its worker hold it around
  whole replications. That pins simulation and the metrics too, so serial
  and parallel reports match, and it covers the fork.

:func:`~msfactor.simulate.simulate_panel` is left on the caller's threads:
its N x N covariance roots are the one place a second thread can pay. At
600 x 600, regime 2's :func:`eigh_in_place` takes ~47-59 ms on one thread
and ~39-40 ms on two; regime 1's :func:`tridiagonal_eigh` takes ~10-12 ms
on either (2-core Xeon host).

After a fork, make no set call in the child. OpenBLAS's fork handler tears
down its thread pool, and any ``openblas_set_num_threads`` call in the child,
even to one thread, builds it again; the new helper thread then spins for
~0.1 s beside the child's own work. A child forked while the parent holds
the cap inherits one thread, so its own :func:`one_blas_thread` is a no-op.

The eigensolvers take the simulation's covariance roots with the bits of
``np.linalg.eigh``, from the LAPACKE functions that the scipy-openblas64
library bundled with numpy's wheels exports:

- :func:`tridiagonal_eigh` binds ``LAPACKE_dstevd`` and serves regime 1's
  tridiagonal covariance, which it takes as two diagonals. numpy has no
  tridiagonal eigensolver.
- :func:`eigh_in_place` binds ``LAPACKE_dsyevd``, the routine behind
  ``np.linalg.eigh``, and serves regime 2's pentadiagonal covariance. It
  writes the eigenvectors over its input, where ``eigh`` works on a copy
  and returns a new array.

Both are looked up once by :func:`_lapacke`. Only the ILP64 symbols (suffix
``64_``, 64-bit ``lapack_int``) are bound, since their integer width is
known; without them both functions return None, and the caller falls back
to ``np.linalg.eigh``.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from .exceptions import DimensionMismatchError, InvalidArgumentError

#: (get, set) thread-count symbol pairs across OpenBLAS builds, with or
#: without the ``scipy_`` prefix and the ``64_`` suffix of ILP64 builds.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
)
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
def _openblas_libraries() -> tuple[ctypes.CDLL, ...]:
    """Every OpenBLAS mapped into this process, found once from
    ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {
                    fields[5].strip()
                    for fields in (line.split(maxsplit=5) for line in maps)
                    if len(fields) == 6 and "openblas" in fields[5]
                }
            )
    except OSError:
        return ()
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


@functools.cache
def openblas_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of every loaded OpenBLAS.

    numpy's wheels bundle scipy-openblas, which exports
    ``scipy_openblas_set_num_threads64_``.
    """
    controls = []
    for lib in _openblas_libraries():
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@functools.cache
def _lapacke(routine: str) -> Callable[..., int] | None:
    """``LAPACKE_<routine>`` of the first loaded OpenBLAS that exports it
    with 64-bit integers, with or without the ``scipy_`` prefix, or None."""
    for lib in _openblas_libraries():
        for name in (f"LAPACKE_{routine}64_", f"scipy_LAPACKE_{routine}64_"):
            if hasattr(lib, name):
                function = getattr(lib, name)
                function.argtypes = _LAPACKE_ARGTYPES[routine]
                function.restype = ctypes.c_int64
                return function
    return None


def tridiagonal_eigh(
    diagonal: np.ndarray, subdiagonal: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (ascending) and eigenvectors (columns) of the symmetric
    tridiagonal matrix with this diagonal and subdiagonal, from LAPACK's
    divide-and-conquer ``dstevd``.

    They are the bits ``np.linalg.eigh`` gives for the dense matrix: its
    ``dsyevd`` reduces a tridiagonal input by identity reflectors, hands the
    same two diagonals to the same ``dstedc`` and back-transforms by I.
    Returns None when no loaded OpenBLAS exports the ILP64 symbol or when
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
    Returns None, with ``matrix`` unspecified, when no loaded OpenBLAS
    exports the ILP64 symbol or when ``dsyevd`` reports an error
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
    """Run the body with every loaded OpenBLAS on one thread, then restore
    each library's previous thread count, also when the body raises.

    A library already on one thread gets no set call, on entry or on exit:
    in a forked child that call would rebuild its thread pool."""
    changed = [(set_, count) for get, set_ in openblas_controls() if (count := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)
