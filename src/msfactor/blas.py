"""OpenBLAS thread control, and LAPACK's tridiagonal eigensolver.

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
600 x 600, regime 2's ``eigh`` takes ~55 ms on one thread and ~45-55 ms on
two; regime 1's :func:`tridiagonal_eigh` takes ~10-12 ms on either (2-core
Xeon host).

After a fork, make no set call in the child. OpenBLAS's fork handler tears
down its thread pool, and any ``openblas_set_num_threads`` call in the child,
even to one thread, builds it again; the new helper thread then spins for
~0.1 s beside the child's own work. A child forked while the parent holds
the cap inherits one thread, so its own :func:`one_blas_thread` is a no-op.

:func:`tridiagonal_eigh` binds ``LAPACKE_dstevd`` from the same libraries.
numpy has no tridiagonal eigensolver, but the scipy-openblas64 library its
wheels bundle exports LAPACK's. Only the ILP64 symbol (suffix ``64_``,
64-bit ``lapack_int``) is bound, since its integer width is known; without
it the function returns None.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from .exceptions import DimensionMismatchError

#: (get, set) thread-count symbol pairs across OpenBLAS builds, with or
#: without the ``scipy_`` prefix and the ``64_`` suffix of ILP64 builds.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
)
#: ``LAPACKE_dstevd`` in ILP64 builds, with or without the ``scipy_`` prefix.
_DSTEVD_SYMBOLS = ("LAPACKE_dstevd64_", "scipy_LAPACKE_dstevd64_")
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
def _dstevd() -> Callable[..., int] | None:
    """``LAPACKE_dstevd`` of the first loaded OpenBLAS that exports it with
    64-bit integers, or None."""
    for lib in _openblas_libraries():
        for name in _DSTEVD_SYMBOLS:
            if hasattr(lib, name):
                dstevd = getattr(lib, name)
                # (matrix_layout, jobz, n, d, e, z, ldz)
                dstevd.argtypes = [
                    ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                ]
                dstevd.restype = ctypes.c_int64
                return dstevd
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
    dstevd = _dstevd()
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
