"""Small dense linear-algebra primitives.

Everything here operates on matrices of size at most max_j N_j (direction
solves) or n+1 (Galerkin bases), so plain LAPACK via numpy/scipy is the right
tool.  The generalized problems are reduced by Cholesky congruence rather
than matrix square roots.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from .errors import IllConditionedGram, KernelFailure, SingularSystem

PIVOT_RTOL = 1e-12

# LAPACK drivers called directly: at these sizes the validation layers of
# the numpy/scipy wrappers cost as much as the factorizations themselves
_getrf = scipy.linalg.lapack.dgetrf
_getrs = scipy.linalg.lapack.dgetrs
_potrf = scipy.linalg.lapack.dpotrf
_syevd = scipy.linalg.lapack.dsyevd
_trtrs = scipy.linalg.lapack.dtrtrs


def _fortran_view(S) -> np.ndarray:
    """S, or for a C-ordered S its transpose, which is Fortran-ordered and,
    S being symmetric, the same matrix: LAPACK then reads it in place."""
    S = np.asarray(S, dtype=float)
    return S.T if S.flags.c_contiguous and not S.flags.f_contiguous else S


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns


def sym_eig_full(S) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, ascending eigenvalues.

    Only one triangle of S is read.
    """
    vals, vecs, info = _syevd(_fortran_view(S), compute_v=1, lower=1)
    if info != 0:
        raise KernelFailure(f"symmetric eigendecomposition failed (info={info})")
    return EigenDecomposition(vals, vecs)


def cholesky_spd(S) -> np.ndarray:
    """Lower Cholesky factor; raises IllConditionedGram when S is not SPD.

    A pivot fails when its square is at most PIVOT_RTOL times the largest
    diagonal entry; the error carries the index of the first that fails.
    Only one triangle of S is read.
    """
    S = _fortran_view(S)
    diag_scale = float(np.abs(S.diagonal()).max())
    L, info = _potrf(S, lower=1, clean=1)
    if info != 0 or L.diagonal().min() ** 2 <= PIVOT_RTOL * diag_scale:
        # potrf stops at pivot info - 1; an earlier one may be too small
        done = L.diagonal()[:info - 1] if info > 0 else L.diagonal()
        small = np.flatnonzero(done ** 2 <= PIVOT_RTOL * diag_scale)
        pivot = int(small[0]) if small.size else info - 1
        raise IllConditionedGram(f"Cholesky pivot {pivot} too small", pivot)
    return L


def tri_solve(L, rhs, transposed: bool = False) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs, for a lower-triangular L.

    This is the LAPACK call ``scipy.linalg.solve_triangular`` makes.  L
    must have a nonzero diagonal, as every Cholesky factor from
    :func:`cholesky_spd` has.
    """
    if L.flags.f_contiguous:
        x, info = _trtrs(L, rhs, lower=1, trans=1 if transposed else 0)
    else:
        x, info = _trtrs(L.T, rhs, lower=0, trans=0 if transposed else 1)
    if info != 0:
        raise KernelFailure(f"triangular solve failed (info={info})")
    return x


def gen_sym_eig_smallest(A, B):
    """Smallest eigenpair of A c = tau B c with B SPD; returns (tau, c).

    The eigenvector is normalized so that c^T B c = 1.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    L = cholesky_spd(B)
    # congruence: L^-1 A L^-T has the same generalized spectrum
    C = tri_solve(L, tri_solve(L, A).T).T
    dec = sym_eig_full(C)
    tau = float(dec.values[0])
    y = dec.vectors[:, 0]
    c = tri_solve(L, y, transposed=True)
    c = c / np.sqrt(c @ B @ c)
    return tau, c


def spd_solve(S, rhs) -> np.ndarray:
    """Solve S x = rhs with S SPD via Cholesky."""
    rhs = np.asarray(rhs, dtype=float)
    L = cholesky_spd(S)
    return tri_solve(L, tri_solve(L, rhs), transposed=True)


def sym_indefinite_solve(S, rhs) -> np.ndarray:
    """Solve S x = rhs for symmetric, possibly indefinite S.

    Raises SingularSystem when a pivot of the LU factorization falls below
    the relative tolerance or is not a number.
    """
    S = np.asarray(S, dtype=float)
    lu, piv, _ = _getrf(0.5 * (S + S.T))
    upiv = np.abs(lu.diagonal())
    # getrf's info > 0 (an exactly zero pivot) fails this test as well
    if not upiv.min() > PIVOT_RTOL * upiv.max():
        raise SingularSystem("pivot below tolerance; system is singular")
    x, _ = _getrs(lu, piv, np.asarray(rhs, dtype=float))
    return x


@functools.lru_cache(maxsize=None)
def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS copies bundled with
    numpy and scipy (``numpy.libs``, ``scipy.libs``); empty when absent."""
    pools = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    pools.append((get, set_))
                    break
    return tuple(pools)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every bundled OpenBLAS pool at one thread.

    The kernels here are far too small to gain from threads: a 51 x 51
    ``eigh`` on two cores takes about 9x longer threaded than serial.  The
    previous counts are restored on exit; without the libraries this is a
    no-op.  The counts are process-wide, so blocks running in concurrent
    threads share them.
    """
    pools = _openblas_pools()
    before = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(pools, before):
            set_(count)
