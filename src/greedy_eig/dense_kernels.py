"""Small dense linear-algebra primitives.

Everything here operates on matrices of size at most max_j N_j (direction
solves) or n+1 (Galerkin bases).  Each solve is one LAPACK driver call that
computes only what its caller reads: ``dsyevr`` (symmetric eigenpairs),
``dsygvx`` (a definite pencil's smallest pair, by Cholesky congruence) or
``dposv`` (SPD systems; ``spd_factor_solve`` keeps the factor, and
``cholesky_solve`` is one ``dpotrs`` call per further right-hand side on
it).  Both eigen drivers take a single pair of the tridiagonal form by
bisection and inverse iteration, as the MRRR driver ``dsyevr`` does for a
subset (Dhillon & Parlett, Linear Algebra Appl. 387, 2004).  Every
Cholesky factor passes one relative pivot test, cholesky_spd's.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
import scipy.linalg

from .errors import IllConditionedGram, KernelFailure, SingularSystem

PIVOT_RTOL = 1e-12

# LAPACK drivers called directly: at these sizes the validation layers of
# the numpy/scipy wrappers cost as much as the factorizations themselves
_getrf = scipy.linalg.lapack.dgetrf
_getrs = scipy.linalg.lapack.dgetrs
_posv = scipy.linalg.lapack.dposv
_potrf = scipy.linalg.lapack.dpotrf
_potrs = scipy.linalg.lapack.dpotrs
_syevr = scipy.linalg.lapack.dsyevr
_sygvx = scipy.linalg.lapack.dsygvx
_trtrs = scipy.linalg.lapack.dtrtrs


def _fortran_view(S) -> np.ndarray:
    """S, or for a C-ordered S its transpose, which is Fortran-ordered and,
    S being symmetric, the same matrix: LAPACK then reads it in place."""
    S = np.asarray(S, dtype=float)
    return S.T if S.flags.c_contiguous and not S.flags.f_contiguous else S


class EigenDecomposition(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns


def sym_eig_full(S, count=None) -> EigenDecomposition:
    """The ``count`` smallest eigenpairs of a symmetric matrix, all by
    default, ascending (LAPACK ``dsyevr``, il = 1, iu = count).  Only one
    triangle of S is read."""
    S = _fortran_view(S)
    vals, vecs, m, _, info = _syevr(S, compute_v=1, range="I", lower=1, il=1,
                                    iu=len(S) if count is None else count)
    if info != 0:
        raise KernelFailure(f"symmetric eigendecomposition failed (info={info})")
    return EigenDecomposition(vals[:m], vecs)


def _check_pivots(stopped: bool, L, S) -> None:
    """Raise IllConditionedGram when the Cholesky factorization of S
    ``stopped``, or when the square of its factor L's smallest pivot is at
    most PIVOT_RTOL times the largest diagonal entry of S."""
    # a complete factorization has every S_ii >= L_ii^2 > 0, so the largest
    # S_ii is the largest |S_ii|; Python's min and max are the cheaper here
    if stopped or (min(L.diagonal().tolist()) ** 2
                   <= PIVOT_RTOL * max(S.diagonal().tolist())):
        raise IllConditionedGram("Cholesky pivot below tolerance; "
                                 "matrix is not positive definite")


def cholesky_spd(S) -> np.ndarray:
    """Lower Cholesky factor; raises IllConditionedGram when S fails the
    pivot test (``_check_pivots``).  Only one triangle of S is read."""
    S = _fortran_view(S)
    L, info = _potrf(S, lower=1, clean=1)
    _check_pivots(info != 0, L, S)
    return L


def tri_solve(L, rhs, transposed: bool = False) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs, for a lower-triangular L.

    This is the LAPACK call ``scipy.linalg.solve_triangular`` makes.  L is
    Fortran-ordered, as :func:`cholesky_spd` returns it, and must have a
    nonzero diagonal, as every Cholesky factor from it has.
    """
    x, info = _trtrs(L, rhs, lower=1, trans=1 if transposed else 0)
    if info != 0:
        raise KernelFailure(f"triangular solve failed (info={info})")
    return x


def gen_sym_eig_smallest(A, B):
    """Smallest eigenpair of A c = tau B c with B SPD; returns (tau, c).

    One LAPACK ``dsygvx`` call (il = iu = 1) computes only that pair, with
    c^T B c = 1, and leaves B's Cholesky factor for the pivot test of
    :func:`cholesky_spd`.  Only one triangle of A and of B is read.
    """
    B = np.asarray(B, dtype=float)
    factor = np.array(B, order="F")   # dsygvx overwrites it with the factor
    vals, vecs, _, _, info = _sygvx(_fortran_view(A), factor, range="I",
                                    il=1, iu=1, overwrite_b=1)
    _check_pivots(info > len(B), factor, B)   # info > n: B's factor stopped
    if info != 0:
        raise KernelFailure(f"smallest generalized eigenpair failed (info={info})")
    return float(vals[0]), vecs[:, 0]


def spd_factor_solve(S, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve S x = rhs with S SPD: one LAPACK ``dposv`` call, whose Cholesky
    factor passes the pivot test of :func:`cholesky_spd`.  Returns x and
    the factor, whose lower triangle :func:`cholesky_solve` reads."""
    S = _fortran_view(S)
    L, x, info = _posv(S, rhs, lower=1)
    _check_pivots(info != 0, L, S)
    return x, L


def spd_solve(S, rhs) -> np.ndarray:
    """x of :func:`spd_factor_solve`."""
    return spd_factor_solve(S, rhs)[0]


def cholesky_solve(L, rhs) -> np.ndarray:
    """Solve L L^T x = rhs on a factor from :func:`spd_factor_solve`: one
    LAPACK ``dpotrs`` call."""
    x, info = _potrs(L, rhs, lower=1)
    if info != 0:
        raise KernelFailure(f"Cholesky solve failed (info={info})")
    return x


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
