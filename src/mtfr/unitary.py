"""Structured factorizations of unitary matrices.

The workhorse is the observation that S = U^t U is symmetric unitary, so
its real and imaginary parts are commuting real symmetric matrices with
X^2 + Y^2 = I.  Jointly diagonalizing the pair by one real orthogonal
matrix yields both the real-orthogonal x diagonal-unitary x real-orthogonal
(ODO) factorization of U and the Takagi factorization of S.  Every split
U = W V with V^t V = U^t U gets its real orthogonal W from `real_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotSymmetric,
    NotUnitary,
    NumericalFailure,
    RealnessFailure,
    TrailingNotReal,
)
from .symplectic import TOL_DERIVED, assert_unitary

TOL_BLK = 1e-8  # block-diagonality of U^t U, relative to ||U^t U||_F
TOL_RECON = 1e-9
TOL_REAL = 1e-8  # a real factor's imaginary part, relative to max(1, ||W||_F)
CLUSTER_TOL = 1e-8
IMAG_TOL = 1e-10  # |Im sigma| at or below it counts as real

__all__ = [
    "ODOFactorization",
    "SortedDiagonal",
    "assert_product",
    "block_diag_test",
    "joint_diagonalize_commuting_symmetric",
    "odo_svd",
    "real_factor",
    "takagi_symmetric_unitary",
    "sort_by_imag",
]


def block_diag_test(u: np.ndarray, d: int, tol: float = TOL_BLK):
    """Decide whether U^t U is d x d block-diagonal.

    Returns (is_block_diagonal, offdiag_norm) where the decision compares
    ||S12||_F + ||S21||_F against tol * ||S||_F and offdiag_norm is the
    Frobenius norm of the combined off-diagonal part.
    """
    u = assert_unitary(u, what="block_diag_test")
    if u.shape[0] != 2 * d:
        raise DimensionMismatch(f"expected size {2 * d}, got {u.shape[0]}")
    s = u.T @ u
    s12 = np.linalg.norm(s[:d, d:])
    s21 = np.linalg.norm(s[d:, :d])
    offdiag = float(np.hypot(s12, s21))
    return bool(s12 + s21 <= tol * np.linalg.norm(s)), offdiag


def joint_diagonalize_commuting_symmetric(
    x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Real orthogonal W with W^t x W and W^t y W both diagonal.

    Diagonalizes x, then diagonalizes y restricted to each x-eigenspace;
    eigenvalues of x within CLUSTER_TOL (relative to the spectral spread)
    are treated as one cluster.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    wx, v = np.linalg.eigh(x)
    scale = max(1.0, wx[-1] - wx[0])
    w = v.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and wx[stop] - wx[start] <= CLUSTER_TOL * scale:
            stop += 1
        if stop - start > 1:
            block = w[:, start:stop]
            sub = block.T @ y @ block
            sub = 0.5 * (sub + sub.T)
            _, r = np.linalg.eigh(sub)
            w[:, start:stop] = block @ r
        start = stop
    off_x = np.linalg.norm(w.T @ x @ w - np.diag(np.diag(w.T @ x @ w)))
    off_y = np.linalg.norm(w.T @ y @ w - np.diag(np.diag(w.T @ y @ w)))
    if max(off_x, off_y) > 1e-7 * max(1.0, np.linalg.norm(x) + np.linalg.norm(y)):
        raise NumericalFailure(
            f"joint diagonalization stalled (off-diagonal {max(off_x, off_y):.3e})"
        )
    return w


@dataclass(frozen=True)
class ODOFactorization:
    """U = W1 . diag(sigma) . W2 with W1, W2 real orthogonal, |sigma| = 1."""

    w1: np.ndarray
    sigma: np.ndarray
    w2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.w1 * self.sigma) @ self.w2


def assert_product(a: np.ndarray, b: np.ndarray, m: np.ndarray, what: str):
    """Raise NumericalFailure unless ||A B - M|| <= TOL_RECON max(1, ||M||)."""
    recon = np.linalg.norm(a @ b - m)
    if not recon <= TOL_RECON * max(1.0, np.linalg.norm(m)):
        raise NumericalFailure(f"{what} reconstruction residual {recon:.3e}")


def real_factor(u: np.ndarray, v: np.ndarray, what: str) -> np.ndarray:
    """Real orthogonal W = U V^* of U = W V, V unitary with V^t V = U^t U.

    Such a W is unitary and complex orthogonal, hence real: its imaginary
    part must vanish and W V must reproduce U.
    """
    w = u @ v.conj().T
    imag = np.linalg.norm(w.imag)
    if imag > TOL_REAL * max(1.0, np.linalg.norm(w)):
        raise RealnessFailure(f"{what}: imaginary part {imag:.3e} too large")
    w = np.ascontiguousarray(w.real)
    assert_product(w, v, u, what)
    return w


def _takagi(s: np.ndarray):
    """(sigma, W) with S = W diag(sigma)^2 W^t for symmetric unitary S.

    W jointly diagonalizes Re S and Im S; sigma is the principal square
    root of diag(W^t S W).
    """
    w = joint_diagonalize_commuting_symmetric(s.real, s.imag)
    diag = np.diag(w.T @ s.real @ w) + 1j * np.diag(w.T @ s.imag @ w)
    return np.exp(0.5j * np.angle(diag)), w


def odo_svd(u: np.ndarray) -> ODOFactorization:
    """Factor a unitary U as real-orthogonal x diagonal-unitary x real-orthogonal.

    The Takagi step U^t U = W diag(sigma)^2 W^t gives W2 = W^t, and W1 is
    the real factor of U = W1 (diag(sigma) W^t).
    """
    u = assert_unitary(u, what="odo_svd")
    sigma, w = _takagi(u.T @ u)
    return ODOFactorization(real_factor(u, sigma[:, None] * w.T, "odo_svd W1"), sigma, w.T)


def takagi_symmetric_unitary(s: np.ndarray) -> np.ndarray:
    """Unitary V with V^t V = S for symmetric unitary S."""
    s = assert_unitary(s, what="takagi input")
    if np.linalg.norm(s - s.T) > 1e-10 * max(1.0, np.linalg.norm(s)):
        raise NotSymmetric("takagi input is not symmetric")
    sigma, w = _takagi(s)
    v = sigma[:, None] * w.T
    assert_product(v.T, v, s, "takagi")
    return v


@dataclass(frozen=True)
class SortedDiagonal:
    """Sorted arrangement diag(sigma) = left @ diag(input) @ right.

    left is a signed permutation and right the transposed permutation part,
    so both are real orthogonal.  Entries satisfy
    Im sigma_1 >= ... >= Im sigma_k > 0 and sigma_j = 1 for j > k.
    """

    left: np.ndarray
    right: np.ndarray
    sigma: np.ndarray
    k: int


def sort_by_imag(sigma) -> SortedDiagonal:
    """Sort a diagonal unitary per descending imaginary part.

    Sign flips make every entry satisfy Im > 0 or equal +1; a permutation
    then orders the imaginary parts descending (ties broken by real part
    descending).
    """
    sigma = np.asarray(sigma, dtype=complex)
    n = sigma.size
    if np.any(np.abs(np.abs(sigma) - 1.0) > TOL_DERIVED):
        raise NotUnitary("diagonal entries are not unit modulus")
    signs = np.ones(n)
    flipped = sigma.copy()
    for j in range(n):
        if abs(sigma[j].imag) <= IMAG_TOL:
            if abs(abs(sigma[j].real) - 1.0) > TOL_DERIVED:
                raise TrailingNotReal(f"entry {sigma[j]} has zero Im but |Re| != 1")
            if sigma[j].real < 0:
                signs[j] = -1.0
        elif sigma[j].imag < 0:
            signs[j] = -1.0
        flipped[j] = signs[j] * sigma[j]
    order = sorted(range(n), key=lambda j: (-flipped[j].imag, -flipped[j].real))
    perm = np.zeros((n, n))
    for i, j in enumerate(order):
        perm[i, j] = 1.0
    left = perm @ np.diag(signs)
    right = perm.T
    sorted_sigma = flipped[order]
    k = int(np.sum(sorted_sigma.imag > IMAG_TOL))
    sorted_sigma[k:] = 1.0
    return SortedDiagonal(left, right, sorted_sigma, k)
