"""Structured factorizations of unitary matrices.

The workhorse is the observation that S = U^t U is symmetric unitary, so
its real and imaginary parts are commuting real symmetric matrices with
X^2 + Y^2 = I.  Jointly diagonalizing the pair by one real orthogonal
matrix yields both the real-orthogonal x diagonal-unitary x real-orthogonal
(ODO) factorization of U and the Takagi factorization of S.
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
from .symplectic import TOL_UNIT, assert_unitary

TOL_RECON = 1e-9
CLUSTER_TOL = 1e-8
IMAG_TOL = 1e-10  # |Im sigma| at or below it counts as real

__all__ = [
    "ODOFactorization",
    "SortedDiagonal",
    "block_diag_test",
    "joint_diagonalize_commuting_symmetric",
    "odo_svd",
    "takagi_symmetric_unitary",
    "sort_by_imag",
]


def block_diag_test(u: np.ndarray, d: int, tol: float = 1e-8):
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


def _realify(w: np.ndarray, what: str, tol: float = 1e-8) -> np.ndarray:
    imag = np.linalg.norm(w.imag)
    if imag > tol * max(1.0, np.linalg.norm(w)):
        raise RealnessFailure(f"{what}: imaginary part {imag:.3e} too large")
    return np.ascontiguousarray(w.real)


def odo_svd(u: np.ndarray) -> ODOFactorization:
    """Factor a unitary U as real-orthogonal x diagonal-unitary x real-orthogonal.

    Route: S = U^t U = X + iY has commuting symmetric parts; a joint
    diagonalizer W gives S = W diag(sigma^2) W^t.  With sigma the principal
    square roots, W2 = W^t and W1 = U W diag(conj(sigma)) is automatically
    real: it is unitary and complex-orthogonal at exact arithmetic.
    Residual column phases are absorbed into sigma before realness is
    enforced.
    """
    u = assert_unitary(u, what="odo_svd")
    s = u.T @ u
    w = joint_diagonalize_commuting_symmetric(s.real, s.imag)
    sigma_sq = np.diag(w.T @ s.real @ w) + 1j * np.diag(w.T @ s.imag @ w)
    mod = np.abs(sigma_sq)
    if np.any(np.abs(mod - 1.0) > 1e-8):
        raise NumericalFailure("eigenvalues of U^t U drifted off the unit circle")
    sigma = np.exp(0.5j * np.angle(sigma_sq))
    w1 = u @ w * sigma.conj()
    # absorb per-column phases (any diagonal-unitary branch keeps the product)
    phases = np.ones_like(sigma)
    for j in range(w1.shape[1]):
        z = np.sum(w1[:, j] ** 2)
        if abs(z) > 1e-12:
            phases[j] = np.exp(-0.5j * np.angle(z))
    w1 = w1 * phases
    sigma = sigma * phases.conj()
    w1 = _realify(w1, "odo_svd W1")
    fact = ODOFactorization(w1, sigma, w.T)
    recon = np.linalg.norm(fact.reconstruct() - u)
    if recon > TOL_RECON * max(1.0, np.linalg.norm(u)):
        raise NumericalFailure(f"odo_svd reconstruction residual {recon:.3e}")
    return fact


def takagi_symmetric_unitary(s: np.ndarray) -> np.ndarray:
    """Unitary V with V^t V = S for symmetric unitary S."""
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch("takagi input must be square")
    if np.linalg.norm(s - s.T) > 1e-10 * max(1.0, np.linalg.norm(s)):
        raise NotSymmetric("takagi input is not symmetric")
    defect = np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0]))
    if defect > TOL_UNIT * max(1.0, np.linalg.norm(s)):
        raise NotUnitary(f"takagi input is not unitary (defect {defect:.3e})")
    w = joint_diagonalize_commuting_symmetric(s.real, s.imag)
    diag = np.diag(w.T @ s.real @ w) + 1j * np.diag(w.T @ s.imag @ w)
    v = np.exp(0.5j * np.angle(diag))[:, None] * w.T
    recon = np.linalg.norm(v.T @ v - s)
    if recon > TOL_RECON * max(1.0, np.linalg.norm(s)):
        raise NumericalFailure(f"takagi reconstruction residual {recon:.3e}")
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
    descending).  Accepts a vector of diagonal entries or a diagonal matrix.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim == 2:
        if np.linalg.norm(sigma - np.diag(np.diag(sigma))) > 1e-12:
            raise DimensionMismatch("sort_by_imag expects a diagonal matrix")
        sigma = np.diag(sigma)
    n = sigma.size
    if np.any(np.abs(np.abs(sigma) - 1.0) > 1e-8):
        raise NotUnitary("diagonal entries are not unit modulus")
    signs = np.ones(n)
    flipped = sigma.copy()
    for j in range(n):
        if abs(sigma[j].imag) <= IMAG_TOL:
            if abs(abs(sigma[j].real) - 1.0) > 1e-8:
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
