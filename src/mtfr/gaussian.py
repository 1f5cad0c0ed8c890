"""Closed-form calculus of generalized Gaussians under metaplectic operators.

A generalized Gaussian is f(x) = exp(-pi x.Mx + 2pi b.x + logamp) with
complex symmetric M, Re M positive definite, complex b, and real logamp.
The global phase is dropped by convention (logamp is real): every identity
this library checks is stated in absolute value, so metaplectic phase
cocycles and square-root branches stay out of the data model.

The class is closed under chirps, dilations, and partial Fourier
transforms, which makes it a machine-precision oracle for the grid engine
and for the certificate identities.  Every metaplectic action here goes
through its symplectic matrix S = ((A, B), (C, D)) in one Siegel-space
step: with Z = iM, the image has Z' = (C + DZ)(A + BZ)^{-1}.  A word acts
through its product matrix, and `apply_dilation` and
`apply_partial_fourier` are the one-letter words.  The letters' closed
forms are the special cases: a chirp gives Z + Q, a dilation
L^{-T} Z L^{-1}, and the Fourier transform on every axis -Z^{-1}; the
test suite walks them letter by letter as an independent reference.  The
only conditioning guard of a word is cond(A + BZ), so a word whose
intermediate Fourier block is ill-conditioned does not raise when its
product is well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .symplectic import Dilation, GeneratorWord, PartialFourier, _blkdiag, _symmetrize_checked

COND_MAX = 1e12

__all__ = [
    "GeneralizedGaussian",
    "standard_gaussian",
    "random_gaussian",
    "evaluate",
    "log_modulus",
    "apply_dilation",
    "apply_partial_fourier",
    "apply_symplectic",
    "apply_word",
    "tensor",
    "conjugate",
    "partial_stft_point",
    "partial_stft_log_modulus",
]


@dataclass(frozen=True)
class GeneralizedGaussian:
    m: np.ndarray
    b: np.ndarray
    logamp: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("quadratic form must be square")
        if b.shape[0] != m.shape[0]:
            raise DimensionMismatch("linear term size does not match")
        m = _symmetrize_checked(m, 1e-10, "quadratic form", NumericalFailure)
        if not math.isfinite(np.vdot(b, b).real) and not np.isfinite(b).all():
            raise DimensionMismatch("linear term entries must be finite")
        logamp = float(self.logamp)
        if not math.isfinite(logamp):
            raise DimensionMismatch("logamp must be finite")
        if np.linalg.eigvalsh(m.real)[0] <= 0.0:
            raise NumericalFailure("Re M must be positive definite")
        m.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "logamp", logamp)

    @property
    def n(self) -> int:
        return self.m.shape[0]


def standard_gaussian(n: int) -> GeneralizedGaussian:
    """exp(-pi |x|^2) scaled to unit L^2 norm (logamp = n log(2)/4)."""
    return GeneralizedGaussian(np.eye(n), np.zeros(n), 0.25 * n * np.log(2.0))


def random_gaussian(n: int, rng: np.random.Generator) -> GeneralizedGaussian:
    """Well-conditioned random instance (Re M eigenvalues in ~[0.4, 3])."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    re = a @ a.T / n + 0.4 * np.eye(n)
    t = rng.uniform(-0.7, 0.7, size=(n, n))
    im = 0.5 * (t + t.T)
    b = rng.uniform(-0.5, 0.5, size=n) + 1j * rng.uniform(-0.5, 0.5, size=n)
    return GeneralizedGaussian(re + 1j * im, b, float(rng.uniform(-0.3, 0.3)))


def _exponent(g: GeneralizedGaussian, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    quad = np.einsum("...i,ij,...j->...", x, g.m, x)
    lin = x @ g.b
    return -np.pi * quad + 2.0 * np.pi * lin + g.logamp


def evaluate(g: GeneralizedGaussian, x) -> np.ndarray:
    """Complex value(s) at point(s) x of shape (..., n); global phase 0."""
    return np.exp(_exponent(g, x))


def log_modulus(g: GeneralizedGaussian, x) -> np.ndarray:
    return np.real(_exponent(g, x))


def apply_dilation(g: GeneralizedGaussian, l) -> GeneralizedGaussian:
    """|det L|^{-1/2} f(L^{-1} x): `apply_word` of the one-letter word D_L."""
    return apply_word(g, GeneratorWord(g.n, (Dilation(l),)))


def apply_partial_fourier(g: GeneralizedGaussian, axes) -> GeneralizedGaussian:
    """Fourier transform over the axis subset: `apply_word` of the one-letter
    word of that `PartialFourier` letter."""
    return apply_word(g, GeneratorWord(g.n, (PartialFourier(axes),)))


def _conditioned_svd(p: np.ndarray, what: str) -> np.ndarray:
    """The singular values of p, largest first; NumericalFailure unless cond(p) <= COND_MAX."""
    sv = np.linalg.svd(p, compute_uv=False)
    cond = sv[0] / sv[-1]  # what np.linalg.cond computes, from one SVD
    if not cond <= COND_MAX:  # an infinite or nan condition fails too
        raise NumericalFailure(f"{what} condition {cond:.3e} beyond cutoff")
    return sv


def apply_symplectic(g: GeneralizedGaussian, s) -> GeneralizedGaussian:
    """The metaplectic operator of S = ((A, B), (C, D)), up to a phase.

    With Z = iM and P = A + BZ, the image has

        Z' = (C + DZ) P^{-1},  b' = P^{-T} b,
        logamp' = logamp - log|det P| / 2 + Re(i pi b.P^{-1} B b).

    For a symplectic S, P is invertible whenever Re M > 0.  Its condition
    number is guarded against COND_MAX, and log|det P| comes from the same
    singular values.  The result goes through the constructor, which checks
    it in full.
    """
    s = np.asarray(s, dtype=float)
    n = g.n
    if s.shape != (2 * n, 2 * n):
        raise DimensionMismatch("symplectic matrix size does not match")
    a, bb, c, d = s[:n, :n], s[:n, n:], s[n:, :n], s[n:, n:]
    z = 1j * g.m
    p = a + bb @ z
    sv = _conditioned_svd(p, "A + BZ")
    p_inv = np.linalg.inv(p)
    m = -1j * ((c + d @ z) @ p_inv)
    logamp = (
        g.logamp
        - 0.5 * float(np.sum(np.log(sv)))
        + float(np.real(1j * np.pi * (g.b @ p_inv @ (bb @ g.b))))
    )
    return GeneralizedGaussian(m, p_inv.T @ g.b, logamp)


def apply_word(g: GeneralizedGaussian, word: GeneratorWord) -> GeneralizedGaussian:
    """Apply the word as an operator (the last letter acts first), in one
    step through its matrix; see `apply_symplectic`."""
    if word.n != g.n:
        raise DimensionMismatch("word dimension does not match Gaussian")
    return apply_symplectic(g, word.matrix())


def tensor(g1: GeneralizedGaussian, g2: GeneralizedGaussian) -> GeneralizedGaussian:
    return GeneralizedGaussian(
        _blkdiag(g1.m, g2.m), np.concatenate([g1.b, g2.b]), g1.logamp + g2.logamp
    )


def conjugate(g: GeneralizedGaussian) -> GeneralizedGaussian:
    return GeneralizedGaussian(g.m.conj(), g.b.conj(), g.logamp)


# ---------------------------------------------------------------------------
# partial short-time Fourier transform, in closed form


def partial_stft_log_modulus(
    f: GeneralizedGaussian,
    g: GeneralizedGaussian,
    k: int,
    x,
    omega,
) -> np.ndarray:
    """log |V^k_g f(x1, x2, omega1, omega2)| for Gaussian f, g.

    The transform integrates F = f (x) conj(g) times e^{-2pi i t.omega1}
    over the affine slice u = (t, x2, t - x1, -omega2) = Pt + q, t in R^k,
    where P puts t on the axes :k and d:d+k.  F has M = diag(M_f, conj M_g)
    and b = (b_f, conj b_g); with r = b - Mq the integrand is
    exp(-pi t.(P^T M P)t + 2pi t.(P^T r - i omega1) + logamps + pi q.(r + b)),
    so the integral has a closed form.  Points may be batched: x, omega of
    shape (..., d).
    """
    d = f.n
    if g.n != d:
        raise DimensionMismatch("window dimension does not match")
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}, d={d}")
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if x.shape[-1] != d or omega.shape[-1] != d:
        raise DimensionMismatch("points must have d coordinates")
    m = _blkdiag(f.m, g.m.conj())
    b = np.concatenate([f.b, g.b.conj()])
    mt = m[:k, :k] + m[d : d + k, d : d + k]
    _conditioned_svd(mt, "combined quadratic form")

    q = np.zeros(np.broadcast_shapes(x.shape, omega.shape)[:-1] + (2 * d,))
    q[..., k:d] = x[..., k:]
    q[..., d : d + k] = -x[..., :k]
    q[..., d + k :] = -omega[..., k:]
    r = b - q @ m
    w = r[..., :k] + r[..., d : d + k] - 1j * omega[..., :k]
    const = f.logamp + g.logamp + np.pi * np.sum(q * (r + b), axis=-1)
    mt_inv = np.linalg.inv(mt)
    quad = np.einsum("...i,ij,...j->...", w, 0.5 * (mt_inv + mt_inv.T), w)
    sign, logdet = np.linalg.slogdet(mt)
    return np.real(np.pi * quad + const) - 0.5 * np.real(logdet)


def partial_stft_point(f, g, k, x, omega):
    """|V^k_g f| at the given point(s); see partial_stft_log_modulus."""
    return np.exp(partial_stft_log_modulus(f, g, k, x, omega))
