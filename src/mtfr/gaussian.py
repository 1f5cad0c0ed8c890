"""Closed-form calculus of generalized Gaussians under metaplectic letters.

A generalized Gaussian is f(x) = exp(-pi x.Mx + 2pi b.x + logamp) with
complex symmetric M, Re M positive definite, complex b, and real logamp.
The global phase is dropped by convention (logamp is real): every identity
this library checks is stated in absolute value, so metaplectic phase
cocycles and square-root branches stay out of the data model.

The class is closed under chirps, dilations, and partial Fourier
transforms, which makes it a machine-precision oracle for the grid engine
and for the certificate identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, Singular
from .symplectic import Chirp, Dilation, GeneratorWord, PartialFourier

COND_MAX = 1e12

__all__ = [
    "GeneralizedGaussian",
    "standard_gaussian",
    "random_gaussian",
    "evaluate",
    "log_modulus",
    "modulus",
    "log_l2_norm",
    "l1_norm",
    "apply_chirp",
    "apply_dilation",
    "apply_partial_fourier",
    "apply_letter",
    "apply_word",
    "tensor",
    "conjugate",
    "restrict",
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
        skew = m - m.T
        # Frobenius norms: vdot flattens and conjugates its first argument;
        # a norm that is not finite sends the entries to an isfinite check
        asym = math.sqrt(np.vdot(skew, skew).real)
        size = math.sqrt(np.vdot(m, m).real)
        if not math.isfinite(size) and not np.isfinite(m).all():
            raise DimensionMismatch("quadratic form entries must be finite")
        if not math.isfinite(np.vdot(b, b).real) and not np.isfinite(b).all():
            raise DimensionMismatch("linear term entries must be finite")
        logamp = float(self.logamp)
        if not math.isfinite(logamp):
            raise DimensionMismatch("logamp must be finite")
        if asym > 1e-10 * max(1.0, size):
            raise NumericalFailure(f"quadratic form asymmetry {asym:.3e}")
        m = 0.5 * (m + m.T)
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


def modulus(g: GeneralizedGaussian, x) -> np.ndarray:
    return np.exp(log_modulus(g, x))


def log_l2_norm(g: GeneralizedGaussian) -> float:
    """log ||f||_2 in closed form: the modulus is a real Gaussian."""
    x = g.m.real
    u = g.b.real
    sign, logdet = np.linalg.slogdet(2.0 * x)
    quad = u @ np.linalg.solve(x, u)
    return float(g.logamp - 0.25 * logdet + np.pi * quad)


def l1_norm(g: GeneralizedGaussian) -> float:
    """Integral of |f| in closed form."""
    x = g.m.real
    u = g.b.real
    sign, logdet = np.linalg.slogdet(x)
    quad = u @ np.linalg.solve(x, u)
    return float(np.exp(g.logamp - 0.5 * logdet + np.pi * quad))


def apply_chirp(g: GeneralizedGaussian, q) -> GeneralizedGaussian:
    """Multiply by e^{i pi x.Qx}: M <- M - iQ; the modulus is unchanged.

    A finite, exactly symmetric Q (every `Chirp` letter's: the letter
    symmetrizes it exactly) leaves M - iQ exactly symmetric with the real
    part of M, so the input's checks carry over and the constructor, whose
    symmetrization would be the identity, is skipped.  Any other Q goes
    through the constructor.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (g.n, g.n):
        raise DimensionMismatch("chirp size does not match")
    m = g.m - 1j * q
    if not (np.isfinite(q).all() and (q == q.T).all()):
        return GeneralizedGaussian(m, g.b, g.logamp)
    m.flags.writeable = False
    out = object.__new__(GeneralizedGaussian)
    object.__setattr__(out, "m", m)
    object.__setattr__(out, "b", g.b)
    object.__setattr__(out, "logamp", g.logamp)
    return out


def apply_dilation(g: GeneralizedGaussian, l) -> GeneralizedGaussian:
    """|det L|^{-1/2} f(L^{-1} x)."""
    l = np.asarray(l, dtype=float)
    if l.shape != (g.n, g.n):
        raise DimensionMismatch("dilation size does not match")
    sign, logdet = np.linalg.slogdet(l)
    if sign == 0.0:
        raise Singular("dilation matrix is singular")
    linv = np.linalg.inv(l)
    m = linv.T @ g.m @ linv
    return GeneralizedGaussian(0.5 * (m + m.T), linv.T @ g.b, g.logamp - 0.5 * logdet)


def apply_partial_fourier(g: GeneralizedGaussian, axes) -> GeneralizedGaussian:
    """Fourier transform over the axis subset, in closed form.

    With M partitioned into the transform block S and the rest R and
    K = M_SS^{-1}, the image has

        M'_SS = K,  M'_SR = -i K M_SR,  M'_RR = M_RR - M_RS K M_SR,
        b'_S = -i K b_S,  b'_R = b_R - M_RS K b_S,
        logamp' += Re(pi b_S.K b_S) - log|det M_SS| / 2,

    the completed-square image of exp(-pi x.Mx + 2pi b.x) under
    int exp(-2pi i x_S.w_S) dx_S.
    """
    axes = tuple(sorted(set(int(a) for a in axes)))
    if not axes or axes[-1] >= g.n or axes[0] < 0:
        raise DimensionMismatch(f"bad axis set {axes} for dimension {g.n}")
    idx_s = np.array(axes, dtype=int)
    idx_r = np.array([a for a in range(g.n) if a not in axes], dtype=int)
    ss = np.ix_(idx_s, idx_s)
    mss = g.m[ss]
    sv = np.linalg.svd(mss, compute_uv=False)
    cond = sv[0] / sv[-1]  # what np.linalg.cond computes, from one SVD
    if not np.isfinite(cond) or cond > COND_MAX:
        raise NumericalFailure(f"transform block condition {cond:.3e} beyond cutoff")
    k = np.linalg.inv(mss)
    k = 0.5 * (k + k.T)
    bs = g.b[idx_s]
    m_new = np.zeros_like(g.m)
    b_new = np.zeros_like(g.b)
    m_new[ss] = k
    if idx_r.size:
        sr, rr = np.ix_(idx_s, idx_r), np.ix_(idx_r, idx_r)
        msr = g.m[sr]
        m_new[sr] = -1j * k @ msr
        m_new[np.ix_(idx_r, idx_s)] = -1j * msr.T @ k
        m_new[rr] = g.m[rr] - msr.T @ k @ msr
        b_new[idx_r] = g.b[idx_r] - msr.T @ k @ bs
    b_new[idx_s] = -1j * k @ bs
    sign, logdet = np.linalg.slogdet(mss)
    logamp = g.logamp + np.real(np.pi * bs @ k @ bs) - 0.5 * np.real(logdet)
    return GeneralizedGaussian(m_new, b_new, logamp)


def apply_letter(g: GeneralizedGaussian, letter) -> GeneralizedGaussian:
    if isinstance(letter, Chirp):
        return apply_chirp(g, letter.q)
    if isinstance(letter, Dilation):
        return apply_dilation(g, letter.l)
    if isinstance(letter, PartialFourier):
        return apply_partial_fourier(g, letter.axes)
    raise TypeError(f"unknown letter {letter!r}")


def apply_word(g: GeneralizedGaussian, word: GeneratorWord) -> GeneralizedGaussian:
    """Apply the word as an operator: the last letter acts first."""
    if word.n != g.n:
        raise DimensionMismatch("word dimension does not match Gaussian")
    for letter in reversed(word.letters):
        g = apply_letter(g, letter)
    return g


def tensor(g1: GeneralizedGaussian, g2: GeneralizedGaussian) -> GeneralizedGaussian:
    m = np.zeros((g1.n + g2.n, g1.n + g2.n), dtype=complex)
    m[: g1.n, : g1.n] = g1.m
    m[g1.n :, g1.n :] = g2.m
    return GeneralizedGaussian(
        m, np.concatenate([g1.b, g2.b]), g1.logamp + g2.logamp
    )


def conjugate(g: GeneralizedGaussian) -> GeneralizedGaussian:
    return GeneralizedGaussian(g.m.conj(), g.b.conj(), g.logamp)


def restrict(g: GeneralizedGaussian, fixed_axes, values) -> GeneralizedGaussian:
    """Freeze the given axes at the given real values; the result is a
    generalized Gaussian in the remaining variables."""
    fixed_axes = tuple(int(a) for a in fixed_axes)
    values = np.asarray(values, dtype=float).reshape(-1)
    idx_f = np.array(fixed_axes, dtype=int)
    idx_k = np.array([a for a in range(g.n) if a not in fixed_axes], dtype=int)
    mkk = g.m[np.ix_(idx_k, idx_k)]
    mkf = g.m[np.ix_(idx_k, idx_f)]
    mff = g.m[np.ix_(idx_f, idx_f)]
    b_new = g.b[idx_k] - mkf @ values
    const = -np.pi * values @ mff @ values + 2.0 * np.pi * g.b[idx_f] @ values
    # the frozen-axes constant is complex; its modulus goes to logamp and the
    # residual phase is dropped, consistent with the global-phase convention
    return GeneralizedGaussian(mkk, b_new, g.logamp + float(np.real(const)))


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

    The transform integrates f(t, x2) conj(g(t - x1, -omega2))
    e^{-2pi i t.omega1} over t in R^k; the integrand is a k-dimensional
    generalized Gaussian in t, so the integral has a closed form.  Points
    may be batched: x, omega of shape (..., d).
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
    x1, x2 = x[..., :k], x[..., k:]
    w1, w2 = omega[..., :k], omega[..., k:]

    mf = f.m
    ng = g.m.conj()
    bf = f.b
    bg = g.b.conj()

    mt = mf[:k, :k] + ng[:k, :k]
    cond = np.linalg.cond(mt)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise NumericalFailure(f"combined quadratic form condition {cond:.3e}")

    # linear coefficient of 2pi t.( ) in the integrand
    w = (
        bf[:k]
        + bg[:k]
        - x2 @ mf[:k, k:].T
        + x1 @ ng[:k, :k].T
        + w2 @ ng[:k, k:].T
        - 1j * w1
    )
    # t-independent part of the exponent
    const = (
        f.logamp
        + g.logamp
        - np.pi * np.einsum("...i,ij,...j->...", x2, mf[k:, k:], x2)
        + 2.0 * np.pi * (x2 @ bf[k:])
        - np.pi * np.einsum("...i,ij,...j->...", x1, ng[:k, :k], x1)
        - 2.0 * np.pi * np.einsum("...i,ij,...j->...", x1, ng[:k, k:], w2)
        - np.pi * np.einsum("...i,ij,...j->...", w2, ng[k:, k:], w2)
        - 2.0 * np.pi * (x1 @ bg[:k])
        - 2.0 * np.pi * (w2 @ bg[k:])
    )
    mt_inv = np.linalg.inv(mt)
    quad = np.einsum("...i,ij,...j->...", w, 0.5 * (mt_inv + mt_inv.T), w)
    sign, logdet = np.linalg.slogdet(mt)
    return np.real(np.pi * quad + const) - 0.5 * np.real(logdet)


def partial_stft_point(f, g, k, x, omega):
    """|V^k_g f| at the given point(s); see partial_stft_log_modulus."""
    return np.exp(partial_stft_log_modulus(f, g, k, x, omega))
