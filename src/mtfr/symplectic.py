"""Real symplectic matrices, generator letters, and factorizations.

Vectors in R^{2n} are ordered (x, omega) and matrices use the block
convention ((A, B), (C, D)) with the skew form J = ((0, I), (-I, 0)).
The three generator families are

    chirp      V_Q = ((I, 0), (Q, I)),      Q symmetric,
    dilation   D_L = ((L, 0), (0, L^-T)),   L invertible,
    rotation   R_U = ((Re U, Im U), (-Im U, Re U)),   U unitary,

and a generator word is an ordered product of chirps, dilations, and
partial Fourier letters (rotations by diag(i on S, 1 off S)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoTauFound,
    NotFree,
    NotSymmetric,
    NotSymplectic,
    NotUnitary,
    NumericalFailure,
    Singular,
)

TOL_SYMPL = 1e-10
TOL_SYM = 1e-12
TOL_UNIT = 1e-10
TOL_INV = 1e-8

__all__ = [
    "Chirp",
    "Dilation",
    "PartialFourier",
    "GeneratorWord",
    "SymplecticMatrix",
    "PreIwasawa",
    "standard_j",
    "symplectic_defect",
    "make_chirp",
    "make_dilation",
    "make_rotation",
    "pre_iwasawa",
    "free_factorize",
    "select_tau_balanced",
    "rotation_word",
    "factor_to_word",
    "random_word",
    "random_symplectic",
    "invert_word",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _reject_non_finite(a: np.ndarray, what: str):
    """Raise DimensionMismatch unless every entry of a is finite.

    The fallback for a norm of a that came out inf or nan: only then are
    the entries looked at, so a huge but finite a still passes.
    """
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what}: entries must be finite")


def _symmetrize_checked(q: np.ndarray, tol: float, what: str) -> np.ndarray:
    skew = q - q.T
    # Frobenius norms: vdot flattens its arguments
    defect = math.sqrt(np.vdot(skew, skew))
    size = math.sqrt(np.vdot(q, q))
    if not math.isfinite(size):
        _reject_non_finite(q, what)
    if defect > tol * max(1.0, size):
        raise NotSymmetric(f"{what}: asymmetry {defect:.3e} exceeds tolerance")
    return 0.5 * (q + q.T)


def standard_j(n: int) -> np.ndarray:
    """Matrix of the standard skew form on R^{2n}."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def symplectic_defect(m: np.ndarray) -> float:
    """Relative residual ||M^t J M - J||_F / max(1, ||M||_F^2)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2
    j = standard_j(n)
    return np.linalg.norm(m.T @ j @ m - j) / max(1.0, np.linalg.norm(m) ** 2)


# ---------------------------------------------------------------------------
# generator letters


@dataclass(frozen=True)
class Chirp:
    """Lower-triangular shear V_Q; the metaplectic action multiplies by e^{i pi x.Qx}."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch("chirp matrix must be square")
        q = _symmetrize_checked(q, TOL_SYM, "Chirp")
        object.__setattr__(self, "q", _freeze(q))

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class Dilation:
    """Coordinate change D_L; the metaplectic action is |det L|^{-1/2} f(L^{-1}x)."""

    l: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        if l.ndim != 2 or l.shape[0] != l.shape[1]:
            raise DimensionMismatch("dilation matrix must be square")
        # sigma_min against ||L||_2 = sigma_max, both from one SVD
        try:
            sv = np.linalg.svd(l, compute_uv=False)
        except np.linalg.LinAlgError:
            _reject_non_finite(l, "Dilation")  # a nan entry stops the SVD
            raise
        if not math.isfinite(sv[0]):  # an infinite entry makes it nan
            _reject_non_finite(l, "Dilation")
        if sv[-1] <= TOL_INV * max(1.0, sv[0]):
            raise Singular("Dilation: matrix is singular at tolerance")
        object.__setattr__(self, "l", _freeze(l))

    @property
    def n(self) -> int:
        return self.l.shape[0]


@dataclass(frozen=True)
class PartialFourier:
    """Fourier transform over the (0-based) axis subset; R_{diag(i on S, 1 off S)}."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(sorted(int(a) for a in set(self.axes)))
        if not axes:
            raise DimensionMismatch("PartialFourier needs a nonempty axis set")
        if any(a < 0 for a in axes):
            raise DimensionMismatch("PartialFourier axes must be nonnegative")
        object.__setattr__(self, "axes", axes)


Letter = (Chirp, Dilation, PartialFourier)


def letter_matrix(letter, n: int) -> np.ndarray:
    """2n x 2n symplectic matrix of a single generator letter."""
    if isinstance(letter, Chirp):
        if letter.n != n:
            raise DimensionMismatch("chirp size does not match word dimension")
        m = np.eye(2 * n)
        m[n:, :n] = letter.q
        return m
    if isinstance(letter, Dilation):
        if letter.n != n:
            raise DimensionMismatch("dilation size does not match word dimension")
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = letter.l
        m[n:, n:] = np.linalg.inv(letter.l).T
        return m
    if isinstance(letter, PartialFourier):
        if letter.axes[-1] >= n:
            raise DimensionMismatch("PartialFourier axis beyond dimension")
        a = np.ones(n)
        b = np.zeros(n)
        for ax in letter.axes:
            a[ax], b[ax] = 0.0, 1.0
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = np.diag(a)
        m[:n, n:] = np.diag(b)
        m[n:, :n] = -np.diag(b)
        m[n:, n:] = np.diag(a)
        return m
    raise TypeError(f"unknown letter {letter!r}")


@dataclass(frozen=True)
class GeneratorWord:
    """Ordered product of generator letters; letters[0] is the leftmost factor.

    As an operator the word acts right-to-left: the last letter is applied
    first, matching the matrix product of `matrix()`.
    """

    n: int
    letters: tuple

    def __post_init__(self):
        letters = tuple(self.letters)
        for letter in letters:
            if not isinstance(letter, Letter):
                raise TypeError(f"not a generator letter: {letter!r}")
        object.__setattr__(self, "letters", letters)

    def matrix(self) -> np.ndarray:
        m = np.eye(2 * self.n)
        for letter in self.letters:
            m = m @ letter_matrix(letter, self.n)
        return m

    def __len__(self) -> int:
        return len(self.letters)


def invert_word(word: GeneratorWord) -> GeneratorWord:
    """Word realizing the inverse operator (and inverse matrix).

    The inverse of a partial Fourier letter is the same letter followed by
    the parity reflection on its axes, since F^2 is the parity operator.
    """
    out = []
    for letter in reversed(word.letters):
        if isinstance(letter, Chirp):
            out.append(Chirp(-letter.q))
        elif isinstance(letter, Dilation):
            out.append(Dilation(np.linalg.inv(letter.l)))
        else:
            sign = np.ones(word.n)
            for ax in letter.axes:
                sign[ax] = -1.0
            out.append(letter)
            out.append(Dilation(np.diag(sign)))
    return GeneratorWord(word.n, tuple(out))


# ---------------------------------------------------------------------------
# symplectic matrices


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real 2n x 2n matrix certified to satisfy M^t J M = J at tolerance."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatch(
                f"expected shape {(2 * self.n, 2 * self.n)}, got {m.shape}"
            )
        defect = symplectic_defect(m)
        if defect > TOL_SYMPL:
            raise NotSymplectic(f"symplectic defect {defect:.3e} exceeds {TOL_SYMPL}")
        sign, logdet = np.linalg.slogdet(m)
        if sign != 1.0 or abs(logdet) > 1e-6 * max(1.0, np.linalg.norm(m)):
            raise NotSymplectic("determinant sanity check failed (expected +1)")
        object.__setattr__(self, "entries", _freeze(m))

    @classmethod
    def from_array(cls, m) -> "SymplecticMatrix":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise DimensionMismatch("symplectic matrix must be square of even size")
        return cls(m.shape[0] // 2, m)

    @property
    def a(self) -> np.ndarray:
        return self.entries[: self.n, : self.n]

    @property
    def b(self) -> np.ndarray:
        return self.entries[: self.n, self.n :]

    @property
    def c(self) -> np.ndarray:
        return self.entries[self.n :, : self.n]

    @property
    def d(self) -> np.ndarray:
        return self.entries[self.n :, self.n :]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.n != other.n:
            raise DimensionMismatch("size mismatch in symplectic product")
        return SymplecticMatrix(self.n, self.entries @ other.entries)


def make_chirp(q) -> SymplecticMatrix:
    """V_Q = ((I, 0), (Q, I)) for symmetric Q."""
    letter = Chirp(q)
    return SymplecticMatrix(letter.n, letter_matrix(letter, letter.n))


def make_dilation(l) -> SymplecticMatrix:
    """D_L = ((L, 0), (0, L^-T)) for invertible L."""
    letter = Dilation(l)
    return SymplecticMatrix(letter.n, letter_matrix(letter, letter.n))


def assert_unitary(u: np.ndarray, tol: float = TOL_UNIT, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"{what} must be square")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > tol * max(1.0, np.linalg.norm(u)):
        raise NotUnitary(f"{what}: unitarity defect {defect:.3e}")
    return u


def make_rotation(u) -> SymplecticMatrix:
    """R_U = ((Re U, Im U), (-Im U, Re U)) for unitary U; symplectic and orthogonal."""
    u = assert_unitary(u, what="make_rotation")
    n = u.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = u.real
    m[:n, n:] = u.imag
    m[n:, :n] = -u.imag
    m[n:, n:] = u.real
    return SymplecticMatrix(n, m)


# ---------------------------------------------------------------------------
# pre-Iwasawa decomposition


@dataclass(frozen=True)
class PreIwasawa:
    """Canonical factorization M = V_Q D_L R_U with L symmetric positive definite."""

    q: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _freeze(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "l", _freeze(np.asarray(self.l, dtype=float)))
        object.__setattr__(self, "u", _freeze(np.asarray(self.u, dtype=complex)))

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def reconstruct(self) -> np.ndarray:
        m = make_chirp(self.q).entries @ make_dilation(self.l).entries
        return m @ make_rotation(self.u).entries


def _spd_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    if w[0] <= 0.0:
        raise NumericalFailure("symmetric square root: matrix not positive definite")
    return (v * np.sqrt(w)) @ v.T


def pre_iwasawa(m: SymplecticMatrix) -> PreIwasawa:
    """Unique factorization M = V_Q D_L R_U with L = L^t > 0.

    Closed formulas: with blocks ((A, B), (C, D)),
    L = (A A^t + B B^t)^{1/2}, Q = (C A^t + D B^t)(A A^t + B B^t)^{-1},
    U = L^{-1}(A + i B).
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    s = a @ a.T + b @ b.T
    l = _spd_sqrt(s)
    q = np.linalg.solve(s.T, (c @ a.T + d @ b.T).T).T
    q = 0.5 * (q + q.T)
    u = np.linalg.solve(l, a + 1j * b)
    u = assert_unitary(u, tol=1e-8, what="pre_iwasawa U factor")
    return PreIwasawa(q, l, u)


# ---------------------------------------------------------------------------
# free factorization and generator words


def free_factorize(u: np.ndarray) -> GeneratorWord:
    """Four-letter word for R_U when Im U is invertible (a *free* rotation).

    R_U = V_{A B^{-1}} D_B J V_{B^{-1} A} with A = Re U, B = Im U; both chirp
    blocks are symmetric for unitary U.
    """
    u = assert_unitary(u, what="free_factorize")
    n = u.shape[0]
    a, b = u.real, u.imag
    smin = np.linalg.svd(b, compute_uv=False)[-1]
    if smin <= TOL_INV:
        raise NotFree(f"Im U has smallest singular value {smin:.3e}")
    q_left = np.linalg.solve(b.T, a.T).T  # A B^{-1}
    q_right = np.linalg.solve(b, a)  # B^{-1} A
    q_left = _symmetrize_checked(q_left, 1e-8, "free_factorize A B^-1")
    q_right = _symmetrize_checked(q_right, 1e-8, "free_factorize B^-1 A")
    letters = (
        Chirp(q_left),
        Dilation(b),
        PartialFourier(tuple(range(n))),
        Chirp(q_right),
    )
    return GeneratorWord(n, letters)


def select_tau_balanced(u: np.ndarray) -> complex:
    """Tau conditioning *both* factors of the split R_U = R_{tau U} R_{conj(tau) I}.

    tau = 1 leaves the second factor trivial and scores sigma_min(Im U);
    every other candidate scores min(sigma_min(Im(tau U)), |Im tau|), since
    the scalar factor's chirp and dilation letters are cot and sin of
    arg(tau).  Maximizing sigma_min alone can drive the scalar factor
    toward a real tau with unbounded chirps; the balanced score keeps every
    letter of the resulting word well conditioned.
    """
    u = assert_unitary(u, what="select_tau_balanced")
    base = np.linalg.svd(u.imag, compute_uv=False)[-1]
    for resolution in (64, 128):
        taus = np.array([np.exp(1j * np.pi * j / resolution) for j in range(1, resolution)])
        smin = np.linalg.svd((taus[:, None, None] * u).imag, compute_uv=False)[:, -1]
        scores = np.minimum(smin, np.abs(taus.imag))
        best = int(np.argmax(scores))  # the first of equal scores wins
        tau, val = (taus[best], scores[best]) if scores[best] > base else (1.0 + 0.0j, base)
        if val > TOL_INV:
            return tau
    raise NoTauFound("no tau with invertible Im(tau U) found in the scan")


def _scalar_rotation_word(tau: complex, n: int) -> list:
    """Letters for R_{tau I} with |tau| = 1; empty when tau = 1."""
    a, b = float(np.real(tau)), float(np.imag(tau))
    if abs(b) <= 1e-12:
        if a > 0:
            return []
        return [Dilation(-np.eye(n))]
    c = a / b
    return [
        Chirp(c * np.eye(n)),
        Dilation(b * np.eye(n)),
        PartialFourier(tuple(range(n))),
        Chirp(c * np.eye(n)),
    ]


def rotation_word(u: np.ndarray, tau: complex | None = None) -> list:
    """Letters realizing R_U via the split R_U = R_{tau U} R_{conj(tau) I}."""
    u = assert_unitary(u, what="rotation_word")
    n = u.shape[0]
    if np.linalg.norm(u.imag) <= 1e-12:
        v = u.real
        if np.linalg.norm(v - np.eye(n)) <= 1e-12:
            return []
        return [Dilation(v)]
    if tau is None:
        tau = select_tau_balanced(u)
    free = free_factorize(tau * u)
    return list(free.letters) + _scalar_rotation_word(np.conj(tau), n)


def factor_to_word(m: SymplecticMatrix, tau: complex | None = None) -> GeneratorWord:
    """Generator word reconstructing M, built from the pre-Iwasawa factors."""
    pi = pre_iwasawa(m)
    n = m.n
    letters = []
    if np.linalg.norm(pi.q) > 1e-14:
        letters.append(Chirp(pi.q))
    if np.linalg.norm(pi.l - np.eye(n)) > 1e-14:
        letters.append(Dilation(pi.l))
    letters.extend(rotation_word(pi.u, tau=tau))
    return GeneratorWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# random instances


def random_word(n: int, word_length: int, rng: np.random.Generator) -> GeneratorWord:
    """Random generator word: Fourier letters with probability 1/3, else
    chirps (entries uniform in [-1, 1], symmetrized) or dilations exp(X)."""
    # imported here, not at the top: scipy would double a cold start
    from scipy.linalg import expm

    letters = []
    for _ in range(word_length):
        r = rng.random()
        if r < 1.0 / 3.0:
            axes = tuple(np.nonzero(rng.random(n) < 0.5)[0])
            if not axes:
                axes = (int(rng.integers(n)),)
            letters.append(PartialFourier(axes))
        elif r < 2.0 / 3.0:
            q = rng.uniform(-1.0, 1.0, size=(n, n))
            letters.append(Chirp(0.5 * (q + q.T)))
        else:
            x = rng.uniform(-1.0, 1.0, size=(n, n))
            letters.append(Dilation(expm(0.5 * x)))
    return GeneratorWord(n, tuple(letters))


def random_symplectic(n: int, word_length: int, seed: int) -> SymplecticMatrix:
    """Deterministic random symplectic matrix: the product of a random word."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = np.random.default_rng(seed)
    word = random_word(n, word_length, rng)
    return SymplecticMatrix(n, word.matrix())
