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

import functools
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
    Singular,
)

TOL_SYMPL = 1e-10
TOL_SYM = 1e-12
TOL_UNIT = 1e-10
TOL_INV = 1e-8
TOL_DERIVED = 1e-8  # symmetry or unit modulus of a quantity computed from checked input

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


def _frobenius(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)  # vdot flattens and conjugates


def _singular_values(l: np.ndarray, what: str) -> np.ndarray:
    """The singular values of a real matrix, largest first; DimensionMismatch unless finite."""
    try:
        sv = np.linalg.svd(l, compute_uv=False)
    except np.linalg.LinAlgError:
        _reject_non_finite(l, what)  # a nan entry stops the SVD
        raise
    if not math.isfinite(sv[0]):  # an infinite entry makes it nan
        _reject_non_finite(l, what)
    return sv


def _within(residual, tol: float, scale=1.0) -> bool:
    """residual <= tol max(1, scale) at a finite bound; false on a nan or an overflow."""
    return bool(residual <= tol * max(scale, 1.0) < math.inf)  # max(nan, 1.0) is nan


def _near_singular(sv, slack: float = 1.0) -> bool:
    """Dilation's singularity gate on singular values sv, largest first, true on a nan:
    sigma_min <= slack TOL_INV max(1, sigma_max), with sigma_max = ||L||_2."""
    return not sv[-1] > slack * TOL_INV * max(sv[0], 1.0)


def _symmetrize_checked(
    q: np.ndarray, tol: float, what: str, error=NotSymmetric
) -> np.ndarray:
    """(q + q^T) / 2, once q is finite and ||q - q^T|| <= tol max(1, ||q||).

    When ||q|| overflows and the entries are finite, both norms are taken of
    q scaled by its largest entry, which keeps their ratio, so an overflowed
    pair is never compared inf against inf; the halves are then summed, so
    a huge but symmetric q stays finite.
    """
    size = _frobenius(q)
    if math.isfinite(size):
        defect = _frobenius(q - q.T)
        sym = 0.5 * (q + q.T)
    else:
        _reject_non_finite(q, what)
        q_scaled = q / max(np.abs(q.real).max(), np.abs(q.imag).max())
        defect, size = _frobenius(q_scaled - q_scaled.T), _frobenius(q_scaled)
        sym = 0.5 * q + 0.5 * q.T
    if not _within(defect, tol, size):
        raise error(f"{what}: asymmetry {defect:.3e} exceeds tolerance")
    return sym


def _blkdiag(*mats) -> np.ndarray:
    """Block-diagonal matrix of square blocks, of their common dtype."""
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.result_type(*mats))
    at = 0
    for m in mats:
        s = m.shape[0]
        out[at : at + s, at : at + s] = m
        at += s
    return out


def _rotation_matrix(u: np.ndarray) -> np.ndarray:
    """The block layout ((Re U, Im U), (-Im U, Re U)) of a square complex U."""
    n = u.shape[0]
    m = np.empty((2 * n, 2 * n))
    m[:n, :n] = m[n:, n:] = u.real
    m[:n, n:] = u.imag
    m[n:, :n] = -u.imag
    return m


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


def _entrywise_defect(m: np.ndarray) -> float:
    """max over entries of |M^t J M - J| / max(1, |M|^t |J| |M|).

    Each entry's residual is measured against the size its own products
    reach, so one large entry cannot hide the error of another the way it
    does in the norm of the relative defect.
    """
    j = standard_j(m.shape[0] // 2)
    a = np.abs(m)
    return float(np.max(np.abs(m.T @ j @ m - j) / np.maximum(a.T @ np.abs(j) @ a, 1.0)))


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
        if _near_singular(_singular_values(l, "Dilation")):
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


def _gated(cls, matrix: np.ndarray):
    """The Chirp or Dilation cls(matrix), without the gate of its constructor.

    As grid._bounded_field does for a field, this is for a matrix that has
    just passed that gate: a Chirp's must be exactly symmetric, so that the
    constructor's symmetrization would keep every bit, and a Dilation's
    must have singular values the caller has just read with _near_singular,
    or known exactly (a +-1 parity).
    """
    letter = object.__new__(cls)
    object.__setattr__(letter, "q" if cls is Chirp else "l", _freeze(matrix))
    return letter


def _check_fits(letter, n: int) -> None:
    """Raise unless letter is a generator letter that acts on R^n: a chirp or
    dilation n x n, every Fourier axis below n."""
    if isinstance(letter, Chirp):
        if letter.n != n:
            raise DimensionMismatch("chirp size does not match word dimension")
    elif isinstance(letter, Dilation):
        if letter.n != n:
            raise DimensionMismatch("dilation size does not match word dimension")
    elif isinstance(letter, PartialFourier):
        if letter.axes[-1] >= n:
            raise DimensionMismatch(f"Fourier axes must lie in [0, {n}), got {letter.axes}")
    else:
        raise TypeError(f"not a generator letter: {letter!r}")


def letter_matrix(letter, n: int) -> np.ndarray:
    """2n x 2n symplectic matrix of a single generator letter."""
    _check_fits(letter, n)
    if isinstance(letter, Chirp):
        m = np.eye(2 * n)
        m[n:, :n] = letter.q
        return m
    if isinstance(letter, Dilation):
        return _blkdiag(letter.l, np.linalg.inv(letter.l).T)
    u = np.ones(n, dtype=complex)
    u[list(letter.axes)] = 1j
    return _rotation_matrix(np.diag(u))


@dataclass(frozen=True)
class GeneratorWord:
    """Ordered product of generator letters; letters[0] is the leftmost factor.

    As an operator the word acts right-to-left: the last letter is applied
    first, matching the matrix product of `matrix()`.  n must be an integer
    >= 1 and every letter must act on R^n; otherwise DimensionMismatch is
    raised here.
    """

    n: int
    letters: tuple

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DimensionMismatch(f"word dimension must be an integer >= 1, got {self.n!r}")
        letters = tuple(self.letters)
        for letter in letters:
            _check_fits(letter, self.n)
        object.__setattr__(self, "letters", letters)

    def matrix(self) -> np.ndarray:
        """The product of the letter matrices, read-only.

        A word is immutable, so the product is formed on the first call and
        every later call returns the same array.
        """
        m = self.__dict__.get("_matrix")
        if m is None:
            m = np.eye(2 * self.n)
            for letter in self.letters:
                m = m @ letter_matrix(letter, self.n)
            m.flags.writeable = False
            object.__setattr__(self, "_matrix", m)
        return m

    def __len__(self) -> int:
        return len(self.letters)


def invert_word(word: GeneratorWord) -> GeneratorWord:
    """Word realizing the inverse operator (and inverse matrix).

    The inverse of a partial Fourier letter is the same letter followed by
    the parity reflection on its axes, since F^2 is the parity operator.
    A chirp's stored Q is exactly symmetric, and so is -Q; the parity's
    singular values are all exactly 1.  Neither letter is gated again, but
    each inverse dilation is.
    """
    out = []
    for letter in reversed(word.letters):
        if isinstance(letter, Chirp):
            out.append(_gated(Chirp, -letter.q))
        elif isinstance(letter, Dilation):
            out.append(Dilation(np.linalg.inv(letter.l)))
        else:
            sign = np.ones(word.n)
            sign[list(letter.axes)] = -1.0
            out.append(letter)
            out.append(_gated(Dilation, np.diag(sign)))
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
        if not _within(defect, TOL_SYMPL):
            raise NotSymplectic(f"not symplectic: residual {defect:.3e} exceeds {TOL_SYMPL}")
        sign, logdet = np.linalg.slogdet(m)
        if sign != 1.0 or not _within(abs(logdet), 1e-6, np.linalg.norm(m)):
            raise NotSymplectic("not symplectic: determinant is not +1")
        defect = _entrywise_defect(m)
        if not _within(defect, TOL_SYMPL):
            raise NotSymplectic(
                f"not symplectic: entrywise residual {defect:.3e} exceeds {TOL_SYMPL}")
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
    if not np.isfinite(u).all():  # before the product, which would warn
        raise NotUnitary(f"{what}: entries must be finite")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not _within(defect, tol, np.linalg.norm(u)):
        raise NotUnitary(f"{what}: unitarity defect {defect:.3e}")
    return u


def make_rotation(u) -> SymplecticMatrix:
    """R_U = ((Re U, Im U), (-Im U, Re U)) for unitary U; symplectic and orthogonal."""
    u = assert_unitary(u, what="make_rotation")
    return SymplecticMatrix(u.shape[0], _rotation_matrix(u))


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
        """V_Q D_L R_U; Q and L pass their letters' gates and U `assert_unitary`."""
        n = self.n
        m = letter_matrix(Chirp(self.q), n) @ letter_matrix(Dilation(self.l), n)
        return m @ _rotation_matrix(assert_unitary(self.u, what="pre_iwasawa U"))


def pre_iwasawa(m: SymplecticMatrix) -> PreIwasawa:
    """Unique factorization M = V_Q D_L R_U with L = L^t > 0.

    With blocks ((A, B), (C, D)), L U is the polar decomposition of A + i B
    (Higham, SIAM J. Sci. Stat. Comput. 7, 1986), taken from one SVD
    A + i B = W Sigma V^*: U = W V^* and L = W Sigma W^*, which is
    (A A^t + B B^t)^{1/2}, real for symplectic M, and is stored as the
    symmetrized real part; Q = (C A^t + D B^t)(A A^t + B B^t)^{-1}.  U is
    unitary to rounding, so no gate here judges it.

    A matrix is immutable, so its factors are computed on the first call
    and every later call returns the same object; a call that raises
    stores nothing.
    """
    pre = m.__dict__.get("_pre_iwasawa")
    if pre is None:
        a, b, c, d = m.a, m.b, m.c, m.d
        w, sigma, vh = np.linalg.svd(a + 1j * b)
        l = ((w * sigma) @ w.conj().T).real
        s = a @ a.T + b @ b.T
        q = np.linalg.solve(s.T, (c @ a.T + d @ b.T).T).T
        pre = PreIwasawa(0.5 * (q + q.T), 0.5 * (l + l.T), w @ vh)
        object.__setattr__(m, "_pre_iwasawa", pre)
    return pre


# ---------------------------------------------------------------------------
# free factorization and generator words


def free_factorize(u: np.ndarray) -> GeneratorWord:
    """Four-letter word for R_U when Im U is invertible (a *free* rotation).

    R_U = V_{A B^{-1}} D_B J V_{B^{-1} A} with A = Re U, B = Im U; both chirp
    blocks are symmetric for unitary U.  Each letter is built from the
    matrix its own gate has just passed here: D_B from the singular values
    of the NotFree gate, each chirp from its exact symmetrization.
    """
    u = assert_unitary(u, what="free_factorize")
    n = u.shape[0]
    a, b = u.real, u.imag
    sv = np.linalg.svd(b, compute_uv=False)
    if _near_singular(sv):  # the gate of the letter Dilation(b); ||Im U||_2 <= 1
        raise NotFree(f"Im U has smallest singular value {sv[-1]:.3e}")
    q_left = np.linalg.solve(b.T, a.T).T  # A B^{-1}
    q_right = np.linalg.solve(b, a)  # B^{-1} A
    q_left = _symmetrize_checked(q_left, TOL_DERIVED, "free_factorize A B^-1")
    q_right = _symmetrize_checked(q_right, TOL_DERIVED, "free_factorize B^-1 A")
    letters = (
        _gated(Chirp, q_left),
        _gated(Dilation, b),
        PartialFourier(tuple(range(n))),
        _gated(Chirp, q_right),
    )
    return GeneratorWord(n, letters)


@functools.lru_cache(maxsize=2)
def _tau_table(resolution: int) -> np.ndarray:
    """The candidate taus e^{i pi j / resolution}, j = 1 .. resolution - 1, read-only."""
    return _freeze([np.exp(1j * np.pi * j / resolution) for j in range(1, resolution)])


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
        taus = _tau_table(resolution)
        smin = np.linalg.svd((taus[:, None, None] * u).imag, compute_uv=False)[:, -1]
        scores = np.minimum(smin, np.abs(taus.imag))
        best = int(np.argmax(scores))  # the first of equal scores wins
        tau, val = (taus[best], scores[best]) if scores[best] > base else (1.0 + 0.0j, base)
        if val > TOL_INV:
            return tau
    raise NoTauFound("no tau with invertible Im(tau U) found in the scan")


def _scalar_rotation_word(tau: complex, n: int) -> list:
    """Letters for R_{tau I} with |tau| = 1; empty when tau = 1.

    The chirps' c I is exactly symmetric, so only the dilation is gated.
    """
    a, b = float(np.real(tau)), float(np.imag(tau))
    if abs(b) <= 1e-12:
        if a > 0:
            return []
        return [Dilation(-np.eye(n))]
    chirp = _gated(Chirp, a / b * np.eye(n))
    return [
        chirp,
        Dilation(b * np.eye(n)),
        PartialFourier(tuple(range(n))),
        chirp,
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


# numerator coefficients of the [13/13] Pade approximant to exp, and the
# largest 1-norm at which it meets double precision (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real or complex square matrix.

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005):
    A is scaled by 2^-s until its 1-norm is at most theta_13, and the
    approximant's value is squared s times.
    """
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_word(n: int, word_length: int, rng: np.random.Generator) -> GeneratorWord:
    """Random generator word: Fourier letters with probability 1/3, else
    chirps (entries uniform in [-1, 1], symmetrized) or dilations exp(X)."""
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
            letters.append(Dilation(_expm(0.5 * x)))
    return GeneratorWord(n, tuple(letters))


def random_symplectic(n: int, word_length: int, seed: int) -> SymplecticMatrix:
    """Deterministic random symplectic matrix: the product of a random word."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = np.random.default_rng(seed)
    word = random_word(n, word_length, rng)
    return SymplecticMatrix(n, word.matrix())
