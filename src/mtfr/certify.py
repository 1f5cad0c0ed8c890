"""Alternative I/II classifier and certificate constructors.

For a symplectic matrix acting on the doubled phase space (half-dimension
2d), the pre-Iwasawa rotation factor U in U(2d) decides a dichotomy by
whether U^t U is d x d block-diagonal:

* Alternative I: U = W diag(V1, V2) with W real orthogonal; the
  representation of f (x) conj(g) is a rotated tensor product, and
  compactly supported pairs exist.
* Alternative II: there are an index k, words for two half-size
  symplectic operators, and an invertible change of coordinates Omega
  reducing the representation to a partial short-time Fourier transform:

      |W(f, g)| = |det Omega|^{-1/2} |V^k_{Bg} Af| o Omega^{-1}.

The Alternative II data is assembled from a rotated unitary tau U with
invertible imaginary part, the symmetric matrix P = Im(tau U)^{-1} Re(tau U),
the SVD of its off-diagonal block, and a fixed block permutation.  Every
certificate is validated numerically against the exact Gaussian oracle
before it is returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NotBlockDiagonal,
    NumericalFailure,
    RankZero,
    RealMatrix,
)
from .gaussian import (
    GeneralizedGaussian,
    apply_partial_fourier,
    apply_symplectic,
    apply_word,
    conjugate,
    log_modulus,
    partial_stft_log_modulus,
    random_gaussian,
    tensor,
)
from .grid import SampledField, apply_word_grid, sample_function, tfr_grid
from .symplectic import (
    TOL_DERIVED,
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    PreIwasawa,
    SymplecticMatrix,
    _blkdiag,
    _freeze,
    _near_singular,
    _scalar_rotation_word,
    _symmetrize_checked,
    _within,
    assert_unitary,
    factor_to_word,
    invert_word,
    make_rotation,
    pre_iwasawa,
    rotation_word,
    select_tau_balanced,
)
from .unitary import (
    TOL_BLK,
    assert_rebuilds,
    block_diag_test,
    odo_svd,
    real_factor,
    sort_by_imag,
    takagi_symmetric_unitary,
)

BORDERLINE_FACTOR = 100.0
RANK_TOL = 1e-8
TOL_IDENTITY = 1e-6  # largest relative error of the reduction identity that passes

__all__ = [
    "AltIData",
    "AltIIData",
    "Certificate",
    "PairCertificate",
    "classify",
    "alt1_decompose",
    "alt2_certificate",
    "certify",
    "identity_errors",
    "verify_identity",
    "counterexample_alt1",
    "alt1_tfr_tensor",
    "quadratic_reduce",
    "pair_to_partial",
    "verify_pair_identity",
]


@dataclass(frozen=True)
class AltIData:
    w: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class AltIIData:
    tau: complex
    k: int
    p: np.ndarray
    w1: np.ndarray
    gamma1: np.ndarray
    w2: np.ndarray
    pi: np.ndarray
    omega: np.ndarray
    word_a: GeneratorWord
    word_b: GeneratorWord
    chirp_sign: str


@dataclass(frozen=True)
class Certificate:
    alternative: str
    d: int
    offdiag_norm: float
    pre: PreIwasawa
    bold: SymplecticMatrix
    word_bold: GeneratorWord
    alt1: AltIData | None = None
    alt2: AltIIData | None = None
    warnings: tuple = ()


def _split_dims(bold: SymplecticMatrix) -> int:
    if bold.n % 2:
        raise DimensionMismatch(
            "the doubled phase space needs an even half-dimension"
        )
    return bold.n // 2


def classify(bold: SymplecticMatrix):
    """Alternative for a matrix in the doubled symplectic group.

    Returns ("I" | "II", offdiag_norm) from the block-diagonality of
    U^t U at TOL_BLK, where U is the pre-Iwasawa rotation factor.
    """
    d = _split_dims(bold)
    pre = pre_iwasawa(bold)
    is_blk, offdiag = block_diag_test(pre.u, d)
    return ("I" if is_blk else "II"), offdiag


def alt1_decompose(u: np.ndarray, d: int):
    """Split U = W diag(V1, V2) with W real orthogonal, Vj unitary.

    Requires U^t U block-diagonal; Vj is a Takagi factor of the j-th
    diagonal block, and W = U diag(V1, V2)^* is then real (`real_factor`).
    """
    is_blk, _ = block_diag_test(u, d, tol=TOL_BLK * BORDERLINE_FACTOR)
    if not is_blk:
        raise NotBlockDiagonal("U^t U is not block-diagonal at tolerance")
    s = u.T @ u
    v1 = takagi_symmetric_unitary(s[:d, :d])
    v2 = takagi_symmetric_unitary(s[d:, d:])
    return real_factor(u, _blkdiag(v1, v2), "alt1 orthogonal factor W"), v1, v2


def _assert_rebuilds_bold(pre: PreIwasawa, word_bold: GeneratorWord, bold: SymplecticMatrix):
    """word_bold, once it and V_Q D_L R_U each rebuild M within TOL_RECON
    (else NumericalFailure): the gates of a certificate where `certify`
    makes it and where `serialize.certificate_from_obj` reads it."""
    assert_rebuilds(word_bold.matrix(), bold.entries, "word_bold is off bold_matrix by")
    assert_rebuilds(pre.reconstruct(), bold.entries, "pre_iwasawa is off bold_matrix by")
    return word_bold


def _pi_permutation(d: int, k: int) -> np.ndarray:
    """Block permutation sending (omega1, x2, x1, omega2) to (x1, x2, omega1, omega2)."""
    return np.eye(2 * d)[np.r_[d : d + k, k:d, :k, d + k : 2 * d]]


def _alt2_omega(l, b_tau, w1, w2, gamma1, pi) -> np.ndarray:
    """Omega = L Im(tau U) diag(W1, W2) diag(Gamma1, I) Pi, the reduction's coordinates."""
    return (
        l
        @ b_tau
        @ _blkdiag(w1, w2)
        @ _blkdiag(np.diag(gamma1), np.eye(len(pi) - len(gamma1)))
        @ pi
    )


def _alt2_words(d: int, tau, p, w1, gamma1, w2, *chirp_signs: str) -> tuple:
    """word_A, then one word_B per chirp sign, of an Alternative II certificate.

    In letter order, word_A is D(diag(Gamma1, I)) F_{k..d-1} D(W1^t) V_{P11}
    R_{conj(tau) I} and word_B is F D(W2^t) V_{-P22} R_{tau I}, with V_{+P22}
    for the sign "+P22".  The words for both signs share every other letter.
    """
    k = len(gamma1)
    word_a = GeneratorWord(d, (
        Dilation(_blkdiag(np.diag(gamma1), np.eye(d - k))),
        *([PartialFourier(tuple(range(k, d)))] if k < d else []),
        Dilation(w1.T),
        Chirp(p[:d, :d]),
        *_scalar_rotation_word(np.conj(tau), d),
    ))
    fourier_b, dilation_b = PartialFourier(tuple(range(d))), Dilation(w2.T)
    rotation_b = tuple(_scalar_rotation_word(tau, d))
    return (word_a, *(
        GeneratorWord(d, (fourier_b, dilation_b,
                          Chirp(p[d:, d:] if sign == "+P22" else -p[d:, d:]), *rotation_b))
        for sign in chirp_signs
    ))


@functools.lru_cache(maxsize=8)
def _probe_inputs(d: int):
    """The chirp-sign probe's 8 points and Gaussian pair (f, g), drawn once per d
    from default_rng(0); the points are read-only, as a Gaussian's arrays are.

    The pair is generic (f != g, complex M, nonzero b): a symmetric pair
    such as f = g = phi can score both signs at round-off level.
    """
    rng = np.random.default_rng(0)
    probe = _freeze(rng.uniform(-1.5, 1.5, size=(8, 2 * d)))
    return probe, random_gaussian(d, rng), random_gaussian(d, rng)


def alt2_certificate(bold: SymplecticMatrix) -> Certificate:
    """Full Alternative II certificate via the free-factorization pipeline.

    Steps: rotate U by tau so Im(tau U) is invertible; form the symmetric
    P = Im(tau U)^{-1} Re(tau U); SVD its upper-right block P12 = W1 G W2^t
    with numerical rank k >= 1; assemble Omega = L B diag(W1, W2)
    diag(G1, I) Pi and the generator words for the two half-size operators.
    The window-side chirp block is -P22, since word_B acts on conj(g); a
    probe confirms it, scoring the -P22 certificate and its +P22 copy with
    `identity_errors` on a generic Gaussian pair.  The -P22 certificate is
    returned whenever it passes, and the +P22 one, with a warning, only
    when -P22 fails and +P22 passes.
    """
    d = _split_dims(bold)
    pre = pre_iwasawa(bold)
    verdict, offdiag = classify(bold)
    warnings_list = []
    if verdict != "II":
        raise NotBlockDiagonal("alt2_certificate requires Alternative II input")
    ratio = offdiag / np.sqrt(2 * d)  # ||U^t U||_F of the 2d x 2d unitary U
    if ratio <= TOL_BLK * BORDERLINE_FACTOR:
        warnings_list.append(
            f"borderline classification: off-diagonal ratio {ratio:.3e}"
        )

    tau = select_tau_balanced(pre.u)
    tau_u = tau * pre.u
    b_tau = tau_u.imag
    p = _symmetrize_checked(np.linalg.solve(b_tau, tau_u.real), TOL_DERIVED, "P = B^-1 A")
    w1, svals, w2t = np.linalg.svd(p[:d, d:])
    if not svals[0] > 1e-12:
        raise RankZero("P12 vanished although U^t U is not block-diagonal")
    k = int(np.sum(svals > RANK_TOL * svals[0]))  # k >= 1: RANK_TOL < 1
    gamma1 = svals[:k]
    # twice Dilation's singularity gate, so that Dilation(diag(gamma1) (+) I) passes it
    if _near_singular(gamma1, slack=2):
        raise NumericalFailure(
            "borderline input: retained singular value "
            f"{gamma1[-1]:.3e} is below the dilation tolerance, "
            "classification is unreliable at this scale"
        )
    w2 = w2t.T
    pi = _pi_permutation(d, k)
    omega = _alt2_omega(pre.l, b_tau, w1, w2, gamma1, pi)

    word_a, word_b, word_b_plus = _alt2_words(d, tau, p, w1, gamma1, w2, "-P22", "+P22")
    alt2 = AltIIData(
        tau=complex(tau),
        k=k,
        p=p,
        w1=w1,
        gamma1=gamma1,
        w2=w2,
        pi=pi,
        omega=omega,
        word_a=word_a,
        word_b=word_b,
        chirp_sign="-P22",
    )
    minus = Certificate(
        alternative="II",
        d=d,
        offdiag_norm=offdiag,
        pre=pre,
        bold=bold,
        word_bold=_assert_rebuilds_bold(pre, factor_to_word(bold, tau=tau), bold),
        alt2=alt2,
        warnings=tuple(warnings_list),
    )
    plus = replace(
        minus,
        alt2=replace(
            alt2,
            word_b=word_b_plus,
            chirp_sign="+P22",
        ),
        warnings=(*minus.warnings, "window chirp sign resolved to +P22"),
    )

    probe, f0, g0 = _probe_inputs(d)
    errs = {
        cert.alt2.chirp_sign: float(np.max(identity_errors(cert, f0, g0, probe)))
        for cert in (minus, plus)
    }
    if errs["-P22"] <= TOL_IDENTITY:
        return minus
    if errs["+P22"] <= TOL_IDENTITY:
        return plus
    raise NumericalFailure(f"certificate identity failed under both chirp signs ({errs})")


def certify(bold: SymplecticMatrix) -> Certificate:
    """Classify and build the full certificate for either alternative."""
    d = _split_dims(bold)
    verdict, offdiag = classify(bold)
    if verdict == "II":
        return alt2_certificate(bold)
    pre = pre_iwasawa(bold)
    w, v1, v2 = alt1_decompose(pre.u, d)
    return Certificate(
        alternative="I",
        d=d,
        offdiag_norm=offdiag,
        pre=pre,
        bold=bold,
        word_bold=_assert_rebuilds_bold(pre, factor_to_word(bold), bold),
        alt1=AltIData(w=w, v1=v1, v2=v2),
    )


def identity_errors(
    cert: Certificate,
    f: GeneralizedGaussian,
    g: GeneralizedGaussian,
    points,
) -> np.ndarray:
    """Relative error of the reduction identity at each point, in one oracle pass.

    Left side: the word of the certified matrix applied to f (x) conj(g),
    evaluated at lambda.  Right side: |det Omega|^{-1/2} times the partial
    STFT of the word_A image of f against the word_B image of g at
    Omega^{-1} lambda.  Both sides run through the closed-form oracle.
    """
    if cert.alternative != "II" or cert.alt2 is None:
        raise NotBlockDiagonal("the identity needs an Alternative II certificate")
    a2, d = cert.alt2, cert.d
    lam = np.asarray(points, dtype=float).reshape(-1, 2 * d)
    lhs = log_modulus(apply_word(tensor(f, conjugate(g)), cert.word_bold), lam)
    mu = lam @ np.linalg.inv(a2.omega).T
    af = apply_word(f, a2.word_a)
    bg = apply_word(g, a2.word_b)
    _, logdet = np.linalg.slogdet(a2.omega)
    rhs = partial_stft_log_modulus(af, bg, a2.k, mu[:, :d], mu[:, d:]) - 0.5 * logdet
    # |L - R| / max(L, R) = 1 - exp(-|log L - log R|), stable in log space
    return -np.expm1(-np.abs(lhs - rhs))


def verify_identity(
    cert: Certificate,
    f: GeneralizedGaussian,
    g: GeneralizedGaussian,
    points,
) -> float:
    """Max relative error of the reduction identity over the given points."""
    return float(np.max(identity_errors(cert, f, g, points)))


# ---------------------------------------------------------------------------
# Alternative I counterexamples


def _bump(mesh: np.ndarray, center: float, halfwidth: float) -> np.ndarray:
    u = (mesh - center) / halfwidth
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


@dataclass(frozen=True)
class Counterexample:
    f: SampledField
    g: SampledField
    predicted_map: np.ndarray
    bump_box: tuple
    word_f: GeneratorWord
    word_g: GeneratorWord


def counterexample_alt1(
    cert: Certificate,
    bump_box=(-2.0, 2.0),
    points: int = 256,
    extent: float = 16.0,
) -> Counterexample:
    """Compactly supported pair whose representation has compact support (d = 1).

    f and g are inverse fractional-Fourier images of smooth bumps supported
    in bump_box; the representation of (f, g) is then a linear coordinate
    change by L W of the bump tensor, so its support is the image of
    bump_box x bump_box under predicted_map = L W.
    """
    if cert.alternative != "I" or cert.alt1 is None:
        raise NotBlockDiagonal("counterexample needs an Alternative I certificate")
    if cert.d != 1:
        raise DimensionMismatch("grid counterexamples are built for d = 1")
    lo, hi = float(bump_box[0]), float(bump_box[1])
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f0 = sample_function(
        lambda m: _bump(m[..., 0], center, half), (points,), (extent,)
    )
    g0 = f0
    word_f = GeneratorWord(1, tuple(rotation_word(cert.alt1.v1)))
    word_g = GeneratorWord(1, tuple(rotation_word(cert.alt1.v2.conj())))
    f = apply_word_grid(f0, invert_word(word_f))
    g = apply_word_grid(g0, invert_word(word_g))
    predicted_map = cert.pre.l @ cert.alt1.w
    return Counterexample(
        f=f,
        g=g,
        predicted_map=predicted_map,
        bump_box=(lo, hi),
        word_f=word_f,
        word_g=word_g,
    )


def alt1_tfr_tensor(cx: Counterexample):
    """Grid tensor (R_V1 f) (x) conj(R_V2bar g) whose coordinate image is the TFR.

    The final dilation by predicted_map is a mass-preserving coordinate
    change; it is applied as a region transform rather than by resampling,
    so the squared mass outside predicted_map(box x box) of the
    representation equals the mass of this tensor outside box x box.  The
    tensor is `tfr_grid` of the identity word, so a grid too large for it
    raises GridTooLarge before anything is allocated.
    """
    af = apply_word_grid(cx.f, cx.word_f)
    ag = apply_word_grid(cx.g, cx.word_g)
    return tfr_grid(GeneratorWord(af.n + ag.n, ()), af, ag)


# ---------------------------------------------------------------------------
# quadratic representations and metaplectic pairs


def quadratic_reduce(v1: np.ndarray, v2: np.ndarray):
    """Reduce the pair (R_V1, R_V2) to a single rotation V = conj(V2) V1^*.

    Returns (V, note) where note flags the obstruction case of a real V:
    a real rotation is a coordinate change, so no decay condition can
    force vanishing.
    """
    v1 = assert_unitary(v1, what="quadratic_reduce V1")
    v2 = assert_unitary(v2, what="quadratic_reduce V2")
    v = v2.conj() @ v1.conj().T
    imag_norm = float(np.linalg.norm(v.imag))
    note = {"real": _within(imag_norm, 1e-10, np.linalg.norm(v)), "imag_norm": imag_norm}
    return v, note


@dataclass(frozen=True)
class PairCertificate:
    """Data reducing |f| (x) |R_V f| to |Bf| (x) |F_k Bf| after D_Omega."""

    v: np.ndarray
    d: int
    k: int
    omega: np.ndarray
    word_b: GeneratorWord
    sigma: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def pair_to_partial(v: np.ndarray) -> PairCertificate:
    """Certificate for the pair identity via the ODO factorization of V.

    V = W1 diag(sigma) W2 is sorted so the first k entries have positive
    imaginary part and the rest equal 1; the diagonal chirp/dilation
    coefficients are c = Re sigma / Im sigma and b = Im sigma on the
    fractional axes.
    """
    v = assert_unitary(v, what="pair_to_partial")
    d = v.shape[0]
    fact = odo_svd(v)
    sd = sort_by_imag(fact.sigma)
    if sd.k == 0:
        raise RealMatrix("V is real at tolerance; the pair identity is void")
    w1 = fact.w1 @ sd.left.T
    w2 = sd.right.T @ fact.w2
    sigma = sd.sigma
    k = sd.k
    b = np.ones(d)
    c = np.zeros(d)
    b[:k] = sigma[:k].imag
    c[:k] = sigma[:k].real / sigma[:k].imag
    omega = _blkdiag(w2.T, w1 @ np.diag(b))
    word_b = GeneratorWord(d, (Chirp(np.diag(c)), Dilation(w2)))
    return PairCertificate(
        v=v, d=d, k=k, omega=omega, word_b=word_b, sigma=sigma, w1=w1, w2=w2
    )


def verify_pair_identity(
    cert: PairCertificate, f: GeneralizedGaussian, points
) -> float:
    """Max relative error of |f| (x) |R_V f| = D_Omega(|Bf| (x) |F_k Bf|)."""
    d = cert.d
    lam = np.asarray(points, dtype=float).reshape(-1, 2 * d)
    rvf = apply_symplectic(f, make_rotation(cert.v).entries)
    lhs = log_modulus(f, lam[:, :d]) + log_modulus(rvf, lam[:, d:])
    mu = lam @ np.linalg.inv(cert.omega).T
    bf = apply_word(f, cert.word_b)
    fkbf = apply_partial_fourier(bf, tuple(range(cert.k)))
    sign, logdet = np.linalg.slogdet(cert.omega)
    rhs = log_modulus(bf, mu[:, :d]) + log_modulus(fkbf, mu[:, d:]) - 0.5 * logdet
    return float(np.max(-np.expm1(-np.abs(lhs - rhs))))
