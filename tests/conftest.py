import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mtfr
from mtfr.gaussian import GeneralizedGaussian
from mtfr.symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    SymplecticMatrix,
    make_dilation,
    make_rotation,
    random_symplectic,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_orthogonal(n, rng):
    z = rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def alt2_bold(d, rng):
    """Generic Alternative II input, built like the benchmark's certify_stream
    inputs: a random 4-letter symplectic word times a Haar rotation."""
    word_seed = int(rng.integers(2**31))
    return random_symplectic(2 * d, 4, seed=word_seed) @ make_rotation(haar_unitary(2 * d, rng))


def ill_conditioned_bold(d, alternative, s, rng):
    """M = D_L R_U with L = O diag(geomspace(1/s, s)) O^t, O Haar orthogonal,
    so cond(M) = s^4; U is Haar for Alternative II and W diag(V1, V2), W Haar
    orthogonal and Vj Haar unitary, for Alternative I."""
    o = haar_orthogonal(2 * d, rng)
    l = (o * np.geomspace(1.0 / s, s, 2 * d)) @ o.T
    if alternative == "II":
        u = haar_unitary(2 * d, rng)
    else:
        v = np.zeros((2 * d, 2 * d), dtype=complex)
        v[:d, :d], v[d:, d:] = haar_unitary(d, rng), haar_unitary(d, rng)
        u = haar_orthogonal(2 * d, rng) @ v
    return make_dilation(l) @ make_rotation(u)


def random_spd(n, rng, shift=0.5):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return a @ a.T + shift * np.eye(n)


def _array(draw, shape, lo, hi):
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))


@st.composite
def generator_words(draw, max_letters=6, n=None):
    """Words of up to max_letters well-conditioned letters, n = 1..3 unless given."""
    if n is None:
        n = draw(st.integers(1, 3))
    letters = []
    for kind in draw(st.lists(st.sampled_from("cdf"), max_size=max_letters)):
        if kind == "c":
            t = _array(draw, (n, n), -3.0, 3.0)
            letters.append(Chirp(0.5 * (t + t.T)))
        elif kind == "d":
            sign = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
            scale = sign * _array(draw, n, 0.5, 2.0)
            # ||E|| <= 0.3 keeps diag(scale) (I + E) well conditioned
            e = _array(draw, (n, n), -0.1, 0.1)
            letters.append(Dilation(scale[:, None] * (np.eye(n) + e)))
        else:
            axes = draw(st.sets(st.integers(0, n - 1), min_size=1))
            letters.append(PartialFourier(tuple(axes)))
    return GeneratorWord(n, tuple(letters))


@st.composite
def gaussians(draw, n=None, spread=1e3):
    """Generalized Gaussians, n = 1..3 unless given, |Im M| and |b| entries
    up to spread; Re M is diagonally dominant, so positive definite."""
    if n is None:
        n = draw(st.integers(1, 3))
    off = _array(draw, (n, n), -0.2, 0.2)
    t = _array(draw, (n, n), -spread, spread)
    m = np.diag(_array(draw, n, 1.0, 10.0)) + 0.5 * (off + off.T) + 0.5j * (t + t.T)
    b = _array(draw, n, -spread, spread) + 1j * _array(draw, n, -spread, spread)
    return GeneralizedGaussian(m, b, draw(st.floats(-50.0, 50.0)))


@st.composite
def grid_gaussians(draw):
    """d = 1 Gaussians that a 256-point grid of extent 16 resolves."""
    m = draw(st.floats(0.8, 0.9)) + 1j * draw(st.floats(-0.15, 0.15))
    b = draw(st.floats(-0.25, 0.25)) + 1j * draw(st.floats(-0.25, 0.25))
    return GeneralizedGaussian(np.array([[m]]), np.array([b]))


@st.composite
def grid_words(draw):
    """d = 1 words of 1-4 letters: Fourier, chirps |q| <= 1/2, dilations +-e^t, |t| <= 1/4."""
    letters = []
    for kind in draw(st.lists(st.sampled_from("cdf"), min_size=1, max_size=4)):
        if kind == "c":
            letters.append(Chirp(np.array([[draw(st.floats(-0.5, 0.5))]])))
        elif kind == "d":
            scale = draw(st.sampled_from([-1.0, 1.0])) * np.exp(draw(st.floats(-0.25, 0.25)))
            letters.append(Dilation(np.array([[scale]])))
        else:
            letters.append(PartialFourier((0,)))
    return GeneratorWord(1, tuple(letters))


# ---------------------------------------------------------------------------
# closed-form references on generalized Gaussians, used only as test oracles


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
# named representations: W(f, g)(x, omega) is the Fourier transform over t of
# F(M(x, t)), F = f (x) conj(g), for a linear change of variables M


def tau_wigner_matrix(taus):
    """M(x, t) = (x + tau t, x - (1 - tau) t), axis i pairing x_i with t_i.

    tau = 1/2 is the Wigner distribution, tau = 0 and tau = 1 are the
    Rihaczek distribution and its conjugate; one tau per axis gives their
    tensor mixtures.
    """
    taus = np.asarray(taus, dtype=float)
    eye = np.eye(taus.size)
    return np.block([[eye, np.diag(taus)], [eye, -np.diag(1.0 - taus)]])


def stft_matrix():
    """M(x, t) = (t, t - x): V_g f(x, omega) = int f(t) conj(g(t - x)) e^{-2 pi i t omega} dt."""
    return np.array([[0.0, 1.0], [-1.0, 1.0]])


def representation_bold(m):
    """The doubled symplectic matrix of `PartialFourier` on the t axes after
    `Dilation(M^{-1})`, which takes F to F(M(x, t)) up to |det M|^{1/2}."""
    n = m.shape[0]
    t_axes = tuple(range(n // 2, n))
    word = GeneratorWord(n, (PartialFourier(t_axes), Dilation(np.linalg.inv(m))))
    return SymplecticMatrix.from_array(word.matrix())


def run_python(argv, env=None):
    """Run a fresh interpreter on argv, with this checkout's mtfr importable."""
    src = os.path.dirname(os.path.dirname(mtfr.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
