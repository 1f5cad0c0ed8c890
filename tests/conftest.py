import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtfr.gaussian import GeneralizedGaussian
from mtfr.symplectic import Chirp, Dilation, GeneratorWord, PartialFourier


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


def random_spd(n, rng, shift=0.5):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return a @ a.T + shift * np.eye(n)


def _array(draw, shape, lo, hi):
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))


@st.composite
def generator_words(draw, max_letters=6):
    """Words of up to max_letters well-conditioned letters, n = 1..3."""
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
def gaussians(draw):
    """Generalized Gaussians, n = 1..3; Re M is diagonally dominant, so positive definite."""
    n = draw(st.integers(1, 3))
    off = _array(draw, (n, n), -0.2, 0.2)
    t = _array(draw, (n, n), -1e3, 1e3)
    m = np.diag(_array(draw, n, 1.0, 10.0)) + 0.5 * (off + off.T) + 0.5j * (t + t.T)
    b = _array(draw, n, -1e3, 1e3) + 1j * _array(draw, n, -1e3, 1e3)
    return GeneralizedGaussian(m, b, draw(st.floats(-50.0, 50.0)))
