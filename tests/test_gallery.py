"""A gallery of named time-frequency representations as correctness anchors.

Each member is `PartialFourier` on the t axes after `Dilation(M^{-1})` for
a change of variables M (conftest): the tau-Wigner family
M(x, t) = (x + tau t, x - (1 - tau) t), the STFT M(x, t) = (t, t - x), and
tensor mixtures with one tau per axis.  Conventions as in Groechenig,
Foundations of Time-Frequency Analysis (2001), ch. 4.

Every member pins its alternative.  An Alternative II member also pins k
(the number of axes with tau not in {0, 1}), the chirp sign -P22, no
warnings and the reduction identity on random Gaussians; at d = 1 it pins
|det Omega| and the eigenvalues of the transferred Beurling weight
Omega^{-T} M0 Omega^{-1}, M0 = antidiag / 2 (eigenvalues, not entries:
Omega is not unique).  The Wigner's 1/4 matches
|W(f, g)(x, omega)| = 2 |V_{g check} f(2x, 2omega)|.  The Rihaczek
distributions are Alternative I, and their compactly supported pair
leaves the predicted box empty up to acceptance 06's mass bound.
"""

import numpy as np
import pytest

from mtfr.certify import alt1_tfr_tensor, certify, counterexample_alt1, verify_identity
from mtfr.gaussian import random_gaussian
from mtfr.grid import mass_outside

from conftest import representation_bold, stft_matrix, tau_wigner_matrix

# name: (M, k)
ALT2 = {
    "stft": (stft_matrix(), 1),
    "tau=0.25": (tau_wigner_matrix([0.25]), 1),
    "wigner": (tau_wigner_matrix([0.5]), 1),
    "tau=0.75": (tau_wigner_matrix([0.75]), 1),
    "wigner*rihaczek": (tau_wigner_matrix([0.5, 0.0]), 1),
    "tau=0.25*conj-rihaczek": (tau_wigner_matrix([0.25, 1.0]), 1),
    "wigner*wigner": (tau_wigner_matrix([0.5, 0.5]), 2),
    "wigner*wigner*rihaczek": (tau_wigner_matrix([0.5, 0.5, 0.0]), 2),
}

# d = 1 members: |det Omega| and e, where the weight has eigenvalues -e, e
WEIGHTS = {
    "stft": (1.0, 0.5),
    "tau=0.25": (3.0 / 16.0, 8.0 / 3.0),
    "wigner": (0.25, 2.0),
    "tau=0.75": (3.0 / 16.0, 8.0 / 3.0),
}

RIHACZEK = {"tau=0": tau_wigner_matrix([0.0]), "tau=1": tau_wigner_matrix([1.0])}


@pytest.mark.parametrize("name", ALT2)
def test_alternative_ii_member(name):
    m, k = ALT2[name]
    cert = certify(representation_bold(m))
    assert cert.alternative == "II"
    assert cert.alt2.k == k
    assert cert.alt2.chirp_sign == "-P22"
    assert cert.warnings == ()
    rng = np.random.default_rng(0)
    d = cert.d
    for _ in range(3):
        f, g = random_gaussian(d, rng), random_gaussian(d, rng)
        pts = rng.uniform(-2.0, 2.0, size=(50, 2 * d))
        assert verify_identity(cert, f, g, pts) <= 1e-8


@pytest.mark.parametrize("name", WEIGHTS)
def test_transferred_beurling_weight(name):
    det, e = WEIGHTS[name]
    omega = certify(representation_bold(ALT2[name][0])).alt2.omega
    omega_inv = np.linalg.inv(omega)
    m0 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    eig = np.linalg.eigvalsh(omega_inv.T @ m0 @ omega_inv)
    assert abs(np.linalg.det(omega)) == pytest.approx(det, rel=1e-12)
    np.testing.assert_allclose(eig, [-e, e], rtol=1e-12)


@pytest.mark.parametrize("name", RIHACZEK)
def test_rihaczek_is_alternative_i(name):
    cert = certify(representation_bold(RIHACZEK[name]))
    assert cert.alternative == "I"
    assert cert.warnings == ()
    cx = counterexample_alt1(cert)
    tfr = alt1_tfr_tensor(cx)
    lo, hi = cx.bump_box
    assert mass_outside(tfr, ([lo, lo], [hi, hi])) <= 1e-6
