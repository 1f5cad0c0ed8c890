import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfr.certify import alt1_decompose
from mtfr.errors import NotSymmetric, NotUnitary, NumericalFailure, RealMatrix
from mtfr.unitary import (
    TOL_RECON,
    block_diag_test,
    joint_diagonalize_commuting_symmetric,
    odo_svd,
    real_factor,
    sort_by_imag,
    takagi_symmetric_unitary,
)

from conftest import haar_orthogonal, haar_unitary


class TestBlockDiagTest:
    def test_diagonal_input(self):
        ok, off = block_diag_test(np.diag([1j, 1.0]), 1)
        assert ok and off < 1e-15

    def test_hand_multiplied_counterexample(self):
        # U = (1/sqrt2)((1,i),(i,1)): U^t U = ((0,i),(i,0)) by direct 2x2 product
        u = (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])
        s = u.T @ u
        np.testing.assert_allclose(s, np.array([[0.0, 1j], [1j, 0.0]]), atol=1e-15)
        ok, off = block_diag_test(u, 1)
        assert not ok
        np.testing.assert_allclose(off, np.sqrt(2.0), atol=1e-12)

    def test_real_orthogonal_passes(self, rng):
        for d in (1, 2, 3):
            ok, off = block_diag_test(haar_orthogonal(2 * d, rng).astype(complex), d)
            assert ok and off < 1e-12


class TestJointDiagonalization:
    def test_commuting_pair(self, rng):
        # build commuting symmetric X, Y sharing an eigenbasis
        w = haar_orthogonal(5, rng)
        x = w @ np.diag(rng.uniform(-1, 1, 5)) @ w.T
        y = w @ np.diag(rng.uniform(-1, 1, 5)) @ w.T
        v = joint_diagonalize_commuting_symmetric(x, y)
        for m in (x, y):
            dd = v.T @ m @ v
            assert np.linalg.norm(dd - np.diag(np.diag(dd))) < 1e-10

    def test_degenerate_cluster(self, rng):
        # X has a repeated eigenvalue; Y separates inside the cluster
        w = haar_orthogonal(4, rng)
        x = w @ np.diag([1.0, 1.0, 2.0, 3.0]) @ w.T
        y = w @ np.diag([5.0, -1.0, 0.0, 0.5]) @ w.T
        v = joint_diagonalize_commuting_symmetric(x, y)
        dy = v.T @ y @ v
        assert np.linalg.norm(dy - np.diag(np.diag(dy))) < 1e-10


class TestOdoSvd:
    def test_real_orthogonal(self, rng):
        u = haar_orthogonal(4, rng).astype(complex)
        fact = odo_svd(u)
        np.testing.assert_allclose(fact.reconstruct(), u, atol=1e-10)
        np.testing.assert_allclose(np.abs(fact.sigma), 1.0, atol=1e-12)

    def test_diagonal_unitary(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        fact = odo_svd(u)
        np.testing.assert_allclose(fact.reconstruct(), u, atol=1e-12)

    def test_random_reconstruction(self, rng):
        for n in (2, 3, 4, 6):
            for _ in range(25):
                u = haar_unitary(n, rng)
                fact = odo_svd(u)
                assert np.isrealobj(fact.w1) and np.isrealobj(fact.w2)
                np.testing.assert_allclose(fact.reconstruct(), u, atol=1e-9)
                np.testing.assert_allclose(
                    fact.w1.T @ fact.w1, np.eye(n), atol=1e-10
                )
                np.testing.assert_allclose(
                    fact.w2.T @ fact.w2, np.eye(n), atol=1e-10
                )

    def test_commuting_parts_identity(self, rng):
        # S = U^t U: X, Y commute and X^2 + Y^2 = I
        for n in (2, 4, 6):
            u = haar_unitary(n, rng)
            s = u.T @ u
            x, y = s.real, s.imag
            assert np.linalg.norm(x @ y - y @ x) <= 1e-10
            assert np.linalg.norm(x @ x + y @ y - np.eye(n)) <= 1e-10


REPEATED_PHASES = (0.0, 0.3, 1.1, np.pi / 2, np.pi)


@st.composite
def unitaries(draw, n):
    """Haar unitaries, or O1 diag(e^{i theta}) O2 with theta drawn (with repeats)
    from REPEATED_PHASES and O1, O2 Haar orthogonal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return haar_unitary(n, rng)
    theta = np.array(draw(st.lists(st.sampled_from(REPEATED_PHASES), min_size=n, max_size=n)))
    return haar_orthogonal(n, rng) * np.exp(1j * theta) @ haar_orthogonal(n, rng)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_takagi_splits_hold(data):
    # repeated phases leave clusters in U^t U, where the real factor's
    # realness rests on the joint diagonalization alone
    n = data.draw(st.integers(1, 6))
    u = data.draw(unitaries(n))
    fact = odo_svd(u)
    assert np.linalg.norm(fact.reconstruct() - u) <= TOL_RECON * max(1.0, np.linalg.norm(u))
    assert np.isrealobj(fact.w1)
    np.testing.assert_allclose(fact.w1.T @ fact.w1, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(np.abs(fact.sigma), 1.0, atol=1e-12)

    s = u.T @ u
    v = takagi_symmetric_unitary(s)
    assert np.linalg.norm(v.T @ v - s) <= TOL_RECON * max(1.0, np.linalg.norm(s))

    d = max(1, n // 2)
    v1, v2 = data.draw(unitaries(d)), data.draw(unitaries(d))
    w0 = haar_orthogonal(2 * d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    big = np.hstack([w0[:, :d] @ v1, w0[:, d:] @ v2])
    w, got1, got2 = alt1_decompose(big, d)
    recon = np.hstack([w[:, :d] @ got1, w[:, d:] @ got2])
    assert np.isrealobj(w)
    assert np.linalg.norm(recon - big) <= TOL_RECON * max(1.0, np.linalg.norm(big))


class TestTakagi:
    def test_scalar_one(self):
        np.testing.assert_allclose(takagi_symmetric_unitary(np.eye(1)), np.eye(1))

    def test_scalar_minus_one(self):
        v = takagi_symmetric_unitary(-np.eye(1))
        np.testing.assert_allclose(v.T @ v, -np.eye(1), atol=1e-14)

    def test_construct_then_recover(self, rng):
        for n in (2, 3, 4, 6):
            for _ in range(10):
                x = haar_unitary(n, rng)
                s = x.T @ x
                v = takagi_symmetric_unitary(s)
                np.testing.assert_allclose(v.T @ v, s, atol=1e-9)
                np.testing.assert_allclose(
                    v.conj().T @ v, np.eye(n), atol=1e-9
                )

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(NotSymmetric):
            takagi_symmetric_unitary(haar_unitary(3, rng))

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            takagi_symmetric_unitary(np.diag([2.0, 1.0]).astype(complex))


class TestSortByImag:
    def _check(self, sigma, expected, expected_k):
        sd = sort_by_imag(np.asarray(sigma, dtype=complex))
        np.testing.assert_allclose(sd.sigma, expected, atol=1e-12)
        assert sd.k == expected_k
        recon = sd.left @ np.diag(np.asarray(sigma, dtype=complex)) @ sd.right
        np.testing.assert_allclose(recon, np.diag(sd.sigma), atol=1e-8)
        np.testing.assert_allclose(sd.left @ sd.left.T, np.eye(len(sigma)), atol=1e-14)
        np.testing.assert_allclose(sd.right @ sd.right.T, np.eye(len(sigma)), atol=1e-14)

    def test_already_sorted(self):
        self._check([1j, 1.0], [1j, 1.0], 1)

    def test_permutation(self):
        self._check([1.0, 1j], [1j, 1.0], 1)

    def test_sign_flip_and_sort(self):
        # enumeration oracle: among all sign/permutation arrangements of
        # diag(-1, e^{i pi/4}) the sorted convention is (e^{i pi/4}, 1)
        s = np.array([-1.0, np.exp(1j * np.pi / 4)])
        target = np.array([np.exp(1j * np.pi / 4), 1.0])
        found = False
        for perm in itertools.permutations(range(2)):
            for signs in itertools.product([1.0, -1.0], repeat=2):
                arranged = np.array([signs[i] * s[list(perm)[i]] for i in range(2)])
                if np.allclose(arranged, target):
                    found = True
        assert found
        self._check(s, target, 1)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan)])
    def test_nan_entry_is_not_unit_modulus(self, bad):
        with pytest.raises(NotUnitary):
            sort_by_imag([1j, bad])

    def test_descending_imag(self, rng):
        phases = rng.uniform(-np.pi, np.pi, size=6)
        sd = sort_by_imag(np.exp(1j * phases))
        imags = sd.sigma.imag
        assert all(a >= b - 1e-14 for a, b in zip(imags, imags[1:]))
        assert np.all(imags[: sd.k] > 0)
        np.testing.assert_allclose(sd.sigma[sd.k :], 1.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_real_factor_nan_fails_the_product_gate():
    # the product gate fails closed: a nan residual is not small
    u = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalFailure, match="reconstruction residual"):
        real_factor(u, np.eye(2), "W")
