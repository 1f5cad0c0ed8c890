import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtfr.grid
from mtfr.errors import (
    GridTooLarge,
    NotBlockDiagonal,
    NotUnitary,
    NumericalFailure,
    RealMatrix,
)
from mtfr.certify import (
    TOL_IDENTITY,
    _probe_inputs,
    alt1_tfr_tensor,
    alt2_certificate,
    certify,
    classify,
    alt1_decompose,
    counterexample_alt1,
    identity_errors,
    pair_to_partial,
    quadratic_reduce,
    verify_identity,
    verify_pair_identity,
)
from mtfr.gaussian import random_gaussian, standard_gaussian
from mtfr.grid import field_l2, mass_outside, sample_function
from mtfr.serialize import canonical_json, certificate_from_obj, certificate_to_obj
from mtfr.symplectic import (
    Chirp,
    GeneratorWord,
    SymplecticMatrix,
    make_chirp,
    make_dilation,
    make_rotation,
    random_symplectic,
)

from conftest import alt2_bold, haar_orthogonal, haar_unitary, ill_conditioned_bold, random_spd


def canonical_alt2_input():
    u = (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])
    return make_rotation(u)


def random_bold(d, rng, word_seed=0):
    """Generic doubled-dimension symplectic matrix with Haar rotation content."""
    m = random_symplectic(2 * d, 4, seed=word_seed)
    return m @ make_rotation(haar_unitary(2 * d, rng))


class TestClassify:
    def test_rihaczek_like_is_alt1(self):
        # U^t U = (iI)^t(iI) = -I, block-diagonal by direct arithmetic
        bold = make_rotation(1j * np.eye(2))
        verdict, offdiag = classify(bold)
        assert verdict == "I"
        assert offdiag < 1e-12

    def test_canonical_alt2(self):
        verdict, offdiag = classify(canonical_alt2_input())
        assert verdict == "II"
        assert offdiag == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_invariance_under_chirp_dilation(self, rng):
        for trial in range(25):
            bold = random_bold(1, rng, word_seed=trial)
            verdict, _ = classify(bold)
            q = random_spd(2, rng) - np.eye(2)
            q = 0.5 * (q + q.T)
            l = random_spd(2, rng)
            left = make_chirp(q) @ make_dilation(l) @ bold
            assert classify(left)[0] == verdict


def near_alt1_unitary(d, eps, rng):
    """U = W diag(V1, V2) e^{i eps H}: W Haar orthogonal, Vj Haar unitary,
    H real symmetric with only off-diagonal d x d blocks."""
    v = np.zeros((2 * d, 2 * d), dtype=complex)
    v[:d, :d], v[d:, d:] = haar_unitary(d, rng), haar_unitary(d, rng)
    h = np.zeros((2 * d, 2 * d))
    h[:d, d:] = rng.normal(size=(d, d))
    h[d:, :d] = h[:d, d:].T
    lam, q = np.linalg.eigh(h)
    return haar_orthogonal(2 * d, rng) @ v @ ((q * np.exp(1j * eps * lam)) @ q.T)


class TestClassificationBoundary:
    """The one block-diagonality tolerance against the gates of the split.

    Near Alternative I, an input the tolerance sends to Alternative I must
    pass alt1_decompose's realness and reconstruction gates, and one it
    sends to Alternative II must pass the rank and dilation guards, or
    certify refuses it with NumericalFailure.  No other error may escape,
    and every certificate must read back from its canonical JSON.
    """

    @given(
        d=st.integers(1, 3),
        log_eps=st.floats(-11.0, -4.0),
        front=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_certificate_or_numerical_failure(self, d, log_eps, front, seed):
        rng = np.random.default_rng(seed)
        bold = make_rotation(near_alt1_unitary(d, 10.0**log_eps, rng))
        if front:
            bold = random_symplectic(2 * d, 4, seed=int(rng.integers(2**31))) @ bold
        try:
            cert = certify(bold)
        except NumericalFailure:
            return
        back = certificate_from_obj(json.loads(canonical_json(certificate_to_obj(cert))))
        assert (back.alternative, back.d, back.warnings) == (cert.alternative, d, cert.warnings)


class TestAlt1Decompose:
    def test_block_diagonal_input(self, rng):
        v1, v2 = haar_unitary(2, rng), haar_unitary(2, rng)
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = v1
        u[2:, 2:] = v2
        w, got1, got2 = alt1_decompose(u, 2)
        recon = np.zeros_like(u)
        recon[:, :2] = w[:, :2] @ got1
        recon[:, 2:] = w[:, 2:] @ got2
        np.testing.assert_allclose(recon, u, atol=1e-9)

    def test_scalar_takagi_case(self):
        u = np.diag([1j, 1.0])
        w, v1, v2 = alt1_decompose(u, 1)
        np.testing.assert_allclose(v1.T @ v1, [[-1.0]], atol=1e-12)
        np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-12)

    def test_construct_then_recover(self, rng):
        for d in (1, 2, 3):
            w0 = haar_orthogonal(2 * d, rng)
            v10, v20 = haar_unitary(d, rng), haar_unitary(d, rng)
            u = np.zeros((2 * d, 2 * d), dtype=complex)
            u[:, :d] = w0[:, :d] @ v10
            u[:, d:] = w0[:, d:] @ v20
            w, v1, v2 = alt1_decompose(u, d)
            recon = np.zeros_like(u)
            recon[:, :d] = w[:, :d] @ v1
            recon[:, d:] = w[:, d:] @ v2
            np.testing.assert_allclose(recon, u, atol=1e-9)

    def test_rejects_alt2_input(self):
        with pytest.raises(NotBlockDiagonal):
            alt1_decompose(
                (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]]), 1
            )


class TestAlt2Certificate:
    def test_canonical_instance(self):
        from mtfr.symplectic import symplectic_defect

        cert = alt2_certificate(canonical_alt2_input())
        a2 = cert.alt2
        assert a2.k == 1  # d = 1 forces k = 1
        assert a2.chirp_sign == "-P22"
        np.testing.assert_allclose(a2.p, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(a2.omega, np.eye(2) / np.sqrt(2.0), atol=1e-12)
        assert symplectic_defect(a2.word_a.matrix()) <= 1e-10
        assert symplectic_defect(a2.word_b.matrix()) <= 1e-10

    def test_p_symmetry_random(self, rng):
        for trial in range(30):
            bold = random_bold(1, rng, word_seed=trial)
            if classify(bold)[0] != "II":
                continue
            cert = alt2_certificate(bold)
            p = cert.alt2.p
            assert np.linalg.norm(p - p.T) <= 1e-10

    def test_identity_on_random_instances(self, rng):
        checked = 0
        for trial in range(12):
            d = 1 + trial % 2
            bold = random_bold(d, rng, word_seed=200 + trial)
            if classify(bold)[0] != "II":
                continue
            cert = alt2_certificate(bold)
            f, g = random_gaussian(d, rng), random_gaussian(d, rng)
            pts = rng.uniform(-3, 3, size=(40, 2 * d))
            assert verify_identity(cert, f, g, pts) <= 1e-8
            checked += 1
        assert checked >= 8

    def test_omega_invertible_with_condition(self, rng):
        cert = alt2_certificate(random_bold(2, rng, word_seed=77))
        cond = np.linalg.cond(cert.alt2.omega)
        assert np.isfinite(cond)

    def test_d3_certificate(self, rng):
        # dimension-generic pipeline: one Sp(12, R) instance end to end
        bold = random_bold(3, rng, word_seed=5)
        assert classify(bold)[0] == "II"
        cert = alt2_certificate(bold)
        assert 1 <= cert.alt2.k <= 3
        f, g = random_gaussian(3, rng), random_gaussian(3, rng)
        pts = rng.uniform(-2.5, 2.5, size=(30, 6))
        assert verify_identity(cert, f, g, pts) <= 1e-8

    def test_chirp_sign_is_minus_p22(self):
        # word_B acts on conj(g), so its chirp block is -P22: on generic
        # inputs -P22 is recorded without a warning and +P22 fails the identity
        rng = np.random.default_rng(1729)
        for trial in range(60):
            d = 1 + trial % 3
            cert = certify(alt2_bold(d, rng))
            assert cert.alternative == "II"
            assert cert.alt2.chirp_sign == "-P22"
            assert not any("chirp sign" in note for note in cert.warnings)
            letters = cert.alt2.word_b.letters
            p22 = cert.alt2.p[d:, d:]
            np.testing.assert_array_equal(letters[2].q, -p22)
            word_b = GeneratorWord(d, (*letters[:2], Chirp(p22), *letters[3:]))
            plus = replace(cert, alt2=replace(cert.alt2, word_b=word_b, chirp_sign="+P22"))
            f, g = random_gaussian(d, rng), random_gaussian(d, rng)
            pts = rng.uniform(-1.5, 1.5, size=(8, 2 * d))
            assert np.max(identity_errors(plus, f, g, pts)) > 1e-6

    def test_rejects_alt1_input(self):
        with pytest.raises(NotBlockDiagonal):
            alt2_certificate(make_rotation(1j * np.eye(2)))

    def test_borderline_warning(self):
        # classification is discontinuous near block-diagonal U^t U; inputs
        # with off-diagonal ratio inside [tol_blk, 100 tol_blk] carry a warning
        import scipy.linalg

        k = np.array([[0.0, 1j], [-1j, 0.0]])
        u = np.diag([1j, 1.0]) @ scipy.linalg.expm(1j * 1e-7 * k)
        bold = make_rotation(u)
        verdict, _ = classify(bold)
        assert verdict == "II"
        cert = alt2_certificate(bold)
        assert any("borderline" in w for w in cert.warnings)

    def test_degenerate_borderline_rejected(self):
        # barely past the classification threshold the retained singular
        # value collapses; the certificate must fail loudly, not quietly
        import scipy.linalg

        from mtfr.errors import NumericalFailure

        k = np.array([[0.0, 1j], [-1j, 0.0]])
        u = np.diag([1j, 1.0]) @ scipy.linalg.expm(1j * 5e-9 * k)
        bold = make_rotation(u)
        if classify(bold)[0] == "II":
            with pytest.raises(NumericalFailure):
                alt2_certificate(bold)


class TestGridTfrIdentity:
    def test_canonical_tfr_grid_matches_reduction(self, rng):
        # the canonical instance has a monomial B_tau, so the bold word is
        # grid-supported: the left side of the reduction identity runs on
        # the 2-D grid while the right side uses the closed-form oracle
        import warnings

        from mtfr.errors import ChirpAliasingWarning
        from mtfr.gaussian import apply_word, partial_stft_point
        from mtfr.grid import sample, tfr_grid

        cert = alt2_certificate(canonical_alt2_input())
        a2 = cert.alt2
        fg, gg = random_gaussian(1, rng), random_gaussian(1, rng)
        f = sample(fg, (256,), (16.0,))
        g = sample(gg, (256,), (16.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChirpAliasingWarning)
            lhs_field = tfr_grid(cert.word_bold, f, g)
        af = apply_word(fg, a2.word_a)
        bg = apply_word(gg, a2.word_b)
        omega_inv = np.linalg.inv(a2.omega)
        det_factor = abs(np.linalg.det(a2.omega)) ** -0.5
        errs = []
        for i in range(112, 144, 4):
            for j in range(112, 144, 4):
                lam = np.array([lhs_field.coords(0)[i], lhs_field.coords(1)[j]])
                mu = omega_inv @ lam
                rhs = det_factor * partial_stft_point(
                    af, bg, a2.k, mu[:1], mu[1:]
                )[()]
                lhs = abs(lhs_field.values[i, j])
                if rhs > 1e-7:
                    errs.append(abs(lhs - rhs) / rhs)
        assert errs and max(errs) <= 1e-6


class TestVerifyIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_errors_equal_point_loop(self, d, rng):
        cert = certify(random_bold(d, rng, word_seed=d))
        assert cert.alternative == "II"
        f, g = random_gaussian(d, rng), random_gaussian(d, rng)
        pts = rng.uniform(-3.0, 3.0, size=(60, 2 * d))
        errs = identity_errors(cert, f, g, pts)
        # reference: one oracle call per point
        loop = [verify_identity(cert, f, g, pts[i : i + 1]) for i in range(len(pts))]
        assert errs.shape == (len(pts),)
        np.testing.assert_allclose(errs, loop, rtol=0.0, atol=1e-11)
        assert verify_identity(cert, f, g, pts) == np.max(errs)

    def test_scaling_linearity(self, rng):
        bold = canonical_alt2_input()
        cert = alt2_certificate(bold)
        f, g = random_gaussian(1, rng), random_gaussian(1, rng)
        f_scaled = type(f)(f.m, f.b, f.logamp + np.log(3.0))
        pts = rng.uniform(-2, 2, size=(20, 2))
        # the identity is homogeneous: scaling f scales both sides equally
        assert verify_identity(cert, f_scaled, g, pts) <= 1e-10

    def test_perturbed_omega_fails(self, rng):
        from dataclasses import replace

        cert = alt2_certificate(canonical_alt2_input())
        bad_omega = cert.alt2.omega.copy()
        bad_omega[0, 0] += 1e-2
        bad = replace(cert, alt2=replace(cert.alt2, omega=bad_omega))
        f, g = standard_gaussian(1), standard_gaussian(1)
        pts = np.array([[1.0, 1.0], [2.0, -1.0]])
        assert verify_identity(bad, f, g, pts) > 1e-4


class TestIllConditioned:
    """cond(M) = 8.1e5 (s = 30) and 1e8 (s = 100): the U that pre_iwasawa
    makes is unitary to rounding, so no later unitarity gate refuses it.

    The identity is gated at s = 30 only: at s = 100 the oracle's own
    rounding reaches 1e-7 to 1e-6 on this family, too near the gate to pin.
    At cond(M) = 8.1e9 (s = 300) most inputs are beyond the oracle's reach,
    and certify refuses them as certificate_from_obj would.
    """

    @pytest.mark.parametrize("alternative", ["I", "II"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_certified_implies_reads_back(self, d, alternative):
        rng = np.random.default_rng([d, len(alternative), 300])
        certified = 0
        for _ in range(20):
            bold = ill_conditioned_bold(d, alternative, 300.0, rng)
            try:
                cert = certify(bold)
            except NumericalFailure:
                continue
            certified += 1
            back = certificate_from_obj(json.loads(canonical_json(certificate_to_obj(cert))))
            assert back.alternative == cert.alternative == alternative
        assert 0 < certified < 20  # both branches ran

    @pytest.mark.parametrize("s", [30.0, 100.0])
    @pytest.mark.parametrize("alternative", ["I", "II"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_certifies_and_reads_back(self, d, alternative, s):
        rng = np.random.default_rng([d, len(alternative), int(s)])
        for _ in range(10):
            cert = certify(ill_conditioned_bold(d, alternative, s, rng))
            assert cert.alternative == alternative
            u = cert.pre.u
            assert np.linalg.norm(u.conj().T @ u - np.eye(2 * d)) <= 1e-13
            back = certificate_from_obj(json.loads(canonical_json(certificate_to_obj(cert))))
            assert back.alternative == alternative
            if alternative == "II" and s == 30.0:
                f, g = random_gaussian(d, rng), random_gaussian(d, rng)
                pts = rng.uniform(-1.5, 1.5, size=(16, 2 * d))
                assert verify_identity(back, f, g, pts) <= TOL_IDENTITY


def pinned_certify_cases():
    """(bold, pair) by name, 12 seeded inputs: for d = 1..3, three generic
    Alternative II inputs (`alt2_bold`) with a Gaussian pair and points,
    and one Alternative I rotation R_{W diag(e^{i theta})} with theta
    within pi/4 of pi/2 (no pair: the identity needs Alternative II)."""
    cases = {}
    for d in (1, 2, 3):
        for j in range(4):
            rng = np.random.default_rng(2400 + 10 * d + j)
            if j < 3:
                bold = alt2_bold(d, rng)
                pair = (random_gaussian(d, rng), random_gaussian(d, rng),
                        rng.uniform(-3.0, 3.0, size=(20, 2 * d)))
                cases[f"alt2-d{d}-{j}"] = (bold, pair)
            else:
                theta = rng.uniform(np.pi / 4, 3 * np.pi / 4, size=2 * d)
                bold = make_rotation(haar_orthogonal(2 * d, rng) * np.exp(1j * theta))
                cases[f"alt1-d{d}"] = (bold, None)
    return cases


# sha256 of each certificate's canonical JSON, and repr of verify_identity
PINNED_CERTIFICATES = {
    "alt1-d1": (
        "0e435fa212706f8f919abf7e211de6d4580a56607cfd7316801ed720395a95e9",
        None,
    ),
    "alt1-d2": (
        "ca4dff8fa0f754f9e4b2eae7da9c6b460e9496b511cf38c7afd0130aab2e3492",
        None,
    ),
    "alt1-d3": (
        "8f23af83c7835d110de750bbbd7f2ffcff646e6fa02784a1eb2df2a02e55e186",
        None,
    ),
    "alt2-d1-0": (
        "5c7750a49c5f6f03da0a0d9431ac7038548d576394e14b58cecdbc74f856b86a",
        "1.4210854715201903e-14",
    ),
    "alt2-d1-1": (
        "8d83a9b6b085c35ea2b03deccc1d2c79a6c5f93dd37e643107d2e041bbe1ab21",
        "2.8421709430403604e-14",
    ),
    "alt2-d1-2": (
        "574dd93226fcb31f77775efeb6480dacf1945f88d1bcf6546fd4d173168f8a97",
        "4.9737991503205776e-14",
    ),
    "alt2-d2-0": (
        "70091c16ec144552f778da37bd7f520b8d62d47e63ebb9a507c3a1796c0d3e37",
        "1.1937117960762558e-12",
    ),
    "alt2-d2-1": (
        "e9e11da2ddf3ffe70792dac7fb7e6a9e6175e255b65d89da91048f55f52f99ca",
        "2.842170943039997e-13",
    ),
    "alt2-d2-2": (
        "485dc9d4d75401196b32184df6693ef09912ff595cdef8f0d58694d81d97ab7a",
        "4.3200998334120775e-12",
    ),
    "alt2-d3-0": (
        "595ff08680c6b063d88295678babb9837f4c57533f3bc1b7fa48db62a001df0b",
        "8.526512829120839e-14",
    ),
    "alt2-d3-1": (
        "c2aa7a6d3d0b75fcd5082f15e2d184368b176a884751eb01cdf304689438cdaa",
        "1.4210854715200994e-13",
    ),
    "alt2-d3-2": (
        "49137fe9d93b9b1b0bb1ae84ac9695e9ce891f4235fe2fcb648917566f1768c1",
        "3.4106051316478993e-13",
    ),
}


class TestPinnedCertificateBits:
    """Every byte of a certificate and every bit of its identity error, so
    that no speed-up of `certify` or of the writer moves one unseen."""

    @pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
    def test_certificate_bytes(self, name):
        bold, pair = pinned_certify_cases()[name]
        for _ in range(2):  # the second certify of the same matrix reuses its factors
            cert = certify(bold)
            assert cert.alternative == name[3:4].replace("1", "I").replace("2", "II")
            text = canonical_json(certificate_to_obj(cert))
            err = None if pair is None else repr(verify_identity(cert, *pair))
            assert (hashlib.sha256(text.encode()).hexdigest(), err) == PINNED_CERTIFICATES[name]

    def test_cases_are_pinned(self):
        assert set(pinned_certify_cases()) == set(PINNED_CERTIFICATES)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_probe_inputs_drawn_once_and_read_only(self, d):
        probe, f, g = _probe_inputs(d)
        assert _probe_inputs(d)[0] is probe
        # the draw order of a fresh generator: points, then f, then g
        fresh = np.random.default_rng(0)
        points = fresh.uniform(-1.5, 1.5, size=(8, 2 * d))
        f0, g0 = random_gaussian(d, fresh), random_gaussian(d, fresh)
        assert probe.tobytes() == points.tobytes()
        for a, b in ((f, f0), (g, g0)):
            assert (a.m.tobytes(), a.b.tobytes(), a.logamp) == (b.m.tobytes(), b.b.tobytes(), b.logamp)
        for arr in (probe, f.m, f.b, g.m, g.b):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestCounterexample:
    def test_identity_like(self, rng):
        bold = SymplecticMatrix.from_array(np.eye(4))
        cert = certify(bold)
        assert cert.alternative == "I"
        cx = counterexample_alt1(cert)
        # V1 = V2 = 1: f is the bump itself
        t0 = alt1_tfr_tensor(cx)
        mass = mass_outside(t0, ([-2.0, -2.0], [2.0, 2.0]))
        assert mass <= 1e-12
        np.testing.assert_allclose(cx.predicted_map, np.eye(2), atol=1e-12)

    def test_rihaczek_like(self):
        cert = certify(make_rotation(1j * np.eye(2)))
        cx = counterexample_alt1(cert)
        t0 = alt1_tfr_tensor(cx)
        mass = mass_outside(t0, ([-2.0, -2.0], [2.0, 2.0]))
        assert mass <= 1e-6

    def test_unitarity_of_construction(self):
        cert = certify(make_rotation(1j * np.eye(2)))
        cx = counterexample_alt1(cert)
        f0 = sample_function(
            lambda m: np.where(
                np.abs(m[..., 0]) < 2.0,
                np.exp(1.0 - 1.0 / np.maximum(1.0 - (m[..., 0] / 2.0) ** 2, 1e-12)),
                0.0,
            ),
            (256,),
            (16.0,),
        )
        assert field_l2(cx.f) >= 0.9 * field_l2(f0)
        assert field_l2(cx.g) >= 0.9 * field_l2(f0)

    def test_rejects_alt2(self):
        cert = alt2_certificate(canonical_alt2_input())
        with pytest.raises(NotBlockDiagonal):
            counterexample_alt1(cert)

    def test_tensor_size_guard(self, monkeypatch):
        # the tensor comes from tfr_grid, so the grid's size guard holds
        cert = certify(make_rotation(1j * np.eye(2)))
        cx = counterexample_alt1(cert, points=64)
        monkeypatch.setattr(mtfr.grid, "MAX_ELEMENTS", 2**10)
        with pytest.raises(GridTooLarge):
            alt1_tfr_tensor(cx)


class TestQuadraticReduce:
    def test_conjugate_pair_is_real(self, rng):
        v1 = haar_unitary(2, rng)
        v, note = quadratic_reduce(v1, v1.conj())
        assert note["real"]
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)

    def test_simple_eligible_case(self):
        v, note = quadratic_reduce(np.eye(2), -1j * np.eye(2))
        np.testing.assert_allclose(v, 1j * np.eye(2), atol=1e-14)
        assert not note["real"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_input_is_not_unitary(self, bad):
        with pytest.raises(NotUnitary):
            quadratic_reduce(np.full((2, 2), bad), np.eye(2))
        with pytest.raises(NotUnitary):
            quadratic_reduce(np.eye(2), np.full((2, 2), bad))

    def test_result_unitary(self, rng):
        v1, v2 = haar_unitary(3, rng), haar_unitary(3, rng)
        v, _ = quadratic_reduce(v1, v2)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
        m = make_rotation(v)
        assert m.n == 3


class TestPairToPartial:
    def test_v_equals_i(self):
        pc = pair_to_partial(1j * np.eye(1))
        assert pc.k == 1
        np.testing.assert_allclose(pc.omega, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pc.word_b.letters[0].q, [[0.0]], atol=1e-12)

    def test_fractional_fourier_scalar(self):
        pc = pair_to_partial(np.array([[np.exp(1j * np.pi / 4)]]))
        np.testing.assert_allclose(pc.word_b.letters[0].q, [[1.0]], atol=1e-12)
        assert pc.omega[1, 1] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_rejects_real(self, rng):
        with pytest.raises(RealMatrix):
            pair_to_partial(haar_orthogonal(2, rng).astype(complex))

    def test_identity_v_i_standard(self, rng):
        pc = pair_to_partial(1j * np.eye(1))
        pts = rng.uniform(-3, 3, size=(30, 2))
        assert verify_pair_identity(pc, standard_gaussian(1), pts) <= 1e-12

    def test_identity_random(self, rng):
        checked = 0
        for _ in range(15):
            d = int(rng.integers(1, 4))
            v = haar_unitary(d, rng)
            pc = pair_to_partial(v)
            f = random_gaussian(d, rng)
            pts = rng.uniform(-2.5, 2.5, size=(30, 2 * d))
            assert verify_pair_identity(pc, f, pts) <= 1e-8
            checked += 1
        assert checked >= 10

    def test_scaling_quadratic(self, rng):
        # both sides scale by c^2 when f is scaled by c; the error is scale-free
        pc = pair_to_partial(haar_unitary(2, rng))
        f = random_gaussian(2, rng)
        f3 = type(f)(f.m, f.b, f.logamp + np.log(3.0))
        pts = rng.uniform(-2, 2, size=(20, 4))
        assert verify_pair_identity(pc, f3, pts) <= 1e-9
