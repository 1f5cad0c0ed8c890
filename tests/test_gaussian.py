import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtfr.errors import DimensionMismatch, NumericalFailure
from mtfr.gaussian import (
    GeneralizedGaussian,
    apply_chirp,
    apply_dilation,
    apply_partial_fourier,
    apply_word,
    conjugate,
    evaluate,
    l1_norm,
    log_l2_norm,
    log_modulus,
    modulus,
    partial_stft_point,
    random_gaussian,
    restrict,
    standard_gaussian,
    tensor,
)
from mtfr.symplectic import (
    Chirp,
    GeneratorWord,
    SymplecticMatrix,
    factor_to_word,
    random_symplectic,
    random_word,
    standard_j,
)

from conftest import gaussians, haar_orthogonal, random_spd


def quadrature_ft(g, omega, axis_extent=20.0, n=40001):
    """Independent 1-D Fourier oracle by Riemann sum."""
    t = np.linspace(-axis_extent, axis_extent, n)
    vals = evaluate(g, t[:, None]).ravel()
    return np.sum(vals * np.exp(-2j * np.pi * t * omega)) * (t[1] - t[0])


class TestType:
    def test_standard_is_normalized(self):
        for n in (1, 2, 3):
            assert abs(log_l2_norm(standard_gaussian(n))) < 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(NumericalFailure):
            GeneralizedGaussian(-np.eye(1), np.zeros(1))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericalFailure):
            GeneralizedGaussian(m, np.zeros(2))

    @pytest.mark.parametrize(
        "m,b",
        [
            ([[np.nan]], [0.0]),
            ([[np.inf]], [0.0]),
            ([[1.0, np.inf], [np.inf, 1.0]], [0.0, 0.0]),
            ([[1.0 + 1j * np.nan]], [0.0]),
            (np.eye(1), [np.nan]),
            (np.eye(2), [0.0, 1j * np.inf]),
        ],
        ids=["nan-m", "inf-m", "inf-offdiag", "nan-imag-m", "nan-b", "inf-imag-b"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite(self, m, b):
        with pytest.raises(DimensionMismatch, match="must be finite"):
            GeneralizedGaussian(m, b)

    @pytest.mark.parametrize("logamp", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_logamp(self, logamp):
        with pytest.raises(DimensionMismatch, match="logamp must be finite"):
            GeneralizedGaussian(np.eye(1), [0.0], logamp)

    def test_huge_finite_input_constructs(self):
        # the norms overflow, the entries are finite
        g = GeneralizedGaussian(1e200 * np.eye(2), [1e200, -1e200])
        assert g.m[0, 0] == 1e200 and g.b[1] == -1e200


class TestChirpAction:
    def test_zero_chirp(self, rng):
        g = random_gaussian(2, rng)
        out = apply_chirp(g, np.zeros((2, 2)))
        np.testing.assert_allclose(out.m, g.m)

    def test_standard_plus_identity_chirp(self):
        g = standard_gaussian(2)
        out = apply_chirp(g, np.eye(2))
        np.testing.assert_allclose(out.m, np.eye(2) - 1j * np.eye(2))

    def test_modulus_unchanged(self, rng):
        g = random_gaussian(2, rng)
        q = random_spd(2, rng) - np.eye(2)
        out = apply_chirp(g, 0.5 * (q + q.T))
        pts = rng.uniform(-2, 2, size=(20, 2))
        np.testing.assert_allclose(modulus(out, pts), modulus(g, pts), rtol=1e-14)

    @given(gaussians(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_letter_equals_constructor_bitwise(self, g, data):
        t = data.draw(hnp.arrays(np.float64, (g.n, g.n), elements=st.floats(-1e3, 1e3)))
        q = Chirp(0.5 * (t + t.T)).q  # exactly symmetric, as every letter's
        out = apply_chirp(g, q)
        ref = GeneralizedGaussian(g.m - 1j * q, g.b, g.logamp)
        assert out.m.tobytes() == ref.m.tobytes()
        assert out.b.tobytes() == ref.b.tobytes()
        assert np.float64(out.logamp).tobytes() == np.float64(ref.logamp).tobytes()
        assert not out.m.flags.writeable

    def test_asymmetric_chirp_is_checked(self, rng):
        # a Q that no Chirp letter holds still goes through the constructor
        with pytest.raises(NumericalFailure):
            apply_chirp(random_gaussian(2, rng), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestChecksKept:
    """Re M changes under a dilation, a partial Fourier letter and a tensor
    product, so each re-checks positive definiteness once; a chirp keeps
    Re M and carries its input's checks over."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(1)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize(
        "apply,expected",
        [
            (lambda g: apply_chirp(g, np.array([[0.5, -0.2], [-0.2, 1.5]])), 0),
            (lambda g: apply_dilation(g, np.array([[1.5, 0.3], [0.0, 0.7]])), 1),
            (lambda g: apply_partial_fourier(g, (1,)), 1),
            (lambda g: tensor(g, g), 1),
        ],
        ids=["chirp", "dilation", "partial-fourier", "tensor"],
    )
    def test_eigvalsh_calls(self, rng, eigvalsh_calls, apply, expected):
        g = random_gaussian(2, rng)
        eigvalsh_calls.clear()
        apply(g)
        assert len(eigvalsh_calls) == expected


class TestDilationAction:
    def test_identity(self, rng):
        g = random_gaussian(2, rng)
        out = apply_dilation(g, np.eye(2))
        np.testing.assert_allclose(out.m, g.m)
        assert out.logamp == pytest.approx(g.logamp)

    def test_scalar_case(self):
        g = GeneralizedGaussian(np.eye(1), np.zeros(1), 0.0)
        out = apply_dilation(g, np.array([[2.0]]))
        np.testing.assert_allclose(out.m, [[0.25]])
        assert out.logamp == pytest.approx(-0.5 * np.log(2.0))

    def test_l2_norm_preserved(self, rng):
        # dilations are unitary; the closed-form norm is the oracle
        g = random_gaussian(3, rng)
        for _ in range(5):
            l = random_spd(3, rng) @ haar_orthogonal(3, rng)
            out = apply_dilation(g, l)
            assert abs(log_l2_norm(out) - log_l2_norm(g)) < 1e-12


class TestPartialFourier:
    def test_standard_self_dual(self):
        for axes in [(0,), (1,), (0, 1)]:
            g = standard_gaussian(2)
            out = apply_partial_fourier(g, axes)
            np.testing.assert_allclose(out.m, np.eye(2), atol=1e-14)
            np.testing.assert_allclose(out.b, 0, atol=1e-14)
            assert abs(out.logamp - g.logamp) < 1e-14

    def test_isotropic_scaling(self):
        # M = aI, all axes: M' = I/a, logamp -= (n/2) log a; quadrature oracle
        a = 1.7
        g = GeneralizedGaussian(a * np.eye(2), np.zeros(2), 0.1)
        out = apply_partial_fourier(g, (0, 1))
        np.testing.assert_allclose(out.m, np.eye(2) / a, atol=1e-14)
        assert out.logamp == pytest.approx(0.1 - np.log(a))

    def test_full_ft_matches_quadrature(self, rng):
        g = random_gaussian(1, rng)
        out = apply_partial_fourier(g, (0,))
        for w in (-1.1, 0.0, 0.8):
            num = quadrature_ft(g, w)
            assert abs(modulus(out, [w])[()] - abs(num)) < 1e-10 * max(abs(num), 1e-8)

    def test_partial_axis_matches_quadrature(self, rng):
        g = random_gaussian(2, rng)
        out = apply_partial_fourier(g, (0,))
        t = np.linspace(-20, 20, 40001)
        dt = t[1] - t[0]
        for (w, y) in [(0.4, -0.8), (-1.0, 0.3)]:
            vals = evaluate(g, np.stack([t, np.full_like(t, y)], axis=-1))
            num = abs(np.sum(vals * np.exp(-2j * np.pi * t * w)) * dt)
            assert abs(modulus(out, [w, y])[()] - num) < 1e-10 * max(num, 1e-8)

    def test_axis_compositionality(self, rng):
        # the transform over {0, 1} equals the two single-axis transforms
        g = random_gaussian(3, rng)
        both = apply_partial_fourier(g, (0, 1))
        seq = apply_partial_fourier(apply_partial_fourier(g, (1,)), (0,))
        np.testing.assert_allclose(both.m, seq.m, atol=1e-12)
        np.testing.assert_allclose(both.b, seq.b, atol=1e-12)
        assert both.logamp == pytest.approx(seq.logamp, abs=1e-12)

    def test_double_transform_is_reflection(self, rng):
        g = random_gaussian(2, rng)
        out = apply_partial_fourier(apply_partial_fourier(g, (0,)), (0,))
        pts = rng.uniform(-2, 2, size=(30, 2))
        reflected = pts * np.array([-1.0, 1.0])
        np.testing.assert_allclose(
            log_modulus(out, pts), log_modulus(g, reflected), atol=1e-10
        )


class TestWordAction:
    def test_empty_word(self, rng):
        g = random_gaussian(2, rng)
        out = apply_word(g, GeneratorWord(2, ()))
        np.testing.assert_allclose(out.m, g.m)

    def test_j_word_on_standard(self):
        g = standard_gaussian(2)
        word = factor_to_word(SymplecticMatrix.from_array(standard_j(2)))
        out = apply_word(g, word)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
        np.testing.assert_allclose(modulus(out, pts), modulus(g, pts), rtol=1e-10)

    def test_plancherel_under_random_words(self, rng):
        for n in (1, 2, 3):
            g = random_gaussian(n, rng)
            for _ in range(8):
                word = random_word(n, 6, rng)
                out = apply_word(g, word)
                assert abs(log_l2_norm(out) - log_l2_norm(g)) <= 1e-10

    def test_two_words_same_matrix_agree(self, rng):
        # two factorizations through different tau must give the same modulus
        m = random_symplectic(2, 5, seed=11)
        w1 = factor_to_word(m)
        w2 = factor_to_word(m, tau=np.exp(1j * np.pi * 0.37))
        g = random_gaussian(2, rng)
        pts = rng.uniform(-2, 2, size=(50, 2))
        np.testing.assert_allclose(
            log_modulus(apply_word(g, w1), pts),
            log_modulus(apply_word(g, w2), pts),
            atol=1e-9,
        )


class TestTensorConjugate:
    def test_tensor_of_standards(self):
        g = tensor(standard_gaussian(1), standard_gaussian(1))
        np.testing.assert_allclose(g.m, np.eye(2))
        assert g.logamp == pytest.approx(0.5 * np.log(2.0))

    def test_conjugate_involution(self, rng):
        g = random_gaussian(2, rng)
        out = conjugate(conjugate(g))
        np.testing.assert_allclose(out.m, g.m)
        np.testing.assert_allclose(out.b, g.b)

    def test_pointwise_product(self, rng):
        g1, g2 = random_gaussian(1, rng), random_gaussian(2, rng)
        big = tensor(g1, g2)
        pts = rng.uniform(-1.5, 1.5, size=(20, 3))
        lhs = evaluate(big, pts)
        rhs = evaluate(g1, pts[:, :1]) * evaluate(g2, pts[:, 1:])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestOperatorEmbedding:
    """Tensor embedding of the generators: block-diagonal parameters act
    factorwise on elementary tensors."""

    def test_chirp_embedding(self, rng):
        g1, g2 = random_gaussian(1, rng), random_gaussian(2, rng)
        q1 = np.array([[0.4]])
        q2 = random_spd(2, rng) - np.eye(2)
        q2 = 0.5 * (q2 + q2.T)
        block = np.zeros((3, 3))
        block[:1, :1] = q1
        block[1:, 1:] = q2
        lhs = apply_chirp(tensor(g1, g2), block)
        rhs = tensor(apply_chirp(g1, q1), apply_chirp(g2, q2))
        np.testing.assert_allclose(lhs.m, rhs.m, atol=1e-13)

    def test_dilation_embedding(self, rng):
        g1, g2 = random_gaussian(1, rng), random_gaussian(1, rng)
        block = np.diag([1.7, 0.6])
        lhs = apply_dilation(tensor(g1, g2), block)
        rhs = tensor(
            apply_dilation(g1, [[1.7]]), apply_dilation(g2, [[0.6]])
        )
        np.testing.assert_allclose(lhs.m, rhs.m, atol=1e-13)
        assert lhs.logamp == pytest.approx(rhs.logamp)

    def test_fourier_embedding(self, rng):
        g1, g2 = random_gaussian(1, rng), random_gaussian(1, rng)
        lhs = apply_partial_fourier(tensor(g1, g2), (0,))
        rhs = tensor(apply_partial_fourier(g1, (0,)), g2)
        np.testing.assert_allclose(lhs.m, rhs.m, atol=1e-13)
        np.testing.assert_allclose(lhs.b, rhs.b, atol=1e-13)


class TestPartialStft:
    def test_vphiphi_closed_form(self):
        phi = standard_gaussian(1)
        for (x, w) in [(0.0, 0.0), (0.4, -1.1), (1.5, 2.0)]:
            got = partial_stft_point(phi, phi, 1, [x], [w])[()]
            want = np.exp(-np.pi * (x * x + w * w) / 2.0)
            assert got == pytest.approx(want, rel=1e-13)

    def test_quadrature_oracle_d1(self, rng):
        f, g = random_gaussian(1, rng), random_gaussian(1, rng)
        t = np.linspace(-20, 20, 40001)
        dt = t[1] - t[0]
        for (x, w) in [(0.3, 0.7), (-0.9, 0.2)]:
            num = abs(
                np.sum(
                    evaluate(f, t[:, None]).ravel()
                    * np.conj(evaluate(g, (t - x)[:, None]).ravel())
                    * np.exp(-2j * np.pi * t * w)
                )
                * dt
            )
            got = partial_stft_point(f, g, 1, [x], [w])[()]
            assert abs(got - num) < 1e-10 * max(num, 1e-8)

    def test_quadrature_oracle_d2_k1(self, rng):
        f, g = random_gaussian(2, rng), random_gaussian(2, rng)
        x = np.array([0.37, -0.55])
        om = np.array([0.81, 0.22])
        t = np.linspace(-20, 20, 40001)
        dt = t[1] - t[0]
        fv = evaluate(f, np.stack([t, np.full_like(t, x[1])], -1))
        gv = evaluate(g, np.stack([t - x[0], np.full_like(t, -om[1])], -1))
        num = abs(np.sum(fv * np.conj(gv) * np.exp(-2j * np.pi * t * om[0])) * dt)
        got = partial_stft_point(f, g, 1, x, om)[()]
        assert abs(got - num) < 1e-10 * max(num, 1e-8)

    def test_cauchy_schwarz_at_origin(self, rng):
        f, g = random_gaussian(2, rng), random_gaussian(2, rng)
        x2, w2 = 0.3, -0.7
        got = partial_stft_point(f, g, 1, [0.0, x2], [0.0, w2])[()]
        fr = restrict(f, (1,), [x2])
        gr = restrict(g, (1,), [-w2])
        bound = np.exp(log_l2_norm(fr) + log_l2_norm(gr))
        assert got <= bound * (1.0 + 1e-12)

    def test_symplectic_covariance_general(self, rng):
        # |V_g f(lam)| = |V_{Ag} Af(A lam)| for any symplectic A acting by
        # its generator word; exercises every convention at once
        worst = 0.0
        for seed in range(10):
            a = random_symplectic(1, 5, seed=seed)
            word = factor_to_word(a)
            f, g = random_gaussian(1, rng), random_gaussian(1, rng)
            af, ag = apply_word(f, word), apply_word(g, word)
            for _ in range(5):
                lam = rng.uniform(-2, 2, size=2)
                alam = a.entries @ lam
                lhs = partial_stft_point(f, g, 1, lam[:1], lam[1:])[()]
                rhs = partial_stft_point(af, ag, 1, alam[:1], alam[1:])[()]
                if lhs > 1e-12:
                    worst = max(worst, abs(lhs - rhs) / lhs)
        assert worst <= 1e-10

    def test_condition_cutoff(self):
        g = GeneralizedGaussian(np.diag([1e6, 1e-7]), np.zeros(2), 0.0)
        with pytest.raises(NumericalFailure):
            apply_partial_fourier(g, (0, 1))

    def test_symplectic_covariance_chirp(self, rng):
        # |V_g f(x, w)| = |V_{Cg} Cf(x, cx + w)| for the chirp letter C
        f, g = random_gaussian(1, rng), random_gaussian(1, rng)
        c = 0.8
        cf = apply_chirp(f, np.array([[c]]))
        cg = apply_chirp(g, np.array([[c]]))
        for (x, w) in [(0.5, -0.3), (-1.1, 0.9)]:
            lhs = partial_stft_point(f, g, 1, [x], [w])[()]
            rhs = partial_stft_point(cf, cg, 1, [x], [c * x + w])[()]
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_batched_points(self, rng):
        f, g = random_gaussian(2, rng), random_gaussian(2, rng)
        pts_x = rng.uniform(-2, 2, size=(40, 2))
        pts_w = rng.uniform(-2, 2, size=(40, 2))
        batch = partial_stft_point(f, g, 1, pts_x, pts_w)
        single = [
            partial_stft_point(f, g, 1, pts_x[i], pts_w[i])[()] for i in range(40)
        ]
        np.testing.assert_allclose(batch, single, rtol=1e-13)

    def test_l1_norm_oracle(self, rng):
        g = random_gaussian(1, rng)
        t = np.linspace(-20, 20, 400001)
        num = np.sum(modulus(g, t[:, None])) * (t[1] - t[0])
        assert l1_norm(g) == pytest.approx(num, rel=1e-9)
