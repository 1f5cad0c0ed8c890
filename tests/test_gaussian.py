import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtfr.errors import DimensionMismatch, NumericalFailure
from mtfr.gaussian import (
    COND_MAX,
    GeneralizedGaussian,
    apply_dilation,
    apply_partial_fourier,
    apply_symplectic,
    apply_word,
    conjugate,
    evaluate,
    log_modulus,
    partial_stft_log_modulus,
    partial_stft_point,
    random_gaussian,
    standard_gaussian,
    tensor,
)
from mtfr.symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    SymplecticMatrix,
    factor_to_word,
    random_symplectic,
    random_word,
    standard_j,
)

from conftest import (
    gaussians,
    generator_words,
    haar_orthogonal,
    l1_norm,
    log_l2_norm,
    random_spd,
    restrict,
)


def reference_chirp(g, q):
    """e^{i pi x.Qx} f: M <- M - iQ, the modulus unchanged."""
    return GeneralizedGaussian(g.m - 1j * q, g.b, g.logamp)


def reference_dilation(g, l):
    """|det L|^{-1/2} f(L^{-1} x): M <- L^{-T} M L^{-1}, b <- L^{-T} b."""
    sign, logdet = np.linalg.slogdet(l)
    linv = np.linalg.inv(l)
    m = linv.T @ g.m @ linv
    return GeneralizedGaussian(0.5 * (m + m.T), linv.T @ g.b, g.logamp - 0.5 * logdet)


def reference_partial_fourier(g, axes):
    """Fourier transform over the axis subset by completing the square.

    With M partitioned into the transform block S and the rest R and
    K = M_SS^{-1}, the image has

        M'_SS = K,  M'_SR = -i K M_SR,  M'_RR = M_RR - M_RS K M_SR,
        b'_S = -i K b_S,  b'_R = b_R - M_RS K b_S,
        logamp' += Re(pi b_S.K b_S) - log|det M_SS| / 2,

    the image of exp(-pi x.Mx + 2pi b.x) under int exp(-2pi i x_S.w_S) dx_S.
    A transform block of condition beyond COND_MAX raises NumericalFailure.
    """
    idx_s = np.array(axes, dtype=int)
    idx_r = np.array([a for a in range(g.n) if a not in axes], dtype=int)
    ss = np.ix_(idx_s, idx_s)
    mss = g.m[ss]
    if np.linalg.cond(mss) > COND_MAX:
        raise NumericalFailure("transform block beyond the condition cutoff")
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


def reference_apply_word(g, word):
    """The letter walk: each letter's own closed form, the last letter first.

    `apply_word` (and with it every letter action of the library) acts
    through the word's matrix instead; this keeps the letter calculus as an
    independent check of that action.
    """
    for letter in reversed(word.letters):
        if isinstance(letter, Chirp):
            g = reference_chirp(g, letter.q)
        elif isinstance(letter, Dilation):
            g = reference_dilation(g, letter.l)
        else:
            g = reference_partial_fourier(g, letter.axes)
    return g


def assert_same_gaussian(out, ref, tol=1e-12):
    np.testing.assert_allclose(out.m, ref.m, rtol=tol, atol=tol)
    np.testing.assert_allclose(out.b, ref.b, rtol=tol, atol=tol)
    assert out.logamp == pytest.approx(ref.logamp, abs=tol)


def act(g, letter):
    """The action of one letter: `apply_word` of the one-letter word."""
    return apply_word(g, GeneratorWord(g.n, (letter,)))


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

    def test_overflowing_norms_still_measure_asymmetry(self):
        # ||M|| and ||M - M^T|| overflow; M / max|M| has asymmetry 2 sqrt 2
        with pytest.raises(NumericalFailure, match="asymmetry"):
            GeneralizedGaussian([[1.0, 1e308], [-1e308, 1.0]], [0.0, 0.0])

    def test_huge_symmetric_input_stays_finite(self):
        # M + M^T would overflow; the halves are summed instead
        m = np.array([[1.7e308, 1.0], [1.0, 1e308 + 1e308j]])
        assert GeneralizedGaussian(m, [0.0, 0.0]).m.tobytes() == m.tobytes()


class TestChirpAction:
    def test_zero_chirp(self, rng):
        g = random_gaussian(2, rng)
        out = act(g, Chirp(np.zeros((2, 2))))
        np.testing.assert_allclose(out.m, g.m)

    def test_standard_plus_identity_chirp(self):
        g = standard_gaussian(2)
        out = act(g, Chirp(np.eye(2)))
        np.testing.assert_allclose(out.m, np.eye(2) - 1j * np.eye(2))

    def test_modulus_unchanged(self, rng):
        g = random_gaussian(2, rng)
        q = random_spd(2, rng) - np.eye(2)
        out = act(g, Chirp(0.5 * (q + q.T)))
        pts = rng.uniform(-2, 2, size=(20, 2))
        np.testing.assert_allclose(
            np.exp(log_modulus(out, pts)), np.exp(log_modulus(g, pts)), rtol=1e-14
        )

    @given(gaussians(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_letter_equals_constructor_bitwise(self, g, data):
        t = data.draw(hnp.arrays(np.float64, (g.n, g.n), elements=st.floats(-1e3, 1e3)))
        q = Chirp(0.5 * (t + t.T)).q  # exactly symmetric, as every letter's
        out = act(g, Chirp(q))
        ref = GeneralizedGaussian(g.m - 1j * q, g.b, g.logamp)
        # A + BZ = I, so the matrix action is exact; only the sign of a
        # zero may differ, and adding 0.0 makes every zero +0
        assert (out.m + 0.0).tobytes() == (ref.m + 0.0).tobytes()
        assert (out.b + 0.0).tobytes() == (ref.b + 0.0).tobytes()
        assert np.float64(out.logamp + 0.0).tobytes() == np.float64(ref.logamp + 0.0).tobytes()
        assert not out.m.flags.writeable

    def test_asymmetric_chirp_is_checked(self, rng):
        # a Q that no Chirp letter holds (so the matrix is not symplectic)
        # still goes through the constructor, which rejects M - iQ
        s = np.eye(4)
        s[2:, :2] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(NumericalFailure, match="asymmetry"):
            apply_symplectic(random_gaussian(2, rng), s)


class TestChecksKept:
    """Every action, a single letter's included, and a tensor product build
    their result through the constructor once, so each re-checks positive
    definiteness once."""

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
            (lambda g: act(g, Chirp(np.array([[0.5, -0.2], [-0.2, 1.5]]))), 1),
            (lambda g: apply_dilation(g, np.array([[1.5, 0.3], [0.0, 0.7]])), 1),
            (lambda g: apply_partial_fourier(g, (1,)), 1),
            (lambda g: tensor(g, g), 1),
            (lambda g: apply_word(g, random_word(2, 6, np.random.default_rng(3))), 1),
        ],
        ids=["chirp", "dilation", "partial-fourier", "tensor", "word"],
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

    def test_matches_closed_form(self, rng):
        for n in (1, 2, 3):
            g = random_gaussian(n, rng)
            l = rng.uniform(-1.0, 1.0, size=(n, n)) + 1.5 * np.eye(n)
            assert_same_gaussian(apply_dilation(g, l), reference_dilation(g, l))


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
            assert abs(np.exp(log_modulus(out, [w]))[()] - abs(num)) < 1e-10 * max(abs(num), 1e-8)

    def test_partial_axis_matches_quadrature(self, rng):
        g = random_gaussian(2, rng)
        out = apply_partial_fourier(g, (0,))
        t = np.linspace(-20, 20, 40001)
        dt = t[1] - t[0]
        for (w, y) in [(0.4, -0.8), (-1.0, 0.3)]:
            vals = evaluate(g, np.stack([t, np.full_like(t, y)], axis=-1))
            num = abs(np.sum(vals * np.exp(-2j * np.pi * t * w)) * dt)
            assert abs(np.exp(log_modulus(out, [w, y]))[()] - num) < 1e-10 * max(num, 1e-8)

    @pytest.mark.parametrize("axes", [(0,), (1,), (2,), (0, 2), (0, 1, 2)])
    def test_matches_closed_form(self, rng, axes):
        g = random_gaussian(3, rng)
        assert_same_gaussian(
            apply_partial_fourier(g, axes), reference_partial_fourier(g, axes)
        )

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
        np.testing.assert_allclose(
            np.exp(log_modulus(out, pts)), np.exp(log_modulus(g, pts)), rtol=1e-10
        )

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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_letter_walk(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        # moderate Im M: the walk's error grows with the condition of each
        # intermediate Fourier block (|Im M| ~ 200 gives it 1e-10 in log|f|)
        g = data.draw(gaussians(n=n, spread=3.0), label="g")
        word = data.draw(generator_words(max_letters=8, n=n), label="word")
        try:
            ref = reference_apply_word(g, word)
        except NumericalFailure:
            reject()  # an intermediate Fourier block beyond the cutoff
        out = apply_word(g, word)
        assert np.linalg.norm(out.m - ref.m) <= 1e-10 * np.linalg.norm(ref.m)
        assert np.linalg.norm(out.b.real - ref.b.real) <= 1e-10 * np.linalg.norm(ref.b)
        x = data.draw(hnp.arrays(np.float64, (8, n), elements=st.floats(-2.0, 2.0)))
        want = log_modulus(ref, x)
        assert np.all(
            np.abs(log_modulus(out, x) - want) <= 1e-10 * np.maximum(1.0, np.abs(want))
        )

    def test_ill_conditioned_intermediate_block(self):
        # F F is the parity: the walk's first Fourier block has condition
        # 1e13 and raises, while A + BZ = -I of the product is exact
        g = GeneralizedGaussian(np.diag([1e6, 1e-7]), [0.3, -0.2j], 0.4)
        word = GeneratorWord(2, (PartialFourier((0, 1)),) * 2)
        with pytest.raises(NumericalFailure):
            reference_apply_word(g, word)
        out = apply_word(g, word)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
        np.testing.assert_array_equal(log_modulus(out, pts), log_modulus(g, -pts))

    def test_symplectic_condition_cutoff(self):
        # J maps Z to -Z^{-1}: A + BZ = Z, of condition 1e13
        g = GeneralizedGaussian(np.diag([1e6, 1e-7]), np.zeros(2))
        with pytest.raises(NumericalFailure, match="condition"):
            apply_symplectic(g, standard_j(2))

    def test_symplectic_size_checked(self, rng):
        with pytest.raises(DimensionMismatch):
            apply_symplectic(random_gaussian(2, rng), np.eye(2))


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
        lhs = act(tensor(g1, g2), Chirp(block))
        rhs = tensor(act(g1, Chirp(q1)), act(g2, Chirp(q2)))
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_quadrature_oracle_k2(self, rng, d):
        # a direct trapezoid sum over t in R^2 on [-8, 8]^2
        f, g = random_gaussian(d, rng), random_gaussian(d, rng)
        x = rng.uniform(-0.6, 0.6, size=d)
        om = rng.uniform(-0.6, 0.6, size=d)
        t = np.linspace(-8, 8, 401)
        dt = t[1] - t[0]
        tt = np.stack(np.meshgrid(t, t, indexing="ij"), -1)
        rest = tt.shape[:2] + (d - 2,)
        fv = evaluate(f, np.concatenate([tt, np.broadcast_to(x[2:], rest)], -1))
        gv = evaluate(g, np.concatenate([tt - x[:2], np.broadcast_to(-om[2:], rest)], -1))
        num = abs(np.sum(fv * np.conj(gv) * np.exp(-2j * np.pi * (tt @ om[:2]))) * dt * dt)
        got = partial_stft_point(f, g, 2, x, om)[()]
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

    @given(st.floats(11.0, 13.0), st.floats(0.0, np.pi), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_condition_guard_is_linalg_cond(self, e, theta, im):
        # the guard takes s[0]/s[-1] of one SVD, the quantity np.linalg.cond
        # computes; the returned values do not depend on it
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        re = rot @ np.diag([1.0, 10.0**-e]) @ rot.T
        f = GeneralizedGaussian(0.5 * re + 1j * im * 10.0**-e * np.eye(2), np.zeros(2))
        g = GeneralizedGaussian(0.5 * re, np.zeros(2))
        cond = np.linalg.cond(f.m + g.m.conj())
        x, w = np.array([0.3, -0.1]), np.array([0.2, 0.5])
        if cond > COND_MAX:
            with pytest.raises(NumericalFailure, match="condition"):
                partial_stft_log_modulus(f, g, 2, x, w)
        else:
            assert np.isfinite(partial_stft_log_modulus(f, g, 2, x, w))

    def test_symplectic_covariance_chirp(self, rng):
        # |V_g f(x, w)| = |V_{Cg} Cf(x, cx + w)| for the chirp letter C
        f, g = random_gaussian(1, rng), random_gaussian(1, rng)
        c = 0.8
        cf = act(f, Chirp(np.array([[c]])))
        cg = act(g, Chirp(np.array([[c]])))
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
        num = np.sum(np.exp(log_modulus(g, t[:, None]))) * (t[1] - t[0])
        assert l1_norm(g) == pytest.approx(num, rel=1e-9)
