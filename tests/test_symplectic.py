import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfr import symplectic as S
from mtfr.errors import (
    DimensionMismatch,
    NotFree,
    NotSymmetric,
    NotSymplectic,
    NotUnitary,
    NumericalFailure,
    Singular,
)
from mtfr.symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    TOL_INV,
    TOL_SYM,
    SymplecticMatrix,
    factor_to_word,
    free_factorize,
    invert_word,
    letter_matrix,
    make_chirp,
    make_dilation,
    make_rotation,
    pre_iwasawa,
    random_symplectic,
    random_word,
    rotation_word,
    select_tau_balanced,
    standard_j,
    symplectic_defect,
)

from conftest import generator_words, haar_orthogonal, haar_unitary, random_spd


def test_standard_j():
    j = standard_j(2)
    np.testing.assert_allclose(j @ j, -np.eye(4))
    assert symplectic_defect(j) < 1e-15


class TestChirp:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(make_chirp(np.zeros((1, 1))).entries, np.eye(2))

    def test_identity_block(self):
        m = make_chirp(np.eye(2))
        np.testing.assert_allclose(m.c, np.eye(2))
        np.testing.assert_allclose(m.a, np.eye(2))
        assert symplectic_defect(m.entries) < 1e-14

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            make_chirp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "q", [[[np.inf]], [[np.nan]], [[0.0, np.nan], [np.nan, 0.0]], [[1.0, 2.0], [2.0, -np.inf]]]
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite(self, q):
        with pytest.raises(DimensionMismatch, match="Chirp: entries must be finite"):
            Chirp(q)

    def test_huge_finite_q_constructs(self):
        q = np.array([[1e200, 3.0], [3.0, -1e200]])
        assert Chirp(q).q.tobytes() == q.tobytes()

    def test_overflowing_norms_still_measure_asymmetry(self):
        # ||q|| and ||q - q^T|| overflow; q / max|q| has asymmetry 2 sqrt 2
        with pytest.raises(NotSymmetric):
            Chirp(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_huge_symmetric_q_stays_finite(self):
        # q + q^T would overflow; the halves are summed instead
        q = np.array([[1.7e308, 1.0], [1.0, -1e308]])
        assert Chirp(q).q.tobytes() == q.tobytes()

    @given(st.integers(1, 5), st.integers(0, 10**6), st.floats(0.0, 1e-13))
    @settings(max_examples=40, deadline=None)
    def test_symmetrized_q_and_tolerance(self, n, seed, skew):
        # Q = (q + q^T)/2 bit for bit; an asymmetry past TOL_SYM ||q||_F raises
        r = np.random.default_rng(seed)
        q = r.normal(size=(n, n))
        q = q + q.T
        q[0, -1] += skew * np.linalg.norm(q)
        assert Chirp(q).q.tobytes() == (0.5 * (q + q.T)).tobytes()
        if n > 1:
            q[0, -1] += 2 * TOL_SYM * max(1.0, np.linalg.norm(q))
            with pytest.raises(NotSymmetric):
                Chirp(q)

    def test_no_linalg_norm_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")

        monkeypatch.setattr(np.linalg, "norm", forbidden)
        Chirp(np.array([[2.0, 0.3], [0.3, 0.5]]))

    @given(st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_homomorphism(self, n, seed):
        # group isomorphism: V_{Q1} V_{Q2} = V_{Q1+Q2}
        r = np.random.default_rng(seed)
        q1 = random_spd(n, r) - 2 * np.eye(n)
        q2 = random_spd(n, r) - np.eye(n)
        lhs = make_chirp(q1).entries @ make_chirp(q2).entries
        np.testing.assert_allclose(lhs, make_chirp(q1 + q2).entries, atol=1e-12)


class TestDilation:
    def test_identity(self):
        np.testing.assert_allclose(make_dilation(np.eye(3)).entries, np.eye(6))

    def test_scalar_two(self):
        np.testing.assert_allclose(
            make_dilation(np.array([[2.0]])).entries, np.diag([2.0, 0.5])
        )

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            make_dilation(np.array([[1.0, 0.0], [1.0, 1e-12]]))

    def test_one_svd_per_letter(self, monkeypatch):
        # sigma_min and ||L||_2 come from one SVD; np.linalg.norm(l, 2)
        # would run a second through the module-level name
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        Dilation(np.array([[2.0, 0.3], [0.1, 0.5]]))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "l", [[[np.inf]], [[np.nan]], [[1.0, np.nan], [0.0, 1.0]], [[1.0, 0.0], [-np.inf, 1.0]]]
    )
    def test_rejects_non_finite(self, l):
        with pytest.raises(DimensionMismatch, match="Dilation: entries must be finite"):
            Dilation(l)

    def test_huge_finite_l_constructs(self):
        l = np.diag([1e300, 1e300])
        assert Dilation(l).l.tobytes() == l.tobytes()

    @pytest.mark.parametrize("scale", [0.5, 1e3])
    def test_singular_threshold(self, scale):
        # sigma_min <= TOL_INV * max(1, sigma_max) is singular
        bound = TOL_INV * max(1.0, scale)
        Dilation(np.diag([scale, 1.01 * bound]))
        with pytest.raises(Singular):
            Dilation(np.diag([scale, 0.99 * bound]))

    def test_homomorphism(self, rng):
        l1 = random_spd(3, rng)
        l2 = haar_orthogonal(3, rng)
        lhs = make_dilation(l1).entries @ make_dilation(l2).entries
        np.testing.assert_allclose(lhs, make_dilation(l1 @ l2).entries, atol=1e-12)


class TestRotation:
    def test_identity(self):
        np.testing.assert_allclose(make_rotation(np.eye(2)).entries, np.eye(4))

    def test_i_gives_j(self):
        np.testing.assert_allclose(make_rotation(1j * np.eye(1)).entries, standard_j(1))

    def test_real_orthogonal_equals_dilation(self, rng):
        v = haar_orthogonal(3, rng)
        np.testing.assert_allclose(
            make_rotation(v).entries, make_dilation(v).entries, atol=1e-13
        )

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            make_rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["everywhere", "one entry"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_is_not_unitary(self, bad, where):
        u = np.full((2, 2), bad) if where == "everywhere" else np.array([[bad, 0.0], [0.0, 1.0]])
        imaginary = np.zeros(u.shape, dtype=complex)
        imaginary.imag = u
        for v in (u, imaginary):
            with pytest.raises(NotUnitary):
                S.assert_unitary(v)
        with pytest.raises(NotUnitary):
            make_rotation(u)
        with pytest.raises(NotUnitary):
            select_tau_balanced(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_raises_before_any_warning(self, bad):
        # finiteness is tested before the u^H u product, which would warn
        with pytest.raises(NotUnitary, match="entries must be finite"):
            S.assert_unitary(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_orthogonality(self, rng):
        m = make_rotation(haar_unitary(3, rng)).entries
        np.testing.assert_allclose(m.T @ m, np.eye(6), atol=1e-12)

    def test_sandwich_identity(self, rng):
        # R_{WUV} = D_W R_U D_V for orthogonal W, V
        w = haar_orthogonal(3, rng)
        v = haar_orthogonal(3, rng)
        u = haar_unitary(3, rng)
        lhs = make_rotation(w @ u @ v).entries
        rhs = make_dilation(w).entries @ make_rotation(u).entries @ make_dilation(v).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestGateRule:
    """`_within` and `_near_singular` decide every tolerance gate, and fail closed."""

    def test_within_bound(self):
        assert S._within(1.0, 0.5, 2.0) is True
        assert S._within(1.01, 0.5, 2.0) is False
        # a scale below 1 counts as 1
        assert S._within(0.5, 0.5, 0.01) and not S._within(0.51, 0.5, 0.01)
        assert S._within(np.float64(0.5), 0.5) is True  # a Python bool, not numpy's

    @pytest.mark.parametrize(
        "residual, tol, scale",
        [(np.nan, 1e-10, 1.0), (0.0, 1e-10, np.nan), (0.0, 1e-10, np.inf),
         (1.0, 1e10, 1e300)],  # the last bound overflows
        ids=["nan-residual", "nan-scale", "infinite-scale", "overflowing-bound"],
    )
    def test_within_fails_closed(self, residual, tol, scale):
        assert S._within(residual, tol, scale) is False

    @pytest.mark.parametrize("sv", [[np.nan], [1.0, np.nan], [np.nan, 1.0]])
    def test_nan_singular_value_is_singular(self, sv):
        assert S._near_singular(np.array(sv))


class TestSymplecticMatrix:
    def test_rejects_nonsymplectic(self):
        with pytest.raises(NotSymplectic):
            SymplecticMatrix.from_array(np.diag([2.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(NotSymplectic):
            SymplecticMatrix.from_array(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_norms_fail_closed(self):
        # not symplectic: both norms of the defect overflow, so it is nan
        with pytest.raises(NotSymplectic, match="residual nan"):
            SymplecticMatrix.from_array(np.diag([1e200, 1e-200, 1.0, 1.0]))
        # symplectic, with defect 0, but the determinant's bound
        # 1e-6 ||M||_F overflows, so that gate cannot pass the matrix
        with pytest.raises(NotSymplectic, match="determinant"):
            SymplecticMatrix.from_array(np.diag([1e200, 1e-200, 1e-200, 1e200]))

    def test_blocks(self):
        j = SymplecticMatrix.from_array(standard_j(2))
        np.testing.assert_allclose(j.b, np.eye(2))
        np.testing.assert_allclose(j.c, -np.eye(2))


class TestPreIwasawa:
    def test_identity(self):
        pi = pre_iwasawa(SymplecticMatrix.from_array(np.eye(4)))
        np.testing.assert_allclose(pi.q, 0, atol=1e-15)
        np.testing.assert_allclose(pi.l, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(pi.u, np.eye(2), atol=1e-15)

    def test_j_case(self):
        # closed formulas give (Q, L, U) = (0, I, iI); product check is the oracle
        pi = pre_iwasawa(SymplecticMatrix.from_array(standard_j(1)))
        np.testing.assert_allclose(pi.q, 0, atol=1e-15)
        np.testing.assert_allclose(pi.l, np.eye(1), atol=1e-15)
        np.testing.assert_allclose(pi.u, 1j * np.eye(1), atol=1e-15)
        np.testing.assert_allclose(pi.reconstruct(), standard_j(1), atol=1e-15)

    def test_round_trip_random_words(self):
        for n in (1, 2, 3):
            for seed in range(40):
                m = random_symplectic(n, 8, seed=7000 + 13 * seed + n)
                pi = pre_iwasawa(m)
                err = np.linalg.norm(pi.reconstruct() - m.entries)
                assert err <= 1e-10 * max(1.0, np.linalg.norm(m.entries))
                evals = np.linalg.eigvalsh(pi.l)
                assert evals[0] > 0
                np.testing.assert_allclose(pi.l, pi.l.T, atol=1e-12)

    def test_uniqueness_under_canonical_constraint(self, rng):
        q = random_spd(2, rng) - 1.5 * np.eye(2)
        q = 0.5 * (q + q.T)
        l = random_spd(2, rng)
        u = haar_unitary(2, rng)
        m = make_chirp(q) @ make_dilation(l) @ make_rotation(u)
        pi = pre_iwasawa(m)
        np.testing.assert_allclose(pi.q, q, atol=1e-9)
        np.testing.assert_allclose(pi.l, l, atol=1e-9)
        np.testing.assert_allclose(pi.u, u, atol=1e-9)

    def test_factorized_once_per_matrix(self):
        m = random_symplectic(2, 6, seed=11)
        pi = pre_iwasawa(m)
        assert pre_iwasawa(m) is pi
        for factor in (pi.q, pi.l, pi.u):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 2.0
        # an equal but distinct matrix gets its own factorization, bit for bit the same
        twin = SymplecticMatrix(m.n, m.entries)
        other = pre_iwasawa(twin)
        assert other is not pi
        assert pre_iwasawa(twin) is other
        for a, b in ((pi.q, other.q), (pi.l, other.l), (pi.u, other.u)):
            assert a.tobytes() == b.tobytes()

    def test_failed_call_caches_nothing(self, monkeypatch):
        m = random_symplectic(1, 4, seed=3)

        def refuse(s):
            raise NumericalFailure("refused")

        with monkeypatch.context() as patch:
            patch.setattr(S, "_spd_sqrt", refuse)
            with pytest.raises(NumericalFailure):
                pre_iwasawa(m)
        assert "_pre_iwasawa" not in m.__dict__
        pi = pre_iwasawa(m)
        assert pre_iwasawa(m) is pi
        assert np.linalg.norm(pi.reconstruct() - m.entries) <= 1e-10


class TestFreeFactorize:
    def test_j_word(self):
        word = free_factorize(1j * np.eye(2))
        q1, d, f, q2 = word.letters
        np.testing.assert_allclose(q1.q, 0, atol=1e-15)
        np.testing.assert_allclose(d.l, np.eye(2), atol=1e-15)
        assert f.axes == (0, 1)
        np.testing.assert_allclose(word.matrix(), standard_j(2), atol=1e-14)

    def test_scalar_case(self):
        # U = (1+i)/sqrt(2): A = B = 1/sqrt(2), both chirps equal 1
        u = np.array([[(1.0 + 1.0j) / np.sqrt(2.0)]])
        word = free_factorize(u)
        np.testing.assert_allclose(word.letters[0].q, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(word.letters[1].l, [[1.0 / np.sqrt(2.0)]], atol=1e-14)
        np.testing.assert_allclose(word.matrix(), make_rotation(u).entries, atol=1e-14)

    def test_chirp_blocks_symmetric(self, rng):
        # property over random unitaries; the oracle is direct arithmetic on U
        for n in (2, 3, 4):
            for _ in range(20):
                u = haar_unitary(n, rng)
                b = u.imag
                if np.linalg.svd(b, compute_uv=False)[-1] < 1e-3:
                    continue
                left = u.real @ np.linalg.inv(b)
                right = np.linalg.inv(b) @ u.real
                assert np.linalg.norm(left - left.T) < 1e-10
                assert np.linalg.norm(right - right.T) < 1e-10
                word = free_factorize(u)
                np.testing.assert_allclose(
                    word.matrix(), make_rotation(u).entries, atol=1e-10
                )

    def test_not_free(self, rng):
        with pytest.raises(NotFree):
            free_factorize(haar_orthogonal(3, rng).astype(complex))


class TestSelectTau:
    def test_i_identity_input(self):
        tau = select_tau_balanced(1j * np.eye(3))
        assert abs(tau - 1.0) < 1e-14

    @staticmethod
    def _scan_loop(u, m=64):
        """Reference: one SVD per candidate tau, first best kept."""
        for resolution in (m, 2 * m):
            best_tau = None
            best_val = np.linalg.svd(u.imag, compute_uv=False)[-1]
            if best_val > TOL_INV:
                best_tau = 1.0 + 0.0j
            for j in range(1, resolution):
                tau = np.exp(1j * np.pi * j / resolution)
                smin = np.linalg.svd((tau * u).imag, compute_uv=False)[-1]
                score = min(smin, abs(tau.imag))
                if score > best_val:
                    best_tau, best_val = tau, score
            if best_tau is not None and best_val > TOL_INV:
                return best_tau
        return None

    @given(st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_batched_scan_equals_loop(self, n, seed):
        u = pre_iwasawa(random_symplectic(n, 6, seed=seed)).u
        tau = select_tau_balanced(u)
        assert type(tau) is type(self._scan_loop(u))
        assert tau == self._scan_loop(u)

    @pytest.mark.parametrize("resolution", [64, 128])
    def test_tau_table_is_built_once_and_read_only(self, resolution):
        taus = S._tau_table(resolution)
        assert S._tau_table(resolution) is taus
        assert not taus.flags.writeable
        with pytest.raises(ValueError):
            taus[0] = 1.0
        inline = np.array([np.exp(1j * np.pi * j / resolution) for j in range(1, resolution)])
        assert taus.dtype == inline.dtype
        assert taus.tobytes() == inline.tobytes()


class TestFactorToWord:
    def test_identity_empty(self):
        word = factor_to_word(SymplecticMatrix.from_array(np.eye(4)))
        assert len(word) == 0
        np.testing.assert_allclose(word.matrix(), np.eye(4))

    def test_pure_chirp(self):
        q = np.array([[0.4, -0.1], [-0.1, 0.9]])
        word = factor_to_word(make_chirp(q))
        assert len(word) == 1
        np.testing.assert_allclose(word.letters[0].q, q, atol=1e-12)

    def test_reconstruction_random(self):
        for n in (1, 2, 3, 4):
            for seed in range(25):
                m = random_symplectic(n, 7, seed=31 * seed + n)
                word = factor_to_word(m)
                err = np.linalg.norm(word.matrix() - m.entries)
                assert err <= 1e-9, f"n={n} seed={seed}: {err}"

    def test_rotation_word_real_orthogonal(self, rng):
        v = haar_orthogonal(2, rng)
        letters = rotation_word(v.astype(complex))
        assert len(letters) == 1
        assert isinstance(letters[0], Dilation)


class TestRandomSymplectic:
    def test_zero_length_is_identity(self):
        m = random_symplectic(2, 0, seed=0)
        np.testing.assert_allclose(m.entries, np.eye(4))

    def test_deterministic(self):
        a = random_symplectic(2, 6, seed=123)
        b = random_symplectic(2, 6, seed=123)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_symplectic_at_tolerance(self):
        for seed in range(100):
            m = random_symplectic(2, 6, seed=seed)
            assert symplectic_defect(m.entries) <= 1e-11


class TestExpm:
    def test_matches_scipy(self):
        # scipy is a test-only reference; the library never imports it
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2205)
        worst = 0.0
        for i in range(2000):
            n = 1 + i % 6
            kind = i // 6 % 3
            if kind == 0:  # random_word's dilation exponents
                x = 0.5 * rng.uniform(-1.0, 1.0, size=(n, n))
            else:  # i eps K for Hermitian K, as in test_certify, up to norm 50
                k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                k = k + k.conj().T
                if kind == 1:
                    x = 1j * 10.0 ** rng.uniform(-9.0, 0.0) * k
                else:  # 1-norm past theta_13, so the Pade value is squared 1 to 4 times
                    x = 1j * rng.uniform(S._THETA13, 50.0) / np.linalg.norm(k, 1) * k
            ref = scipy_linalg.expm(x)
            err = np.linalg.norm(S._expm(x) - ref, 2) / np.linalg.norm(ref, 2)
            worst = max(worst, err)
        assert worst <= 1e-14


class TestWordMatrix:
    def test_built_once_and_read_only(self, monkeypatch):
        import mtfr.symplectic as symplectic

        calls = []

        def counted(letter, n):
            calls.append(letter)
            return letter_matrix(letter, n)

        monkeypatch.setattr(symplectic, "letter_matrix", counted)
        letters = (Chirp(np.eye(2)), Dilation(2.0 * np.eye(2)), PartialFourier((0,)))
        word = GeneratorWord(2, letters)
        m = word.matrix()
        assert word.matrix() is m
        assert len(calls) == 3
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        expected = np.eye(4)
        for letter in letters:
            expected = expected @ letter_matrix(letter, 2)
        np.testing.assert_array_equal(m, expected)

    @pytest.mark.parametrize("letter", [
        Chirp(np.eye(3)), Dilation(np.eye(3)), Chirp(np.eye(1)), PartialFourier((2,)),
        PartialFourier((0, 3)),
    ])
    def test_letters_must_fit_the_word(self, letter):
        # a word checks its letters when built, not first in matrix() or
        # invert_word; letter_matrix applies the same check
        with pytest.raises(DimensionMismatch):
            GeneratorWord(2, (Chirp(np.eye(2)), letter))
        with pytest.raises(DimensionMismatch):
            letter_matrix(letter, 2)

    @pytest.mark.parametrize("n", [-1, 0, 1.5, True, "2"])
    def test_dimension_must_be_a_positive_integer(self, n):
        with pytest.raises(DimensionMismatch):
            GeneratorWord(n, ())


class TestInvertWord:
    def test_matrix_inverse(self, rng):
        word = random_word(2, 6, rng)
        inv = invert_word(GeneratorWord(2, word.letters))
        np.testing.assert_allclose(
            inv.matrix() @ word.matrix(), np.eye(4), atol=1e-11
        )

    @given(generator_words())
    @settings(max_examples=50, deadline=None)
    def test_inverse_composed_with_word_is_identity(self, word):
        inv = invert_word(word)
        # rounding grows with the product of the letter norms, not of the result
        scale = np.prod([
            np.linalg.norm(letter_matrix(letter, word.n), 2)
            for letter in word.letters + inv.letters
        ])
        np.testing.assert_allclose(
            inv.matrix() @ word.matrix(), np.eye(2 * word.n), rtol=0, atol=1e-14 * scale
        )

    def test_fourier_inverse_is_parity_composed(self):
        word = GeneratorWord(1, (PartialFourier((0,)),))
        inv = invert_word(word)
        np.testing.assert_allclose(
            inv.matrix(), np.linalg.inv(word.matrix()), atol=1e-14
        )
