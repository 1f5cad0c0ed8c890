import hashlib
import json
import os
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mtfr.errors import (
    ChirpAliasingWarning,
    DimensionMismatch,
    GridTooLarge,
    UnsupportedDilation,
)
from mtfr.gaussian import (
    apply_dilation,
    apply_word,
    conjugate,
    partial_stft_point,
    random_gaussian,
    standard_gaussian,
    tensor,
)
import mtfr.grid
from mtfr.grid import (
    MAX_ELEMENTS,
    SampledField,
    _monomial_decompose,
    _resample_axis,
    apply_letter_grid,
    apply_word_grid,
    field_l2,
    mass_outside,
    partial_stft_at,
    partial_stft_grid,
    partial_stft_slice,
    sample,
    sample_function,
    tfr_grid,
)
from mtfr.symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    factor_to_word,
    random_symplectic,
)
from conftest import grid_gaussians, grid_words, log_l2_norm, run_python

N, T = 256, 16.0


def dense_resample_axis(values, axis, extent, scale):
    """Reference for the dilation letter: the explicit O(N^3) N x N kernel."""
    npts = values.shape[axis]
    dx = extent / npts
    x = (np.arange(npts) - npts // 2) * dx
    freqs = (np.arange(npts) - npts // 2) / extent
    # spectrum F_m = dx * sum_j v_j e^{-2 pi i x_j w_m}
    dft = np.exp(-2j * np.pi * np.outer(freqs, x)) * dx
    # evaluation at x_j / scale: f(y) = dw * sum_m F_m e^{2 pi i w_m y}
    ev = np.exp(2j * np.pi * np.outer(x / scale, freqs)) / extent
    kernel = (ev @ dft) / np.sqrt(abs(scale))
    moved = np.moveaxis(values, axis, -1)
    out = moved @ kernel.T
    return np.moveaxis(out, -1, axis)


def reference_resample_axis(values, axis, extent, scale):
    """The chirp-z dilation pass with allocating FFTs, returning a moved-axis view.

    The centered spectrum is the FFT of the line times (-1)^j T/N, rolled
    by N/2.
    """
    npts = values.shape[axis]
    line = np.roll(np.moveaxis(values, axis, -1), npts // 2, axis=-1)
    spec = np.fft.fft(line * ((-1.0) ** np.arange(npts) * (extent / npts)))
    alpha = np.pi / (npts * scale)
    p = np.arange(npts) - npts // 2
    chirp = np.exp(1j * alpha * p**2)
    m = np.fft.fftfreq(2 * npts, 1.0 / (2 * npts))
    kernel = np.fft.fft(np.exp(-1j * alpha * m**2))
    conv = np.fft.ifft(np.fft.fft(spec * chirp, n=2 * npts) * kernel)
    out = conv[..., :npts] * (chirp / (extent * np.sqrt(abs(scale))))
    return np.moveaxis(out, -1, axis)


def transposed_dilation(field, l):
    """Reference for a monomial grid dilation: every pass, then one transpose."""
    rows, diag = _monomial_decompose(l)
    values = field.values
    for ax in range(field.n):
        values = reference_resample_axis(values, ax, field.extents[ax], diag[ax])
    source = [0] * field.n
    for col, row in enumerate(rows):
        source[row] = col
    return np.transpose(values, source), tuple(field.extents[s] for s in source)


def copying_stft_slice(f, g, k, x2_idx=(), w2_idx=()):
    """Reference for the partial STFT kernel: the copying formula.

    It forms windows * (fs (-1)^t T/N per t axis), rolls the product by N/2
    along every t axis and runs one out-of-place FFT per t axis.
    """
    tail = tuple(slice(i, i + 1) for i in x2_idx)
    neg = tuple(slice(-i % n, -i % n + 1) for i, n in zip(w2_idx, f.points[k:]))
    fs = f.values[(Ellipsis,) + tail].reshape(f.points[:k])
    gs = g.values[(Ellipsis,) + neg].reshape(f.points[:k])
    padded = np.pad(np.conj(gs), [(n // 2, n // 2) for n in f.points[:k]])
    windows = sliding_window_view(padded, f.points[:k])[(slice(None, 0, -1),) * k]
    factor = np.ones(())
    for a in range(k):
        npts = f.points[a]
        shape = [1] * k
        shape[a] = npts
        factor = factor * ((-1.0) ** np.arange(npts) * (f.extents[a] / npts)).reshape(shape)
    out = windows * (fs * factor)
    t_axes = tuple(range(k, 2 * k))
    out = np.roll(out, [n // 2 for n in f.points[:k]], axis=t_axes)
    for axis in t_axes:
        out = np.fft.fft(out, axis=axis)
    return out


def stft_grid_loop(f, g, k, cross_section):
    """Reference for partial_stft_grid: one cross_section(f, g, k, x2, w2)
    per (x2, omega2)."""
    tail = f.points[k:]
    out = np.empty(f.points[:k] + tail + f.points[:k] + tail, dtype=complex)
    for x2 in np.ndindex(*tail):
        for w2 in np.ndindex(*tail):
            sel = (slice(None),) * k + x2 + (slice(None),) * k + w2
            out[sel] = cross_section(f, g, k, x2, w2)
    return out


def _pow2(lo, hi):
    return [2**e for e in range(lo, hi + 1)]


@st.composite
def stft_block_cases(draw):
    """(points, k, extents) where a block of the integrand buffer holds one,
    several or all of its leading x1 rows: d = k = 1 at N = 8..2048, d = k = 2
    at 8..64 per axis, d = k = 3, and k < d."""
    points, k = draw(st.sampled_from(
        [((n,), 1) for n in _pow2(3, 11)]
        + [((a, b), 2) for a in _pow2(3, 6) for b in _pow2(3, 6) if a * b <= 1024]
        + [((8, 8, 8), 3), ((8, 16, 8), 3), ((16, 8, 8), 3)]
        + [((n, 8), 1) for n in _pow2(3, 8)]
        + [((8, 16), 1), ((8, 8, 8), 1), ((8, 8, 8), 2), ((16, 8, 8), 2)]
    ))
    extents = tuple(draw(st.sampled_from([1.0, 8.0, 40.0])) for _ in points)
    return points, k, extents


def spike(value, npts=16):
    """Values with one nonzero entry, at the grid centre."""
    values = np.zeros(npts, dtype=complex)
    values[npts // 2] = value
    return values


def random_field(rng, points, extent=8.0):
    values = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    return SampledField(values, (extent,) * len(points))


@pytest.fixture
def phi_field():
    return sample(standard_gaussian(1), (N,), (T,))


class TestSampledField:
    def test_requires_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            SampledField(np.zeros(100, dtype=complex), (8.0,))

    @pytest.mark.parametrize(
        "values,extents",
        [
            (np.zeros((), dtype=complex), ()),
            (np.zeros(16, dtype=complex), (np.nan,)),
            (np.zeros(16, dtype=complex), (np.inf,)),
            (np.zeros((8, 16), dtype=complex), (8.0, 0.0)),
            (np.zeros(16, dtype=complex), (-8.0,)),
        ],
        ids=["zero-axes", "nan-extent", "infinite-extent", "zero-extent",
             "negative-extent"],
    )
    def test_rejects_bad_axes(self, values, extents):
        with pytest.raises(DimensionMismatch):
            SampledField(values, extents)

    @pytest.mark.parametrize(
        "shape", [(16, 8), (8,), ()], ids=["transposed", "one-axis", "scalar"]
    )
    def test_sample_function_rejects_wrong_shape(self, shape):
        with pytest.raises(DimensionMismatch, match="shape"):
            sample_function(lambda mesh: np.ones(shape), (8, 16), (4.0, 4.0))

    @pytest.mark.parametrize(
        "points,extents,message",
        [
            ((), (), "one extent per axis"),
            ((8, 16), (4.0,), "one extent per axis"),
            ((16,), (np.nan,), "finite and positive"),
            ((12,), (4.0,), "power of two"),
            ((-8,), (4.0,), "power of two"),
        ],
    )
    def test_sample_function_rejects_bad_grid(self, points, extents, message):
        def fn(mesh):
            raise AssertionError("fn called on a bad grid")

        with pytest.raises(DimensionMismatch, match=message):
            sample_function(fn, points, extents)

    def test_sample_function_passes_the_mesh(self):
        calls = []

        def fn(mesh):
            calls.append(mesh)
            return mesh[..., 0] + 2j * mesh[..., 1]

        f = sample_function(fn, (8, 16), (4.0, 8.0))
        (mesh,) = calls
        assert mesh.tobytes() == f.mesh().tobytes()
        np.testing.assert_array_equal(f.values, mesh[..., 0] + 2j * mesh[..., 1])

    def test_center_value(self, phi_field):
        g = standard_gaussian(1)
        assert abs(phi_field.values[N // 2]) == pytest.approx(np.exp(g.logamp))

    def test_l2_matches_closed_form(self, phi_field):
        assert field_l2(phi_field) == pytest.approx(
            np.exp(log_l2_norm(standard_gaussian(1))), rel=1e-8
        )

    def test_owned_array_taken_without_copy(self):
        values = np.ones(16, dtype=complex)
        field = SampledField(values, (8.0,))
        assert field.values is values
        assert not values.flags.writeable

    @pytest.mark.parametrize("view", ["transpose", "moveaxis", "frombuffer"])
    def test_view_copied(self, view):
        base = np.arange(8 * 16, dtype=complex).reshape(8, 16)
        values = {
            "transpose": lambda: base.T,
            "moveaxis": lambda: np.moveaxis(base, 0, -1),
            "frombuffer": lambda: np.frombuffer(bytearray(base.tobytes()), complex),
        }[view]()
        want = values.copy()
        field = SampledField(values, (8.0,) * values.ndim)
        assert field.values is not values
        assert not field.values.flags.writeable
        if view == "frombuffer":
            values.base[:16] = bytes(16)  # the bytearray behind the view
        else:
            base[...] = -1.0
        np.testing.assert_array_equal(field.values, want)

    def test_even_symmetry(self, phi_field):
        v = phi_field.values
        np.testing.assert_allclose(v[N // 2 + 1 :], v[1 : N // 2][::-1], rtol=1e-12)


class TestLetters:
    def test_fourier_self_dual(self, phi_field):
        out = apply_letter_grid(phi_field, PartialFourier((0,)))
        assert out.extents == (T,)
        np.testing.assert_allclose(out.values, phi_field.values, atol=1e-12)

    @pytest.mark.parametrize("npts", [256, 1024, 4096])
    def test_fourier_calibration_is_exact(self, npts):
        # at extent sqrt(N) the spacing T/N is a power of two, so the letter
        # adds nothing to the FFT's own round-off
        phi = sample(standard_gaussian(1), (npts,), (np.sqrt(npts),))
        fourier = PartialFourier((0,))
        out = apply_letter_grid(phi, fourier)
        assert np.abs(out.values - phi.values).max() <= 1e-15
        for _ in range(3):
            out = apply_letter_grid(out, fourier)
        assert np.abs(out.values - phi.values).max() <= 1e-15 * np.abs(phi.values).max()

    @pytest.mark.parametrize(
        "points,axes", [((64,), (0,)), ((16, 32), (0, 1)), ((8, 16, 8), (0, 2))]
    )
    def test_fourier_bitwise_equals_rolled_formula(self, rng, points, axes):
        # per axis: the values times (-1)^j T/N, rolled by N/2, then one FFT
        f = random_field(rng, points)
        want = f.values
        for a in axes:
            npts = points[a]
            shape = [1] * len(points)
            shape[a] = npts
            factor = ((-1.0) ** np.arange(npts) * (f.extents[a] / npts)).reshape(shape)
            want = np.fft.fft(np.roll(want, npts // 2, axis=a) * factor, axis=a)
        got = apply_letter_grid(f, PartialFourier(axes))
        assert got.values.tobytes() == want.tobytes()

    def test_chirp_preserves_modulus(self, phi_field):
        out = apply_letter_grid(phi_field, Chirp(np.array([[0.7]])))
        np.testing.assert_allclose(
            np.abs(out.values), np.abs(phi_field.values), rtol=1e-14
        )

    def test_fourth_power_identity(self, phi_field, rng):
        g = random_gaussian(1, rng)
        f = sample(g, (N,), (T,))
        out = f
        for _ in range(4):
            out = apply_letter_grid(out, PartialFourier((0,)))
        np.testing.assert_allclose(out.values, f.values, atol=1e-10)

    def test_chirp_aliasing_warning(self, phi_field):
        with pytest.warns(ChirpAliasingWarning):
            apply_letter_grid(phi_field, Chirp(np.array([[8.0]])))

    def test_dilation_1d_vs_oracle(self, rng):
        g = random_gaussian(1, rng)
        f = sample(g, (N,), (T,))
        for s in (2.0, 0.618, -1.3):
            out = apply_letter_grid(f, Dilation(np.array([[s]])))
            oracle = sample(apply_dilation(g, np.array([[s]])), (N,), (T,))
            idx = np.abs(oracle.values) > 1e-6
            np.testing.assert_allclose(
                np.abs(out.values[idx]), np.abs(oracle.values[idx]), rtol=1e-8
            )

    @pytest.mark.parametrize("scale", [2.0, 0.618, -1.3, 1.0])
    @pytest.mark.parametrize("npts", [8, 64, 256, 1024])
    def test_resample_matches_dense_kernel(self, rng, npts, scale):
        for axis, shape in ((0, (npts, 3)), (1, (3, npts))):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ref = dense_resample_axis(v, axis, T, scale)
            got = _resample_axis(v, axis, T, scale)
            bound = 1e-12 * np.abs(ref).max()
            assert np.abs(got - ref).max() <= bound
            if scale == 1.0:
                assert np.abs(got - v).max() <= bound

    def test_dilation_1d_large_grid_vs_oracle(self, rng):
        # N = T^2 keeps the band limit and the extent equal (128 each)
        g = random_gaussian(1, rng)
        grid = ((2**14,), (128.0,))
        f = sample(g, *grid)
        for s in (2.0, 0.618, -1.3):
            out = apply_letter_grid(f, Dilation(np.array([[s]])))
            oracle = sample(apply_dilation(g, np.array([[s]])), *grid)
            idx = np.abs(oracle.values) > 1e-6
            np.testing.assert_allclose(out.values[idx], oracle.values[idx], rtol=1e-8)

    def test_dilation_monomial_2d(self, rng):
        # 256 points at extent 16 resolve the compressed axis (Nyquist 8)
        g = random_gaussian(2, rng)
        f = sample(g, (256, 256), (T, T))
        l = np.array([[0.0, 1.4], [-0.8, 0.0]])  # permutation x diagonal
        out = apply_letter_grid(f, Dilation(l))
        oracle = sample(apply_dilation(g, l), (256, 256), (T, T))
        idx = np.abs(oracle.values) > 1e-4 * np.abs(oracle.values).max()
        np.testing.assert_allclose(
            np.abs(out.values[idx]), np.abs(oracle.values[idx]), rtol=1e-6
        )

    @pytest.mark.parametrize(
        "points,l",
        [
            ((64,), [[0.7]]),
            ((64,), [[-1.9]]),
            ((32, 16), [[0.0, 1.3], [-0.6, 0.0]]),
            ((16, 32), [[1.1, 0.0], [0.0, 0.8]]),
            ((8, 16, 32), [[0.0, 0.0, 1.2], [0.9, 0.0, 0.0], [0.0, -1.1, 0.0]]),
        ],
    )
    def test_dilation_matches_transpose_reference(self, rng, points, l):
        values = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        f = SampledField(values, tuple(8.0 + a for a in range(len(points))))
        got = apply_letter_grid(f, Dilation(np.array(l)))
        want_values, want_extents = transposed_dilation(f, np.array(l))
        assert got.values.tobytes() == np.ascontiguousarray(want_values).tobytes()
        assert got.extents == want_extents
        # an owned C-contiguous array in the output's axis order: the last
        # resample pass's result, or the one copy of the axis permutation
        assert got.values.flags.owndata and got.values.flags.c_contiguous

    def test_dilation_peak_memory(self, rng):
        f = random_field(rng, (2**18,), 64.0)
        letter = Dilation(np.array([[0.8]]))
        tracemalloc.start()
        try:
            out = apply_letter_grid(f, letter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kernel and the zero-padded line take 2N each, the chirp and
        # the result N each; the copying form peaked at 9.5x
        assert peak <= 8.0 * out.values.nbytes

    @pytest.mark.parametrize("points", [(8,), (256,), (8, 16, 8)])
    def test_minus_identity_is_index_reversal(self, rng, points):
        # -x_j is the node x_{N-j}, and x_0 is its own image modulo the period
        f = random_field(rng, points)
        want = f.values
        for a, npts in enumerate(points):
            want = np.take(want, -np.arange(npts) % npts, axis=a)
        got = apply_letter_grid(f, Dilation(-np.eye(len(points))))
        assert got.values.tobytes() == want.tobytes()
        assert got.extents == f.extents

    @pytest.mark.parametrize("points", [(8,), (256,), (16, 32)])
    def test_identity_returns_the_input(self, rng, points):
        f = random_field(rng, points)
        got = apply_letter_grid(f, Dilation(np.eye(len(points))))
        assert got.values.tobytes() == f.values.tobytes()
        assert got.extents == f.extents

    def test_quarter_turn_is_flip_and_transpose(self, rng):
        # L = [[0, -1], [1, 0]]: result(x0, x1) = f(L^-1 x) = f(x1, -x0)
        f = SampledField(
            rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16)), (8.0, 4.0)
        )
        got = apply_letter_grid(f, Dilation(np.array([[0.0, -1.0], [1.0, 0.0]])))
        want = np.take(f.values, -np.arange(16) % 16, axis=1).T
        assert got.values.tobytes() == np.ascontiguousarray(want).tobytes()
        assert got.extents == (4.0, 8.0)
        assert got.values.flags.owndata and got.values.flags.c_contiguous

    @pytest.mark.parametrize("npts", [256, 1024])
    def test_fourier_twice_is_parity(self, npts):
        # at extent sqrt(N) the centered FFT adds no rounding of its own
        # calibration, and the parity letter is exact
        phi = sample(standard_gaussian(1), (npts,), (np.sqrt(npts),))
        fourier = PartialFourier((0,))
        twice = apply_letter_grid(apply_letter_grid(phi, fourier), fourier)
        parity = apply_letter_grid(phi, Dilation(np.array([[-1.0]])))
        assert np.abs(twice.values - parity.values).max() <= 1e-15

    @pytest.mark.parametrize("points", [(8,), (64,), (32, 16), (8, 16, 8)])
    def test_chirp_z_at_minus_one_is_the_reflection(self, rng, points):
        # the chirp-z pass reproduces the exact reflection to rounding, which
        # grows with N (about 2e-14 at N = 256) on values of peak modulus 1
        v = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        v /= np.abs(v).max()
        for a, npts in enumerate(points):
            flip = np.take(v, -np.arange(npts) % npts, axis=a)
            ref = reference_resample_axis(v, a, 8.0, -1.0)
            assert np.abs(ref - flip).max() <= 1e-14

    @pytest.mark.parametrize(
        "letter, error",
        [
            (Chirp(np.eye(3)), DimensionMismatch),
            (Chirp(np.eye(1)), DimensionMismatch),
            (Dilation(np.eye(3)), DimensionMismatch),
            (Dilation(np.eye(1)), DimensionMismatch),
            (PartialFourier((2,)), DimensionMismatch),
            (PartialFourier((0, 5)), DimensionMismatch),
            (np.eye(2), TypeError),
            ("F", TypeError),
        ],
    )
    def test_letter_that_does_not_fit_raises(self, rng, letter, error):
        f = random_field(rng, (8, 8))
        with pytest.raises(error):
            apply_letter_grid(f, letter)

    def test_dilation_general_2d_unsupported(self, rng):
        f = sample(random_gaussian(2, rng), (32, 32), (T, T))
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        with pytest.raises(UnsupportedDilation):
            apply_letter_grid(f, Dilation(rot))

    def test_word_vs_oracle_sp2(self, rng):
        g = random_gaussian(1, rng)
        f = sample(g, (N,), (T,))
        for seed in (3, 42, 77):
            m = random_symplectic(1, 5, seed=seed)
            word = factor_to_word(m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ChirpAliasingWarning)
                out = apply_word_grid(f, word)
            oracle = sample(apply_word(g, word), out.points, out.extents)
            idx = np.abs(oracle.values) > 1e-5 * np.abs(oracle.values).max()
            rel = np.abs(np.abs(out.values[idx]) - np.abs(oracle.values[idx]))
            assert np.max(rel / np.abs(oracle.values[idx])) < 1e-6

    @given(grid_gaussians(), grid_words())
    @settings(max_examples=60, deadline=None)
    def test_random_short_words_vs_oracle(self, g, word):
        out = apply_word_grid(sample(g, (N,), (T,)), word)
        oracle = np.abs(sample(apply_word(g, word), out.points, out.extents).values)
        idx = oracle > 1e-5 * oracle.max()
        rel = np.abs(np.abs(out.values[idx]) - oracle[idx]) / oracle[idx]
        assert np.max(rel) < 1e-6


def pinned_letter_cases():
    """(points, extents, letter) by name: 1-D letters at N = 8, 256 and 1024,
    chirps with a full symmetric Q, monomial dilations with a permutation
    and multi-axis Fourier letters."""
    q2 = [[0.3, -0.2], [-0.2, 0.5]]
    q3 = [[0.2, -0.1, 0.05], [-0.1, 0.3, 0.15], [0.05, 0.15, -0.25]]
    q4 = [[0.2, -0.1, 0.05, 0.02], [-0.1, 0.3, 0.15, -0.04],
          [0.05, 0.15, -0.25, 0.1], [0.02, -0.04, 0.1, 0.12]]
    cases = {}
    for npts, extent in ((8, 2.0), (256, 16.0), (1024, 32.0)):
        grid = ((npts,), (extent,))
        cases[f"chirp-{npts}"] = grid + (Chirp(np.array([[0.37]])),)
        cases[f"dilation+{npts}"] = grid + (Dilation(np.array([[0.8]])),)
        cases[f"dilation-{npts}"] = grid + (Dilation(np.array([[-1.3]])),)
        cases[f"fourier-{npts}"] = grid + (PartialFourier((0,)),)
    cases["chirp-16x32"] = ((16, 32), (4.0, 8.0), Chirp(np.array(q2)))
    cases["chirp-8x16x8"] = ((8, 16, 8), (4.0, 4.0, 2.0), Chirp(np.array(q3)))
    cases["chirp-8x8x16x8"] = ((8, 8, 16, 8), (2.0, 4.0, 4.0, 2.0), Chirp(np.array(q4)))
    cases["dilation-32x16"] = (
        (32, 16), (8.0, 4.0), Dilation(np.array([[0.0, 1.3], [-0.6, 0.0]]))
    )
    cases["dilation-16x32"] = (
        (16, 32), (4.0, 8.0), Dilation(np.array([[1.1, 0.0], [0.0, -0.8]]))
    )
    cases["dilation-8x16x32"] = (
        (8, 16, 32), (2.0, 4.0, 8.0),
        Dilation(np.array([[0.0, 0.0, 1.2], [0.9, 0.0, 0.0], [0.0, -1.1, 0.0]])),
    )
    cases["fourier-16x32"] = ((16, 32), (4.0, 8.0), PartialFourier((0, 1)))
    cases["fourier-8x16x8-02"] = ((8, 16, 8), (4.0, 4.0, 2.0), PartialFourier((0, 2)))
    cases["fourier-8x16x8-012"] = ((8, 16, 8), (4.0, 4.0, 2.0), PartialFourier((0, 1, 2)))
    return cases


# sha256 of each case's output values, then its extents as float64 bytes.
# Recorded with numpy 2.4 on x86-64; a numpy build whose FFT or exp rounds
# differently needs them recorded again, from the code before a change
PINNED_LETTER_SHA256 = {
    "chirp-8": "592493e63071e0f4b84a77e005795a7a21601d431a39e1469e8dc4be4ebc8cf3",
    "dilation+8": "cd3894670cbb6d4a77eb272e8837d07bbc46ff569e67a7495fdc6091a7a466ab",
    "dilation-8": "543f6f9fcda86707c0478fe77c6c202db7c9b463d4ccd930e2f0d93793ae8883",
    "fourier-8": "d5a70949d1067ce8092e4da3e180d3c86e5fc31c90817426ee64fe444aee645f",
    "chirp-256": "e6787d19c7446bf3384a3287554aea90d28862847597016308af2a97b14a3444",
    "dilation+256": "8cd8dc4d75c7270f03017335142a839df387bff6ab68645e95c9748f761f9455",
    "dilation-256": "f1e51a42cf3932d8298689702f304d6e5349693e699ab02bdae62712124000ca",
    "fourier-256": "13646b52d6069696954c956b5adefa02593764ec0c2857e685ee3bea3e26f8d4",
    "chirp-1024": "ec0183aea481edbd840a65f683e7977c32b68e5f4ff827dd7f8fa221650f4444",
    "dilation+1024": "bc8778f3adf64fbe48320dcae0d3b0bc5d51cb84f8844db80f94e88c2a18a093",
    "dilation-1024": "28178423b940103a9527896acb1a29a35d31a68643aeacdca47957b96d6b7948",
    "fourier-1024": "739e22a847bd4218bcfa799b0e4d066bbdc94519e141a6ab14d3844862f0b1a3",
    "chirp-16x32": "584e919d710866b4a544d3c52e19628327e81a33fe7211fe8f595d40f8a1bb40",
    "chirp-8x16x8": "40ea00337e4ee907cbee1df4f4471ac1d355f0cfc46a3822ced5bd442e22ad8a",
    "chirp-8x8x16x8": "8bf5c854593202ffa33905c6b3c469a402cbc6943b07f94070ef3e7f5f1a2207",
    "dilation-32x16": "6707156994e38cfbe1db26423d6a25ec9fc8a0744c228b33c7c3e96c94a7ed38",
    "dilation-16x32": "46da95a163814eb03f2613b5fee224592f8277ac75faafc5e1cb8be5ac84ef18",
    "dilation-8x16x32": "46f6ee9ac9b72b30f21024fa7a7560fcc9f0180235c04ea863284dedb2a55e7e",
    "fourier-16x32": "457f1f1dd906db161978583a793b3c007fc0548566007e19b8b229529c254c9c",
    "fourier-8x16x8-02": "e3ba177201cc02f72d29fda24f7cfb2e99c580b7caeaabc9c4fa10f64b8f3502",
    "fourier-8x16x8-012": "b1d8b7829af9c4ea63f65d917938dfc4966c9f0f846744164b3d89e12ff425ed",
}


class TestPinnedBits:
    """Every bit of a grid letter's output, so that no speed-up moves one unseen."""

    @pytest.mark.parametrize("name", sorted(PINNED_LETTER_SHA256))
    def test_letter_output_sha256(self, name):
        points, extents, letter = pinned_letter_cases()[name]
        rng = np.random.default_rng(sum(points) + len(points))
        f = SampledField(
            rng.standard_normal(points) + 1j * rng.standard_normal(points), extents
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChirpAliasingWarning)
            out = apply_letter_grid(f, letter)
        digest = hashlib.sha256(out.values.tobytes())
        digest.update(np.array(out.extents).tobytes())
        assert digest.hexdigest() == PINNED_LETTER_SHA256[name]

    def test_cases_are_pinned(self):
        assert set(pinned_letter_cases()) == set(PINNED_LETTER_SHA256)


class TestWordStages:
    """A word runs every letter through apply_letter_grid and builds one field."""

    WORD = GeneratorWord(2, (
        Chirp(np.array([[0.3, -0.2], [-0.2, 0.5]])),
        PartialFourier((0, 1)),
        Dilation(np.array([[0.0, 1.3], [-1.0, 0.0]])),
        PartialFourier((1,)),
        Dilation(np.diag([0.8, 1.0])),
    ))

    def test_one_field_per_word(self, rng, monkeypatch):
        f = random_field(rng, (16, 32))
        want = f
        for letter in reversed(self.WORD.letters):
            want = apply_letter_grid(want, letter)
        letters, fields = [], []
        public = mtfr.grid.apply_letter_grid
        post_init = SampledField.__post_init__

        def counting_letter(field, letter):
            letters.append(letter)
            return public(field, letter)

        def counting_post_init(field):
            fields.append(field)
            post_init(field)

        monkeypatch.setattr(mtfr.grid, "apply_letter_grid", counting_letter)
        monkeypatch.setattr(SampledField, "__post_init__", counting_post_init)
        out = apply_word_grid(f, self.WORD)
        assert letters == list(reversed(self.WORD.letters))
        assert len(fields) == 1 and fields[0] is out
        assert out.extents == want.extents
        assert out.values.tobytes() == want.values.tobytes()

    def test_empty_word_returns_the_field(self, rng):
        f = random_field(rng, (16, 8))
        assert apply_word_grid(f, GeneratorWord(2, ())) is f

    def test_middle_fourier_overflow_raises(self):
        # (-1)^j 1e307 T/N with T = N: the Fourier letter sums 256 terms of
        # 1e307 into one value, which overflows
        f = SampledField(np.full(256, 1e307, dtype=complex), (256.0,))
        chirp = Chirp(np.array([[1e-4]]))
        apply_letter_grid(f, chirp)  # the outer letters alone keep it finite
        word = GeneratorWord(1, (chirp, PartialFourier((0,)), chirp))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DimensionMismatch, match="finite"):
                apply_letter_grid(f, PartialFourier((0,)))
            with pytest.raises(DimensionMismatch, match="finite"):
                apply_word_grid(f, word)

    def test_overflowing_extent_raises_at_its_letter(self):
        # N / T overflows to inf for T = 5e-324; a later letter would divide by 0
        f = SampledField(np.ones(8, dtype=complex), (5e-324,))
        word = GeneratorWord(1, (PartialFourier((0,)),) * 3)
        with pytest.raises(DimensionMismatch, match="extents"):
            apply_word_grid(f, word)

    def test_fourier_letter_owns_its_buffer(self, rng, monkeypatch):
        buffers = []
        fft_axis = mtfr.grid._centered_fft_axis

        def recording(values, axis, extent):
            out = fft_axis(values, axis, extent)
            buffers.append(out[0])
            return out

        monkeypatch.setattr(mtfr.grid, "_centered_fft_axis", recording)
        out = apply_letter_grid(random_field(rng, (256, 256)), PartialFourier((0, 1)))
        assert len(buffers) == 2
        assert buffers[-1].flags.owndata
        assert out.values is buffers[-1]


class TestSizeConstants:
    def test_cache_is_keyed_on_size_and_bounded(self, rng, monkeypatch):
        monkeypatch.setattr(mtfr.grid, "_constants", {})
        cap = mtfr.grid._CONSTANTS_MAX_POINTS
        for points in ((256,), (16, 32), (2 * cap,)):
            f = random_field(rng, points)
            for scale in (0.8, -1.3, 1.7):
                apply_letter_grid(f, Dilation(np.diag([scale] * len(points))))
            apply_letter_grid(f, PartialFourier(tuple(range(len(points)))))
        cache = mtfr.grid._constants
        assert sorted(cache) == [16, 32, 256]
        for npts, consts in cache.items():
            assert mtfr.grid._size_constants(npts) is consts
            for table in (consts.ramp, consts.squares, consts.circular):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 2.0

    def test_constants_match_their_formulas(self):
        for npts in (8, 256, 2 * mtfr.grid._CONSTANTS_MAX_POINTS):
            consts = mtfr.grid._size_constants(npts)
            j = np.arange(npts)
            np.testing.assert_array_equal(consts.ramp, (-1.0) ** j)
            np.testing.assert_array_equal(consts.squares, (j - npts // 2) ** 2)
            m = np.concatenate([np.arange(npts), np.arange(-npts, 0)])
            np.testing.assert_array_equal(consts.circular, m**2)
            # a centered FFT takes the ramp on its input, indexed from either
            # end of the roll by N/2 that stands for its output ramp
            np.testing.assert_array_equal(np.roll(consts.ramp, npts // 2), consts.ramp)


class TestPartialStftGrid:
    def test_gaussian_matches_closed_form(self, phi_field):
        v = partial_stft_slice(phi_field, phi_field, 1)
        x, w = np.meshgrid(v.coords(0), v.coords(1), indexing="ij")
        exact = np.exp(-np.pi * (x**2 + w**2) / 2.0)
        idx = exact > 1e-8
        np.testing.assert_allclose(np.abs(v.values[idx]), exact[idx], rtol=1e-6)

    def test_zero_input(self, phi_field):
        zero = SampledField(np.zeros(N, dtype=complex), (T,))
        v = partial_stft_slice(zero, phi_field, 1)
        assert np.all(v.values == 0)

    def test_orthogonality_relation(self, rng):
        # ||V_g f||_2 = ||f||_2 ||g||_2, quadrature on the STFT grid
        fg, gg = random_gaussian(1, rng), random_gaussian(1, rng)
        f = sample(fg, (N,), (T,))
        g = sample(gg, (N,), (T,))
        v = partial_stft_slice(f, g, 1)
        want = np.exp(log_l2_norm(fg) + log_l2_norm(gg))
        assert field_l2(v) == pytest.approx(want, rel=1e-6)

    def test_d2_slice_vs_oracle(self, rng):
        fg, gg = random_gaussian(2, rng), random_gaussian(2, rng)
        f = sample(fg, (N, N), (T, T))
        g = sample(gg, (N, N), (T, T))
        errs = []
        for _ in range(20):
            x2i = int(rng.integers(N // 2 - 16, N // 2 + 16))
            w2i = int(rng.integers(N // 2 - 16, N // 2 + 16))
            sl = partial_stft_slice(f, g, 1, (x2i,), (w2i,))
            x1i = int(rng.integers(N // 2 - 24, N // 2 + 24))
            w1i = int(rng.integers(N // 2 - 24, N // 2 + 24))
            x = np.array([sl.coords(0)[x1i], f.coords(1)[x2i]])
            om = np.array([sl.coords(1)[w1i], g.coords(1)[w2i]])
            want = partial_stft_point(fg, gg, 1, x, om)[()]
            if want > 1e-8:
                errs.append(abs(abs(sl.values[x1i, w1i]) - want) / want)
        assert errs and max(errs) < 1e-6

    def test_full_grid_consistent_with_slice(self, rng):
        fg, gg = random_gaussian(2, rng), random_gaussian(2, rng)
        f = sample(fg, (16, 16), (8.0, 8.0))
        g = sample(gg, (16, 16), (8.0, 8.0))
        big = partial_stft_grid(f, g, 1)
        sl = partial_stft_slice(f, g, 1, (9,), (7,))
        np.testing.assert_array_equal(big.values[:, 9, :, 7], sl.values)

    @pytest.mark.parametrize(
        "points,k,x2,w2",
        [
            ((256,), 1, (), ()),
            ((1024,), 1, (), ()),
            ((32, 32), 1, (3,), (30,)),
            ((32, 32), 2, (), ()),
            ((8, 16, 8), 1, (5, 2), (0, 7)),
            ((8, 16, 8), 1, (15, 7), (15, 7)),
            ((8, 16, 8), 2, (7,), (1,)),
            ((8, 16, 8), 2, (7,), (7,)),
            ((8, 16, 8), 3, (), ()),
        ],
    )
    def test_slice_bitwise_equals_copying_formula(self, rng, points, k, x2, w2):
        f, g = random_field(rng, points), random_field(rng, points)
        got = partial_stft_slice(f, g, k, x2, w2)
        assert got.values.tobytes() == copying_stft_slice(f, g, k, x2, w2).tobytes()

    def test_default_field_bitwise_equals_copying_formula(self):
        # the field `mtfr check` sweeps when no --field is given
        phi = sample(standard_gaussian(1), (256,), (16.0,))
        got = partial_stft_slice(phi, phi, 1).values
        assert got.tobytes() == copying_stft_slice(phi, phi, 1).tobytes()

    def test_slice_peak_memory_is_one_result(self, rng):
        f = random_field(rng, (1024,), 16.0)
        tracemalloc.start()
        try:
            v = partial_stft_slice(f, f, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * v.values.nbytes

    @pytest.mark.parametrize("points,k", [((1024,), 1), ((32, 32), 2)])
    def test_grid_peak_memory_is_the_result(self, rng, points, k):
        # blocked passes leave no whole-buffer temporary behind
        f, g = random_field(rng, points, 16.0), random_field(rng, points, 16.0)
        tracemalloc.start()
        try:
            v = partial_stft_grid(f, g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * v.values.nbytes

    def test_pooled_grid_peak_memory_is_the_result(self, rng, monkeypatch):
        # the workers run with the kernel's ufunc buffer size, not numpy's
        # default, which takes 128 KiB per strided operand and per thread
        monkeypatch.setenv("MTFR_THREADS", "2")
        f, g = random_field(rng, (32, 32), 16.0), random_field(rng, (32, 32), 16.0)
        tracemalloc.start()
        try:
            v = partial_stft_grid(f, g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * v.values.nbytes

    @settings(max_examples=60, deadline=None)
    @given(stft_block_cases(), st.integers(0, 2**16))
    def test_blocked_grid_bitwise_equals_copying_formula(self, case, seed):
        points, k, extents = case
        rng = np.random.default_rng(seed)
        f, g = (
            SampledField(rng.standard_normal(points) + 1j * rng.standard_normal(points),
                         extents)
            for _ in range(2)
        )
        got = partial_stft_grid(f, g, k)
        want = stft_grid_loop(f, g, k, copying_stft_slice)
        assert got.values.tobytes() == want.tobytes()
        w_extents = tuple(n / t for n, t in zip(points[:k], extents))
        assert got.extents == extents + w_extents + extents[k:]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "f_values,g_values,extent",
        [
            (np.full(16, 1e200 + 0j), np.full(16, 1e200 + 0j), 8.0),
            (spike(1e300), spike(1e10), 8.0),
            (spike(1e154), spike(1e154), 160.0),  # finite norms
            (spike(1e154), spike(1e-10), 1.6e156),  # ||f|| ||g|| T/N = 1e299
        ],
        ids=["full-fields", "one-product", "calibrated-transform", "calibrated-input"],
    )
    def test_overflowing_values_raise(self, f_values, g_values, extent):
        # products, a transform times T/N = 10, or f times T/N = 1e155, that
        # leave the doubles
        f, g = SampledField(f_values, (extent,)), SampledField(g_values, (extent,))
        with pytest.raises(DimensionMismatch, match="field values must be finite"):
            partial_stft_grid(f, g, 1)

    @pytest.mark.parametrize("scale,bounded", [(1.0, True), (1e151, False)])
    def test_finite_result_beyond_the_bound_takes_the_scan(
        self, rng, monkeypatch, scale, bounded
    ):
        # at 1e151 per entry ||f|| ||g|| = 1e302 misses 2^1000, but every
        # value stays finite
        values = spike(scale)
        if bounded:
            values = values + rng.standard_normal(16)
        f, g = SampledField(values, (1.0,)), SampledField(values.copy(), (1.0,))
        calls = []
        unscanned = mtfr.grid._bounded_field
        monkeypatch.setattr(
            mtfr.grid, "_bounded_field", lambda *a: calls.append(1) or unscanned(*a)
        )
        got = partial_stft_grid(f, g, 1)
        assert len(calls) == int(bounded)
        assert got.values.tobytes() == copying_stft_slice(f, g, 1).tobytes()
        assert not got.values.flags.writeable and got.values.flags.owndata

    @pytest.mark.parametrize("g_entry", [0.0, 1e-200])
    def test_overflowing_norm_warns_nothing(self, g_entry):
        # ||f||^2 overflows to inf, and inf * ||g|| is inf or nan
        f, g = SampledField(spike(1e200), (8.0,)), SampledField(spike(g_entry), (8.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = partial_stft_grid(f, g, 1)
        assert np.all(np.isfinite(got.values))

    @pytest.mark.parametrize(
        "points,k", [((16, 16), 1), ((16, 16), 2), ((8, 8, 8), 1), ((8, 16, 8), 2)]
    )
    def test_full_grid_matches_slice_loop(self, rng, points, k):
        f, g = random_field(rng, points), random_field(rng, points)
        got = partial_stft_grid(f, g, k)
        # a slice is a cross-section of the grid, computed by the same kernel
        want = stft_grid_loop(f, g, k, lambda *a: partial_stft_slice(*a).values)
        assert got.values.tobytes() == want.tobytes()
        w_extents = tuple(n / t for n, t in zip(points[:k], f.extents))
        assert got.extents == f.extents + w_extents + f.extents[k:]

    def test_memory_guard(self, rng):
        f = sample(random_gaussian(2, rng), (N, N), (T, T))
        with pytest.raises(GridTooLarge):
            partial_stft_grid(f, f, 1)

    def test_slice_memory_guard(self):
        npts = 2**14
        assert npts**2 > MAX_ELEMENTS
        f = SampledField(np.zeros(npts, dtype=complex), (128.0,))
        with pytest.raises(GridTooLarge):
            partial_stft_slice(f, f, 1)

    @pytest.mark.parametrize(
        "points,k", [((32,), 1), ((16, 16), 2), ((8, 8, 8), 3), ((8, 8, 8), 2)]
    )
    def test_slice_matches_riemann_sum(self, rng, points, k):
        d = len(points)
        f, g = (
            SampledField(
                rng.standard_normal(points) + 1j * rng.standard_normal(points),
                (8.0,) * d,
            )
            for _ in range(2)
        )
        x2 = tuple(int(i) for i in rng.integers(0, points[k:], size=d - k))
        w2 = tuple(int(i) for i in rng.integers(0, points[k:], size=d - k))
        sl = partial_stft_slice(f, g, k, x2, w2)
        scale = np.abs(sl.values).max()
        for _ in range(20):
            l_idx = tuple(int(i) for i in rng.integers(0, points[:k]))
            m_idx = tuple(int(i) for i in rng.integers(0, points[:k]))
            w1 = [sl.coords(k + a)[m_idx[a]] for a in range(k)]
            want = partial_stft_at(f, g, k, l_idx, x2, w1, w2)
            assert abs(sl.values[l_idx + m_idx] - want) <= 1e-12 * scale

    @pytest.mark.parametrize("index", [-1, 16, 19, 2.7, 3.0, "3", None])
    def test_grid_index_out_of_range_raises(self, rng, index):
        f = random_field(rng, (16, 16))
        with pytest.raises(DimensionMismatch):
            partial_stft_slice(f, f, 1, x2_idx=(index,), w2_idx=(0,))
        with pytest.raises(DimensionMismatch):
            partial_stft_slice(f, f, 1, x2_idx=(0,), w2_idx=(index,))
        for x1, x2, w2 in [((index,), (0,), (0,)), ((0,), (index,), (0,)),
                           ((0,), (0,), (index,))]:
            with pytest.raises(DimensionMismatch):
                partial_stft_at(f, f, 1, x1, x2, [0.0], w2)

    @pytest.mark.parametrize("x2, w2", [((), (0,)), ((0,), ()), ((0, 0), (0,))])
    def test_grid_index_count_must_match(self, rng, x2, w2):
        f = random_field(rng, (16, 16))
        with pytest.raises(DimensionMismatch):
            partial_stft_slice(f, f, 1, x2, w2)
        with pytest.raises(DimensionMismatch):
            partial_stft_at(f, f, 1, (0,), x2, [0.0], w2)

    def test_at_point_checks_grid_k_and_x1_count(self, rng):
        f = random_field(rng, (16,))
        with pytest.raises(DimensionMismatch):
            partial_stft_at(f, f, 1, (0, 0), (), [0.0], ())
        with pytest.raises(DimensionMismatch):
            partial_stft_at(f, random_field(rng, (32,)), 1, (3,), (), [0.0], ())
        with pytest.raises(DimensionMismatch):
            partial_stft_at(f, f, 0, (), (3,), [], (3,))

    def test_grid_index_edges_and_numpy_integers(self, rng):
        f, g = random_field(rng, (16, 16)), random_field(rng, (16, 16))
        for i in (0, 15):
            want = partial_stft_slice(f, g, 1, (i,), (i,)).values
            got = partial_stft_slice(f, g, 1, (np.int64(i),), (np.int32(i),)).values
            assert got.tobytes() == want.tobytes()
            assert partial_stft_at(f, g, 1, (np.int64(i),), (i,), [0.5], (i,)) == (
                partial_stft_at(f, g, 1, (i,), (i,), [0.5], (i,))
            )

    def test_at_point_matches_oracle_k2(self, rng):
        fg, gg = random_gaussian(2, rng), random_gaussian(2, rng)
        f = sample(fg, (N, N), (T, T))
        g = sample(gg, (N, N), (T, T))
        for _ in range(10):
            x1i = tuple(int(v) for v in rng.integers(N // 2 - 20, N // 2 + 20, size=2))
            w1 = rng.uniform(-1.5, 1.5, size=2)
            got = abs(partial_stft_at(f, g, 2, x1i, (), w1, ()))
            x = np.array([f.coords(0)[x1i[0]], f.coords(1)[x1i[1]]])
            want = partial_stft_point(fg, gg, 2, x, w1)[()]
            if want > 1e-8:
                assert abs(got - want) / want < 1e-6


def _env(threads):
    """This process's environment with MTFR_THREADS set to threads, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "MTFR_THREADS"}
    if threads is not None:
        env["MTFR_THREADS"] = threads
    return env


# the benchmark's pooled shapes, k = 1 at N = 1024 and k = 2 on 32^2, and a
# k = 1 slice at N = 1024, each of 32 blocks; a short switch interval makes
# the workers interleave as often as they can
POOLED_PROBE = textwrap.dedent("""
    import hashlib, json, sys, threading
    import numpy as np
    from mtfr.grid import SampledField, partial_stft_grid, partial_stft_slice
    sys.setswitchinterval(1e-6)
    rng = np.random.default_rng(5)
    hashes = []
    for points, k in (((1024,), 1), ((32, 32), 2), ((1024, 8), 1)):
        f, g = (SampledField(rng.standard_normal(points) + 1j * rng.standard_normal(points),
                             (16.0,) * len(points)) for _ in range(2))
        values = (partial_stft_grid(f, g, k).values if k == len(points)
                  else partial_stft_slice(f, g, k, (3,), (5,)).values)
        hashes.append(hashlib.sha256(values.tobytes()).hexdigest())
    print(json.dumps({"hashes": hashes, "threads": threading.active_count(),
                      "futures": "concurrent.futures" in sys.modules}))
""")


class TestThreadPool:
    @pytest.fixture(scope="class")
    def probes(self):
        # None: the usable CPUs; 3: more threads than this host may have cores
        runs = {}
        for threads in ("1", None, "3"):
            proc = run_python(["-c", POOLED_PROBE], env=_env(threads))
            assert proc.returncode == 0, proc.stderr
            runs[threads] = json.loads(proc.stdout)
        return runs

    def test_thread_count_changes_no_bit(self, probes):
        assert probes[None]["hashes"] == probes["1"]["hashes"]
        assert probes["3"]["hashes"] == probes["1"]["hashes"]

    def test_one_thread_starts_no_thread(self, probes):
        assert probes["1"]["threads"] == 1
        assert not probes["1"]["futures"]

    def test_thread_count_caps_the_pool(self, probes):
        assert 1 < probes["3"]["threads"] <= 1 + 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_pooled_slice(self):
        # the child inherits the parent's pool object but none of its threads
        probe = textwrap.dedent("""
            import os, time
            import numpy as np
            from mtfr.grid import SampledField, partial_stft_slice
            f = SampledField(np.cos(np.arange(1024)) + 0j, (32.0,))
            want = partial_stft_slice(f, f, 1).values
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if np.array_equal(partial_stft_slice(f, f, 1).values, want) else 3
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    raise SystemExit(os.waitstatus_to_exitcode(status))
                time.sleep(0.05)
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise SystemExit("the forked child hung on a pooled slice")
        """)
        proc = run_python(["-c", probe], env=_env("2"))
        assert proc.returncode == 0, proc.stderr

    def test_default_check_starts_no_thread(self):
        # the CLI's default 256@16 transform has 2 blocks, which run inline
        probe = textwrap.dedent("""
            import sys, threading
            import mtfr.cli
            code = mtfr.cli.main(["check", "gs"])
            print(code, "concurrent.futures" in sys.modules, threading.active_count())
        """)
        proc = run_python(["-c", probe], env=_env(None))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False 1"

    BAD_THREADS = [(t, c) for c in ("check", "factor", "classify") for t in ("0", "-2", "abc")]

    @pytest.mark.parametrize("threads, command", BAD_THREADS,
                             ids=[t if c == "check" else f"{c}-{t}" for t, c in BAD_THREADS])
    def test_bad_thread_count_exits_2(self, threads, command, tmp_path):
        # every command refuses it, also one that runs no transform
        matrix = tmp_path / "alt1.json"
        matrix.write_text('{"n": 2, "rows": [[0, 0, 1, 0], [0, 0, 0, 1], '
                          '[-1, 0, 0, 0], [0, -1, 0, 0]]}')
        argv = {"check": ["check", "gs", "--grid", "1024@32"],
                "factor": ["factor", str(matrix)],
                "classify": ["classify", str(matrix)]}[command]
        proc = run_python(["-m", "mtfr.cli", *argv], env=_env(threads))
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: MTFR_THREADS must be a positive integer")

    def test_pool_keeps_the_callers_errstate(self, monkeypatch):
        # numpy's error state is per thread; the products overflow
        monkeypatch.setenv("MTFR_THREADS", "2")
        f = SampledField(np.full(1024, 1e200 + 0j), (8.0,))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            partial_stft_grid(f, f, 1)


class TestTfrGrid:
    def test_identity_word_is_tensor(self, rng):
        fg, gg = random_gaussian(1, rng), random_gaussian(1, rng)
        f = sample(fg, (64,), (T,))
        g = sample(gg, (64,), (T,))
        out = tfr_grid(GeneratorWord(2, ()), f, g)
        np.testing.assert_allclose(
            out.values, np.multiply.outer(f.values, np.conj(g.values))
        )

    def test_bold_j_vs_oracle(self, rng):
        fg, gg = random_gaussian(1, rng), random_gaussian(1, rng)
        f = sample(fg, (N,), (T,))
        g = sample(gg, (N,), (T,))
        word = GeneratorWord(2, (PartialFourier((0, 1)),))
        out = tfr_grid(word, f, g)
        oracle = sample(
            apply_word(tensor(fg, conjugate(gg)), word), out.points, out.extents
        )
        idx = np.abs(oracle.values) > 1e-5 * np.abs(oracle.values).max()
        rel = np.abs(np.abs(out.values[idx]) - np.abs(oracle.values[idx]))
        assert np.max(rel / np.abs(oracle.values[idx])) < 1e-6

    def test_bounded_tensor_is_the_outer_product(self, rng, monkeypatch):
        calls = []
        unscanned = mtfr.grid._bounded_field
        monkeypatch.setattr(
            mtfr.grid, "_bounded_field", lambda *a: calls.append(1) or unscanned(*a)
        )
        f, g = random_field(rng, (64,)), random_field(rng, (32,), 4.0)
        out = tfr_grid(GeneratorWord(2, ()), f, g)
        assert calls == [1]
        want = np.multiply.outer(f.values, np.conj(g.values))
        assert out.values.tobytes() == want.tobytes()
        assert out.extents == (8.0, 4.0)
        assert not out.values.flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "f_entry,g_entry,finite",
        [(1e200, 1e200, False), (1e300, 1e10, False), (1e154, 1e154, True)],
    )
    def test_tensor_beyond_the_bound_takes_the_scan(self, monkeypatch, f_entry, g_entry, finite):
        # max|f| max|g| above 2^1000 proves nothing: a product that leaves the
        # doubles raises through the constructor's scan, and 1e308 passes it
        calls = []
        monkeypatch.setattr(mtfr.grid, "_bounded_field", lambda *a: calls.append(1))
        f, g = SampledField(spike(f_entry), (8.0,)), SampledField(spike(g_entry), (8.0,))
        if finite:
            out = tfr_grid(GeneratorWord(2, ()), f, g)
            assert out.values.max() == f_entry * g_entry
        else:
            with pytest.raises(DimensionMismatch, match="field values must be finite"):
                tfr_grid(GeneratorWord(2, ()), f, g)
        assert calls == []


def mesh_mass_outside(field, region):
    """Reference for `mass_outside`: the box mask over the full coordinate mesh."""
    pts = field.mesh().reshape(-1, field.n)
    lows, highs = (np.asarray(v, dtype=float) for v in region)
    inside = np.all((pts >= lows) & (pts <= highs), axis=1)
    dens = np.abs(field.values.ravel()) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[~inside]) / total)


class TestMassOutside:
    @staticmethod
    def boxes(rng, points, spacing):
        """Bounds on grid nodes (where >= and <= decide), between nodes, and a scalar box."""
        return [
            (np.full(len(points), -2 * spacing), np.full(len(points), 3 * spacing)),
            (rng.uniform(-3.0, 0.0, len(points)), rng.uniform(0.0, 3.0, len(points))),
            (-1.0, 1.0),
        ]

    @pytest.mark.parametrize("points", [(64,), (32, 16), (8, 16, 8)])
    def test_matches_mesh_reference_on_exact_sums(self, rng, points):
        # |v| and |v|^2 are small integers (hypot(3k, 4k) = 5k exactly), so
        # every order of summation is exact and equal bits pin the node set
        spacing = 0.25
        values = rng.integers(-3, 4, points) * rng.choice([1, -1j, 3 + 4j], points)
        f = SampledField(values, tuple(spacing * p for p in points))
        for box in self.boxes(rng, points, spacing):
            assert mass_outside(f, box) == mesh_mass_outside(f, box)

    @pytest.mark.parametrize("points", [(64,), (32, 16), (8, 16, 8)])
    def test_matches_mesh_reference(self, rng, points):
        spacing = 0.25
        f = SampledField(
            rng.standard_normal(points) + 1j * rng.standard_normal(points),
            tuple(spacing * p for p in points),
        )
        for box in self.boxes(rng, points, spacing):
            want = mesh_mass_outside(f, box)
            assert abs(mass_outside(f, box) - want) <= 1e-14 * want

    def test_tiny_outside_mass(self, rng):
        # a counterexample's mass outside is about 1e-29 of its total: the
        # total less the inside would lose all of it
        f = random_field(rng, (256, 256), 16.0)
        box = ([-2.0, -2.0], [2.0, 2.0])
        x = f.coords(0)
        inside = np.multiply.outer(np.abs(x) <= 2.0, np.abs(x) <= 2.0)
        values = f.values.copy()
        scale = np.sqrt(
            1e-30 * np.sum(np.abs(values[inside]) ** 2) / np.sum(np.abs(values[~inside]) ** 2)
        )
        values[~inside] *= scale
        got = mass_outside(SampledField(values, f.extents), box)
        assert abs(got - 1e-30) <= 1e-12 * 1e-30

    @pytest.mark.parametrize("points", [(16,), (16, 8), (8, 16, 8)])
    def test_empty_box_is_exactly_one(self, rng, points):
        f = random_field(rng, points)
        n = len(points)
        between = f.spacing(0) / 4  # a box between two nodes of axis 0
        boxes = [
            (1.0, -1.0),
            ([between] + [-1.0] * (n - 1), [2 * between] + [1.0] * (n - 1)),
            ([-1.0] * (n - 1) + [1.0], [1.0] * (n - 1) + [-1.0]),
        ]
        for box in boxes:
            assert mass_outside(f, box) == 1.0

    def test_peak_memory(self, rng):
        f = random_field(rng, (512, 512), 16.0)
        tracemalloc.start()
        try:
            mass_outside(f, ([-2.0, -2.0], [2.0, 2.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * f.values.nbytes

    def test_full_grid(self, phi_field):
        assert mass_outside(phi_field, ([-T / 2], [T / 2])) == 0.0

    @pytest.mark.parametrize(
        "region",
        [([np.nan, -1.0], [1.0, 1.0]), ([-1.0, -1.0], [1.0, np.nan]), (np.nan, 1.0)],
    )
    def test_nan_bound_raises(self, rng, region):
        f = random_field(rng, (16, 8))
        with pytest.raises(DimensionMismatch, match="NaN"):
            mass_outside(f, region)

    @pytest.mark.parametrize(
        "region",
        [([-1.0] * 3, [1.0] * 3), ([-1.0, -1.0], [1.0] * 3), (np.full((2, 2), -1.0), 1.0)],
    )
    def test_region_of_wrong_shape_raises(self, rng, region):
        f = random_field(rng, (16, 8))
        with pytest.raises(DimensionMismatch, match="region bounds"):
            mass_outside(f, region)

    def test_inverted_box_is_empty(self, rng):
        f = random_field(rng, (16, 8))
        assert mass_outside(f, ([1.0, -1.0], [-1.0, 1.0])) == 1.0
        assert mass_outside(f, (1.0, -1.0)) == 1.0

    def test_bump_in_its_box(self):
        def bump(m):
            u = m[..., 0] / 2.0
            out = np.zeros_like(u)
            inside = np.abs(u) < 1
            out[inside] = np.exp(1 - 1 / (1 - u[inside] ** 2))
            return out

        f = sample_function(bump, (N,), (T,))
        assert mass_outside(f, ([-2.0], [2.0])) <= 1e-12
