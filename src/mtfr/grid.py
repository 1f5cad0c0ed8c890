"""FFT engine on centered uniform grids: the second, independent pipeline.

Fields are sampled on tensor grids t_j = -T/2 + j T/N per axis (N a power
of two).  Fourier letters use the centered FFT calibrated to the
continuous transform (spacing factor and half-period phase ramps), so the
discrete operator approximates the continuous unitary rather than the raw
DFT.  1-D dilations act by band-limited (spectral) resampling, evaluated
as a Bluestein chirp-z transform of the centered spectrum in O(N log N)
per line; in higher dimension only monomial matrices (permutation x
diagonal) are resampled, axis by axis, and everything else is left to the
Gaussian oracle path.  A partial STFT slice is one batched FFT over the
window shifted to every grid point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ChirpAliasingWarning,
    DimensionMismatch,
    GridTooLarge,
    OffGridPoint,
    RadiusExceedsGrid,
    UnsupportedDilation,
)
from .gaussian import GeneralizedGaussian, evaluate
from .symplectic import Chirp, Dilation, GeneratorWord, PartialFourier

MAX_ELEMENTS = 2**26

__all__ = [
    "SampledField",
    "sample",
    "sample_function",
    "field_l2",
    "apply_letter_grid",
    "apply_word_grid",
    "partial_stft_slice",
    "partial_stft_grid",
    "partial_stft_at",
    "tfr_grid",
    "tf_shift",
    "intertwining_check",
    "weighted_truncated_integral",
    "mass_outside",
]


def _is_pow2(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SampledField:
    """Complex values on a centered uniform tensor grid."""

    values: np.ndarray
    extents: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        extents = tuple(float(t) for t in self.extents)
        if v.ndim != len(extents):
            raise DimensionMismatch("axis count does not match extents")
        for npts in v.shape:
            if not _is_pow2(npts):
                raise DimensionMismatch("points per axis must be a power of two >= 8")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("field values must be finite")
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "extents", extents)

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def points(self) -> tuple:
        return self.values.shape

    def spacing(self, axis: int) -> float:
        return self.extents[axis] / self.values.shape[axis]

    def coords(self, axis: int) -> np.ndarray:
        npts = self.values.shape[axis]
        return (np.arange(npts) - npts // 2) * self.spacing(axis)

    def cell_volume(self) -> float:
        return float(np.prod([self.spacing(a) for a in range(self.n)]))

    def mesh(self) -> np.ndarray:
        """Stacked grid coordinates, shape points + (n,)."""
        axes = [self.coords(a) for a in range(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def sample(g: GeneralizedGaussian, points, extents) -> SampledField:
    """Evaluate a generalized Gaussian on the grid (global phase 0)."""
    points = tuple(int(p) for p in points)
    extents = tuple(float(t) for t in extents)
    if len(points) != g.n or len(extents) != g.n:
        raise DimensionMismatch("grid dimensions do not match the Gaussian")
    probe = SampledField(np.zeros(points, dtype=complex), extents)
    return SampledField(evaluate(g, probe.mesh()), extents)


def sample_function(fn, points, extents) -> SampledField:
    """Sample a callable on the grid; fn takes stacked coordinates (..., n)."""
    points = tuple(int(p) for p in points)
    extents = tuple(float(t) for t in extents)
    probe = SampledField(np.zeros(points, dtype=complex), extents)
    return SampledField(np.asarray(fn(probe.mesh()), dtype=complex), extents)


def field_l2(field: SampledField) -> float:
    """l^2 norm calibrated to L^2: ||v||_2 * sqrt(cell volume)."""
    return float(np.linalg.norm(field.values.ravel()) * np.sqrt(field.cell_volume()))


# ---------------------------------------------------------------------------
# centered Fourier transform


def _centered_fft_axis(values: np.ndarray, axis: int, extent: float):
    """Continuous-FT approximation along one axis; returns (values, new extent)."""
    npts = values.shape[axis]
    dx = extent / npts
    shape = [1] * values.ndim
    shape[axis] = npts
    ramp = ((-1.0) ** np.arange(npts)).reshape(shape)
    out = np.fft.fft(values * ramp, axis=axis)
    phase = dx * np.exp(-0.5j * np.pi * npts)
    out *= ramp * phase
    return out, npts / extent


def _centered_ifft_axis(values: np.ndarray, axis: int, freq_extent: float):
    """Inverse of `_centered_fft_axis`; returns (values, spatial extent)."""
    npts = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = npts
    ramp = ((-1.0) ** np.arange(npts)).reshape(shape)
    out = np.fft.ifft(values * ramp, axis=axis)
    phase = freq_extent * np.exp(0.5j * np.pi * npts)
    out *= ramp * phase
    return out, npts / freq_extent


def _resample_axis(values: np.ndarray, axis: int, extent: float, scale: float):
    """Band-limited evaluation of f(x/scale) |scale|^{-1/2} on the same grid.

    With the centered spectrum F_p (p, q in [-N/2, N/2)), the value at
    x_q / scale is (1/T) sum_p F_p e^{2 pi i pq / (N scale)}.  Bluestein's
    identity pq = (p^2 + q^2 - (q - p)^2) / 2 turns that sum into the
    chirp-z form e^{i a q^2} sum_p (F_p e^{i a p^2}) e^{-i a (q - p)^2},
    a = pi / (N scale): one linear convolution, done by FFTs of length 2N,
    so the cost is O(N log N) per line along the axis.
    """
    npts = values.shape[axis]
    spec, _ = _centered_fft_axis(values, axis, extent)
    alpha = np.pi / (npts * scale)
    p = np.arange(npts) - npts // 2
    chirp = np.exp(1j * alpha * p**2)
    # e^{-i a m^2} for m in [-N, N), laid out circularly; q - p never
    # reaches m = -N
    m = np.fft.fftfreq(2 * npts, 1.0 / (2 * npts))
    kernel = np.fft.fft(np.exp(-1j * alpha * m**2))
    moved = np.moveaxis(spec, axis, -1)
    conv = np.fft.ifft(np.fft.fft(moved * chirp, n=2 * npts) * kernel)
    out = conv[..., :npts] * (chirp / (extent * np.sqrt(abs(scale))))
    return np.moveaxis(out, -1, axis)


def _monomial_decompose(l: np.ndarray):
    """L = P . diag(d) with P a permutation; raises UnsupportedDilation."""
    n = l.shape[0]
    tol = 1e-12 * max(1.0, np.abs(l).max())
    rows = []
    diag = np.zeros(n)
    for j in range(n):
        nz = np.nonzero(np.abs(l[:, j]) > tol)[0]
        if nz.size != 1:
            raise UnsupportedDilation(
                "grid dilations in n >= 2 require a monomial matrix"
            )
        rows.append(int(nz[0]))
        diag[j] = l[nz[0], j]
    if len(set(rows)) != n:
        raise UnsupportedDilation("grid dilations in n >= 2 require a monomial matrix")
    return rows, diag


def _chirp_alias_check(q: np.ndarray, field: SampledField):
    bound = 0.0
    for a in range(field.n):
        reach = sum(abs(q[a, b]) * field.extents[b] / 2.0 for b in range(field.n))
        bound = max(bound, 2.0 * np.pi * reach * field.spacing(a))
    if bound > np.pi:
        warnings.warn(
            f"chirp phase advances {bound:.2f} rad between adjacent samples",
            ChirpAliasingWarning,
            stacklevel=3,
        )


def apply_letter_grid(field: SampledField, letter) -> SampledField:
    """Discrete approximation of one metaplectic generator."""
    if isinstance(letter, Chirp):
        if letter.n != field.n:
            raise DimensionMismatch("chirp size does not match field")
        _chirp_alias_check(letter.q, field)
        mesh = field.mesh()
        phase = np.einsum("...i,ij,...j->...", mesh, letter.q, mesh)
        return SampledField(field.values * np.exp(1j * np.pi * phase), field.extents)
    if isinstance(letter, PartialFourier):
        if letter.axes[-1] >= field.n:
            raise DimensionMismatch("Fourier axis beyond field dimension")
        values = field.values
        extents = list(field.extents)
        for ax in letter.axes:
            values, extents[ax] = _centered_fft_axis(values, ax, extents[ax])
        return SampledField(values, tuple(extents))
    if isinstance(letter, Dilation):
        if letter.n != field.n:
            raise DimensionMismatch("dilation size does not match field")
        rows, diag = _monomial_decompose(letter.l)
        values = field.values
        for ax in range(field.n):
            values = _resample_axis(values, ax, field.extents[ax], diag[ax])
        # result(x) = f1(P^t x): axis a of the output reads axis source[a] of f1,
        # where source[a] is the column with its nonzero in row a
        source = [0] * field.n
        for col, row in enumerate(rows):
            source[row] = col
        values = np.transpose(values, source)
        extents = tuple(field.extents[s] for s in source)
        return SampledField(values, extents)
    raise TypeError(f"unknown letter {letter!r}")


def apply_word_grid(field: SampledField, word: GeneratorWord) -> SampledField:
    if word.n != field.n:
        raise DimensionMismatch("word dimension does not match field")
    for letter in reversed(word.letters):
        field = apply_letter_grid(field, letter)
    return field


# ---------------------------------------------------------------------------
# partial short-time Fourier transform


def _negated_index(i: int, npts: int) -> int:
    return (npts - i) % npts


def _window_slices(f_points, x2_idx, g_values, w2_idx, k):
    """Restrict f and g to the slice (x2, -omega2) of their trailing axes."""
    fs = f_points[(slice(None),) * k + tuple(x2_idx)]
    neg = tuple(
        _negated_index(int(i), g_values.shape[k + a]) for a, i in enumerate(w2_idx)
    )
    gs = g_values[(slice(None),) * k + neg]
    return fs, gs


def _shifted_window(gs: np.ndarray, l_idx) -> np.ndarray:
    """win[j] = gs[j - l + N/2] per axis, zero outside the grid."""
    win = np.zeros_like(gs)
    src, dst = [], []
    for a, l in enumerate(l_idx):
        npts = gs.shape[a]
        lo = int(l) - npts // 2
        d0, d1 = max(0, lo), min(npts, npts + lo)
        if d0 >= d1:
            return win
        dst.append(slice(d0, d1))
        src.append(slice(d0 - lo, d1 - lo))
    win[tuple(dst)] = gs[tuple(src)]
    return win


def partial_stft_slice(
    f: SampledField, g: SampledField, k: int, x2_idx=(), w2_idx=()
) -> SampledField:
    """One (x2, omega2) cross-section of V^k_g f as a 2k-dim field (x1, omega1).

    Computes the FFT over t of f(t, x2) conj(g(t - x1, -omega2)) for every
    grid shift x1; x2 and omega2 are grid multi-indices into the trailing
    d-k axes (omega2 is negated internally).  Raises GridTooLarge before
    allocating when the slice would hold more than MAX_ELEMENTS values.
    """
    d = f.n
    if g.n != d or f.points != g.points or f.extents != g.extents:
        raise DimensionMismatch("fields must share one grid")
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}")
    if len(x2_idx) != d - k or len(w2_idx) != d - k:
        raise DimensionMismatch("slice indices must cover the trailing d-k axes")
    shape_k = f.points[:k]
    size = int(np.prod(shape_k)) ** 2
    if size > MAX_ELEMENTS:
        raise GridTooLarge(f"slice would hold {size} elements")
    fs, gs = _window_slices(f.values, x2_idx, g.values, w2_idx, k)
    # integrand[l, t] = fs[t] conj(gs[t - l + N/2]), zero outside the grid:
    # with gs padded by N/2 zeros per side, the window at shift l is the view
    # starting at padded index N - l, so reversing the window-start axes of
    # a sliding-window view lists every shift without a copy
    padded = np.pad(np.conj(gs), [(npts // 2, npts // 2) for npts in shape_k])
    windows = sliding_window_view(padded, shape_k)[(slice(None, 0, -1),) * k]
    integrand = windows * fs
    extents = list(f.extents[:k]) * 2
    for a in range(k):
        integrand, extents[k + a] = _centered_fft_axis(integrand, k + a, f.extents[a])
    return SampledField(integrand, tuple(extents))


def partial_stft_grid(
    f: SampledField, g: SampledField, k: int, max_elements: int = MAX_ELEMENTS
) -> SampledField:
    """Full V^k_g f on the tensor grid, indexed (x1, x2, omega1, omega2).

    omega2 ranges over the (spatial) grid of the trailing axes, since the
    window is evaluated at the space point -omega2; omega1 lives on the
    FFT-dual grid.
    """
    d = f.n
    if g.n != d or f.points != g.points or f.extents != g.extents:
        raise DimensionMismatch("fields must share one grid")
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}")
    tail = f.points[k:]
    out_shape = f.points[:k] + tail + f.points[:k] + tail
    if int(np.prod(out_shape)) > max_elements:
        raise GridTooLarge(f"output would hold {int(np.prod(out_shape))} elements")
    out = np.empty(out_shape, dtype=complex)
    w_extents = None
    for x2_idx in np.ndindex(*tail):
        for w2_idx in np.ndindex(*tail):
            piece = partial_stft_slice(f, g, k, x2_idx, w2_idx)
            sel = (
                (slice(None),) * k + x2_idx + (slice(None),) * k + w2_idx
            )
            out[sel] = piece.values
            w_extents = piece.extents[k:]
    extents = (
        tuple(f.extents[:k])
        + tuple(f.extents[k:])
        + tuple(w_extents)
        + tuple(f.extents[k:])
    )
    return SampledField(out, extents)


def partial_stft_at(
    f: SampledField, g: SampledField, k: int, x1_idx, x2_idx, w1, w2_idx
) -> complex:
    """Single value of V^k_g f by direct Riemann sum over the t grid.

    x1 and the slice variables are grid multi-indices; omega1 is an
    arbitrary continuous frequency vector.
    """
    if len(x1_idx) != k:
        raise DimensionMismatch("x1 index must have k components")
    fs, gs = _window_slices(f.values, x2_idx, g.values, w2_idx, k)
    win = _shifted_window(gs, x1_idx)
    w1 = np.asarray(w1, dtype=float).reshape(k)
    axes = [
        (np.arange(fs.shape[a]) - fs.shape[a] // 2) * f.spacing(a) for a in range(k)
    ]
    phase = np.zeros(fs.shape)
    for a in range(k):
        shape = [1] * k
        shape[a] = fs.shape[a]
        phase = phase + (axes[a] * w1[a]).reshape(shape)
    cell = float(np.prod([f.spacing(a) for a in range(k)]))
    return complex(np.sum(fs * np.conj(win) * np.exp(-2j * np.pi * phase)) * cell)


def tfr_grid(
    word: GeneratorWord, f: SampledField, g: SampledField, max_elements: int = MAX_ELEMENTS
) -> SampledField:
    """Metaplectic representation on the grid: the word applied to f (x) conj(g)."""
    if word.n != f.n + g.n:
        raise DimensionMismatch("word dimension must equal dim f + dim g")
    total = int(np.prod(f.points)) * int(np.prod(g.points))
    if total > max_elements:
        raise GridTooLarge(f"tensor would hold {total} elements")
    big = np.multiply.outer(f.values, np.conj(g.values))
    field = SampledField(big, tuple(f.extents) + tuple(g.extents))
    return apply_word_grid(field, word)


# ---------------------------------------------------------------------------
# time-frequency shifts and the intertwining check


def tf_shift(field: SampledField, x, omega) -> SampledField:
    """rho(x, omega) f = e^{-i pi x.omega} e^{2 pi i omega.t} f(t - x).

    Whole-cell translations shift indices with zero fill; fractional
    remainders use an exact spectral phase ramp (band-limited translation).
    """
    x = np.asarray(x, dtype=float).reshape(field.n)
    omega = np.asarray(omega, dtype=float).reshape(field.n)
    values = field.values
    for a in range(field.n):
        cells = x[a] / field.spacing(a)
        s = int(round(cells))
        frac = (cells - s) * field.spacing(a)
        if s:
            out = np.zeros_like(values)
            npts = values.shape[a]
            if abs(s) < npts:
                src = [slice(None)] * field.n
                dst = [slice(None)] * field.n
                if s > 0:
                    src[a], dst[a] = slice(0, npts - s), slice(s, npts)
                else:
                    src[a], dst[a] = slice(-s, npts), slice(0, npts + s)
                out[tuple(dst)] = values[tuple(src)]
            values = out
        if abs(frac) > 1e-15 * max(1.0, abs(x[a])):
            spec, fext = _centered_fft_axis(values, a, field.extents[a])
            npts = values.shape[a]
            freqs = (np.arange(npts) - npts // 2) / field.extents[a]
            shape = [1] * field.n
            shape[a] = npts
            spec = spec * np.exp(-2j * np.pi * freqs * frac).reshape(shape)
            values, _ = _centered_ifft_axis(spec, a, fext)
    mesh = field.mesh()
    phase = np.exp(2j * np.pi * (mesh @ omega) - 1j * np.pi * float(x @ omega))
    return SampledField(values * phase, field.extents)


def intertwining_check(
    word: GeneratorWord, lam, points: int = 256, extent: float = 16.0
) -> float:
    """Deviation in the covariance rho(M lam) = W rho(lam) W^{-1} on a test Gaussian.

    Returns || rho(M lam) f - c W rho(lam) W^{-1} f || / ||f|| minimized over
    unimodular c.  Both lam and M lam must be grid points (d = 1).
    """
    from .gaussian import standard_gaussian
    from .symplectic import invert_word

    if word.n != 1:
        raise DimensionMismatch("intertwining check is implemented for d = 1")
    lam = np.asarray(lam, dtype=float).reshape(2)
    mlam = word.matrix() @ lam
    f = sample(standard_gaussian(1), (points,), (extent,))
    cells = lam[0] / f.spacing(0)
    if abs(cells - round(cells)) > 1e-9:
        raise OffGridPoint(f"lambda shift {lam[0]} is not a grid multiple")
    u = apply_word_grid(f, invert_word(word))
    u = tf_shift(u, lam[:1], lam[1:])
    u = apply_word_grid(u, word)
    v = tf_shift(f, mlam[:1], mlam[1:])
    cell = f.cell_volume()
    uu = np.vdot(u.values, u.values).real * cell
    vv = np.vdot(v.values, v.values).real * cell
    uv = abs(np.vdot(u.values, v.values)) * cell
    dev_sq = max(uu + vv - 2.0 * uv, 0.0)
    return float(np.sqrt(dev_sq) / field_l2(f))


# ---------------------------------------------------------------------------
# integrals and masses


def weighted_truncated_integral(field: SampledField, weight, radius: float) -> float:
    """Riemann sum of |field| x weight over the ball ||lambda|| <= radius."""
    if radius > min(field.extents) / 2.0:
        raise RadiusExceedsGrid(f"radius {radius} exceeds grid half-extent")
    pts = field.mesh().reshape(-1, field.n)
    mask = np.einsum("ij,ij->i", pts, pts) <= radius**2
    vals = np.abs(field.values).ravel()[mask]
    w = np.asarray(weight(pts[mask]), dtype=float)
    return float(np.sum(vals * w) * field.cell_volume())


def mass_outside(field: SampledField, region) -> float:
    """Fraction of the squared mass outside region = (lows, highs), per-axis bounds."""
    pts = field.mesh().reshape(-1, field.n)
    lows, highs = region
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    inside = np.all((pts >= lows) & (pts <= highs), axis=1)
    dens = np.abs(field.values.ravel()) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[~inside]) / total)
