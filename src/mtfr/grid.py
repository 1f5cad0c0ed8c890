"""FFT engine on centered uniform grids: the second, independent pipeline.

Fields are sampled on tensor grids t_j = -T/2 + j T/N per axis (N a power
of two).  Fourier letters use the centered FFT calibrated to the
continuous transform (spacing factor and half-period phase ramps), so the
discrete operator approximates the continuous unitary rather than the raw
DFT.  1-D dilations act by band-limited (spectral) resampling, evaluated
as a Bluestein chirp-z transform of the centered spectrum in O(N log N)
per line; in higher dimension only monomial matrices (permutation x
diagonal) are resampled, axis by axis, and everything else is left to the
Gaussian oracle path.  The partial STFT is one batched FFT over the
window shifted to every grid point, run in place on a single integrand
buffer, block by block of leading rows so that each block is built,
transformed and calibrated while it is in cache; its values are proven
finite by a bound on the inputs rather than by a scan.  The blocks are
independent: with at least 2 blocks per thread they run on the module's
one thread pool, of MTFR_THREADS threads (the usable CPUs when unset),
built on first use and dropped in a forked child; fewer run inline, so
small transforms start no thread.  Either way every value keeps its
bits.  A slice is the transform of the fields restricted to one
(x2, omega2) cross-section.  Every tensor field f (x) conj(g) comes from
`tfr_grid`, under the same size guard.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ChirpAliasingWarning,
    DimensionMismatch,
    GridTooLarge,
    MtfrError,
    UnsupportedDilation,
)
from .gaussian import GeneralizedGaussian, evaluate
from .symplectic import Chirp, Dilation, GeneratorWord, PartialFourier

MAX_ELEMENTS = 2**26
# partial_stft_grid builds, transforms and calibrates its integrand in
# blocks of leading x1 rows of at most this many bytes (at least one row),
# so that each block is still in a core's L2 cache for every pass
_BLOCK_BYTES = 2**19
# a bound on every |value| at or below this proves the values finite, with
# 2^24 to spare for the rounding of the norms and of the FFTs
_FINITE_BOUND = 2.0**1000

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
    "mass_outside",
]


def _is_pow2(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SampledField:
    """Complex values on a centered uniform tensor grid.

    A field has at least one axis, each with a power-of-two point count
    (>= 8) and a finite positive extent, and only finite values.

    A complex array that owns its data is taken as it is and marked
    read-only in place, without a copy; the caller hands it over and keeps
    no views of it.  Any other input (a view, a list, another dtype) is
    copied first.
    """

    values: np.ndarray
    extents: tuple

    def __post_init__(self):
        self._settle(scan_values=True)

    def _settle(self, scan_values: bool):
        v = np.asarray(self.values, dtype=complex)
        extents = tuple(float(t) for t in self.extents)
        if v.ndim == 0 or v.ndim != len(extents):
            raise DimensionMismatch("need one extent per axis, and at least one axis")
        if not all(0.0 < t < np.inf for t in extents):
            raise DimensionMismatch("extents must be finite and positive")
        for npts in v.shape:
            if not _is_pow2(npts):
                raise DimensionMismatch("points per axis must be a power of two >= 8")
        if scan_values and not np.all(np.isfinite(v)):
            raise DimensionMismatch("field values must be finite")
        if not v.flags.owndata:
            # a view: copy it, so that no later write to its base reaches the field
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


def _bounded_field(values: np.ndarray, extents: tuple) -> SampledField:
    """A SampledField of values already proven finite by a bound on their inputs.

    Runs every check of the constructor except the elementwise finiteness
    scan, the one check a caller's bound carries over.
    """
    field = object.__new__(SampledField)
    object.__setattr__(field, "values", values)
    object.__setattr__(field, "extents", extents)
    field._settle(scan_values=False)
    return field


def sample(g: GeneralizedGaussian, points, extents) -> SampledField:
    """Evaluate a generalized Gaussian on the grid (global phase 0)."""
    if len(points) != g.n or len(extents) != g.n:
        raise DimensionMismatch("grid dimensions do not match the Gaussian")
    return sample_function(lambda mesh: evaluate(g, mesh), points, extents)


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


def _ramp(npts: int, axis: int, ndim: int) -> np.ndarray:
    """The (-1)^j sign ramp along one axis, shaped to broadcast over ndim axes."""
    shape = [1] * ndim
    shape[axis] = npts
    return ((-1.0) ** np.arange(npts)).reshape(shape)


def _calibration(npts: int, axis: int, ndim: int, extent: float):
    """The output (-1)^j ramp times the calibration phase of a centered FFT.

    Returns the factor, shaped to broadcast over ndim axes, and the new
    extent of the axis.
    """
    phase = extent / npts * np.exp(-0.5j * np.pi * npts)
    return _ramp(npts, axis, ndim) * phase, npts / extent


def _fft_axis_inplace(buf: np.ndarray, axis: int, extent: float):
    """Centered FFT of buf along one axis, in place.

    buf must already carry the input (-1)^j ramp of that axis; the FFT
    writes into buf and the calibration factor is multiplied in.  Returns
    the new extent of the axis.
    """
    np.fft.fft(buf, axis=axis, out=buf)
    factor, new_extent = _calibration(buf.shape[axis], axis, buf.ndim, extent)
    buf *= factor
    return new_extent


def _centered_fft_axis(values: np.ndarray, axis: int, extent: float):
    """Continuous-FT approximation along one axis.

    Returns (values, new extent); the input is left untouched.
    """
    buf = values * _ramp(values.shape[axis], axis, values.ndim)
    return buf, _fft_axis_inplace(buf, axis, extent)


def _resample_axis(values: np.ndarray, axis: int, extent: float, scale: float, out=None):
    """Band-limited evaluation of f(x/scale) |scale|^{-1/2} on the same grid.

    With the centered spectrum F_p (p, q in [-N/2, N/2)), the value at
    x_q / scale is (1/T) sum_p F_p e^{2 pi i pq / (N scale)}.  Bluestein's
    identity pq = (p^2 + q^2 - (q - p)^2) / 2 turns that sum into the
    chirp-z form e^{i a q^2} sum_p (F_p e^{i a p^2}) e^{-i a (q - p)^2},
    a = pi / (N scale): one linear convolution, done by FFTs of length 2N,
    so the cost is O(N log N) per line along the axis.

    The FFTs run in place in one zero-padded buffer, the axis last; the
    result goes into out (an array, or a view, of values' shape) when given
    and into a new array otherwise, and is returned.
    """
    npts = values.shape[axis]
    alpha = np.pi / (npts * scale)
    chirp = np.exp(1j * alpha * (np.arange(npts) - npts // 2) ** 2)
    # e^{-i a m^2} for m in [-N, N), laid out circularly; q - p never
    # reaches m = -N
    kernel = -1j * alpha * np.fft.fftfreq(2 * npts, 1.0 / (2 * npts)) ** 2
    np.exp(kernel, out=kernel)
    np.fft.fft(kernel, out=kernel)
    moved = np.moveaxis(values, axis, -1)
    buf = np.zeros(moved.shape[:-1] + (2 * npts,), dtype=complex)
    head = buf[..., :npts]
    last = values.ndim - 1
    np.multiply(moved, _ramp(npts, last, values.ndim), out=head)
    _fft_axis_inplace(head, last, extent)  # the centered spectrum
    head *= chirp
    np.fft.fft(buf, out=buf)
    buf *= kernel
    del kernel
    np.fft.ifft(buf, out=buf)
    chirp /= extent * np.sqrt(abs(scale))
    if out is None:
        out = np.empty(values.shape, dtype=complex)
    np.multiply(head, chirp, out=np.moveaxis(out, axis, -1))
    return out


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
        # result(x) = f1(P^t x): axis a of the output reads axis source[a] of f1,
        # where source[a] is the column with its nonzero in row a
        source = [0] * field.n
        for col, row in enumerate(rows):
            source[row] = col
        # the last pass writes f1 straight into the result, which is laid
        # out in the output's axis order and handed over without a copy
        result = np.empty(tuple(field.points[s] for s in source), dtype=complex)
        values = field.values
        for ax in range(field.n):
            last = ax == field.n - 1
            values = _resample_axis(
                values, ax, field.extents[ax], diag[ax],
                out=np.transpose(result, np.argsort(source)) if last else None,
            )
        extents = tuple(field.extents[s] for s in source)
        return SampledField(result, extents)
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


def _check_stft_args(f: SampledField, g: SampledField, k: int):
    if g.n != f.n or f.points != g.points or f.extents != g.extents:
        raise DimensionMismatch("fields must share one grid")
    if not 1 <= k <= f.n:
        raise DimensionMismatch(f"need 1 <= k <= d, got k={k}")


def _shift_views(gc: np.ndarray, k: int) -> np.ndarray:
    """Every grid shift of the window gc over its first k axes, without a copy.

    Returns a view indexed (l, rest of gc's axes, t) with
    view[l, ..., t] = gc[t - l + N/2, ...], zero outside the grid: with gc
    padded by N/2 zeros per side, the window at shift l starts at padded
    index N - l, so reversing the window-start axes lists every shift.
    """
    shape_k = gc.shape[:k]
    pad = [(npts // 2, npts // 2) for npts in shape_k] + [(0, 0)] * (gc.ndim - k)
    view = sliding_window_view(np.pad(gc, pad), shape_k, axis=tuple(range(k)))
    return view[(slice(None, 0, -1),) * k]


def _thread_count() -> int:
    """MTFR_THREADS when set, else the CPUs this process may run on.

    The one reader of MTFR_THREADS: a value that is not a positive integer
    raises MtfrError.
    """
    cap = os.environ.get("MTFR_THREADS")
    if not cap:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise MtfrError(f"MTFR_THREADS must be a positive integer, got {cap!r}")
    return threads


# (threads, executor) of the partial STFT's pool, built on first use and
# again when MTFR_THREADS changes
_pool = None
_pool_lock = threading.Lock()


def _drop_pool():
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_blocks(run_block, starts):
    """run_block(lo) for every lo in starts, each call independent of the others.

    With fewer than 2 blocks per thread the blocks run inline; otherwise
    the starts are dealt round-robin to the threads of a pool, which is
    built on first use (numpy's FFTs and ufuncs release the GIL).
    """
    global _pool
    threads = _thread_count()
    if threads < 2 or len(starts) < 2 * threads:
        for lo in starts:
            run_block(lo)
        return
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="mtfr-stft"))
        pool = _pool[1]

    # numpy's error state is a context variable, which a worker thread does
    # not inherit: the workers take the caller's
    errstate = np.geterr()

    def run_share(share):
        with np.errstate(**errstate):
            for lo in share:
                run_block(lo)

    list(pool.map(run_share, [starts[i::threads] for i in range(threads)]))


def partial_stft_slice(
    f: SampledField, g: SampledField, k: int, x2_idx=(), w2_idx=()
) -> SampledField:
    """One (x2, omega2) cross-section of V^k_g f as a 2k-dim field (x1, omega1).

    x2 and omega2 are grid multi-indices into the trailing d-k axes (omega2
    is negated internally).  The cross-section is `partial_stft_grid` of f
    restricted to x2 and g restricted to -omega2, both k-dimensional, so it
    raises GridTooLarge before allocating a slice of more than MAX_ELEMENTS
    values.
    """
    _check_stft_args(f, g, k)
    if len(x2_idx) != f.n - k or len(w2_idx) != f.n - k:
        raise DimensionMismatch("slice indices must cover the trailing d-k axes")
    fs, gs = _window_slices(f.values, x2_idx, g.values, w2_idx, k)
    extents = f.extents[:k]
    return partial_stft_grid(SampledField(fs, extents), SampledField(gs, extents), k)


def partial_stft_grid(f: SampledField, g: SampledField, k: int) -> SampledField:
    """Full V^k_g f on the tensor grid, indexed (x1, x2, omega1, omega2).

    Computes the FFT over t of f(t, x2) conj(g(t - x1, -omega2)) for every
    grid shift x1: omega2 ranges over the (spatial) grid of the trailing
    axes, since the window is evaluated at the space point -omega2; omega1
    lives on the FFT-dual grid.  The integrand over every (x1, x2, t,
    omega2) is written once into a C-contiguous buffer and every t axis is
    transformed in place, so the peak memory is about one output.  The
    buffer is worked through in blocks of leading x1 rows of at most
    _BLOCK_BYTES: each block gets its product, then per t axis its FFT and
    its output-ramp times calibration multiply, while it is in cache.  The
    blocks share no data but the inputs, so they run on the thread pool of
    `_run_blocks`.  Every value goes through the same operations in the
    same order as in whole-buffer passes, so no bit changes.  The FFT's (-1)^j input ramps
    go on f before the product: they are signs, so no bit changes either.

    Every value and every FFT intermediate is at most ||f|| ||g|| times
    the calibration factors above 1 (Cauchy-Schwarz over each row of the
    integrand); when that bound is at most _FINITE_BOUND the result skips
    the constructor's finiteness scan, and otherwise it is scanned.
    """
    _check_stft_args(f, g, k)
    d = f.n
    size = int(np.prod(f.points)) ** 2
    if size > MAX_ELEMENTS:
        raise GridTooLarge(f"output would hold {size} elements")
    gc = np.conj(g.values)
    for a in range(k, d):  # the window is read at -omega2
        gc = np.take(gc, -np.arange(gc.shape[a]) % gc.shape[a], axis=a)
    fr = f.values
    for a in range(k):
        fr = fr * _ramp(fr.shape[a], a, d)
    # windows (x1, omega2, t) and f (t, x2) broadcast to (x1, x2, t, omega2)
    windows = np.expand_dims(
        np.moveaxis(_shift_views(gc, k), range(k, d), range(2 * k, d + k)),
        tuple(range(k, d)),
    )
    fr = np.expand_dims(
        np.moveaxis(fr, range(k), range(d - k, d)),
        tuple(range(k)) + tuple(range(d + k, 2 * d)),
    )
    buf = np.empty(np.broadcast_shapes(windows.shape, fr.shape), dtype=complex)
    cals = [
        _calibration(buf.shape[d + a], d + a, buf.ndim, t)
        for a, t in enumerate(f.extents[:k])
    ]
    rows = max(1, _BLOCK_BYTES // buf[0].nbytes)

    def run_block(lo):
        block = buf[lo : lo + rows]
        np.multiply(windows[lo : lo + rows], fr, out=block)
        for a, (factor, _) in enumerate(cals):
            np.fft.fft(block, axis=d + a, out=block)
            block *= factor

    _run_blocks(run_block, range(0, buf.shape[0], rows))
    extents = f.extents + tuple(t for _, t in cals) + f.extents[k:]
    # the bound of the docstring; a norm that overflows (to inf, or to nan
    # against a zero norm) fails the test silently
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.prod(
            [np.sqrt(np.vdot(v, v).real) for v in (f.values, g.values)]
            + [max(1.0, t / npts) for t, npts in zip(f.extents[:k], f.points[:k])]
        )
    if bound <= _FINITE_BOUND:
        return _bounded_field(buf, extents)
    return SampledField(buf, extents)


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


def tfr_grid(word: GeneratorWord, f: SampledField, g: SampledField) -> SampledField:
    """Metaplectic representation on the grid: the word applied to f (x) conj(g)."""
    if word.n != f.n + g.n:
        raise DimensionMismatch("word dimension must equal dim f + dim g")
    total = int(np.prod(f.points)) * int(np.prod(g.points))
    if total > MAX_ELEMENTS:
        raise GridTooLarge(f"tensor would hold {total} elements")
    big = np.multiply.outer(f.values, np.conj(g.values))
    field = SampledField(big, tuple(f.extents) + tuple(g.extents))
    return apply_word_grid(field, word)


# ---------------------------------------------------------------------------
# masses


def mass_outside(field: SampledField, region) -> float:
    """Fraction of the squared mass outside region = (lows, highs), per-axis bounds."""
    lows, highs = (np.broadcast_to(np.asarray(v, dtype=float), (field.n,)) for v in region)
    # the box is separable: one mask per axis, broadcast to the grid shape
    inside = np.ones((1,) * field.n, dtype=bool)
    for a in range(field.n):
        x = field.coords(a)
        shape = [1] * field.n
        shape[a] = x.size
        inside = inside & ((x >= lows[a]) & (x <= highs[a])).reshape(shape)
    dens = np.abs(field.values.ravel()) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[~inside.ravel()]) / total)
