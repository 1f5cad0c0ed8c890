"""FFT engine on centered uniform grids: the second, independent pipeline.

Fields are sampled on tensor grids t_j = -T/2 + j T/N per axis (N a power
of two).  Fourier letters use the centered FFT calibrated to the
continuous transform, so the discrete operator approximates the
continuous unitary rather than the raw DFT.  The calibration is done in
the write that feeds the FFT: the input takes (-1)^j T/N and is rolled by
N/2, which stands for the output's (-1)^j ramp since N/2 is even; the
half-period phase e^{-i pi N/2} is exactly 1 for N >= 8, so no pass
follows an FFT.  Whether a letter fits a field is the rule of a word,
`symplectic._check_fits`.  1-D dilations act by band-limited (spectral)
resampling, evaluated as a Bluestein chirp-z transform of the centered
spectrum in O(N log N) per line; in higher dimension only monomial
matrices (permutation x diagonal) are supported: each axis is resampled by
its diagonal entry, then the axes are permuted once, and everything else
is left to the Gaussian oracle path.  A diagonal entry of exactly +1 or -1
is an index map, the exact value of the band-limited interpolant: +1
leaves its axis as it is and -1 reverses it about the center, j ->
(N - j) mod N.  A chirp's phase x.Qx is summed term by term over the
per-axis coordinates, never over a stacked mesh, and its factor is the
cos and sin of that real phase.  The tables that depend on a point count
N alone (the (-1)^j ramp, the Bluestein and circular squares) are built
once per N up to 4096 points and kept read-only, so a letter costs about
its arithmetic.  The partial
STFT is one batched FFT over the window shifted to every grid point, run
in place on a single integrand buffer, block by block of leading rows so
that each block is built and transformed while it is in cache.  The
window's shifts over the trailing t axes are materialized once as a slab,
already rolled, holding only the N rows of the first t axis and the zero
rows a block reads beyond them; a block's product reads contiguous runs
of it, one multiply per half of the first t axis.  Its values are proven
finite by a bound on the inputs rather than by a scan.  The blocks are
independent: with at least 2 blocks per thread they run on the module's
one thread pool, of MTFR_THREADS threads (the usable CPUs when unset),
built on first use and dropped in a forked child; fewer run inline, so
small transforms start no thread.  Either way every value keeps its bits.
A slice is the transform of the fields restricted to one (x2, omega2)
cross-section.  Every tensor field f (x) conj(g) comes from `tfr_grid`,
under the same size guard, proven finite by max|f| max|g| when that bound
allows.  `mass_outside` sums |v|^2 over the box's complement directly,
slab by slab: the box is one index interval per axis, and each slab of
the complement is a view reduced in one pass, with no |v|^2 array or mask.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _thread_cap
from .errors import (
    ChirpAliasingWarning,
    DimensionMismatch,
    GridTooLarge,
    UnsupportedDilation,
)
from .gaussian import GeneralizedGaussian, evaluate
from .symplectic import Chirp, GeneratorWord, PartialFourier, _check_fits

MAX_ELEMENTS = 2**26
# partial_stft_grid builds and transforms its integrand in blocks of
# leading x1 rows of at most this many bytes (at least one row), so that
# each block is still in a core's L2 cache for every pass
_BLOCK_BYTES = 2**19
# the ufunc buffer size, in elements, under which partial_stft_grid runs its
# blocks: the least numpy accepts
_UFUNC_BUFSIZE = 16
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


def _check_grid(points: tuple, extents: tuple):
    """Raise DimensionMismatch unless (points, extents) is a valid grid."""
    if not points or len(points) != len(extents):
        raise DimensionMismatch("need one extent per axis, and at least one axis")
    if not all(0.0 < t < np.inf for t in extents):
        raise DimensionMismatch("extents must be finite and positive")
    for npts in points:
        if not _is_pow2(npts):
            raise DimensionMismatch("points per axis must be a power of two >= 8")


def _coords(npts: int, extent: float) -> np.ndarray:
    """The centered grid coordinates (j - N/2) T/N of one axis."""
    return (np.arange(npts) - npts // 2) * (extent / npts)


def _mesh(axes) -> np.ndarray:
    """The tensor grid of the 1-D coordinates axes, stacked: shape (sizes) + (n,)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


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
        _check_grid(v.shape, extents)
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
        return _coords(self.values.shape[axis], self.extents[axis])

    def cell_volume(self) -> float:
        return float(np.prod([self.spacing(a) for a in range(self.n)]))

    def mesh(self) -> np.ndarray:
        """Stacked grid coordinates, shape points + (n,)."""
        return _mesh([self.coords(a) for a in range(self.n)])


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
    """Sample a callable on the grid.

    fn takes the stacked coordinates, shape points + (n,), and returns one
    value per grid point, shape points; any other shape raises
    DimensionMismatch.
    """
    points = tuple(int(p) for p in points)
    extents = tuple(float(t) for t in extents)
    _check_grid(points, extents)
    values = np.asarray(fn(_mesh(map(_coords, points, extents))), dtype=complex)
    if values.shape != points:
        raise DimensionMismatch(
            f"sampled values have shape {values.shape}, the grid {points}"
        )
    return SampledField(values, extents)


def field_l2(field: SampledField) -> float:
    """l^2 norm calibrated to L^2: ||v||_2 * sqrt(cell volume)."""
    return float(np.linalg.norm(field.values.ravel()) * np.sqrt(field.cell_volume()))


# ---------------------------------------------------------------------------
# centered Fourier transform


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


class _SizeConstants:
    """The tables of the grid letters that depend on the point count N alone.

    Each table is built on first use and read-only.
    """

    def __init__(self, npts: int):
        self.npts = npts

    @cached_property
    def ramp(self) -> np.ndarray:
        """(-1)^j for j in [0, N)."""
        return _read_only((-1.0) ** np.arange(self.npts))

    @cached_property
    def squares(self) -> np.ndarray:
        """The Bluestein index squares (j - N/2)^2."""
        return _read_only(((np.arange(self.npts) - self.npts // 2) ** 2).astype(float))

    @cached_property
    def circular(self) -> np.ndarray:
        """m^2 for m in [-N, N), laid out circularly (length 2N)."""
        return _read_only(np.fft.fftfreq(2 * self.npts, 1.0 / (2 * self.npts)) ** 2)


# _size_constants keeps the tables of every point count up to this many,
# at most one entry per count: 32 N bytes each, under 256 KiB for all 10
# counts.  A larger count gets a new entry per call, whose tables live
# only as long as the expression that uses them.
_CONSTANTS_MAX_POINTS = 4096
_constants = {}


def _size_constants(npts: int) -> _SizeConstants:
    """The tables of point count npts, cached up to _CONSTANTS_MAX_POINTS."""
    consts = _constants.get(npts)
    if consts is None:
        consts = _SizeConstants(npts)
        if npts <= _CONSTANTS_MAX_POINTS:
            consts = _constants.setdefault(npts, consts)
    return consts


def _along(vector: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A view of vector shaped to broadcast along one axis of ndim."""
    shape = [1] * ndim
    shape[axis] = vector.size
    return vector.reshape(shape)


def _input_factor(npts: int, extent: float) -> np.ndarray:
    """(-1)^j T/N for j in [0, N): the factor a centered FFT's input takes.

    It reads the same from either end of a roll by N/2, since N/2 is even.
    """
    return _size_constants(npts).ramp * (extent / npts)


def _split(shape: tuple, axes) -> tuple:
    """shape with each of axes split into its two halves, (2, N/2)."""
    out = ()
    for a, npts in enumerate(shape):
        out += (2, npts // 2) if a in axes else (npts,)
    return out


def _swapped(arr: np.ndarray, axes) -> np.ndarray:
    """arr rolled by N/2 along each of axes, as one view of shape _split(arr.shape, axes).

    Each axis is split into its two halves, which change places.
    """
    index = ()
    for a in range(arr.ndim):
        index += (slice(None, None, -1), slice(None)) if a in axes else (slice(None),)
    return arr.reshape(_split(arr.shape, axes))[index]


def _centered_fft_axis(values: np.ndarray, axis: int, extent: float):
    """Continuous-FT approximation along one axis.

    The input times (-1)^j T/N, rolled by N/2, is written into a new buffer
    and the FFT runs there in place, with no pass after it: the roll stands
    for the output's (-1)^j ramp, and the half-period phase e^{-i pi N/2}
    is exactly 1 for N >= 8.  Returns (values, new extent); the input is
    left untouched.
    """
    npts = values.shape[axis]
    buf = np.empty(_split(values.shape, (axis,)), dtype=complex)
    factor = _input_factor(npts, extent).reshape(
        (2, npts // 2) + (1,) * (values.ndim - 1 - axis)
    )
    np.multiply(_swapped(values, (axis,)), factor, out=buf)
    buf = buf.reshape(values.shape)
    np.fft.fft(buf, axis=axis, out=buf)
    return buf, npts / extent


def _resample_axis(values: np.ndarray, axis: int, extent: float, scale: float):
    """Band-limited evaluation of f(x/scale) |scale|^{-1/2} on the same grid.

    With the centered spectrum F_p (p, q in [-N/2, N/2)), the value at
    x_q / scale is (1/T) sum_p F_p e^{2 pi i pq / (N scale)}.  Bluestein's
    identity pq = (p^2 + q^2 - (q - p)^2) / 2 turns that sum into the
    chirp-z form e^{i a q^2} sum_p (F_p e^{i a p^2}) e^{-i a (q - p)^2},
    a = pi / (N scale): one linear convolution, done by FFTs of length 2N,
    so the cost is O(N log N) per line along the axis.

    The FFTs run in place in one zero-padded buffer, the axis last; the
    result is a new C-contiguous array of values' shape.
    """
    npts = values.shape[axis]
    alpha = np.pi / (npts * scale)
    # each table is looked up where it is used, so that an uncached one
    # lives no longer than its expression
    chirp = np.exp(1j * alpha * _size_constants(npts).squares)
    # e^{-i a m^2} for m in [-N, N), laid out circularly; q - p never
    # reaches m = -N
    kernel = -1j * alpha * _size_constants(npts).circular
    np.exp(kernel, out=kernel)
    np.fft.fft(kernel, out=kernel)
    last = values.ndim - 1
    moved = values if axis == last else np.moveaxis(values, axis, -1)
    lead = moved.shape[:-1]
    # the zero-padded lines in quarters of N/2: the first two take the
    # centered FFT's input, as in _centered_fft_axis
    buf = np.zeros(lead + (4, npts // 2), dtype=complex)
    np.multiply(
        _swapped(moved, (last,)),
        _input_factor(npts, extent).reshape(2, npts // 2),
        out=buf[..., :2, :],
    )
    buf = buf.reshape(lead + (2 * npts,))
    head = buf[..., :npts]
    np.fft.fft(head, out=head)  # the centered spectrum
    head *= chirp
    np.fft.fft(buf, out=buf)
    buf *= kernel
    del kernel
    np.fft.ifft(buf, out=buf)
    chirp /= extent * np.sqrt(abs(scale))
    out = np.empty(values.shape, dtype=complex)
    np.multiply(head, chirp, out=out if axis == last else np.moveaxis(out, axis, -1))
    return out


def _reflect_axis(values: np.ndarray, axis: int) -> np.ndarray:
    """values at -x along one axis: index j -> (N - j) mod N, a new C-contiguous array.

    -x_j is the node x_{N-j}, and x_0 = -T/2 is its own image modulo the
    period T, so this is the band-limited interpolant at -x exactly: the
    dilation by -1, which _resample_axis reproduces only to rounding.
    """
    out = np.empty(values.shape, dtype=complex)
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    dst[0] = src[0]
    dst[1:] = src[:0:-1]
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


def _quadratic_form(coords, q: np.ndarray, shape) -> np.ndarray:
    """sum_ij x_i q_ij x_j of coordinates coords[i] that broadcast to shape.

    Term by term in (i, j) order, each term (x_i q_ij) x_j: the order and
    bits of einsum's "...i,ij,...j" over the stacked coordinates (for at
    least 8 points), without stacking them.  An overflow gives inf or nan
    silently, as there.
    """
    quad = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in np.ndindex(q.shape):
            quad += (coords[i] * q[i, j]) * coords[j]
    return quad


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
    """Discrete approximation of one metaplectic generator that fits the field."""
    _check_fits(letter, field.n)
    if isinstance(letter, Chirp):
        _chirp_alias_check(letter.q, field)
        coords = [_along(field.coords(a), a, field.n) for a in range(field.n)]
        phase = _quadratic_form(coords, letter.q, field.points)
        phase *= np.pi
        # e^{i phase} as the cos and sin of the real phase, written into the
        # halves of one complex buffer: cheaper than the complex exp of
        # i phase, and its bits on every pinned case
        factor = np.empty(field.points, dtype=complex)
        np.cos(phase, out=factor.real)
        np.sin(phase, out=factor.imag)
        return SampledField(np.multiply(field.values, factor, out=factor), field.extents)
    if isinstance(letter, PartialFourier):
        values = field.values
        extents = list(field.extents)
        for ax in letter.axes:
            values, extents[ax] = _centered_fft_axis(values, ax, extents[ax])
        return SampledField(values, tuple(extents))
    # a dilation L = P diag(d): f1 is each axis resampled by its entry of d,
    # and result(x) = f1(P^t x): axis a of the output reads axis source[a]
    # of f1, where source[a] is the column with its nonzero in row a
    rows, diag = _monomial_decompose(letter.l)
    source = [0] * field.n
    for col, row in enumerate(rows):
        source[row] = col
    values = field.values
    for ax in range(field.n):
        if diag[ax] == -1.0:
            values = _reflect_axis(values, ax)
        elif diag[ax] != 1.0:
            values = _resample_axis(values, ax, field.extents[ax], diag[ax])
    if source != list(range(field.n)):
        values = np.ascontiguousarray(np.transpose(values, source))
    return SampledField(values, tuple(field.extents[s] for s in source))


def apply_word_grid(field: SampledField, word: GeneratorWord) -> SampledField:
    if word.n != field.n:
        raise DimensionMismatch("word dimension does not match field")
    for letter in reversed(word.letters):
        field = apply_letter_grid(field, letter)
    return field


# ---------------------------------------------------------------------------
# partial short-time Fourier transform


def _check_indices(idx, points, what: str) -> tuple:
    """idx as a tuple of one integer in [0, N) per axis of points, else DimensionMismatch."""
    idx = tuple(idx)
    if len(idx) != len(points) or not all(
        isinstance(i, (int, np.integer)) and 0 <= i < npts for i, npts in zip(idx, points)
    ):
        raise DimensionMismatch(f"{what} must be one index in [0, N) per axis, got {idx!r}")
    return idx


def _window_slices(f_values, x2_idx, g_values, w2_idx, k):
    """Restrict f and g to the slice (x2, -omega2) of their trailing axes."""
    x2_idx = _check_indices(x2_idx, f_values.shape[k:], "x2")
    w2_idx = _check_indices(w2_idx, g_values.shape[k:], "omega2")
    fs = f_values[(slice(None),) * k + x2_idx]
    neg = tuple(-i % npts for i, npts in zip(w2_idx, g_values.shape[k:]))
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


def _window_slab(gc: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Every shift of the window gc over its trailing k - 1 t axes, materialized.

    Returns an array indexed (l', r, j', rest of gc's axes), where l' and j'
    are a shift and a point of the t axes 1..k-1 and r a row of t axis 0:
    slab[l', pad + r, j', ...] = gc[r, u - l' + N/2, ...] with
    u = (j' + N/2) mod N, zero outside the grid, so every j' axis is already
    rolled by N/2.  Only the N rows of axis 0 are held, with pad zero rows
    on either side; for k = 1 the slab is gc between its pad rows.
    """
    npts = gc.shape[:k]
    d = gc.ndim
    padded = np.pad(
        gc, [(pad, pad)] + [(n // 2, n // 2) for n in npts[1:]] + [(0, 0)] * (d - k)
    )
    # the window at shift l starts at padded index N - l, so reversing the
    # window-start axes lists every shift
    view = sliding_window_view(padded, npts[1:], axis=tuple(range(1, k)))
    view = view[(slice(None),) + (slice(None, 0, -1),) * (k - 1)]
    view = np.moveaxis(
        view, [*range(1, k), 0, *range(d, d + k - 1)], range(2 * k - 1)
    )
    rolled = tuple(range(k, 2 * k - 1))
    slab = np.empty(_split(view.shape, rolled), dtype=complex)
    np.copyto(slab, _swapped(view, rolled))
    return slab.reshape(view.shape)


def _thread_count() -> int:
    """MTFR_THREADS when set, else the CPUs this process may run on.

    A value that is not a positive integer raises MtfrError (`mtfr._thread_cap`).
    """
    threads = _thread_cap()
    if threads is not None:
        return threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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

    # numpy's error state and ufunc buffer size are a context variable,
    # which a worker thread does not inherit: the workers take the caller's
    errstate, bufsize = np.geterr(), np.getbufsize()

    def run_share(share):
        with np.errstate(**errstate):
            np.setbufsize(bufsize)
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
    transformed in place, so the peak memory is about one output.  Each t
    axis is calibrated in that write, as in _centered_fft_axis: f takes
    (-1)^t T/N per t axis and both factors are rolled by N/2, so no pass
    follows an FFT.

    The window's shifts over the trailing t axes come from `_window_slab`,
    and a shift x1_0 of the first t axis reads each half of that axis as
    one run of the slab's rows, so a product reads contiguous runs.  The
    buffer is worked through in blocks of leading x1 rows of at most
    _BLOCK_BYTES: each block gets its product, one multiply per half of the
    first t axis, then per t axis its FFT, while it is in cache.  The slab
    holds as many zero rows beyond the grid on either side as the rows of
    a block less one (at most N/2), which covers every row a block reads
    for some of its shifts; the part of a half that every shift of the
    block moves off the grid is f times zero, as in the full product.  The
    blocks share no data but the inputs, so they run on the thread pool of
    `_run_blocks`.  Every value goes through the same operations in the
    same order as in whole-buffer passes, so no bit depends on the blocks
    or the threads.

    Every value and every FFT intermediate is at most ||f|| max(1, ||g||)
    times the factors T/N above 1 (Cauchy-Schwarz over each row of the
    integrand; f times its factors is the one intermediate without g);
    when that bound is at most _FINITE_BOUND the result skips the
    constructor's finiteness scan, and otherwise it is scanned.
    """
    _check_stft_args(f, g, k)
    d = f.n
    size = int(np.prod(f.points)) ** 2
    if size > MAX_ELEMENTS:
        raise GridTooLarge(f"output would hold {size} elements")
    npts = f.points[:k]
    gc = np.conj(g.values)
    for a in range(k, d):  # the window is read at -omega2
        gc = np.take(gc, -np.arange(gc.shape[a]) % gc.shape[a], axis=a)
    # f (t, x2) as (x2, t), times its factors and rolled along every t axis
    fr = np.moveaxis(f.values, range(k), range(d - k, d))
    t_axes = tuple(range(d - k, d))
    factor = _along(_input_factor(npts[0], f.extents[0]), d - k, d)
    for a in range(1, k):
        factor = factor * _along(_input_factor(npts[a], f.extents[a]), d - k + a, d)
    fr_rolled = np.empty(_split(fr.shape, t_axes), dtype=complex)
    np.multiply(
        _swapped(fr, t_axes), factor.reshape(_split(factor.shape, t_axes)), out=fr_rolled
    )
    fr_rolled = fr_rolled.reshape(fr.shape)
    # buffer axes (x1, x2, t, omega2); f broadcasts over x1 and omega2
    fr_rolled = np.expand_dims(fr_rolled, tuple(range(k)) + tuple(range(d + k, 2 * d)))
    buf = np.empty(npts + f.points[k:] + npts + f.points[k:], dtype=complex)
    rows = max(1, _BLOCK_BYTES // buf[0].nbytes)
    half = npts[0] // 2
    pad = min(rows - 1, half)
    # windows[s, x1', x2, m, t', omega2] = slab row s + m, the x2 axes broadcast
    windows = sliding_window_view(_window_slab(gc, k, pad), half, axis=k - 1)
    windows = np.expand_dims(
        np.moveaxis(windows, [k - 1, windows.ndim - 1], [0, k]), tuple(range(k, d))
    )
    at_t = (slice(None),) * d  # the index prefix up to the first t axis

    def run_block(lo):
        hi = min(lo + rows, npts[0])
        block = buf[lo:hi]
        # the first t axis at j reads the window at t = j + N/2 (mod N), that
        # is padded slab row j + N + pad - x1 in the first half and
        # j + pad - x1 in the second; j in [first, second) is off the grid
        # for every x1 of the block
        first, second = min(half, hi - 1), max(half, lo)
        for j0, j1, base, window in (
            (0, first, half + pad + first, slice(half - first, None)),
            (second, 2 * half, pad + second, slice(None, 2 * half - second)),
        ):
            if j0 < j1:
                starts = slice(base - lo, base - hi if base >= hi else None, -1)
                np.multiply(
                    windows[(starts,) + at_t[1:] + (window,)],
                    fr_rolled[at_t + (slice(j0, j1),)],
                    out=block[at_t + (slice(j0, j1),)],
                )
        if first < second:
            off = at_t + (slice(first, second),)
            np.multiply(fr_rolled[off], 0j, out=block[off])
        for a in range(k):
            np.fft.fft(block, axis=d + a, out=block)

    with np.errstate():
        # no operand of the kernel's ufuncs is cast, so they need no buffer:
        # at numpy's default size a multiply with a strided operand takes
        # 128 KiB per such operand and per thread
        np.setbufsize(_UFUNC_BUFSIZE)
        _run_blocks(run_block, range(0, npts[0], rows))
    extents = f.extents + tuple(n / t for n, t in zip(npts, f.extents)) + f.extents[k:]
    # the bound of the docstring; a norm that overflows (to inf, or to nan
    # against a zero norm) fails the test silently
    with np.errstate(over="ignore", invalid="ignore"):
        norm_f, norm_g = (np.sqrt(np.vdot(v, v).real) for v in (f.values, g.values))
        bound = np.prod(
            [norm_f, max(1.0, norm_g)]
            + [max(1.0, t / n) for t, n in zip(f.extents[:k], npts)]
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
    _check_stft_args(f, g, k)
    x1_idx = _check_indices(x1_idx, f.points[:k], "x1")
    fs, gs = _window_slices(f.values, x2_idx, g.values, w2_idx, k)
    win = _shifted_window(gs, x1_idx)
    w1 = np.asarray(w1, dtype=float).reshape(k)
    phase = np.zeros(fs.shape)
    for a in range(k):
        phase = phase + _along(f.coords(a) * w1[a], a, k)
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
    extents = tuple(f.extents) + tuple(g.extents)
    # each |f_i g_j| <= max|f| max|g|, so a bound at most _FINITE_BOUND proves
    # the tensor finite; one that overflows (to inf, or to nan against a
    # zero field) fails the test silently and the tensor is scanned
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.abs(f.values).max() * np.abs(g.values).max()
    if bound <= _FINITE_BOUND:
        field = _bounded_field(big, extents)
    else:
        field = SampledField(big, extents)
    return apply_word_grid(field, word)


# ---------------------------------------------------------------------------
# masses


def _squared_norm(v: np.ndarray) -> float:
    """sum |v|^2 of a complex array whose last axis is contiguous, copying nothing.

    A C-contiguous array takes one BLAS dot; any other is one einsum
    reduction over its float view (vdot would copy it first).
    """
    if v.flags.c_contiguous:
        return float(np.vdot(v, v).real)
    r = v.view(np.float64)
    axes = list(range(r.ndim))
    return float(np.einsum(r, axes, r, axes, []))


def mass_outside(field: SampledField, region) -> float:
    """Fraction of the squared mass outside region = (lows, highs), per-axis bounds.

    Each bound is a scalar for every axis or one value per axis, and none
    is NaN (else DimensionMismatch); a box with a low above its high is
    empty, so all of the mass lies outside it.

    The coordinates are monotone, so the box's nodes on axis a are one
    index interval [lo_a, hi_a).  The outside is summed directly, never as
    the total less the inside (a counterexample's outside is 1e-29 of its
    total or less): it is the union over a of the slabs inside the box on
    the axes before a and outside it on axis a, and each slab is a view
    whose squared norm is one reduction, with no |v|^2 array or mask.
    """
    lows, highs = (np.asarray(v, dtype=float) for v in region)
    for bound in (lows, highs):
        if bound.shape not in ((), (1,), (field.n,)):
            raise DimensionMismatch(
                f"region bounds of shape {bound.shape} do not fit a {field.n}-axis field"
            )
        if np.isnan(bound).any():
            raise DimensionMismatch("region bounds must not be NaN")
    lows, highs = (np.broadcast_to(v, (field.n,)) for v in (lows, highs))
    # a C-contiguous array (a copy only for another layout), so that every
    # slab's last axis is contiguous
    values = np.ascontiguousarray(field.values)
    outside = 0.0
    box = ()  # the box's index intervals on the axes before a
    for a in range(field.n):
        x = field.coords(a)
        lo = int(np.searchsorted(x, lows[a], side="left"))
        # an empty interval (hi = lo) puts all of axis a outside
        hi = max(lo, int(np.searchsorted(x, highs[a], side="right")))
        for part in (slice(0, lo), slice(hi, None)):
            outside += _squared_norm(values[box + (part,)])
        box += (slice(lo, hi),)
    total = outside + _squared_norm(values[box])
    if total == 0.0:
        return 0.0
    return outside / total
