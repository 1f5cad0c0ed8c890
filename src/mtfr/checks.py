"""Numerical evaluators for uncertainty-principle hypotheses.

Truncated weighted integrals cannot prove divergence; every sweep records
its decision rule and reports a trend verdict (convergent-looking,
divergent-looking, inconclusive).  The Hardy fit is an honest regression,
the Nazarov bound is plain arithmetic with an explicit constant, and the
shapes are restricted to boxes, balls, and their linear images so volumes
and mean widths stay computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    DimensionMismatch,
    GridTooLarge,
    NumericalFailure,
    Singular,
    UnsupportedShape,
)
from .grid import MAX_ELEMENTS, SampledField, _mesh, _quadratic_form
from .symplectic import _near_singular, _singular_values

GROWTH_TOL = 0.2
CONVERGENT_TOL = 0.05
VALUE_FLOOR = 1e-300

__all__ = [
    "Box",
    "Ball",
    "LinearImage",
    "contains",
    "volume",
    "mean_width",
    "nc_constant",
    "UPReport",
    "beurling_weight",
    "gelfand_shilov_weight",
    "beurling_sweep",
    "HardyFit",
    "hardy_fit",
    "hardy_fit_field",
    "gelfand_shilov_sweep",
    "NazarovReport",
    "nazarov_bound",
    "complement_integral",
    "cross_section_sweep",
    "CrossSectionReport",
]


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Box:
    center: tuple
    halfwidths: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(
            self, "halfwidths", tuple(float(h) for h in self.halfwidths)
        )
        if len(self.center) != len(self.halfwidths):
            raise DimensionMismatch("box center and halfwidths disagree")
        if any(h <= 0 for h in self.halfwidths):
            raise UnsupportedShape("box halfwidths must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise UnsupportedShape("ball radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class LinearImage:
    """Image A(S) of a base shape under an invertible matrix."""

    base: object
    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.shape != (self.base.dim, self.base.dim):
            raise DimensionMismatch("linear map does not match shape dimension")
        # numerically singular, sigma_min <= eps sigma_max: scale-free, so a
        # map and its inverse are judged alike (README, Tolerances)
        sv = _singular_values(a, "linear map")
        if not sv[-1] > np.finfo(float).eps * sv[0]:
            raise Singular("linear image of a shape needs an invertible map")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.base.dim


def contains(shape, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(shape, Box):
        c = np.asarray(shape.center)
        h = np.asarray(shape.halfwidths)
        return np.all(np.abs(points - c) <= h, axis=-1)
    if isinstance(shape, Ball):
        c = np.asarray(shape.center)
        return np.linalg.norm(points - c, axis=-1) <= shape.radius
    if isinstance(shape, LinearImage):
        pre = points @ np.linalg.inv(shape.matrix).T
        return contains(shape.base, pre)
    raise UnsupportedShape(f"unknown shape {shape!r}")


def volume(shape) -> float:
    if isinstance(shape, Box):
        return float(np.prod([2.0 * h for h in shape.halfwidths]))
    if isinstance(shape, Ball):
        d = shape.dim
        unit = np.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return float(unit * shape.radius**d)
    if isinstance(shape, LinearImage):
        return abs(np.linalg.det(shape.matrix)) * volume(shape.base)
    raise UnsupportedShape(f"unknown shape {shape!r}")


def _support_function(shape, directions: np.ndarray) -> np.ndarray:
    """h_S(u) = sup_{x in S} u.x for unit directions u, vectorized."""
    if isinstance(shape, Box):
        c = np.asarray(shape.center)
        h = np.asarray(shape.halfwidths)
        return directions @ c + np.abs(directions) @ h
    if isinstance(shape, Ball):
        return directions @ np.asarray(shape.center) + shape.radius
    if isinstance(shape, LinearImage):
        return _support_function(shape.base, directions @ shape.matrix)
    raise UnsupportedShape(f"unknown shape {shape!r}")


def mean_width(shape, samples: int = 10**6, seed: int = 0):
    """Mean width and Monte Carlo standard error.

    Exact with zero error for balls without a linear map (width 2r in
    every direction) and for every shape in one dimension, whose unit
    sphere is {+1, -1}; otherwise a seeded Monte Carlo average of
    h(u) + h(-u) over uniform directions.
    """
    if isinstance(shape, Ball):
        return 2.0 * shape.radius, 0.0
    d = shape.dim
    if d == 1:
        h = _support_function(shape, np.array([[1.0], [-1.0]]))
        return float(h[0] + h[1]), 0.0
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(samples, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    widths = _support_function(shape, u) + _support_function(shape, -u)
    return float(np.mean(widths)), float(np.std(widths) / np.sqrt(samples))


def nc_constant(s_shape, t_shape, c: float = 1.0):
    """Nazarov constant C e^{C min(|S||T|, |S|^{1/d} w(T), |T|^{1/d} w(S))}.

    Returns (value, exponent_term, details); C is always explicit because
    the underlying inequality only provides an absolute constant.
    """
    d = s_shape.dim
    vol_s, vol_t = volume(s_shape), volume(t_shape)
    w_s, _ = mean_width(s_shape, seed=0)
    w_t, _ = mean_width(t_shape, seed=1)
    terms = (vol_s * vol_t, vol_s ** (1.0 / d) * w_t, vol_t ** (1.0 / d) * w_s)
    m = float(min(terms))
    details = {
        "vol_s": vol_s,
        "vol_t": vol_t,
        "width_s": w_s,
        "width_t": w_t,
        "terms": terms,
    }
    return float(c * np.exp(c * m)), m, details


# ---------------------------------------------------------------------------
# sweeps


def _increasing_radii(radii) -> tuple:
    """The radii as floats; raises DimensionMismatch unless they strictly increase."""
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DimensionMismatch("sweep radii must be strictly increasing")
    return radii


@dataclass(frozen=True)
class UPReport:
    condition: str
    parameters: dict
    sweep: tuple  # ((radius, value), ...)
    ratios: tuple
    verdict: str
    rule: str

    def __post_init__(self):
        _increasing_radii(r for r, _ in self.sweep)
        sweeps = (self.sweep, self.parameters.get("sweep_omega", ()))
        if not all(0.0 <= v < math.inf for sweep in sweeps for _, v in sweep):
            raise DimensionMismatch("sweep values must be finite and nonnegative")


_RULE = (
    "divergent-looking if the last three ratios I(R_{j+1})/I(R_j) all exceed "
    f"1+{GROWTH_TOL}; convergent-looking if they all stay below "
    f"1+{CONVERGENT_TOL}; inconclusive otherwise"
)


# nodes per evaluator and weight call (and per block of Hardy radii):
# enough that the per-call cost does not show, few enough that a call's
# temporaries stay small beside the node-length integrands
_BLOCK = 8192
# the room a partial sum of squares leaves is measured against R^2 (1 + 2^-40),
# a margin above the rounding of any order of summation
_MARGIN = 1.0 + 2.0**-40


def _fit(sq: np.ndarray, part: np.ndarray, bound: float):
    """first, count: for each partial sum, the run of indices j with sq[j] <= bound - part.

    sq holds the squares of a monotone axis, which fall and then rise, so
    the indices form one run.  A nan bound keeps no index and an inf one
    every index (inf - inf is nan, which sorts last).
    """
    low = int(np.argmin(sq))
    room = np.where(part <= bound, bound - part, -1.0)
    first = low - np.searchsorted(sq[:low][::-1], room, side="right")
    count = low + np.searchsorted(sq[low:], room, side="right") - first
    return first, count


def _run_indices(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices first[p] .. first[p] + count[p] - 1 of every run p, run after run."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)


def _trim(axis, head, first, count, r2max: float) -> None:
    """Shrink each run, in place, until its end nodes pass einsum's r2 <= r2max.

    A node's r2 grows with the square of its last coordinate, so a run
    whose ends pass passes as a whole.
    """
    for end in ("first", "last"):
        while True:
            live = np.flatnonzero(count)
            j = first[live] if end == "first" else first[live] + count[live] - 1
            tip = np.column_stack([head[live], axis[j]])
            out = live[~(np.einsum("ij,ij->i", tip, tip) <= r2max)]
            if not len(out):
                break
            count[out] -= 1
            if end == "first":
                first[out] += 1


def _ball_nodes(dim: int, radii: tuple, resolution: int):
    """The midpoint nodes of [-R, R]^dim in the closed ball of the largest radius R.

    Returns the node count, the cell volume, one node mask per smaller
    radius r (r2 <= r^2) and a generator of node blocks (rows, nodes) in the
    cube's C order.  r2 is einsum's "ij,ij->i", so the masks are those of
    the full cube's nodes.  A block holds _BLOCK nodes; the last one takes
    in a remainder below 8, so no block but a lone one holds fewer than 8.

    No array grows with the cube, and no r2 is kept per node.  Prefixes of
    the leading dim - 1 coordinates grow axis by axis, each keeping the
    indices that fit in the room it leaves (`_fit`); each ball is then one
    trimmed run of last-axis indices per prefix (`_trim`).  More than
    MAX_ELEMENTS cube nodes raise GridTooLarge before anything is allocated.
    """
    if int(resolution) ** int(dim) > MAX_ELEMENTS:
        raise GridTooLarge(f"{resolution}^{dim} nodes exceed {MAX_ELEMENTS}")
    if dim < 1:
        raise DimensionMismatch("a ball needs at least one dimension")
    rmax = radii[-1]
    h = 2.0 * rmax / resolution
    axis = -rmax + h * (np.arange(resolution) + 0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # as einsum's r2 overflows
        sq = axis * axis
        head, part = np.empty((1, 0)), np.zeros(1)
        for _ in range(dim - 1):
            first, count = _fit(sq, part, rmax * rmax * _MARGIN)
            prefix = np.repeat(np.arange(len(part)), count)
            j = _run_indices(first, count)
            head = np.column_stack([head[prefix], axis[j]])
            part = part[prefix] + sq[j]
        runs = []
        for r in radii:
            first, count = _fit(sq, part, r * r * _MARGIN)
            _trim(axis, head, first, count, r * r)
            runs.append((first, count))
    first, count = runs.pop()
    keep = count > 0
    head, first, count = head[keep], first[keep], count[keep]
    masks = []
    for first_r, count_r in runs:
        first_r, count_r = first_r[keep], count_r[keep]
        # each prefix's run splits into nodes before, inside and after the smaller ball
        before = np.where(count_r > 0, first_r - first, 0)
        spans = np.column_stack([before, count_r, count - before - count_r])
        masks.append(np.repeat(np.tile([False, True, False], len(count)), spans.ravel()))
    ends = np.cumsum(count)
    n = int(ends[-1]) if len(ends) else 0
    edges = list(range(0, n, _BLOCK)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] < 8:
        del edges[-2]

    def blocks():
        for start, stop in zip(edges, edges[1:]):
            p0 = int(np.searchsorted(ends, start, side="right"))
            p1 = int(np.searchsorted(ends, stop - 1, side="right")) + 1
            # the block's share of each run it meets: the first and last may be cut
            skip = start - (ends[p0] - count[p0])
            c, f = count[p0:p1].copy(), first[p0:p1].copy()
            c[0] -= skip
            f[0] += skip
            c[-1] -= ends[p1 - 1] - stop
            nodes = np.empty((stop - start, dim))
            nodes[:, :-1] = np.repeat(head[p0:p1], c, axis=0)
            nodes[:, -1] = axis[_run_indices(f, c)]
            yield slice(start, stop), nodes

    return n, h**dim, masks, blocks()


def beurling_weight(m: np.ndarray, n_exponent: float):
    """lambda -> e^{pi |lambda.M lambda|} / (1 + ||lambda||)^N."""
    m = np.asarray(m, dtype=float)

    def weight(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if m.shape != (pts.shape[-1],) * 2:
            raise DimensionMismatch("weight matrix does not match the point dimension")
        if pts.size < 8 * pts.shape[-1]:
            # a handful of points: einsum orders its sum differently here
            # (dim 2, one or two points), and its cost does not matter
            quad = np.einsum("...i,ij,...j->...", pts, m, pts)
        else:
            # term by term: einsum's bits at a third of its time
            coords = [pts[..., i] for i in range(pts.shape[-1])]
            quad = _quadratic_form(coords, m, pts.shape[:-1])
        quad = np.abs(quad)
        if n_exponent == 0:
            # (1 + ||lambda||)^0 is exactly 1, nan and inf included, and
            # dividing by 1.0 is exact
            return np.exp(np.pi * quad)
        return np.exp(np.pi * quad) / (1.0 + np.linalg.norm(pts, axis=-1)) ** n_exponent

    return weight


def gelfand_shilov_weight(p: float, coeff: float, half: int, part: str):
    """Super-exponential weight on one phase-space half.

    part "x": e^{(pi/p) (coeff ||x||_p)^p} on the first `half` coordinates;
    part "omega": the same expression with the conjugate exponent on the
    last `half` coordinates.
    """
    if part not in ("x", "omega"):
        raise DimensionMismatch("part must be 'x' or 'omega'")
    expo = p if part == "x" else p / (p - 1.0)

    def weight(pts: np.ndarray) -> np.ndarray:
        block = pts[..., :half] if part == "x" else pts[..., half:]
        norm = np.linalg.norm(coeff * block, ord=expo, axis=-1)
        return np.exp(np.pi / expo * norm**expo)

    return weight


def _ball_masks(r2, radii) -> list:
    """One node mask r2 <= R^2 per radius, shared by every weight of a sweep."""
    return [r2 <= r * r for r in radii]


def _ball_sums(integrand, masks, cell: float, jac: float = 1.0) -> np.ndarray:
    """Midpoint sums of integrand over each ball mask, one row per mask.

    The node axis is the last one; every leading index is a sweep of its
    own, summed exactly as it would be alone: `np.compress` gathers the
    kept nodes into one contiguous run per sweep.  A None mask keeps every
    node of a contiguous integrand, which is then summed as it is: the
    same values in the same order as its compressed copy.
    """
    return np.array(
        [np.sum(integrand if mask is None else np.compress(mask, integrand, axis=-1),
                axis=-1) * cell * jac
         for mask in masks]
    )


def _ratios(values: np.ndarray) -> np.ndarray:
    """I(R_{j+1}) / I(R_j) down the first axis; 0/0 counts as 1 and b/0 as inf."""
    a, b = values[:-1], values[1:]
    with np.errstate(all="ignore"):
        return np.where(a > 0.0, b / a, np.where(b == 0.0, 1.0, np.inf))


def _verdicts(ratios: np.ndarray) -> np.ndarray:
    """The _RULE verdict of each sweep from its last three ratios (first axis)."""
    last = ratios[-3:]
    some = len(last) > 0
    divergent = np.all(last >= 1.0 + GROWTH_TOL, axis=0) & some
    convergent = np.all(last <= 1.0 + CONVERGENT_TOL, axis=0) & some
    return np.where(
        divergent,
        "divergent-looking",
        np.where(convergent, "convergent-looking", "inconclusive"),
    )


def _truncated_sweeps(evaluator, weights, radii, dim, resolution, point_transform=None):
    """One (sweep, ratios, verdict) per weight from one pass over the nodes.

    The evaluator and the weights run block by block (`_ball_nodes`) on the
    midpoint nodes of [-R, R]^dim inside the ball of the largest radius R,
    so they must act node by node.  What outlives a block is one
    node-length integrand per weight and one mask per smaller radius; each
    weight then takes the same masked sums and ratio rule.
    """
    radii = _increasing_radii(radii)
    jac = 1.0
    if point_transform is not None:
        t = np.asarray(point_transform, dtype=float)
        if t.shape != (dim, dim):
            raise DimensionMismatch(f"point_transform must be {dim} x {dim}, got {t.shape}")
        if _near_singular(_singular_values(t, "point_transform")):
            raise Singular("point_transform must be invertible")
        jac = abs(np.linalg.det(t))
    n, cell, masks, blocks = _ball_nodes(dim, radii, resolution)
    # one allocation for every weight's integrand: freed, this block is big
    # enough that glibc's malloc raises its mmap and trim thresholds above
    # it, so the next commands in a process reuse pages instead of faulting
    # them in again (with one array per weight, `check hardy` took ~600
    # page faults a run in a `cli_session` period, and none with this)
    integrands = np.empty((len(weights), n))
    for rows, nodes in blocks:
        pts = nodes if point_transform is None else nodes @ t.T
        modulus = np.asarray(evaluator(pts), dtype=float)
        for weight, integrand in zip(weights, integrands):
            np.multiply(np.asarray(weight(pts), dtype=float), modulus, out=integrand[rows])
    sweeps = []
    for integrand in integrands:
        # every node lies in the largest ball: its sum needs no mask
        values = _ball_sums(integrand, masks + [None], cell, jac)
        ratios = _ratios(values)
        sweep = tuple(zip(radii, values.tolist()))
        sweeps.append((sweep, tuple(ratios.tolist()), str(_verdicts(ratios))))
    return sweeps


def beurling_sweep(
    evaluator,
    m: np.ndarray,
    n_exponent: float,
    radii,
    dim: int = 2,
    resolution: int = 512,
    point_transform=None,
) -> UPReport:
    """Truncated integrals of |W| e^{pi |lambda.M lambda|} (1+||lambda||)^{-N}.

    The integrals run over balls ||lambda|| <= R by midpoint sums; an
    optional point_transform T integrates over T(ball) instead, with nodes
    T lambda and the |det T| Jacobian, which is how a linear change of
    variables is expressed without re-gridding.
    """
    ((sweep, ratios, verdict),) = _truncated_sweeps(
        evaluator, (beurling_weight(m, n_exponent),), radii, dim, resolution,
        point_transform,
    )
    return UPReport(
        condition="beurling",
        parameters={"N": float(n_exponent), "M": np.asarray(m).tolist()},
        sweep=sweep,
        ratios=ratios,
        verdict=verdict,
        rule=_RULE,
    )


# ---------------------------------------------------------------------------
# Hardy fit


@dataclass(frozen=True)
class HardyFit:
    alpha: float
    n_hat: float
    log_c: float
    residual: float


def hardy_fit(points: np.ndarray, values: np.ndarray, omega=None) -> HardyFit:
    """Least-squares decay fit log|W| ~ log c + N log||l|| - pi a ||O^-1 l||^2 / 2.

    The polynomial-degree feature is log||lambda|| on an annulus away from
    the origin: it matches (1+||lambda||)^N at large radius and, unlike
    log(1+||lambda||), recovers the exact degree of polynomial-times-
    Gaussian data.  Values are floored at 1e-300 before taking logs.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float).reshape(-1)
    if points.shape[0] != values.size:
        raise DimensionMismatch("points and values disagree")
    if omega is None:
        omega = np.eye(points.shape[1])
    omega = np.asarray(omega, dtype=float)
    keep = values > VALUE_FLOOR
    if not np.any(keep):
        raise DegenerateFit("all samples below the value floor")
    points, values = np.compress(keep, points, axis=0), np.compress(keep, values)
    r = np.linalg.norm(points, axis=1)
    if np.any(r <= 0.0):
        raise DegenerateFit("samples at the origin cannot enter the radial fit")
    scaled = points @ np.linalg.inv(omega).T
    y = np.log(values)
    design = np.column_stack(
        [
            np.ones_like(r),
            np.log(r),
            -0.5 * np.pi * np.einsum("ij,ij->i", scaled, scaled),
        ]
    )
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise DegenerateFit("rank-deficient design (degenerate sample geometry)")
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return HardyFit(alpha=float(coef[2]), n_hat=float(coef[1]), log_c=float(coef[0]),
                    residual=resid)


def _norm_order_sum(terms):
    """The sum of terms in the order np.linalg.norm's add.reduce adds a row of them.

    Below 8 terms that is axis order; 8, the most axes a field can have
    (8 points each at least, MAX_ELEMENTS in all), are summed as a
    pairwise tree.
    """
    if len(terms) == 8:
        t = terms
        return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def hardy_fit_field(
    field: SampledField, omega=None, rmin: float = 1.5, rmax: float = 4.0
) -> HardyFit:
    """Hardy fit on all grid points of a field inside an annulus.

    A node's radius is the root of its squared coordinates summed as
    np.linalg.norm sums them (`_norm_order_sum`), so the annulus keeps the
    nodes the norm of the field's mesh would keep.  The radii are taken
    _BLOCK nodes at a time, in C order; only the kept nodes' coordinates
    and |values| are gathered.
    """
    coords = [field.coords(a) for a in range(field.n)]
    squares = [c * c for c in coords]
    kept = []
    for start in range(0, field.values.size, _BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK, field.values.size)),
                                 field.points)
        r = np.sqrt(_norm_order_sum([sq[i] for sq, i in zip(squares, index)]))
        kept.append(np.flatnonzero((r >= rmin) & (r <= rmax)) + start)
    kept = np.concatenate(kept)
    if not len(kept):
        raise DegenerateFit(f"no grid point lies in the annulus {rmin} <= r <= {rmax}")
    pts = np.empty((len(kept), field.n))
    for a, i in enumerate(np.unravel_index(kept, field.points)):
        pts[:, a] = coords[a][i]
    return hardy_fit(pts, np.abs(field.values.reshape(-1)[kept]), omega)


# ---------------------------------------------------------------------------
# Gelfand-Shilov


def gelfand_shilov_sweep(
    evaluator,
    p: float,
    alpha: float,
    beta: float,
    radii,
    dim: int = 2,
    resolution: int = 512,
) -> UPReport:
    """Two super-exponential truncated integrals (x-weight and omega-weight).

    Weights are e^{(pi/p) (alpha ||x||_p)^p} and e^{(pi/q) (beta ||w||_q)^q}
    with q the conjugate exponent; the report carries both sweeps, the
    combined verdict (the hypothesis needs both integrals finite), and
    whether alpha beta >= 1 triggers the vanishing theorem.
    """
    if not 1.0 < p < np.inf:
        raise DimensionMismatch("need 1 < p < infinity")
    if alpha <= 0 or beta <= 0:
        raise DimensionMismatch("alpha, beta must be positive")
    q = p / (p - 1.0)
    half = dim // 2
    if 2 * half != dim:
        raise DimensionMismatch("phase-space dimension must be even")

    weights = (
        gelfand_shilov_weight(p, alpha, half, "x"),
        gelfand_shilov_weight(p, beta, half, "omega"),
    )
    (sweep_x, ratios_x, verdict_x), (sweep_w, _, verdict_w) = _truncated_sweeps(
        evaluator, weights, radii, dim, resolution
    )
    if "divergent-looking" in (verdict_x, verdict_w):
        verdict = "divergent-looking"
    elif verdict_x == verdict_w == "convergent-looking":
        verdict = "convergent-looking"
    else:
        verdict = "inconclusive"
    return UPReport(
        condition="gelfand_shilov",
        parameters={
            "p": p,
            "q": q,
            "alpha": alpha,
            "beta": beta,
            "alpha_beta_critical": bool(alpha * beta >= 1.0),
            "sweep_omega": sweep_w,
            "verdict_x": verdict_x,
            "verdict_omega": verdict_w,
        },
        sweep=sweep_x,
        ratios=ratios_x,
        verdict=verdict,
        rule=_RULE + "; both weights must look convergent for the hypothesis",
    )


# ---------------------------------------------------------------------------
# Nazarov bound


def complement_integral(field: SampledField, shape) -> float:
    """Riemann sum of |field|^2 outside the shape.

    The nodes are taken _BLOCK at a time, in C order, as in
    `hardy_fit_field`: only a block's coordinates are stacked, never the
    field's whole mesh.
    """
    coords = [field.coords(a) for a in range(field.n)]
    values = field.values.reshape(-1)
    total = 0.0
    for start in range(0, values.size, _BLOCK):
        stop = min(start + _BLOCK, values.size)
        index = np.unravel_index(np.arange(start, stop), field.points)
        pts = np.stack([c[i] for c, i in zip(coords, index)], axis=-1)
        dens = np.abs(values[start:stop][~contains(shape, pts)])
        total += float(np.sum(dens * dens))
    return total * field.cell_volume()


@dataclass(frozen=True)
class NazarovReport:
    lhs: float
    rhs: float
    ratio: float
    nc: float
    exponent_term: float
    complement_s: float
    complement_t: float
    calibration_c0: float
    details: dict


def _lambert_w0(x: float) -> float:
    """Principal branch W_0(x) of the Lambert W function, for x >= 0.

    Halley's iteration on w - x e^{-w} = 0 (Corless et al., Adv. Comput.
    Math. 5, 1996), from log1p(x) below 1.5 and from the asymptotic
    log x - log log x above; it stops once a step moves w by at most 1e-8
    relative, and the cubic convergence has then reached full precision.
    0 and +inf are fixed points.
    """
    x = float(x)
    if x == 0.0 or not math.isfinite(x):
        return x
    if x < 1.5:
        w = math.log1p(x)
    else:
        w = math.log(x)
        w -= math.log(w)
    for _ in range(100):
        r = w - x * math.exp(-w)
        wn = w - r / (w + 1.0 - (w + 2.0) * r / (2.0 * w + 2.0))
        if abs(wn - w) <= 1e-8 * abs(wn):
            return wn
        w = wn
    raise NumericalFailure(f"Lambert W did not converge at {x!r}")


def nazarov_bound(
    f1_field: SampledField,
    f2_field: SampledField,
    s_shape,
    t_shape,
    l1: np.ndarray,
    l2: np.ndarray,
    im_u: np.ndarray,
    c: float = 1.0,
) -> NazarovReport:
    """Assemble ||f||^2 <= nc(L1^-1 S, Im(U)^-1 L2^-1 T) (comp_S + comp_T).

    f1_field and f2_field are the two transformed copies of f; the left
    side uses the first field's norm (the operators are unitary).  The
    calibration C0 reported alongside makes the bound exactly tight on the
    given instance.  L1, L2 and Im(U) must be invertible n x n, n = f1_field.n.
    """
    n = f1_field.n
    l1, l2, im_u = (np.asarray(a, dtype=float) for a in (l1, l2, im_u))
    for name, a in (("L1", l1), ("L2", l2), ("Im(U)", im_u)):
        if a.shape != (n, n):
            raise DimensionMismatch(f"{name} must be {n} x {n}, got {a.shape}")
        if _near_singular(_singular_values(a, name)):
            raise Singular(f"{name} must be invertible for the Nazarov hypothesis")
    comp_s = complement_integral(f1_field, s_shape)
    comp_t = complement_integral(f2_field, t_shape)
    lhs = float(
        np.sum(np.abs(f1_field.values) ** 2) * f1_field.cell_volume()
    )
    s_img = LinearImage(s_shape, np.linalg.inv(l1))
    # Im(U)^-1 L2^-1 T as two images: each map is judged as its factor was
    t_img = LinearImage(LinearImage(t_shape, np.linalg.inv(l2)), np.linalg.inv(im_u))
    nc, m, details = nc_constant(s_img, t_img, c=c)
    rhs = nc * (comp_s + comp_t)
    total = comp_s + comp_t
    if total <= 0.0:
        c0 = np.inf
    elif m <= 0.0:
        c0 = lhs / total
    else:
        # solve C0 e^{C0 m} = lhs/total
        c0 = _lambert_w0(m * lhs / total) / m
    return NazarovReport(
        lhs=lhs,
        rhs=float(rhs),
        ratio=float(rhs / lhs) if lhs > 0 else np.inf,
        nc=float(nc),
        exponent_term=m,
        complement_s=comp_s,
        complement_t=comp_t,
        calibration_c0=c0,
        details=details,
    )


# ---------------------------------------------------------------------------
# cross-section relaxation


@dataclass(frozen=True)
class CrossSectionReport:
    fraction_passing: float
    exception_measure: float
    cell_measure: float
    verdicts: np.ndarray  # boolean over the (x2, omega2) slice grid


def cross_section_sweep(
    field: SampledField,
    k: int,
    m: np.ndarray,
    n_exponent: float,
    radii,
) -> CrossSectionReport:
    """Apply the 2k-dim truncated Beurling condition to every cross-section.

    The field must be a partial STFT laid out as (x1, x2, omega1, omega2);
    each (x2, omega2) slice is a sweep of its own on the (x1, omega1)
    grid, and all slices go through the masked sums and ratio rule in one
    array pass.  A slice passes when its sweep does not look divergent;
    the exception measure weights failing slices by the (x2, omega2) cell
    area.
    """
    d = field.n // 2
    if field.n != 2 * d or k > d:
        raise DimensionMismatch("field must be a 2d-dimensional partial STFT")
    tail = field.points[k:d] + field.points[d + k :]
    if not tail:
        raise DimensionMismatch("no cross-section variables (k = d)")
    radii = _increasing_radii(radii)

    slice_axes = list(range(k)) + list(range(d, d + k))
    pts = _mesh([field.coords(a) for a in slice_axes]).reshape(-1, 2 * k)
    r2 = np.einsum("ij,ij->i", pts, pts)
    cell = float(np.prod([field.spacing(a) for a in slice_axes]))
    # (x2, omega2) leading, each slice's (x1, omega1) values flattened last
    modulus = np.moveaxis(
        np.abs(field.values), slice_axes, list(range(field.n - 2 * k, field.n))
    ).reshape(tail + (-1,))
    integrand = modulus * np.asarray(beurling_weight(m, n_exponent)(pts), dtype=float)
    ratios = _ratios(_ball_sums(integrand, _ball_masks(r2, radii), cell))
    verdicts = _verdicts(ratios) != "divergent-looking"

    cross_axes = list(range(k, d)) + list(range(d + k, 2 * d))
    cell_measure = float(np.prod([field.spacing(a) for a in cross_axes]))
    failing = int(verdicts.size - np.count_nonzero(verdicts))
    return CrossSectionReport(
        fraction_passing=float(np.count_nonzero(verdicts) / verdicts.size),
        exception_measure=failing * cell_measure,
        cell_measure=cell_measure,
        verdicts=verdicts,
    )
