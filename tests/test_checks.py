import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtfr import checks as C
from mtfr.checks import (
    Ball,
    Box,
    HardyFit,
    LinearImage,
    beurling_sweep,
    beurling_weight,
    complement_integral,
    contains,
    cross_section_sweep,
    gelfand_shilov_sweep,
    hardy_fit,
    hardy_fit_field,
    mean_width,
    nazarov_bound,
    nc_constant,
    volume,
)
from mtfr.errors import DegenerateFit, DimensionMismatch, Singular
from mtfr.gaussian import (
    apply_partial_fourier,
    apply_symplectic,
    log_modulus,
    partial_stft_point,
    random_gaussian,
    standard_gaussian,
)
from mtfr.grid import (
    SampledField,
    partial_stft_grid,
    partial_stft_slice,
    sample,
    sample_function,
)

from conftest import l1_norm

ANTIDIAG = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])


def vphiphi_evaluator():
    phi = standard_gaussian(1)
    return lambda pts: partial_stft_point(phi, phi, 1, pts[:, :1], pts[:, 1:])


def nearest_grid_evaluator(field):
    """|field| at the grid point nearest each node (nodes inside the grid)."""

    def evaluator(pts):
        idx = tuple(
            np.rint(pts[:, a] / field.spacing(a)).astype(int) + field.points[a] // 2
            for a in range(field.n)
        )
        return np.abs(field.values[idx])

    return evaluator


class TestBeurlingSweep:
    def test_supercritical_convergent(self):
        ev = lambda pts: np.exp(-2.0 * np.pi * np.einsum("ij,ij->i", pts, pts))
        rep = beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2, 4, 8), resolution=400)
        assert rep.verdict == "convergent-looking"
        assert rep.ratios[-1] <= 1.05

    def test_vphiphi_divergent(self):
        rep = beurling_sweep(vphiphi_evaluator(), ANTIDIAG, 0.0, (1, 2, 4, 8),
                             resolution=400)
        assert rep.verdict == "divergent-looking"
        for a, b in zip(rep.sweep, rep.sweep[1:]):
            assert b[1] / a[1] >= 1.5

    def test_zero_evaluator_convergent(self):
        ev = lambda pts: np.zeros(len(pts))
        rep = beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2, 4), resolution=100)
        assert rep.verdict == "convergent-looking"
        assert all(v == 0.0 for _, v in rep.sweep)

    def test_weight_conjugation_consistency(self, rng):
        # change of variables by a chirp-type symplectic matrix: conjugated
        # weight + transformed evaluator + transformed nodes reproduce the
        # sweep values to oracle precision
        phi = standard_gaussian(1)
        c = 0.7
        a = np.array([[1.0, 0.0], [c, 1.0]])  # symplectic for d = 1
        cphi = apply_symplectic(phi, a)
        ev1 = vphiphi_evaluator()
        ev2 = lambda pts: partial_stft_point(cphi, cphi, 1, pts[:, :1], pts[:, 1:])
        ainv = np.linalg.inv(a)
        m2 = ainv.T @ ANTIDIAG @ ainv
        rep1 = beurling_sweep(ev1, ANTIDIAG, 0.0, (1, 2, 3), resolution=250)
        rep2 = beurling_sweep(ev2, m2, 0.0, (1, 2, 3), resolution=250,
                              point_transform=a)
        for (_, v1), (_, v2) in zip(rep1.sweep, rep2.sweep):
            assert v2 == pytest.approx(v1, rel=1e-6)

    def test_unit_weight_gives_l1(self, rng):
        # M = 0, N = 0: the weight is 1, so the sweep integrates |g|
        g = random_gaussian(2, rng)
        rep = beurling_sweep(lambda pts: np.exp(log_modulus(g, pts)), np.zeros((2, 2)), 0.0,
                             (7.9,), resolution=512)
        assert rep.sweep[0][1] == pytest.approx(l1_norm(g), rel=1e-6)
        assert rep.ratios == () and rep.verdict == "inconclusive"

    def test_non_finite_values_rejected(self):
        ev = lambda pts: np.full(len(pts), np.inf)
        with pytest.raises(DimensionMismatch, match="finite"):
            beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2), resolution=16)

    @pytest.mark.parametrize(
        "t, error",
        [
            (np.zeros((2, 2)), Singular),
            (np.array([[1.0, 2.0], [0.5, 1.0]]), Singular),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), DimensionMismatch),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), DimensionMismatch),
            (np.full((2, 2), -np.inf), DimensionMismatch),
            (np.eye(2, 3), DimensionMismatch),
            (np.eye(3), DimensionMismatch),
            (np.ones(2), DimensionMismatch),
        ],
    )
    def test_bad_point_transform_rejected(self, t, error):
        def ev(pts):
            raise AssertionError("the transform is checked before any evaluation")

        with pytest.raises(error):
            beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2, 4), resolution=16, point_transform=t)

    def test_vanishing_first_ball_gives_infinite_ratio(self):
        ev = lambda pts: (np.linalg.norm(pts, axis=1) > 1.5).astype(float)
        rep = beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2, 4), resolution=64)
        assert rep.sweep[0][1] == 0.0
        assert rep.ratios[0] == np.inf
        assert rep.verdict == "divergent-looking"


def test_rule_reads_the_last_three_ratios_of_each_sweep():
    from mtfr.checks import _verdicts

    # one column per sweep, one row per radius step
    ratios = np.array([[1.0, 3.0, 1.1], [1.0, 1.0, 1.3], [3.0, 1.0, 1.3], [3.0, 1.01, 1.3]])
    assert _verdicts(ratios).tolist() == [
        "inconclusive", "convergent-looking", "divergent-looking"
    ]
    # one radius gives no ratio, and no ratio gives no trend
    assert _verdicts(np.zeros((0, 2))).tolist() == ["inconclusive"] * 2


@pytest.mark.parametrize("sweep", ["beurling", "gs"])
def test_one_evaluator_call_per_sweep(sweep):
    calls = []

    def ev(pts):
        calls.append(len(pts))
        return np.exp(-2.0 * np.pi * np.einsum("ij,ij->i", pts, pts))

    if sweep == "beurling":
        beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2, 4), resolution=64)
    else:
        gelfand_shilov_sweep(ev, 2.0, 0.6, 0.6, (1, 2, 4), resolution=64)
    assert len(calls) == 1


class TestWeightBuilders:
    def test_gs_weight_p2_reduces_to_quadratic(self):
        from mtfr.checks import gelfand_shilov_weight

        w = gelfand_shilov_weight(2.0, 1.5, 1, "x")
        pts = np.array([[0.7, 9.9], [-1.2, 0.0]])
        want = np.exp(0.5 * np.pi * (1.5 * np.abs(pts[:, 0])) ** 2)
        np.testing.assert_allclose(w(pts), want, rtol=1e-14)

    def test_weights_compose_with_grid_integral(self):
        phi = sample(standard_gaussian(1), (256,), (16.0,))
        v = partial_stft_slice(phi, phi, 1)
        # alpha = beta < 1: both weighted integrands decay and the truncation
        # saturates (radii stay below where the weights amplify the FFT
        # noise floor of the field)
        rep = gelfand_shilov_sweep(nearest_grid_evaluator(v), 2.0, 0.5, 0.5, (4.5, 6.0),
                                   resolution=192)
        for sweep in (rep.sweep, rep.parameters["sweep_omega"]):
            (_, small), (_, big) = sweep
            assert big == pytest.approx(small, rel=1e-5)
        assert rep.verdict == "convergent-looking"


class TestHardyFit:
    def test_exact_log_quadratic_recovery(self, rng):
        pts = rng.uniform(-4, 4, size=(400, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.5]
        r = np.linalg.norm(pts, axis=1)
        vals = np.exp(0.3 + 1.7 * np.log(r) - 0.5 * np.pi * 1.23 * r**2)
        fit = hardy_fit(pts, vals)
        assert fit.alpha == pytest.approx(1.23, abs=1e-6)
        assert fit.n_hat == pytest.approx(1.7, abs=1e-6)

    def test_pure_gaussian_alpha_two(self, rng):
        pts = rng.uniform(-3, 3, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.5]
        vals = np.exp(-np.pi * np.einsum("ij,ij->i", pts, pts))
        fit = hardy_fit(pts, vals)
        assert fit.alpha == pytest.approx(2.0, abs=1e-3)
        assert abs(fit.n_hat) < 1e-9

    def test_grid_vphiphi(self):
        phi = sample(standard_gaussian(1), (256,), (16.0,))
        v = partial_stft_slice(phi, phi, 1)
        fit = hardy_fit_field(v, rmin=1.5, rmax=4.0)
        assert fit.alpha == pytest.approx(1.0, abs=1e-3)
        assert abs(fit.n_hat) <= 0.05

    def test_omega_rescaling(self, rng):
        # alpha is measured through Omega^{-1} lambda
        pts = rng.uniform(-4, 4, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        omega = 2.0 * np.eye(2)
        scaled = pts @ np.linalg.inv(omega).T
        vals = np.exp(-0.5 * np.pi * 1.4 * np.einsum("ij,ij->i", scaled, scaled))
        fit = hardy_fit(pts, vals, omega)
        assert fit.alpha == pytest.approx(1.4, abs=1e-6)

    def test_degenerate_below_floor(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DegenerateFit):
            hardy_fit(pts, np.zeros(2))

    @pytest.mark.parametrize("rmin,rmax", [(5.0, 1.0), (20.0, 30.0)])
    def test_empty_annulus_named(self, rmin, rmax):
        # an annulus with no grid node is named, not reported as samples
        # below the value floor
        phi = sample(standard_gaussian(1), (64,), (16.0,))
        v = partial_stft_slice(phi, phi, 1)
        with pytest.raises(DegenerateFit, match="annulus"):
            hardy_fit_field(v, rmin=rmin, rmax=rmax)


class TestGelfandShilov:
    def test_p2_weights_reduce_to_hardy_type(self):
        # p = q = 2, alpha = beta: both weights are e^{(pi/2) a^2 ||.||^2}
        ev = lambda pts: np.exp(-4.0 * np.pi * np.einsum("ij,ij->i", pts, pts))
        rep = gelfand_shilov_sweep(ev, 2.0, 1.2, 1.2, (1, 2, 3), resolution=200)
        q = rep.parameters["q"]
        assert q == pytest.approx(2.0)
        assert rep.parameters["alpha_beta_critical"]

    def test_subcritical_gaussian_convergent(self):
        ev = lambda pts: np.exp(-2.0 * np.pi * np.einsum("ij,ij->i", pts, pts))
        rep = gelfand_shilov_sweep(ev, 2.0, 0.6, 0.6, (1, 2, 4, 6), resolution=300)
        assert rep.verdict == "convergent-looking"
        assert not rep.parameters["alpha_beta_critical"]

    def test_non_finite_omega_sweep_rejected(self):
        # only the omega weight overflows; its sweep drives the verdict too
        ev = lambda pts: np.exp(-np.pi * np.einsum("ij,ij->i", pts, pts))
        with np.errstate(over="ignore"), pytest.raises(DimensionMismatch, match="finite"):
            gelfand_shilov_sweep(ev, 2.0, 0.5, 100.0, (1, 2), resolution=16)

    def test_vphiphi_supercritical_divergent(self):
        rep = gelfand_shilov_sweep(
            vphiphi_evaluator(), 2.0, 1.5, 1.5, (1, 2, 4, 6), resolution=300
        )
        assert "divergent-looking" in (
            rep.parameters["verdict_x"],
            rep.parameters["verdict_omega"],
        )


class TestShapes:
    def test_ball_width_exact(self):
        width, err = mean_width(Ball((0.0, 0.0), 1.5))
        assert width == 3.0 and err == 0.0

    def test_interval_width(self):
        # one dimension: the unit sphere is {+1, -1}, so the width is exact
        for shape, expected in (
            (Box((0.0,), (1.0,)), 2.0),
            # h(+1) + h(-1) = (-0.51 + 3.4) + (0.51 + 3.4)
            (LinearImage(Box((0.3,), (2.0,)), [[-1.7]]), 6.8),
        ):
            width, err = mean_width(shape, samples=1000)
            assert abs(width - expected) <= np.spacing(expected), shape
            assert err == 0.0

    def test_square_width_stable_across_seeds(self):
        w1 = mean_width(Box((0.0, 0.0), (1.0, 1.0)), samples=10**6, seed=1)
        w2 = mean_width(Box((0.0, 0.0), (1.0, 1.0)), samples=10**6, seed=2)
        assert abs(w1[0] - w2[0]) <= 3.0 * (w1[1] + w2[1])
        # exact mean width of [-1,1]^2 is 8/pi
        assert w1[0] == pytest.approx(8.0 / np.pi, abs=5 * w1[1] + 1e-3)

    def test_box_volume_under_diagonal_map(self):
        box = Box((0.0, 0.0), (2.0, 1.0))
        l = np.diag([2.0, 5.0])
        img = LinearImage(box, np.linalg.inv(l))
        assert volume(img) == pytest.approx(volume(box) / 10.0)

    def test_contains_linear_image(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        img = LinearImage(box, rot)
        assert contains(img, np.array([[0.5, 0.5]]))[0]
        assert not contains(img, np.array([[1.5, 0.0]]))[0]

    @pytest.mark.parametrize(
        "matrix, det",
        [(1e-15 * np.eye(2), 1e-30), (1e15 * np.eye(2), 1e30), (np.diag([1.0, 1e-9]), 1e-9)],
        ids=["1e-15", "1e15", "cond-1e9"],
    )
    def test_linear_image_judges_a_map_and_its_inverse_alike(self, matrix, det):
        # the gate is scale-free and refuses only numerically singular maps
        img = LinearImage(Box((0.0, 0.0), (1.0, 1.0)), matrix)
        assert volume(img) == pytest.approx(4.0 * det)

    @pytest.mark.parametrize(
        "matrix, error",
        [([[1.0, 1.0], [1.0, 1.0]], Singular),
         (np.zeros((2, 2)), Singular),
         (np.diag([1.0, 1e-16]), Singular),
         (np.full((2, 2), np.nan), DimensionMismatch)],
        ids=["rank-one", "zero", "cond-1e16", "nan"],
    )
    def test_linear_image_refuses_singular_maps(self, matrix, error):
        with np.errstate(all="raise"):  # the zero map divides nothing by zero
            with pytest.raises(error):
                LinearImage(Box((0.0, 0.0), (1.0, 1.0)), matrix)


class TestNazarov:
    def _fields(self, npts=512, extent=32.0):
        phi = standard_gaussian(1)
        f1 = sample(phi, (npts,), (extent,))
        f2 = sample(apply_partial_fourier(phi, (0,)), (npts,), (extent,))
        return f1, f2

    def test_zero_field_trivial(self):
        z = SampledField(np.zeros(64, dtype=complex), (16.0,))
        rep = nazarov_bound(z, z, Box((0.0,), (2.0,)), Box((0.0,), (2.0,)),
                            np.eye(1), np.eye(1), np.eye(1))
        assert rep.lhs == 0.0
        assert rep.rhs >= rep.lhs

    def test_gaussian_fourier_pair_ratio(self):
        f1, f2 = self._fields()
        s = Box((0.0,), (2.0,))
        rep = nazarov_bound(f1, f2, s, s, np.eye(1), np.eye(1), np.eye(1), c=1.0)
        # complement energy of a unit Gaussian outside [-2,2] is erfc-small,
        # so C = 1 is far below the calibration point
        assert rep.calibration_c0 > 1.0
        rep2 = nazarov_bound(f1, f2, s, s, np.eye(1), np.eye(1), np.eye(1),
                             c=2.0 * rep.calibration_c0)
        assert rep2.ratio >= 1.0

    def test_singular_imu_rejected(self):
        f1, f2 = self._fields(64, 16.0)
        with pytest.raises(Singular):
            nazarov_bound(f1, f2, Box((0.0,), (1.0,)), Box((0.0,), (1.0,)),
                          np.eye(1), np.eye(1), np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "which, matrix, error",
        [("l2", np.full((1, 1), np.nan), DimensionMismatch),
         ("l1", np.zeros((1, 1)), Singular),
         ("im_u", np.ones((1, 2)), DimensionMismatch),
         ("l1", np.eye(2), DimensionMismatch)],
        ids=["nan-l2", "singular-l1", "im-u-1x2", "l1-2x2"],
    )
    def test_every_matrix_is_gated(self, which, matrix, error):
        # each of L1, L2 and Im(U) is n x n and invertible, n the field's dimension
        f1, f2 = self._fields(64, 16.0)
        mats = {"l1": np.eye(1), "l2": np.eye(1), "im_u": np.eye(1), which: matrix}
        with pytest.raises(error):
            nazarov_bound(f1, f2, Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), **mats)

    def test_large_l1_passes_both_gates(self):
        # L1 = 1e8 I passes nazarov_bound's gate, and so L1^-1 S passes LinearImage's
        f = SampledField(np.ones((8, 8), dtype=complex), (4.0, 4.0))
        box = Box((0.0, 0.0), (1.0, 1.0))
        rep = nazarov_bound(f, f, box, box, 1e8 * np.eye(2), np.eye(2), np.eye(2))
        assert rep.details["vol_s"] == pytest.approx(4e-16)
        assert rep.rhs >= rep.lhs

    def test_product_of_gated_factors_passes(self):
        # L2 = Im(U) = diag(1, 2e-8) each pass nazarov_bound's gate; the map
        # Im(U)^-1 L2^-1 = diag(1, 2.5e15) that T is pulled back by is far
        # from singular, though its condition number is the product of theirs
        f = SampledField(np.ones((8, 8), dtype=complex), (4.0, 4.0))
        box = Box((0.0, 0.0), (1.0, 1.0))
        m = np.diag([1.0, 2e-8])
        rep = nazarov_bound(f, f, box, box, 1e8 * np.eye(2), m, m)
        assert rep.details["vol_t"] == pytest.approx(1e16)
        assert rep.rhs >= rep.lhs

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_product_past_eps_of_gated_factors_passes(self):
        # L2 = Im(U) = diag(1, 1.1e-8) each pass nazarov_bound's gate, but
        # their product's sigma_min / sigma_max, 1.2e-16, is under eps: T is
        # pulled back by L2^-1, then by Im(U)^-1, each map judged as its factor
        f = SampledField(np.ones((8, 8), dtype=complex), (4.0, 4.0))
        box = Box((0.0, 0.0), (1.0, 1.0))
        m = np.diag([1.0, 1.1e-8])
        rep = nazarov_bound(f, f, box, box, 1e3 * np.eye(2), m, m)
        assert rep.details["vol_t"] == pytest.approx(4.0 / 1.1e-8**2)
        assert rep.nc == np.inf
        assert rep.rhs >= rep.lhs

    def test_complement_change_of_variables(self):
        # int_{comp S} |D_L g|^2 = int_{comp L^-1 S} |g|^2 on fine 1-D grids;
        # the integrand decays fast enough at the box edge for midpoint sums
        g = standard_gaussian(1)
        from mtfr.gaussian import apply_dilation

        l = np.array([[1.7]])
        dg = apply_dilation(g, l)
        box = Box((0.0,), (2.0,))
        before = complement_integral(sample(dg, (4096,), (64.0,)), box)
        pulled = LinearImage(box, np.linalg.inv(l))
        after = complement_integral(sample(g, (4096,), (64.0,)), pulled)
        assert before > 1e-5  # the comparison is not vacuous
        assert after == pytest.approx(before, abs=1e-6)

    def test_complement_factor_monotone_in_sets(self):
        # the complement-integral factor shrinks as S, T grow; the nc factor
        # is reported separately and carries no such guarantee
        f1, f2 = self._fields()
        prev = np.inf
        for half in (1.0, 1.5, 2.0, 3.0):
            s = Box((0.0,), (half,))
            rep = nazarov_bound(f1, f2, s, s, np.eye(1), np.eye(1), np.eye(1))
            total = rep.complement_s + rep.complement_t
            assert total <= prev + 1e-15
            prev = total

    def test_nc_rotation_invariance_balls(self):
        # balls are rotation invariant, so nc must match exactly
        s = Ball((0.0, 0.0), 1.2)
        t = Ball((0.0, 0.0), 0.8)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        v1, m1, _ = nc_constant(s, t, c=1.0)
        v2, m2, _ = nc_constant(LinearImage(s, rot), LinearImage(t, rot), c=1.0)
        assert v2 == pytest.approx(v1, rel=1e-9)


@pytest.mark.parametrize("scale", [0.5, 1e3])
def test_one_singularity_gate(scale):
    # Dilation, nazarov_bound's Im(U) and beurling_sweep's point_transform
    # share sigma_min <= TOL_INV * max(1, sigma_max)
    from mtfr.symplectic import TOL_INV, Dilation

    bound = TOL_INV * max(1.0, scale)
    f = SampledField(np.ones((8, 8), dtype=complex), (4.0, 4.0))
    box = Box((0.0, 0.0), (1.0, 1.0))
    ev = lambda pts: np.exp(-np.einsum("ij,ij->i", pts, pts))

    checks = (
        Dilation,
        lambda m: nazarov_bound(f, f, box, box, np.eye(2), np.eye(2), m),
        lambda m: beurling_sweep(ev, ANTIDIAG, 0.0, (1, 2), resolution=8, point_transform=m),
    )
    for check in checks:
        with np.errstate(over="ignore"):  # Nazarov's constant overflows near the gate
            check(np.diag([scale, 1.01 * bound]))
        with pytest.raises(Singular):
            check(np.diag([scale, 0.99 * bound]))


class TestLambertW:
    def test_matches_scipy(self):
        # scipy is a test-only reference; the library never imports it
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2206)
        x = np.concatenate([np.logspace(-300, 308, 2000), rng.uniform(0.0, 50.0, 2000),
                            [0.0, 1.7e308, np.inf]])
        got = np.array([C._lambert_w0(v) for v in x])
        np.testing.assert_allclose(got, scipy_special.lambertw(x).real, rtol=1e-15, atol=0)

    def test_ends_of_the_range(self):
        assert C._lambert_w0(0.0) == 0.0
        assert C._lambert_w0(np.inf) == np.inf
        w = C._lambert_w0(1.7e308)  # w e^w = x, taken in logs
        assert w + np.log(w) == pytest.approx(np.log(1.7e308), rel=1e-15)


def bump_slice_field(eps):
    """V^1 f f for f = phi (x) psi, psi a bump of half-width eps."""

    def fn(m):
        t, s = m[..., 0], m[..., 1]
        u = s / eps
        bump = np.where(np.abs(u) < 1, np.exp(1 - 1 / np.maximum(1 - u**2, 1e-12)), 0.0)
        return np.exp(-np.pi * t**2) * bump

    # extent 8 keeps the dual (omega1) half-extent at 2, covering the radii
    f = sample_function(fn, (32, 32), (8.0, 8.0))
    return partial_stft_grid(f, f, 1)


def cross_section_loop(field, k, m, n_exponent, radii):
    """Reference: one truncated Beurling sweep per (x2, omega2) slice, in a loop."""
    d = field.n // 2
    tail = field.points[k:d] + field.points[d + k :]
    slice_axes = list(range(k)) + list(range(d, d + k))
    mesh = np.stack(np.meshgrid(*[field.coords(a) for a in slice_axes], indexing="ij"), -1)
    pts = mesh.reshape(-1, 2 * k)
    w = beurling_weight(m, n_exponent)(pts)
    masks = [np.einsum("ij,ij->i", pts, pts) <= r * r for r in radii]
    cell = float(np.prod([field.spacing(a) for a in slice_axes]))
    verdicts = np.zeros(tail, dtype=bool)
    for idx in np.ndindex(*tail):
        sel = (slice(None),) * k + idx[: d - k] + (slice(None),) * k + idx[d - k :]
        vals = np.abs(field.values[sel]).reshape(-1)
        values = [float(np.sum(vals[msk] * w[msk]) * cell) for msk in masks]
        ratios = [
            (b / a if a > 0 else (1.0 if b == 0.0 else np.inf))
            for a, b in zip(values, values[1:])
        ]
        last = ratios[-3:]
        verdicts[idx] = not (last and all(r >= 1.2 for r in last))
    return verdicts


class TestCrossSection:
    def test_zero_field_all_pass(self):
        z = SampledField(np.zeros((16, 16, 16, 16), dtype=complex),
                         (16.0, 16.0, 16.0, 16.0))
        rep = cross_section_sweep(z, 1, ANTIDIAG, 0.0, (1, 2, 4))
        assert rep.fraction_passing == 1.0
        assert rep.exception_measure == 0.0

    def test_separable_bump_slices(self):
        # f = phi (x) psi with psi a narrow bump: slices where psi vanishes
        # pass trivially; slices inside the bump look like V_phi phi and fail
        radii = (0.5, 1.0, 1.5, 2.0)
        rep_wide = cross_section_sweep(bump_slice_field(3.0), 1, ANTIDIAG, 0.0, radii)
        rep_narrow = cross_section_sweep(bump_slice_field(1.0), 1, ANTIDIAG, 0.0, radii)
        assert 0.0 < rep_wide.fraction_passing < 1.0
        # shrinking the bump support shrinks the exception set
        assert rep_narrow.exception_measure < rep_wide.exception_measure

    @pytest.mark.parametrize("radii", [(2.0, 1.5, 1.0, 0.5), (0.5, 1.0, 1.0, 2.0)])
    def test_radii_must_increase(self, radii):
        # the same check and message as every other sweep's report
        message = "^sweep radii must be strictly increasing$"
        field = bump_slice_field(3.0)
        with pytest.raises(DimensionMismatch, match=message):
            cross_section_sweep(field, 1, ANTIDIAG, 0.0, radii)

        def unused(pts):
            raise AssertionError("evaluated before the radii were checked")

        with pytest.raises(DimensionMismatch, match=message):
            beurling_sweep(unused, ANTIDIAG, 0.0, radii)

    @pytest.mark.parametrize("case", ["zero", "bump-wide", "bump-narrow", "random"])
    def test_one_pass_matches_slice_loop(self, case, rng):
        radii, n_exponent = (0.5, 1.0, 1.5, 2.0), 0.0
        if case == "zero":
            field = SampledField(np.zeros((16,) * 4, dtype=complex), (16.0,) * 4)
            radii = (1.0, 2.0, 4.0)
        elif case == "random":
            f, g = (sample(random_gaussian(2, rng), (32, 32), (8.0, 8.0)) for _ in "fg")
            field = partial_stft_grid(f, g, 1)
            n_exponent = 8.0  # puts slices on both sides of the rule (0 pass at N = 0)
        else:
            field = bump_slice_field(3.0 if case == "bump-wide" else 1.0)
        want = cross_section_loop(field, 1, ANTIDIAG, n_exponent, radii)
        rep = cross_section_sweep(field, 1, ANTIDIAG, n_exponent, radii)
        np.testing.assert_array_equal(rep.verdicts, want)
        assert rep.fraction_passing == np.count_nonzero(want) / want.size
        failing = want.size - np.count_nonzero(want)
        assert rep.exception_measure == failing * rep.cell_measure


# ---------------------------------------------------------------------------
# the sweep engine against its boolean-mask and einsum forms, bit for bit


def reference_beurling_weight(m, n_exponent):
    """beurling_weight with the three-operand einsum."""
    m = np.asarray(m, dtype=float)

    def weight(pts):
        quad = np.abs(np.einsum("...i,ij,...j->...", pts, m, pts))
        return np.exp(np.pi * quad) / (1.0 + np.linalg.norm(pts, axis=-1)) ** n_exponent

    return weight


def reference_ball_sums(integrand, r2, radii, cell, jac=1.0):
    """_ball_sums by 2-D boolean indexing, one mask per radius and call."""
    return np.array(
        [np.sum(integrand[..., r2 <= r * r], axis=-1) * cell * jac for r in radii]
    )


def reference_truncated_sweeps(evaluator, weights, radii, dim, resolution,
                               point_transform=None):
    """_truncated_sweeps on the full cube of nodes with boolean-mask gathers."""
    radii = C._increasing_radii(radii)
    rmax = radii[-1]
    h = 2.0 * rmax / resolution
    axis = -rmax + h * (np.arange(resolution) + 0.5)
    nodes = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    cell = h**dim
    r2 = np.einsum("ij,ij->i", nodes, nodes)
    inside = r2 <= radii[-1] * radii[-1]
    nodes, r2 = nodes[inside], r2[inside]
    pts, jac = nodes, 1.0
    if point_transform is not None:
        t = np.asarray(point_transform, dtype=float)
        pts = nodes @ t.T
        jac = abs(np.linalg.det(t))
    modulus = np.asarray(evaluator(pts), dtype=float)
    sweeps = []
    for weight in weights:
        integrand = np.asarray(weight(pts), dtype=float)
        integrand *= modulus
        values = reference_ball_sums(integrand, r2, radii, cell, jac)
        ratios = C._ratios(values)
        sweep = tuple(zip(radii, values.tolist()))
        sweeps.append((sweep, tuple(ratios.tolist()), str(C._verdicts(ratios))))
    return sweeps


def reference_hardy_fit(points, values, omega=None):
    """hardy_fit with boolean-mask gathers."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float).reshape(-1)
    if omega is None:
        omega = np.eye(points.shape[1])
    omega = np.asarray(omega, dtype=float)
    keep = values > C.VALUE_FLOOR
    points, values = points[keep], values[keep]
    r = np.linalg.norm(points, axis=1)
    scaled = points @ np.linalg.inv(omega).T
    y = np.log(values)
    design = np.column_stack(
        [np.ones_like(r), np.log(r), -0.5 * np.pi * np.einsum("ij,ij->i", scaled, scaled)]
    )
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return HardyFit(alpha=float(coef[2]), n_hat=float(coef[1]), log_c=float(coef[0]),
                    residual=resid)


def reference_hardy_fit_field(field, omega=None, rmin=1.5, rmax=4.0):
    pts = field.mesh().reshape(-1, field.n)
    vals = np.abs(field.values).ravel()
    r = np.linalg.norm(pts, axis=1)
    keep = (r >= rmin) & (r <= rmax)
    return reference_hardy_fit(pts[keep], vals[keep], omega)


def _matrix(seed, dim, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(dim, dim))


def _invertible(seed, dim):
    # diagonally dominant, so invertible and well conditioned
    return np.eye(dim) + 0.2 * _matrix(seed, dim)


def _smooth_evaluator(seed, dim):
    c = np.random.default_rng(seed).uniform(0.2, 1.5, size=dim)
    return lambda pts: np.exp(-np.pi * ((pts * c) ** 2).sum(axis=-1)) * (1.0 + pts[:, 0] ** 2)


@st.composite
def sweep_cases(draw):
    """A dimension, resolution, radii, weight matrix and optional point transform."""
    dim = draw(st.sampled_from([2, 4]))
    resolution = draw(st.integers(4, 96 if dim == 2 else 14))
    radii = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5, unique=True))
    seed = draw(st.integers(0, 2**16))
    transform = _invertible(seed + 1, dim) if draw(st.booleans()) else None
    return dim, resolution, tuple(sorted(radii)), seed, transform


class TestSweepEngineBitwise:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases(), st.sampled_from([0.0, 1.0, 3.5]))
    def test_truncated_sweeps_match_mask_reference(self, case, n_exponent):
        dim, resolution, radii, seed, transform = case
        ev = _smooth_evaluator(seed, dim)
        m = _matrix(seed, dim, 0.3)
        weights = (
            C.beurling_weight(m, n_exponent),
            C.gelfand_shilov_weight(2.5, 0.8, dim // 2, "x"),
            C.gelfand_shilov_weight(2.5, 0.8, dim // 2, "omega"),
        )
        ref_weights = (reference_beurling_weight(m, n_exponent),) + weights[1:]
        got = C._truncated_sweeps(ev, weights, radii, dim, resolution, transform)
        want = reference_truncated_sweeps(ev, ref_weights, radii, dim, resolution, transform)
        assert repr(got) == repr(want)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases(), st.sampled_from([8, 9, 13, 64]))
    def test_small_blocks_match_mask_reference(self, case, block):
        # many blocks, down to the 8 nodes below which beurling_weight
        # would switch to einsum, with a remainder folded into the last one
        dim, resolution, radii, seed, transform = case
        ev = _smooth_evaluator(seed, dim)
        m = _matrix(seed, dim, 0.3)
        weights = (C.beurling_weight(m, 1.0), C.gelfand_shilov_weight(2.5, 0.8, dim // 2, "x"))
        ref_weights = (reference_beurling_weight(m, 1.0),) + weights[1:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(C, "_BLOCK", block)
            got = C._truncated_sweeps(ev, weights, radii, dim, resolution, transform)
        want = reference_truncated_sweeps(ev, ref_weights, radii, dim, resolution, transform)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("dim, resolutions", [
        (1, range(1, 40)), (2, range(1, 40)), (3, range(1, 17)), (4, range(1, 11)),
        (5, range(1, 7)),
    ])
    def test_ball_nodes_match_the_cube(self, dim, resolutions):
        # radii 1 - 2/res put lattice nodes on the sphere (3^2 + 3^2 + 3^2 +
        # 3^2 = 6^2 at dim 4, res 6), where the rounding of r2 decides
        for resolution in resolutions:
            for radii in ((1.0,), (0.3, 1.0 - 2.0 / resolution, 1.0), (0.5, 2.5, 3.0)):
                radii = tuple(r for r in radii if r > 0.0)
                rmax = radii[-1]
                h = 2.0 * rmax / resolution
                axis = -rmax + h * (np.arange(resolution) + 0.5)
                cube = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
                cube = cube.reshape(-1, dim)
                r2 = np.einsum("ij,ij->i", cube, cube)
                inside = r2 <= rmax * rmax
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(C, "_BLOCK", 8)
                    n, cell, masks, blocks = C._ball_nodes(dim, radii, resolution)
                    blocks = list(blocks)
                assert n == np.count_nonzero(inside) and cell == h**dim
                assert [b[0].start for b in blocks] == list(range(0, n, 8))[:len(blocks)]
                assert all(8 <= len(b[1]) < 16 for b in blocks) or len(blocks) <= 1
                nodes = np.concatenate([b[1] for b in blocks]) if blocks else cube[:0]
                assert nodes.tobytes() == cube[inside].tobytes()
                want = [(r2 <= r * r)[inside] for r in radii[:-1]]
                assert [m.tobytes() for m in masks] == [w.tobytes() for w in want]

    def test_default_gs_sweep_peak_memory(self):
        # node-length arrays only for the integrands and masks; the nodes,
        # the evaluator and the weights live one block at a time
        ev = lambda pts: np.exp(-np.pi * np.einsum("ij,ij->i", pts, pts))
        tracemalloc.start()
        try:
            gelfand_shilov_sweep(ev, 2.0, 1.5, 1.5, (1, 2, 4, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 6]),
        st.sampled_from([(), (1,), (7,), (5, 3), (129,)]),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 2.0]),
    )
    def test_beurling_weight_matches_einsum(self, dim, lead, seed, n_exponent):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=3.0, size=lead + (dim,))
        m = rng.normal(size=(dim, dim))
        got = C.beurling_weight(m, n_exponent)(pts)
        want = reference_beurling_weight(m, n_exponent)(pts)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dim", [2, 4])
    def test_beurling_weight_special_values_match_einsum(self, dim):
        m = _matrix(3, dim)
        pts = np.array([[np.inf] + [1.0] * (dim - 1), [np.nan] * dim, [-0.0] * dim,
                        [1e200] * dim, [-1e-200] * dim])
        pts = np.tile(pts, (4, 1))  # enough points for the term-by-term path
        got = C.beurling_weight(m, 1.0)(pts)
        want = reference_beurling_weight(m, 1.0)(pts)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("tiles", [1, 4], ids=["einsum", "term-by-term"])
    @pytest.mark.parametrize("n_exponent", [0.0, 0])
    def test_beurling_weight_without_decay_matches_the_formula(self, dim, tiles,
                                                               n_exponent):
        m = _matrix(5, dim)
        pts = np.array([[np.inf] + [1.0] * (dim - 1), [np.nan] * dim, [-0.0] * dim,
                        [1e200] * dim, [-1e-200] * dim, [-np.inf] * dim, [0.5] * dim])
        pts = np.tile(pts, (tiles, 1))
        got = C.beurling_weight(m, n_exponent)(pts)
        want = reference_beurling_weight(m, n_exponent)(pts)
        assert got.tobytes() == want.tobytes()
        one = C.beurling_weight(m, n_exponent)(pts[3])
        assert np.asarray(one).tobytes() == np.asarray(
            reference_beurling_weight(m, n_exponent)(pts[3])).tobytes()

    def test_beurling_weight_rejects_a_mismatched_matrix(self):
        with pytest.raises(DimensionMismatch):
            C.beurling_weight(np.eye(2), 0.0)(np.zeros((5, 4)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from([(), (3,), (2, 5)]),
           st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4, unique=True))
    def test_ball_sums_match_mask_reference(self, seed, lead, radii):
        rng = np.random.default_rng(seed)
        radii = tuple(sorted(radii))
        r2 = rng.uniform(0.0, 4.0, size=4099)
        integrand = rng.uniform(size=lead + (4099,))
        got = C._ball_sums(integrand, C._ball_masks(r2, radii), 0.01, 1.5)
        if not lead:
            want = reference_ball_sums(integrand, r2, radii, 0.01, 1.5)
            assert got.tobytes() == want.tobytes()
        # every leading index is summed exactly as it would be alone
        for idx in np.ndindex(*lead):
            alone = C._ball_sums(integrand[idx], C._ball_masks(r2, radii), 0.01, 1.5)
            assert got[(slice(None),) + idx].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("rmin,rmax", [(1.5, 4.0), (0.5, 2.5), (2.0, 7.0)])
    @pytest.mark.parametrize("omega", [None, np.array([[1.3, 0.2], [0.0, 0.8]])])
    def test_hardy_fit_field_matches_mask_reference(self, rmin, rmax, omega):
        phi = sample(standard_gaussian(1), (128,), (16.0,))
        v = partial_stft_slice(phi, phi, 1)
        got = hardy_fit_field(v, omega, rmin, rmax)
        assert repr(got) == repr(reference_hardy_fit_field(v, omega, rmin, rmax))

    @pytest.mark.parametrize("points, extents", [
        ((2**14,), (16.0,)),  # two blocks of nodes on one axis
        ((16, 32, 32), (6.0, 8.0, 5.0)),
    ])
    def test_hardy_fit_field_matches_mask_reference_off_two_axes(self, rng, points, extents):
        field = sample(random_gaussian(len(points), rng), points, extents)
        got = hardy_fit_field(field, rmin=0.5, rmax=2.0)
        assert repr(got) == repr(reference_hardy_fit_field(field, rmin=0.5, rmax=2.0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_norm_order_sum_matches_norm(self, rng, n):
        # up to 8 axes, the most a field can have; scales far apart, so
        # that another order of summation would round differently
        pts = rng.normal(size=(5000, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        got = np.sqrt(C._norm_order_sum([pts[:, a] * pts[:, a] for a in range(n)]))
        assert got.tobytes() == np.linalg.norm(pts, axis=1).tobytes()

    def test_hardy_fit_matches_mask_reference(self, rng):
        pts = rng.normal(scale=2.0, size=(3000, 4))
        vals = np.exp(-np.pi * (pts**2).sum(axis=1)) * (rng.uniform(size=3000) > 0.3)
        assert repr(hardy_fit(pts, vals)) == repr(reference_hardy_fit(pts, vals))
