"""Command-line front end.

Exit codes: 0 success, 2 input/parameter error, 3 internal assertion
failure, 4 verification failure.  The parser and the codecs check input
and raise `MtfrError`; commands only raise, and `main` alone maps an
error to its exit code and one stderr line.  Structured output is
canonical JSON (each float its shortest round-trip repr, byte-identical
across reruns); sweeps also write CSV, fields write the MTFR binary
format.  Each `check` kind has its own subparser, which takes only the
flags that kind reads.
MTFR_THREADS caps the BLAS/OpenMP thread pools; ``import mtfr`` applies
it, before numpy loads.  It also sizes the grid's FFT pool (`mtfr.grid`).
A value that is not a positive integer is an input error of every
command: `main` checks it before running one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import _thread_cap
from .certify import (
    TOL_IDENTITY,
    alt1_tfr_tensor,
    certify,
    counterexample_alt1,
    identity_errors,
)
from .checks import (
    Ball,
    Box,
    beurling_sweep,
    gelfand_shilov_sweep,
    hardy_fit_field,
    mean_width,
    nazarov_bound,
)
from .errors import (
    DimensionMismatch,
    GridTooLarge,
    MtfrError,
    NumericalFailure,
    RadiusExceedsGrid,
    RankZero,
)
from .gaussian import apply_partial_fourier, random_gaussian, standard_gaussian
from .grid import MAX_ELEMENTS, field_l2, mass_outside, partial_stft_slice, sample
from .serialize import (
    _atomic_write,
    canonical_json,
    certificate_from_obj,
    certificate_to_obj,
    gaussian_from_obj,
    json_float,
    matrix_from_obj,
    pre_iwasawa_to_obj,
    read_field,
    sweep_to_csv,
    word_to_obj,
    write_field,
)
from .symplectic import SymplecticMatrix, factor_to_word, pre_iwasawa

# library failures of a numerical assertion, not of the input: exit 3
_ASSERTION_ERRORS = (NumericalFailure, RankZero, AssertionError)


def _emit(obj, out_dir, name, to_stdout=True, render=canonical_json):
    text = render(obj)
    if out_dir:
        _atomic_write(os.path.join(out_dir, name), text)
    elif to_stdout:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise MtfrError(f"cannot read {path}: {exc}") from exc


def _load_symplectic(path: str):
    return SymplecticMatrix.from_array(matrix_from_obj(_load_json(path)))


def _load_certificate(path: str, alternative: str, command: str):
    cert = certificate_from_obj(_load_json(path))
    if cert.alternative != alternative:
        raise MtfrError(f"{command} needs an Alternative {alternative} certificate")
    return cert


# ---------------------------------------------------------------------------
# commands


def cmd_factor(args) -> int:
    m = _load_symplectic(args.matrix)
    pre = pre_iwasawa(m)
    word = factor_to_word(m)
    obj = {
        "n": m.n,
        "pre_iwasawa": pre_iwasawa_to_obj(pre),
        "word": word_to_obj(word),
        "reconstruction_error": float(np.linalg.norm(word.matrix() - m.entries)),
    }
    _emit(obj, args.out, "factor.json")
    return 0


def cmd_classify(args) -> int:
    cert = certify(_load_symplectic(args.matrix))
    for note in cert.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit(certificate_to_obj(cert), args.out, "certificate.json")
    return 0


def cmd_verify(args) -> int:
    cert = _load_certificate(args.certificate, "II", "verify")
    rng = np.random.default_rng(args.seed)
    if args.gaussians is not None:
        f, g = (gaussian_from_obj(_load_json(path)) for path in args.gaussians)
    else:
        f = random_gaussian(cert.d, rng)
        g = random_gaussian(cert.d, rng)
    if args.points * 2 * cert.d > MAX_ELEMENTS:
        raise GridTooLarge(
            f"{args.points} points of {2 * cert.d} coordinates exceed {MAX_ELEMENTS}"
        )
    pts = rng.uniform(-args.box, args.box, size=(args.points, 2 * cert.d))
    errs = identity_errors(cert, f, g, pts)
    err = float(np.max(errs))
    if not err <= args.tol:  # a NaN error, from an overflowing oracle, fails too
        worst = pts[int(np.argmax(errs))]
        print(f"FAIL max relative error {err:.3e} at lambda = {worst.tolist()}")
        return 4
    print(f"PASS max relative error {err:.3e} over {args.points} points")
    _emit({"max_relative_error": err, "points": args.points, "tol": args.tol},
          args.out, "verify.json", to_stdout=False)
    return 0


def _default_stft_field(grid_spec):
    points, extent = grid_spec
    phi = sample(standard_gaussian(1), (points,), (extent,))
    return partial_stft_slice(phi, phi, 1)


def _nearest_grid_modulus(field):
    """Evaluator of |field| at the grid point nearest each node.

    Each node becomes one flat C-order index, clipped to the grid axis by
    axis, into |values|, taken once over the whole field for every call.
    The evaluator holds |values|, the point counts and the spacings, not
    the field, so a caller that drops the field keeps one copy of it.
    """
    modulus = np.abs(field.values).ravel()
    axes = [(npts, field.spacing(a)) for a, npts in enumerate(field.points)]

    def evaluator(pts):
        flat = np.zeros(len(pts), dtype=np.intp)
        for a, (npts, spacing) in enumerate(axes):
            j = pts[:, a] / spacing
            np.rint(j, out=j)
            j = j.astype(np.intp)
            j += npts // 2
            np.clip(j, 0, npts - 1, out=j)
            flat *= npts
            flat += j
        return modulus.take(flat)

    return evaluator


def cmd_check(args) -> int:
    if args.kind == "nazarov":  # a fixed Gaussian pair: no field is read or built
        points, extent = args.grid
        phi = standard_gaussian(1)
        f1 = sample(phi, (points,), (extent,))
        f2 = sample(apply_partial_fourier(phi, (0,)), (points,), (extent,))
        s_shape = Box((0.0,), (args.s_halfwidth,))
        t_shape = Box((0.0,), (args.t_halfwidth,))
        rep = nazarov_bound(
            f1, f2, s_shape, t_shape, np.eye(1), np.eye(1),
            args.imu * np.eye(1), c=args.constant,
        )
        obj = {"condition": "nazarov"}
        for key in ("lhs", "rhs", "ratio", "nc", "calibration_c0",
                    "complement_s", "complement_t"):
            obj[key] = json_float(getattr(rep, key), key)
        obj["ball_width_check"] = mean_width(Ball((0.0,), 1.0))[0]
        _emit(obj, args.out, "report.json")
        return 0
    field = read_field(args.field) if args.field else _default_stft_field(args.grid)
    if args.kind == "hardy":
        fit = hardy_fit_field(field, rmin=args.rmin, rmax=args.rmax)
        obj = {
            "condition": "hardy",
            "alpha_hat": fit.alpha,
            "N_hat": fit.n_hat,
            "log_c": fit.log_c,
            "residual": fit.residual,
        }
        _emit(obj, args.out, "report.json")
        return 0
    half, rmax = min(field.extents) / 2.0, max(args.radii)
    if rmax > half:
        raise RadiusExceedsGrid(f"radius {rmax} exceeds the field's half extent {half}")
    if field.n % 2:
        # both sweeps split the field's axes into (x, omega) halves
        raise DimensionMismatch("phase-space dimension must be even")
    n, evaluator = field.n, _nearest_grid_modulus(field)
    del field  # the evaluator's |values| is the one copy the sweep needs
    if args.kind == "beurling":
        d = n // 2
        m = np.zeros((n, n))
        m[:d, d:] = 0.5 * np.eye(d)
        m[d:, :d] = 0.5 * np.eye(d)
        report = beurling_sweep(
            evaluator, m, args.n_exponent, args.radii, dim=n, resolution=args.resolution,
        )
    else:
        report = gelfand_shilov_sweep(
            evaluator, args.p, args.alpha, args.beta, args.radii, dim=n,
            resolution=args.resolution,
        )

    obj = {
        "condition": report.condition,
        # tuples render as JSON arrays: gs's sweep_omega is [[R, value], ...]
        "parameters": report.parameters,
        "sweep": report.sweep,
        "ratios": [json_float(r, "ratio") for r in report.ratios],
        "verdict": report.verdict,
        "rule": report.rule,
    }
    if args.format in ("json", "both"):
        _emit(obj, args.out, "report.json")
    if args.format in ("csv", "both"):
        _emit(report, args.out, "sweep.csv", render=sweep_to_csv)
    return 0


def cmd_counterexample(args) -> int:
    cert = _load_certificate(args.certificate, "I", "counterexample")
    points, extent = args.grid
    if points < 128:
        print(f"warning: {points} points per axis is coarse; "
              "expect larger discretization error", file=sys.stderr)
    cx = counterexample_alt1(
        cert, bump_box=(-args.bump_halfwidth, args.bump_halfwidth),
        points=points, extent=extent,
    )
    tfr = alt1_tfr_tensor(cx)
    lo = np.full(2, -args.bump_halfwidth)
    hi = np.full(2, args.bump_halfwidth)
    mass = mass_outside(tfr, (lo, hi))
    report = {
        "mass_outside": mass,
        "predicted_map": [list(map(float, r)) for r in cx.predicted_map],
        "bump_box": list(cx.bump_box),
        "f_l2": field_l2(cx.f),
        "g_l2": field_l2(cx.g),
    }
    _emit(report, args.out, "mass.json")
    if args.out and args.format in ("bin", "both"):
        write_field(cx.f, os.path.join(args.out, "f.bin"))
        write_field(cx.g, os.path.join(args.out, "g.bin"))
        write_field(tfr, os.path.join(args.out, "tfr.bin"))
    if mass > 1e-4:
        print(f"FAIL mass outside predicted support {mass:.3e} exceeds 1e-4")
        return 4
    print(f"PASS mass outside predicted support {mass:.3e}")
    return 0


# ---------------------------------------------------------------------------
# flag values, checked while parsing


def _flag(parse, expected):
    """An argparse ``type=`` that reports any ValueError of parse as one line."""

    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return convert


def _finite(value, low=-math.inf):
    """value itself when it is finite and above low."""
    if not low < value < math.inf:
        raise ValueError(value)
    return value


def _box(text):
    """A finite positive --box whose sample range [-box, box] has a finite width."""
    box = _finite(float(text), 0.0)
    _finite(2.0 * box)
    return box


def _grid_spec(spec):
    points, extent = spec.split("@")
    return _finite(int(points), 0), _finite(float(extent), 0.0)


_COUNT = _flag(lambda text: _finite(int(text), 0), "a positive integer")
_SEED = _flag(lambda text: _finite(int(text), -1), "a non-negative integer")
_FLOAT = _flag(lambda text: _finite(float(text)), "a finite number")
_POSITIVE = _flag(lambda text: _finite(float(text), 0.0), "a finite positive number")
_BOX = _flag(_box, "a finite positive half-width whose double is finite")
_GRID = _flag(_grid_spec, "a grid spec points@extent such as 256@16")
_RADII = _flag(
    lambda text: tuple(_finite(float(r), 0.0) for r in text.split(",")),
    "finite positive radii such as 1,2,4,8",
)


# every flag of `check`, and the flags each kind reads: a kind takes no other
_CHECK_FLAGS = {
    "--field": {"default": None, "help": "MTFR binary field input"},
    "--grid": {"type": _GRID, "default": "256@16", "help": "points@extent of the d = 1 grid"},
    "--radii": {"type": _RADII, "default": "1,2,4,8"},
    "--resolution": {"type": _COUNT, "default": 512},
    "--n-exponent": {"type": _FLOAT, "default": 0.0},
    "--rmin": {"type": _FLOAT, "default": 1.5},
    "--rmax": {"type": _FLOAT, "default": 4.0},
    "--p": {"type": _FLOAT, "default": 2.0},
    "--alpha": {"type": _FLOAT, "default": 1.5},
    "--beta": {"type": _FLOAT, "default": 1.5},
    "--s-halfwidth": {"type": _FLOAT, "default": 2.0},
    "--t-halfwidth": {"type": _FLOAT, "default": 2.0},
    "--imu": {"type": _FLOAT, "default": 1.0, "help": "Im(U) scalar (d = 1)"},
    "--constant": {"type": _POSITIVE, "default": 1.0, "help": "Nazarov constant C"},
    "--format": {"choices": ["json", "csv", "both"], "default": "both"},
    "--out": {"default": None},
}
_CHECK_KINDS = {
    "beurling": ("--field", "--grid", "--radii", "--resolution", "--n-exponent",
                 "--format", "--out"),
    "hardy": ("--field", "--grid", "--rmin", "--rmax", "--out"),
    "gs": ("--field", "--grid", "--radii", "--resolution", "--p", "--alpha", "--beta",
           "--format", "--out"),
    # a fixed Gaussian pair on --grid: no field is read
    "nazarov": ("--grid", "--s-halfwidth", "--t-halfwidth", "--imu", "--constant", "--out"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as `MtfrError`, so `main` gives it exit 2.

    Flags must be spelled in full: a prefix of a long flag is an error in
    this parser and in every subparser, which is built from this class.
    """

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise MtfrError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mtfr` argument parser, built on first use and then reused.

    Parsing leaves no state on the parser, so every in-process `main`
    call shares this one; importing the module builds nothing.
    """
    parser = _Parser(
        prog="mtfr",
        description="Symplectic factorizations, time-frequency representation "
        "certificates, and uncertainty-principle checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="pre-Iwasawa decomposition and generator word")
    p.add_argument("matrix", help="symplectic matrix JSON")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("classify", help="Alternative I/II certificate")
    p.add_argument("matrix", help="symplectic matrix JSON (doubled dimension)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check the reduction identity of a certificate")
    p.add_argument("certificate", help="certificate JSON")
    p.add_argument("--gaussians", nargs=2, default=None, metavar=("F", "G"),
                   help="Gaussian JSON inputs f and g; default random")
    p.add_argument("--points", type=_COUNT, default=100)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--box", type=_BOX, default=3.0, help="sample box half-width")
    p.add_argument("--tol", type=_POSITIVE, default=TOL_IDENTITY)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="uncertainty-principle condition sweeps")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, names in _CHECK_KINDS.items():
        k = kinds.add_parser(kind)
        source = k.add_mutually_exclusive_group()  # --field or --grid: one input field
        for name in names:
            (source if name in ("--field", "--grid") else k).add_argument(
                name, **_CHECK_FLAGS[name])

    p = sub.add_parser("counterexample",
                       help="compactly supported pair for an Alternative I certificate")
    p.add_argument("certificate")
    p.add_argument("--grid", type=_GRID, default="256@16", help="grid spec points@extent")
    p.add_argument("--bump-halfwidth", type=_POSITIVE, default=2.0)
    p.add_argument("--format", choices=["json", "bin", "both"], default="both")
    p.add_argument("--out", default=None)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a library warning as the commands print their own: one line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; every failure becomes an exit code and one stderr line.

    numpy's floating-point warnings are silenced, so an input that
    overflows prints nothing before its error line: the finite checks on
    every result still reject it.  Any other warning the library issues
    is printed as one ``warning: <message>`` line.
    """
    try:
        args = build_parser().parse_args(argv)
        _thread_cap()  # every command refuses a bad MTFR_THREADS, not only a transform
        # looked up by name on each call, so a rebound cmd_* (a test's
        # monkeypatch, the benchmark's tracer) runs under the shared parser
        command = globals()[f"cmd_{args.command}"]
        with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
              warnings.catch_warnings()):
            warnings.showwarning = _show_warning
            return command(args)
    except _ASSERTION_ERRORS as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    except (MtfrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
