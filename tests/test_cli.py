import ast
import contextlib
import copy
import functools
import glob
import importlib
import io
import json
import os
import pkgutil
import shlex
import struct
import textwrap
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtfr
from mtfr.certify import identity_errors
from mtfr.cli import main
from mtfr.gaussian import random_gaussian, standard_gaussian
from mtfr.grid import SampledField, sample, sample_function
from mtfr.serialize import canonical_json, certificate_from_obj, matrix_to_obj, write_field
from mtfr.symplectic import make_rotation, standard_j

from conftest import representation_bold, run_python, tau_wigner_matrix


@pytest.fixture
def j_matrix(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(canonical_json(matrix_to_obj(standard_j(1))))
    return str(path)


@pytest.fixture
def alt1_matrix(tmp_path):
    path = tmp_path / "riI2.json"
    path.write_text(canonical_json(matrix_to_obj(make_rotation(1j * np.eye(2)).entries)))
    return str(path)


@pytest.fixture
def alt2_matrix(tmp_path):
    u = (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])
    path = tmp_path / "alt2.json"
    path.write_text(canonical_json(matrix_to_obj(make_rotation(u).entries)))
    return str(path)


class TestFactor:
    def test_j_case(self, j_matrix, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["factor", j_matrix, "--out", str(out)]) == 0
        obj = json.loads((out / "factor.json").read_text())
        np.testing.assert_allclose(obj["pre_iwasawa"]["Q"]["rows"], [[0.0]])
        np.testing.assert_allclose(obj["pre_iwasawa"]["U"]["im"], [[1.0]])
        assert obj["reconstruction_error"] < 1e-12

    def test_identity_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "eye.json"
        path.write_text(canonical_json(matrix_to_obj(np.eye(2))))
        assert main(["factor", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["word"] == []

    def test_nonsymplectic_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(matrix_to_obj(np.diag([2.0, 2.0]))))
        assert main(["factor", str(path)]) == 2
        assert "residual" in capsys.readouterr().err

    def test_determinant_failure_is_named(self, tmp_path, capsys):
        # M^t J M = det(M) J = -J: the residual 2 sqrt 2 is within
        # 1e-10 ||M||_F^2 = 1e2, so only the determinant check fails
        path = tmp_path / "det.json"
        path.write_text(canonical_json(matrix_to_obj(np.diag([1e6, -1e-6]))))
        assert main(["factor", str(path)]) == 2
        assert capsys.readouterr().err == "error: not symplectic: determinant is not +1\n"

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["factor", str(path)]) == 2


class TestClassify:
    def test_alt1(self, alt1_matrix, tmp_path):
        out = tmp_path / "o1"
        assert main(["classify", alt1_matrix, "--out", str(out)]) == 0
        obj = json.loads((out / "certificate.json").read_text())
        assert obj["alternative"] == "I"

    def test_alt2(self, alt2_matrix, tmp_path):
        out = tmp_path / "o2"
        assert main(["classify", alt2_matrix, "--out", str(out)]) == 0
        obj = json.loads((out / "certificate.json").read_text())
        assert obj["alternative"] == "II"
        assert obj["k"] == 1

    def test_wigner_rihaczek_sign_verifies(self, tmp_path, capsys):
        # Wigner on the first axis, Rihaczek on the second (d = 2, k = 1):
        # f = g = phi scores both chirp signs at round-off level here, and
        # only -P22 verifies
        bold = representation_bold(tau_wigner_matrix([0.5, 0.0]))
        path = tmp_path / "wr.json"
        path.write_text(canonical_json(matrix_to_obj(bold.entries)))
        out = tmp_path / "wr"
        assert main(["classify", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        obj = json.loads((out / "certificate.json").read_text())
        assert (obj["k"], obj["intermediates"]["chirp_sign"]) == (1, "-P22")
        for seed in range(4):
            assert main(["verify", str(out / "certificate.json"), "--seed", str(seed)]) == 0
            assert capsys.readouterr().out.startswith("PASS")

    def test_odd_half_dimension_exit_2(self, j_matrix):
        assert main(["classify", j_matrix]) == 2

    def test_certification_assertion_exit_3(self, tmp_path, capsys):
        # a generic Alternative I matrix U certifies; U e^{i eps sigma_x},
        # eps = 1e-8, is Alternative II, but its one singular value of P12
        # is below the dilation tolerance, so certify refuses it
        c, s = np.cos(0.7), np.sin(0.7)
        u = np.array([[c, -s], [s, c]]) * np.exp(1j * np.array([1.3, 1.9]))
        eps = 1e-8
        nudge = np.cos(eps) * np.eye(2) + 1j * np.sin(eps) * np.array([[0.0, 1.0], [1.0, 0.0]])
        for name, rotation, code in (("alt1_generic", u, 0), ("borderline", u @ nudge, 3)):
            path = tmp_path / f"{name}.json"
            path.write_text(canonical_json(matrix_to_obj(make_rotation(rotation).entries)))
            capsys.readouterr()
            assert main(["classify", str(path)]) == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("assertion failed: borderline input: retained singular value")

    def test_deterministic_bytes(self, alt1_matrix, alt2_matrix, tmp_path, capsys):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            for argv in (
                ["factor", alt2_matrix, "--out", str(out / "f")],
                ["classify", alt2_matrix, "--out", str(out / "c2")],
                ["classify", alt1_matrix, "--out", str(out / "c1")],
                ["verify", str(out / "c2" / "certificate.json"), "--points", "20",
                 "--seed", "7", "--out", str(out / "v")],
                ["counterexample", str(out / "c1" / "certificate.json"),
                 "--out", str(out / "cx")],
                ["check", "beurling", "--field", str(out / "cx" / "tfr.bin"),
                 "--resolution", "128", "--out", str(out / "chb")],
                ["check", "hardy", "--out", str(out / "chh")],
            ):
                assert main(argv) == 0, argv
            runs.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            })
        assert len(runs[0]) == 11
        assert runs[0] == runs[1]


class TestVerify:
    def _cert(self, alt2_matrix, tmp_path):
        out = tmp_path / "cert"
        main(["classify", alt2_matrix, "--out", str(out)])
        return str(out / "certificate.json")

    def test_pass(self, alt2_matrix, tmp_path, capsys):
        cert = self._cert(alt2_matrix, tmp_path)
        assert main(["verify", cert, "--points", "20", "--tol", "1e-8"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_omega_fails(self, alt2_matrix, tmp_path, capsys):
        cert_path = self._cert(alt2_matrix, tmp_path)
        obj = json.loads(open(cert_path).read())
        # Omega and Gamma1 scaled together, so that Omega still matches the
        # intermediates on read (an Omega edited alone exits 2, see
        # TestMalformedInput): the identity, through word_A, must fail
        inter = obj["intermediates"]
        pi = np.array(inter["Pi"]["rows"], dtype=float)
        scale = np.ones(len(pi))
        scale[0] = 1.01
        inter["Gamma1"][0] *= scale[0]
        omega = np.array(obj["Omega"]["rows"], dtype=float) @ pi.T @ np.diag(scale) @ pi
        obj["Omega"]["rows"] = omega.tolist()
        bad = tmp_path / "bad_cert.json"
        bad.write_text(canonical_json(obj))
        capsys.readouterr()
        assert main(["verify", str(bad), "--points", "20", "--seed", "5"]) == 4
        # the same draws as cmd_verify: f, g, then the points
        rng = np.random.default_rng(5)
        f, g = random_gaussian(1, rng), random_gaussian(1, rng)
        pts = rng.uniform(-3.0, 3.0, size=(20, 2))
        errs = identity_errors(certificate_from_obj(obj), f, g, pts)
        worst = pts[int(np.argmax(errs))].tolist()
        assert capsys.readouterr().out == (
            f"FAIL max relative error {np.max(errs):.3e} at lambda = {worst}\n"
        )

    def test_overflowing_points_fail(self, alt2_matrix, tmp_path, capsys):
        # at |lambda| ~ 1e200 the oracle's log-moduli overflow to NaN
        cert = self._cert(alt2_matrix, tmp_path)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main(["verify", cert, "--points", "5", "--box", "1e200"])
        assert code == 4
        assert capsys.readouterr().out.startswith("FAIL max relative error nan at lambda")

    def test_zero_points_exit_2(self, alt2_matrix, tmp_path):
        cert = self._cert(alt2_matrix, tmp_path)
        assert main(["verify", cert, "--points", "0"]) == 2

    def test_alt1_certificate_rejected(self, alt1_matrix, tmp_path):
        out = tmp_path / "c1"
        main(["classify", alt1_matrix, "--out", str(out)])
        assert main(["verify", str(out / "certificate.json")]) == 2


# each flag of `check` with a value its type accepts, and the flags each
# kind does not read: 37 (kind, flag) pairs, written out, not taken from
# the parser
CHECK_FLAG_VALUES = {
    "--field": "{field}", "--grid": "64@8", "--radii": "1,2", "--resolution": "16",
    "--n-exponent": "1", "--rmin": "1", "--rmax": "2", "--p": "2", "--alpha": "1.5",
    "--beta": "1.5", "--s-halfwidth": "1", "--t-halfwidth": "1", "--imu": "1",
    "--constant": "1", "--format": "json",
}
CHECK_UNREAD = {
    "beurling": ("--rmin", "--rmax", "--p", "--alpha", "--beta", "--s-halfwidth",
                 "--t-halfwidth", "--imu", "--constant"),
    "hardy": ("--radii", "--resolution", "--n-exponent", "--p", "--alpha", "--beta",
              "--s-halfwidth", "--t-halfwidth", "--imu", "--constant", "--format"),
    "gs": ("--n-exponent", "--rmin", "--rmax", "--s-halfwidth", "--t-halfwidth",
           "--imu", "--constant"),
    "nazarov": ("--field", "--radii", "--resolution", "--n-exponent", "--rmin", "--rmax",
                "--p", "--alpha", "--beta", "--format"),
}
CHECK_UNREAD_ARGV = [
    [kind, flag, CHECK_FLAG_VALUES[flag]]
    for kind, flags in CHECK_UNREAD.items() for flag in flags
] + [[kind, "--field", "{field}", "--grid", "64@8"] for kind in ("beurling", "hardy", "gs")]


class TestCheck:
    def test_hardy_default_field(self, tmp_path):
        out = tmp_path / "h"
        assert main(["check", "hardy", "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        assert abs(obj["alpha_hat"] - 1.0) < 1e-3
        assert abs(obj["N_hat"]) < 0.05

    def test_beurling_default_field(self, tmp_path):
        out = tmp_path / "b"
        assert main([
            "check", "beurling", "--radii", "1,2,4", "--resolution", "300",
            "--out", str(out),
        ]) == 0
        obj = json.loads((out / "report.json").read_text())
        assert obj["verdict"] == "divergent-looking"
        csv = (out / "sweep.csv").read_text()
        assert csv.startswith("R,value,ratio")

    def test_infinite_ratio_written_as_inf(self, tmp_path):
        # a ring that vanishes on the first ball: I(2)/I(1) = b/0
        def ring(m):
            r = np.linalg.norm(m, axis=-1)
            return np.where(r > 1.5, np.exp(-np.pi * (r - 3.0) ** 2), 0.0)

        field = tmp_path / "ring.bin"
        write_field(sample_function(ring, (64, 64), (16.0, 16.0)), field)
        argv = ["check", "beurling", "--field", str(field), "--radii", "1,2,4"]
        assert main([*argv, "--out", str(tmp_path / "both")]) == 0
        assert main([*argv, "--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        obj = json.loads((tmp_path / "both" / "report.json").read_text())
        csv = (tmp_path / "csv" / "sweep.csv").read_text()
        assert csv == (tmp_path / "both" / "sweep.csv").read_text()
        assert obj["ratios"][0] == "inf"
        assert csv.splitlines()[2].endswith(",inf")
        assert obj["verdict"] == "divergent-looking"

    def test_gs_report_carries_omega_sweep(self, tmp_path):
        from mtfr.checks import gelfand_shilov_sweep
        from mtfr.cli import _default_stft_field

        out = tmp_path / "g"
        argv = ["check", "gs", "--radii", "1,2,3", "--resolution", "96"]
        assert main([*argv, "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        field = _default_stft_field((256, 16.0))

        def evaluator(pts):
            idx = tuple(
                np.rint(pts[:, a] / field.spacing(a)).astype(int) + field.points[a] // 2
                for a in range(field.n)
            )
            return np.abs(field.values[idx])

        rep = gelfand_shilov_sweep(evaluator, 2.0, 1.5, 1.5, (1, 2, 3), resolution=96)
        assert obj["sweep"] == [list(p) for p in rep.sweep]
        want = [list(p) for p in rep.parameters["sweep_omega"]]
        assert obj["parameters"]["sweep_omega"] == want
        assert obj["parameters"]["verdict_omega"] == rep.parameters["verdict_omega"]

    def test_gs_bad_p_exit_2(self):
        assert main(["check", "gs", "--p", "0.5"]) == 2

    def test_nazarov_singular_imu_exit_2(self, capsys):
        assert main(["check", "nazarov", "--imu", "0"]) == 2
        assert "hypothesis" in capsys.readouterr().err

    def test_nazarov_builds_no_field(self, monkeypatch, capsys):
        import mtfr.cli as cli

        assert main(["check", "nazarov"]) == 0
        want = capsys.readouterr().out

        def no_field(grid):
            raise AssertionError("check nazarov built the default field")

        monkeypatch.setattr(cli, "_default_stft_field", no_field)
        assert main(["check", "nazarov"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "argv,infinite",
        [
            # every node inside both boxes: nothing outside, so C0 is infinite
            (["--grid", "64@4"], ["calibration_c0"]),
            (["--s-halfwidth", "10", "--t-halfwidth", "10"], ["calibration_c0"]),
            # the Nazarov constant overflows
            (["--imu", "1e-7"], ["rhs", "ratio", "nc"]),
            (["--constant", "1e300"], ["rhs", "ratio", "nc"]),
        ],
        ids=["grid-inside-boxes", "wide-boxes", "small-imu", "huge-constant"],
    )
    def test_nazarov_infinite_written_as_inf(self, tmp_path, argv, infinite):
        out = tmp_path / "n"
        assert main(["check", "nazarov", *argv, "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        assert [key for key, value in obj.items() if value == "inf"] == infinite

    def test_nazarov_nan_exit_2(self, capsys):
        # an infinite constant times empty complements: rhs is NaN
        argv = ["check", "nazarov", "--s-halfwidth", "10", "--t-halfwidth", "10",
                "--imu", "1e-7"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: rhs is not a number: the parameters overflow the report\n"
        )

    def test_hardy_empty_annulus_exit_2(self, capsys):
        assert main(["check", "hardy", "--rmin", "5", "--rmax", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: no grid point lies in the annulus 5.0 <= r <= 1.0\n"
        )

    def test_nazarov_report(self, tmp_path):
        out = tmp_path / "n"
        assert main(["check", "nazarov", "--grid", "512@32", "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        assert obj["ball_width_check"] == 2.0
        assert obj["lhs"] > 0

    @pytest.mark.parametrize("argv", CHECK_UNREAD_ARGV,
                             ids=[" ".join(a[:2]) for a in CHECK_UNREAD_ARGV])
    def test_unread_flag_exits_2(self, argv, tmp_path, capsys):
        # a flag that a kind does not read is refused, not ignored; the field
        # is wide enough for the default radii, so each line would run if taken
        field = tmp_path / "field.bin"
        write_field(sample(standard_gaussian(2), (32, 32), (20.0, 20.0)), field)
        out = tmp_path / "out"
        argv = [a.format(field=field) for a in argv]
        assert main(["check", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert not out.exists()


class TestCounterexample:
    def test_alt1_passes(self, alt1_matrix, tmp_path, capsys):
        cert_dir = tmp_path / "c"
        main(["classify", alt1_matrix, "--out", str(cert_dir)])
        out = tmp_path / "cx"
        code = main([
            "counterexample", str(cert_dir / "certificate.json"), "--out", str(out),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        obj = json.loads((out / "mass.json").read_text())
        assert obj["mass_outside"] <= 1e-6
        assert (out / "f.bin").exists() and (out / "tfr.bin").exists()

    def test_alt2_rejected(self, alt2_matrix, tmp_path):
        cert_dir = tmp_path / "c2"
        main(["classify", alt2_matrix, "--out", str(cert_dir)])
        assert main(["counterexample", str(cert_dir / "certificate.json")]) == 2

    def test_small_grid_warns_but_runs(self, alt1_matrix, tmp_path, capsys):
        cert_dir = tmp_path / "c3"
        main(["classify", alt1_matrix, "--out", str(cert_dir)])
        code = main([
            "counterexample", str(cert_dir / "certificate.json"),
            "--grid", "32@16", "--bump-halfwidth", "3",
        ])
        captured = capsys.readouterr()
        assert "coarse" in captured.err
        assert code in (0, 4)  # coarse grids may exceed the mass budget


class TestMalformedInput:
    GAUSSIAN_1 = '"M_im": [[0]], "b_re": [0], "b_im": [0], "logamp": 0'
    FILES = {
        "nan_matrix": '{"n": 1, "rows": [[NaN, 0], [0, 1]]}',
        "array": "[1, 2]",
        "odd_matrix": '{"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
        "huge_matrix": '{"n": 1, "rows": [[1e308, 0], [0, 1e-308]]}',
        "gauss_keys": '{"M_re": 1}',
        "gauss_npd": '{"n": 1, "M_re": [[-1]], ' + GAUSSIAN_1 + "}",
        "gauss_d2": '{"n": 2, "M_re": [[1, 0], [0, 1]], "M_im": [[0, 0], [0, 0]], '
                    '"b_re": [0, 0], "b_im": [0, 0], "logamp": 0}',
        # every number is a JSON number in its part's shape, never coerced or broadcast
        "gauss_m_im_scalar": '{"n": 1, "M_re": [[1]], "M_im": 0.3, "b_re": [0], "b_im": [0], '
                             '"logamp": 0}',
        "gauss_b_im_scalar": '{"n": 1, "M_re": [[1]], "M_im": [[0]], "b_re": [0], "b_im": 0.2, '
                             '"logamp": 0}',
        "gauss_n_7": '{"n": 7, "M_re": [[1]], ' + GAUSSIAN_1 + "}",
        "gauss_logamp_string": '{"n": 1, "M_re": [[1]], "M_im": [[0]], "b_re": [0], '
                               '"b_im": [0], "logamp": "0.5"}',
        "gauss_logamp_bool": '{"n": 1, "M_re": [[1]], "M_im": [[0]], "b_re": [0], '
                             '"b_im": [0], "logamp": true}',
        "gauss_m_re_string": '{"n": 1, "M_re": [["1.0"]], ' + GAUSSIAN_1 + "}",
        "gauss_logamp_huge": '{"n": 1, "M_re": [[1]], "M_im": [[0]], "b_re": [0], '
                             '"b_im": [0], "logamp": 1' + "0" * 400 + "}",
        "huge_int_matrix": '{"n": 1, "rows": [[1' + "0" * 400 + ", 0], [0, 1]]}",
        "deep_array": "[" * 100000 + "]" * 100000,
        # numpy's object arrays stop at 64 axes, so a shape would print 64 entries
        "deep_rows": '{"n": 1, "rows": ' + "[" * 400 + "1" + "]" * 400 + "}",
    }

    # (honest certificate, key path into it, new value); both have d = 1
    CERT_EDITS = {
        "nan_u": ("alt2_cert", ("intermediates", "pre_iwasawa", "U", "re", 0, 0),
                  float("nan")),
        "nan_gamma1": ("alt2_cert", ("intermediates", "Gamma1", 0), float("nan")),
        "nan_word_a": ("alt2_cert", ("word_A", 2, "q", 0, 0), float("nan")),  # a chirp
        # word_bold starts with the chirp [[0, 1], [1, 0]]
        "edited_word": ("alt2_cert", ("intermediates", "word_bold", 0, "q", 0, 0), 0.5),
        "omega_3x3": ("alt2_cert", ("Omega",), {"n": 1, "rows": np.eye(3).tolist()}),
        "omega_zero": ("alt2_cert", ("Omega",), {"n": 1, "rows": [[0, 0], [0, 0]]}),
        "w_3x3": ("alt1_cert", ("W",), {"n": 1, "rows": np.eye(3).tolist()}),
        "l_1x1": ("alt1_cert", ("intermediates", "pre_iwasawa", "L"),
                  {"n": 1, "rows": [[1.0]]}),
        "empty_v1": ("alt1_cert", ("V1",), {"n": 1, "re": [], "im": []}),
        # factors off their matrix: L no longer rebuilds bold_matrix, and
        # V1 or W no longer rebuilds U
        "l_off": ("alt1_cert", ("intermediates", "pre_iwasawa", "L"),
                  {"n": 1, "rows": [[5.0, 0.0], [0.0, 0.2]]}),
        "alt2_l_off": ("alt2_cert", ("intermediates", "pre_iwasawa", "L"),
                       {"n": 1, "rows": [[5.0, 0.0], [0.0, 0.2]]}),
        "v1_off": ("alt1_cert", ("V1",),
                   {"n": 1, "re": [[float(np.cos(0.7))]], "im": [[float(np.sin(0.7))]]}),
        "w_off": ("alt1_cert", ("W",), {"n": 1, "rows": [[0.0, 1.0], [1.0, 0.0]]}),
        # fields that must be read as they are, not coerced: d, k and the
        # axes are JSON integers, warnings a list of strings, the sign a tag
        "d_float": ("alt2_cert", ("d",), 1.5),
        "d_string": ("alt2_cert", ("d",), "1"),
        "d_bool": ("alt2_cert", ("d",), True),
        "k_float": ("alt2_cert", ("k",), 1.7),
        "k_string": ("alt2_cert", ("k",), "1"),
        "k_bool": ("alt2_cert", ("k",), True),
        "warnings_string": ("alt2_cert", ("warnings",), "abc"),
        "chirp_sign_int": ("alt2_cert", ("intermediates", "chirp_sign"), 5),
        # word_B starts with the Fourier letter on axis 0
        "axes_string": ("alt2_cert", ("word_B", 0, "axes"), "0"),
        # every number is a finite JSON number; the honest tau, Gamma1 and
        # word_A's first dilation all read 1, so true would pass as 1
        "offdiag_string": ("alt2_cert", ("offdiag_norm",), "0.5"),
        "offdiag_bool": ("alt2_cert", ("offdiag_norm",), True),
        "offdiag_negative": ("alt2_cert", ("offdiag_norm",), -3.0),
        "offdiag_huge": ("alt2_cert", ("offdiag_norm",), 10**400),
        "gamma1_bool": ("alt2_cert", ("intermediates", "Gamma1"), [True]),
        "gamma1_huge": ("alt2_cert", ("intermediates", "Gamma1"), [10**400]),
        "tau_bool": ("alt2_cert", ("tau", "re"), True),
        "omega_string": ("alt2_cert", ("Omega", "rows", 0, 0), "0.7071067811865475"),
        "word_a_bool": ("alt2_cert", ("word_A", 0, "l"), [[True]]),
        # Alternative II intermediates off the words and Omega they produce
        "p_edited": ("alt2_cert", ("intermediates", "P", "rows", 0, 0), 123),
        "w1_edited": ("alt2_cert", ("intermediates", "W1", "rows", 0, 0), 123),
        "omega_off_factors": ("alt2_cert", ("Omega", "rows", 0, 0), 0.7171067811865475),
    }

    @pytest.fixture
    def inputs(self, tmp_path, alt1_matrix, alt2_matrix):
        field = tmp_path / "field.bin"
        write_field(sample(standard_gaussian(1), (64,), (8.0,)), field)
        # e^{pi |x omega|} overflows on this field's nodes long before it ends
        wide = sample(standard_gaussian(2), (64, 64), (400.0, 400.0))
        write_field(wide, tmp_path / "wide.bin")
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(field.read_bytes()[:-16])
        data = (tmp_path / "wide.bin").read_bytes()  # the first extent sits at 20..28
        nan_extent = tmp_path / "nan_extent.bin"
        nan_extent.write_bytes(data[:20] + struct.pack("<d", float("nan")) + data[28:])
        zero_axes = tmp_path / "zero_axes.bin"
        zero_axes.write_bytes(b"MTFR" + struct.pack("<II", 1, 0) + bytes(16))
        # odd-dimensional fields have no (x, omega) split for the sweeps
        for n in (1, 3):
            write_field(sample(standard_gaussian(n), (16,) * n, (16.0,) * n),
                        tmp_path / f"odd{n}.bin")
        paths = {"truncated": str(truncated), "missing": str(tmp_path / "missing.bin"),
                 "wide": str(tmp_path / "wide.bin"), "nan_extent": str(nan_extent),
                 "zero_axes": str(zero_axes), "odd1": str(tmp_path / "odd1.bin"),
                 "odd3": str(tmp_path / "odd3.bin")}
        for alt in ("I", "II"):
            cert = tmp_path / f"cert{alt}.json"
            cert.write_text(f'{{"alternative": "{alt}", "d": 1}}')
            paths[f"cert{alt}"] = str(cert)
        for name, text in self.FILES.items():
            (tmp_path / f"{name}.json").write_text(text)
            paths[name] = str(tmp_path / f"{name}.json")
        assert main(["classify", alt2_matrix, "--out", str(tmp_path / "c2")]) == 0
        paths["alt2_cert"] = str(tmp_path / "c2" / "certificate.json")
        paths["alt2_matrix"] = alt2_matrix
        assert main(["classify", alt1_matrix, "--out", str(tmp_path / "c1")]) == 0
        paths["alt1_cert"] = str(tmp_path / "c1" / "certificate.json")
        for name, (base, keys, value) in self.CERT_EDITS.items():
            obj = json.loads(open(paths[base]).read())
            inner = obj
            for key in keys[:-1]:
                inner = inner[key]
            inner[keys[-1]] = value
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            paths[name] = str(tmp_path / f"{name}.json")
        return paths

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "hardy", "--field", "{truncated}"],
            ["check", "beurling", "--radii", "1,x"],
            ["check", "beurling", "--radii", "1,nan"],
            ["check", "hardy", "--field", "{missing}"],
            ["verify", "{certII}"],
            ["counterexample", "{certI}"],
            ["factor", "{nan_matrix}"],
            ["factor", "{array}"],
            ["factor", "{odd_matrix}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_keys}", "{gauss_keys}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_npd}", "{gauss_npd}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_d2}", "{gauss_d2}"],
            ["verify", "{alt2_cert}", "--box", "nan"],
            ["verify", "{alt2_cert}", "--tol", "nan"],
            ["verify", "{alt2_cert}", "--seed", "-1"],
            ["check", "beurling", "--resolution", "0"],
            ["check", "beurling", "--resolution", "-3"],
            ["check", "beurling", "--n-exponent", "nan"],
            ["factor", "--bogus", "x"],
            ["verify", "{nan_u}"],
            ["verify", "{nan_gamma1}"],
            ["verify", "{nan_word_a}"],
            ["verify", "{edited_word}"],
            ["check", "beurling", "--radii", "1,2,4,8,16"],
            ["check", "hardy", "--grid", "64x8@16"],
            ["counterexample", "{alt1_cert}", "--grid", "256x3@16"],
            ["check", "beurling", "--field", "{nan_extent}"],
            ["check", "hardy", "--field", "{zero_axes}"],
            # a 2^28-value tensor: tfr_grid refuses it before allocating
            ["counterexample", "{alt1_cert}", "--grid", "16384@64"],
            ["check", "beurling", "--field", "{odd1}", "--resolution", "16"],
            ["check", "beurling", "--field", "{odd3}", "--resolution", "16"],
            ["verify", "{omega_3x3}"],
            ["verify", "{omega_zero}"],
            ["counterexample", "{w_3x3}"],
            ["counterexample", "{l_1x1}"],
            ["counterexample", "{empty_v1}"],
            ["counterexample", "{l_off}"],
            ["verify", "{alt2_l_off}"],
            ["counterexample", "{v1_off}"],
            ["counterexample", "{w_off}"],
            # 10^16 nodes: refused before the node axis is allocated
            ["check", "beurling", "--resolution", "100000000"],
            ["check", "gs", "--resolution", "100000000"],
            # 2 * 10^16 coordinates: refused before the points are drawn
            ["verify", "{alt2_cert}", "--points", "10000000000000000"],
            ["check", "nazarov", "--constant", "-1"],
            ["check", "nazarov", "--constant", "0"],
            ["verify", "{d_float}"],
            ["verify", "{d_string}"],
            ["verify", "{d_bool}"],
            ["verify", "{k_float}"],
            ["verify", "{k_string}"],
            ["verify", "{k_bool}"],
            ["verify", "{warnings_string}"],
            ["verify", "{chirp_sign_int}"],
            ["verify", "{axes_string}"],
            # the block-diagonality tolerance is fixed: classify has no flag for it
            ["classify", "{alt2_matrix}", "--tol-blk", "1e-8"],
            ["verify", "{offdiag_string}"],
            ["verify", "{offdiag_bool}"],
            ["verify", "{offdiag_negative}"],
            ["verify", "{offdiag_huge}"],
            ["verify", "{gamma1_bool}"],
            ["verify", "{gamma1_huge}"],
            ["verify", "{tau_bool}"],
            ["verify", "{omega_string}"],
            ["verify", "{word_a_bool}"],
            ["verify", "{p_edited}"],
            ["verify", "{w1_edited}"],
            ["verify", "{omega_off_factors}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_m_im_scalar}", "{gauss_m_im_scalar}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_b_im_scalar}", "{gauss_b_im_scalar}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_n_7}", "{gauss_n_7}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_logamp_string}",
             "{gauss_logamp_string}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_logamp_bool}", "{gauss_logamp_bool}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_m_re_string}", "{gauss_m_re_string}"],
            ["verify", "{alt2_cert}", "--gaussians", "{gauss_logamp_huge}", "{gauss_logamp_huge}"],
            ["factor", "{huge_int_matrix}"],
            ["factor", "{deep_array}"],
            # flags are spelled in full: a unique prefix is not read as the flag
            ["check", "hardy", "--f", "x"],
            ["verify", "{alt2_cert}", "--point", "5"],
            ["check", "beurling", "--res", "64"],
        ],
        ids=["truncated-field", "bad-radii", "nan-radius", "missing-field",
             "verify-cert", "cx-cert", "nan-matrix", "json-array", "odd-matrix",
             "gaussian-keys", "gaussian-not-pd", "gaussian-dimension", "nan-box",
             "nan-tol", "negative-seed", "zero-resolution", "negative-resolution",
             "nan-exponent", "bad-flag", "nan-pre-iwasawa-u", "nan-gamma1",
             "nan-word-a-letter", "edited-word-bold", "radius-exceeds-grid",
             "check-grid-two-counts", "cx-grid-two-counts", "nan-extent", "zero-axes",
             "cx-grid-too-large", "beurling-1d-field", "beurling-3d-field",
             "omega-3x3", "omega-zero", "cx-w-3x3", "cx-l-1x1", "cx-empty-v1",
             "cx-l-off-bold", "verify-l-off-bold", "cx-v1-off-u", "cx-w-off-u",
             "beurling-resolution-too-large", "gs-resolution-too-large",
             "verify-points-too-large", "nazarov-negative-constant", "nazarov-zero-constant",
             "cert-d-float", "cert-d-string", "cert-d-bool", "cert-k-float", "cert-k-string",
             "cert-k-bool", "cert-warnings-string", "cert-chirp-sign-int",
             "cert-axes-string", "classify-tol-blk",
             "cert-offdiag-string", "cert-offdiag-bool", "cert-offdiag-negative",
             "cert-offdiag-huge-int", "cert-gamma1-bool", "cert-gamma1-huge-int",
             "cert-tau-bool", "cert-omega-string", "cert-word-a-bool", "cert-p-edited",
             "cert-w1-edited", "cert-omega-off-factors", "gaussian-m-im-scalar",
             "gaussian-b-im-scalar", "gaussian-n-mismatch", "gaussian-logamp-string",
             "gaussian-logamp-bool", "gaussian-m-re-string", "gaussian-logamp-huge-int",
             "factor-huge-int", "factor-deep-array", "abbrev-field", "abbrev-points",
             "abbrev-resolution"],
    )
    def test_exit_2_with_one_line(self, inputs, argv):
        proc = run_python(["-m", "mtfr.cli", *(a.format(**inputs) for a in argv)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_misnested_matrix_message_is_short(self, inputs):
        proc = run_python(["-m", "mtfr.cli", "factor", inputs["deep_rows"]])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "nested deeper" in line
        assert len(line) < 120, line

    def test_overflowing_matrix_exit_2(self, inputs):
        # numpy's overflow warnings are silenced; the error is the one line
        proc = run_python(["-m", "mtfr.cli", "factor", inputs["huge_matrix"]])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_sweep_exit_2(self, inputs, fmt):
        # the weight overflows, so the sweep values are not finite
        proc = run_python([
            "-m", "mtfr.cli", "check", "beurling", "--field", inputs["wide"],
            "--radii", "50,100,200", "--resolution", "64", "--format", fmt,
        ])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")


GOLDEN_REFERENCE = os.path.join(os.path.dirname(__file__), "golden", "reference")
# each golden input, and the commands that read a file of its kind
GOLDEN_READERS = {
    "in/alt1.json": ("factor", "classify"),
    "in/alt2.json": ("factor", "classify"),
    "in/wigner_rihaczek.json": ("factor", "classify"),
    "alt1/certificate.json": ("counterexample", "verify"),
    "alt2/certificate.json": ("verify", "counterexample"),
}
# values a mutation writes over one entry: extremes of the float range,
# signed zeros, ordinary numbers, and JSON values of the wrong type
MUTANTS = st.one_of(
    st.sampled_from([1e308, -1e308, 1e154, 1e-200, 5e-324, -0.0, 0.0, 10**400,
                     float("nan"), float("inf")]),
    st.floats(-4.0, 4.0),
    st.sampled_from(["x", None, True, [], {}]),
)


@functools.cache
def _golden(name):
    with open(os.path.join(GOLDEN_REFERENCE, name)) as fh:
        return json.load(fh)


def _leaf_paths(obj, path=()):
    """The key path of every scalar in a JSON value."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


@st.composite
def golden_mutations(draw):
    """(command, JSON input): a golden input with one to three entries overwritten."""
    name = draw(st.sampled_from(sorted(GOLDEN_READERS)))
    obj = copy.deepcopy(_golden(name))
    paths = list(_leaf_paths(obj))
    for _ in range(draw(st.integers(1, 3))):
        *keys, last = draw(st.sampled_from(paths))
        inner = obj
        for key in keys:
            inner = inner[key]
        inner[last] = draw(MUTANTS)
    return draw(st.sampled_from(GOLDEN_READERS[name])), obj


def _run_in_process(command, obj, directory):
    """(exit code, stderr lines) of `mtfr command` on obj, run through `main`."""
    path = os.path.join(directory, "input.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, path])
    return code, err.getvalue().splitlines()


class TestGoldenMutations:
    """The CLI boundary: a mutated golden input never escapes `main` as an
    exception, and a refusal is one stderr line."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(golden_mutations())
    def test_exit_code_and_one_line(self, tmp_path_factory, mutation):
        command, obj = mutation
        code, lines = _run_in_process(command, obj, tmp_path_factory.mktemp("mutation"))
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert len(lines) == 1, lines

    @pytest.mark.parametrize("command", ["classify", "factor"])
    @pytest.mark.parametrize("case", ["alt1-huge-entry", "diag-1e200"])
    def test_overflowing_norm_is_not_symplectic(self, tmp_path, command, case):
        # neither matrix is symplectic; both norms of the relative defect
        # overflow, so it is inf / inf = nan, and the gate fails closed
        if case == "alt1-huge-entry":
            obj = copy.deepcopy(_golden("in/alt1.json"))
            obj["rows"][2][0], obj["rows"][0][0] = -1e308, 0.5
        else:
            obj = {"n": 2, "rows": np.diag([1e200, 1e-200, 1.0, 1.0]).tolist()}
        assert _run_in_process(command, obj, tmp_path) == (
            2, ["error: not symplectic: residual nan exceeds 1e-10"])


class TestPackage:
    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def test_thread_cap_is_set_before_numpy_loads(self):
        # a meta-path finder records the caps at the moment numpy is first imported
        probe = textwrap.dedent(f"""
            import json, os, sys
            seen = []
            class Spy:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append({{v: os.environ.get(v) for v in {self.THREAD_VARS!r}}})
            sys.meta_path.insert(0, Spy())
            import mtfr.cli
            print(json.dumps(seen[0]))
        """)
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        env["MTFR_THREADS"] = "1"
        proc = run_python(["-c", probe], env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {v: "1" for v in self.THREAD_VARS}

    @pytest.mark.parametrize("threads", ["0", "abc"])
    def test_bad_thread_cap_is_copied_nowhere(self, threads):
        probe = ("import json, os, mtfr; "
                 f"print(json.dumps([os.environ.get(v) for v in {self.THREAD_VARS!r}]))")
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        env["MTFR_THREADS"] = threads
        proc = run_python(["-c", probe], env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [None] * 3

    def test_library_loads_no_scipy(self):
        # numpy is the only run-time dependency: the calls that used scipy
        # (random dilations through expm, the Nazarov calibration through
        # lambertw) leave no scipy module loaded
        probe = textwrap.dedent("""
            import contextlib, io, json, sys
            import mtfr.cli
            from mtfr.certify import certify
            from mtfr.symplectic import random_symplectic
            for n in range(1, 7):
                random_symplectic(n, 4, seed=n)
            certify(random_symplectic(4, 4, seed=7))
            with contextlib.redirect_stdout(io.StringIO()):
                assert mtfr.cli.main(["check", "nazarov"]) == 0
            print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
        """)
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_every_exported_name_resolves(self):
        names = [info.name for info in pkgutil.iter_modules(mtfr.__path__)]
        assert {"checks", "grid"} <= set(names)
        for name in names:
            module = importlib.import_module(f"mtfr.{name}")
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), f"mtfr.{name}.{export}"

    @staticmethod
    def imports(package, in_functions):
        """'file:line' of each import of a top-level package in src/mtfr, at
        any depth or only inside functions; a relative import is of mtfr."""
        found = []
        for path in sorted(glob.glob(os.path.join(os.path.dirname(mtfr.__file__), "*.py"))):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            scopes = [
                f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ] if in_functions else [tree]
            for node in (n for scope in scopes for n in ast.walk(scope)):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["mtfr"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == package for name in names):
                    found.append(f"{os.path.basename(path)}:{node.lineno}")
        return found

    def test_no_function_imports_a_package_module(self):
        # `import mtfr` loads every module, so an import in a function defers nothing
        assert self.imports("mtfr", in_functions=True) == []

    def test_no_module_imports_scipy(self):
        assert self.imports("scipy", in_functions=False) == []

    def test_submodules_are_not_shadowed(self):
        import mtfr.certify as C

        assert isinstance(C, types.ModuleType)
        assert callable(C.certify)


# ---------------------------------------------------------------------------
# one parser per process


class TestParserReuse:
    def test_one_parser(self):
        from mtfr.cli import build_parser

        assert build_parser() is build_parser()

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        first, last = tmp_path / "first", tmp_path / "last"
        assert main(["check", "gs", "--p", "3", "--radii", "1,2,3", "--resolution", "64",
                     "--out", str(first)]) == 0
        assert main(["check", "gs", "--no-such-flag"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["check", "gs", "--radii", "1,2,3", "--resolution", "64", "--out", str(last)]) == 0
        assert json.loads((first / "report.json").read_text())["parameters"]["p"] == 3.0
        assert json.loads((last / "report.json").read_text())["parameters"]["p"] == 2.0

    def test_import_builds_no_parser(self):
        probe = "import mtfr.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_rebound_command_runs(self, monkeypatch):
        import mtfr.cli as cli

        cli.build_parser()  # built before the rebinding
        seen = []
        monkeypatch.setattr(cli, "cmd_factor", lambda args: seen.append(args.matrix) or 0)
        assert main(["factor", "m.json"]) == 0
        assert seen == ["m.json"]


def test_readme_cli_examples_parse():
    # every `mtfr ...` line of the README's CLI block is a command line the
    # parser takes, so the docs advertise no flag that a command lacks
    from mtfr.cli import build_parser

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mtfr ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


# ---------------------------------------------------------------------------
# the check evaluator against its tuple-indexed form, bit for bit


def reference_nearest_grid_modulus(field):
    """Nearest-grid lookup by a tuple of clipped axis indices, abs after the gather."""

    def evaluator(pts):
        idx = []
        for a in range(field.n):
            j = np.rint(pts[:, a] / field.spacing(a)).astype(int) + field.points[a] // 2
            idx.append(np.clip(j, 0, field.points[a] - 1))
        return np.abs(field.values[tuple(idx)])

    return evaluator


class TestNearestGridModulus:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from([8, 16, 32]), min_size=1, max_size=4),
        st.integers(0, 2**16),
        st.integers(1, 3000),
        st.floats(0.2, 1.6),
    )
    def test_matches_tuple_index_reference(self, points, seed, count, reach):
        from mtfr.cli import _nearest_grid_modulus

        rng = np.random.default_rng(seed)
        extents = tuple(rng.uniform(2.0, 20.0, size=len(points)))
        values = rng.normal(size=points) + 1j * rng.normal(size=points)
        field = SampledField(values, extents)
        # nodes inside and outside the grid, which both clip to its edge
        pts = rng.uniform(-reach, reach, size=(count, len(points))) * np.array(extents)
        got = _nearest_grid_modulus(field)(pts)
        want = reference_nearest_grid_modulus(field)(pts)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["beurling", "gs"])
    def test_report_matches_reference_sweep(self, kind, tmp_path, monkeypatch):
        import mtfr.cli as cli

        f = sample(random_gaussian(2, np.random.default_rng(5)), (32, 32), (8.0, 8.0))
        write_field(f, tmp_path / "f.bin")
        argv = ["check", kind, "--field", str(tmp_path / "f.bin"), "--radii", "0.5,1,2,3",
                "--resolution", "96", "--format", "json"]
        assert main([*argv, "--out", str(tmp_path / "got")]) == 0
        monkeypatch.setattr(cli, "_nearest_grid_modulus", reference_nearest_grid_modulus)
        assert main([*argv, "--out", str(tmp_path / "want")]) == 0
        got = (tmp_path / "got" / "report.json").read_bytes()
        assert got == (tmp_path / "want" / "report.json").read_bytes()
