import json
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import mtfr
from mtfr.cli import main
from mtfr.gaussian import standard_gaussian
from mtfr.grid import sample
from mtfr.serialize import canonical_json, matrix_to_obj, write_field
from mtfr.symplectic import make_rotation, standard_j


@pytest.fixture
def j_matrix(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(canonical_json(matrix_to_obj(standard_j(1))))
    return str(path)


@pytest.fixture
def alt1_matrix(tmp_path):
    path = tmp_path / "riI2.json"
    path.write_text(canonical_json(matrix_to_obj(make_rotation(1j * np.eye(2)))))
    return str(path)


@pytest.fixture
def alt2_matrix(tmp_path):
    u = (1.0 / np.sqrt(2.0)) * np.array([[1.0, 1j], [1j, 1.0]])
    path = tmp_path / "alt2.json"
    path.write_text(canonical_json(matrix_to_obj(make_rotation(u))))
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

    def test_odd_half_dimension_exit_2(self, j_matrix):
        assert main(["classify", j_matrix]) == 2

    def test_certification_assertion_exit_3(self, tmp_path, capsys):
        # a generic Alternative I matrix: at tol-blk 1e-20 the rounding-level
        # off-diagonal block counts as Alternative II, and its rank is zero
        c, s = np.cos(0.7), np.sin(0.7)
        u = np.array([[c, -s], [s, c]]) * np.exp(1j * np.array([1.3, 1.9]))
        path = tmp_path / "alt1_generic.json"
        path.write_text(canonical_json(matrix_to_obj(make_rotation(u))))
        assert main(["classify", str(path)]) == 0
        capsys.readouterr()
        assert main(["classify", str(path), "--tol-blk", "1e-20"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

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
        obj["Omega"]["rows"][0][0] += 1e-2
        bad = tmp_path / "bad_cert.json"
        bad.write_text(canonical_json(obj))
        assert main(["verify", str(bad), "--points", "20"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_zero_points_exit_2(self, alt2_matrix, tmp_path):
        cert = self._cert(alt2_matrix, tmp_path)
        assert main(["verify", cert, "--points", "0"]) == 2

    def test_alt1_certificate_rejected(self, alt1_matrix, tmp_path):
        out = tmp_path / "c1"
        main(["classify", alt1_matrix, "--out", str(out)])
        assert main(["verify", str(out / "certificate.json")]) == 2


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

    def test_gs_bad_p_exit_2(self):
        assert main(["check", "gs", "--p", "0.5"]) == 2

    def test_nazarov_singular_imu_exit_2(self, capsys):
        assert main(["check", "nazarov", "--imu", "0"]) == 2
        assert "hypothesis" in capsys.readouterr().err

    def test_nazarov_report(self, tmp_path):
        out = tmp_path / "n"
        assert main(["check", "nazarov", "--grid", "512@32", "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        assert obj["ball_width_check"] == 2.0
        assert obj["lhs"] > 0


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


def _run_python(argv, env=None):
    """Run a fresh interpreter on argv, with this checkout's mtfr importable."""
    src = os.path.dirname(os.path.dirname(mtfr.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


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
    }

    @pytest.fixture
    def inputs(self, tmp_path, alt2_matrix):
        field = tmp_path / "field.bin"
        write_field(sample(standard_gaussian(1), (64,), (8.0,)), field)
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(field.read_bytes()[:-16])
        paths = {"truncated": str(truncated), "missing": str(tmp_path / "missing.bin")}
        for alt in ("I", "II"):
            cert = tmp_path / f"cert{alt}.json"
            cert.write_text(f'{{"alternative": "{alt}", "d": 1}}')
            paths[f"cert{alt}"] = str(cert)
        for name, text in self.FILES.items():
            (tmp_path / f"{name}.json").write_text(text)
            paths[name] = str(tmp_path / f"{name}.json")
        assert main(["classify", alt2_matrix, "--out", str(tmp_path / "c2")]) == 0
        paths["alt2_cert"] = str(tmp_path / "c2" / "certificate.json")
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
        ],
        ids=["truncated-field", "bad-radii", "nan-radius", "missing-field",
             "verify-cert", "cx-cert", "nan-matrix", "json-array", "odd-matrix",
             "gaussian-keys", "gaussian-not-pd", "gaussian-dimension", "nan-box",
             "nan-tol", "negative-seed", "zero-resolution", "negative-resolution",
             "nan-exponent", "bad-flag"],
    )
    def test_exit_2_with_one_line(self, inputs, argv):
        proc = _run_python(["-m", "mtfr.cli", *(a.format(**inputs) for a in argv)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_overflowing_matrix_exit_2(self, inputs):
        # numpy may warn about the overflow first; the error is still one line
        proc = _run_python(["-m", "mtfr.cli", "factor", inputs["huge_matrix"]])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")


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
        proc = _run_python(["-c", probe], env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {v: "1" for v in self.THREAD_VARS}

    def test_submodules_are_not_shadowed(self):
        import mtfr.certify as C

        assert isinstance(C, types.ModuleType)
        assert callable(C.certify)
