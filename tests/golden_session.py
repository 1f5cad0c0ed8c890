"""The fixed CLI session behind the behaviour contract, and its manifest.

The session factors a matrix, classifies an Alternative II, an
Alternative I and the d = 2 Wigner (x) Rihaczek matrix, verifies the
Alternative II certificate, builds the Alternative I counterexample,
sweeps its tfr.bin with `check beurling`, runs the four default checks
and runs each check once more with non-default flags.
Every command runs in-process through `mtfr.cli.main` in a fresh directory.

The manifest records each command's exit code, stdout and stderr, and
each file's sha256; a binary field is also summarized by its header,
sum |v|^2 and max |v|.  The reference in tests/golden/ holds the manifest
and every text file (the fields are summarized, not committed).  A
comparison takes strings and integers exactly and other numbers within
rel_tol 1e-12, abs_tol 1e-15, so another BLAS build's last bits pass;
the sha256 values are the byte audit and are compared only on request.

    PYTHONPATH=src python tests/golden_session.py                  # print the manifest
    PYTHONPATH=src python tests/golden_session.py --compare tests/golden/manifest.json
    PYTHONPATH=src python tests/golden_session.py --write tests/golden   # new reference
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile

import numpy as np

from mtfr.cli import main
from mtfr.serialize import read_field

S = 0.7071067811865476  # 1/sqrt(2)

# input name: rows of a symplectic matrix
INPUTS = {
    # R_U, U = (1/sqrt 2) ((1, i), (i, 1)): U^t U is not block-diagonal
    "alt2": [[S, 0, 0, S], [0, S, S, 0], [0, -S, S, 0], [-S, 0, 0, S]],
    # R_{iI}: U^t U = -I
    "alt1": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    # Wigner on the first axis, Rihaczek on the second: d = 2, k = 1
    "wigner_rihaczek": [
        [0.5, 0, 0.5, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0.5, 0, -0.5, 0], [0, 0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 1],
        [-1, 0, 1, 0, 0, 0, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0],
    ],
}

# (step, argv); "{w}" is the session directory
SESSION = [
    ("factor", ["factor", "{w}/in/alt2.json", "--out", "{w}/factor"]),
    ("classify-alt2", ["classify", "{w}/in/alt2.json", "--out", "{w}/alt2"]),
    ("classify-alt1", ["classify", "{w}/in/alt1.json", "--out", "{w}/alt1"]),
    ("classify-wigner-rihaczek",
     ["classify", "{w}/in/wigner_rihaczek.json", "--out", "{w}/wigner_rihaczek"]),
    ("verify", ["verify", "{w}/alt2/certificate.json", "--points", "200", "--seed", "7",
                "--out", "{w}/verify"]),
    ("counterexample", ["counterexample", "{w}/alt1/certificate.json", "--out", "{w}/cx"]),
    ("check-beurling-tfr",
     ["check", "beurling", "--field", "{w}/cx/tfr.bin", "--out", "{w}/beurling_tfr"]),
    ("check-beurling", ["check", "beurling", "--out", "{w}/beurling"]),
    ("check-hardy", ["check", "hardy", "--out", "{w}/hardy"]),
    ("check-gs", ["check", "gs", "--out", "{w}/gs"]),
    ("check-nazarov", ["check", "nazarov", "--out", "{w}/nazarov"]),
    # one non-default run per kind: each flag a kind reads reaches its report
    ("check-beurling-flags",
     ["check", "beurling", "--n-exponent", "2", "--radii", "1,2,3", "--resolution", "128",
      "--out", "{w}/beurling_flags"]),
    ("check-hardy-flags",
     ["check", "hardy", "--rmin", "1", "--rmax", "3", "--grid", "128@12",
      "--out", "{w}/hardy_flags"]),
    ("check-gs-flags",
     ["check", "gs", "--p", "3", "--alpha", "1.2", "--beta", "1.1", "--radii", "1,2,3",
      "--resolution", "128", "--format", "json", "--out", "{w}/gs_flags"]),
    ("check-nazarov-flags",
     ["check", "nazarov", "--s-halfwidth", "1.5", "--t-halfwidth", "1", "--imu", "0.8",
      "--constant", "2", "--grid", "128@12", "--out", "{w}/nazarov_flags"]),
]

REL_TOL = 1e-12
ABS_TOL = 1e-15
# a number not glued to a word, so the 22 of "+P22" stays text
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def run_session(workdir) -> dict:
    """Run the session in workdir (which must be empty) and return its manifest."""
    os.makedirs(os.path.join(workdir, "in"))
    for name, rows in INPUTS.items():
        with open(os.path.join(workdir, "in", f"{name}.json"), "w") as fh:
            json.dump({"n": len(rows) // 2, "rows": rows}, fh)
            fh.write("\n")
    steps = []
    for step, argv in SESSION:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(w=workdir) for a in argv])
        steps.append({"step": step, "argv": argv, "exit": code,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    files = {}
    for root, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                entry = {"sha256": hashlib.sha256(fh.read()).hexdigest()}
            if name.endswith(".bin"):
                field = read_field(path)
                sq = np.abs(field.values) ** 2
                entry.update(points=list(field.points), extents=list(field.extents),
                             sum_sq=float(np.sum(sq)), max_abs=float(np.sqrt(np.max(sq))))
            files[os.path.relpath(path, workdir).replace(os.sep, "/")] = entry
    return {"steps": steps, "files": dict(sorted(files.items()))}


def _same_number(a: str, b: str, rel_tol, abs_tol) -> bool:
    if a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit():
        return int(a) == int(b)
    return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)


def text_differences(what, ref: str, new: str, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> list:
    """Differences between two texts: integers and the text between numbers
    exactly, every other number within the tolerances."""
    if NUMBER.sub("#", ref) != NUMBER.sub("#", new):
        return [f"{what}: text differs\n  reference: {ref!r}\n  run:       {new!r}"]
    return [
        f"{what}: number {i}: reference {a}, run {b}"
        for i, (a, b) in enumerate(zip(NUMBER.findall(ref), NUMBER.findall(new)))
        if not _same_number(a, b, rel_tol, abs_tol)
    ]


def differences(reference: dict, ref_dir, manifest: dict, run_dir, byte_audit=False) -> list:
    """Every difference of a run from the reference: exit codes, stdout and
    stderr, file names, text file contents (read from ref_dir and run_dir)
    and field summaries; with byte_audit, also every differing sha256."""
    out = []
    ref_steps = {s["step"]: s for s in reference["steps"]}
    run_steps = {s["step"]: s for s in manifest["steps"]}
    if list(ref_steps) != list(run_steps):
        out.append(f"steps: reference {list(ref_steps)}, run {list(run_steps)}")
    for name in [s for s in ref_steps if s in run_steps]:
        ref, new = ref_steps[name], run_steps[name]
        for key in ("argv", "exit"):
            if ref[key] != new[key]:
                out.append(f"{name}: reference {key} {ref[key]}, run {key} {new[key]}")
        for stream in ("stdout", "stderr"):
            out += text_differences(f"{name} {stream}", ref[stream], new[stream])
    ref_files, run_files = reference["files"], manifest["files"]
    for path in sorted(ref_files.keys() ^ run_files.keys()):
        out.append(f"{path}: only in the {'reference' if path in ref_files else 'run'}")
    for path in sorted(ref_files.keys() & run_files.keys()):
        ref, new = ref_files[path], run_files[path]
        if byte_audit and ref["sha256"] != new["sha256"]:
            out.append(f"{path}: sha256 {ref['sha256'][:12]} -> {new['sha256'][:12]}")
        if path.endswith(".bin"):
            if (ref["points"], ref["extents"]) != (new["points"], new["extents"]):
                out.append(f"{path}: header differs")
            for key in ("sum_sq", "max_abs"):
                out += text_differences(f"{path} {key}", repr(ref[key]), repr(new[key]))
        else:
            with open(os.path.join(ref_dir, path)) as a, open(os.path.join(run_dir, path)) as b:
                out += text_differences(path, a.read(), b.read())
    return out


def write_reference(manifest: dict, run_dir, target) -> None:
    """Write target/manifest.json and every text file under target/reference/."""
    reference = os.path.join(target, "reference")
    shutil.rmtree(reference, ignore_errors=True)
    for path in manifest["files"]:
        if not path.endswith(".bin"):
            os.makedirs(os.path.dirname(os.path.join(reference, path)), exist_ok=True)
            shutil.copyfile(os.path.join(run_dir, path), os.path.join(reference, path))
    with open(os.path.join(target, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", metavar="MANIFEST",
                      help="print every difference, sha256 included, from MANIFEST "
                      "and the reference/ directory beside it; exit 1 if any")
    mode.add_argument("--write", metavar="DIR",
                      help="write DIR/manifest.json and DIR/reference/")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = os.path.join(tmp, "session")
        manifest = run_session(run_dir)
        if args.write:
            write_reference(manifest, run_dir, args.write)
            return 0
        if args.compare is None:
            json.dump(manifest, sys.stdout, indent=1)
            sys.stdout.write("\n")
            return 0
        with open(args.compare) as fh:
            reference = json.load(fh)
        ref_dir = os.path.join(os.path.dirname(args.compare), "reference")
        found = differences(reference, ref_dir, manifest, run_dir, byte_audit=True)
    print("\n".join(found) if found else "no differences")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(cli())
