"""The three closed-loop workloads of the mtfr benchmark.

Each workload builds all of its inputs from the seed in its constructor
(that is set-up), then serves ``op(i)``: one operation on the i-th input
of a fixed rotation, which raises on any failure and otherwise returns
the accuracy figures it checked against its gate.  ``cycle`` is the
length of one rotation of op kinds; a timed loop stops only at a whole
cycle so every run has the same mix.  ``period`` is the length of the
op stream's pattern: op i repeats op i - period exactly.  ``key(i)``
names the distinct op behind op i; ops with one key are the same work.

Library functions are always looked up on their module at call time
(``C.certify(...)``, never a name bound at import), so the traced run's
wrappers see the calls that the ops make.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import shutil
import tempfile
import warnings

import numpy as np

S = importlib.import_module("mtfr.symplectic")
Ga = importlib.import_module("mtfr.gaussian")
G = importlib.import_module("mtfr.grid")
C = importlib.import_module("mtfr.certify")
Se = importlib.import_module("mtfr.serialize")
CLI = importlib.import_module("mtfr.cli")
E = importlib.import_module("mtfr.errors")

# Gates, exactly as the test suite enforces them.
IDENTITY_TOL = 1e-8  # reduction identity, oracle pipeline (acceptance 04)
WORD_GRID_TOL = 1e-5  # word-applied grid cross-check (acceptance 04)
STFT_GRID_TOL = 1e-6  # grid-vs-oracle partial STFT (acceptance 10)
MASS_TOL = 1e-6  # counterexample mass outside the support (acceptance 06)


FIXED_WORD_SPREAD = 0.3  # see alt1_bold


class GateMiss(Exception):
    """An op returned a result outside its accuracy gate."""


def _check(value, tol, what):
    if not value <= tol:
        raise GateMiss(f"{what} {value:.3e} exceeds {tol:.0e}")
    return value


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def alt2_bold(d, rng):
    """Generic Alternative II input, as in acceptance 04."""
    word_seed = int(rng.integers(2**31))
    return S.random_symplectic(2 * d, 4, seed=word_seed) @ S.make_rotation(
        haar_unitary(2 * d, rng)
    )


def fixed_word_alt2_bold(d, rng):
    """Alternative II input V_Q D_L R_U whose words have the same letters for every seed.

    U = O1 diag(e^{i alpha}) O2 with alpha_1 in [0.05, 0.1] leaves Im U
    close to singular, so tau != 1: the matrix word and word_A, word_B
    each carry the scalar rotation letters, and the per-point cost of a
    verify does not depend on the seed.  Q, L and the other phases are
    generic, and U^t U = O2^t diag(e^{2i alpha}) O2 is not block-diagonal.
    """
    n = 2 * d
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    b = rng.uniform(-0.3, 0.3, size=(n, n))
    alpha = rng.uniform(np.pi / 4, 3 * np.pi / 4, size=n)
    alpha[0] = rng.uniform(0.05, 0.1)
    u = haar_orthogonal(n, rng) * np.exp(1j * alpha) @ haar_orthogonal(n, rng)
    return S.make_chirp(0.5 * (a + a.T)) @ S.make_dilation(np.eye(n) + b @ b.T) @ S.make_rotation(u)


def alt1_bold(d, rng, spread=np.pi / 4):
    """Alternative I input R_{W diag(e^{i theta})}, theta within pi/2 +- spread.

    The default spread is acceptance 06's range.  Within 0.3 of pi/2 both
    Takagi phases keep tau = 1, so every counterexample word has the same
    letters and the same grid cost, whatever the seed.
    """
    theta = rng.uniform(np.pi / 2 - spread, np.pi / 2 + spread, size=2 * d)
    return S.make_rotation(haar_orthogonal(2 * d, rng) * np.exp(1j * theta))


def resolved_gaussian(n, rng):
    """Gaussian whose space and frequency spread fit a coarse grid.

    Re M has eigenvalues in ~[0.8, 1.3] and Im M and b stay small, so the
    function and its spectrum decay below 1e-9 inside a sqrt(N) x sqrt(N)
    extent; the library's random_gaussian can be too wide for the 32^2
    grid of the k = 2 kind.
    """
    a = rng.uniform(-0.3, 0.3, size=(n, n))
    t = rng.uniform(-0.15, 0.15, size=(n, n))
    m = 0.8 * np.eye(n) + a @ a.T + 0.5j * (t + t.T)
    b = rng.uniform(-0.25, 0.25, size=n) + 1j * rng.uniform(-0.25, 0.25, size=n)
    return Ga.GeneralizedGaussian(m, b, float(rng.uniform(-0.3, 0.3)))


# ---------------------------------------------------------------------------


class Workload:
    """Defaults: every op in a period is distinct, and closing frees nothing."""

    def key(self, i):
        return i % self.period

    def close(self):
        pass


class CertifyStream(Workload):
    """Oracle pipeline: certify, verify and serialize; no grid work."""

    name = "certify_stream"
    cycle = 24  # d = 1, 2, 3 in turn; every eighth op is Alternative I
    pool = period = 96

    def __init__(self, seed, points=100):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(self.pool):
            d = 1 + i % 3
            if i % 8 == 7:
                self.inputs.append((alt1_bold(d, rng), "I", None))
            else:
                bold = alt2_bold(d, rng)
                f, g = Ga.random_gaussian(d, rng), Ga.random_gaussian(d, rng)
                pts = rng.uniform(-3.0, 3.0, size=(points, 2 * d))
                self.inputs.append((bold, "II", (f, g, pts)))

    def op(self, i):
        bold, alternative, probe = self.inputs[i % self.pool]
        cert = C.certify(bold)
        if cert.alternative != alternative:
            raise GateMiss(f"classified {cert.alternative}, built as {alternative}")
        gates = {}
        if probe is not None:
            err = C.verify_identity(cert, *probe)
            gates["identity_err"] = _check(err, IDENTITY_TOL, "identity error")
        Se.canonical_json(Se.certificate_to_obj(cert))
        return gates


class GridTransform(Workload):
    """FFT grid engine at two sizes against the closed-form oracle.

    Kinds: (a) d = 1 words and a k = 1 partial STFT at N = 256 on extent 16,
    (b) the same at the large size, (c) a d = 2, k = 2 partial STFT on a
    32^2 grid, (d) an Alternative I compact-support counterexample.  The
    rotation a, a, d, d, c, b puts the median in the middle of kind (d)'s
    latency band and the 90th percentile inside kind (b)'s.  Kinds a, c and
    d rotate through three certificates and Gaussian pairs; kind (b), at
    about 0.8 s the longest op, always takes the first, so that its one
    op repeats every cycle and its fastest repeat is taken over about 30.
    """

    name = "grid_transform"
    kinds = ("a", "a", "d", "d", "c", "b")
    cycle = len(kinds)
    pool = 3
    period = cycle * pool
    k2_points = 32
    k2_extent = float(np.sqrt(32.0))  # equal reach in space and frequency

    def __init__(self, seed, large=(1024, 32.0)):
        # N = T^2 keeps a Fourier letter's extent flip T -> N/T exact, and
        # partial_stft_slice needs f and g on one grid.
        self.sizes = {"a": (256, 16.0), "b": large}
        rng = np.random.default_rng(seed)
        self.alt2 = []
        # phi in [0.85, 1.05] keeps tau = 1: word_A and word_B hold three
        # dilations for every seed, so the grid cost does not depend on it
        for _ in range(self.pool):
            phi = rng.uniform(0.85, 1.05)
            u = np.array(
                [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]]
            )
            self.alt2.append(C.certify(S.make_rotation(u)))
        self.alt1 = [C.certify(alt1_bold(1, rng, FIXED_WORD_SPREAD)) for _ in range(self.pool)]
        self.pairs1 = [
            (resolved_gaussian(1, rng), resolved_gaussian(1, rng)) for _ in range(self.pool)
        ]
        self.pairs2 = [
            (resolved_gaussian(2, rng), resolved_gaussian(2, rng)) for _ in range(self.pool)
        ]
        warnings.simplefilter("ignore", E.ChirpAliasingWarning)

    def key(self, i):
        kind = self.kinds[i % self.cycle]
        return kind, 0 if kind == "b" else (i // self.cycle) % self.pool

    def op(self, i):
        kind, j = self.key(i)
        if kind in ("a", "b"):
            return self._word_stft(j, *self.sizes[kind])
        if kind == "c":
            return self._stft_k2(j)
        return self._counterexample(j)

    def _word_stft(self, j, npts, extent):
        cert = self.alt2[j]
        a2 = cert.alt2
        f, g = self.pairs1[j]
        af = G.apply_word_grid(G.sample(f, (npts,), (extent,)), a2.word_a)
        bg = G.apply_word_grid(G.sample(g, (npts,), (extent,)), a2.word_b)
        v = G.partial_stft_slice(af, bg, 1)
        # interior points, about 13 per axis in [-2, 2]
        ii = np.nonzero(np.abs(v.coords(0)) <= 2.0)[0]
        jj = np.nonzero(np.abs(v.coords(1)) <= 2.0)[0]
        ii, jj = ii[:: max(1, ii.size // 13)], jj[:: max(1, jj.size // 13)]
        mu = np.stack(np.meshgrid(v.coords(0)[ii], v.coords(1)[jj], indexing="ij"), -1)
        lam = mu.reshape(-1, 2) @ a2.omega.T
        big = Ga.apply_word(Ga.tensor(f, Ga.conjugate(g)), cert.word_bold)
        lhs = np.exp(Ga.log_modulus(big, lam))
        _, logdet = np.linalg.slogdet(a2.omega)
        rhs = np.abs(v.values[np.ix_(ii, jj)]).ravel() * np.exp(-0.5 * logdet)
        keep = lhs > 1e-7
        err = float(np.max(np.abs(lhs[keep] - rhs[keep]) / lhs[keep]))
        return {"oracle_err": _check(err, WORD_GRID_TOL, "word grid cross-check")}

    def _stft_k2(self, j):
        f, g = self.pairs2[j]
        grid = ((self.k2_points,) * 2, (self.k2_extent,) * 2)
        v = G.partial_stft_slice(G.sample(f, *grid), G.sample(g, *grid), 2)
        c = self.k2_points // 2
        axis = np.arange(c - 4, c + 5)
        idx = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), -1)
        idx = idx.reshape(-1, 4)[::7]
        x = np.stack([v.coords(0)[idx[:, 0]], v.coords(1)[idx[:, 1]]], -1)
        om = np.stack([v.coords(2)[idx[:, 2]], v.coords(3)[idx[:, 3]]], -1)
        want = Ga.partial_stft_point(f, g, 2, x, om)
        got = np.abs(v.values[tuple(idx.T)])
        keep = want > 1e-8
        err = float(np.max(np.abs(got[keep] - want[keep]) / want[keep]))
        return {"oracle_err": _check(err, STFT_GRID_TOL, "grid-vs-oracle STFT")}

    def _counterexample(self, j):
        cx = C.counterexample_alt1(self.alt1[j], bump_box=(-2.0, 2.0), points=256, extent=16.0)
        mass = G.mass_outside(C.alt1_tfr_tensor(cx), ([-2.0, -2.0], [2.0, 2.0]))
        return {"mass_outside": _check(mass, MASS_TOL, "mass outside support")}


class CliSession(Workload):
    """The CLI in-process through mtfr.cli.main, seven commands a session.

    Each session directory holds an Alternative II matrix (d alternating
    1 and 2) and an Alternative I matrix (d = 1).  A session runs factor,
    classify on both, verify (one oracle call per point), counterexample
    (writes binary fields), check beurling on the written field, and one
    of check hardy|gs|nazarov in rotation (one per session directory).
    """

    name = "cli_session"
    cycle = 7
    sessions = 3  # period 21: each command repeats about twenty times a run
    period = cycle * sessions
    checks = ("hardy", "gs", "nazarov")
    # 256 nodes per axis puts beurling with factor, classify and hardy in
    # the fast half of a session, so the median falls inside one latency
    # band instead of on the edge between two
    beurling_resolution = 256
    _value = re.compile(r"PASS \D*([0-9.eE+-]+)")

    def __init__(self, seed, workdir, points=150):
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.points = points
        self.dirs, self.verify_seeds = [], []
        for s in range(self.sessions):
            path = os.path.join(self.root, f"s{s}")
            os.makedirs(path)
            for fname, bold in (
                ("alt2.json", fixed_word_alt2_bold(1 + s % 2, rng)),
                ("alt1.json", alt1_bold(1, rng, FIXED_WORD_SPREAD)),
            ):
                rows = [list(map(float, r)) for r in bold.entries]
                with open(os.path.join(path, fname), "w") as fh:
                    json.dump({"n": bold.n, "rows": rows}, fh)
            self.dirs.append(path)
            self.verify_seeds.append(int(rng.integers(2**31)))

    def argv(self, i):
        n = i // self.cycle
        s = n % self.sessions
        ii, i1 = os.path.join(self.dirs[s], "ii"), os.path.join(self.dirs[s], "i")
        chk = os.path.join(self.dirs[s], "chk")
        alt2 = os.path.join(self.dirs[s], "alt2.json")
        alt1 = os.path.join(self.dirs[s], "alt1.json")
        return (
            ["factor", alt2, "--out", os.path.join(self.dirs[s], "factor")],
            ["classify", alt2, "--out", ii],
            ["classify", alt1, "--out", i1],
            ["verify", os.path.join(ii, "certificate.json"), "--points", str(self.points),
             "--seed", str(self.verify_seeds[s]), "--tol", str(IDENTITY_TOL), "--out", ii],
            ["counterexample", os.path.join(i1, "certificate.json"), "--out", i1],
            ["check", "beurling", "--field", os.path.join(i1, "tfr.bin"),
             "--resolution", str(self.beurling_resolution), "--out", chk],
            ["check", self.checks[n % len(self.checks)], "--out", chk],
        )[i % self.cycle]

    def op(self, i):
        argv = self.argv(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = CLI.main(argv)
        text = out.getvalue()
        if rc != 0 or "FAIL" in text:
            raise GateMiss(f"mtfr {argv[0]} exit {rc}: {(text + err.getvalue()).strip()}")
        if argv[0] == "verify":
            return {"identity_err": _check(self._passed(text), IDENTITY_TOL, "identity error")}
        if argv[0] == "counterexample":
            return {"mass_outside": _check(self._passed(text), MASS_TOL, "mass outside support")}
        return {}

    def _passed(self, text):
        match = self._value.search(text)
        if match is None:
            raise GateMiss(f"no PASS line in {text!r}")
        return float(match.group(1))

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def make(name, seed, workdir, small=False):
    """Build a workload; ``small`` shrinks the largest sizes for smoke tests."""
    if name == CertifyStream.name:
        return CertifyStream(seed, points=20 if small else 100)
    if name == GridTransform.name:
        return GridTransform(seed, large=(256, 16.0) if small else (1024, 32.0))
    if name == CliSession.name:
        return CliSession(seed, workdir, points=50 if small else 150)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (CertifyStream.name, GridTransform.name, CliSession.name)
