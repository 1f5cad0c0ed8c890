"""JSON, CSV, and binary wire formats.

JSON output is rendered by a small canonical writer with floats fixed to
17 significant digits, so identical inputs produce byte-identical files.
Fields travel as little-endian binary: magic "MTFR", version u32, n u32,
per-axis (points u64, extent f64), then interleaved (re, im) f64.  Files
are written to a temporary name and renamed into place.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from json.encoder import encode_basestring

import numpy as np

from .certify import (
    AltIData,
    AltIIData,
    Certificate,
    _alt2_omega,
    _alt2_words,
    _assert_rebuilds_bold,
    _pi_permutation,
)
from .errors import DimensionMismatch, GridTooLarge, MtfrError, Singular
from .grid import MAX_ELEMENTS, SampledField
from .gaussian import GeneralizedGaussian
from .symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    PreIwasawa,
    SymplecticMatrix,
    _blkdiag,
    _within,
    assert_unitary,
)
from .unitary import TOL_RECON, assert_product, assert_rebuilds

FIELD_MAGIC = b"MTFR"
FIELD_VERSION = 1

__all__ = [
    "canonical_json",
    "json_float",
    "matrix_to_obj",
    "matrix_from_obj",
    "complex_matrix_to_obj",
    "complex_matrix_from_obj",
    "word_to_obj",
    "word_from_obj",
    "pre_iwasawa_to_obj",
    "gaussian_to_obj",
    "gaussian_from_obj",
    "certificate_to_obj",
    "certificate_from_obj",
    "write_field",
    "read_field",
    "sweep_to_csv",
]


_NON_FINITE = "JSON output cannot carry NaN or infinity"


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    return format(float(x), ".17g")


def _render(obj, out: list):
    # a certificate is mostly plain floats in rows, then dicts and lists:
    # those types are tested first (no type is both a container and a
    # scalar); numpy scalars and subclasses take the isinstance tests
    kind = type(obj)
    if kind is float:
        out.append(_fmt_float(obj))
    elif (kind is list or kind is tuple) and all(type(val) is float for val in obj):
        # one format call per row; only nan and inf put an "n" in a %.17g form
        row = ("[" + ",".join(["%.17g"] * len(obj)) + "]") % tuple(obj)
        if "n" in row:
            raise ValueError(_NON_FINITE)
        out.append(row)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(encode_basestring(str(key)))
            out.append(":")
            _render(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _render(val, out)
        out.append("]")
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: insertion order, 17 significant digits, and
    strings quoted as the json module quotes them (control characters escaped)."""
    out: list = []
    _render(obj, out)
    return "".join(out) + "\n"


def json_float(value, what):
    """A report number as JSON can carry it: +inf (the only infinity the reports
    hold) is the token "inf", in JSON and the sweep CSV alike; NaN is an input error."""
    if math.isnan(value):
        raise MtfrError(f"{what} is not a number: the parameters overflow the report")
    return value if math.isfinite(value) else "inf"


# ---------------------------------------------------------------------------
# matrices and words


@contextlib.contextmanager
def _malformed(what: str):
    """Re-raise a missing key, a bad value or a rejected object as `MtfrError`."""
    try:
        yield
    except KeyError as exc:
        raise MtfrError(f"malformed {what}: missing key {exc}") from exc
    except (MtfrError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise MtfrError(f"malformed {what}: {exc}") from exc


def _half_or_size(rows: int) -> int:
    """The "n" a matrix object carries: half the row count when it is even."""
    return rows // 2 if rows % 2 == 0 else rows


def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": _half_or_size(m.shape[0]), "rows": m.tolist()}


def _numbers(value, shape, what: str) -> np.ndarray:
    """The JSON numbers in value, nested in exactly the given shape, as floats;
    any other nesting, or an entry that is not a number (a bool, a string, null,
    a list) or not finite as a float (a huge integer too), raises `MtfrError`."""
    items = np.array(value, dtype=object)
    if items.ndim > len(shape):  # its shape can run to numpy's 64 axes
        raise DimensionMismatch(f"{what} is nested deeper than its {len(shape)} axes")
    if items.shape != shape:
        raise DimensionMismatch(f"{what} has shape {items.shape}, need {shape}")
    if any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, items.flat))):
        raise MtfrError(f"{what} entries must be JSON numbers")
    with contextlib.suppress(OverflowError):  # an integer beyond the float range
        values = items.astype(float)
        if np.isfinite(values).all():
            return values
    raise MtfrError(f"{what} entries must be finite")


def matrix_from_obj(obj, shape=None, what="matrix") -> np.ndarray:
    """Real matrix in the given shape (square when None); bad input raises `MtfrError`.

    An "n", when present, must be the JSON integer `matrix_to_obj` writes
    for the rows.
    """
    with _malformed(what):
        rows = obj["rows"]
        shape = shape or (len(rows),) * 2
    m = _numbers(rows, shape, what)
    if "n" in obj and _json_int(obj["n"], f"{what} n") != _half_or_size(shape[0]):
        raise DimensionMismatch(f"{what} has {shape[0]} rows, so its n must be "
                                f"{_half_or_size(shape[0])}")
    return m


def complex_matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "n": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def complex_matrix_from_obj(obj, shape=None, what="complex matrix") -> np.ndarray:
    """Complex matrix in the given shape (square when None); bad input raises `MtfrError`."""
    with _malformed(what):
        re, im = obj["re"], obj["im"]
        shape = shape or (len(re),) * 2
    return _numbers(re, shape, what) + 1j * _numbers(im, shape, what)


def word_to_obj(word: GeneratorWord) -> list:
    letters = []
    for letter in word.letters:
        if isinstance(letter, Chirp):
            letters.append({"kind": "chirp", "q": letter.q.tolist()})
        elif isinstance(letter, Dilation):
            letters.append({"kind": "dilation", "l": letter.l.tolist()})
        elif isinstance(letter, PartialFourier):
            letters.append({"kind": "pfourier", "axes": list(letter.axes)})
    return letters


def _json_int(value, what: str) -> int:
    """value itself when it is a JSON integer (a bool is not); otherwise `MtfrError`."""
    if type(value) is not int:
        raise MtfrError(f"{what} must be an integer, got {value!r}")
    return value


def word_from_obj(n: int, obj) -> GeneratorWord:
    letters = []
    for item in obj:
        kind = item["kind"]
        if kind == "chirp":
            letters.append(Chirp(_numbers(item["q"], (n, n), "chirp")))
        elif kind == "dilation":
            letters.append(Dilation(_numbers(item["l"], (n, n), "dilation")))
        elif kind == "pfourier":
            letters.append(PartialFourier(tuple(_json_int(a, "axis") for a in item["axes"])))
        else:
            raise DimensionMismatch(f"unknown letter kind {kind!r}")
    return GeneratorWord(n, tuple(letters))


def _require_word(got: GeneratorWord, want: GeneratorWord, what: str, free=None):
    """Raise `MtfrError` unless got has want's letters: the same kinds and
    Fourier axes, and each matrix within TOL_RECON max(1, ||want's||_F),
    but the matrix of the letter at index free, which may be any."""

    def same(i, a, b):
        if type(a) is not type(b):
            return False
        if isinstance(a, PartialFourier):
            return a.axes == b.axes
        x, y = (a.q, b.q) if isinstance(a, Chirp) else (a.l, b.l)
        return i == free or _within(np.linalg.norm(x - y), TOL_RECON, np.linalg.norm(y))

    if len(got) != len(want) or not all(map(same, range(len(got)), got.letters, want.letters)):
        raise MtfrError(f"{what} is not the word that the certificate's factors give")


def gaussian_to_obj(g: GeneralizedGaussian) -> dict:
    return {
        "n": g.n,
        "M_re": g.m.real.tolist(),
        "M_im": g.m.imag.tolist(),
        "b_re": g.b.real.tolist(),
        "b_im": g.b.imag.tolist(),
        "logamp": float(g.logamp),
    }


def gaussian_from_obj(obj) -> GeneralizedGaussian:
    """Inverse of `gaussian_to_obj`; parts that do not fit the integer n raise `MtfrError`."""
    with _malformed("Gaussian"):
        n = _json_int(obj["n"], "n")
        m = _numbers(obj["M_re"], (n, n), "M_re") + 1j * _numbers(obj["M_im"], (n, n), "M_im")
        b = _numbers(obj["b_re"], (n,), "b_re") + 1j * _numbers(obj["b_im"], (n,), "b_im")
        return GeneralizedGaussian(m, b, _numbers(obj["logamp"], (), "logamp"))


# ---------------------------------------------------------------------------
# certificates


def pre_iwasawa_to_obj(pre: PreIwasawa) -> dict:
    return {
        "Q": matrix_to_obj(pre.q),
        "L": matrix_to_obj(pre.l),
        "U": complex_matrix_to_obj(pre.u),
    }


def certificate_to_obj(cert) -> dict:
    obj = {
        "alternative": cert.alternative,
        "d": cert.d,
        "offdiag_norm": float(cert.offdiag_norm),
        "warnings": list(cert.warnings),
        "intermediates": {
            "bold_matrix": matrix_to_obj(cert.bold.entries),
            "pre_iwasawa": pre_iwasawa_to_obj(cert.pre),
            "word_bold": word_to_obj(cert.word_bold),
        },
    }
    if cert.alternative == "I":
        obj["W"] = matrix_to_obj(cert.alt1.w)
        obj["V1"] = complex_matrix_to_obj(cert.alt1.v1)
        obj["V2"] = complex_matrix_to_obj(cert.alt1.v2)
    else:
        a2 = cert.alt2
        obj["tau"] = {"re": float(np.real(a2.tau)), "im": float(np.imag(a2.tau))}
        obj["k"] = a2.k
        obj["Omega"] = matrix_to_obj(a2.omega)
        obj["word_A"] = word_to_obj(a2.word_a)
        obj["word_B"] = word_to_obj(a2.word_b)
        obj["intermediates"].update(
            {
                "P": matrix_to_obj(a2.p),
                "Gamma1": list(map(float, a2.gamma1)),
                "W1": matrix_to_obj(a2.w1),
                "W2": matrix_to_obj(a2.w2),
                "Pi": matrix_to_obj(a2.pi),
                "chirp_sign": a2.chirp_sign,
                "omega_condition": float(np.linalg.cond(a2.omega)),
            }
        )
    return obj


def certificate_from_obj(obj) -> Certificate:
    """Inverse of `certificate_to_obj`; malformed input raises `MtfrError`.

    Every number is a finite JSON number (offdiag_norm >= 0) and d, k and
    the Fourier axes are JSON integers; warnings is a list of strings and
    the chirp sign -P22 or +P22 (-P22 when absent).  Every block has its
    shape for d (Gamma1 has k entries, 1 <= k <= d) and Omega is invertible.
    Within TOL_RECON, word_bold and the pre-Iwasawa factors rebuild
    bold_matrix, W diag(V1, V2) with V1, V2 unitary rebuilds U, and
    L Im(tau U) diag(W1, W2) diag(Gamma1, I) Pi rebuilds Omega, with Pi the
    block permutation for (d, k) and Im(tau U) P = Re(tau U); word_A and
    word_B have the letters that P, W1, W2, Gamma1, tau and the chirp sign
    give (`_alt2_words`), each matrix within TOL_RECON but word_A's leading
    Gamma1 dilation.
    """
    with _malformed("certificate"):
        inter = obj["intermediates"]
        d = _json_int(obj["d"], "d")
        warnings = obj.get("warnings", [])
        if type(warnings) is not list or not all(type(w) is str for w in warnings):
            raise MtfrError(f"warnings must be a list of strings, got {warnings!r}")
        offdiag_norm = _numbers(obj["offdiag_norm"], (), "offdiag_norm").item()
        if offdiag_norm < 0.0:
            raise MtfrError(f"offdiag_norm must be >= 0, got {offdiag_norm}")
        full, half = (2 * d, 2 * d), (d, d)
        factors = inter["pre_iwasawa"]
        pre = PreIwasawa(
            matrix_from_obj(factors["Q"], full, "Q"),
            matrix_from_obj(factors["L"], full, "L"),
            complex_matrix_from_obj(factors["U"], full, "U"),
        )
        bold = matrix_from_obj(inter["bold_matrix"], (4 * d, 4 * d), "bold_matrix")
        bold = SymplecticMatrix.from_array(bold)
        word_bold = word_from_obj(2 * d, inter["word_bold"])
        _assert_rebuilds_bold(pre, word_bold, bold)
        alternative = obj["alternative"]
        alt1 = alt2 = None
        if alternative == "I":
            alt1 = AltIData(
                w=matrix_from_obj(obj["W"], full, "W"),
                v1=complex_matrix_from_obj(obj["V1"], half, "V1"),
                v2=complex_matrix_from_obj(obj["V2"], half, "V2"),
            )
            v = _blkdiag(assert_unitary(alt1.v1, what="V1"), assert_unitary(alt1.v2, what="V2"))
            assert_product(alt1.w, v, pre.u, "W diag(V1, V2) = U")
        elif alternative == "II":
            k = _json_int(obj["k"], "k")
            if not 1 <= k <= d:
                raise DimensionMismatch(f"need 1 <= k <= d, got k = {k}, d = {d}")
            omega = matrix_from_obj(obj["Omega"], full, "Omega")
            if np.linalg.slogdet(omega)[0] == 0.0:
                raise Singular("Omega is singular")
            chirp_sign = inter.get("chirp_sign", "-P22")
            if chirp_sign not in ("-P22", "+P22"):
                raise MtfrError(f"chirp_sign must be -P22 or +P22, got {chirp_sign!r}")
            alt2 = AltIIData(
                tau=complex(*_numbers([obj["tau"]["re"], obj["tau"]["im"]], (2,), "tau")),
                k=k,
                p=matrix_from_obj(inter["P"], full, "P"),
                w1=matrix_from_obj(inter["W1"], half, "W1"),
                gamma1=_numbers(inter["Gamma1"], (k,), "Gamma1"),
                w2=matrix_from_obj(inter["W2"], half, "W2"),
                pi=matrix_from_obj(inter["Pi"], full, "Pi"),
                omega=omega,
                word_a=word_from_obj(d, obj["word_A"]),
                word_b=word_from_obj(d, obj["word_B"]),
                chirp_sign=chirp_sign,
            )
            if not np.array_equal(alt2.pi, _pi_permutation(d, k)):
                raise MtfrError(f"Pi is not the block permutation for d = {d}, k = {k}")
            tau_u = alt2.tau * pre.u
            assert_rebuilds(
                _alt2_omega(pre.l, tau_u.imag, alt2.w1, alt2.w2, alt2.gamma1, alt2.pi),
                omega,
                "L Im(tau U) diag(W1, W2) diag(Gamma1, I) Pi is off Omega by",
            )
            assert_product(tau_u.imag, alt2.p, tau_u.real, "Im(tau U) P = Re(tau U)")
            word_a, word_b = _alt2_words(
                d, alt2.tau, alt2.p, alt2.w1, alt2.gamma1, alt2.w2, chirp_sign)
            # word_A's leading Dilation(diag(Gamma1) + I) is left free: with
            # Gamma1 and Omega rescaled together the file still reads, and it
            # is the identity (`verify`, exit 4) that finds the odd scale
            _require_word(alt2.word_a, word_a, "word_A", free=0)
            _require_word(alt2.word_b, word_b, "word_B")
        else:
            raise MtfrError(f"unknown certificate alternative {alternative!r}")
        return Certificate(
            alternative=alternative,
            d=d,
            offdiag_norm=offdiag_norm,
            pre=pre,
            bold=bold,
            word_bold=word_bold,
            alt1=alt1,
            alt2=alt2,
            warnings=tuple(warnings),
        )


# ---------------------------------------------------------------------------
# files, binary fields and CSV


def _atomic_write(path, *chunks):
    """Write str or bytes chunks to a temporary file, then rename it over path.

    The temporary file is created by plain ``open`` next to path, so the
    result gets the usual umask permissions.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    mode = "w" if isinstance(chunks[0], str) else "wb"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(field: SampledField, path):
    header = [FIELD_MAGIC, struct.pack("<II", FIELD_VERSION, field.n)]
    for a in range(field.n):
        header.append(struct.pack("<Qd", field.points[a], field.extents[a]))
    # the payload is the values themselves: little-endian complex128, C order
    payload = np.ascontiguousarray(field.values, dtype="<c16")
    _atomic_write(path, b"".join(header), payload)


def read_field(path) -> SampledField:
    """Read an MTFR field, checking the header against the file size before allocating."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != FIELD_MAGIC:
            raise DimensionMismatch(f"bad field magic {head[:4]!r}")
        version, n = struct.unpack("<II", head[4:])
        if version != FIELD_VERSION:
            raise DimensionMismatch(f"unsupported field version {version}")
        payload = size - 12 - 16 * n  # each axis header and each value take 16 bytes
        if payload < 0:
            raise DimensionMismatch(f"field header for {n} axes is truncated")
        points, extents = [], []
        for _ in range(n):
            p, t = struct.unpack("<Qd", fh.read(16))
            points.append(int(p))
            extents.append(float(t))
        count = math.prod(points)
        if count > MAX_ELEMENTS:
            raise GridTooLarge(f"field of {count} values exceeds {MAX_ELEMENTS}")
        if payload != 16 * count:
            raise DimensionMismatch(
                f"field payload is {payload} bytes; its header needs {16 * count}"
            )
        # the payload lands in the array the field takes over: no bytes object
        # and no second copy is alive beside it
        values = np.empty(points, dtype="<c16")
        if fh.readinto(values.reshape(-1).view(np.uint8)) != payload:
            raise DimensionMismatch(f"field payload ended before its {payload} bytes")
    return SampledField(values, tuple(extents))


def sweep_to_csv(report) -> str:
    """CSV text with columns R, value, ratio (ratio empty on the first row)."""
    ratios = [_fmt_float(x) if math.isfinite(x) else json_float(x, "ratio") for x in report.ratios]
    lines = [f"{_fmt_float(r)},{_fmt_float(v)},{ratio}"
             for (r, v), ratio in zip(report.sweep, ["", *ratios])]
    return "\n".join(["R,value,ratio", *lines]) + "\n"
