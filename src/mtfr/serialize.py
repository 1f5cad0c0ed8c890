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

import numpy as np

from .certify import AltIData, AltIIData, Certificate
from .errors import DimensionMismatch, GridTooLarge, MtfrError
from .grid import MAX_ELEMENTS, SampledField
from .gaussian import GeneralizedGaussian
from .symplectic import (
    Chirp,
    Dilation,
    GeneratorWord,
    PartialFourier,
    PreIwasawa,
    SymplecticMatrix,
)

FIELD_MAGIC = b"MTFR"
FIELD_VERSION = 1

__all__ = [
    "canonical_json",
    "matrix_to_obj",
    "matrix_from_obj",
    "complex_matrix_to_obj",
    "complex_matrix_from_obj",
    "word_to_obj",
    "word_from_obj",
    "gaussian_to_obj",
    "gaussian_from_obj",
    "certificate_to_obj",
    "certificate_from_obj",
    "write_field",
    "read_field",
    "sweep_to_csv",
]


def _fmt_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        raise ValueError("JSON output cannot carry NaN or infinity")
    s = format(float(x), ".17g")
    return s


def _render(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            _render(str(key), out)
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
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: insertion order, 17 significant digits."""
    out: list = []
    _render(obj, out)
    return "".join(out) + "\n"


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


def matrix_to_obj(m) -> dict:
    if isinstance(m, SymplecticMatrix):
        return {"n": m.n, "rows": [list(map(float, r)) for r in m.entries]}
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2 if m.shape[0] % 2 == 0 else m.shape[0]
    return {"n": n, "rows": [list(map(float, r)) for r in m]}


def matrix_from_obj(obj) -> np.ndarray:
    """Square real matrix; malformed or non-finite input raises `MtfrError`."""
    with _malformed("matrix"):
        rows = np.asarray(obj["rows"], dtype=float)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise DimensionMismatch("matrix rows must be square")
    if not np.isfinite(rows).all():
        raise MtfrError("matrix entries must be finite")
    return rows


def complex_matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "n": m.shape[0],
        "re": [list(map(float, r)) for r in m.real],
        "im": [list(map(float, r)) for r in m.imag],
    }


def complex_matrix_from_obj(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def word_to_obj(word: GeneratorWord) -> list:
    letters = []
    for letter in word.letters:
        if isinstance(letter, Chirp):
            letters.append({"kind": "chirp", "q": [list(map(float, r)) for r in letter.q]})
        elif isinstance(letter, Dilation):
            letters.append({"kind": "dilation", "l": [list(map(float, r)) for r in letter.l]})
        elif isinstance(letter, PartialFourier):
            letters.append({"kind": "pfourier", "axes": list(letter.axes)})
    return letters


def word_from_obj(n: int, obj) -> GeneratorWord:
    letters = []
    for item in obj:
        kind = item["kind"]
        if kind == "chirp":
            letters.append(Chirp(np.asarray(item["q"], dtype=float)))
        elif kind == "dilation":
            letters.append(Dilation(np.asarray(item["l"], dtype=float)))
        elif kind == "pfourier":
            letters.append(PartialFourier(tuple(item["axes"])))
        else:
            raise DimensionMismatch(f"unknown letter kind {kind!r}")
    return GeneratorWord(n, tuple(letters))


def gaussian_to_obj(g: GeneralizedGaussian) -> dict:
    return {
        "n": g.n,
        "M_re": [list(map(float, r)) for r in g.m.real],
        "M_im": [list(map(float, r)) for r in g.m.imag],
        "b_re": list(map(float, g.b.real)),
        "b_im": list(map(float, g.b.imag)),
        "logamp": float(g.logamp),
    }


def gaussian_from_obj(obj) -> GeneralizedGaussian:
    """Inverse of `gaussian_to_obj`; malformed or non-finite input raises `MtfrError`."""
    with _malformed("Gaussian"):
        m_re, m_im, b_re, b_im = (
            np.asarray(obj[key], dtype=float) for key in ("M_re", "M_im", "b_re", "b_im")
        )
        logamp = float(obj["logamp"])
        if not all(np.isfinite(x).all() for x in (m_re, m_im, b_re, b_im, logamp)):
            raise ValueError("entries must be finite")
        return GeneralizedGaussian(m_re + 1j * m_im, b_re + 1j * b_im, logamp)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert) -> dict:
    obj = {
        "alternative": cert.alternative,
        "d": cert.d,
        "offdiag_norm": float(cert.offdiag_norm),
        "warnings": list(cert.warnings),
        "intermediates": {
            "bold_matrix": matrix_to_obj(cert.bold),
            "pre_iwasawa": {
                "Q": matrix_to_obj(cert.pre.q),
                "L": matrix_to_obj(cert.pre.l),
                "U": complex_matrix_to_obj(cert.pre.u),
            },
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
    """Inverse of `certificate_to_obj`; malformed input raises `MtfrError`."""
    with _malformed("certificate"):
        inter = obj["intermediates"]
        d = int(obj["d"])
        alternative = obj["alternative"]
        alt1 = alt2 = None
        if alternative == "I":
            alt1 = AltIData(
                w=matrix_from_obj(obj["W"]),
                v1=complex_matrix_from_obj(obj["V1"]),
                v2=complex_matrix_from_obj(obj["V2"]),
            )
        elif alternative == "II":
            alt2 = AltIIData(
                tau=complex(obj["tau"]["re"], obj["tau"]["im"]),
                k=int(obj["k"]),
                p=matrix_from_obj(inter["P"]),
                w1=matrix_from_obj(inter["W1"]),
                gamma1=np.asarray(inter["Gamma1"], dtype=float),
                w2=matrix_from_obj(inter["W2"]),
                pi=matrix_from_obj(inter["Pi"]),
                omega=matrix_from_obj(obj["Omega"]),
                word_a=word_from_obj(d, obj["word_A"]),
                word_b=word_from_obj(d, obj["word_B"]),
                chirp_sign=str(inter.get("chirp_sign", "-P22")),
            )
        else:
            raise MtfrError(f"unknown certificate alternative {alternative!r}")
        pre = inter["pre_iwasawa"]
        return Certificate(
            alternative=alternative,
            d=d,
            offdiag_norm=float(obj["offdiag_norm"]),
            pre=PreIwasawa(
                matrix_from_obj(pre["Q"]),
                matrix_from_obj(pre["L"]),
                complex_matrix_from_obj(pre["U"]),
            ),
            bold=SymplecticMatrix.from_array(matrix_from_obj(inter["bold_matrix"])),
            word_bold=word_from_obj(2 * d, inter["word_bold"]),
            alt1=alt1,
            alt2=alt2,
            warnings=tuple(obj.get("warnings", ())),
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
    inter = np.empty(field.values.size * 2, dtype="<f8")
    inter[0::2] = field.values.real.ravel()
    inter[1::2] = field.values.imag.ravel()
    _atomic_write(path, b"".join(header), inter)


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
        inter = np.frombuffer(fh.read(payload), dtype="<f8")
        values = (inter[0::2] + 1j * inter[1::2]).reshape(points)
    return SampledField(values, tuple(extents))


def sweep_to_csv(report) -> str:
    """CSV text with columns R, value, ratio (ratio empty on the first row)."""
    lines = ["R,value,ratio"]
    ratios = (None,) + tuple(report.ratios)
    for (r, v), ratio in zip(report.sweep, ratios):
        if ratio is None:
            tail = ""
        elif np.isfinite(ratio):
            tail = _fmt_float(ratio)
        else:
            tail = "inf"
        lines.append(f"{_fmt_float(r)},{_fmt_float(v)},{tail}")
    return "\n".join(lines) + "\n"
